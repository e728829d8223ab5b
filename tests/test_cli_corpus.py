"""Byte-identity corpus of CLI runs: every line of cli_corpus.txt, replayed in process.

A line holds the exit code, the sha256 of stdout, of stderr and of the
--output file ("-" when none was written), then the argv, shell-quoted.  An
argv word "{output}" stands for a file in a fresh temporary directory.

The corpus was recorded once from the code and is never rewritten to make
this test pass.  A change that alters output on purpose rewrites only the
lines it affects, and names each argv and the reason.  This prints the line
of one argv:

    PYTHONPATH=src python tests/test_cli_corpus.py matrix 3 --arg one
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from sierpinski import cli

CORPUS = Path(__file__).with_name("cli_corpus.txt")
OUTPUT = "{output}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv, directory) -> str:
    """The corpus line of one argv, run in process through cli.main."""
    target = os.path.join(directory, "out")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([target if word == OUTPUT else word for word in argv])
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code
    written = "-"
    if os.path.exists(target):
        written = _sha(Path(target).read_bytes())
        os.unlink(target)
    fields = [str(rc), _sha(out.getvalue().encode()), _sha(err.getvalue().encode()), written]
    return " ".join([*fields, shlex.join(argv)])


def corpus_lines():
    return [line for line in CORPUS.read_text().splitlines() if line and not line.startswith("#")]


def test_every_argv_reproduces_its_recorded_bytes(tmp_path):
    lines = corpus_lines()
    assert len(lines) > 1000
    for line in lines:
        argv = shlex.split(line.split(" ", 4)[4])
        now = record(argv, tmp_path)
        assert now == line, f"output of `sierpinski {shlex.join(argv)}` differs from the corpus"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        print(record(sys.argv[1:], directory))
