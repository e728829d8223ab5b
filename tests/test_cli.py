"""End-to-end CLI tests: output goldens, exit-code contract, determinism.

Commands run in this process through ``cli.main(argv)``; TestContract keeps
subprocess smoke tests of the ``python -m sierpinski`` entry point.
"""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpinski import cli, matrices
from sierpinski.algebra import ONE

EQ1_RIGHT_TRIANGLE = "\n".join(
    [
        "1",
        "11",
        "1 1",
        "1111",
        "1   1",
        "11  11",
        "1 1 1 1",
        "11111111",
    ]
)


Result = namedtuple("Result", "returncode stdout stderr")

PAST_PRIME_LIMIT = str(2**61 - 1)  # a Mersenne prime, past is_prime's 2^32 bound


def run_cli(*args):
    """Run one command in process, with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code
    return Result(rc, out.getvalue(), err.getvalue())


def run_cli_process(*args):
    return subprocess.run(
        [sys.executable, "-m", "sierpinski", *args],
        capture_output=True,
        text=True,
    )


# Per-cell reference versions of the triangle sources and renderers: one
# tuple of ints per row, one character per cell.


def reference_pascal_cells(rows, p):
    cells = []
    row = (1,)
    for n in range(rows):
        cells.append(row)
        row = (1,) + tuple((row[i] + row[i + 1]) % p for i in range(n)) + (1,)
    return tuple(cells)


def reference_matrix_ones_cells(order):
    matrix = matrices.build_closed_form(order, ONE)
    rows = []
    for j in range(matrix.size):
        stored = {k for k, _ in matrix.rows[j]}
        rows.append(tuple(1 if k in stored else 0 for k in range(j + 1)))
    return tuple(rows)


def reference_render(cells, modulus, fmt):
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(cells)
        return buffer.getvalue()
    if fmt == "ascii":
        lines = []
        for row in cells:
            if modulus == 2:
                lines.append("".join("1" if c else " " for c in row).rstrip())
            else:
                lines.append("".join(str(c) for c in row))
    else:
        width = len(cells)
        lines = ["P1", f"{width} {width}"]
        for row in cells:
            padded = list(row) + [0] * (width - len(row))
            lines.append(" ".join("1" if c else "0" for c in padded))
    return "\n".join(lines) + "\n"


class TestDigits:
    def test_three(self):
        result = run_cli("digits", "3")
        assert result.returncode == 0
        assert "s=2" in result.stdout
        assert "digits=1,1" in result.stdout

    def test_zero(self):
        result = run_cli("digits", "0")
        assert result.returncode == 0
        assert "s=0" in result.stdout

    def test_255(self):
        result = run_cli("digits", "255")
        assert result.returncode == 0
        assert "s=8" in result.stdout

    def test_base_ten(self):
        result = run_cli("digits", "255", "--base", "10")
        assert "digits=5,5,2" in result.stdout
        assert "s=12" in result.stdout

    def test_negative_rejected(self):
        assert run_cli("digits", "--", "-4").returncode == 2

    def test_malformed_rejected(self):
        assert run_cli("digits", "worm").returncode == 2

    def test_bad_base_rejected(self):
        assert run_cli("digits", "3", "--base", "1").returncode == 2


class TestMatrix:
    def test_order_three_bottom_row(self):
        result = run_cli("matrix", "3", "--arg", "x")
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "x^3 x^2 x^2 x x^2 x x 1"

    def test_order_zero(self):
        assert run_cli("matrix", "0").stdout == "1\n"

    def test_order_two_binary_grid(self):
        result = run_cli("matrix", "2", "--arg", "one")
        assert result.stdout.splitlines() == [
            "1 0 0 0",
            "1 1 0 0",
            "1 0 1 0",
            "1 1 1 1",
        ]

    def test_poly_format(self):
        result = run_cli("matrix", "1", "--format", "poly")
        assert result.stdout.splitlines() == ["1\t0", "1*X^1\t1"]

    def test_closed_construction_same_output(self):
        a = run_cli("matrix", "4", "--construction", "kronecker")
        b = run_cli("matrix", "4", "--construction", "closed")
        assert a.stdout == b.stdout

    def test_closed_construction_calls_the_closed_form(self, monkeypatch):
        built = []
        closed = matrices.build_closed_form
        monkeypatch.setattr(matrices, "build_closed_form",
                            lambda n, arg: built.append(n) or closed(n, arg))
        run_cli("matrix", "4", "--construction", "closed")
        run_cli("matrix", "3", "--construction", "kronecker")
        assert built == [4]

    @pytest.mark.parametrize("construction", ["kronecker", "closed"])
    @pytest.mark.parametrize("stubbed", ["build_recursive", "build_closed_form"])
    def test_check_compares_the_chosen_builder_with_the_other(self, monkeypatch, stubbed,
                                                               construction):
        # one builder returns S_4(x) with one exponent raised; whichever builder --construction
        # names, --check builds the other one too, so the two disagree
        build = getattr(matrices, stubbed)

        def corrupted(n, arg):
            rows = [list(row) for row in build(n, arg).rows]
            k, e = rows[13][1]
            rows[13][1] = (k, e + 1)
            return matrices.MonomialMatrix(n, arg, rows)

        monkeypatch.setattr(matrices, stubbed, corrupted)
        result = run_cli("matrix", "4", "--check", "--construction", construction)
        assert result.returncode == 1
        assert "status: fail" in result.stdout

    def test_check_flag(self):
        result = run_cli("matrix", "5", "--check")
        assert result.returncode == 0
        assert "status: pass" in result.stdout
        assert result.stdout == (
            "identity: construction-equivalence\nparameter: order=5 arg=x\nstatus: pass\n"
        )

    def test_size_limit_exit_code(self):
        result = run_cli("matrix", "50")
        assert result.returncode == 2
        assert "3^50" in result.stderr

    def test_max_order_override(self):
        # the construction limit is fixed; --max-order is not an option
        result = run_cli("matrix", "13", "--max-order", "13")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr


class TestExpand:
    def test_three(self):
        result = run_cli("expand", "3")
        assert result.stdout.splitlines() == [
            "0 0 2",
            "1 1 1",
            "2 1 1",
            "3 2 0",
            "x^2 + 2xy + y^2",
        ]

    def test_zero(self):
        assert run_cli("expand", "0").stdout.splitlines() == ["0 0 0", "1"]

    def test_five(self):
        lines = run_cli("expand", "5").stdout.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == ["0", "1", "4", "5"]

    def test_malformed(self):
        assert run_cli("expand", "x").returncode == 2

    def test_over_exponent_cap_exits_2(self):
        result = run_cli("expand", "33554431")  # s(m) = 25
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_written_a_line_at_a_time(self, tmp_path):
        # 65,536 term lines, 1.2 MB of text; a tuple of the terms alone would take ~7 MB
        target = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            result = run_cli("expand", "65535", "--output", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "", "")
        lines = target.read_text().splitlines()
        assert len(lines) == (1 << 16) + 1
        assert lines[-1].startswith("x^16 + 16x^15y + ")
        assert peak < 1024 * 1024


class TestVerify:
    def test_group_order_four(self):
        result = run_cli("verify", "group", "--order", "4")
        assert result.returncode == 0
        assert "status: pass" in result.stdout

    def test_binomial_trivial_bound(self):
        result = run_cli("verify", "binomial", "--max-m", "1")
        assert result.returncode == 0

    def test_kummer(self):
        result = run_cli("verify", "kummer", "--max-n", "64", "--p", "2")
        assert result.returncode == 0
        assert "identity: kummer" in result.stdout

    def test_additivity(self):
        assert run_cli("verify", "additivity", "--max-m", "128").returncode == 0

    def test_correspondence(self):
        assert run_cli("verify", "correspondence", "--order", "5").returncode == 0

    def test_all(self):
        result = run_cli("verify", "all", "--max-m", "64", "--max-n", "32")
        assert result.returncode == 0
        assert result.stdout.count("status: pass") == 5
        assert result.stdout == (
            "identity: digital-binomial\nparameter: m<64\nstatus: pass\n"
            "\n"
            "identity: digit-sum-additivity\nparameter: m<64\nstatus: pass\n"
            "\n"
            "identity: group-law\nparameter: order=4\nstatus: pass\n"
            "\n"
            "identity: kummer\nparameter: n_max=32 p=2\nstatus: pass\n"
            "\n"
            "identity: triangle-matrix-correspondence\nparameter: order=8\nstatus: pass\n"
        )

    def test_unknown_suite(self):
        assert run_cli("verify", "nonsense").returncode == 2

    def test_composite_p(self):
        assert run_cli("verify", "kummer", "--p", "4").returncode == 2

    def test_additivity_max_m_refused_before_any_suite(self, monkeypatch):
        from sierpinski import identities

        def never(*_):
            raise AssertionError("a suite ran before the --max-m guard")

        monkeypatch.setattr(identities, "verify_additivity_form", never)
        monkeypatch.setattr(identities, "verify_digital_binomial", never)
        for suite, max_m in (("all", "1000000000"), ("additivity", "4097"), ("binomial", "4097")):
            result = run_cli("verify", suite, "--max-m", max_m)
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["--max-n", "2000"], ["--p", "4"], ["--order", "100000"], ["--order", "13"]],
    )
    def test_all_refused_by_a_late_suite_prints_nothing(self, argv):
        # kummer or group refuses, with the real verifiers in place; --order 100000
        # is refused before anything is built, as --order 13 is
        result = run_cli("verify", "all", *argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--p", "4"], "p must be prime, got 4"),
            (["--max-n", "2000"], "n_max = 2000 exceeds the practical limit 1024"),
            (
                ["--order", "13"],
                "order 13 exceeds the construction limit 12: "
                "the matrix would hold 3^13 = 1594323 entries",
            ),
        ],
        ids=["kummer-p", "kummer-max-n", "correspondence-order"],
    )
    def test_all_refuses_before_the_range_scans(self, monkeypatch, argv, message):
        # kummer, group and correspondence run in that order, before the range
        # scans; --order 13 is refused by group's build, so correspondence never runs
        from sierpinski import identities

        def never(*_):
            raise AssertionError("a suite did work before a cheaper suite refused")

        monkeypatch.setattr(identities, "verify_digital_binomial", never)
        monkeypatch.setattr(identities, "verify_additivity_form", never)
        monkeypatch.setattr(identities, "verify_triangle_matrix_correspondence", never)
        assert run_cli("verify", "all", *argv) == (2, "", f"error: {message}\n")

    def test_max_m_guard_spares_other_suites(self):
        assert run_cli("verify", "kummer", "--max-m", "1000000000").returncode == 0

    def test_kummer_p_past_prime_limit(self):
        result = run_cli("verify", "kummer", "--max-n", "2", "--p", PAST_PRIME_LIMIT)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert run_cli("verify", "kummer", "--max-n", "8", "--p", "1000000007").returncode == 0


class TestTriangle:
    def test_ascii_eight_rows(self):
        result = run_cli("triangle", "--rows", "8", "--mod", "2", "--format", "ascii")
        assert result.returncode == 0
        assert result.stdout == EQ1_RIGHT_TRIANGLE + "\n"

    def test_single_row(self):
        assert run_cli("triangle", "--rows", "1", "--mod", "2").stdout == "1\n"

    def test_pbm(self):
        result = run_cli("triangle", "--rows", "8", "--mod", "2", "--format", "pbm")
        lines = result.stdout.splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "8 8"
        assert lines[6] == "1 0 0 0 1 0 0 0"  # triangle row 4, zero-padded
        assert len(lines) == 10

    def test_csv(self):
        result = run_cli("triangle", "--rows", "4", "--mod", "2", "--format", "csv")
        assert result.stdout.splitlines() == ["1", "1,1", "1,0,1", "1,1,1,1"]

    def test_mod_three(self):
        result = run_cli("triangle", "--rows", "4", "--mod", "3")
        assert result.stdout.splitlines() == ["1", "11", "121", "1001"]

    def test_matrix_ones_source_matches_pascal(self):
        by_matrix = run_cli("triangle", "--order", "3", "--source", "matrix-ones")
        by_pascal = run_cli("triangle", "--rows", "8", "--mod", "2")
        assert by_matrix.returncode == 0
        assert by_matrix.stdout == by_pascal.stdout
        assert run_cli("triangle", "--rows", "8", "--source", "pascal-mod") == by_pascal

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rows", "8", "--source", "matrix-ones"], "--source matrix-ones requires --order"),
            (["--order", "3", "--source", "pascal-mod"], "--source pascal-mod requires --rows"),
            (["--order", "3", "--mod", "3"], "matrix-ones patterns are mod-2 only"),
        ],
    )
    def test_source_follows_the_size_flag(self, argv, message):
        assert run_cli("triangle", *argv) == (2, "", f"error: {message}\n")

    def test_bad_format(self):
        assert run_cli("triangle", "--rows", "4", "--format", "svg").returncode == 2

    def test_ascii_needs_single_digit_residues(self):
        assert run_cli("triangle", "--rows", "4", "--mod", "11").returncode == 2
        assert run_cli("triangle", "--rows", "4", "--mod", "11", "--format", "csv").returncode == 0

    def test_ascii_refused_before_the_triangle_is_built(self, monkeypatch):
        from sierpinski import identities

        def never(*_):
            raise AssertionError("pascal_mod ran before the ascii modulus check")

        monkeypatch.setattr(identities, "pascal_mod", never)
        result = run_cli("triangle", "--rows", "16384", "--mod", "11", "--format", "ascii")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: ascii format needs single-character residues (mod <= 7)\n"

    def test_composite_modulus(self):
        assert run_cli("triangle", "--rows", "4", "--mod", "6").returncode == 2

    def test_modulus_past_prime_limit(self):
        result = run_cli("triangle", "--rows", "2", "--mod", PAST_PRIME_LIMIT)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        for mod in ("131", "257"):
            result = run_cli("triangle", "--rows", "3", "--mod", mod, "--format", "csv")
            assert result.stdout.splitlines() == ["1", "1,1", "1,2,1"]

    @pytest.mark.parametrize("fmt", ["ascii", "pbm", "csv"])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_pascal_matches_reference_renderers(self, p, fmt):
        for rows in (1, 2, 9, 70):
            want = reference_render(reference_pascal_cells(rows, p), p, fmt)
            result = run_cli("triangle", "--rows", str(rows), "--mod", str(p), "--format", fmt)
            assert result.stdout == want

    @pytest.mark.parametrize("p", [131, 257, 65537, 4294967291])
    def test_wide_modulus_pbm_matches_reference(self, p):
        # two-, four- and eight-byte cells; row 131 holds the first zero residues mod 131
        want = reference_render(reference_pascal_cells(140, p), p, "pbm")
        result = run_cli("triangle", "--rows", "140", "--mod", str(p), "--format", "pbm")
        assert result.stdout == want

    @pytest.mark.parametrize("fmt", ["ascii", "pbm", "csv"])
    def test_matrix_ones_matches_reference_renderers(self, fmt):
        for order in range(8):
            want = reference_render(reference_matrix_ones_cells(order), 2, fmt)
            assert run_cli("triangle", "--order", str(order), "--format", fmt).stdout == want

    def test_csv_mod_131_against_binomials(self):
        result = run_cli("triangle", "--rows", "90", "--mod", "131", "--format", "csv")
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            ",".join(str(math.comb(n, k) % 131) for k in range(n + 1)) for n in range(90)
        ]

    def test_csv_builds_no_residue_table_larger_than_the_triangle(self):
        # 16 rows hold 136 cells; a table of 65,521 residue strings would take ~4 MB
        tracemalloc.start()
        try:
            result = run_cli("triangle", "--rows", "16", "--mod", "65521", "--format", "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stdout == reference_render(reference_pascal_cells(16, 65521), 65521, "csv")
        assert peak < 1024 * 1024

    @pytest.mark.parametrize(
        "argv", [["--rows", "4096"], ["--order", "12"]], ids=["pascal-mod", "matrix-ones"]
    )
    def test_pbm_is_written_a_row_at_a_time(self, argv, tmp_path):
        # the whole 4096 x 4096 raster is 33.6 MB of text; one row of it is 8 kB
        target = tmp_path / "out.pbm"
        tracemalloc.start()
        try:
            result = run_cli("triangle", *argv, "--format", "pbm", "--output", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "", "")
        assert target.stat().st_size == len("P1\n4096 4096\n") + 4096 * 8192
        assert peak < 8 * 1024 * 1024


class TestRenderPbm:
    def test_cells_keep_their_order(self):
        # every row the CLI can feed render_pbm is a palindrome; these two are not
        wide = memoryview(array("H", [0, 300, 65535]).tobytes()).cast("H")
        lines = list(cli.render_pbm([b"\x02\x00", wide], 3))
        assert lines == ["P1\n3 3\n", "1 0 0\n", "0 1 1\n"]


class TestCounterexampleExit:
    # every identity actually holds, so exit code 1 is reachable only by
    # stubbing a verifier; this pins the dispatch wiring
    SUITES = {  # suite -> (verifier it runs, identity, parameter of a report)
        "binomial": ("verify_digital_binomial", "digital-binomial", "m={}"),
        "additivity": ("verify_additivity_form", "digit-sum-additivity", "m={}"),
        "group": ("verify_group_law", "group-law", "order={}"),
        "kummer": ("verify_kummer", "kummer", "n_max={} p={}"),
        "correspondence": (
            "verify_triangle_matrix_correspondence", "triangle-matrix-correspondence", "order={}"
        ),
    }

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_verify_reports_failure(self, monkeypatch, suite):
        from sierpinski import identities

        verifier, identity, parameter = self.SUITES[suite]
        ranged = parameter == "m={}"

        def failing(*args):
            # a range suite passes m = 0, 1, 2 and fails first at m = 3
            passed = ranged and args[0] < 3
            return identities.Report(
                identity, parameter.format(*args), passed, first_mismatch="n=1 k=1 binomial=1"
            )

        monkeypatch.setattr(identities, verifier, failing)
        result = run_cli("verify", suite)
        assert result.returncode == 1
        assert "status: fail" in result.stdout
        assert f"identity: {identity}\n" in result.stdout
        assert "first_mismatch: n=1 k=1" in result.stdout
        if ranged:
            assert "parameter: m=3\n" in result.stdout

    def test_matrix_check_reports_failure(self, monkeypatch, capsys):
        from sierpinski import cli, matrices

        monkeypatch.setattr(matrices, "matrices_equal", lambda a, b: False)
        rc = cli.main(["matrix", "3", "--check"])
        assert rc == 1
        assert "status: fail" in capsys.readouterr().out


class TestContract:
    def test_import_does_not_load_unused_modules(self):
        # numpy alone costs more than the whole package; dataclasses pulls in inspect
        code = (
            "import sys, sierpinski.cli; "
            "print(*sorted({'numpy', 'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "\n"

    def test_runs_on_the_standard_library_alone(self):
        # numpy is only a test extra: with its import blocked every verifier still runs
        code = (
            "import sys; sys.modules['numpy'] = None\n"
            "import sierpinski\n"
            "from sierpinski import cli\n"
            "assert len(list(sierpinski.carry_rows(64, 3))) == 64\n"
            "assert sierpinski.verify_kummer(64, 3)\n"
            "sys.exit(cli.main(['verify', 'all']))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.count("status: pass") == 5

    def test_deterministic_output(self):
        first = run_cli_process("matrix", "5", "--arg", "x")
        second = run_cli_process("matrix", "5", "--arg", "x")
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "9"],  # 558 kB: the write fails inside the handler
            ["verify", "binomial", "--max-m", "4"],  # fits the buffer: fails at the flush
            ["triangle", "--rows", "4096", "--format", "pbm"],  # a streamed write fails in it
            ["expand", "131071"],  # 2.6 MB of term lines, written as they are enumerated
        ],
        ids=["in-handler", "at-flush", "streamed", "streamed-expand"],
    )
    def test_closed_stdout_exits_quietly(self, argv):
        # stdout is a pipe whose reader is already gone, as after `| head -1`;
        # stdout is block-buffered, as it is by default when it is a pipe
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "sierpinski", *argv], stdout=write, stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write)
        assert result.returncode == 141  # the documented status, neither 0 nor 1 (counterexample)
        assert result.stderr == b""

    def test_output_file(self, tmp_path):
        target = tmp_path / "triangle.pbm"
        result = run_cli(
            "triangle", "--rows", "8", "--format", "pbm", "--output", str(target)
        )
        assert result.returncode == 0
        assert result.stdout == ""
        assert target.read_text().startswith("P1\n8 8\n")

    def test_output_file_untouched_on_error(self, tmp_path):
        # refused before any output, and refused after three suites printed
        target = tmp_path / "f"
        for argv in (["matrix", "13"], ["verify", "all", "--p", "4", "--max-m", "4"]):
            target.write_bytes(b"keep\n")
            result = run_cli(*argv, "--output", str(target))
            assert result.returncode == 2
            assert result.stderr.startswith("error: ")
            assert target.read_bytes() == b"keep\n"
            assert os.listdir(tmp_path) == ["f"]
        # a target that cannot be written: a missing directory, or a directory
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "g").write_bytes(b"keep\n")
        for bad in (tmp_path / "missing" / "f", tmp_path / "d"):
            result = run_cli("digits", "5", "--output", str(bad))
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr.startswith(f"error: cannot write {bad}: ")
            assert sorted(os.listdir(tmp_path)) == ["d", "f"]
            assert os.listdir(tmp_path / "d") == ["g"]
            assert (tmp_path / "d" / "g").read_bytes() == b"keep\n"

    def test_directory_output_refused_before_the_command_runs(self, monkeypatch, tmp_path):
        from sierpinski import identities

        def ran(*args):
            raise AssertionError("the command ran before its --output was refused")

        monkeypatch.setattr(identities, "verify_digital_binomial", ran)
        result = run_cli("verify", "all", "--output", str(tmp_path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot write {tmp_path}: ")
        assert os.listdir(tmp_path) == []
        # a symlink to a directory is replaced by the file, as the rename does
        (tmp_path / "d").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "d")
        assert run_cli("digits", "5", "--output", str(tmp_path / "link")).returncode == 0
        assert (tmp_path / "link").read_text().startswith("value=5\n")
        assert os.listdir(tmp_path / "d") == []

    def test_matrix_grid_matches_triangle_lower_part(self):
        # mod-2 correspondence surfaces at the CLI level as well
        grid = run_cli("matrix", "3", "--arg", "one").stdout.splitlines()
        tri = run_cli("triangle", "--rows", "8", "--mod", "2", "--format", "csv").stdout
        for j, record in enumerate(tri.splitlines()):
            cells = record.split(",")
            assert grid[j].split()[: j + 1] == cells


def _flag(flag, values):
    return st.sampled_from(values).map(lambda v: [flag, v])


def _opt(flag, values):
    """Nothing, or flag followed by one of values."""
    return st.one_of(st.just([]), _flag(flag, values))


def _argv(*parts):
    return st.tuples(*parts).map(lambda lists: [token for part in lists for token in part])


def _one(values):
    return st.sampled_from(values).map(lambda v: [v])


# Small in-range values plus the first value past each documented cap
# (order 13, --max-m 4097, --rows 16385, --max-n 1025, s(m) = 25, a
# modulus past 2^32) and a few malformed ones.  --max-m and --max-n are
# always given, so no draw runs the 1024-wide default range.
ARGV = st.one_of(
    _argv(st.just(["digits"]), _one(["0", "5", "255", "-1", "x"]), _opt("--base", ["0", "1", "2", "10"])),
    _argv(
        st.just(["matrix"]),
        _one(["0", "1", "3", "5", "13", "-1"]),
        _opt("--arg", ["x", "one", "zero", "y"]),
        _opt("--construction", ["kronecker", "closed"]),
        _opt("--format", ["compact", "poly"]),
        st.sampled_from([[], ["--check"]]),
    ),
    _argv(st.just(["expand"]), _one(["0", "5", "1000", str(2**100), str(2**25 - 1), "-3"])),
    _argv(
        st.just(["verify"]),
        _one(["binomial", "additivity", "group", "kummer", "correspondence", "all", "bogus"]),
        _flag("--max-m", ["1", "16", "4097"]),
        _flag("--max-n", ["1", "16", "1025"]),
        _opt("--order", ["0", "2", "4", "13"]),
        _opt("--p", ["2", "3", "4", "1", "1000000007", PAST_PRIME_LIMIT]),
    ),
    _argv(
        st.just(["triangle"]),
        st.sampled_from(
            [["--rows", "1"], ["--rows", "40"], ["--rows", "0"], ["--rows", "16385"],
             ["--order", "0"], ["--order", "3"], ["--order", "13"], ["--rows", "8", "--order", "3"]]
        ),
        _opt("--mod", ["2", "3", "7", "11", "131", "4", PAST_PRIME_LIMIT]),
        _opt("--format", ["ascii", "pbm", "csv"]),
        _opt("--source", ["pascal-mod", "matrix-ones"]),
    ),
)


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(ARGV, st.sampled_from([[], ["--bogus"], ["7"]]))
    def test_exits_0_1_or_2(self, argv, junk):
        # argparse's SystemExit(2) counts as 2; any other exception fails the test
        result = run_cli(*argv, *junk)
        assert result.returncode in (0, 1, 2), (argv + junk, result)
