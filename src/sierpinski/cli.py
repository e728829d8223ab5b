"""Command-line front end.

Subcommands: digits, matrix, expand, verify, triangle.  Exit codes follow
the usual convention: 0 success / all checks passed, 1 a verification found
a counterexample, 2 usage or size-limit error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import identities, matrices
from .algebra import ONE, ZERO, Poly, X
from .digits import base_digits

USAGE_ERROR = 2
COUNTEREXAMPLE = 1
BROKEN_PIPE = 141  # the shell's status for a writer killed by SIGPIPE

_ARGS = {"x": X, "one": ONE, "zero": ZERO}

# suite -> its Report; each verifier is looked up on identities when the suite
# runs, so a verifier replaced on the module (a test stub, a tracer) is the one called
_SUITES = {
    "binomial": lambda args: identities.verify_range(
        identities.verify_digital_binomial, args.max_m
    ),
    "additivity": lambda args: identities.verify_range(
        identities.verify_additivity_form, args.max_m
    ),
    "group": lambda args: identities.verify_group_law(4 if args.order is None else args.order),
    "kummer": lambda args: identities.verify_kummer(args.max_n, args.p),
    "correspondence": lambda args: identities.verify_triangle_matrix_correspondence(
        8 if args.order is None else args.order
    ),
}
_RUN_ORDER = ("kummer", "group", "correspondence", "additivity", "binomial")  # cheapest first


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sierpinski",
        description="Exact Sierpinski matrices, digit-sum identities, and triangle patterns.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="FILE", help="write output here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", parents=[common], help="digit expansion and digit sum")
    p.add_argument("value", type=_nonnegative_int)
    p.add_argument("--base", type=int, default=2)
    p.set_defaults(run=cmd_digits)

    p = sub.add_parser("matrix", parents=[common], help="emit a family matrix")
    p.add_argument("order", type=_nonnegative_int)
    p.add_argument("--arg", choices=sorted(_ARGS), default="x")
    p.add_argument("--construction", choices=["kronecker", "closed"], default="kronecker")
    p.add_argument("--format", choices=["compact", "poly"], default="compact")
    p.add_argument("--check", action="store_true", help="build both ways and compare")
    p.set_defaults(run=cmd_matrix)

    p = sub.add_parser("expand", parents=[common], help="digital binomial expansion of m")
    p.add_argument("m", type=_nonnegative_int)
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=[*_SUITES, "all"])
    p.add_argument("--max-m", type=_positive_int, default=1024)
    p.add_argument("--order", type=_nonnegative_int, default=None)
    p.add_argument("--max-n", type=_positive_int, default=64)
    p.add_argument("--p", type=int, default=2)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("triangle", parents=[common], help="render a triangle pattern")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rows", type=_positive_int, help="Pascal rows (pascal-mod source)")
    group.add_argument("--order", type=_nonnegative_int, help="matrix order (matrix-ones source)")
    p.add_argument("--mod", type=int, default=2)
    p.add_argument("--format", choices=["ascii", "pbm", "csv"], default="ascii")
    p.add_argument("--source", choices=["pascal-mod", "matrix-ones"], default=None)
    p.set_defaults(run=cmd_triangle)

    return parser


def cmd_digits(args, out) -> int:
    digits = base_digits(args.value, args.base)
    print(f"value={args.value}", file=out)
    print(f"base={args.base}", file=out)
    print("digits=" + ",".join(str(d) for d in digits), file=out)
    print(f"s={sum(digits)}", file=out)
    return 0


def _build(order: int, arg: Poly, construction: str):
    if construction == "closed":
        return matrices.build_closed_form(order, arg)
    return matrices.build_recursive(order, arg)


def cmd_matrix(args, out) -> int:
    arg = _ARGS[args.arg]
    matrix = _build(args.order, arg, args.construction)
    if args.check:
        other = "closed" if args.construction == "kronecker" else "kronecker"
        same = matrices.matrices_equal(matrix, _build(args.order, arg, other))
        parameter = f"order={args.order} arg={args.arg}"
        print(identities.Report("construction-equivalence", parameter, same).to_text(), file=out)
        return 0 if same else COUNTEREXAMPLE
    render, sep = (str, "\t") if args.format == "poly" else (Poly.pretty, " ")
    for line in matrix.grid(render, sep):
        print(line, file=out)
    return 0


def cmd_expand(args, out) -> int:
    expansion = identities.digital_expansion(args.m)
    out.writelines(f"{k} {a} {b}\n" for k, a, b in expansion.terms)
    print(Poly(identities.exponent_pair_counts(args.m)).pretty(), file=out)
    return 0


def cmd_verify(args, out) -> int:
    # every suite runs before anything is printed, so a refusal leaves stdout empty
    suites = _RUN_ORDER if args.suite == "all" else [args.suite]
    reports = {suite: _SUITES[suite](args) for suite in suites}
    print("\n\n".join(reports[s].to_text() for s in _SUITES if s in reports), file=out)
    return 0 if all(reports.values()) else COUNTEREXAMPLE


_DIGITS = bytes((48 + c) & 0xFF for c in range(256))  # residue c -> ASCII digit c
_BITS = b"0" + b"1" * 255  # nonzero -> 1
_BLANK_OR_1 = b" " + b"1" * 255
MAX_ASCII_MOD = 7  # the largest prime whose residues are single digits


def _check_ascii(modulus: int) -> None:
    if modulus > MAX_ASCII_MOD:
        raise ValueError(f"ascii format needs single-character residues (mod <= {MAX_ASCII_MOD})")


def render_ascii(cells, modulus: int):
    """Lines of the triangle, one character a cell; at p=2 a blank stands for residue 0."""
    _check_ascii(modulus)
    table = _BLANK_OR_1 if modulus == 2 else _DIGITS
    return (bytes(row).translate(table).rstrip().decode("ascii") + "\n" for row in cells)


def render_pbm(cells, width: int):
    """Lines of a P1 text raster, width x width: the triangle's rows padded right with zeros."""
    yield f"P1\n{width} {width}\n"
    blank = b" " * (2 * width - 1) + b"\n"
    for row in cells:
        if not isinstance(row, (bytes, bytearray)):
            row = bytes(map(bool, row))  # p >= 128 rows hold cells wider than a byte
        line = bytearray(blank)
        line[::2] = row.translate(_BITS).ljust(width, b"0")
        yield line.decode("ascii")


def _csv_records(cells, modulus: int, width: int):
    """One csv record a row, each ended by csv's \\r\\n; residues below 2^16 read one table."""
    table = modulus < min(1 << 16, width * (width + 1) // 2)  # only when cells outnumber p
    text = list(map(str, range(modulus))).__getitem__ if table else str
    for row in cells:
        if modulus > MAX_ASCII_MOD:
            yield ",".join(map(text, row)) + "\r\n"
        else:
            # single-digit residues: the digits at even offsets, commas between
            line = bytearray(b",") * (2 * len(row) - 1)
            line[::2] = row.translate(_DIGITS)
            line += b"\r\n"
            yield line.decode("ascii")


def cmd_triangle(args, out) -> int:
    matrix_ones = args.order is not None  # else --rows: argparse makes the two exclusive
    if args.source not in (None, "matrix-ones" if matrix_ones else "pascal-mod"):
        flag = "--rows" if matrix_ones else "--order"
        raise ValueError(f"--source {args.source} requires {flag}")
    if matrix_ones and args.mod != 2:
        raise ValueError("matrix-ones patterns are mod-2 only")
    if args.format == "ascii":
        _check_ascii(args.mod)  # before the build and pascal_mod's own checks
    width = 1 << args.order if matrix_ones else args.rows  # a stream cannot report its length
    if matrix_ones:
        cells = matrices.build_closed_form(args.order, ONE).marked_rows(lambda e: 1)
    else:
        cells = identities.pascal_mod(width, args.mod)
    if args.format == "ascii":
        out.writelines(render_ascii(cells, args.mod))
    elif args.format == "pbm":
        out.writelines(render_pbm(cells, width))
    else:
        out.writelines(_csv_records(cells, args.mod, width))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output:
            if os.path.isdir(args.output) and not os.path.islink(args.output):
                # the rename at the end would fail: refuse before the command runs
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            # a temp file beside the target, renamed over it only on success,
            # so an error never leaves a truncated or half-written file
            tmp = f"{args.output}.{os.getpid()}.tmp"
            out = open(tmp, "x", newline="")
            try:
                with out:
                    rc = args.run(args, out)
                os.replace(tmp, args.output)
            except BaseException:
                os.unlink(tmp)
                raise
            return rc
        rc = args.run(args, sys.stdout)
        sys.stdout.flush()  # so a reader that already left is seen here, not at exit
        return rc
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): point stdout at devnull so the
        # interpreter's last flush cannot fail again, and stop without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except OSError as exc:
        # --output names a missing directory or a directory, or stdout failed otherwise
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:  # SizeLimitError included
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
