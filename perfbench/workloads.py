"""The three benchmark workloads: seeded inputs, one timed call per op, output checks.

Every workload is a stream of *cycles*.  A cycle is a fixed multiset of op
shapes (path, digit sum, matrix order, command kind) whose concrete
parameters are drawn from the seeded RNG and whose order is shuffled by it.
A run executes whole cycles only, so its mix of cheap and expensive ops is
the same on every seed and on every commit; the seed changes which m, which
rows and which flags the program sees, never how much of each kind of work
there is.

Output checks never call into ``sierpinski``: each op's result is compared
with an invariant computed here from plain integers (``math.comb``, popcounts,
3^n, 2^s(m)).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import threading
import time
from typing import NamedTuple


def popcount(n: int) -> int:
    return bin(n).count("1")


def random_mask(rng, bits: int, width: int, seen: set) -> int:
    """A width-bit integer with exactly `bits` set bits, never returned twice."""
    for _ in range(10_000):
        m = sum(1 << b for b in rng.sample(range(width), bits))
        if m not in seen:
            seen.add(m)
            return m
    raise RuntimeError(f"no unused {width}-bit m with {bits} set bits left")


def binomial_text(s: int) -> str:
    """Canonical text of (X+Y)^s as ``str(Poly)`` writes it, from math.comb."""
    parts = []
    for a in range(s, -1, -1):
        piece = [str(math.comb(s, a))]
        if a:
            piece.append(f"X^{a}")
        if s - a:
            piece.append(f"Y^{s - a}")
        parts.append("*".join(piece))
    return " + ".join(parts)


def binomial_pretty(s: int) -> str:
    """(x+y)^s as ``Poly.pretty`` writes it, e.g. "x^2 + 2xy + y^2"."""
    chunks = []
    for a in range(s, -1, -1):
        mono = ("x" if a == 1 else f"x^{a}" if a else "") + (
            "y" if s - a == 1 else f"y^{s - a}" if s - a else ""
        )
        c = math.comb(s, a)
        body = mono if c == 1 and mono else str(c) + mono
        chunks.append(body if not chunks else "+ " + body)
    return " ".join(chunks)


def submask_exponent(j: int, k: int):
    """Exponent of entry (j, k) of S_n(x): s(j-k) on submasks of j, else None."""
    return popcount(j - k) if k & ~j == 0 else None


def submasks(j: int):
    """Every k with k & ~j == 0, ascending."""
    k = 0
    while True:
        yield k
        if k == j:
            return
        k = (k - j) & j


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def shuffled(rng, ops: list) -> list:
    rng.shuffle(ops)
    return ops


class InProcess:
    """A workload whose ops are calls into the imported package.

    Each of the run's worker processes (``part``) draws its own inputs from
    the seed and runs whole cycles until its share of --seconds is spent.
    """

    TIME_BOUNDED = True

    def __init__(self, seed: int, part: int, parts: int):
        self.rng = random.Random(f"{seed}:{part}")

    def execute(self, op):
        """Run op; returns (latency_s, outcome)."""
        start = time.perf_counter()
        result = self.run(op)
        return time.perf_counter() - start, result

    replay = execute


# --------------------------------------------------------------------------
# binomial-sweep
# --------------------------------------------------------------------------


class BinomialSweep(InProcess):
    """verify_digital_binomial(m) on never-repeated m, plus a few classical reductions.

    Per cycle: 46 small m (m < 2^24) on the materialized path, s(m) in 3..8
    seven times each and 9..12 once each, and 18 random 40-bit m on the
    numpy kernel path, s(m) in 13..24 once each and 22 seven times, so 28%
    of the verify ops take the kernel.  The multiplicities are chosen so that
    op_p50_ms falls inside the materialized s(m) = 7 group and op_p90_ms
    inside the kernel s(m) = 22 group, away from the edges of both.  The
    first 23 cycles also carry one verify_classical_reduction(n), n a seeded
    permutation of 2..24, so no n repeats either.
    """

    name = "binomial-sweep"
    MATERIALIZED = [s for s in range(3, 9) for _ in range(7)] + [9, 10, 11, 12]
    KERNEL = list(range(13, 22)) + [22] * 7 + [23, 24]
    SMALL_WIDTH = 24
    WIDTH = 40
    MATERIALIZE_CAP = 12
    TRACE_CYCLES = 8
    PARTS = 15

    def __init__(self, seed: int, part: int, parts: int):
        super().__init__(seed, part, parts)
        self.seen: set[int] = set()
        self.reductions = list(range(2, 25))
        self.rng.shuffle(self.reductions)

    def setup(self, sierpinski) -> None:
        self.sp = sierpinski
        for s in (3, 6, 13):  # warm both paths on m the stream never uses
            m = random_mask(self.rng, s, self.WIDTH, self.seen)
            self.check(("binomial", m), self.run(("binomial", m)))

    def cycle(self) -> list:
        ops = [("binomial", random_mask(self.rng, s, self.SMALL_WIDTH, self.seen)) for s in self.MATERIALIZED]
        ops += [("binomial", random_mask(self.rng, s, self.WIDTH, self.seen)) for s in self.KERNEL]
        if self.reductions:
            ops.append(("classical", self.reductions.pop()))
        return shuffled(self.rng, ops)

    def run(self, op):
        kind, arg = op
        if kind == "binomial":
            return self.sp.verify_digital_binomial(arg)
        return self.sp.verify_classical_reduction(arg)

    def check(self, op, result) -> None:
        kind, arg = op
        if kind == "classical":
            require(result is True, f"classical reduction n={arg} returned {result!r}")
            return
        expected = binomial_text(popcount(arg))
        require(result.passed, f"m={arg}: report says {result.status}")
        require(result.lhs == expected, f"m={arg}: lhs is not (X+Y)^s(m)")
        require(result.rhs == expected, f"m={arg}: rhs coefficients are not binomial(s, a)")

    def properties(self, ops) -> dict:
        verify = [m for kind, m in ops if kind == "binomial"]
        return {
            "ops": len(ops),
            "kernel_path": sum(popcount(m) > self.MATERIALIZE_CAP for m in verify),
            "classical": len(ops) - len(verify),
            "repeated_m": len(verify) - len(set(verify)),
        }


# --------------------------------------------------------------------------
# matrix-group
# --------------------------------------------------------------------------


class MatrixGroup(InProcess):
    """Seeded (kind, order) jobs on the matrix family, orders repeating.

    Per cycle (59 jobs): ``build`` (both constructions + matrices_equal) at
    every order 0..12 and again at 0..7; ``group`` (S_n(X) S_n(Y) ==
    S_n(X+Y)) and ``inverse`` (S_n(X) S_n(-X) == I) at every order 1..9,
    again at 6 and 7, and four more times at 5 and at 8.  The one order-12
    build per cycle sets peak_rss_mb.  The multiplicities put op_p50_ms
    inside the ten order-5 products and op_p90_ms inside the ten order-8
    products, away from the edges of both groups.
    """

    name = "matrix-group"
    JOBS = [("build", n) for n in list(range(13)) + list(range(8))] + [
        (kind, n) for kind in ("group", "inverse") for n in list(range(1, 10)) + [5, 5, 5, 5, 6, 7, 8, 8, 8, 8]
    ]
    TRACE_CYCLES = 1
    PARTS = 4
    SPOTS = 4  # rows and entries checked per matrix against the closed formula

    def __init__(self, seed: int, part: int, parts: int):
        super().__init__(seed, part, parts)
        self.spot_rng = random.Random(self.rng.getrandbits(64))  # checks never shift the job stream

    def setup(self, sierpinski) -> None:
        self.sp = sierpinski
        for job in (("build", 6), ("group", 4), ("inverse", 4)):
            self.check(job, self.run(job))

    def cycle(self) -> list:
        return shuffled(self.rng, list(self.JOBS))

    def run(self, op):
        sp = self.sp
        kind, n = op
        if kind == "build":
            a = sp.build_recursive(n, sp.X)
            b = sp.build_closed_form(n, sp.X)
            return a, b, sp.matrices_equal(a, b)
        if kind == "group":
            lhs = sp.matmul(sp.build_recursive(n, sp.X), sp.build_recursive(n, sp.Y))
            return lhs, sp.matrices_equal(lhs, sp.build_recursive(n, sp.X + sp.Y))
        prod = sp.matmul(sp.build_recursive(n, sp.X), sp.build_recursive(n, -sp.X))
        return prod, sp.matrices_equal(prod, sp.identity(n))

    def _spots(self, n: int):
        size = 1 << n
        for _ in range(self.SPOTS):
            j = self.spot_rng.randrange(size)
            yield j, self.spot_rng.randrange(j + 1)

    def check(self, op, result) -> None:
        kind, n = op
        require(result[-1] is True, f"{kind} order {n}: matrices_equal is {result[-1]!r}")
        if kind == "build":
            for m in result[:2]:
                require(m.nonzero_count() == 3**n, f"build order {n}: nonzeros != 3^{n}")
                for j, _ in self._spots(n):
                    want = tuple((k, popcount(j - k)) for k in submasks(j))
                    require(m.rows[j] == want, f"build order {n}: row {j} differs from the closed formula")
        elif kind == "group":
            lhs = result[0]
            require(lhs.nonzero_count() == 3**n, f"group order {n}: nonzeros != 3^{n}")
            for j, k in self._spots(n):
                e = submask_exponent(j, k)
                want = {} if e is None else {(a, e - a): math.comb(e, a) for a in range(e + 1)}
                require(lhs.entry(j, k).terms == want, f"group order {n}: entry ({j},{k}) is not (X+Y)^s(j-k)")
        else:
            require(result[0].nonzero_count() == 1 << n, f"inverse order {n}: nonzeros != 2^{n}")

    def properties(self, ops) -> dict:
        return {"ops": len(ops), "repeated_jobs": len(ops) - len(set(ops))}


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------


class ChildRun(NamedTuple):
    """What one cli-session op left behind."""

    rc: int
    stdout: str
    stderr: str
    output: str | None  # the --output file's contents, if the op wrote one
    peak_kb: int  # peak RSS of the child; 0 when replayed in-process


class CliOp:
    """One ``sierpinski`` command line plus what its output must satisfy."""

    __slots__ = ("kind", "argv", "expect_rc", "check", "output", "heavy")

    def __init__(self, kind, argv, check, expect_rc=0, heavy=False):
        self.kind = kind
        self.argv = argv
        self.check = check  # callable(text) raising CheckFailed, or None
        self.expect_rc = expect_rc
        self.output = False
        self.heavy = heavy


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as f:  # csv rows end in \r\n; keep them
        return f.read()


def _take(path: str | None) -> str | None:
    """Contents of an --output file, which is then removed; None without one."""
    if path is None:
        return None
    text = _read(path)
    os.remove(path)
    return text


def _lines(text: str) -> list[str]:
    return text.split("\n")[:-1] if text.endswith("\n") else text.split("\n")


def check_digits(value: int, base: int):
    digits = []
    v = value
    while v:
        v, d = divmod(v, base)
        digits.append(d)
    want = [f"value={value}", f"base={base}", "digits=" + ",".join(map(str, digits)), f"s={sum(digits)}"]

    def check(text):
        require(_lines(text) == want, f"digits {value} --base {base}: wrong output")

    return check


def check_matrix(n: int, arg: str, fmt: str):
    """The whole printed matrix, entry by entry, from the submask formula."""
    size = 1 << n
    sep = " " if fmt == "compact" else "\t"

    def token(e):
        if arg == "zero" and e:
            return "0"
        if arg != "x" or e == 0:
            return "1"
        if fmt == "poly":
            return f"1*X^{e}"
        return "x" if e == 1 else f"x^{e}"

    def check(text):
        lines = []
        for j in range(size):
            row = ["0"] * size
            for k in submasks(j):
                row[k] = token(popcount(j - k))
            lines.append(sep.join(row))
        require(text == "\n".join(lines) + "\n", f"matrix {n} --arg {arg} --format {fmt}: entries differ")

    return check


def check_expand(m: int):
    s = popcount(m)

    def check(text):
        lines = _lines(text)
        require(len(lines) == (1 << s) + 1, f"expand {m}: {len(lines)} lines, want 2^{s}+1")
        last = -1
        for line in lines[:-1]:
            k, a, b = map(int, line.split())
            require(k > last and k & ~m == 0, f"expand {m}: {k} is not the next submask")
            require(a == popcount(k) and b == popcount(m - k), f"expand {m}: wrong digit sums at k={k}")
            last = k
        require(lines[-1] == binomial_pretty(s), f"expand {m}: last line is not (x+y)^{s}")

    return check


def check_triangle(rows: int, mod: int, fmt: str):
    """The whole rendered triangle, cell by cell.

    Mod 2 the odd cells of row j are the submasks of j (Lucas); mod 3 and 5
    every residue comes from math.comb.
    """

    def odd_row(j: int) -> str:
        if fmt == "ascii":
            cells, step = bytearray(b" " * (j + 1)), 1
        else:  # pbm pads every row to the full width; csv writes j + 1 fields
            cells, step = bytearray((b"0 " if fmt == "pbm" else b"0,") * (rows if fmt == "pbm" else j + 1))[:-1], 2
        for k in submasks(j):
            cells[step * k] = ord("1")
        return cells.decode()

    def check(text):
        if mod == 2:
            lines = [odd_row(j) for j in range(rows)]
        else:
            lines = ["".join(str(math.comb(j, k) % mod) for k in range(j + 1)) for j in range(rows)]
        if fmt == "pbm":
            lines = ["P1", f"{rows} {rows}", *lines]
        want = "".join(line + "\r\n" for line in lines) if fmt == "csv" else "\n".join(lines) + "\n"
        require(text == want, f"triangle of {rows} rows mod {mod} as {fmt}: cells differ")

    return check


def check_status(count: int):
    def check(text):
        require(text.count("status: pass") == count, f"expected {count} passing suites")
        require("status: fail" not in text, "a suite failed")

    return check


class CliSession:
    """One ``python -m sierpinski ...`` child per op, drawn from a grammar of real commands.

    Per cycle: 84 short commands, where cold start dominates, and 16 heavy
    ones, where the matrix dump, pascal_mod and the renderers dominate;
    five of the short ones are guard refusals that must exit 2.  The heavy
    ops have fixed shapes (only m and the destination are drawn): six large
    and ten medium ones, so that op_p90_ms reads the middle of ten similar
    ops rather than the luck of one.
    About 30% of the ops that write output go through ``--output``.  A run
    is exactly one cycle: its worker processes all draw the same cycle and
    each runs its own slice, whatever --seconds says.
    """

    name = "cli-session"
    TRACE_CYCLES = 1
    PARTS = 5
    TIME_BOUNDED = False
    OUTPUT_SHARE = 0.3
    CHILD_TIMEOUT_S = 60

    def __init__(self, seed: int, part: int, parts: int):
        self.rng = random.Random(seed)  # every part draws the same cycle and runs its own slice
        self.part = part
        self.parts = parts
        self.seen: set[int] = set()

    def setup(self, sierpinski) -> None:
        warm = CliOp("digits", ["digits", "5"], check_digits(5, 2))
        self.check(warm, self.execute(warm)[1])

    # -- grammar ------------------------------------------------------------

    def _digits(self):
        r = self.rng
        base = r.choice([2, 2, 2, 3, 7, 10])
        value = r.randrange(1 << r.randrange(1, 41))
        return CliOp("digits", ["digits", str(value), "--base", str(base)], check_digits(value, base))

    def _matrix(self, n, heavy=False, fmt=None, construction=None):
        r = self.rng
        arg = "x" if heavy else r.choice(["x", "x", "one", "zero"])
        fmt = fmt or r.choice(["compact", "poly"])
        construction = construction or r.choice(["kronecker", "closed"])
        argv = ["matrix", str(n), "--arg", arg, "--format", fmt, "--construction", construction]
        return CliOp("matrix", argv, check_matrix(n, arg, fmt), heavy=heavy)

    def _expand(self, s, heavy=False):
        m = random_mask(self.rng, s, 24, self.seen)
        return CliOp("expand", ["expand", str(m)], check_expand(m), heavy=heavy)

    def _pascal(self, rows, mod=2, fmt=None, heavy=False):
        fmt = fmt or self.rng.choice(["ascii", "pbm", "csv"])
        argv = ["triangle", "--rows", str(rows), "--mod", str(mod), "--format", fmt]
        return CliOp("triangle", argv, check_triangle(rows, mod, fmt), heavy=heavy)

    def _ones(self, order, fmt=None, heavy=False):
        fmt = fmt or self.rng.choice(["ascii", "pbm", "csv"])
        argv = ["triangle", "--order", str(order), "--source", "matrix-ones", "--format", fmt]
        return CliOp("triangle", argv, check_triangle(1 << order, 2, fmt), heavy=heavy)

    def _short(self) -> list:
        r = self.rng
        ops = [self._digits() for _ in range(22)]
        ops += [self._matrix(r.randrange(7)) for _ in range(18)]
        ops += [self._expand(r.randint(1, 10)) for _ in range(17)]
        ops += [self._pascal(r.randint(8, 256)) for _ in range(6)]
        ops += [self._pascal(r.randint(8, 64), mod=r.choice([3, 5]), fmt="ascii") for _ in range(3)]
        ops += [self._ones(r.randint(2, 7)) for _ in range(5)]
        for _ in range(5):
            p = r.choice([2, 3, 5, 7])
            argv = ["verify", "kummer", "--max-n", str(r.randint(16, 128)), "--p", str(p)]
            ops.append(CliOp("verify", argv, check_status(1)))
        ops.append(CliOp("verify", ["verify", "correspondence", "--order", str(r.randint(2, 8))], check_status(1)))
        ops.append(CliOp("verify", ["verify", "group", "--order", str(r.randint(1, 5))], check_status(1)))
        ops.append(CliOp("verify", ["verify", "binomial", "--max-m", str(r.randint(16, 128))], check_status(1)))
        refusals = [
            ["matrix", "13"],
            ["matrix", str(r.randint(14, 30))],
            ["digits", str(-r.randint(1, 99))],
            ["triangle", "--rows", str(r.randint((1 << 14) + 1, 1 << 20))],
            ["verify", "kummer", "--max-n", str(r.randint(1025, 9999))],
        ]
        ops += [CliOp("refusal", argv, None, expect_rc=2) for argv in refusals]
        return ops

    def _heavy(self) -> list:
        medium = [  # 0.3-0.7 s each; op_p90_ms falls in the middle of these ten
            self._matrix(9, heavy=True, fmt="compact", construction="kronecker"),
            self._matrix(9, heavy=True, fmt="poly", construction="kronecker"),
            self._matrix(10, heavy=True, fmt="compact", construction="kronecker"),
            self._matrix(10, heavy=True, fmt="poly", construction="kronecker"),
            self._pascal(1024, fmt="ascii", heavy=True),
            self._pascal(1024, fmt="csv", heavy=True),
            self._ones(10, fmt="pbm", heavy=True),
            self._ones(10, fmt="csv", heavy=True),
            self._expand(14, heavy=True),
            self._expand(15, heavy=True),
        ]
        large = [
            CliOp("matrix", ["matrix", "11", "--check"], check_status(1), heavy=True),
            self._pascal(4096, fmt="ascii", heavy=True),
            self._pascal(2048, fmt="pbm", heavy=True),
            self._ones(11, fmt="ascii", heavy=True),
            self._expand(17, heavy=True),
            CliOp("verify", ["verify", "all"], check_status(5), heavy=True),
        ]
        return medium + large

    def cycle(self) -> list:
        ops = self._short() + self._heavy()
        writers = [op for op in ops if op.expect_rc == 0]
        for op in self.rng.sample(writers, round(self.OUTPUT_SHARE * len(writers))):
            op.output = True
        return shuffled(self.rng, ops)[self.part :: self.parts]

    # -- execution ----------------------------------------------------------

    def bind(self, tmpdir: str, env: dict) -> None:
        self.tmpdir = tmpdir
        self.env = env

    def _argv(self, op) -> tuple[list, str | None]:
        if not op.output:
            return list(op.argv), None
        path = os.path.join(self.tmpdir, "output.txt")
        return op.argv + ["--output", path], path

    def execute(self, op):
        """Run op in a fresh interpreter; returns (latency_s, outcome)."""
        argv, path = self._argv(op)
        out_path = os.path.join(self.tmpdir, "stdout.txt")
        err_path = os.path.join(self.tmpdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "sierpinski", *argv], stdout=out,
                                     stderr=err, stdin=subprocess.DEVNULL, env=self.env)
            watchdog = threading.Timer(self.CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)  # this child's own peak, not a high-water mark
                child.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                watchdog.cancel()
            latency = time.perf_counter() - start
        stdout, stderr = _read(out_path), _read(err_path)
        return latency, ChildRun(child.returncode, stdout, stderr, _take(path), usage.ru_maxrss)

    def replay(self, op):
        """Replay op through ``sierpinski.cli.main(argv)`` in this process."""
        from sierpinski import cli  # looked up per call, so a traced main is the one called

        argv, path = self._argv(op)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        latency = time.perf_counter() - start
        return latency, ChildRun(rc, out.getvalue(), err.getvalue(), _take(path), 0)

    def check(self, op, outcome: ChildRun) -> None:
        rc, stdout, stderr, output, _ = outcome
        where = " ".join(op.argv)
        require("Traceback" not in stderr, f"{where}: traceback on stderr")
        require(rc == op.expect_rc, f"{where}: exit code {rc}, want {op.expect_rc}")
        if op.expect_rc:
            require("error:" in stderr and not stdout, f"{where}: refusal without an error message")
            return
        if op.output:
            require(stdout == "", f"{where}: stdout not empty with --output")
            stdout = output
        op.check(stdout)

    def properties(self, ops) -> dict:
        return {
            "ops": len(ops),
            "cold_start_dominated": sum(not op.heavy for op in ops),
            "guard_refusals": sum(op.expect_rc == 2 for op in ops),
            "output_file_writes": sum(op.output for op in ops),
        }


WORKLOADS = {w.name: w for w in (BinomialSweep, MatrixGroup, CliSession)}
