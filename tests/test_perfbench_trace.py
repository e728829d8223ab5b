"""The benchmark's tracer and output checks must still accept the package.

``perfbench/tracing.py`` rebinds the package functions named in its SPANS
and COUNTED tables; a renamed or removed function would only show up as a
failed ``perfbench/run.py --trace 1``.  ``perfbench/workloads.py`` checks
every op's output against plain-integer invariants; a wrong result would
only show up as a benchmark run with failed ops.  These tests read
perfbench/ and edit nothing in it.
"""

import importlib
from pathlib import Path

import sierpinski
from sierpinski import identities

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module, path):
    owner = importlib.import_module(f"sierpinski.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [(module, path) for _, module, path, *_ in tracing.SPANS + tracing.COUNTED]
    originals = [_resolve(module, path) for module, path in targets]
    assert all(callable(fn) for fn in originals)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the group law reaches build_recursive and matmul through identities
        assert identities.verify_group_law(1)
        assert identities.verify_kummer(8, 3)
        # the additivity scan reaches carry_free through identities, once per pair
        assert identities.verify_additivity_form(8)
    finally:
        tracer.remove()
    # S_1 built for X, Y, X+Y and -X, S_1(X) shared by both products: four builds of 3^1 entries
    assert tracer.counts["matrices.build_recursive.entries"] == 4 * 3
    assert tracer.counts["matrices.matmul.poly_products"] > 0
    assert tracer.counts["identities.verify_kummer.cells"] == 36 == 8 * 9 // 2
    assert tracer.counts["digits.carry_free.calls"] == 9
    assert [_resolve(module, path) for module, path in targets] == originals


def test_workload_output_checks_accept_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")

    group = workloads.MatrixGroup(7, 0, 1)
    group.setup(sierpinski)
    for kind in ("build", "group", "inverse"):
        for n in range(8):
            group.check((kind, n), group.run((kind, n)))

    workloads.BinomialSweep(7, 0, 1).setup(sierpinski)  # checks both verify paths

    session = workloads.CliSession(7, 0, 1)
    for op in (
        workloads.CliOp("matrix", ["matrix", "6", "--construction", "closed"],
                        workloads.check_matrix(6, "x", "compact")),
        workloads.CliOp("triangle",
                        ["triangle", "--order", "7", "--source", "matrix-ones", "--format", "pbm"],
                        workloads.check_triangle(1 << 7, 2, "pbm")),
    ):
        session.check(op, session.replay(op)[1])
