"""Per-layer tracing from outside the package: spans, self time and counts.

The wrappers replace the public functions and methods named in ``SPANS``
and ``COUNTED`` on every ``sierpinski`` module that binds them, so calls
made inside the package (``identities`` calling ``sum_of_digits``, ``cli``
calling ``matrices.dump``) are traced too.  Nothing under ``src/`` is
edited.  Spans are timed and nest; a span's self time is its duration minus
the time its child spans cover.  Hot primitives are only counted, because
timing each of their calls would cost more than the call.  Computed counts
(entries, summands, cells, ...) are derived from the arguments, so they
repeat exactly for a given seed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict


def _nonzeros(m) -> list[int]:
    """Nonzero count of each row, for MonomialMatrix and PolyMatrix alike."""
    if hasattr(m, "rows"):
        return [len(row) for row in m.rows]
    return [len(m.row(j)) for j in range(m.size)]


def _columns(m, j: int):
    return [k for k, _ in m.rows[j]] if hasattr(m, "rows") else list(m.row(j))


def _poly_products(a, b, *_, **__) -> int:
    lengths = _nonzeros(b)
    return sum(lengths[k] for j in range(a.size) for k in _columns(a, j))


def _summands(m, *_, **__) -> int:
    return 1 << bin(m).count("1")


def _triangle(rows, *_, **__) -> int:
    return rows * (rows + 1) // 2


# (layer metric prefix, module, attribute path, computed count name, count of the arguments)
SPANS = [
    ("digits.carry_free_summands", "digits", "carry_free_summands", None, None),
    ("algebra.Poly.pow", "algebra", "Poly.__pow__", None, None),
    ("matrices.build_recursive", "matrices", "build_recursive", "entries", lambda n, *_, **__: 3**n),
    ("matrices.build_closed_form", "matrices", "build_closed_form", "entries", lambda n, *_, **__: 3**n),
    ("matrices.matmul", "matrices", "matmul", "poly_products", _poly_products),
    ("matrices.matrices_equal", "matrices", "matrices_equal", None, None),
    ("matrices.to_poly_matrix", "matrices", "MonomialMatrix.to_poly_matrix", None, None),
    ("matrices.dump", "matrices", "MonomialMatrix.dump", None, None),
    ("matrices.dump", "matrices", "PolyMatrix.dump", None, None),
    ("identities.verify_digital_binomial", "identities", "verify_digital_binomial", None, None),
    ("identities.exponent_pair_counts", "identities", "exponent_pair_counts", "summands", _summands),
    ("identities.digital_expansion", "identities", "digital_expansion", "summands", _summands),
    ("identities.TermList.collect", "identities", "TermList.collect", None, None),
    ("identities.verify_additivity_form", "identities", "verify_additivity_form", "pairs",
     lambda m, *_, **__: m + 1),
    ("identities.verify_kummer", "identities", "verify_kummer", "cells", _triangle),
    ("identities.verify_triangle_matrix_correspondence", "identities",
     "verify_triangle_matrix_correspondence", None, None),
    ("identities.pascal_mod", "identities", "pascal_mod", "cells", _triangle),
    ("cli.main", "cli", "main", None, None),
    ("cli.render_ascii", "cli", "render_ascii", None, None),
    ("cli.render_pbm", "cli", "render_pbm", None, None),
]

# (layer metric, module, attribute path): counted per call, never timed
COUNTED = [
    ("digits.sum_of_digits.calls", "digits", "sum_of_digits"),
    ("digits.carry_count.calls", "digits", "carry_count"),
    ("digits.carry_free.calls", "digits", "carry_free"),
    ("algebra.Poly.mul.calls", "algebra", "Poly.__mul__"),
    ("algebra.Poly.mul.calls", "algebra", "Poly.__rmul__"),
    ("algebra.Poly.add.calls", "algebra", "Poly.__add__"),
    ("algebra.Poly.add.calls", "algebra", "Poly.__radd__"),
    ("algebra.Poly.str.calls", "algebra", "Poly.__str__"),
    ("algebra.Poly.pretty.calls", "algebra", "Poly.pretty"),
]


def metric_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for prefix, _, _, count, _ in SPANS:
        names[f"{prefix}.self_s"] = "s"
        if count:
            names[f"{prefix}.{count}"] = "count"
    for name, _, _ in COUNTED:
        names[name] = "count"
    names["cli.output_bytes"] = "B"
    names["cli.import_s"] = "s"
    names["trace.overhead_ratio"] = "1"
    names["trace.unattributed_s"] = "s"
    return names


class Tracer:
    """Installs the wrappers, accumulates self times and counts, removes them."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.covered = 0.0  # time inside top-level spans
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count_name=None, count_fn=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered += elapsed
            if count_name:  # only work that was done: a refused call counts nothing
                start = time.perf_counter()
                self.counts[f"{name}.{count_name}"] += count_fn(*args, **kwargs)
                if stack:  # the caller's self time does not pay for this bookkeeping
                    stack[-1] += time.perf_counter() - start
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(f"sierpinski.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            self._rebind(owner, attr, wrapper)
            return
        # a module function: rebind it wherever the package imported it by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sierpinski" or mod_name.startswith("sierpinski."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, module, path, count_name, count_fn in SPANS:
            self._replace(module, path, lambda fn, n=name, c=count_name, f=count_fn: self.span(n, fn, c, f))
        for name, module, path in COUNTED:
            self._replace(module, path, lambda fn, n=name: self.counter(n, fn))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
