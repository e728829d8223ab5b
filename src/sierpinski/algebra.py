"""Exact sparse bivariate polynomials and exact integer helpers.

Coefficients are Python ints throughout, so nothing here can overflow.
"""

from __future__ import annotations

import math

from .digits import _check_prime

__all__ = ["Poly", "X", "Y", "ONE", "ZERO", "binomial", "p_adic_valuation"]


class Poly:
    """Sparse polynomial in the formal variables X and Y over the integers.

    Terms live in a dict mapping the exponent pair (a, b) of X^a*Y^b to a
    nonzero integer coefficient; zero coefficients are never stored, so dict
    equality is exact polynomial equality.  Instances are immutable: every
    operation returns a fresh Poly.  The constructor and `constant` refuse
    non-int coefficients (bools included) and exponents that are not
    non-negative ints with ValueError; an operand not a Poly or an int raises TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        checked = {}
        for e, c in dict(terms or {}).items():
            pair = isinstance(e, tuple) and len(e) == 2
            if not (pair and all(type(x) is int and x >= 0 for x in e)):
                raise ValueError(f"exponents must be a pair of non-negative ints, got {e!r}")
            if type(c) is not int:  # bool and float are refused, not coerced
                raise ValueError(f"coefficients must be ints, got {c!r} at {e!r}")
            if c:
                checked[e] = c
        self._terms = checked

    @classmethod
    def _raw(cls, terms: dict) -> "Poly":
        # internal: terms already canonical (no zeros)
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls({(0, 0): c})

    @staticmethod
    def _operand(other):
        """other as a Poly: an int (not a bool) becomes a constant; else NotImplemented."""
        if type(other) is int:
            return Poly.constant(other)
        return other if isinstance(other, Poly) else NotImplemented

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is Poly:
            return self._terms == other._terms
        other = Poly._operand(other)
        if other is NotImplemented:
            return other
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {(0, 0)}:  # a constant equals its int, so hashes like it
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Poly":
        return Poly._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "Poly":
        other = Poly._operand(other)
        if other is NotImplemented:
            return other
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)  # exact cancellation leaves no residue
        return Poly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = Poly._operand(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self).__add__(other)  # NotImplemented, not a TypeError that names +

    def __mul__(self, other) -> "Poly":
        other = Poly._operand(other)
        if other is NotImplemented:
            return other
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = ONE  # p**0 == 1 for every p, the zero polynomial included
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def eval(self, x0: int, y0: int) -> int:
        """Exact value at X=x0, Y=y0."""
        return sum(c * x0**a * y0**b for (a, b), c in self._terms.items())

    def _ordered(self):
        # graded lexicographic on (a+b, a), leading term first
        return sorted(self._terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]), reverse=True)

    def __str__(self) -> str:
        """Canonical text form, e.g. "1*X^2 + 2*X^1*Y^1 + 1*Y^2"."""
        if not self._terms:
            return "0"
        parts = []
        for (a, b), c in self._ordered():
            piece = [str(c)]
            if a:
                piece.append(f"X^{a}")
            if b:
                piece.append(f"Y^{b}")
            parts.append("*".join(piece))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self._terms!r})"

    def pretty(self) -> str:
        """Human form with implicit 1-coefficients, e.g. "x^2 + 2xy + y^2"."""
        if not self._terms:
            return "0"
        chunks = []
        for (a, b), c in self._ordered():
            mono = ""
            if a:
                mono += "x" if a == 1 else f"x^{a}"
            if b:
                mono += "y" if b == 1 else f"y^{b}"
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = str(mag) + mono
            if not chunks:
                chunks.append(("-" if c < 0 else "") + body)
            else:
                chunks.append(("- " if c < 0 else "+ ") + body)
        return " ".join(chunks)


X = Poly({(1, 0): 1})
Y = Poly({(0, 1): 1})
ONE = Poly({(0, 0): 1})
ZERO = Poly()


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"arguments must be non-negative, got n={n}, k={k}")
    return math.comb(n, k)


def p_adic_valuation(value: int, p: int) -> int:
    """Largest e such that p**e divides value."""
    if value == 0:
        raise ValueError("the valuation of 0 is infinite")
    _check_prime("p", p)
    value = abs(value)
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    return e
