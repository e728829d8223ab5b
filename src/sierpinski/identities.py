"""Executable checks of the digit-sum identities behind the matrix family.

Each verifier recomputes both sides of its identity from independent
ingredients and compares exactly:

* the digital binomial identity (x+y)^s(m) = sum of x^s(k) y^s(m-k) over
  carry-free decompositions k + (m-k) = m;
* its restatement through additivity of the digit sum;
* its collapse to the classical binomial theorem at m = 2^n - 1;
* the group law S_n(x) S_n(y) = S_n(x + y) of the matrix family;
* Kummer's carry-count formula for prime-power divisibility of binomials;
* the mod-2 Pascal triangle as the 0/1 pattern of the matrix family.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from operator import not_

from .algebra import ONE, Poly, X, Y, binomial
from .digits import (SizeLimitError, _check_nonnegative, _check_positive, _check_prime,
                     carry_free, carry_free_summands, carry_rows)
from .matrices import build_closed_form, build_recursive, identity, matmul, matrices_equal

__all__ = [
    "TermList",
    "Report",
    "PairCounts",
    "EXPONENT_CAP",
    "digital_expansion",
    "exponent_pair_counts",
    "verify_digital_binomial",
    "verify_range",
    "verify_additivity_form",
    "verify_classical_reduction",
    "verify_group_law",
    "verify_kummer",
    "pascal_mod",
    "verify_triangle_matrix_correspondence",
]

EXPONENT_CAP = 24  # 2^24 summands is the ceiling for one expansion
MAX_RANGE = 4096  # ~8.4 M additivity pairs below it, as many as acceptance criterion 6 checks
MAX_KUMMER_ROWS = 1024
MAX_PASCAL_ROWS = 1 << 14
MAX_M_BITS = 14_284  # 2^14284 < 10^4300, so m=... fits the default int-to-str digit limit
_CELL_FORMAT = {2: "H", 4: "I", 8: "Q"}  # memoryview.cast codes for wide Pascal cells


class TermList:
    """The terms (k, s(k), s(m-k)) of each carry-free summand k of m, ascending in k.

    Only m is stored: every read of `terms` enumerates the summands afresh.
    """

    __slots__ = ("m",)

    def __init__(self, m: int):
        self.m = m

    @property
    def terms(self):
        m = self.m
        return ((k, k.bit_count(), (m - k).bit_count()) for k in carry_free_summands(m))

    def collect(self) -> Poly:
        """Sum of X^s(k) * Y^s(m-k) over the terms."""
        return Poly(Counter((a, b) for _, a, b in self.terms))


class Report(
    namedtuple(
        "Report",
        ["identity", "parameter", "passed", "lhs", "rhs", "first_mismatch", "cases"],
        defaults=("", "", "", 0),
    )
):
    """Outcome of one verification run, serializable as key:value lines.

    `cases` counts the inputs the check covered; it is not part of to_text().
    """

    __slots__ = ()

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def __bool__(self) -> bool:
        return self.passed

    def to_text(self) -> str:
        lines = [
            f"identity: {self.identity}",
            f"parameter: {self.parameter}",
            f"status: {self.status}",
        ]
        if self.lhs:
            lines.append(f"lhs: {self.lhs}")
        if self.rhs:
            lines.append(f"rhs: {self.rhs}")
        if self.first_mismatch:
            lines.append(f"first_mismatch: {self.first_mismatch}")
        return "\n".join(lines)


def _check_exponent_cap(m: int | str, sigma: int) -> None:
    if sigma > EXPONENT_CAP:
        raise SizeLimitError(
            f"s({m}) = {sigma} exceeds the exponent cap {EXPONENT_CAP}: "
            f"the expansion would hold 2^{sigma} terms"
        )


def digital_expansion(m: int) -> TermList:
    """TermList of m: one (k, s(k), s(m-k)) triple per carry-free summand.

    Refused before anything is enumerated when s(m) > EXPONENT_CAP.
    """
    _check_nonnegative("m", m)
    _check_exponent_cap(m, m.bit_count())
    return TermList(m)


# Long subtraction m - k, one binary digit at a time: for each (digit of m,
# borrow in), the (digit of k, digit of m-k, borrow out) of both digits of k.
_SUBTRACT = tuple(
    tuple(
        tuple((kd, (bit - kd - borrow) & 1, int(bit - kd - borrow < 0)) for kd in (0, 1))
        for borrow in (0, 1)
    )
    for bit in (0, 1)
)


class PairCounts(dict):
    """(s(k), s(m-k)) -> multiplicity; `cases` is how many k in [0, m] were walked."""


def exponent_pair_counts(m: int) -> PairCounts:
    """Multiset of (s(k), s(m-k)) over every carry-free summand k of m.

    One digit walk over all k < 2^bitlen(m) at once, least significant bit
    first.  A state is (borrow, s(k) so far, s(m-k) so far) and counts the
    k prefixes in it.  Each digit of m-k comes from the long subtraction
    m - k with an explicit borrow; a k leaves the tally at the first digit
    where k + (m-k) carries, and is kept as one untallied count per borrow.
    States still borrowing at the end are the k > m and are discarded, so
    `cases`, the k kept or carried, must come out as m + 1.

    Independence: nothing here assumes that carry-free k are the submasks
    of m, or that digit sums add without a carry.  Both digit sums come
    from the digits the subtraction produces and the carry test is the
    schoolbook one, so a wrong borrow or a missed carry changes the table
    verify_digital_binomial compares with (X+Y)^s(m).  The cost is
    O(bitlen(m) * s(m)) dict updates, not 2^s(m), for m of any size.
    """
    _check_nonnegative("m", m)
    states = {(0, 0, 0): 1}
    carried = [0, 0]  # k prefixes whose addition already carried, by borrow
    for i in range(m.bit_length()):
        steps = _SUBTRACT[(m >> i) & 1]
        nxt: dict[tuple[int, int, int], int] = {}
        spill = [0, 0]
        for (borrow, a, b), count in states.items():
            for kd, dd, out in steps[borrow]:
                if kd + dd > 1:
                    spill[out] += count
                else:
                    key = (out, a + kd, b + dd)
                    nxt[key] = nxt.get(key, 0) + count
        for borrow, count in enumerate(carried):
            for _, _, out in steps[borrow]:
                spill[out] += count
        states, carried = nxt, spill
    counts = PairCounts(((a, b), c) for (borrow, a, b), c in states.items() if not borrow)
    counts.cases = sum(counts.values()) + carried[0]
    return counts


def verify_digital_binomial(m: int) -> Report:
    """Compare (X+Y)^s(m) with the exponent_pair_counts digit walk of m, exactly.

    An m of more than MAX_M_BITS bits is refused before the walk: its
    Report could not print m.
    """
    _check_nonnegative("m", m)
    if m.bit_length() > MAX_M_BITS:
        raise SizeLimitError(f"m has {m.bit_length()} bits, past the cap of {MAX_M_BITS}")
    sigma = m.bit_count()
    _check_exponent_cap(m, sigma)
    lhs = (X + Y) ** sigma
    counts = exponent_pair_counts(m)
    rhs = Poly(counts)
    passed = lhs == rhs
    mismatch = ""
    if not passed:
        (a, b), c = (lhs - rhs)._ordered()[-1]  # the lowest term in Poly's graded order
        mismatch = f"coefficient of X^{a}*Y^{b} differs by {c}"
    return Report(
        identity="digital-binomial",
        parameter=f"m={m}",
        passed=passed,
        lhs=str(lhs),
        rhs=str(rhs),
        first_mismatch=mismatch,
        cases=counts.cases,
    )


def verify_range(verify, stop: int) -> Report:
    """Run verify(m) for every m < stop; the first failing Report, else one for m<stop.

    The passing Report's cases is the sum of the cases of every m.  A stop
    above MAX_RANGE is refused before any m runs.
    """
    _check_positive("stop", stop)
    if stop > MAX_RANGE:
        raise SizeLimitError(f"range m<{stop} exceeds the cap m<{MAX_RANGE}")
    cases = 0
    for m in range(stop):
        report = verify(m)
        if not report:
            return report
        cases += report.cases
    return Report(report.identity, f"m<{stop}", True, cases=cases)


def verify_additivity_form(m: int) -> Report:
    """Check {k: (k, m-k) carry-free} == {k: s(k)+s(m-k) == s(m)} over [0, m].

    Deliberately a full scan of [0, m], not a submask walk: this is the
    independent oracle for the summand enumerator.  Its sides share
    nothing: carry_free looks for a column holding two 1s, using no digit
    sums, and s(k) is a popcount, blind to carries.
    """
    _check_nonnegative("m", m)
    sigma = m.bit_count()
    for k in range(m + 1):
        if carry_free(k, m - k) != (k.bit_count() + (m - k).bit_count() == sigma):
            return Report("digit-sum-additivity", f"m={m}", False, cases=k + 1)
    return Report("digit-sum-additivity", f"m={m}", True, cases=m + 1)


def verify_classical_reduction(n: int) -> bool:
    """At m = 2^n - 1 the expansion must collapse to the binomial theorem.

    Collects the expansion's exponent pairs and demands the multiplicity of
    X^k*Y^(n-k) be exactly binomial(n, k), with no stray pairs.
    """
    _check_positive("n", n)
    _check_exponent_cap(f"2^{n}-1", n)
    counts = exponent_pair_counts((1 << n) - 1)
    return counts == {(k, n - k): binomial(n, k) for k in range(n + 1)}


def verify_group_law(order: int) -> Report:
    """Check S_n(X) S_n(Y) == S_n(X+Y) and S_n(X) S_n(-X) == I with exact products.

    Both products are matmul, which sums every term a[j][k] * b[k][l] once,
    block by block, reusing a block product only for byte-identical blocks;
    it assumes nothing about the group law.  The sides they are compared with
    come from build_recursive(n, X+Y) and the identity matrix.  cases counts
    the lower-triangle cells of the two products, size * (size + 1).
    """
    x = build_recursive(order, X)
    same = matrices_equal(matmul(x, build_recursive(order, Y)), build_recursive(order, X + Y))
    inverse = matrices_equal(matmul(x, build_recursive(order, -X)), identity(order))
    return Report("group-law", f"order={order}", same and inverse, cases=x.size * (x.size + 1))


def verify_kummer(n_max: int, p: int) -> Report:
    """Check v_p(binomial(n, k)) == carries of k + (n-k) for all n < n_max.

    The carry side, `carry_rows`, marks per power q = p^i the k with k mod q
    > n mod q: no binomial, no digit sum.  The valuation side counts the e in
    1..depth with _pascal_rows(n_max, p^e) at 0, which is min(v_p, depth).
    n has at most depth base-p digits, and a carry out of the top one would
    add a digit, so long addition alone keeps the carries below depth: a
    binomial that p^depth divides fails.  Neither side uses Lucas',
    Legendre's or Kummer's theorem.  cases counts the cells compared, up to
    and including the first mismatch.
    """
    _check_prime("p", p)
    if n_max > MAX_KUMMER_ROWS:
        raise SizeLimitError(f"n_max = {n_max} exceeds the practical limit {MAX_KUMMER_ROWS}")
    name, parameter = "kummer", f"n_max={n_max} p={p}"
    # n_max - 1 has depth base-p digits, at least 1: p^depth < 1024 * p < 2^42 fits 8-byte lanes
    depth = next(d for d in range(1, MAX_KUMMER_ROWS) if p**d >= n_max)
    residues = zip(*(_pascal_rows(n_max, p**e) for e in range(1, depth + 1)))
    for n, (carries, rows) in enumerate(zip(carry_rows(n_max, p), residues)):
        zeros = sum(int.from_bytes(bytes(map(not_, row)), "little") for row in rows)
        valuations = zeros.to_bytes(n + 1, "little")  # byte k: how many p^e divide C(n, k)
        if valuations != carries:
            k = next(k for k in range(n + 1) if valuations[k] != carries[k])
            lhs, rhs = f"valuation {valuations[k]}", f"carries {carries[k]}"
            mismatch, cases = f"n={n} k={k} binomial={binomial(n, k)}", n * (n + 1) // 2 + k + 1
            return Report(name, parameter, False, lhs, rhs, mismatch, cases)
    return Report(name, parameter, True, cases=n_max * (n_max + 1) // 2)


def pascal_mod(rows: int, p: int):
    """The first `rows` rows of Pascal's triangle mod p, yielded one at a time.

    The arguments are checked when this is called, before any row.  The rows
    come from _pascal_rows, whose additive rule uses neither Lucas' theorem
    nor the matrix family, so verify_triangle_matrix_correspondence stays an
    independent check.
    """
    _check_positive("rows", rows)
    if rows > MAX_PASCAL_ROWS:
        raise SizeLimitError(f"rows = {rows} exceeds the limit {MAX_PASCAL_ROWS}")
    _check_prime("p", p)
    return _pascal_rows(rows, p)


def _pascal_rows(rows: int, modulus: int):
    """Yield rows 0..rows-1 of Pascal's triangle mod any modulus from 2 to 2^63 - 1.

    Row n is bytes (one byte a residue) for a modulus below 128, else a
    memoryview of 2-, 4- or 8-byte residues.  A row is computed as one
    integer, `width` bytes a cell, cell k lowest, unpacked in the host's
    byte order so that memoryview.cast reads its cells back.  Adding its
    shift by one field forms every C(n, k-1) + C(n, k) <= 2 * modulus - 2 at
    once; `bias` (2^(field-1) - modulus a field) sets a field's top bit
    exactly where that sum reached the modulus, which is subtracted there.
    On a big-endian host the cells come out in reverse, cell n first; a
    Pascal row is a palindrome, C(n, k) = C(n, n - k), so it reads the same.
    """
    width = next(w for w in (1, 2, 4, 8) if 8 * w > modulus.bit_length())  # one byte below 128
    field = 8 * width
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * (rows + 1), "little")
    bias = ones * ((1 << (field - 1)) - modulus)
    row = 1
    for n in range(rows):
        data = row.to_bytes(width * (n + 1), sys.byteorder)
        yield (memoryview(data).cast(_CELL_FORMAT[width]) if width > 1 else data)
        row += row << field
        row -= modulus * (((row + bias) >> (field - 1)) & ones)


def verify_triangle_matrix_correspondence(n: int) -> Report:
    """The 0/1 pattern of S_n(1) must equal Pascal's triangle mod 2.

    Row j of S_n(1) is written out as bytes, 1 at a stored column whose
    entry argument**e is ONE and 0 elsewhere, and compared with row j of
    pascal_mod(2^n, 2).  Independence: the matrix side is
    build_closed_form's submask enumeration and Poly powers (checked once
    per distinct stored exponent, since an entry depends on nothing else);
    the triangle side is pascal_mod's additive recurrence, which uses
    neither submasks nor Lucas' theorem.  cases counts the cells of the
    lower triangle compared, up to and including the first mismatch.
    """
    matrix = build_closed_form(n, ONE)
    # 2 marks a stored entry that is not ONE: no residue mod 2 matches it
    patterns = matrix.marked_rows(lambda e: 1 if matrix.argument**e == ONE else 2)
    name, parameter = "triangle-matrix-correspondence", f"order={n}"
    for j, (pattern, residues) in enumerate(zip(patterns, pascal_mod(matrix.size, 2))):
        if pattern != residues:
            k = next(k for k in range(j + 1) if pattern[k] != residues[k])
            return Report(name, parameter, False, cases=j * (j + 1) // 2 + k + 1)
    return Report(name, parameter, True, cases=matrix.size * (matrix.size + 1) // 2)
