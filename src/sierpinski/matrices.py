"""The one-parameter Sierpinski matrix family, built two independent ways.

Both matrix kinds store a row the same way: its columns packed as uint16,
and one key per column that stands for the entry.  ``MonomialMatrix``
stores the family itself: every nonzero entry of S_n(arg) is arg raised to
some power, so its keys are the exponents, one byte each, and the whole
matrix costs 3^n times three bytes.  ``PolyMatrix`` holds full polynomial
entries, its keys indexing a table of its entries, and is what
products like S_n(X)*S_n(Y) live in.

The two constructors are deliberately disjoint code paths:

* ``build_recursive`` unfolds S_{n+1}(x) = S_1(x) (x) S_n(x), the Kronecker
  recurrence, block by block;
* ``build_closed_form`` fills row j from the closed form: entry (j, k) is
  arg**s(j-k) exactly when k is a carry-free summand (submask) of j.  Both
  conditions split by byte, so the row joins the submasks and digit sums of
  j's two bytes, read from tables over one byte, and comes from j alone.

Their agreement over all orders is one of the package's core checks.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left
from functools import cache
from itertools import accumulate, chain

from .algebra import ONE, ZERO, Poly
from .digits import SizeLimitError, _check_nonnegative

__all__ = [
    "MonomialMatrix",
    "PolyMatrix",
    "MAX_BUILD_ORDER",
    "build_recursive",
    "build_closed_form",
    "identity",
    "matmul",
    "matrices_equal",
]

MAX_BUILD_ORDER = 12  # 3^12 ~ 5.3e5 stored entries; at most 16, so columns fit uint16

_INC = bytes((e + 1) & 0xFF for e in range(256))  # exponent e -> e + 1
_BYTES = bytes(range(256))
# _ROTATE[i : 256 + i] maps byte e -> e + i mod 256, and [256 - i : 512 - i] maps e -> e - i
_ROTATE = _BYTES * 2
_FLIP_BIT = tuple(bytes(v ^ 1 << b for v in range(256)) for b in range(8))  # byte v -> v ^ 2^b
_HIGH_LANE = 1 if sys.byteorder == "little" else 0  # byte of a uint16 column with bits 8-15


def _check_order(n: int) -> None:
    """The one order cap of every matrix, built, constructed or identity, before allocation."""
    _check_nonnegative("order", n)
    if n > MAX_BUILD_ORDER:
        count = f"3^{n} = {3**n}" if n <= 64 else f"3^{n}"  # written out only while short
        raise SizeLimitError(f"order {n} exceeds the construction limit {MAX_BUILD_ORDER}: "
                             f"the matrix would hold {count} entries")


def _check_build(n: int, argument) -> None:
    _check_order(n)
    if not isinstance(argument, Poly):
        raise ValueError(f"the argument must be a Poly, got {argument!r}")


def _check_rows(order: int, columns: list) -> None:
    """Refuse other than 2^order rows, or columns of row j that are not ints in [0, j]."""
    if len(columns) != 1 << order:
        raise ValueError(f"expected {1 << order} rows, got {len(columns)}")
    for j, cols in enumerate(columns):
        if set(map(type, cols)) - {int} or cols and not 0 <= min(cols) <= max(cols) <= j:
            raise ValueError(f"row {j} has a column above the diagonal, below 0 or not an int")


def _stored(flat: bytes) -> bytes:
    """The distinct bytes of flat, ascending, at C speed: all 256 less those flat lacks."""
    return _BYTES.translate(None, _BYTES.translate(None, flat))


def _pack_columns(columns: list[int] | range) -> bytes:
    return struct.pack(f"{len(columns)}H", *columns)


def _pairs(cols: bytes, keys):
    """(column, key) pairs of one packed row."""
    return zip(memoryview(cols).cast("H"), keys)


class _Matrix:
    """What both kinds share: the order, the packed rows, the 2^order side, the grid and ==.

    Row j is two sequences: ``cols[j]`` holds its columns in ascending order
    as uint16 in the host byte order, and ``keys[j]`` one int key per column.
    ``_values()`` maps each key to its entry, and absent columns are zero.
    """

    __slots__ = ("order", "cols", "keys")

    @property
    def size(self) -> int:
        return 1 << self.order

    def nonzero_count(self) -> int:
        return sum(map(len, self.keys))

    def grid(self, render=str, sep: str = "\t"):
        """Lines of the full square grid, render run once per key; zero is "0"."""
        tokens = {key: render(p) for key, p in self._values().items()}
        for cols, keys in zip(self.cols, self.keys):
            cells = ["0"] * self.size
            for k, key in _pairs(cols, keys):
                cells[k] = tokens[key]
            yield sep.join(cells)

    def __eq__(self, other):
        """matrices_equal against a matrix of either kind, else NotImplemented."""
        return matrices_equal(self, other) if isinstance(other, _Matrix) else NotImplemented


class MonomialMatrix(_Matrix):
    """2^order x 2^order matrix whose entries are powers of one polynomial.

    Its keys are exponents: ``keys[j]`` holds one exponent byte per column,
    and entry (j, k) is ``argument ** exponent``.  Only this module reads the
    bytes; other code reads ``rows[j]`` (row j as (column, exponent) pairs),
    ``grid`` or ``marked_rows``.
    """

    __slots__ = ("argument",)

    def __init__(self, order: int, argument: Poly, rows):
        """Pack rows of (column, exponent) pairs; row j's columns must ascend within [0, j]."""
        _check_build(order, argument)
        rows = [tuple(row) for row in rows]
        columns = [[k for k, _ in row] for row in rows]
        _check_rows(order, columns)
        for j, (cols, row) in enumerate(zip(columns, rows)):
            if cols != sorted(set(cols)):
                raise ValueError(f"row {j} has columns repeated or out of order")
            if {type(e) for _, e in row} - {int}:  # bytes() would take a bool as 0/1
                raise ValueError(f"row {j} has an exponent that is not an int")
        self.order = order
        self.argument = argument
        self.cols = tuple(map(_pack_columns, columns))
        self.keys = tuple(bytes([e for _, e in row]) for row in rows)  # ValueError outside 0..255

    @classmethod
    def _packed(cls, order: int, argument: Poly, cols, keys) -> "MonomialMatrix":
        m = cls.__new__(cls)
        m.order, m.argument, m.cols, m.keys = order, argument, tuple(cols), tuple(keys)
        return m

    @property
    def rows(self) -> "_PairRows":
        return _PairRows(self)

    def _values(self) -> dict[int, Poly]:
        """argument**e for every stored exponent e, each computed once."""
        return {e: self.argument**e for e in _stored(b"".join(self.keys))}

    def to_poly_matrix(self) -> "PolyMatrix":
        """The same rows, keyed by exponent; a zero power is dropped, as PolyMatrix stores no 0.

        Only a zero argument has one, 0**e for e > 0.  Its rows go through
        the PolyMatrix constructor, which drops it.
        """
        values = self._values()
        if all(values.values()):
            return PolyMatrix._packed(self.order, self.cols, map(tuple, self.keys), values)
        rows = zip(self.cols, self.keys)
        return PolyMatrix(self.order, ({k: values[e] for k, e in _pairs(*row)} for row in rows))

    def marked_rows(self, mark):
        """Row j as j + 1 bytes: mark(e) where argument**e is stored, else 0; one mark per e."""
        marks = bytearray(256)  # exponent -> its mark, for bytes.translate
        for e in _stored(b"".join(self.keys)):
            marks[e] = mark(e)
        for j, (cols, exps) in enumerate(zip(self.cols, self.keys)):
            row = bytearray(j + 1)
            for k, m in _pairs(cols, exps.translate(marks)):
                row[k] = m
            yield row

    def dump(self) -> str:
        """Full square grid, one row per line, tab-separated canonical entries."""
        return "\n".join(self.grid())

    def __repr__(self) -> str:
        return f"MonomialMatrix(order={self.order}, argument={self.argument})"


class _PairRows:
    """Read-only rows of a MonomialMatrix as (column, exponent) pair tuples.

    Indexing row j unpacks that row alone.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: MonomialMatrix):
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self._matrix.cols)

    def __getitem__(self, j: int) -> tuple[tuple[int, int], ...]:
        return tuple(_pairs(self._matrix.cols[j], self._matrix.keys[j]))


class PolyMatrix(_Matrix):
    """Lower-triangular matrix of exact polynomials, zeros not stored.

    ``keys[j]`` is a tuple of ints, and ``entries`` maps each key to its
    entry.  No entry is zero.  Equal entries may have different keys, and
    ``entries`` may hold more than the rows use, so only the stored
    entries, never the keys, say what the matrix is.  The constructor keys
    each entry by its id(), so one object stored in many places is one key.
    """

    __slots__ = ("entries",)

    def __init__(self, order: int, rows):
        """Rows map column -> Poly, row j's columns within [0, j]; zero entries are dropped."""
        _check_order(order)
        rows = list(rows)
        _check_rows(order, rows)
        clean = []
        for j, row in enumerate(rows):
            if set(map(type, row.values())) - {Poly}:
                raise ValueError(f"row {j} has an entry that is not a Poly")
            clean.append({k: row[k] for k in sorted(row) if row[k]})
        self.order, self.entries = order, {id(p): p for row in clean for p in row.values()}
        self.cols = tuple(_pack_columns(list(row)) for row in clean)
        self.keys = tuple(tuple(map(id, row.values())) for row in clean)

    @classmethod
    def _packed(cls, order: int, cols, keys, entries: dict) -> "PolyMatrix":
        # internal: columns ascending within [0, j], every key in entries, no zero entry
        m = cls.__new__(cls)
        m.order, m.cols, m.keys, m.entries = order, tuple(cols), tuple(keys), entries
        return m

    def _values(self) -> dict[int, Poly]:
        return self.entries

    def row(self, j: int) -> dict[int, Poly]:
        return {k: self.entries[key] for k, key in _pairs(self.cols[j], self.keys[j])}

    def entry(self, j: int, k: int) -> Poly:
        return self.row(j).get(k, Poly())

    def dump(self) -> str:
        return "\n".join(self.grid())

    def __repr__(self) -> str:
        return f"PolyMatrix(order={self.order}, nonzeros={self.nonzero_count()})"


def build_recursive(n: int, argument: Poly) -> MonomialMatrix:
    """S_n(argument) by unfolding the Kronecker recurrence S_1 (x) S_{n-1}.

    Kronecker with S_1 = [[1, 0], [x, 1]] maps the current matrix M to
    [[M, 0], [x*M, M]]; in exponent form the x*M block raises every stored
    exponent by one and the second diagonal block copies M shifted.  On
    the packed rows both are one byte translation: the exponent bytes
    through e -> e + 1, and the byte lane of each column holding bit t
    through v -> v | 2^(t mod 8), which adds the old size 2^t.
    """
    _check_build(n, argument)
    cols, exps = [_pack_columns([0])], [b"\x00"]
    for t in range(n):
        lane = _HIGH_LANE if t >= 8 else 1 - _HIGH_LANE
        table = _FLIP_BIT[t & 7]  # bit t is clear: the flip sets it
        for j in range(1 << t):
            shifted = bytearray(cols[j])
            shifted[lane::2] = shifted[lane::2].translate(table)
            cols.append(cols[j] + shifted)
            exps.append(exps[j].translate(_INC) + exps[j])
    return MonomialMatrix._packed(n, argument, cols, exps)


@cache
def _byte_tables() -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Per byte v: its submasks k in ascending order, and s(v - k) for each, a byte apiece.

    Brute force over one byte, built on first use rather than at import.
    """
    masks = tuple(bytes(k for k in range(v + 1) if k & v == k) for v in range(256))
    return masks, tuple(bytes((v - k).bit_count() for k in ks) for v, ks in enumerate(masks))


def build_closed_form(n: int, argument: Poly) -> MonomialMatrix:
    """S_n(argument) directly from the entry formula, a whole row at a time.

    Row j holds arg**s(j-k) at each carry-free summand (submask) k of j and
    zero elsewhere.  Both conditions split by byte.  With j = 256*jh + jl and
    k = 256*h + l (n <= 16, so two bytes), k is a submask of j exactly when h
    is one of jh and l one of jl; then j - k borrows nowhere, so s(j - k) =
    s(jh - h) + s(jl - l).  _byte_tables gives each byte's submasks in
    ascending order and those digit sums.  Row j's columns are, for each
    submask h of jh in ascending order, jl's submasks with high byte h: they
    ascend.  Its exponents are, for each digit sum d of jh's row, jl's digit
    sums plus d.  The per-call tables are keyed by h and by d, and hold
    nothing of another row, so row j comes from j alone, with no Kronecker
    step, and its agreement with build_recursive stays independent.
    """
    _check_build(n, argument)
    masks, sums = _byte_tables()
    low = masks[: 1 << min(n, 8)]  # the masks of every low byte jl
    ends = list(accumulate(map(len, low)))
    starts = [0, *ends[:-1]]
    spans = list(map(slice, starts, ends))  # jl's piece of the joined low-byte rows
    col_spans = list(map(slice, map((2).__mul__, starts), map((2).__mul__, ends)))
    joined, joined_sums = b"".join(low), b"".join(sums[: len(low)])
    lanes = bytearray(2 * len(joined))  # every jl's submasks as uint16 columns, one high byte
    by_high, by_sum = {}, {}  # h -> jl's columns with high byte h; d -> jl's digit sums plus d
    cols, exps = [], []
    for jh in range(1 << max(n - 8, 0)):
        for h in masks[jh]:
            if h not in by_high:
                lanes[1 - _HIGH_LANE :: 2], lanes[_HIGH_LANE::2] = joined, bytes([h]) * len(joined)
                by_high[h] = list(map(bytes(lanes).__getitem__, col_spans))
        for d in sums[jh]:
            if d not in by_sum:
                shifted = joined_sums.translate(_ROTATE[d : 256 + d])
                by_sum[d] = list(map(shifted.__getitem__, spans))
        cols += map(b"".join, zip(*map(by_high.__getitem__, masks[jh])))
        exps += map(b"".join, zip(*map(by_sum.__getitem__, sums[jh])))
    return MonomialMatrix._packed(n, argument, cols, exps)


def identity(order: int) -> PolyMatrix:
    _check_order(order)
    rows = range(1 << order)
    flat = _pack_columns(rows)
    cols = (flat[2 * j : 2 * j + 2] for j in rows)
    return PolyMatrix._packed(order, cols, [(0,)] * len(rows), {0: ONE})


def _flip(cols: bytes, bit: int) -> bytes:
    """cols with bit `bit` of every uint16 column flipped: one byte lane through a table."""
    lane = _HIGH_LANE if bit >= 8 else 1 - _HIGH_LANE
    flipped = bytearray(cols)
    flipped[lane::2] = flipped[lane::2].translate(_FLIP_BIT[bit & 7])
    return bytes(flipped)


class _Blocks:
    """The tables of one matmul call, dropped with it: nothing in them refers back to them.

    A block product is a list of rows (packed relative columns, tuple of keys),
    as a PolyMatrix stores them; `table` maps a key to its entry.
    """

    def __init__(self, values_a: dict, values_b: dict, units: tuple):
        self.values_a, self.values_b = values_a, values_b
        self.units = units  # per side, the argument of a one-term MonomialMatrix, or None
        self.blocks, self.quads = {}, {}  # block content -> kept tuple; kept id, flag -> quadrants
        self.done = {}  # kept id pair -> product rows
        self.entries, self.table = {}, {}  # entry -> its key; key -> entry

    def key(self, p: Poly) -> int:
        """p's key, interned by value: equal entries share a key, so they end as one object."""
        key = self.entries.setdefault(p, len(self.entries))
        self.table[key] = p  # a new key's entry, or one equal to it
        return key

    def intern(self, block: tuple) -> tuple | None:
        """The kept tuple of a block's rows (packed relative columns, keys); None if empty."""
        return self.blocks.setdefault(block, block) if any(c for c, _ in block) else None

    def kept(self, block: list, unit) -> tuple:
        """(kept tuple, i): block is u^i times it, i its least exponent with a unit u, else 0."""
        i = min(b"".join(k for _, k in block), default=0) if unit else 0
        if i:
            table = _ROTATE[256 - i : 512 - i]  # exponent e -> e - i
            block = [(c, k.translate(table)) for c, k in block]
        return self.intern(tuple(block)), i

    def quadrants(self, block: tuple, t: int, unit) -> tuple:
        """Quadrants 11, 12, 21, 22 of a block of order t, interned, columns made relative."""
        key = id(block), unit is None  # a unit takes each quadrant's least exponent out
        if key not in self.quads:
            h, left, right = 1 << t - 1, [], []
            for cols, keys in block:
                s = bisect_left(memoryview(cols).cast("H"), h)
                left.append((cols[: 2 * s], keys[:s]))
                rest = keys[s:]  # every column here has bit t-1 set: the flip clears it
                right.append((_flip(cols[2 * s :], t - 1) if rest else b"", rest))
            parts = left[:h], right[:h], left[h:], right[h:]
            self.quads[key] = tuple(self.kept(part, unit) for part in parts)
        return self.quads[key]

    def product(self, a: tuple, b: tuple, t: int) -> list[tuple]:
        """Rows of kept blocks a times b, both of order t, once per pair."""
        key = id(a), id(b)
        if key not in self.done:
            if t:
                self.done[key] = self.split(a, b, t)
            else:  # 1x1: one entry each side; a zero product (0**e times anything) is an empty row
                p = self.values_a[a[0][1][0]] * self.values_b[b[0][1][0]]
                self.done[key] = [(bytes(2), (self.key(p),)) if p else (b"", ())]
        return self.done[key]

    def plus(self, x: tuple, y: tuple) -> tuple:
        """Sum of two rows, sorted, zeros dropped; an empty row gives the other."""
        if not (x[1] and y[1]):
            return x if x[1] else y
        x, y = ({l: self.table[k] for l, k in _pairs(*row)} for row in (x, y))
        s = x | {l: x[l] + p if l in x else p for l, p in y.items()}
        columns = [l for l in sorted(s) if s[l]]
        return _pack_columns(columns), tuple(self.key(s[l]) for l in columns)

    def scaled(self, rows: list, offsets: list) -> list[tuple]:
        """rows times the sum of u^i v^j over the offsets (i, j), u and v the sides' units.

        Each distinct key of rows is mapped once, to the key of its entry times
        that one factor.  Z[X, Y] has no zero divisors, so only a zero factor
        gives zero entries: it empties every row.
        """
        if offsets == [(0, 0)]:
            return rows
        u, v = (unit or ONE for unit in self.units)
        factor = sum((u**i * v**j for i, j in offsets), ZERO)
        if not factor:  # C21 of S_n(x) S_n(-x): x S S - S x S
            return [(b"", ())] * len(rows)
        keys = set(chain.from_iterable(k for _, k in rows))
        get = {k: self.key(self.table[k] * factor) for k in keys}.__getitem__
        return [(c, tuple(map(get, k))) for c, k in rows]

    def split(self, a: tuple, b: tuple, t: int) -> list[tuple]:
        """C_rc = A_r0 B_0c + A_r1 B_1c over the quadrants, C_r1's columns moved right by h.

        (u^i A)(v^j B) = u^i v^j (AB): terms of C_rc with one kept pair share its product.
        C_r1's relative columns are below h, so adding h sets bit t-1: the flip that
        quadrants clears it with.  Columns ascend: C_r0's lie below h, C_r1's at h or
        above, each sorted by induction, so a row of C is the two rows joined.
        """
        qa, qb = self.quadrants(a, t, self.units[0]), self.quadrants(b, t, self.units[1])
        h, rows = 1 << t - 1, []
        for r in (0, 1):
            parts = []  # the rows of C_r0 and of C_r1
            for c in (0, 1):
                pairs = {}  # kept id pair -> [kept a, kept b, offsets]
                for m in (0, 1):
                    (x, i), (y, j) = qa[2 * r + m], qb[2 * m + c]
                    if None not in (x, y):
                        pairs.setdefault((id(x), id(y)), [x, y, []])[2].append((i, j))
                part = [(b"", ())] * h
                for x, y, offsets in pairs.values():
                    part = list(map(self.plus, part,
                                    self.scaled(self.product(x, y, t - 1), offsets)))
                parts.append(part)
            rows += ((c0 + _flip(c1, t - 1), k0 + k1) if k1 else (c0, k0)
                     for (c0, k0), (c1, k1) in zip(*parts))
        return rows


def _unit(m: _Matrix) -> Poly | None:
    """The argument of m when m is a MonomialMatrix of one term c*X^a*Y^b, else None."""
    terms = m.argument._terms if isinstance(m, MonomialMatrix) else {}
    return m.argument if len(terms) == 1 else None


def _check_operands(a, b) -> None:
    """Refuse an operand that is not a matrix of either kind, naming it, with TypeError."""
    for name, m in (("first", a), ("second", b)):
        if not isinstance(m, _Matrix):
            raise TypeError(f"the {name} operand must be a MonomialMatrix or a PolyMatrix, "
                            f"got {type(m).__name__}")


def matmul(a, b) -> PolyMatrix:
    """Exact product of two equal-order lower-triangular matrices.

    Entry (j, l) is the definitional sum over k of a[j][k] * b[k][l], taken
    by blocks: both operands split into 2x2 quadrants, C_rc = A_r0 B_0c +
    A_r1 B_1c, down to 1x1 blocks.  Where an operand's argument is one term
    u, a block is stored as u^i times its kept block, i being its least
    exponent, so each of its 1x1 blocks is kept as u^0.  A block is interned
    by its content, packed relative columns and keys (exponents, or a
    PolyMatrix's keys of distinct entries), and each pair of kept blocks is
    multiplied once per call.  A 1x1 product is one Poly.__mul__; the levels
    above add those entries, multiply each distinct one once by its block's
    factor and keep equal results as one object and one key.

    Every step is a Poly operation, so the product is exact.

    Independence: a product is reused for blocks that are byte-identical
    once their least exponent is taken out, and the factor is put back
    exactly, since (u^i A)(v^j B) = u^i v^j (AB) for any matrices A and B.
    Every (j, k, l) still lies in exactly one block term of each level, so
    S_n(x) S_n(y) is still the sum over k.  S_t and x*S_t are found equal up to that
    factor by comparing bytes; nothing assumes the group law or the
    Kronecker mixed-product rule.  The other side comes from
    build_recursive(n, X+Y) and (X+Y)**e.
    """
    _check_operands(a, b)
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    units = _unit(a), _unit(b)
    # a unit side above order 0 is split, and each of its 1x1 blocks kept as u^0
    values = ({0: ONE} if unit and m.order else m._values() for m, unit in zip((a, b), units))
    tables = _Blocks(*values, units)
    kept = tables.intern(tuple(zip(a.cols, a.keys))), tables.intern(tuple(zip(b.cols, b.keys)))
    rows = [(b"", ())] * a.size if None in kept else tables.product(*kept, a.order)
    # product rows ascend: see _Blocks.split
    return PolyMatrix._packed(a.order, *zip(*rows), tables.table)


def _nonzero(m: _Matrix) -> tuple[_Matrix, dict]:
    """m and its key -> entry map, through to_poly_matrix where m stores a zero power."""
    values = m._values()
    return (m, values) if all(values.values()) else _nonzero(m.to_poly_matrix())


def matrices_equal(a, b) -> bool:
    """Exact entry-by-entry equality.

    Two MonomialMatrix objects with the same order, argument and packed
    rows are equal without expansion: the rows compare as bytes.  Otherwise
    a side that stores a zero power is made a PolyMatrix, which drops it, so
    both sides store exactly their nonzero entries.  Then the matrices are
    equal when their columns are (one packed row per row, so the orders
    too), and when each distinct pair of keys that meet at one place holds
    equal entries: one Poly comparison per pair.
    The keys themselves are never compared, since different exponents can
    give equal entries (arguments 1, -1), and so can different keys of a
    PolyMatrix.
    """
    _check_operands(a, b)
    if isinstance(a, MonomialMatrix) and isinstance(b, MonomialMatrix) and (
        (a.order, a.argument, a.cols, a.keys) == (b.order, b.argument, b.cols, b.keys)
    ):
        return True
    (a, values_a), (b, values_b) = _nonzero(a), _nonzero(b)
    pairs = chain.from_iterable(map(zip, a.keys, b.keys))  # read only if the columns agree
    return a.cols == b.cols and all(values_a[x] == values_b[y] for x, y in set(pairs))
