"""Matrix family: two constructions and exact products."""

import array
import gc
import hashlib
import random
import sys
import tracemalloc

import pytest

from sierpinski import identities, matrices
from sierpinski.algebra import ONE, X, Y, ZERO, Poly
from sierpinski.digits import carry_free, sum_of_digits
from sierpinski.errors import SizeLimitError
from sierpinski.matrices import (
    MAX_BUILD_ORDER,
    MonomialMatrix,
    PolyMatrix,
    build_closed_form,
    build_recursive,
    identity,
    matmul,
    matrices_equal,
)

S3_GOLDEN = "\n".join(
    [
        "1\t0\t0\t0\t0\t0\t0\t0",
        "1*X^1\t1\t0\t0\t0\t0\t0\t0",
        "1*X^1\t0\t1\t0\t0\t0\t0\t0",
        "1*X^2\t1*X^1\t1*X^1\t1\t0\t0\t0\t0",
        "1*X^1\t0\t0\t0\t1\t0\t0\t0",
        "1*X^2\t1*X^1\t0\t0\t1*X^1\t1\t0\t0",
        "1*X^2\t0\t1*X^1\t0\t1*X^1\t0\t1\t0",
        "1*X^3\t1*X^2\t1*X^2\t1*X^1\t1*X^2\t1*X^1\t1*X^1\t1",
    ]
)


def sparse_product(a, b) -> PolyMatrix:
    # definitional oracle over stored entries: (j, l) sums a[j][k] * b[k][l] in Poly arithmetic
    a, b = (m.to_poly_matrix() if isinstance(m, MonomialMatrix) else m for m in (a, b))
    rows = []
    for j in range(a.size):
        row = {}
        for k, p in a.row(j).items():
            for l, q in b.row(k).items():
                row[l] = row.get(l, Poly()) + p * q
        rows.append({l: row[l] for l in sorted(row) if row[l]})
    return PolyMatrix(a.order, rows)


def with_exponent_raised(m: MonomialMatrix, j: int, k: int) -> MonomialMatrix:
    # m with the stored exponent at (j, k) one higher: one corrupted entry
    rows = [list(row) for row in m.rows]
    i = [col for col, _ in rows[j]].index(k)
    rows[j][i] = (k, rows[j][i][1] + 1)
    return MonomialMatrix(m.order, m.argument, rows)


def dense_product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    # brute-force oracle: every index triple, no sparsity shortcuts
    n = a.size
    rows = []
    for j in range(n):
        row = {}
        for l in range(j + 1):
            acc = Poly()
            for k in range(n):
                acc = acc + a.entry(j, k) * b.entry(k, l)
            if acc:
                row[l] = acc
        rows.append(row)
    return PolyMatrix(a.order, rows)


class TestBuildRecursive:
    def test_order_two_binary_pattern(self):
        grid = build_recursive(2, ONE).to_poly_matrix()
        pattern = [[1 if grid.entry(j, k) == ONE else 0 for k in range(4)] for j in range(4)]
        assert pattern == [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]

    def test_order_zero_is_identity(self):
        for arg in (X, Y, ZERO, X + Y):
            m = build_recursive(0, arg)
            assert m.size == 1
            assert m.to_poly_matrix().entry(0, 0) == ONE

    def test_order_three_bottom_row_exponents(self):
        m = build_recursive(3, X)
        assert [e for _, e in m.rows[7]] == [3, 2, 2, 1, 2, 1, 1, 0]

    def test_order_limit(self):
        with pytest.raises(SizeLimitError, match="3\\^13"):
            build_recursive(13, X)


class TestBuildClosedForm:
    def test_non_submask_entry_is_zero(self):
        for n in (3, 4, 5):
            m = build_closed_form(n, X)
            assert 2 not in dict(m.rows[5])  # 2 is no submask of 5
            assert m.to_poly_matrix().entry(5, 2) == ZERO

    def test_diagonal_is_one(self):
        m = build_closed_form(4, X)
        grid = m.to_poly_matrix()
        for j in range(16):
            assert dict(m.rows[j])[j] == 0
            assert grid.entry(j, j) == ONE

    def test_row_five(self):
        m = build_closed_form(3, X)
        assert m.rows[5] == ((0, 2), (1, 1), (4, 1), (5, 0))

    def test_order_limit(self):
        with pytest.raises(SizeLimitError):
            build_closed_form(13, X)

    def test_byte_tables_match_a_brute_force_scan(self):
        masks, sums = matrices._byte_tables()
        assert len(masks) == len(sums) == 256
        for v in range(256):
            below = [k for k in range(256) if k | v == v]
            assert list(masks[v]) == below, v
            assert list(sums[v]) == [sum_of_digits(v - k) for k in below], v

    # sha256 of each order's packed rows, little-endian columns, as the lane-popcount builder
    # wrote them; the bytes do not depend on the argument
    PACKED = ["957b88b12730e646", "46cdaff2b1df3071", "a96342c236226ef9", "33dedcf92696eb71",
              "e71905d8206df745", "df665441d48deee8", "a4b88b69b3170df2", "e450c2ed27b1e740",
              "779fb2ab7670ca51", "280b02eb6c89e748", "404f245f29d5d2d5", "e3cca81987dee4b9",
              "e952dccea6eeb1fa"]

    @pytest.mark.parametrize("arg", [X, ONE, ZERO, -X], ids=str)
    def test_packed_rows_are_pinned_at_every_order(self, arg):
        for n, want in enumerate(self.PACKED):
            m = build_closed_form(n, arg)
            digest = hashlib.sha256()
            for cols, exps in zip(m.cols, m.exps):
                little = array.array("H", cols)
                if sys.byteorder == "big":
                    little.byteswap()
                digest.update(len(exps).to_bytes(2, "little") + little.tobytes() + exps)
            assert (m.order, m.argument, digest.hexdigest()[:16]) == (n, arg, want)


class TestConstructionEquivalence:
    def test_small_orders_all_arguments(self):
        for n in range(7):
            for arg in (X, Y, X + Y, ONE, ZERO):
                assert matrices_equal(build_recursive(n, arg), build_closed_form(n, arg))

    def test_different_arguments_differ(self):
        for n in range(1, 7):
            assert not matrices_equal(build_recursive(n, X), build_recursive(n, Y))

    def test_different_exponents_can_be_equal(self):
        # 0^1 == 0^2, 1^1 == 1^2 and (-1)^1 == (-1)^3, so the stored
        # exponents differ while the matrices are equal
        minus_one = Poly.constant(-1)
        for arg, e1, e2, equal in (
            (ZERO, 1, 2, True),
            (ONE, 1, 2, True),
            (minus_one, 1, 3, True),
            (minus_one, 1, 2, False),
            (X, 1, 2, False),
        ):
            a = MonomialMatrix(1, arg, [[(0, 0)], [(0, e1), (1, 0)]])
            b = MonomialMatrix(1, arg, [[(0, 0)], [(0, e2), (1, 0)]])
            assert matrices_equal(a, b) is equal

    def test_different_orders_differ(self):
        assert not matrices_equal(build_recursive(2, X), build_recursive(3, X))

    def test_mixed_representations(self):
        assert matrices_equal(build_recursive(3, X), build_recursive(3, X).to_poly_matrix())

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("arg", [X, ONE, ZERO])
    def test_top_orders_pack_the_same_bytes(self, n, arg):
        # the per-entry submask oracle stops at n = 10; above it the two
        # independent builders pin each other byte for byte
        a, b = build_recursive(n, arg), build_closed_form(n, arg)
        assert (a.cols, a.exps) == (b.cols, b.exps)

    def test_family_at_one_is_binary_family(self):
        # S_n(1): entries are 0/1 with 1 exactly at submask positions
        m = build_closed_form(5, ONE).to_poly_matrix()
        for j in range(32):
            for k in range(32):
                expected = ONE if (k & j == k and k <= j) else ZERO
                assert m.entry(j, k) == expected


MINUS_ONE = Poly.constant(-1)


class TestMatricesEqualAcrossRepresentations:
    @pytest.mark.parametrize("arg", [ZERO, ONE, MINUS_ONE, X])
    def test_monomial_and_poly_matrix_in_both_orders(self, arg):
        for n in range(5):
            m = build_closed_form(n, arg)
            p = build_recursive(n, arg).to_poly_matrix()
            assert matrices_equal(m, p) and matrices_equal(p, m)

    @pytest.mark.parametrize("arg", [ZERO, ONE, MINUS_ONE])
    def test_different_exponents_equal_entries_across_representations(self, arg):
        # 0^1 == 0^2, 1^1 == 1^2, (-1)^1 == (-1)^3: other exponents, same entries
        m = MonomialMatrix(1, arg, [[(0, 0)], [(0, 1), (1, 0)]])
        p = MonomialMatrix(1, arg, [[(0, 0)], [(0, 1 if arg == ZERO else 3), (1, 0)]]).to_poly_matrix()
        assert matrices_equal(m, p) and matrices_equal(p, m)

    def test_x_exponents_differ_across_representations(self):
        m = MonomialMatrix(1, X, [[(0, 0)], [(0, 1), (1, 0)]])
        p = MonomialMatrix(1, X, [[(0, 0)], [(0, 2), (1, 0)]]).to_poly_matrix()
        assert not matrices_equal(m, p) and not matrices_equal(p, m)

    def test_different_orders_differ_across_representations(self):
        for a, b in ((build_recursive(2, X), build_recursive(3, X).to_poly_matrix()),
                     (build_recursive(2, X).to_poly_matrix(), build_recursive(3, X)),
                     (identity(2), identity(3))):
            assert not matrices_equal(a, b) and not matrices_equal(b, a)

    def test_product_with_one_entry_replaced_differs(self):
        lhs = matmul(build_recursive(4, X), build_recursive(4, Y))
        rhs = build_recursive(4, X + Y)
        assert matrices_equal(lhs, rhs) and matrices_equal(rhs, lhs)
        rows = [lhs.row(j) for j in range(lhs.size)]
        rows[13][9] = rows[13][9] + X  # (X+Y)^1 -> 2X + Y at a submask column
        wrong = PolyMatrix(4, rows)
        assert not matrices_equal(wrong, rhs) and not matrices_equal(rhs, wrong)

    def test_eq_is_matrices_equal_for_either_kind(self):
        m, p = build_recursive(3, X), build_closed_form(3, X).to_poly_matrix()
        assert m == build_closed_form(3, X) and m == p and p == m
        assert m != build_recursive(3, Y) and p != build_recursive(3, Y)
        assert MonomialMatrix(1, ONE, [[(0, 0)], [(0, 1), (1, 0)]]) == build_recursive(1, ONE)
        assert (m == 5) is False and m != "S_3"

    def test_entry_where_the_monomial_matrix_stores_none_differs(self):
        m = build_recursive(3, X)
        rows = [m.to_poly_matrix().row(j) for j in range(m.size)]
        rows[6][1] = X  # 1 is no submask of 6 = 0b110
        extra = PolyMatrix(3, rows)
        assert not matrices_equal(m, extra) and not matrices_equal(extra, m)

    @staticmethod
    def places(m: MonomialMatrix, e: int) -> list[tuple[int, int]]:
        # every (row, column) where m stores exponent e, in row-major order
        return [(j, k) for j in range(m.size) for k, f in m.rows[j] if f == e]

    @staticmethod
    def replaced(m: MonomialMatrix, spot: tuple[int, int], entry: Poly) -> PolyMatrix:
        rows = [m.to_poly_matrix().row(j) for j in range(m.size)]
        rows[spot[0]][spot[1]] = entry
        return PolyMatrix(m.order, rows)

    @pytest.mark.parametrize("e", range(5))
    def test_wrong_entry_at_the_first_place_of_an_exponent_differs(self, e):
        # the candidate for (X+Y)^e sits where e is first stored; a wrong one is refused,
        # and e = 4 is stored only there, so taking it unchecked would call the two equal
        m = build_recursive(4, X + Y)
        wrong = self.replaced(m, self.places(m, e)[0], (X + Y) ** e + X)
        assert not matrices_equal(m, wrong) and not matrices_equal(wrong, m)

    @pytest.mark.parametrize("e", range(4))
    def test_wrong_entry_at_a_later_place_of_an_exponent_differs(self, e):
        m = build_recursive(4, X + Y)
        first, *later = self.places(m, e)
        for spot in later:
            wrong = self.replaced(m, spot, (X + Y) ** e + X)
            assert wrong.entry(*first) == (X + Y) ** e
            assert not matrices_equal(m, wrong) and not matrices_equal(wrong, m)

    def test_equal_but_distinct_entry_objects_are_equal(self):
        m = build_recursive(5, X + Y)
        copies = PolyMatrix(5, [{k: Poly(p.terms) for k, p in m.to_poly_matrix().row(j).items()}
                                for j in range(m.size)])
        assert len({id(p) for j in range(m.size) for p in copies.row(j).values()}) == 3**5
        assert matrices_equal(m, copies) and matrices_equal(copies, m)

    @pytest.mark.parametrize("arg", [ZERO, ONE, MINUS_ONE])
    def test_coinciding_and_vanishing_powers_are_exact(self, arg):
        # 0^e vanishes for e > 0, 1^e is one entry for every e, and (-1)^e takes two values
        m = build_recursive(4, arg)
        exact = build_closed_form(4, arg).to_poly_matrix()
        assert matrices_equal(m, exact) and matrices_equal(exact, m)
        for e in range(1, 3):
            for spot in self.places(m, e)[:2]:  # the first place of e, where its candidate is
                for entry in (arg**e + ONE, -(arg**e) if arg else ONE):
                    wrong = self.replaced(m, spot, entry)
                    assert not matrices_equal(m, wrong) and not matrices_equal(wrong, m)
        flipped = build_recursive(4, -arg).to_poly_matrix()
        assert matrices_equal(m, flipped) is (arg == ZERO)
        assert matrices_equal(flipped, m) is (arg == ZERO)


class TestMatMul:
    def test_order_one_product(self):
        prod = matmul(build_recursive(1, X), build_recursive(1, Y))
        assert prod.entry(0, 0) == ONE
        assert prod.entry(1, 1) == ONE
        assert prod.entry(1, 0) == X + Y

    def test_identity_neutral(self):
        m = build_recursive(3, X).to_poly_matrix()
        assert matmul(m, identity(3)) == m
        assert matmul(identity(3), m) == m

    def test_against_dense_oracle(self):
        for n in range(5):
            for x, y in ((X, Y), (X, -X), (ONE, ZERO), (X + Y, X - Y)):
                a, b = build_recursive(n, x), build_closed_form(n, y)
                expected = dense_product(a.to_poly_matrix(), b.to_poly_matrix())
                assert matmul(a, b) == expected
                assert matmul(a.to_poly_matrix(), b) == expected
                assert matmul(a, b.to_poly_matrix()) == expected
        # non-monomial entries: binomials, products, and repeated random polys
        rng = random.Random(3)
        pool = [ZERO, ONE, X - Y, 2 * X * Y + 3, -(X**2)]
        noisy = PolyMatrix(3, [{k: rng.choice(pool) for k in range(j + 1)} for j in range(8)])
        binomials = build_recursive(3, X + Y).to_poly_matrix()
        product = matmul(build_recursive(3, X), build_recursive(3, X - Y))
        pairs = ((binomials, binomials), (binomials, product), (product, noisy), (noisy, noisy))
        for a, b in pairs:
            assert matmul(a, b) == dense_product(a, b)
        prod = matmul(build_recursive(2, X), build_recursive(2, Y))
        assert matrices_equal(prod, build_recursive(2, X + Y))
        assert prod.nonzero_count() == 9

    def test_coded_tally_against_dense_oracle(self):
        # wide and signed coefficients, degrees that meet in the output and many distinct
        # entries, whose block sums add Poly entries that cancel and grow past 64 bits
        rng = random.Random(5)
        big = 2**64 + 1
        wide = [-big * X**2 * Y, (2**70 - 3) * X - Y**3, -(X**4), 7 * Y - 2**65, big * Y**2]
        signs = PolyMatrix(3, [{k: rng.choice(wide) for k in range(j + 1)} for j in range(8)])
        # X-degrees 4 and 3 meet in the output as X^7, beside Y terms
        deg_a = PolyMatrix(2, [{k: X**4 - Y for k in range(j + 1)} for j in range(4)])
        deg_b = PolyMatrix(2, [{k: X**3 + 2 * Y**2 for k in range(j + 1)} for j in range(4)])
        assert (7, 0) in dense_product(deg_a, deg_b).entry(3, 0).terms

        def noise():
            terms = {(rng.randrange(4), rng.randrange(3)): rng.randrange(-9, 10) for _ in range(3)}
            return Poly(terms)

        distinct = PolyMatrix(4, [{k: noise() for k in range(j + 1)} for j in range(16)])
        assert distinct.nonzero_count() > 100
        zero = PolyMatrix(3, [{}] * 8)
        s3 = build_recursive(3, X - Y).to_poly_matrix()
        s4 = build_recursive(4, X + Y).to_poly_matrix()
        pairs = [(signs, signs), (signs, s3), (deg_a, deg_b), (deg_b, deg_a), (distinct, distinct),
                 (distinct, s4), (s4, distinct), (zero, s3), (s3, zero), (zero, zero)]
        for a, b in pairs:
            assert matmul(a, b) == dense_product(a, b)
        assert matmul(zero, s3) == zero

    def test_coded_tally_of_sparse_high_degree_entries(self):
        # a product's cost follows the terms that occur, whatever their degree
        prod = matmul(build_recursive(4, X**1000), build_recursive(4, Y**1000))
        assert matrices_equal(prod, build_recursive(4, X**1000 + Y**1000))
        assert matrices_equal(matmul(build_recursive(6, X**300), build_recursive(6, -(X**300))),
                              identity(6))
        spread = [X**900 * Y**2 - 7 * Y**700, 3 * X**5 + Y**1000, -(X**400) * Y**400]
        a = PolyMatrix(3, [{k: spread[(j + k) % 3] for k in range(j + 1)} for j in range(8)])
        assert matmul(a, a) == dense_product(a, a)

    def test_coded_tally_at_the_coefficient_bound(self):
        # an all-c lower triangle times an all-e one puts 2^order * c * e at (last, 0):
        # every k adds to that entry, the most any entry of the product sums
        for c, e in ((ONE, ONE), (-3 * ONE, -5 * ONE), (3 * ONE, -5 * ONE)):
            a = PolyMatrix(4, [{k: c for k in range(j + 1)} for j in range(16)])
            b = PolyMatrix(4, [{k: e for k in range(j + 1)} for j in range(16)])
            prod = matmul(a, b)
            assert prod == dense_product(a, b)
            assert prod.entry(15, 0) == 16 * c * e
        # 1 + X has 1-norm 2: its products pile 2 * 2^order onto X
        a = PolyMatrix(4, [{k: 1 + X for k in range(j + 1)} for j in range(16)])
        assert matmul(a, a) == dense_product(a, a)
        assert matmul(a, a).entry(15, 0).terms[1, 0] == 32

    def test_group_law_small_orders(self):
        for n in range(6):
            prod = matmul(build_recursive(n, X), build_recursive(n, Y))
            assert matrices_equal(prod, build_recursive(n, X + Y))

    def test_group_law_catches_one_wrong_exponent(self):
        rows = [list(row) for row in build_recursive(8, X).rows]
        k, e = rows[200][3]
        rows[200][3] = (k, e + 1)
        wrong = MonomialMatrix(8, X, rows)
        lhs = matmul(wrong, build_recursive(8, Y))
        assert not matrices_equal(lhs, build_recursive(8, X + Y))

    def test_inverse(self):
        prod = matmul(build_recursive(4, X), build_recursive(4, -X))
        assert prod == identity(4)

    def test_operator(self):
        a = build_recursive(2, X).to_poly_matrix()
        assert matmul(a, identity(2)) == a

    def test_refuses_an_operand_that_is_not_a_matrix(self):
        m = build_recursive(2, X)
        for call, match in ((lambda: matmul([[1]], m), "first operand .* got list"),
                            (lambda: matmul(m, ONE), "second operand .* got Poly"),
                            (lambda: matrices_equal(m, 5), "second operand .* got int"),
                            (lambda: matrices_equal("S_2", m.to_poly_matrix()), "first .* got str")):
            with pytest.raises(TypeError, match=match):
                call()
        assert m.__eq__(5) is NotImplemented and m.to_poly_matrix().__eq__([]) is NotImplemented

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(build_recursive(2, X), build_recursive(3, X))

    def test_multiplication_limit(self):
        # a product has no cap of its own: any two matrices that exist multiply
        prod = matmul(build_recursive(11, X), build_recursive(11, Y))
        assert matrices_equal(prod, build_recursive(11, X + Y))


class TestBlockRecursion:
    """Products are summed by quadrants down to 1x1 blocks, each pair of distinct kept blocks once.

    In S_7(x) the top split has A22 == A11 and A21 == x*A11: A21 is kept as
    A11 with the factor x put back.  A block product reused for blocks that
    match only in their columns, or put back with a wrong factor, gives a
    wrong entry here.
    """

    # (row, column) in A11, A21 and A22 of the top split, and in A22 of A22
    SPOTS = {"A11": (37, 1), "A21": (101, 5), "A22": (101, 65), "A22 of A22": (101, 97)}

    @pytest.mark.parametrize("spot", SPOTS)
    def test_one_corrupted_exponent_in_a(self, spot):
        a = with_exponent_raised(build_recursive(7, X), *self.SPOTS[spot])
        b = build_recursive(7, Y)
        prod = matmul(a, b)
        assert prod == sparse_product(a, b)
        assert not matrices_equal(prod, build_recursive(7, X + Y))

    def test_one_corrupted_exponent_in_b22(self):
        a, b = build_recursive(7, X), with_exponent_raised(build_recursive(7, -X), 101, 65)
        prod = matmul(a, b)
        assert prod == sparse_product(a, b)
        assert prod != identity(7)

    def test_random_pair_whose_a22_copies_a11_but_one_entry(self):
        rng = random.Random(20)
        pool = [ONE, -ONE, X, 2 * Y, X - Y, X * Y + 3]

        def sparse_rows(size, square):
            # square: a block that may hold columns above its diagonal, as A21 does
            return [{k: rng.choice(pool) for k in range(size if square else j + 1)
                     if rng.random() < 0.3} for j in range(size)]

        top, low = sparse_rows(64, False), sparse_rows(64, True)
        copy = [{k + 64: p for k, p in row.items()} for row in top]
        j = next(j for j in range(40, 64) if top[j])
        k = min(copy[j])
        copy[j][k] = copy[j][k] + X**5  # the one entry A22 does not copy
        a = PolyMatrix(7, top + [{**lo, **hi} for lo, hi in zip(low, copy)])
        b = PolyMatrix(7, sparse_rows(128, False))
        exact = PolyMatrix(7, top + [{**lo, **{k + 64: p for k, p in up.items()}}
                                     for lo, up in zip(low, top)])
        for left in (a, exact):
            assert matmul(left, b) == sparse_product(left, b)
        assert matmul(a, b) != matmul(exact, b)

    @pytest.mark.parametrize("x, y", [(2 * X, -3 * Y), (-3 * Y, 2 * X), (X * Y, -(X * Y)),
                                      (X * Y, 2 * Y), (X, X + Y), (X + Y, X)])
    def test_single_term_arguments_against_the_oracle(self, x, y):
        # coefficients other than 1 put back c^i, a two-variable term moves both exponents,
        # and a multi-term argument beside a single-term one keeps its blocks whole
        a, b = build_recursive(7, x), build_closed_form(7, y)
        assert matmul(a, b) == sparse_product(a, b)

    def test_least_stored_exponent_above_zero(self):
        # each quadrant of `raised` carries a factor u^3 or more; `scattered` has distinct blocks.
        # Order 0 is never split, so its one stored exponent (3 in `raised`) is multiplied as
        # stored; from order 1 up every 1x1 block is kept as u^0 and the factor put back
        rng = random.Random(25)
        for n in (0, 1, 2, 6):
            rows = build_recursive(n, X).rows
            raised = MonomialMatrix(n, -2 * X, [[(k, e + 3) for k, e in row] for row in rows])
            scattered = MonomialMatrix(n, 3 * X * Y, [[(k, rng.randrange(1, 5)) for k, _ in row]
                                                     for row in rows])
            y = build_recursive(n, Y)
            for a, b in ((raised, y), (y, raised), (raised, scattered), (scattered, scattered)):
                assert matmul(a, b) == sparse_product(a, b)

    def test_high_degree_single_terms_at_order_8(self):
        a, b = build_recursive(8, X**100), build_recursive(8, Y**100)
        assert matmul(a, b) == sparse_product(a, b)

    def test_no_state_outlives_a_call(self, monkeypatch):
        a, b = build_recursive(8, X), build_recursive(8, Y)
        calls = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
        counts = []
        for _ in range(2):
            calls.clear()
            matmul(a, b)
            counts.append(len(calls))
        # One 1x1 product: each 1x1 block is kept with its exponent taken out, so every level
        # reuses that one leaf X^0 Y^0, and no other power of X or Y is computed. Level t puts
        # back the factor X + Y of C21 in 4 products and multiplies the t distinct entries of
        # its one block product by it: 1 + 4 * 8 + 36
        assert counts == [69, 69]
        monkeypatch.undo()
        gc.disable()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            prod = matmul(a, b)
            assert prod.nonzero_count() == 3**8
            del prod
            left = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 64 * 1024  # no reference cycle keeps the block tables alive

    def test_equal_entries_are_one_object(self):
        # S_n(X) S_n(Y) holds (X+Y)^e for e <= n and S_n(X) S_n(-X) holds 1 alone: block sums
        # keep equal entries as one object, where copies would double at every level
        for n in range(11):
            x = build_recursive(n, X)
            for y, count in ((build_recursive(n, Y), n + 1), (build_recursive(n, -X), 1)):
                prod = matmul(x, y)
                assert len({id(p) for j in range(prod.size) for p in prod.row(j).values()}) == count

    def test_inverse_product_stores_only_its_diagonal(self):
        # C21 of S_n(X) S_n(-X) carries the factor X - X = 0; Z[X, Y] has no zero divisors,
        # so that is the only way an entry vanishes, and no zero is ever stored
        for n in range(7):
            prod = matmul(build_recursive(n, X), build_recursive(n, -X))
            assert prod.nonzero_count() == 1 << n
            assert all(p for j in range(prod.size) for p in prod.row(j).values())
            assert prod == identity(n)

    def test_product_rows_ascend_after_a_sum(self):
        # dense random operands: each quadrant of the product sums two block products,
        # so rows meet in plus, and no row is sorted after it
        rng = random.Random(28)
        pool = [ONE, -ONE, X, 2 * Y, X - Y, X * Y + 3]
        for n in (2, 3, 5):
            a, b = (PolyMatrix(n, [{k: rng.choice(pool) for k in range(j + 1) if rng.random() < 0.7}
                                   for j in range(1 << n)]) for _ in range(2))
            prod = matmul(a, b)
            assert prod == sparse_product(a, b)
            for j in range(prod.size):
                assert list(prod.row(j)) == sorted(prod.row(j))
        again = matmul(prod, prod)  # a product's rows feed the quadrant split's bisect
        assert again == sparse_product(prod, prod)

    def test_order_10_product_peak(self):
        # one block product a level keeps the memo small; with a product for each
        # exponent-shifted pair of blocks this call peaked at 7.3 MB
        a, b = build_recursive(10, X), build_recursive(10, Y)
        gc.collect()
        tracemalloc.start()
        try:
            prod = matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrices_equal(prod, build_recursive(10, X + Y))
        assert peak < 6 * 2**20


class TestStructure:
    def test_zero_argument_gives_identity(self):
        for n in range(6):
            assert matrices_equal(build_recursive(n, ZERO), identity(n))

    def test_entry_counts(self):
        for n in range(7):
            m = build_recursive(n, X)
            assert m.nonzero_count() == 3**n
            for j in range(m.size):
                assert len(m.rows[j]) == 1 << sum_of_digits(j)

    def test_rows_match_brute_force_carry_free_scan(self):
        m = build_closed_form(6, X)
        for j in range(64):
            expected = [(k, sum_of_digits(j - k)) for k in range(j + 1) if carry_free(k, j - k)]
            assert list(m.rows[j]) == expected

    def test_monomial_entries_expand_with_poly_pow(self):
        m = build_recursive(3, X + Y)
        grid = m.to_poly_matrix()
        for j in range(8):
            for k, e in m.rows[j]:
                assert grid.entry(j, k) == (X + Y) ** e


def corrupted(m: MonomialMatrix, field: str) -> MonomialMatrix:
    """m with one byte of row 45 changed: column 1 -> 3, or exponent s(44) -> s(44) + 1."""
    packed = list(getattr(m, field))
    row = bytearray(packed[45])
    if field == "cols":
        memoryview(row).cast("H")[1] = 3  # 3 is no submask of 45 = 0b101101
    else:
        row[1] += 1
    packed[45] = bytes(row)
    setattr(m, field, tuple(packed))
    return m


class TestPackedRows:
    @pytest.mark.parametrize("build", [build_recursive, build_closed_form])
    def test_pair_rows_match_submask_oracle(self, build):
        for n in range(11):
            m = build(n, X)
            assert len(m.rows) == m.size
            for j in range(m.size):
                want = tuple((k, sum_of_digits(j - k)) for k in range(j + 1) if k & j == k)
                assert m.rows[j] == want, (n, j)
        assert list(m.rows) == [m.rows[j] for j in range(m.size)]

    @pytest.mark.parametrize("build", [build_recursive, build_closed_form])
    def test_marked_rows_match_pair_rows(self, build):
        for n in range(11):
            m = build(n, X)
            marked = []

            def mark(e):
                marked.append(e)
                return e + 1

            rows = list(m.marked_rows(mark))
            assert len(rows) == m.size
            for j, row in enumerate(rows):
                want = bytearray(j + 1)
                for k, e in m.rows[j]:
                    want[k] = e + 1
                assert row == want, (n, j)
            # once per distinct exponent 0..n, not once per stored entry
            assert sorted(marked) == list(range(n + 1))

    def test_pair_constructor_packs_like_the_builders(self):
        m = build_recursive(6, X)
        again = MonomialMatrix(6, X, m.rows)
        assert (again.cols, again.exps) == (m.cols, m.exps)

    def test_pair_constructor_refuses_wrong_row_count(self):
        with pytest.raises(ValueError, match="expected 4 rows, got 1"):
            MonomialMatrix(2, X, [[(0, 0)]])

    def test_pair_constructor_refuses_column_outside_the_row(self):
        # a column outside [0, j] would fall outside the row's grid line and matmul's quadrants
        for row in ([(0, 1), (1, 0), (5, 0)], [(-1, 1), (1, 0)], [(0, 1), (70000, 0)], [(0.0, 1)]):
            with pytest.raises(ValueError, match="row 1 has a column above the diagonal"):
                MonomialMatrix(1, X, [[(0, 0)], row])

    def test_pair_constructor_refuses_columns_out_of_order(self):
        for row in ([(1, 0), (0, 1)], [(0, 1), (0, 1)]):
            with pytest.raises(ValueError, match="repeated or out of order"):
                MonomialMatrix(1, X, [[(0, 0)], row])

    def test_pair_constructor_refuses_exponent_outside_a_byte(self):
        for e in (256, -1):
            with pytest.raises(ValueError, match="range\\(0, 256\\)"):
                MonomialMatrix(1, X, [[(0, 0)], [(0, e), (1, 0)]])

    def test_pair_constructor_refuses_exponent_that_is_not_an_int(self):
        # bytes() takes True as exponent 1 and refuses 1.0 with a TypeError, not a ValueError
        for e in (True, False, 1.0, "1", None):
            with pytest.raises(ValueError, match="row 1 has an exponent that is not an int"):
                MonomialMatrix(1, X, [[(0, 0)], [(0, e), (1, 0)]])

    def test_builders_refuse_an_argument_that_is_not_a_poly(self, monkeypatch):
        def packed(columns):
            raise AssertionError("a row was built before the argument was checked")

        monkeypatch.setattr(matrices, "_pack_columns", packed)
        for build in (
            lambda: build_recursive(2, 2),
            lambda: build_closed_form(2, 2),
            lambda: MonomialMatrix(1, 2, [[(0, 0)], [(0, 1), (1, 0)]]),
        ):
            with pytest.raises(ValueError, match="must be a Poly, got 2"):
                build()

    def test_pair_constructor_refuses_order_outside_the_build_cap(self):
        with pytest.raises(ValueError, match="non-negative"):
            MonomialMatrix(-1, X, [])
        with pytest.raises(SizeLimitError):
            MonomialMatrix(MAX_BUILD_ORDER + 1, X, [])

    def test_every_matrix_object_refuses_order_outside_the_build_cap(self):
        # identity and PolyMatrix share the builders' cap, checked before any row exists;
        # identity is never asked for an order whose rows would be large if the check went
        def rows():
            raise AssertionError("rows were read before the order was checked")
            yield

        limit = "^order {} exceeds the construction limit 12: the matrix would hold 3\\^{} entries$"
        for make, orders in ((identity, [13]), (lambda n: PolyMatrix(n, rows()), [13, 10**6]),
                             (lambda n: build_recursive(n, X), [13, 10**6])):
            with pytest.raises(ValueError, match="^order must be non-negative, got -1$"):
                make(-1)
            for n in orders:
                count = "13 = 1594323" if n == 13 else n
                with pytest.raises(SizeLimitError, match=limit.format(n, count)):
                    make(n)

    def test_identity_at_the_build_cap(self):
        canonical = PolyMatrix(MAX_BUILD_ORDER, [{j: ONE} for j in range(1 << MAX_BUILD_ORDER)])
        assert identity(MAX_BUILD_ORDER) == canonical

    @pytest.mark.parametrize("field", ["cols", "exps"])
    def test_one_corrupted_byte_fails_equality_and_group_law(self, monkeypatch, field):
        wrong = corrupted(build_recursive(6, X), field)
        assert not matrices_equal(wrong, build_closed_form(6, X))
        assert not matrices_equal(wrong, build_recursive(6, X).to_poly_matrix())

        def build(n, arg):
            m = build_recursive(n, arg)
            return corrupted(m, field) if arg == X else m

        monkeypatch.setattr(identities, "build_recursive", build)
        assert not identities.verify_group_law(6)

    def test_top_order_builds_stay_small(self):
        # the pair-tuple rows these replaced took ~98 MB for the same two builds
        tracemalloc.start()
        try:
            a = build_recursive(12, X)
            b = build_closed_form(12, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrices_equal(a, b)
        assert peak < 12 * 2**20

    def test_builders_agree_in_the_other_byte_order(self, monkeypatch):
        # a host of the other byte order stores every uint16 column byte-swapped
        here = build_recursive(10, X)
        monkeypatch.setattr(matrices, "_HIGH_LANE", 1 - matrices._HIGH_LANE)
        for build in (build_recursive, build_closed_form):
            other = build(10, X)
            assert other.exps == here.exps
            for cols, want in zip(other.cols, here.cols):
                swapped = array.array("H", cols)
                swapped.byteswap()
                assert swapped.tobytes() == want

    def test_entries_fit_their_fields(self):
        # columns are uint16 and exponents one byte each
        assert MAX_BUILD_ORDER <= 16
        m = build_recursive(MAX_BUILD_ORDER, X)
        assert max(b"".join(m.exps)) == MAX_BUILD_ORDER <= 255
        assert max(memoryview(m.cols[-1]).cast("H")) == m.size - 1 < 1 << 16


class TestPolyMatrix:
    def test_rejects_support_above_diagonal(self):
        with pytest.raises(ValueError, match="above the diagonal"):
            PolyMatrix(1, [{0: ONE, 1: X}, {0: X, 1: ONE}])

    def test_rejects_column_below_zero_or_not_an_int(self):
        for row in ({-1: X, 1: ONE}, {0.5: X}, {0: ONE, "1": X}):
            with pytest.raises(ValueError, match="below 0 or not an int"):
                PolyMatrix(1, [{0: ONE}, row])

    def test_rejects_entry_that_is_not_a_poly(self):
        with pytest.raises(ValueError, match="row 0 has an entry that is not a Poly"):
            PolyMatrix(1, [{0: 1}, {0: 2, 1: 3}])

    def test_never_equals_a_non_matrix(self):
        assert (identity(2) == 5) is False
        assert identity(2) != 5

    def test_drops_zero_entries(self):
        m = PolyMatrix(1, [{0: ONE}, {0: ZERO, 1: ONE}])
        assert m.nonzero_count() == 2

    def test_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="rows"):
            PolyMatrix(2, [{0: ONE}])

    def test_dump_golden_s3(self):
        assert build_recursive(3, X).dump() == S3_GOLDEN
        assert build_closed_form(3, X).dump() == S3_GOLDEN

    def test_dump_matches_expanded_grid(self):
        for arg in (X, ONE, ZERO, X + Y, -X):
            m = build_recursive(3, arg)
            assert m.dump() == m.to_poly_matrix().dump()

    def test_dump_one_by_one(self):
        assert build_recursive(0, X).dump() == "1"
