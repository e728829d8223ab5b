"""Exact polynomial ring and integer helpers.

The bulk ring-axiom runs use a seeded generator so the 10^4-triple sweeps
are reproducible; hypothesis covers the shrink-friendly smaller cases.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sierpinski.algebra import ONE, X, Y, ZERO, Poly, binomial, p_adic_valuation


def random_poly(rng):
    # up to 6 terms, exponents <= 8, coefficients in [-9, 9]
    terms = {}
    for _ in range(rng.randint(0, 6)):
        terms[(rng.randint(0, 8), rng.randint(0, 8))] = rng.randint(-9, 9)
    return Poly(terms)


def pascal_rows(n_max):
    # additive recurrence oracle, independent of the multiplicative formula
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def trial_division_valuation(v, p):
    e = 0
    v = abs(v)
    while v % p == 0:
        v //= p
        e += 1
    return e


class TestPolyBasics:
    def test_disjoint_sum(self):
        assert (X + Y).terms == {(1, 0): 1, (0, 1): 1}

    def test_additive_identity(self):
        p = 3 * X * Y - Y**2
        assert p + ZERO == p
        assert p + 0 == p

    def test_cancellation_drops_storage(self):
        result = (X + Y) + (X - Y)
        assert result == 2 * X
        assert (0, 1) not in result.terms  # cancelled term really gone

    def test_square_of_x_plus_y(self):
        assert (X + Y) * (X + Y) == X**2 + 2 * X * Y + Y**2

    def test_multiplicative_identity(self):
        p = 5 * X**3 - 2 * Y + 7
        assert p * ONE == p
        assert p * 1 == p

    def test_monomial_product(self):
        assert (X * Y).terms == {(1, 1): 1}

    def test_pow_repeated_multiplication_oracle(self):
        p = X + Y
        by_mul = ONE
        for e in range(8):
            assert p**e == by_mul
            by_mul = by_mul * p

    def test_cube(self):
        assert (X + Y) ** 3 == X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3

    def test_zeroth_power_is_one_even_for_zero(self):
        for p in (ZERO, ONE, X, X + Y, -Y):
            assert p**0 == ONE

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            X ** (-1)

    def test_rejects_bool_and_float_exponents(self):
        for exponent in (True, False, 2.0):
            with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
                X**exponent

    def test_eval(self):
        assert (X**2 + 2 * X * Y + Y**2).eval(1, 1) == 4
        assert ZERO.eval(12345, -999) == 0
        assert ((X + Y) ** 5).eval(3, 2) == 3125
        assert 3125 == (3 + 2) ** 5  # big-integer power oracle

    def test_hash_consistent_with_eq(self):
        assert hash(X + Y - Y) == hash(X)
        assert hash(Poly.constant(0)) == hash(ZERO)

    def test_constant_hashes_like_its_int(self):
        # Poly.constant(c) == c, so the two must collapse in a set
        assert len({5, Poly.constant(5)}) == 1
        assert len({0, ZERO}) == 1
        assert hash(Poly.constant(-7)) == hash(-7)

    def test_rejects_float_coefficient(self):
        with pytest.raises(ValueError):
            Poly({(1, 0): 2.5})

    def test_rejects_bool_coefficient(self):
        with pytest.raises(ValueError):
            Poly({(1, 0): True})

    def test_rejects_bad_exponents(self):
        for exponents in ((-1, 0), (0, -2), (0.5, 0), (True, 0), (1, 2, 3)):
            with pytest.raises(ValueError):
                Poly({exponents: 1})

    def test_constant_refuses_what_the_constructor_refuses(self):
        for c in (1.5, True):
            with pytest.raises(ValueError, match="coefficients must be ints"):
                Poly.constant(c)

    @pytest.mark.parametrize(
        "op, apply",
        [
            ("+", lambda: X + True),
            ("-", lambda: True - X),
            ("*", lambda: X * 1.5),
            ("-", lambda: 2.0 - X),
            ("-", lambda: X - "a"),
        ],
        ids=["X+True", "True-X", "X*1.5", "2.0-X", "X-str"],
    )
    def test_operators_refuse_bool_and_float_operands(self, op, apply):
        with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for \\{op}:"):
            apply()

    def test_equality_with_ints_but_not_bools(self):
        assert ONE == 1 and hash(ONE) == hash(1)
        assert not ONE == True  # noqa: E712 -- the comparison is the point
        assert ONE != True  # noqa: E712

    @given(st.data(), st.integers(-(2**70), 2**70))
    def test_operator_results_hold_only_ints(self, data, n):
        polys = st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-(2**70), 2**70),
            max_size=4,
        ).map(Poly)
        p, q = data.draw(polys), data.draw(polys)
        results = [p + q, p - q, p * q, p + n, n + p, p - n, n - p, p * n, n * p, -p, p**3]
        for result in results:
            assert all(type(c) is int for c in result.terms.values())


class TestSerialization:
    def test_canonical_string(self):
        assert str((X + Y) ** 2) == "1*X^2 + 2*X^1*Y^1 + 1*Y^2"

    def test_zero_and_constant(self):
        assert str(ZERO) == "0"
        assert str(Poly.constant(7)) == "7"
        assert str(Poly.constant(-3)) == "-3"

    def test_graded_lex_order_mixed_degrees(self):
        p = 1 + X + Y**3
        assert str(p) == "1*Y^3 + 1*X^1 + 1"

    def test_pretty(self):
        assert ((X + Y) ** 2).pretty() == "x^2 + 2xy + y^2"
        assert ZERO.pretty() == "0"
        assert ONE.pretty() == "1"
        assert (X**3).pretty() == "x^3"
        assert (-X).pretty() == "-x"
        assert (X - Y - 1).pretty() == "x - y - 1"
        assert Poly.constant(-5).pretty() == "-5"


class TestRingAxioms:
    def test_bulk_random_triples(self):
        rng = random.Random(9001)
        for _ in range(10_000):
            p, q, r = random_poly(rng), random_poly(rng), random_poly(rng)
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_bulk_eval_homomorphism(self):
        rng = random.Random(4242)
        for _ in range(10_000):
            p, q = random_poly(rng), random_poly(rng)
            x0, y0 = rng.randint(-50, 50), rng.randint(-50, 50)
            assert (p * q).eval(x0, y0) == p.eval(x0, y0) * q.eval(x0, y0)
            assert (p + q).eval(x0, y0) == p.eval(x0, y0) + q.eval(x0, y0)

    @given(st.integers(), st.integers(-20, 20), st.integers(-20, 20))
    def test_constant_embedding(self, c, x0, y0):
        assert Poly.constant(c).eval(x0, y0) == c


class TestBinomial:
    def test_pascal_row_seven(self):
        row = [binomial(7, k) for k in range(8)]
        assert row == [1, 7, 21, 35, 35, 21, 7, 1]

    def test_left_edge(self):
        for n in (0, 1, 17, 200):
            assert binomial(n, 0) == 1

    def test_k_above_n_is_zero(self):
        assert binomial(5, 9) == 0

    def test_49_choose_6_against_recurrence_oracle(self):
        rows = pascal_rows(49)
        assert binomial(49, 6) == rows[49][6]

    def test_pascal_recurrence_to_200(self):
        rows = pascal_rows(200)
        for n in range(1, 201):
            for k in range(1, n):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
                assert binomial(n, k) == rows[n][k]

    def test_row_sums_are_powers_of_two(self):
        for n in range(201):
            assert sum(binomial(n, k) for k in range(n + 1)) == 2**n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)


class TestPAdicValuation:
    def test_six(self):
        assert trial_division_valuation(6, 2) == 1
        assert p_adic_valuation(6, 2) == 1

    def test_units(self):
        for p in (2, 3, 5, 7, 13):
            assert p_adic_valuation(1, p) == 0
            assert p_adic_valuation(-1, p) == 0

    def test_central_binomial(self):
        assert binomial(8, 4) == 70  # 70 = 2 * 5 * 7
        assert p_adic_valuation(70, 2) == 1

    def test_random_prime_powers(self):
        rng = random.Random(777)
        for p in (2, 3, 5, 7):
            for _ in range(500):
                e = rng.randint(0, 30)
                u = rng.randint(1, 10**6)
                while u % p == 0:
                    u += 1
                assert p_adic_valuation(p**e * u, p) == e

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            p_adic_valuation(0, 2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            p_adic_valuation(12, 4)
