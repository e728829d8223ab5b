"""Digit primitives against definitional oracles and bitwise shortcuts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sierpinski import SizeLimitError
from sierpinski.digits import (
    PRIME_LIMIT,
    base_digits,
    carry_count,
    carry_free,
    carry_free_summands,
    carry_rows,
    is_prime,
    sum_of_digits,
)


def digit_sum_by_division(value, base):
    # independent oracle: repeated division, no bit tricks
    total = 0
    while value:
        total += value % base
        value //= base
    return total


def carry_free_by_columns(a, b):
    # oracle for carry_free: binary long addition, one column at a time, stops
    # at the first column whose two digits carry
    while a or b:
        if (a & 1) + (b & 1) > 1:
            return False
        a >>= 1
        b >>= 1
    return True


def carry_count_by_columns(n, k, p):
    # oracle for carry_count and carry_rows: base-p long addition of k
    # and n-k, one column at a time, with the carry chained between columns
    a, b = k, n - k
    carry = 0
    count = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        count += carry
        a //= p
        b //= p
    return count


def brute_force_summands(m):
    # oracle for carry_free_summands: scan the whole interval
    return [k for k in range(m + 1) if carry_free(k, m - k)]


class TestSumOfDigits:
    def test_three_has_two_set_bits(self):
        assert sum_of_digits(3, 2) == 2

    def test_zero_for_any_base(self):
        for base in (2, 3, 7, 10, 31):
            assert sum_of_digits(0, base) == 0

    def test_255_by_division_oracle(self):
        assert digit_sum_by_division(255, 2) == 8
        assert sum_of_digits(255, 2) == 8

    def test_base_ten(self):
        assert sum_of_digits(12345, 10) == 15

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            sum_of_digits(5, 1)
        with pytest.raises(ValueError):
            sum_of_digits(5, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sum_of_digits(-1, 2)

    @given(st.integers(0, 2**40), st.integers(2, 16))
    def test_matches_division_oracle(self, value, base):
        assert sum_of_digits(value, base) == digit_sum_by_division(value, base)

    def test_binary_is_popcount_exhaustive(self):
        for v in range(1 << 12):
            assert sum_of_digits(v, 2) == v.bit_count()

    @given(st.integers(0, 2**20), st.integers(0, 24))
    def test_shift_invariance(self, v, a):
        assert sum_of_digits((2**a) * v, 2) == sum_of_digits(v, 2)


class TestCarryFree:
    def test_eight_plus_two(self):
        assert carry_free(8, 2)

    def test_zero_is_always_carry_free(self):
        for m in (0, 1, 7, 100, 2**40 + 17):
            assert carry_free(0, m)
            assert carry_free(m, 0)

    def test_one_plus_one_carries(self):
        assert not carry_free(1, 1)

    def test_matches_column_walk_exhaustive(self):
        for a in range(1 << 10):
            assert [carry_free(a, b) for b in range(1 << 10)] == [
                carry_free_by_columns(a, b) for b in range(1 << 10)
            ]

    @given(st.integers(0, 2**300), st.integers(0, 2**300), st.integers(0, 300))
    def test_matches_column_walk(self, a, b, i):
        # random wide pairs nearly always share a 1; b & ~a never does, and
        # setting bit i of it makes one shared column at most
        for other in (b, b & ~a, (b & ~a) | (1 << i)):
            assert carry_free(a, other) == carry_free_by_columns(a, other)

    def test_rejects_negative(self):
        for a, b in ((-1, 0), (0, -1), (-2, -2)):
            with pytest.raises(ValueError, match="must be non-negative"):
                carry_free(a, b)

    @given(st.integers(0, 2**20))
    def test_additivity_characterization(self, m):
        # carry-free split <=> digit sums add up (whole-interval oracle is
        # too slow here, so sample the split point as well)
        sigma = sum_of_digits(m)
        for k in {0, m, m // 2, m // 3, (m * 2) // 3}:
            assert carry_free(k, m - k) == (sum_of_digits(k) + sum_of_digits(m - k) == sigma)


class TestCarryCount:
    def test_two_plus_two(self):
        assert carry_count(4, 2, 2) == 1

    def test_adding_zero_never_carries(self):
        for n in (0, 5, 100, 511):
            for p in (2, 3, 7):
                assert carry_count(n, 0, p) == 0

    def test_disjoint_bits_no_carry(self):
        assert carry_count(3, 1, 2) == 0

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            carry_count(3, 4, 2)

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            carry_count(4, 2, 4)
        with pytest.raises(ValueError):
            carry_count(4, 2, 1)

    def test_digit_sum_defect_identity_exhaustive(self):
        # s(k) + s(n-k) - s(n) counts the carries, binary case
        for n in range(256):
            for k in range(n + 1):
                defect = sum_of_digits(k) + sum_of_digits(n - k) - sum_of_digits(n)
                assert defect == carry_count(n, k, 2)

    @given(st.integers(0, 2**30), st.data())
    def test_digit_sum_defect_identity_sampled(self, n, data):
        k = data.draw(st.integers(0, n))
        defect = sum_of_digits(k) + sum_of_digits(n - k) - sum_of_digits(n)
        assert defect == carry_count(n, k, 2)

    def test_matches_column_walk_exhaustive(self):
        # at p = 131 only the rows n >= 131 have a second digit to carry into
        for p in (2, 3, 5, 7, 131):
            for n in range(1 << 9):
                assert [carry_count(n, k, p) for k in range(n + 1)] == [
                    carry_count_by_columns(n, k, p) for k in range(n + 1)
                ]

    @given(st.integers(0, 2**200), st.sampled_from((2, 3, 5, 7)), st.data())
    def test_matches_column_walk(self, n, p, data):
        k = data.draw(st.integers(0, n))
        assert carry_count(n, k, p) == carry_count_by_columns(n, k, p)

    def test_base_p_defect_scaling(self):
        # in base p each carry costs p-1 in the digit sum
        for p in (3, 5, 7):
            for n in range(120):
                for k in range(0, n + 1, 3):
                    defect = sum_of_digits(k, p) + sum_of_digits(n - k, p) - sum_of_digits(n, p)
                    assert defect == (p - 1) * carry_count(n, k, p)


class TestCarryRows:
    def test_matches_column_walk_exhaustive(self):
        # at p = 131 only the rows n >= 131 have a second digit to carry into
        for p, n_max in ((2, 256), (3, 128), (5, 128), (7, 128), (131, 140)):
            for n, row in enumerate(carry_rows(n_max, p)):
                assert list(row) == [carry_count_by_columns(n, k, p) for k in range(n + 1)]

    def test_row_n_has_n_plus_one_bytes(self):
        rows = list(carry_rows(100))
        assert len(rows) == 100
        assert all(type(row) is bytes and len(row) == n + 1 for n, row in enumerate(rows))
        assert rows[:4] == [b"\x00", b"\x00\x00", b"\x00\x01\x00", b"\x00\x00\x00\x00"]

    def test_refused_at_the_call(self):
        for n_max, base in ((0, 2), (-1, 3), (4, 4), (4, 1)):
            with pytest.raises(ValueError):
                carry_rows(n_max, base)


class TestCarryFreeSummands:
    def test_five(self):
        assert list(carry_free_summands(5)) == [0, 1, 4, 5]
        assert brute_force_summands(5) == [0, 1, 4, 5]

    def test_zero(self):
        assert list(carry_free_summands(0)) == [0]

    def test_three_lists_all_four(self):
        assert list(carry_free_summands(3)) == [0, 1, 2, 3]

    def test_negative_raises_at_first_next(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(carry_free_summands(-1))

    def test_against_brute_force(self):
        for m in range(512):
            assert list(carry_free_summands(m)) == brute_force_summands(m)

    def test_structure_exhaustive(self):
        for m in range(1 << 12):
            ks = list(carry_free_summands(m))
            assert len(ks) == 1 << sum_of_digits(m)
            assert ks == sorted(ks)
            assert all(k & m == k for k in ks)  # submasks of m


class TestDigitVector:
    """base_digits: the digit vector of a value, least significant digit first."""

    def test_reconstruction(self):
        digits = base_digits(1234, 10)
        assert digits == (4, 3, 2, 1)
        assert sum(d * 10**i for i, d in enumerate(digits)) == 1234

    @given(st.integers(0, 2**48), st.integers(2, 12))
    def test_invariants(self, value, base):
        digits = base_digits(value, base)
        assert sum(d * base**i for i, d in enumerate(digits)) == value
        assert all(0 <= d < base for d in digits)
        if digits:
            assert digits[-1] != 0  # canonical: no trailing zero digit

    def test_zero_is_empty(self):
        assert base_digits(0) == ()

    def test_digit_sum(self):
        assert sum(base_digits(255)) == 8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            base_digits(-3)
        with pytest.raises(ValueError):
            base_digits(3, 1)


class TestIsPrime:
    def test_small_table(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_refuses_past_limit_before_dividing(self):
        # trial division of 2^61 - 1 would take minutes; the bound answers at once
        for n in (2**61 - 1, PRIME_LIMIT):
            with pytest.raises(SizeLimitError, match="limit"):
                is_prime(n)
        assert is_prime(PRIME_LIMIT - 5)  # 4294967291, the largest prime below 2^32
        assert not is_prime(PRIME_LIMIT - 1)
