"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Time budgets are asserted as hard bounds.
"""

import random
import time

import numpy as np

from sierpinski.algebra import ONE, X, Y, binomial, p_adic_valuation
from sierpinski.cli import render_ascii
from sierpinski.digits import (
    carry_count,
    carry_free,
    carry_rows,
    sum_of_digits,
)
from sierpinski.identities import (
    digital_expansion,
    exponent_pair_counts,
    pascal_mod,
    verify_classical_reduction,
    verify_digital_binomial,
    verify_group_law,
    verify_kummer,
    verify_triangle_matrix_correspondence,
)
from sierpinski.matrices import (
    build_closed_form,
    build_recursive,
    identity,
    matmul,
    matrices_equal,
)

RANDOM_SEED = 94089


class Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(number, label, clock, budget=None):
    if budget is None:
        print(f"PASS criterion {number}: {label} ({clock.elapsed:.2f}s)")
    else:
        print(f"PASS criterion {number}: {label} ({clock.elapsed:.2f}s < {budget}s)")
        assert clock.elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_construction_equivalence():
    with Clock() as clock:
        for n in range(11):
            assert matrices_equal(build_recursive(n, X), build_closed_form(n, X))
        assert build_recursive(10, X).nonzero_count() == 3**10
    report(1, "recursive == closed-form construction, n <= 10", clock, budget=5)


def test_criterion_2_group_law():
    with Clock() as clock:
        for n in range(9):
            product = matmul(build_recursive(n, X), build_recursive(n, Y))
            assert matrices_equal(product, build_recursive(n, X + Y))
        inverse = matmul(build_recursive(8, X), build_recursive(8, -X))
        assert inverse == identity(8)
    report(2, "S_n(X) S_n(Y) == S_n(X+Y) for n <= 8, inverse at n=8", clock, budget=10)


def test_criterion_3_digital_binomial():
    with Clock() as clock:
        for m in range(4096):
            assert verify_digital_binomial(m).passed

        rng = random.Random(RANDOM_SEED)
        checked = 0
        while checked < 1000:
            m = rng.getrandbits(40)
            if sum_of_digits(m) > 24:
                continue  # documented expansion cap
            assert verify_digital_binomial(m).passed
            checked += 1

        # worked examples, with the corrected final terms
        three = verify_digital_binomial(3)
        assert three.passed
        assert digital_expansion(3).collect().pretty() == "x^2 + 2xy + y^2"
        assert [(a, b) for _, a, b in digital_expansion(5).terms] == [
            (0, 2), (1, 1), (1, 1), (2, 0),
        ]
        assert [(k, a, b) for k, a, b in digital_expansion(7).terms] == [
            (k, sum_of_digits(k), sum_of_digits(7 - k)) for k in range(8)
        ]
        assert verify_digital_binomial(7).passed
    report(3, "digital binomial: m < 4096 exhaustive + 1000 random 40-bit", clock, budget=30)


def test_criterion_4_classical_reduction():
    with Clock() as clock:
        for n in range(1, 17):
            assert verify_classical_reduction(n)
        row5 = exponent_pair_counts(2**5 - 1)
        assert [row5[(k, 5 - k)] for k in range(6)] == [1, 5, 10, 10, 5, 1]
        row7 = exponent_pair_counts(2**7 - 1)
        assert [row7[(k, 7 - k)] for k in range(8)] == [1, 7, 21, 35, 35, 21, 7, 1]
    report(4, "collapse to binomial theorem at m = 2^n - 1, n <= 16", clock, budget=5)


def test_criterion_5_kummer():
    with Clock() as clock:
        for p in (2, 3, 5, 7):
            result = verify_kummer(512, p)
            assert result.passed, result.to_text()
    report(5, "Kummer valuation == carry count, n < 512, p in {2,3,5,7}", clock, budget=60)


def test_criterion_6_digit_sum_defect():
    with Clock() as clock:
        carries = np.frombuffer(b"".join(carry_rows(4096)), np.uint8)
        ns = np.repeat(np.arange(4096, dtype=np.uint32), np.arange(1, 4097))
        ks = np.concatenate([np.arange(j + 1, dtype=np.uint32) for j in range(4096)])
        defect = np.bitwise_count(ks).astype(np.int16)
        defect += np.bitwise_count(ns - ks)
        defect -= np.bitwise_count(ns)
        assert (defect == carries).all()
        assert len(ns) == 4096 * 4097 // 2
    report(6, "s(k)+s(n-k)-s(n) == carries for 0 <= k <= n < 4096", clock, budget=5)


def test_criterion_7_triangle_correspondence():
    with Clock() as clock:
        assert verify_triangle_matrix_correspondence(8)
        matrix = build_closed_form(8, ONE)
        triangle = tuple(pascal_mod(256, 2))
        for j in range(256):
            stored = dict(matrix.rows[j])
            for k in range(j + 1):
                assert (k in stored) == (triangle[j][k] == 1)
        rendered = "".join(render_ascii(pascal_mod(8, 2), 2))
        assert rendered.splitlines() == [
            "1",
            "11",
            "1 1",
            "1111",
            "1   1",
            "11  11",
            "1 1 1 1",
            "11111111",
        ]
    report(7, "S_8(1) == Pascal mod 2 over 2^16 positions + rendered rows", clock, budget=5)


def test_criterion_8_structural_counts():
    with Clock() as clock:
        for n in range(11):
            matrix = build_recursive(n, X)
            assert matrix.nonzero_count() == 3**n
            for j in range(matrix.size):
                assert len(matrix.rows[j]) == 1 << sum_of_digits(j)
        # independent brute-force carry-free scan at the top order
        matrix = build_recursive(10, X)
        for j in range(1024):
            scan = sum(1 for k in range(j + 1) if carry_free(k, j - k))
            assert len(matrix.rows[j]) == scan
    report(8, "row j holds 2^s(j) entries, 3^n total, n <= 10", clock)


def test_criterion_9_numeric_cross_check():
    with Clock() as clock:
        rng = random.Random(RANDOM_SEED + 9)
        for _ in range(100):
            m = rng.randrange(1 << 20)
            x0 = rng.randint(-1000, 1000)
            y0 = rng.randint(-1000, 1000)
            sigma = sum_of_digits(m)
            lhs = ((X + Y) ** sigma).eval(x0, y0)
            rhs = digital_expansion(m).collect().eval(x0, y0)
            direct = (x0 + y0) ** sigma
            assert lhs == rhs == direct
    report(9, "100 random evaluations match big-integer powers", clock, budget=5)


def test_criterion_10_group_law_at_the_multiplication_cap():
    with Clock() as clock:
        report_obj = verify_group_law(10)
        assert report_obj
        assert report_obj.cases == 1024 * 1025
    report(10, "S_10(X) S_10(Y) == S_10(X+Y) and S_10(X) S_10(-X) == I", clock, budget=3)


def test_worked_example_report_round_trip():
    # the m=3 report carries both canonical sides, byte-stable
    report_obj = verify_digital_binomial(3)
    assert report_obj.to_text() == (
        "identity: digital-binomial\n"
        "parameter: m=3\n"
        "status: pass\n"
        "lhs: 1*X^2 + 2*X^1*Y^1 + 1*Y^2\n"
        "rhs: 1*X^2 + 2*X^1*Y^1 + 1*Y^2"
    )


def test_kummer_spot_values():
    assert p_adic_valuation(binomial(4, 2), 2) == 1 == carry_count(4, 2, 2)
    assert p_adic_valuation(binomial(10, 1), 2) == 1 == carry_count(10, 1, 2)
