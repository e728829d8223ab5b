"""Identity verifiers against brute-force enumeration and exact binomials."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpinski import SizeLimitError, identities
from sierpinski.algebra import X, Y, binomial, p_adic_valuation
from sierpinski.digits import base_digits, carry_free, carry_rows, sum_of_digits
from sierpinski.identities import (
    Report,
    digital_expansion,
    exponent_pair_counts,
    pascal_mod,
    verify_additivity_form,
    verify_classical_reduction,
    verify_digital_binomial,
    verify_group_law,
    verify_kummer,
    verify_range,
    verify_triangle_matrix_correspondence,
)
from sierpinski.matrices import (
    MAX_BUILD_ORDER,
    MonomialMatrix,
    build_closed_form,
    build_recursive,
    matmul,
)


def brute_force_expansion(m):
    # oracle: scan [0, m], long-addition carry test, digit sums from scratch
    return [
        (k, sum_of_digits(k), sum_of_digits(m - k))
        for k in range(m + 1)
        if carry_free(k, m - k)
    ]


def triangle(rows, p):
    """pascal_mod's stream as one tuple of ints a row."""
    return [tuple(row) for row in pascal_mod(rows, p)]


def pair_counts(terms):
    counts = {}
    for _, a, b in terms:
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


class TestDigitalExpansion:
    def test_m_three(self):
        t = digital_expansion(3)
        assert [(k, a, b) for k, a, b in t.terms] == [(0, 0, 2), (1, 1, 1), (2, 1, 1), (3, 2, 0)]

    def test_m_zero(self):
        assert tuple(digital_expansion(0).terms) == ((0, 0, 0),)

    def test_m_five(self):
        # brute-force derived; the final term is x^s(0) y^s(5), nothing else
        t = digital_expansion(5)
        assert [k for k, _, _ in t.terms] == [0, 1, 4, 5]
        assert [(a, b) for _, a, b in t.terms] == [(0, 2), (1, 1), (1, 1), (2, 0)]
        assert tuple(t.terms) == tuple(brute_force_expansion(5))

    def test_against_brute_force(self):
        for m in range(300):
            assert tuple(digital_expansion(m).terms) == tuple(brute_force_expansion(m))

    def test_exponent_cap_refuses_before_enumerating(self, monkeypatch):
        from sierpinski import identities

        def enumerate_nothing(m):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(identities, "carry_free_summands", enumerate_nothing)
        with pytest.raises(SizeLimitError, match="cap"):
            digital_expansion((1 << 25) - 1)

    def test_structural_invariants(self):
        for m in range(1 << 10):
            terms = tuple(digital_expansion(m).terms)
            sigma = sum_of_digits(m)
            assert len(terms) == 1 << sigma
            assert all(a + b == sigma for _, a, b in terms)
            ks = [k for k, _, _ in terms]
            assert sorted(m - k for k in ks) == ks  # complement is an involution


class TestExponentPairCounts:
    def test_matches_termlist_aggregation(self):
        rng = random.Random(31337)
        for _ in range(50):
            m = rng.randrange(1 << 16)
            counts = {}
            for _, a, b in digital_expansion(m).terms:
                counts[(a, b)] = counts.get((a, b), 0) + 1
            assert exponent_pair_counts(m) == counts

    def test_large_m_spot(self):
        # 2^39 + 2^17 + 1 has three bits; eight summands
        m = (1 << 39) | (1 << 17) | 1
        assert exponent_pair_counts(m) == {(0, 3): 1, (1, 2): 3, (2, 1): 3, (3, 0): 1}

    def test_zero(self):
        assert exponent_pair_counts(0) == {(0, 0): 1}

    def test_matches_expansion_exhaustive(self):
        for m in range(4096):
            assert exponent_pair_counts(m) == pair_counts(digital_expansion(m).terms)

    def test_matches_expansion_random_40_bit(self):
        rng = random.Random(4040)
        for _ in range(40):
            m = sum(1 << b for b in rng.sample(range(40), rng.randint(0, 18)))
            assert exponent_pair_counts(m) == pair_counts(digital_expansion(m).terms)

    def test_matches_brute_force_scan(self):
        # the oracle scans all of [0, m] through the long-addition carry test
        for m in range(512):
            assert exponent_pair_counts(m) == pair_counts(brute_force_expansion(m))

    def test_all_ones_beyond_64_bits(self):
        for n in (64, 100):
            counts = exponent_pair_counts((1 << n) - 1)
            assert counts == {(k, n - k): math.comb(n, k) for k in range(n + 1)}
            assert counts.cases == 1 << n


class TestVerifyDigitalBinomial:
    def test_m_three_both_sides(self):
        report = verify_digital_binomial(3)
        assert report.passed
        assert report.lhs == report.rhs == "1*X^2 + 2*X^1*Y^1 + 1*Y^2"

    def test_m_zero(self):
        report = verify_digital_binomial(0)
        assert report.passed and report.lhs == "1"

    def test_m_seven_is_cubic(self):
        report = verify_digital_binomial(7)
        assert report.passed
        assert report.lhs == str(X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3)

    def test_exhaustive_small(self):
        for m in range(1 << 10):
            assert verify_digital_binomial(m).passed

    def test_random_large(self):
        rng = random.Random(2718)
        done = 0
        while done < 25:
            m = rng.getrandbits(40)
            if sum_of_digits(m) > 24:
                continue
            assert verify_digital_binomial(m).passed
            done += 1

    def test_cases_cover_zero_through_m(self):
        # the walk covers every k in [0, m], not only the submasks of m
        for m in range(4096):
            assert verify_digital_binomial(m).cases == m + 1

    def test_exponent_cap(self):
        with pytest.raises(SizeLimitError, match="cap"):
            verify_digital_binomial((1 << 25) - 1)
        assert verify_digital_binomial((1 << 24) - 1).passed  # s(m) = EXPONENT_CAP

    def test_bit_cap_refuses_before_the_walk(self, monkeypatch):
        # past MAX_M_BITS the Report could not print m=...; refuse before walking
        from sierpinski import identities

        assert verify_digital_binomial(1 << 14000).passed
        assert verify_digital_binomial(1 << 14283).passed  # 14,284 bits, 4,300 digits: the cap

        def walk_nothing(m):
            raise AssertionError("walk started")

        monkeypatch.setattr(identities, "exponent_pair_counts", walk_nothing)
        with pytest.raises(SizeLimitError, match="cap"):
            verify_digital_binomial(1 << 20000)
        with pytest.raises(SizeLimitError, match="cap"):
            verify_digital_binomial(1 << identities.MAX_M_BITS)
        with pytest.raises(SizeLimitError, match="^m has 14285 bits, past the cap of 14284$"):
            verify_digital_binomial(3 << 14283)  # 4,301 digits

    def test_report_text_fields(self):
        text = verify_digital_binomial(3).to_text()
        lines = text.splitlines()
        assert lines[0] == "identity: digital-binomial"
        assert lines[1] == "parameter: m=3"
        assert lines[2] == "status: pass"
        assert lines[3].startswith("lhs: ")
        assert lines[4].startswith("rhs: ")

    def test_failing_report_shape(self):
        report = Report(
            identity="digital-binomial",
            parameter="m=0",
            passed=False,
            lhs="1",
            rhs="0",
            first_mismatch="coefficient of X^0*Y^0 differs by 1",
        )
        assert not report
        assert report.status == "fail"
        assert "first_mismatch:" in report.to_text()
        assert repr(Report("stub", "m=1", True, cases=2)) == (
            "Report(identity='stub', parameter='m=1', passed=True, lhs='', rhs='', "
            "first_mismatch='', cases=2)"
        )

    def test_corrupted_pair_count_fails(self, monkeypatch):
        # one summand too many at (s(k), s(m-k)) = (1, 1) of m = 3: 3*X*Y against 2*X*Y
        real = identities.exponent_pair_counts

        def one_too_many(m):
            counts = real(m)
            if m == 3:
                counts[(1, 1)] += 1
            return counts

        monkeypatch.setattr(identities, "exponent_pair_counts", one_too_many)
        report = verify_digital_binomial(3)
        assert report.passed is False
        assert report.first_mismatch == "coefficient of X^1*Y^1 differs by -1"
        assert report.lhs == "1*X^2 + 2*X^1*Y^1 + 1*Y^2"
        assert report.rhs == "1*X^2 + 3*X^1*Y^1 + 1*Y^2"

    @pytest.mark.parametrize(
        "extra, mismatch",
        [
            ({(2, 0): 2, (1, 1): 1}, "coefficient of X^1*Y^1 differs by -1"),
            ({(2, 0): 2, (0, 0): 5}, "coefficient of X^0*Y^0 differs by -5"),
        ],
        ids=["same-degree", "lower-degree"],
    )
    def test_first_mismatch_is_the_lowest_differing_term(self, monkeypatch, extra, mismatch):
        # lowest in the graded order of Poly's text: total degree, then the power of X
        real = identities.exponent_pair_counts

        def corrupted(m):
            counts = real(m)
            for pair, c in extra.items():
                counts[pair] = counts.get(pair, 0) + c
            return counts

        monkeypatch.setattr(identities, "exponent_pair_counts", corrupted)
        assert verify_digital_binomial(3).first_mismatch == mismatch


class TestVerifyRange:
    def test_pass_sums_cases(self):
        report = verify_range(verify_digital_binomial, 10)
        assert report.to_text() == "identity: digital-binomial\nparameter: m<10\nstatus: pass"
        assert report.cases == sum(m + 1 for m in range(10))
        assert verify_range(verify_additivity_form, 64).cases == 64 * 65 // 2

    def test_returns_first_failure(self):
        seen = []

        def verify(m):
            seen.append(m)
            return Report("stub", f"m={m}", m < 4, cases=1)

        report = verify_range(verify, 10)
        assert not report
        assert report.parameter == "m=4"
        assert seen == [0, 1, 2, 3, 4]

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            verify_range(verify_additivity_form, 0)

    def test_cap_refuses_before_any_m(self):
        def never(m):
            raise AssertionError("an m ran before the range cap")

        verify_range(lambda m: Report("stub", f"m={m}", True), identities.MAX_RANGE)
        with pytest.raises(SizeLimitError, match="cap"):
            verify_range(never, identities.MAX_RANGE + 1)


class TestVerifyAdditivityForm:
    def test_m_five(self):
        assert verify_additivity_form(5)

    def test_cases_count_every_pair(self):
        for m in (0, 1, 5, 100):
            report = verify_additivity_form(m)
            assert report.passed and report.cases == m + 1
        assert verify_additivity_form(5).to_text() == (
            "identity: digit-sum-additivity\nparameter: m=5\nstatus: pass"
        )

    def test_failure_stops_at_first_pair(self, monkeypatch):
        # a carry test wrong at k = 2 only: pairs k = 0, 1, 2 were checked
        monkeypatch.setattr(identities, "carry_free", lambda a, b: carry_free(a, b) != (a == 2))
        report = verify_additivity_form(5)
        assert not report
        assert report.cases == 3

    def test_m_zero(self):
        assert verify_additivity_form(0)

    def test_powers_of_two(self):
        for j in range(12):
            assert verify_additivity_form(1 << j)

    def test_exhaustive_small(self):
        for m in range(1 << 10):
            assert verify_additivity_form(m)

    def test_is_oracle_for_summand_enumerator(self):
        from sierpinski.digits import carry_free_summands

        for m in range(256):
            by_scan = [k for k in range(m + 1) if carry_free(k, m - k)]
            by_sums = [
                k
                for k in range(m + 1)
                if sum_of_digits(k) + sum_of_digits(m - k) == sum_of_digits(m)
            ]
            assert by_scan == by_sums == list(carry_free_summands(m))


class TestClassicalReduction:
    def test_n_one(self):
        counts = exponent_pair_counts(1)
        assert counts == {(0, 1): 1, (1, 0): 1}
        assert verify_classical_reduction(1)

    def test_n_two_coefficients(self):
        counts = exponent_pair_counts(3)
        assert [counts[(k, 2 - k)] for k in range(3)] == [1, 2, 1]

    def test_n_five_pascal_row(self):
        counts = exponent_pair_counts(31)
        assert [counts[(k, 5 - k)] for k in range(6)] == [1, 5, 10, 10, 5, 1]

    def test_holds_through_twelve(self):
        for n in range(1, 13):
            assert verify_classical_reduction(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify_classical_reduction(0)

    @pytest.mark.parametrize("pair", [(1, 2), (0, 4)], ids=["wrong-count", "stray-pair"])
    def test_corrupted_pair_count_fails(self, monkeypatch, pair):
        # m = 2^3 - 1 gives 1, 3, 3, 1: one summand too many at X^1*Y^2, or a pair off the row
        real = identities.exponent_pair_counts

        def one_too_many(m):
            counts = real(m)
            counts[pair] = counts.get(pair, 0) + 1
            return counts

        monkeypatch.setattr(identities, "exponent_pair_counts", one_too_many)
        assert verify_classical_reduction(3) is False

    def test_exponent_cap(self):
        assert verify_classical_reduction(24)
        for n in (25, 10**12):  # refused before 2^n - 1 is formed
            with pytest.raises(SizeLimitError, match="exponent cap"):
                verify_classical_reduction(n)


class TestVerifyKummer:
    def test_worked_example(self):
        from sierpinski.algebra import p_adic_valuation
        from sierpinski.digits import carry_count

        assert binomial(4, 2) == 6
        assert p_adic_valuation(6, 2) == 1 == carry_count(4, 2, 2)

    def test_central_even_entry(self):
        # row "1 0 1" of the mod-2 triangle: C(2,1) = 2 is even
        assert binomial(2, 1) == 2
        assert triangle(3, 2)[2] == (1, 0, 1)

    def test_passes_small(self):
        for p in (2, 3, 5, 7):
            report = verify_kummer(64, p)
            assert report.passed, report.to_text()
            assert report.cases == 64 * 65 // 2  # every cell of rows 0-63
        assert verify_kummer(8, 3).cases == 36

    def test_wrong_valuation_is_the_first_mismatch(self, monkeypatch):
        # C(4, 2) = 6 read as 0 mod 2^2, in the rows verify_kummer reads: cell (4, 2) fails
        real = identities._pascal_rows

        def rows(n_max, modulus):
            for n, row in enumerate(real(n_max, modulus)):
                yield row[:2] + b"\x00" + row[3:] if (n, modulus) == (4, 4) else row

        monkeypatch.setattr(identities, "_pascal_rows", rows)
        report = verify_kummer(8, 2)
        assert not report.passed
        assert (report.lhs, report.rhs) == ("valuation 2", "carries 1")
        assert report.first_mismatch == "n=4 k=2 binomial=6"
        assert report.cases == 4 * 5 // 2 + 3  # rows 0-3, then cells (4, 0) to (4, 2)

    def test_wrong_carry_is_the_first_mismatch(self, monkeypatch):
        # lane 2 of row 4 one too high: the same cell fails, from the carry side
        def rows(n_max, p):
            for n, row in enumerate(carry_rows(n_max, p)):
                yield row[:2] + bytes([row[2] + 1]) + row[3:] if n == 4 else row

        monkeypatch.setattr(identities, "carry_rows", rows)
        report = verify_kummer(8, 2)
        assert not report.passed
        assert (report.lhs, report.rhs) == ("valuation 1", "carries 2")
        assert report.first_mismatch == "n=4 k=2 binomial=6"
        assert report.cases == 13

    @pytest.mark.parametrize("p", [2, 3])
    def test_passes_at_the_depth_edges(self, p):
        # n_max = p^d ends on rows of d base-p digits; p^d + 1 adds row p^d, of d + 1 digits
        for d in range(7):
            for n_max in (p**d, p**d + 1):
                report = verify_kummer(n_max, p)
                assert report.passed, report.to_text()
                assert report.cases == n_max * (n_max + 1) // 2

    @pytest.mark.parametrize(
        "n_max, p", [(8, 2), (9, 3), (10, 3), (50, 7), (5, 65521), (4, 4294967291), (1024, 2)]
    )
    def test_zero_mod_p_to_the_depth_reads_as_depth(self, monkeypatch, n_max, p):
        # the first cell of valuation depth - 1, zeroed mod p^depth only, counts depth zeros
        depth = max(len(base_digits(n_max - 1, p)), 1)
        n, k = next(
            (n, k)
            for n in range(n_max)
            for k in range(n + 1)
            if p_adic_valuation(binomial(n, k), p) == depth - 1
        )
        real, moduli = identities._pascal_rows, []

        def zeroed(n_rows, modulus):
            moduli.append(modulus)
            for j, row in enumerate(real(n_rows, modulus)):
                cells = list(row)
                if (j, modulus) == (n, p**depth):
                    cells[k] = 0
                yield cells

        monkeypatch.setattr(identities, "_pascal_rows", zeroed)
        report = verify_kummer(n_max, p)
        assert moduli == [p**e for e in range(1, depth + 1)]
        assert not report.passed
        assert (report.lhs, report.rhs) == (f"valuation {depth}", f"carries {depth - 1}")
        assert report.first_mismatch == f"n={n} k={k} binomial={binomial(n, k)}"
        assert report.cases == n * (n + 1) // 2 + k + 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            verify_kummer(16, 6)

    def test_practical_limit(self):
        with pytest.raises(SizeLimitError):
            verify_kummer(2048, 2)


class TestVerifyGroupLaw:
    def test_passes_small_orders(self):
        for order in range(5):
            report = verify_group_law(order)
            assert report.passed, report.to_text()
            # the lower-triangle cells of both products
            assert report.cases == (1 << order) * ((1 << order) + 1)
        assert verify_group_law(2).cases == 20
        assert verify_group_law(2).to_text() == (
            "identity: group-law\nparameter: order=2\nstatus: pass"
        )

    def test_wrong_product_fails(self, monkeypatch):
        # S_n(X) S_n(X) = S_n(2X) is not S_n(X+Y)
        monkeypatch.setattr(identities, "matmul", lambda a, b: matmul(a, a))
        assert not verify_group_law(3)

    def test_multiplication_limit(self):
        # products have no cap of their own: the first order refused is the build cap's
        with pytest.raises(SizeLimitError, match="construction limit 12: .* 3\\^13 = 1594323"):
            verify_group_law(MAX_BUILD_ORDER + 1)

    def test_passes_at_the_product_cap(self):
        # verify group --order 12 is the largest order the CLI accepts
        assert verify_group_law(MAX_BUILD_ORDER)

    def test_one_corrupted_exponent_fails_at_the_product_cap(self, monkeypatch):
        def build(n, arg):
            m = build_recursive(n, arg)
            if arg != X:
                return m
            rows = [list(row) for row in m.rows]
            k, e = rows[777][3]
            rows[777][3] = (k, e + 1)
            return MonomialMatrix(n, arg, rows)

        monkeypatch.setattr(identities, "build_recursive", build)
        assert not verify_group_law(MAX_BUILD_ORDER)

    def test_one_corrupted_exponent_in_s_y_fails(self, monkeypatch):
        # S_n(Y) enters only the group-law product, so this fails only while that
        # product is compared with a side built without it
        def build(n, arg):
            m = build_recursive(n, arg)
            if arg != Y:
                return m
            rows = [list(row) for row in m.rows]
            k, e = rows[21][2]
            rows[21][2] = (k, e + 1)
            return MonomialMatrix(n, arg, rows)

        monkeypatch.setattr(identities, "build_recursive", build)
        assert not verify_group_law(5)


class TestPascalMod:
    def test_row_four(self):
        assert triangle(8, 2)[4] == (1, 0, 0, 0, 1)

    def test_row_zero(self):
        assert triangle(1, 2) == [(1,)]

    def test_row_seven_all_ones(self):
        assert triangle(8, 2)[7] == (1, 1, 1, 1, 1, 1, 1, 1)

    def test_structural_invariants(self):
        for p in (2, 3, 5):
            tri = triangle(40, p)
            assert len(tri) == 40
            for n in range(40):
                row = tri[n]
                assert len(row) == n + 1
                assert row[0] == row[-1] == 1
                assert all(0 <= c < p for c in row)

    def test_against_big_integer_binomials(self):
        # second route: reduce exact binomials, compare to the recurrence
        for p in (2, 3, 5, 7):
            tri = triangle(64, p)
            for n in range(64):
                assert tri[n] == tuple(binomial(n, k) % p for k in range(n + 1))

    def test_against_math_comb_mod_2_sampled(self):
        # whole rows against Lucas (C(n, k) is odd iff k is a submask of n),
        # sampled cells against math.comb, whose ~4000-bit binomials are slow
        tri = triangle(4096, 2)
        rng = random.Random(5)
        for n in [0, 1, 255, 256, 4094, 4095] + rng.sample(range(4096), 40):
            row = tri[n]
            assert row == tuple(int(k & ~n == 0) for k in range(n + 1))
            for k in rng.choices(range(n + 1), k=32):
                assert row[k] == math.comb(n, k) % 2

    def test_against_math_comb_across_cell_widths(self):
        # p = 127 fills a one-byte cell; 131 and 257 take two bytes, 65537
        # and 2^31 - 1 four, 4294967291 eight
        for p in (3, 5, 7, 127, 131, 257, 65537, 2**31 - 1, 4294967291):
            tri = triangle(200, p)
            for n in range(200):
                assert tri[n] == tuple(math.comb(n, k) % p for k in range(n + 1)), (p, n)

    def test_shared_recurrence_mod_prime_powers(self):
        # the moduli p^e verify_kummer reads, across one-, two- and four-byte cells
        for q in (4, 8, 9, 125, 2**10, 3**7, 31**3, 1021**2):
            for n, row in enumerate(identities._pascal_rows(120, q)):
                assert tuple(row) == tuple(math.comb(n, k) % q for k in range(n + 1)), (q, n)

    def test_rejects_composite_modulus(self):
        # refused when called, before a row is asked for
        with pytest.raises(ValueError):
            pascal_mod(8, 9)

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="^rows must be positive, got 0$"):
            pascal_mod(0, 2)

    def test_row_limit(self):
        with pytest.raises(SizeLimitError):
            pascal_mod((1 << 14) + 1, 2)
        assert bytes(next(pascal_mod(identities.MAX_PASCAL_ROWS, 2))) == b"\x01"  # the limit itself
        with pytest.raises(SizeLimitError, match="^rows = 16385 exceeds the limit 16384$"):
            pascal_mod(identities.MAX_PASCAL_ROWS + 1, 2)


class TestTriangleMatrixCorrespondence:
    def test_order_three(self):
        assert verify_triangle_matrix_correspondence(3)

    def test_order_zero(self):
        assert verify_triangle_matrix_correspondence(0)

    def test_order_six(self):
        assert verify_triangle_matrix_correspondence(6)

    def test_cases_count_cells(self):
        for n in (0, 3, 6):
            size = 1 << n
            assert verify_triangle_matrix_correspondence(n).cases == size * (size + 1) // 2

    def test_failure_stops_at_first_cell(self, monkeypatch):
        # with S_n(X) in place of S_n(1), cell (1, 0) holds X, the second cell compared
        monkeypatch.setattr(identities, "build_closed_form", lambda n, _: build_closed_form(n, X))
        report = verify_triangle_matrix_correspondence(3)
        assert not report
        assert report.cases == 2

    def test_failure_counts_cells_up_to_a_missing_entry(self, monkeypatch):
        # row 5 without column 1: cells (0, 0) to (4, 4) pass, then (5, 0), then (5, 1) fails
        def build(n, arg):
            rows = [list(row) for row in build_closed_form(n, arg).rows]
            del rows[5][1]
            return MonomialMatrix(n, arg, rows)

        monkeypatch.setattr(identities, "build_closed_form", build)
        report = verify_triangle_matrix_correspondence(3)
        assert not report
        assert report.cases == 5 * 6 // 2 + 2


class TestNumericCrossCheck:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**20 - 1),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    def test_evaluations_agree(self, m, x0, y0):
        sigma = sum_of_digits(m)
        lhs = ((X + Y) ** sigma).eval(x0, y0)
        rhs = digital_expansion(m).collect().eval(x0, y0)
        assert lhs == rhs == (x0 + y0) ** sigma
