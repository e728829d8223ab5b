"""A table of hand-made faults in src/sierpinski, and the tests that must catch each.

Each row names a file under src/sierpinski, an exact `old` text that occurs
there once, the `new` text that replaces it, and test ids that each fail once
it does.  pytest does not collect this file; tests/test_mutants.py checks
that every `old` still occurs once and every named test still exists.

Run from the repository root, for every row or the named ones:

    python tests/mutants.py [NAME ...]

Each row is applied alone to a copy of src/ in a temporary directory, and
`python -m pytest -q -x` runs its tests with PYTHONPATH set to the copy.  The
row is killed when a test fails and survives when all pass.  The runner
prints each row's verdict and wall time, then the counts, and exits 1 if a
row survived or its tests could not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/sierpinski
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("matmul drops the put-back factor u^i v^j", "matrices.py",
           "u, v = (unit or ONE for unit in self.units)", "u, v = ONE, ONE",
           ("tests/test_matrices.py::TestMatMul::test_group_law_small_orders",
            "tests/test_matrices.py::TestBlockRecursion::test_one_corrupted_exponent_in_b22")),
    Mutant("matmul puts back u^i without its coefficient c^i", "matrices.py",
           "return m.argument if len(terms) == 1 else None",
           "return Poly._raw(dict.fromkeys(terms, 1)) if len(terms) == 1 else None",
           ("tests/test_matrices.py::TestMatMul::test_inverse",
            "tests/test_matrices.py::TestBlockRecursion::test_least_stored_exponent_above_zero")),
    Mutant("matmul takes a multi-term argument's first term as its unit", "matrices.py",
           "return m.argument if len(terms) == 1 else None",
           "return Poly._raw(dict([min(terms.items())])) if terms else None",
           ("tests/test_matrices.py::TestMatMul::test_against_dense_oracle",)),
    Mutant("matmul has no value for a unit side's kept exponent 0", "matrices.py",
           "{0: ONE} if unit and m.order", "m._values() if unit and m.order",
           ("tests/test_matrices.py::TestBlockRecursion::test_least_stored_exponent_above_zero",)),
    Mutant("matmul looks up only u^0 for an order-0 unit side", "matrices.py",
           "if unit and m.order else", "if unit else",
           ("tests/test_matrices.py::TestBlockRecursion::test_least_stored_exponent_above_zero",)),
    Mutant("matmul interns its entries by object, not by value", "matrices.py",
           "self.entries.setdefault(p, len(self.entries))",
           "self.entries.setdefault(id(p), len(self.entries))",
           ("tests/test_matrices.py::TestBlockRecursion::test_equal_entries_are_one_object",)),
    Mutant("matmul's scaled keeps key 0 unscaled", "matrices.py",
           "{k: self.key(self.table[k] * factor) for k in keys}",
           "{k: self.key(self.table[k] * factor) if k else k for k in keys}",
           ("tests/test_matrices.py::TestMatMul::test_group_law_small_orders",)),
    Mutant("matmul merges C_r1 without the lane flip", "matrices.py",
           "(c0 + _flip(c1, t - 1), k0 + k1)", "(c0 + c1, k0 + k1)",
           ("tests/test_matrices.py::TestMatMul::test_group_law_small_orders",
            "tests/test_matrices.py::TestMatMul::test_order_one_product")),
    Mutant("matrices_equal skips the column check", "matrices.py",
           "return a.cols == b.cols and all(", "return all(",
           ("tests/test_matrices.py::TestMatricesEqualAcrossRepresentations"
            "::test_same_entries_at_other_columns_differ",
            "tests/test_matrices.py::TestMatricesEqualAcrossRepresentations"
            "::test_different_orders_differ_across_representations")),
    Mutant("matrices_equal never drops a zero power", "matrices.py",
           "return (m, values) if all(values.values())", "return (m, values) if True",
           ("tests/test_matrices.py::TestMatricesEqualAcrossRepresentations"
            "::test_coinciding_and_vanishing_powers_are_exact",
            "tests/test_matrices.py::TestStructure::test_zero_argument_gives_identity")),
    Mutant("identity has 2^(order+1) rows", "matrices.py",
           "rows = range(1 << order)", "rows = range(2 << order)",
           ("tests/test_matrices.py::TestPackedRows::test_identity_has_one_row_per_index",)),
    Mutant("matmul stores the zero entries of a zero factor", "matrices.py",
           "if not factor:", "if False:",
           ("tests/test_matrices.py::TestBlockRecursion"
            "::test_inverse_product_stores_only_its_diagonal",)),
    Mutant("matmul leaves a summed row's columns unsorted", "matrices.py",
           "columns = [l for l in sorted(s) if s[l]]", "columns = [l for l in s if s[l]]",
           ("tests/test_matrices.py::TestBlockRecursion::test_product_rows_ascend_after_a_sum",)),
    Mutant("build_closed_form's submask table holds one non-submask", "matrices.py",
           "if k & v == k)", "if k & v == k or (v, k) == (9, 2))",
           ("tests/test_matrices.py::TestBuildClosedForm"
            "::test_byte_tables_match_a_brute_force_scan",
            "tests/test_matrices.py::TestPackedRows::test_pair_rows_match_submask_oracle")),
    Mutant("build_closed_form's digit sums are one high for byte 3", "matrices.py",
           "bytes((v - k).bit_count() for k in ks)",
           "bytes((v - k).bit_count() + (v == 3) for k in ks)",
           ("tests/test_matrices.py::TestBuildClosedForm"
            "::test_byte_tables_match_a_brute_force_scan",
            "tests/test_matrices.py::TestBuildClosedForm"
            "::test_packed_rows_are_pinned_at_every_order")),
    Mutant("build_closed_form swaps the low and high column lanes", "matrices.py",
           "lanes[1 - _HIGH_LANE :: 2], lanes[_HIGH_LANE::2] = joined",
           "lanes[_HIGH_LANE::2], lanes[1 - _HIGH_LANE :: 2] = joined",
           ("tests/test_matrices.py::TestPackedRows::test_pair_rows_match_submask_oracle",
            "tests/test_matrices.py::TestBuildClosedForm"
            "::test_packed_rows_are_pinned_at_every_order")),
    Mutant("MonomialMatrix packs bool and float exponents", "matrices.py",
           "{type(e) for _, e in row} - {int}", "{type(e) for _, e in row} - {int, bool, float}",
           ("tests/test_matrices.py::TestPackedRows"
            "::test_pair_constructor_refuses_exponent_that_is_not_an_int",)),
    Mutant("_Matrix.__eq__ accepts only a MonomialMatrix", "matrices.py",
           "if isinstance(other, _Matrix) else", "if isinstance(other, MonomialMatrix) else",
           ("tests/test_matrices.py::TestBlockRecursion"
            "::test_inverse_product_stores_only_its_diagonal",)),
    Mutant("matmul and matrices_equal let a list through as an operand", "matrices.py",
           "if not isinstance(m, _Matrix):", "if not isinstance(m, (_Matrix, list)):",
           ("tests/test_matrices.py::TestMatMul::test_refuses_an_operand_that_is_not_a_matrix",)),
    Mutant("verify_group_law compares the product with itself", "identities.py",
           "build_recursive(order, X + Y))", "matmul(x, build_recursive(order, Y)))",
           ("tests/test_identities.py::TestVerifyGroupLaw"
            "::test_one_corrupted_exponent_in_s_y_fails",)),
    Mutant("verify_digital_binomial refuses m of exactly MAX_M_BITS bits", "identities.py",
           "if m.bit_length() > MAX_M_BITS:", "if m.bit_length() >= MAX_M_BITS:",
           ("tests/test_identities.py::TestVerifyDigitalBinomial"
            "::test_bit_cap_refuses_before_the_walk",)),
    Mutant("MAX_M_BITS is one bit larger", "identities.py",
           "MAX_M_BITS = 14_284", "MAX_M_BITS = 14_284 + 1",
           ("tests/test_identities.py::TestVerifyDigitalBinomial"
            "::test_bit_cap_refuses_before_the_walk",)),
    Mutant("pascal_mod refuses exactly MAX_PASCAL_ROWS rows", "identities.py",
           "if rows > MAX_PASCAL_ROWS:", "if rows >= MAX_PASCAL_ROWS:",
           ("tests/test_identities.py::TestPascalMod::test_row_limit",)),
    Mutant("verify_digital_binomial compares (X+Y)^s(m) with itself", "identities.py",
           "passed = lhs == rhs", "passed = lhs == lhs",
           ("tests/test_identities.py::TestVerifyDigitalBinomial::test_corrupted_pair_count_fails",)),
    Mutant("verify_additivity_form compares carry_free with itself", "identities.py",
           "if carry_free(k, m - k) != (k.bit_count() + (m - k).bit_count() == sigma):",
           "if carry_free(k, m - k) != carry_free(k, m - k):",
           ("tests/test_identities.py::TestVerifyAdditivityForm::test_failure_stops_at_first_pair",)),
    Mutant("verify_classical_reduction compares the counts with themselves", "identities.py",
           "return counts == {(k, n - k): binomial(n, k) for k in range(n + 1)}",
           "return counts == dict(counts)",
           ("tests/test_identities.py::TestClassicalReduction::test_corrupted_pair_count_fails",)),
    Mutant("verify_kummer compares the valuations with themselves", "identities.py",
           "if valuations != carries:", "if valuations != valuations:",
           ("tests/test_identities.py::TestVerifyKummer::test_wrong_valuation_is_the_first_mismatch",
            "tests/test_identities.py::TestVerifyKummer::test_wrong_carry_is_the_first_mismatch")),
    Mutant("verify_triangle_matrix_correspondence compares the pattern with itself",
           "identities.py", "if pattern != residues:", "if pattern != pattern:",
           ("tests/test_identities.py::TestTriangleMatrixCorrespondence"
            "::test_failure_stops_at_first_cell",
            "tests/test_identities.py::TestTriangleMatrixCorrespondence"
            "::test_failure_counts_cells_up_to_a_missing_entry")),
    Mutant("SizeLimitError is no ValueError", "digits.py",
           "class SizeLimitError(ValueError):", "class SizeLimitError(Exception):",
           ("tests/test_cli_corpus.py::test_every_argv_reproduces_its_recorded_bytes",)),
    Mutant("carry_free tests a | b for a & b", "digits.py",
           "return not a & b", "return not a | b",
           ("tests/test_digits.py::TestCarryFree::test_eight_plus_two",
            "tests/test_identities.py::TestVerifyAdditivityForm::test_m_five")),
    Mutant("carry_count counts k mod q >= n mod q as a carry", "digits.py",
           "count += k % q > n % q", "count += k % q >= n % q",
           ("tests/test_digits.py::TestCarryCount::test_two_plus_two",
            "tests/test_identities.py::TestVerifyKummer::test_worked_example")),
    Mutant("matrix --check compares the chosen builder with itself", "cli.py",
           'other = "closed" if args.construction == "kronecker" else "kronecker"',
           "other = args.construction",
           ("tests/test_cli.py::TestMatrix"
            "::test_check_compares_the_chosen_builder_with_the_other",)),
    Mutant("matrix --construction closed runs build_recursive", "cli.py",
           'if construction == "closed":', 'if construction == "kronecker":',
           ("tests/test_cli.py::TestMatrix::test_closed_construction_calls_the_closed_form",)),
    Mutant("a closed stdout exits 142", "cli.py",
           "BROKEN_PIPE = 141", "BROKEN_PIPE = 142",
           ("tests/test_cli.py::TestContract::test_closed_stdout_exits_quietly",)),
    Mutant("verify binomial defaults to --max-m 512", "cli.py",
           "default=1024)", "default=512)",
           ("tests/test_cli_corpus.py::test_every_argv_reproduces_its_recorded_bytes",)),
    Mutant("verify kummer defaults to --max-n 32", "cli.py",
           "default=64)", "default=32)",
           ("tests/test_cli_corpus.py::test_every_argv_reproduces_its_recorded_bytes",)),
    Mutant("the expand subcommand runs cmd_digits", "cli.py",
           "p.set_defaults(run=cmd_expand)", "p.set_defaults(run=cmd_digits)",
           ("tests/test_cli_corpus.py::test_every_argv_reproduces_its_recorded_bytes",)),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error' (pytest neither passed nor failed) for one row."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "sierpinski" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        status = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(status, "error")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such row: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    verdicts = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        verdicts.append(run(mutant))
        print(f"{verdicts[-1]:8}  {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
    counts = {v: verdicts.count(v) for v in ("killed", "survived", "error")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 0 if counts["killed"] == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
