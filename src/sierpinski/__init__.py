"""Exact Sierpinski matrix family, digit-sum identities, and triangle patterns.

The package is organized in dependency order:

* ``digits``     — digit sums, carries, carry-free decompositions;
* ``algebra``    — exact sparse polynomials in X and Y, binomials, valuations;
* ``matrices``   — the one-parameter matrix family S_n(x), two constructions;
* ``identities`` — executable verification of the digit-sum identities;
* ``cli``        — the ``sierpinski`` command.
"""

from .algebra import ONE, X, Y, ZERO, Poly, binomial, p_adic_valuation
from .digits import (
    PRIME_LIMIT,
    DigitVector,
    carry_count,
    carry_count_grid,
    carry_free,
    carry_free_summands,
    is_prime,
    sum_of_digits,
)
from .errors import SizeLimitError
from .identities import (
    EXPONENT_CAP,
    Report,
    TermList,
    TriangleMod,
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
from .matrices import (
    MAX_BUILD_ORDER,
    MAX_MUL_ORDER,
    MonomialMatrix,
    PolyMatrix,
    build_closed_form,
    build_recursive,
    identity,
    matmul,
    matrices_equal,
)

__version__ = "0.1.0"

__all__ = [
    "Poly", "X", "Y", "ONE", "ZERO", "binomial", "p_adic_valuation",
    "DigitVector", "sum_of_digits", "carry_free",
    "carry_count", "carry_count_grid", "carry_free_summands", "is_prime", "PRIME_LIMIT",
    "SizeLimitError",
    "MonomialMatrix", "PolyMatrix", "build_recursive", "build_closed_form",
    "identity", "matmul", "matrices_equal",
    "MAX_BUILD_ORDER", "MAX_MUL_ORDER",
    "TermList", "TriangleMod", "Report", "EXPONENT_CAP",
    "digital_expansion", "exponent_pair_counts",
    "verify_digital_binomial", "verify_range", "verify_additivity_form",
    "verify_classical_reduction", "verify_group_law", "verify_kummer", "pascal_mod",
    "verify_triangle_matrix_correspondence",
    "__version__",
]
