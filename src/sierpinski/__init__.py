"""Exact Sierpinski matrix family, digit-sum identities, and triangle patterns.

The package is organized in dependency order:

* ``digits``     — digit sums, carries, carry-free decompositions;
* ``algebra``    — exact sparse polynomials in X and Y, binomials, valuations;
* ``matrices``   — the one-parameter matrix family S_n(x), two constructions;
* ``identities`` — executable verification of the digit-sum identities;
* ``cli``        — the ``sierpinski`` command.
"""

from . import algebra, digits, identities, matrices
from .algebra import *
from .digits import *
from .errors import SizeLimitError
from .identities import *
from .matrices import *

__version__ = "0.1.0"

__all__ = [
    *algebra.__all__,
    *digits.__all__,
    "SizeLimitError",
    *matrices.__all__,
    *identities.__all__,
    "__version__",
]
