"""Digit-level primitives: digit sums, carries, and carry-free decompositions.

Everything here works on plain non-negative integers.  `sum_of_digits`
walks the base-b digits the slow definitional way.  `carry_free` is the
one-column test `not a & b`; `carry_count`, and `carry_rows` for a whole row
of k at once, compare k mod q > n mod q once per power q of the base.  Their
column walks live in the test suite, as the oracles they are pinned against.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import SizeLimitError

__all__ = [
    "PRIME_LIMIT",
    "base_digits",
    "sum_of_digits",
    "carry_free",
    "carry_count",
    "carry_rows",
    "carry_free_summands",
    "is_prime",
]

PRIME_LIMIT = 1 << 32  # trial division up to 2^16: ~4 ms at worst


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_prime(name: str, value: int) -> None:
    if not is_prime(value):
        raise ValueError(f"{name} must be prime, got {value}")


# for the tests' per-cell carry_count and p_adic_valuation oracles; uncached, 0.5-0.9 s slower
@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Trial-division primality test; n >= PRIME_LIMIT is refused before dividing."""
    if n >= PRIME_LIMIT:
        raise SizeLimitError(f"{n} exceeds the primality-test limit {PRIME_LIMIT}")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def base_digits(value: int, base: int = 2) -> tuple[int, ...]:
    """Positional digits of a non-negative integer, least-significant first.

    Zero is canonically the empty tuple, so no expansion ever ends in a
    zero digit.
    """
    _check_nonnegative("value", value)
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    return tuple(digits)


def sum_of_digits(value: int, base: int = 2) -> int:
    """Sum of the base-`base` digits of `value` (population count for base 2)."""
    return sum(base_digits(value, base))


def carry_free(a: int, b: int) -> bool:
    """True iff the binary long addition of a and b produces no carry.

    A first carry can only start in a column where both a and b hold a 1,
    so `a & b` tests every column at once.
    """
    _check_nonnegative("a", a)
    _check_nonnegative("b", b)
    return not a & b


def carry_count(n: int, k: int, base: int = 2) -> int:
    """Number of carries in the base-`base` long addition of k and n-k.

    The low i digits (q = base^i) add to (k mod q) + ((n-k) mod q), which is
    n mod q + q, and so carries out, exactly when k mod q > n mod q.
    """
    if not 0 <= k <= n:
        _check_nonnegative("n", n)
        _check_nonnegative("k", k)
        raise ValueError(f"k must not exceed n, got k={k}, n={n}")
    _check_prime("base", base)
    count = 0
    q = base
    while q <= n:
        count += k % q > n % q
        q *= base
    return count


def carry_rows(n_max: int, base: int = 2):
    """Yield rows n < n_max as bytes, byte k = carry_count(n, k, base); checked at the call.

    `carry_count`'s rule for every k at once: for each power q <= n of the
    base, with r = n mod q, the k past the first r + 1 of each block of q
    carry, so the row adds bytes(r + 1) + b"\x01" * (q - 1 - r), repeated and
    cut to n + 1 bytes.  A lane gains one per power at most, so it stays below 256.
    """
    _check_positive("n_max", n_max)
    _check_prime("base", base)

    def rows():
        for n in range(n_max):
            count, q = 0, base
            while q <= n:
                r = n % q
                block = bytes(r + 1) + b"\x01" * (q - 1 - r)
                count += int.from_bytes((block * (n // q + 1))[: n + 1], "little")
                q *= base
            yield count.to_bytes(n + 1, "little")

    return rows()


def carry_free_summands(m: int):
    """Yield every k in [0, m] with (k, m-k) carry-free, in increasing order.

    They are the bitwise submasks of m, in ascending order by the (k - m) & m step; a
    negative m raises at the first next().  Tested against a scan of [0, m] by `carry_free`.
    """
    _check_nonnegative("m", m)
    k = 0
    while True:
        yield k
        if k == m:
            return
        k = (k - m) & m
