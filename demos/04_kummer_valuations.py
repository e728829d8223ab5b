"""Kummer's theorem: prime-power divisibility of binomials counts carries.

Run:  python demos/04_kummer_valuations.py
"""

from sierpinski import binomial, carry_count, p_adic_valuation, pascal_mod, verify_kummer

# the largest power of p dividing C(n, k) equals the number of carries when
# adding k and n-k in base p
n = 12
print(f"row n = {n}, p = 2:")
print(f"{'k':>3} {'C(n,k)':>7} {'v_2':>4} {'carries':>8}")
for k in range(n + 1):
    c = binomial(n, k)
    print(f"{k:>3} {c:>7} {p_adic_valuation(c, 2):>4} {carry_count(n, k, 2):>8}")
print()

# the full scan over many rows and several primes
for p in (2, 3, 5, 7):
    report = verify_kummer(256, p)
    print(f"p = {p}: {report.status} over n < 256")
print()

# mod 2 this explains the Sierpinski pattern: C(n,k) is odd exactly when
# the addition k + (n-k) is carry-free
for row in pascal_mod(16, 2):
    print("".join("1" if c else "." for c in row))
print()

# other primes draw their own fractals
for row in pascal_mod(27, 3):
    print("".join(str(c) if c else "." for c in row))
