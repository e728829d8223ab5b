"""Digit sums, carries, and carry-free splits of an integer.

Run:  python demos/01_digit_sums_and_carries.py
"""

from sierpinski import base_digits, carry_count, carry_free, carry_free_summands, sum_of_digits

# s(k) is the number of 1-bits of k: s(3) = s(0b11) = 2
print("k, binary, s(k):")
for k in (0, 3, 5, 8, 255, 1000):
    print(f"  {k:5d}  {k:>12b}  {sum_of_digits(k)}")
print()

# a pair (a, b) is carry-free when adding them in binary never carries;
# (8, 2) = (0b1000, 0b0010) is, (1, 1) is not
for a, b in [(8, 2), (1, 1), (5, 2), (5, 3)]:
    if carry_free(a, b):
        verdict = "carry-free"
    else:
        verdict = f"{carry_count(a + b, a)} carries"
    print(f"{a:2d} + {b:2d} = {a + b:2d}   {a:06b} + {b:06b}   {verdict}")
print()

# the carry-free splits k + (m-k) = m are exactly the bit-subsets of m,
# so m always has 2^s(m) of them
for m in (0, 3, 5, 12, 21):
    ks = list(carry_free_summands(m))
    print(f"m = {m:2d} ({m:05b}) splits carry-free at k = {ks}  ({len(ks)} = 2^{sum_of_digits(m)})")
print()

# base_digits exposes the raw expansion, least-significant digit first
digits = base_digits(1000, base=7)
print(f"1000 in base 7, low digit first: {list(digits)}, digit sum {sum(digits)}")
