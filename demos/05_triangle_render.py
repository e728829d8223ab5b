"""Rendering triangle patterns: ascii art and PBM images.

Run:  python demos/05_triangle_render.py
Writes sierpinski_64.pbm next to itself.
"""

from pathlib import Path

from sierpinski import pascal_mod
from sierpinski.cli import render_ascii, render_pbm

# the classic: 32 rows of Pascal's triangle mod 2
print("".join(render_ascii(pascal_mod(32, 2), 2)))

# mod 3 and mod 5 variants print digits instead of blanks
print("".join(render_ascii(pascal_mod(18, 3), 3)))

# a portable bitmap anyone can open; pixel (n, k) is C(n,k) mod 2
target = Path(__file__).with_name("sierpinski_64.pbm")
target.write_text("".join(render_pbm(pascal_mod(64, 2), 64)))
print(f"wrote {target.name}: 64x64 P1 bitmap")

# the same picture falls out of the command line:
#   sierpinski triangle --rows 64 --mod 2 --format pbm --output out.pbm
