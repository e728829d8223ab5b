"""The one-parameter Sierpinski matrix family S_n(x).

Run:  python demos/02_matrix_family.py
"""

from sierpinski import (
    ONE,
    X,
    Y,
    build_closed_form,
    build_recursive,
    identity,
    matmul,
    matrices_equal,
)


def show(matrix, title):
    print(title)
    grid = matrix.to_poly_matrix()
    for j in range(matrix.size):
        row = grid.row(j)
        print("  " + "  ".join(row[k].pretty() if k in row else "." for k in range(matrix.size)))
    print()


# S_1(x) = [[1, 0], [x, 1]]; each further order is the Kronecker product
# S_{n+1}(x) = S_1(x) (x) S_n(x)
show(build_recursive(1, X), "S_1(x):")
show(build_recursive(2, X), "S_2(x) = S_1 (x) S_1:")
show(build_recursive(3, X), "S_3(x) = S_1 (x) S_2:")

# the same matrix drops out of a closed form with no recursion: entry (j, k)
# is x^s(j-k) wherever k is a carry-free summand of j, zero elsewhere
for n in range(8):
    assert matrices_equal(build_recursive(n, X), build_closed_form(n, X))
print("closed form == Kronecker recursion for n <= 7\n")

# the family is a one-parameter group under matrix multiplication:
# S(x) S(y) = S(x+y), S(0) = I, S(x) S(-x) = I
product = matmul(build_recursive(3, X), build_recursive(3, Y))
assert matrices_equal(product, build_recursive(3, X + Y))
show(build_recursive(2, X + Y), "S_2(x+y) = S_2(x) S_2(y):")

assert matmul(build_recursive(5, X), build_recursive(5, -X)) == identity(5)
print("S_5(x) S_5(-x) == identity")

# at x = 1 the 0/1 Sierpinski pattern appears
show(build_recursive(3, ONE), "S_3(1), the binary Sierpinski matrix:")
