"""Exact arithmetic over the Gaussian rationals.

Everything downstream (matrix algebra, torus points, bundle characters) is
built on one scalar type: three ints (a, b, d) read as (a + b*i)/d, kept in
lowest terms with d >= 1. Gaussian integers (d == 1) multiply and add as
plain ints; the real and imaginary parts read back as stdlib fractions.
No floats appear anywhere, so every comparison in the package is exact.
"""

from fractions import Fraction

from spintorus import GaussianRational, Matrix, smith_form
from spintorus.matrices import sparse_rows

a = GaussianRational(Fraction(3, 4), Fraction(-1, 2))
b = GaussianRational(Fraction(1, 3), Fraction(2, 3))
print(f"a = {a}")
print(f"b = {b}")
print(f"a * b = {a * b}")
print(f"a / b = {a / b}")
print(f"conj(a) * a = {a.conjugate() * a}  (the norm {a.norm()} as a scalar)")
print(f"a mod 1 = {a.mod1()}  (both parts reduced into [0, 1))")

print()
print("Matrices carry the same scalars.  The quarter-turn below is the")
print("building block for everything the imaginary unit does later on:")
i = GaussianRational(0, 1)
quarter = Matrix([[0, -1], [1, 0]])
print(f"  J = {quarter!r}")
print(f"  J^2 = {(quarter @ quarter)!r}")
print(f"  det J = {quarter.det()}, J^-1 = {quarter.inv()!r}")

print()
print("Integer matrices reduce to their elementary divisors:")
m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
print(f"  smith_form({m}) = {smith_form(sparse_rows(m), len(m[0]))}")
