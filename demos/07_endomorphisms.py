"""The endomorphism lattice and the splitting into identical elliptic curves.

Integral combinations of signed blades span a finite-index subring of the
full integer endomorphism ring of the torus.  Smith normal form measures
that index exactly, a determinant norm cross-checks it, and an explicit
witness splits the torus into 2^k copies of the curve with multiplication
by i.
"""

from spintorus import (
    GaussianRational,
    LatticeSpec,
    Matrix,
    automorphism_containment,
    build_generators,
    decomposition_witness,
    endo_rank,
    evaluate_element,
    lattice_matrix,
    parse_point,
    realify,
    subring_index,
    transport_table,
)

for k in (1, 2):
    table = build_generators(k)
    lattice = LatticeSpec.default(k)
    rank = endo_rank(table, lattice)
    print(f"k={k}: blade span has rank {rank}; the full ring has rank {2 * (2 ** k) ** 2}")

print()
table = build_generators(1)
lattice = LatticeSpec.default(1)

h = evaluate_element("e1*e2", table.sig)
print("e1*e2 on the realified lattice basis:")
for row in realify(lattice_matrix(h, table, lattice)):
    print(f"  {row}")

audit = subring_index(table, lattice)
print()
print(f"k=1 audit: smith divisors {audit.smith_divisors}")
print(f"index of the blade span in the full ring: {audit.index_str}")
print(f"determinant-norm route gives {audit.determinant_norm}; routes agree: {audit.consistent}")
print(f"every signed blade is an invertible lattice self-map: {automorphism_containment(table, lattice)}")

print()
witness = decomposition_witness(table, lattice)
print(f"splitting witness: automorphism of order {witness.order}, factor curve {witness.curve}")
print(f"analytic matrix of the automorphism: {witness.analytic_matrix}")
p = parse_point("1/4+1/2i, 3/8", 1)
print(f"coordinatewise split of {p}: ({', '.join(str(c) for c in witness.split(p))})")

print()
shear = Matrix([[GaussianRational(1), GaussianRational(0, 1)], [GaussianRational(0), GaussianRational(1)]])
moved = transport_table(shear, table)
print(f"transporting the matrices through {shear!r} keeps the audit intact:")
moved_audit = subring_index(moved, lattice)
print(f"  transported index: {moved_audit.index_str}, consistent: {moved_audit.consistent}")
print(f"  transported description: {moved.description}")
