#!/usr/bin/env python3
"""A smooth complete intersection of two quadrics in A^6 whose generic
polar variety of codimension three carries a certified singular point.

The construction places a point xi on the linear space where both scaled
gradients fall into the row span of the constant block.  At xi the stacked
determinant and its whole gradient vanish exactly, so the polar variety
(cut out by F1, F2, and that determinant) is singular there even though
the ambient intersection is smooth.

Run from the repository root:

    python3 demos/03_singular_witness.py
"""

from polarvar import PrimeField, polar_ideal
from polarvar.families import (build_family_31, polar_spec_31,
                               verify_singular_witness)

K = PrimeField()
inst = build_family_31(6, seed=2024, field=K)

print(f"n = {inst.n}, witness point xi = {inst.xi}")
print(f"F1 = {inst.F1}")
print(f"F2 = {inst.F2}")

report = verify_singular_witness(inst)
print("\nexact checks at xi:")
print(f"  stacked determinant vanishes        : {report.det_vanishes_at_xi}")
print(f"  its full gradient vanishes          : {report.gradient_vanishes_at_xi}")
print(f"  cofactor derivative identity holds  : {report.derivative_identity_ok}")
print(f"  rank J(F1, F2, det) at xi           : {report.stack_rank_at_xi} (wanted 2)")
print(f"  singular-locus generators vanish    : {report.singular_generators_vanish}")

# The polar variety itself is nonempty of codimension three in A^6; with
# three defining equations and a rank-2 Jacobian at xi, the point is
# singular on it.
R = polar_ideal(polar_spec_31(inst))
print(f"\npolar variety: dim {R.dim} (codim {inst.n - R.dim} in A^{inst.n}), "
      f"degree {R.degree}")
print("witness verdict:", "singular point certified" if report.ok else "FAILED")
