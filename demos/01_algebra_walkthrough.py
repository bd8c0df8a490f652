#!/usr/bin/env python3
"""Tour of the exact-arithmetic layer: the prime field, sparse polynomials,
Groebner bases, and the staircase analytics built on them.

Run from the repository root:

    python3 demos/01_algebra_walkthrough.py
"""

from polarvar import (GBLimits, IdealPresentation, PrimeField, degree,
                      dimension, localize_rabinowitsch, normal_form,
                      parse_polynomial, reduced_groebner_basis)

K = PrimeField()  # q = 10000000019
print(f"working over the prime field with q = {K.q}")

# Values are canonical residues with exact inverses.
print(f"2^-1 mod q = {K.inv(2)}")

# Polynomials parse from a small grammar and print canonically
# (degrevlex order, balanced signs).
f = parse_polynomial("x1^2 + 2*x2 - 3", 2, K)
g = parse_polynomial("x1 - x2", 2, K)
print(f"f       = {f}")
print(f"f * g   = {f * g}")

# A reduced Groebner basis is the canonical presentation of an ideal:
# permuting or rescaling the generators cannot change it.
sphere = parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3, K)
twist = parse_polynomial("x1*x2 - x3", 3, K)
I = IdealPresentation(K, 3, [sphere, twist])
G = reduced_groebner_basis(I, GBLimits())
print("\nreduced basis of (sphere, x1*x2 - x3):")
for b in G.basis:
    print(f"  {b}")

# Dimension and degree come off the staircase of leading terms.
print(f"dimension {dimension(G)}, degree {degree(G)}")

# Membership via normal forms: generators reduce to zero.
print(f"normal form of the sphere equation: {normal_form(sphere, G)}")

# Localization: restrict the coordinate cross x1*x2 = 0 to the open set
# x1 != 0; only the branch x2 = 0 survives, as the graph of 1/x1 in one
# extra variable.
cross = IdealPresentation(K, 2, [parse_polynomial("x1*x2", 2, K)])
loc = localize_rabinowitsch(cross, parse_polynomial("x1", 2, K))
Gloc = reduced_groebner_basis(loc)
print(f"\ncross localized at x1 != 0: dimension {dimension(Gloc)}, "
      f"degree {degree(Gloc)}")
print("basis:", ", ".join(str(b) for b in Gloc.basis))
