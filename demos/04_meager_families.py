#!/usr/bin/env python3
"""Structured (meagerly generic) matrix families: the unit-triangular
transform rows, the descending dual chain, and the degree comparison
against uniformly random draws.

Run from the repository root:

    python3 demos/04_meager_families.py
"""

import random

from polarvar import PrimeField
from polarvar.experiment import derive_seed, random_smooth_system
from polarvar.families import (degree_domination_check, example1_transform,
                               example2_chain, parameter_count)

K = PrimeField()
rng = random.Random(4)

# --- rows of an inverse unit-triangular transform --------------------------
n, p = 5, 2
s = parameter_count(n, p)
z = [rng.randrange(K.q) for _ in range(s)]
print(f"transform family at (n, p) = ({n}, {p}), {s} parameters")
for i in (1, 2, 3):
    B = example1_transform(n, p, i, z, K)
    print(f"  i = {i}: B has shape {B.rows} x {B.cols}")
# the rows nest: each level drops the first row of the previous one
B1 = example1_transform(n, p, 1, z, K)
B2 = example1_transform(n, p, 2, z, K)
print("  nesting holds:", B2.entries == B1.entries[1:])

# --- descending dual chain --------------------------------------------------
F = random_smooth_system(K, 4, 2, seed=derive_seed(44, 4, 2))
gamma = [rng.randrange(1, K.q) for _ in range(4)]
chain = example2_chain(F, gamma)
print("\ndual chain on a smooth quadric pair in A^4 (localized):")
for lv in chain.levels:
    print(f"  level i={lv.i}: dim {lv.dim}, degree {lv.degree}, "
          f"smooth {lv.smooth}")
print(f"  dims descend: {chain.dims_descend}, inclusions: {chain.inclusions_ok}")

# --- degrees: structured draws never beat random ones ----------------------
F3 = random_smooth_system(K, 4, 2, seed=derive_seed(44, 9))
report = degree_domination_check(F3, i=1, trials=3, seed=7)
print(f"\ndegree comparison at (n, p, i) = (4, 2, 1):")
print(f"  random draws : {list(report.random_degrees)} "
      f"(agree: {report.random_degrees_agree})")
for name, degs in report.structured_degrees.items():
    print(f"  {name:15s}: {list(degs)}")
print(f"  dominated by the generic degree: {report.dominated}")
print(f"  within 2^n * p^(n-p) = {report.bezout_bound(2)}: "
      f"{report.within_bezout(2)}")
