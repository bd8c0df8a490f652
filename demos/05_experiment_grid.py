#!/usr/bin/env python3
"""Replication of the random-quadric experiment at desk scale.

For every (n, p) with n <= 5 the harness draws verified-smooth random
quadrics and one random full-rank matrix; for each polar index i it builds
the classic polar ideal from the top n - p - i + 1 rows of that matrix and
measures the dimension of its singular locus.  The observed
value is -1 for hypersurfaces and max{-1, n - p - (2i+2)} otherwise; the
first genuinely singular cells appear at n = 6, where the rank-degeneracy
proxy confirms a zero-dimensional singular locus for (6, 2, 1).

Run from the repository root (about a minute):

    python3 demos/05_experiment_grid.py

The equivalent command-line calls:

    polar experiment --nmax 5 --seeds 1 --master-seed 42 --out grid.jsonl
    polar experiment --nmax 6 --mode delta --p-max 3 --master-seed 42
"""

import json

from polarvar.experiment import (CellSpec, derive_seed, run_cell, run_grid,
                                 summarize_grid)

results = run_grid(5, seeds=1, mode="full", master_seed=42)
print(summarize_grid(results))

print("\nJSON-lines records are deterministic given the master seed:")
print(json.dumps(results[0].to_record()))

print("\nthe first nonempty singular locus, via the degeneracy proxy:")
cell = run_cell(CellSpec(6, 2, 1, seed=derive_seed(42, 6, 2, 0), mode="delta"))
print(f"  (6,2,1): dim_sing = {cell.dim_sing}, "
      f"expected {cell.expected_dim_sing}, match {cell.match}")
