"""Exact polar-variety constructions over a large prime field.

The package builds classic and dual polar ideals of polynomial complete
intersections, measures their dimension, degree, and singular loci through
reduced Groebner bases, and replicates the random-quadric singular-locus
experiment together with the explicit singular and meagerly generic
families.
"""

from .field import DEFAULT_PRIME, PrimeField, is_prime
from .poly import Point, Polynomial, differentiate, evaluate
from .parsing import ParseError, parse_polynomial, parse_system
from .matrices import (ConstMatrix, PolyMatrix, determinant_division_free,
                       enumerate_minors, jacobian, jacobian_at)
from .groebner import (BudgetExceededError, GBLimits, GroebnerBasis,
                       IdealPresentation, degree, dimension, hilbert_numerator,
                       is_radical_zero_dim, localize_rabinowitsch, normal_form,
                       reduced_groebner_basis, standard_monomials)
from .polar import (CLASSIC, DUAL, MinorCapExceededError, PolarIdealResult,
                    PolarSpec, PolarSpecError, PointClassificationError,
                    SmoothnessReport, delta_ideal, incidence_fiber_dim,
                    polar_generators, polar_ideal, polar_stack,
                    singular_locus_dim, singular_locus_generators,
                    singular_locus_ideal, thom_boardman_class,
                    verify_smooth_complete_intersection)
from .families import (ChainReport, DegreeReport, Family31Instance,
                       WitnessReport, build_family_31, corner_minor,
                       degree_domination_check, example1_transform,
                       example2_chain, example2_matrix, transform_matrix,
                       transform_matrix_symbolic, unitriangular_inverse,
                       verify_singular_witness)
from .experiment import (CellResult, CellSpec, SamplePointsResult, derive_seed,
                         expected_singular_dim, random_dense_poly,
                         random_full_rank_matrix, random_smooth_system,
                         run_cell, run_grid, sample_points_small_field,
                         summarize_grid)

__version__ = "0.1.0"
