"""Exact bounds and randomized checks for k-regular maps."""

from .bounds import (BoundReport, ExistenceRecord, RegularQuery,
                     bound_cited, bound_disjoint,
                     bound_product_2regular, handel_disjoint_closed_form,
                     main_theorem_1_closed_form, main_theorem_2_closed_form,
                     projective_3regular_upper, projective_table_matches,
                     upper_existence, upper_existence_piece)
from .bundles import (COMPLEX, REAL, BundleProfile, UnsupportedBundleError,
                      lambda_top)
from .expr import ParseError, parse_expression, parse_manifold, render_query
from .fields import digit_sum_base_p, is_prime, lucas_binom_mod_p
from .grassmann import (GrassmannPresentation, cached_presentation,
                        chern_height_of_first_class)
from .manifolds import (ComplexProj, DualClassProfile, Euclid, ManifoldSpec,
                        Product, QuatProj, RealProj, Sphere, atoms,
                        cohomology_ring, dual_sw, floor_log2, is_closed,
                        real_dimension, render, top_dual_degree,
                        top_dual_degree_closed_form)
from .sampler import (DirectSum, ExampleMap, RegularityReport, SphereOneI,
                      VandermondeMap, Witness, ambient_dim,
                      claimed_regularity, evaluate_rank,
                      integer_rank_bareiss, parse_map, render_map,
                      sample_check_regular)
from .series import (GradedSeries, NonInvertibleError, RingMismatchError,
                     SeriesRing)

__version__ = "0.1.0"
