"""Exact bounds and randomized checks for k-regular maps.

The public names below load their submodule on first use (PEP 562), so
`import kregular.cli` pays only for what the command line imports, and
only `verify` loads the sampler.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCES = {
    "bounds": ("BoundReport", "RegularQuery", "bound_disjoint",
               "bound_product_2regular", "main_theorem_1_closed_form",
               "main_theorem_2_closed_form", "upper_existence",
               "upper_existence_piece"),
    "bundles": ("COMPLEX", "REAL", "BundleProfile", "ExistenceRecord",
                "UnsupportedBundleError", "lambda_top",
                "projective_3regular_upper", "projective_table_matches"),
    "expr": ("ParseError", "parse_expression", "parse_manifold",
             "render_query"),
    "fields": ("digit_sum_base_p", "is_prime", "lucas_binom_mod_p"),
    "grassmann": ("GrassmannPresentation", "cached_presentation",
                  "chern_height_of_first_class"),
    "manifolds": ("ComplexProj", "DualClassProfile", "Euclid", "ManifoldSpec",
                  "Product", "QuatProj", "RealProj", "Sphere", "atoms",
                  "dual_sw", "floor_log2", "is_closed", "real_dimension",
                  "render", "top_dual_degree", "top_dual_degree_closed_form"),
    "sampler": ("DirectSum", "ExampleMap", "RegularityReport", "SphereOneI",
                "VandermondeMap", "Witness", "ambient_dim",
                "claimed_regularity", "integer_rank_bareiss", "parse_map",
                "render_map", "sample_check_regular"),
    "series": ("GradedSeries", "NonInvertibleError", "RingMismatchError",
               "SeriesRing"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # A name outside the table, a submodule's name among them, raises
    # AttributeError, so `from kregular import bounds` imports the submodule.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
