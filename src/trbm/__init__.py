"""Exact tropical and algebraic geometry of restricted Boltzmann machines.

Everything is computed over the rationals: slicings of the cube and
their counts, the tropicalized parameterization and its image dimension,
binary packing/covering codes, the mixture identities on the probability
side, initial forms of flattening minors, and the secondary-fan
combinatorics of the three-dimensional case.

``import trbm`` loads none of the package's modules.  Each name of
``__all__``, and each module name, is looked up on its home module when
it is first read (PEP 562), and that module is imported then.  Nothing
is cached here, so a name rebound on its home module is seen through
the package too.
"""

import importlib

__version__ = "0.1.0"

#: The names each module exports through the package.
_EXPORTS = {
    "linalg": ("Matrix", "nullspace", "rank", "rank_bareiss", "solve"),
    "lp": ("LinearSystem", "solve_feasibility"),
    "cube": ("Slicing", "count_zonotope_facets", "cube_symmetries",
             "enumerate_slicings", "is_slicing", "slicing_count",
             "vertex_coords", "vertex_index"),
    "codes": ("BinaryCode", "covering_radius", "covering_upper",
              "code_to_slicings", "exact_small_values", "hamming_code",
              "min_distance", "table_known_bounds", "varshamov_lower"),
    "tropical": ("AmbiguousArgmax", "DimensionResult", "MembershipResult",
                 "TropParams", "TropicalPoint", "count_inference_functions",
                 "inference_function", "slicing_matrix",
                 "tropical_dimension", "tropical_membership",
                 "tropical_morphism"),
    "rbmstats": ("Distribution", "ExpParams", "MixtureParams",
                 "check_membership_necessary", "covariance_matrix",
                 "flattening", "hadamard_product", "joint_distribution",
                 "max_flattening_rank", "mixture_distribution",
                 "reparameterize"),
    "polynomials": ("SparsePolynomial", "WeightVector", "flattening_minors",
                    "initial_form", "prevariety_member",
                    "quartic_witness_check"),
    "fan": ("RegularSubdivision", "SimplicialComplexData", "Triangulation",
            "enumerate_triangulations_3cube", "reduced_homology_ranks",
            "regular_subdivision_from_lift", "secondary_sphere_fvector",
            "tm13_subcomplex"),
    "parallel": (),
    "cli": (),
}

#: The home module of each exported name and of each module.
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
