"""Poissonian loop ensembles on finite weighted graphs.

Exact transition kernels, two loop-ensemble samplers, Gaussian field
couplings, balanced-network laws, and the homology class distribution,
with a verification battery tying the Monte Carlo side to the closed
forms.

The package is lazy (PEP 562): `import loopsoup` loads only `errors`, and
each submodule is imported on first access to it or to a name it exports.
A re-exported name is looked up in its submodule on every access, never
cached here, so `loopsoup.build_kernel` is always `loopsoup.graphs.build_kernel`
as it is bound now.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": (
        "BadChi", "BadExactInput", "BadForm", "BadGraph", "BadGrid", "BadIntensity",
        "BadMassBudget", "BadPartition", "BadReplicaCount", "BadSamplerInput", "BadSeed",
        "BadStoppingLevel", "BadSupport", "BadTailCut", "BudgetExceeded", "Disconnected",
        "DisconnectedSupport", "DuplicateIndex", "EmptyBasis", "EmptyNetwork",
        "GridTooCoarse", "LoopSoupError", "MismatchBeyondTolerance", "NonIntegral",
        "NonTransient", "NotEulerian", "NotSquare", "SingularTwist", "TailTooHeavy",
        "TooLarge", "UnknownSampler", "ZeroNetwork",
    ),
    "eulerian": (
        "ModifierMatrix", "NetworkLawEntry", "best_tour_count", "enumerate_eulerian",
        "exact_network_prob_alpha", "exact_network_prob_alpha1", "generating_function",
        "max_flow", "mu_network_measure", "verify_poisson_convolution",
    ),
    "exact": ("alpha_permanent", "arborescence_count", "permanent",
              "spanning_tree_weight_sum"),
    "fields": (
        "ray_knight_check", "sample_excursion_field", "verify_det_identity",
        "verify_isomorphism", "verify_moment_formula",
    ),
    "graphs": ("ChainKernel", "WeightedGraph", "build_kernel"),
    "homology": (
        "CycleBasis", "HomologyLaw", "JacobianVolume", "cycle_basis",
        "homology_distribution", "homology_distribution_auto", "intersection_matrix",
        "jacobian_volume", "network_homology_class",
    ),
    "network": ("Network",),
    "reports": ("CONVENTIONS", "StatLine", "TestReport"),
    "rng": ("BLOCK", "replica_map", "replica_rng"),
    "soup": (
        "BasedLoop", "Histogram", "LoopBlock", "LoopSoup", "direct_block", "direct_sample",
        "jump_matrix", "network_histogram", "occupation", "occupation_samples",
        "wilson_counts", "wilson_sample",
    ),
    "verify": ("run_all",),
}

# public name -> the submodule holding it; a submodule maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sub = importlib.import_module(f"{__name__}.{module}")
    return sub if name == module else getattr(sub, name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
