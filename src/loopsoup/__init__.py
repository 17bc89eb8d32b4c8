"""Poissonian loop ensembles on finite weighted graphs.

Exact transition kernels, two loop-ensemble samplers, Gaussian field
couplings, balanced-network laws, and the homology class distribution,
with a verification battery tying the Monte Carlo side to the closed
forms.
"""

from .errors import (
    BadChi,
    BadExactInput,
    BadForm,
    BadGraph,
    BadGrid,
    BadIntensity,
    BadMassBudget,
    BadPartition,
    BadReplicaCount,
    BadSamplerInput,
    BadSeed,
    BadStoppingLevel,
    BadSupport,
    BadTailCut,
    BudgetExceeded,
    Disconnected,
    DisconnectedSupport,
    DuplicateIndex,
    EmptyBasis,
    EmptyNetwork,
    GridTooCoarse,
    LoopSoupError,
    MismatchBeyondTolerance,
    NonIntegral,
    NonTransient,
    NotEulerian,
    NotSquare,
    SingularTwist,
    TailTooHeavy,
    TooLarge,
    UnknownSampler,
    ZeroNetwork,
)
from .eulerian import (
    ModifierMatrix,
    NetworkLawEntry,
    best_tour_count,
    enumerate_eulerian,
    exact_network_prob_alpha,
    exact_network_prob_alpha1,
    generating_function,
    max_flow,
    mu_network_measure,
    verify_poisson_convolution,
)
from .exact import (
    alpha_permanent,
    arborescence_count,
    permanent,
    spanning_tree_weight_sum,
)
from .fields import (
    CONVENTIONS,
    complex_wick_moment,
    ks_two_sample,
    ray_knight_check,
    sample_complex_fields,
    sample_excursion_field,
    sample_real_fields,
    verify_det_identity,
    verify_isomorphism,
    verify_moment_formula,
)
from .graphs import ChainKernel, WeightedGraph, build_kernel
from .homology import (
    CycleBasis,
    HomologyClass,
    HomologyLaw,
    JacobianVolume,
    cycle_basis,
    homology_distribution,
    homology_distribution_auto,
    intersection_matrix,
    jacobian_volume,
    network_homology_class,
)
from .network import Network
from .reports import StatLine, TestReport
from .rng import BLOCK, replica_map, replica_rng
from .soup import (
    BasedLoop,
    Histogram,
    LoopBlock,
    LoopSoup,
    direct_block,
    direct_sample,
    jump_matrix,
    network_histogram,
    occupation,
    occupation_samples,
    wilson_counts,
    wilson_sample,
)
from .verify import run_all

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
