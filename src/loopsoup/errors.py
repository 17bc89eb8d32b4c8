"""Exception types shared across the package, and the intensity check that
the samplers and the exact laws share."""

import math
from numbers import Real


class LoopSoupError(Exception):
    """Base class for every error raised by this package."""


class BadGraph(LoopSoupError):
    """Malformed graph data: bad vertices, edges, conductances or killing."""


class NonTransient(LoopSoupError):
    """The energy form is not positive definite, so the chain is not transient."""


class BadForm(LoopSoupError):
    """An edge modifier is not a Hermitian square matrix with entries of
    modulus at most 1 (ModifierMatrix), or not n x n for the chain that
    generating_function twists with it."""


class TooLarge(LoopSoupError):
    """Input exceeds the hard size cap of an exact combinatorial kernel."""


class Disconnected(LoopSoupError):
    """The graph is not connected where connectivity is required."""


class EmptyNetwork(LoopSoupError):
    """A network with no jumps was passed where jumps are required."""


class TailTooHeavy(LoopSoupError):
    """The loop-length tail cannot be cut to the requested budget in bounds."""


class NotEulerian(LoopSoupError):
    """Jump counts violate the per-vertex in/out balance."""


class ZeroNetwork(LoopSoupError):
    """The zero network was passed where a nonzero one is required."""


class DisconnectedSupport(LoopSoupError):
    """The support of a network is not connected."""


class SingularTwist(LoopSoupError):
    """A twisted kernel is singular; the generating function is undefined."""


class BudgetExceeded(LoopSoupError):
    """Enumeration would have to pass the hard size cap to meet the budget."""


class BadPartition(LoopSoupError):
    """Source and target sets must be disjoint, nonempty and in range."""


class BadSupport(LoopSoupError):
    """The killing measure is not supported exactly where required."""


class DuplicateIndex(LoopSoupError):
    """Repeated edge or vertex indices where distinct ones are required."""


class BadChi(LoopSoupError):
    """A diagonal weight vector fails the required domination constraint."""


class EmptyBasis(LoopSoupError):
    """The cycle space is trivial; there is nothing to build on."""


class NonIntegral(LoopSoupError):
    """A flow failed to decompose integrally over the cycle basis."""


class GridTooCoarse(LoopSoupError):
    """A Fourier grid is too coarse to capture the required mass."""


class MismatchBeyondTolerance(LoopSoupError):
    """Two supposedly equal internal computations disagree."""


class BadSamplerInput(LoopSoupError, ValueError):
    """A Monte Carlo entry point got an argument outside its domain.

    Also a ValueError, so callers that caught the plain ValueError these
    inputs used to raise keep working.
    """


class BadIntensity(BadSamplerInput):
    """The loop intensity alpha is not positive, not 1 where the sampler
    requires it (cycle popping), or so large that a block's expected loop
    count passes the draw cap."""


class BadTailCut(BadSamplerInput):
    """The loop-length tail cut eps lies outside (0, 1e-6]."""


class UnknownSampler(BadSamplerInput):
    """A sampler name other than 'direct' or 'wilson'."""


class BadSeed(BadSamplerInput):
    """A seed that is not an integer (None, where a fresh stream is allowed)."""


class BadReplicaCount(BadSamplerInput):
    """A replica count that is not an integer of at least 1, or whose
    (n, replicas) sample would pass the entry cap rng.SAMPLE_CAP."""


class BadStoppingLevel(BadSamplerInput):
    """The Ray-Knight stopping level rho is not finite and positive, or so
    large that a block's expected excursion count passes the draw cap."""


class BadExactInput(LoopSoupError, ValueError):
    """An exact entry point got an argument outside its domain.

    Also a ValueError, so callers that caught the plain ValueError these
    inputs used to raise keep working.
    """


class BadMassBudget(BadExactInput):
    """The enumeration mass budget delta lies outside (0, 0.01]."""


class BadGrid(BadExactInput):
    """A Fourier grid size that is not a power of two from 8 to 512."""


class NotSquare(BadExactInput):
    """A permanent was asked of a matrix that is not square."""


def _check_alpha(alpha) -> None:
    """Raise BadIntensity unless alpha is a finite real number above 0, not a
    bool (numpy's bool is no Real)."""
    if not (isinstance(alpha, Real) and not isinstance(alpha, bool)
            and alpha > 0 and math.isfinite(alpha)):
        raise BadIntensity(f"intensity must be positive and finite, got {alpha}")


def _check_tail_cut(eps) -> None:
    """Raise BadTailCut unless the loop-length tail cut eps lies in (0, 1e-6]."""
    if not 0 < eps <= 1e-6:
        raise BadTailCut(f"tail cut must be in (0, 1e-6], got {eps}")
