"""Exception hierarchy shared by all modules."""


class MetareduceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MetareduceError):
    """Invalid or inconsistent run configuration."""


class NumericError(MetareduceError):
    """A numerical procedure failed or a validated quantity is out of contract."""


# --- dynamics ---------------------------------------------------------------

class NoStableFixedPoint(NumericError):
    """Newton search found no stable fixed point in the invariant box."""


class MarginalFixedPoint(NumericError):
    """A converged fixed point has spectral radius within tolerance of 1."""


class BallConstructionFailed(NumericError):
    """Ball radius shrank below the floor without passing the invariance check."""


# --- kernel -----------------------------------------------------------------

class DegenerateRow(NumericError):
    """A row sum of exp(-rate/sigma^2) underflowed (sigma too small for grid)."""


class NonRecurrentComplement(NumericError):
    """(Id - K_cc) is singular to working precision; trace kernel undefined."""


# --- spectral ---------------------------------------------------------------

class PrincipalNotSimple(NumericError):
    """Killed-kernel principal eigenvalue is not separated from the next mode."""


class ZeroColumn(NumericError):
    """A column of a kernel power vanished; positivity ratio undefined."""


# --- quasipotential ---------------------------------------------------------

class HopRadiusTooSmall(NumericError):
    """Some node's deterministic image has no grid node within the hop radius."""


class RHopSaturated(NumericError):
    """An optimal path uses a hop close to the radius cap; increase r_hop."""


class InfiniteH(NumericError):
    """Action graph is disconnected between two metastable balls."""


class ThetaTooLarge(NumericError):
    """Time-dilution exponent theta must be strictly below H_0."""


# --- reduction --------------------------------------------------------------

class Overflow(NumericError):
    """exp(theta/sigma^2) is not representable; raise sigma or lower theta."""


class BasisDegenerate(NumericError):
    """<QSD_i| Pi0 Pi* vanished; the (mu, psi) basis cannot be built."""


class NegativeEntry(NumericError):
    """Reduced matrix entry below the clamping floor (regime violation)."""


# --- montecarlo -------------------------------------------------------------

class Runaway(NumericError):
    """Simulated state left the 100 * diam(X) safety region."""


class SimulationTimeout(NumericError):
    """A single run exceeded the step cap."""
