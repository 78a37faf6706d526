"""Reduction of metastable perturbed iterated maps to finite Markov chains.

``import metareduce`` loads no submodule: each name in ``__all__`` is imported
from its module on first access (PEP 562) and then bound here."""

from importlib import import_module

_HOME = {name: module for module, names in (    # module, the names it exports
    ("dynamics", "DeterministicMapModel DriftReport FixedPointRecord "
     "MetastableStructure build_metastable_structure check_lyapunov_drift "
     "classify_stability find_fixed_points"),
    ("grid", "Grid"),
    ("kernel", "KernelMatrix discretize_kernel invariant_measure "
     "killed_kernel trace_kernel"),
    ("montecarlo", "EstimateWithError SimulationTrace empirical_diluted_trace "
     "estimate_committor estimate_ex rng_stream simulate_chain"),
    ("quasipotential", "ActionGraph QuasipotentialTable build_action_graph "
     "compute_h_matrix quasipotential_from"),
    ("reduction", "Projectors ReducedChainModel ball_rows build_p "
     "build_projectors build_pstar build_reduced_chain choose_m "
     "reduced_chain_marginals stochastic_power"),
    ("spectral", "GapReport QsdSolution SpectralDecomposition "
     "check_uniform_positivity eigendecompose eigenvalues solve_qsd "
     "verify_spectral_gap")) for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
