"""Reduction of metastable perturbed iterated maps to finite Markov chains."""

from .dynamics import (DeterministicMapModel, DriftReport, FixedPointRecord,
                       MetastableStructure, build_metastable_structure,
                       check_lyapunov_drift, classify_stability,
                       find_fixed_points)
from .grid import Grid
from .kernel import (KernelMatrix, discretize_kernel, invariant_measure,
                     killed_kernel, trace_kernel)
from .montecarlo import (EstimateWithError, SimulationTrace,
                         empirical_diluted_trace, estimate_committor,
                         estimate_ex, rng_stream, simulate_chain)
from .quasipotential import (ActionGraph, QuasipotentialTable,
                             build_action_graph, compute_h_matrix, h_theta,
                             ldp_transition_bounds, quasipotential_from)
from .reduction import (Projectors, ReducedChainModel, ball_rows, build_p,
                        build_projectors, build_pstar, build_reduced_chain,
                        choose_m, reduced_chain_marginals, stochastic_power)
from .spectral import (GapReport, QsdSolution, SpectralDecomposition,
                       check_uniform_positivity, eigendecompose, eigenvalues,
                       solve_qsd, verify_spectral_gap)

__version__ = "0.1.0"
