"""Shared fixtures: the reference double-well system at several noise levels.

Expensive artifacts (kernels, trace kernels, eigendecompositions, the
quasipotential table) are built once per session and memoized per sigma.
"""

import numpy as np
import pytest

import metareduce as mr
from metareduce.dynamics import DeterministicMapModel
from metareduce.maps import build_map

REF_BOX = [[-2.0, 2.0]]
REF_NODES = 401
REF_DELTA = 0.2
REF_RHOP = 1.0
MASTER_SEED = 20250809


def make_ref_model(sigma):
    dim, pi, jac = build_map("tanh", {"beta": 2.0})
    return DeterministicMapModel(1, pi, jac, REF_BOX, [[1.0]], sigma, "tanh")


@pytest.fixture(scope="session")
def ref():
    """Sigma-independent reference objects: grid, fixed points, structure."""
    model = make_ref_model(0.35)
    fps = mr.find_fixed_points(model)
    structure = mr.build_metastable_structure(model, fps, REF_DELTA)
    grid = mr.Grid.from_box(np.asarray(REF_BOX), REF_NODES)
    balls, m_set, comp = grid.membership(structure)
    return {
        "fixed_points": fps,
        "structure": structure,
        "grid": grid,
        "balls": balls,
        "m_set": m_set,
        "complement": comp,
    }


class SigmaCache:
    def __init__(self, ref):
        self.ref = ref
        self._kernels = {}
        self._traces = {}
        self._trace_decomps = {}

    def model(self, sigma):
        return make_ref_model(sigma)

    def kernel(self, sigma):
        if sigma not in self._kernels:
            self._kernels[sigma] = mr.discretize_kernel(
                self.model(sigma), self.ref["grid"])
        return self._kernels[sigma]

    def trace(self, sigma):
        if sigma not in self._traces:
            self._traces[sigma] = mr.trace_kernel(
                self.kernel(sigma), self.ref["m_set"])
        return self._traces[sigma]

    def trace_decomp(self, sigma):
        if sigma not in self._trace_decomps:
            self._trace_decomps[sigma] = mr.eigendecompose(self.trace(sigma))
        return self._trace_decomps[sigma]


@pytest.fixture(scope="session")
def cache(ref):
    return SigmaCache(ref)


@pytest.fixture(scope="session")
def table(ref):
    """Quasipotential table on the reference grid (sigma independent)."""
    return mr.compute_h_matrix(make_ref_model(0.35), ref["grid"],
                               ref["structure"], REF_RHOP)


# the 3-state stochastic matrix used in several hand examples
HAND_K3 = np.array([[0.5, 0.3, 0.2],
                    [0.2, 0.6, 0.2],
                    [0.1, 0.1, 0.8]])


def kernel_from_matrix(matrix, kind="stochastic"):
    m = np.asarray(matrix, float)
    return mr.KernelMatrix(m, kind, np.arange(m.shape[0]))


# --- exact oracles for the Monte Carlo estimators -----------------------------
# Both use the first-passage time tau+_A = min{n >= 1 : X_n in A}, the
# convention of the estimators, which take one step before testing membership.

def _rest(kernel, subset):
    """Positions in the kernel's domain outside the given grid indices."""
    keep = np.ones(kernel.size, bool)
    keep[kernel.local_indices(np.asarray(subset, int))] = False
    return np.where(keep)[0]


def exact_committor(kernel, b_i, b_j):
    """P_x[tau+_{B_j} < tau+_{B_i}] for every x, by one linear solve.

    On C = complement of B_i and B_j, q = K_CBj 1 + K_CC q; every row then
    takes one more step: p = K h with h = 1 on B_j, 0 on B_i, q on C.
    """
    K = kernel.matrix
    j = kernel.local_indices(np.asarray(b_j, int))
    c = _rest(kernel, np.union1d(b_i, b_j))
    h = np.zeros(kernel.size)
    h[j] = 1.0
    h[c] = np.linalg.solve(np.eye(c.size) - K[np.ix_(c, c)],
                           K[np.ix_(c, j)].sum(axis=1))
    return K @ h


def exact_hitting_times(kernel, target):
    """E_x tau+_target for every x: 1 + K_xC (Id - K_CC)^{-1} 1, C the rest."""
    K = kernel.matrix
    c = _rest(kernel, target)
    t_c = np.linalg.solve(np.eye(c.size) - K[np.ix_(c, c)], np.ones(c.size))
    return 1.0 + K[:, c] @ t_c
