"""Shared fixtures: the reference double-well system at several noise levels.

Expensive artifacts (kernels, trace kernels, eigendecompositions, the
quasipotential table) are built once per session and memoized per sigma.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

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


def stochastic_matrices(sizes=st.integers(2, 8),
                        entries=st.floats(0.01, 1.0)):
    """Square matrices of drawn entries, each row divided by its sum; rows
    that sum to 0 are redrawn."""
    return sizes.flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(np.array).filter(lambda m: (m.sum(axis=1) > 0).all()).map(
        lambda m: m / m.sum(axis=1)[:, None])


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


# --- a plain reference for the Monte Carlo stepping engine --------------------
# The estimators step all their runs at once in ``montecarlo._run``; this
# steps the same law one worker block at a time, with none of its tricks.

def plain_engine(model, structure, groups, seed, workers, stop):
    """Step groups ``(x0, n_runs, stream0)`` of runs, laid out one after
    another in contiguous worker blocks, block w on stream stream0 + w.

    Each step, block by block in run order, draws standard_normal((n, d))
    for the block's n active runs and moves them to pi(x) + noise(z).  Then
    ``stop(step, runs, x, inside)`` gets the active runs' indices, their new
    positions and inside[k] = in_ball(x, k) for every ball, and returns
    which of them stop.
    """
    x, blocks, first = [], [], 0
    for x0, n_runs, stream0 in groups:
        sizes = [n_runs // workers + (w < n_runs % workers)
                 for w in range(workers)]
        edges = first + np.cumsum([0] + sizes)
        blocks += [(mr.rng_stream(seed, stream0 + w),
                    np.arange(edges[w], edges[w + 1])) for w in range(workers)]
        x.append(np.tile(x0, (n_runs, 1)))
        first += n_runs
    x = np.concatenate(x)
    active = np.ones(first, bool)
    step = 0
    while active.any():
        step += 1
        for rng, runs in blocks:
            runs = runs[active[runs]]
            if runs.size:
                z = rng.standard_normal((runs.size, model.dim))
                x[runs] = model.pi(x[runs]) + model.noise(z)
        runs = np.flatnonzero(active)
        inside = np.array([structure.in_ball(x[runs], k)
                           for k in range(structure.n_balls)])
        active[runs[stop(step, runs, x[runs], inside)]] = False


def plain_committor(model, structure, pairs, n_runs, seed, workers):
    """Hit counts per pair, as ``estimate_committor`` counts them."""
    home, target = np.repeat(np.asarray(pairs), n_runs, axis=0).T
    hit = np.zeros(home.size, bool)

    def stop(step, runs, x, inside):
        at = np.arange(runs.size)
        reached = inside[target[runs], at]
        hit[runs[reached]] = True
        return reached | inside[home[runs], at]

    groups = [(structure.centers[i], n_runs, 0) for i, _ in pairs]
    plain_engine(model, structure, groups, seed, workers, stop)
    return hit.reshape(-1, n_runs).sum(axis=1)


def plain_hitting_steps(model, structure, groups, seed, workers):
    """Step at which each run first lands in a ball (``estimate_ex``)."""
    times = np.zeros(sum(n for _, n, _ in groups))

    def stop(step, runs, x, inside):
        hit = inside.any(axis=0)
        times[runs[hit]] = step
        return hit

    plain_engine(model, structure, groups, seed, workers, stop)
    return times


def plain_diluted_trace(model, structure, i, m, n_blocks, n_runs, seed,
                        workers):
    """Counts of the ball at every (n m)-th visit to M, as
    ``empirical_diluted_trace`` tallies them."""
    counts = np.zeros((structure.n_balls, n_blocks + 1), dtype=np.int64)
    counts[i, 0] = n_runs
    visits = np.zeros(n_runs, dtype=np.int64)
    recorded = np.ones(n_runs, dtype=np.int64)

    def stop(step, runs, x, inside):
        ball = np.full(runs.size, -1)
        for k in range(structure.n_balls - 1, -1, -1):
            ball[inside[k]] = k
        in_m = ball >= 0
        visits[runs] += in_m
        due = in_m & (visits[runs] == recorded[runs] * m)
        np.add.at(counts, (ball[due], recorded[runs][due]), 1)
        recorded[runs[due]] += 1
        return recorded[runs] > n_blocks

    if n_blocks > 0:    # else visit 0 is all there is
        plain_engine(model, structure, [(structure.centers[i], n_runs, 0)],
                     seed, workers, stop)
    return counts
