"""Quasipotential V, inter-well costs H(i,j) and optimal index paths.

The accumulated cost of a chain of one-step Gaussian rates is minimized by a
shortest path on a hop-bounded grid digraph: node u connects to every node
within ``r_hop`` of the deterministic image of u, weighted by the one-step
rate.  Hops longer than the largest optimal single-step displacement are
never used because the rate grows quadratically; this is verified a
posteriori through the saturation check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (HopRadiusTooSmall, InfiniteH, NumericError, RHopSaturated,
                     ThetaTooLarge)

PATH_TOL = 1e-9
TRIANGLE_TOL = 1e-9
SATURATION_FRACTION = 0.8


@dataclass(frozen=True)
class ActionGraph:
    """Hop-bounded digraph over grid nodes with one-step rate weights."""

    grid: object
    images: np.ndarray      # (n_nodes, d) deterministic images
    cov_inv: np.ndarray
    r_hop: float

    @property
    def n_nodes(self):
        return self.grid.n_nodes

    def neighbors(self, u):
        """Target indices, edge weights and hop lengths out of node u."""
        image = self.images[u]
        axes = self.grid.axes
        shape = self.grid.shape
        windows = []
        for a, c in zip(axes, image):
            h = a[1] - a[0]
            jlo = max(int(np.ceil((c - self.r_hop - a[0]) / h)), 0)
            jhi = min(int(np.floor((c + self.r_hop - a[0]) / h)), a.size - 1)
            if jlo > jhi:
                return np.empty(0, int), np.empty(0), np.empty(0)
            windows.append(np.arange(jlo, jhi + 1))
        if len(axes) == 1:
            idx = windows[0]
            pts = axes[0][idx][:, None]
        else:
            mesh = np.meshgrid(*windows, indexing="ij")
            multi = [m.ravel() for m in mesh]
            idx = np.ravel_multi_index(multi, shape)
            pts = np.stack([a[m] for a, m in zip(axes, multi)], axis=-1)
        diff = pts - image
        hop = np.sqrt((diff ** 2).sum(axis=1))
        keep = hop <= self.r_hop
        idx, diff, hop = idx[keep], diff[keep], hop[keep]
        w = 0.5 * np.einsum("ij,jk,ik->i", diff, self.cov_inv, diff)
        return idx, w, hop

    @functools.cached_property
    def edges(self):
        """CSR weights and hops of all edges, assembled once per graph."""
        return _edges(self)

    def mean_out_degree(self, sample=64):
        step = max(1, self.n_nodes // sample)
        degs = [self.neighbors(u)[0].size for u in range(0, self.n_nodes, step)]
        return float(np.mean(degs))


def _edges(graph):
    """Weight and hop CSR matrices over all edges; zero weights stay edges
    (an image that lands on a node costs nothing to reach it)."""
    from scipy.sparse import csr_matrix
    out = [graph.neighbors(u) for u in range(graph.n_nodes)]
    cols, weights, hops = (np.concatenate([o[k] for o in out])
                           for k in range(3))
    indptr = np.cumsum([0] + [o[0].size for o in out])
    shape = (graph.n_nodes, graph.n_nodes)
    return (csr_matrix((weights, cols, indptr), shape=shape),
            csr_matrix((hops, cols, indptr), shape=shape))


def build_action_graph(model, grid, r_hop):
    """Assemble the action digraph; validates hop reachability of all images."""
    h_max = float(grid.spacings.max())
    if r_hop < 3.0 * h_max:
        raise HopRadiusTooSmall(
            f"r_hop = {r_hop} below 3 * max grid spacing = {3 * h_max}")
    pts = grid.points()
    images = model.pi(pts)
    cov_inv = np.linalg.inv(model.cov)
    gap = np.linalg.norm(pts[grid.nearest_index(images)] - images, axis=1)
    far = gap > r_hop
    if far.any():
        raise HopRadiusTooSmall(
            f"image of node {far.argmax()} has no grid node within r_hop")
    return ActionGraph(grid, images, cov_inv, float(r_hop))


def quasipotential_from(graph, source_set):
    """Multi-source Dijkstra distances; also returns per-node max hop length
    along the discovered shortest path (for the saturation check).  The
    targets of one node are distinct; an ActionGraph reuses its edges."""
    from scipy.sparse.csgraph import dijkstra
    sources = np.atleast_1d(np.asarray(source_set, int))
    if sources.size == 0:
        raise NumericError("source set must be nonempty")
    w, hop = graph.edges if isinstance(graph, ActionGraph) else _edges(graph)
    dist, pred, _ = dijkstra(w, indices=sources, min_only=True,
                             return_predecessors=True)
    # max hop to the root of the shortest-path tree by pointer doubling: it
    # follows predecessors, since zero-weight edges tie distances
    n = graph.n_nodes
    child = np.where(pred >= 0)[0]
    maxhop = np.zeros(n)
    maxhop[child] = np.asarray(hop[pred[child], child]).ravel()
    up = np.arange(n)
    up[child] = pred[child]
    while (up[up] != up).any():
        maxhop, up = np.maximum(maxhop, maxhop[up]), up[up]
    return dist, maxhop


@dataclass(frozen=True)
class QuasipotentialTable:
    """Inter-well costs plus the index-path bookkeeping built from them."""

    v_surfaces: np.ndarray          # (N, n_nodes)
    h_matrix: np.ndarray            # (N, N)
    h0: float
    h0_hat: float                   # +inf sentinel when no non-optimal path
    optimal_paths: dict             # (i, j) -> tuple of index tuples
    longest_optimal: np.ndarray     # (N, N) path length p used by H_theta
    r_hop: float
    path_tol: float = PATH_TOL

    @property
    def n_balls(self):
        return self.h_matrix.shape[0]


def compute_h_matrix(model, grid, structure, r_hop):
    """Dijkstra costs between ball-center nodes and derived path quantities.

    H(i, j) is the quasipotential from ball i's center node to the node
    nearest ball j's center, which makes H an exact shortest-path metric on
    the graph (the triangle inequality holds to rounding).  Index paths are
    simple (no repeated indices), of length at most N - 1, costed by
    summing H entries.
    """
    graph = build_action_graph(model, grid, r_hop)
    n = structure.n_balls
    centers = grid.nearest_index(structure.centers)
    v_surfaces = np.empty((n, grid.n_nodes))
    h = np.zeros((n, n))
    for i in range(n):
        dist, maxhop = quasipotential_from(graph, [centers[i]])
        v_surfaces[i] = dist
        for j in range(n):
            if j == i:
                continue
            val = dist[centers[j]]
            if not np.isfinite(val):
                raise InfiniteH(f"ball {j} unreachable from ball {i}")
            h[i, j] = float(val)
            if maxhop[centers[j]] > SATURATION_FRACTION * r_hop:
                raise RHopSaturated(
                    f"optimal path {i}->{j} uses a hop above "
                    f"{SATURATION_FRACTION} * r_hop; increase r_hop")
    _check_triangle(h, "triangle inequality")
    h0 = float(min(h[i, j] for i in range(n) for j in range(n) if i != j)) \
        if n > 1 else np.inf

    optimal = {}
    longest = np.zeros((n, n), dtype=int)
    h0_hat = np.inf
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            paths = []
            for gamma in _simple_paths(i, j, n):
                cost = sum(h[a, b] for a, b in zip(gamma[:-1], gamma[1:]))
                excess = cost - h[i, j]
                if excess <= PATH_TOL:
                    paths.append(gamma)
                elif excess > 0:
                    h0_hat = min(h0_hat, excess)
            optimal[(i, j)] = tuple(paths)
            longest[i, j] = max(len(g) - 1 for g in paths)
    return QuasipotentialTable(v_surfaces, h, h0, h0_hat, optimal, longest,
                               float(r_hop))


def _simple_paths(i, j, n):
    """All simple index paths i -> j (at most N - 1 edges)."""
    others = [k for k in range(n) if k not in (i, j)]
    for r in range(len(others) + 1):
        for mids in itertools.permutations(others, r):
            yield (i, *mids, j)


def _check_triangle(h, what):
    """Raise at the first (i, l, j), in lexicographic order, where
    h[i, l] + h[l, j] < h[i, j] - TRIANGLE_TOL."""
    bad = np.argwhere(h[:, :, None] + h[None, :, :]
                      < h[:, None, :] - TRIANGLE_TOL)
    if bad.size:
        i, ell, j = bad[0]
        raise NumericError(f"{what} violated at ({i},{ell},{j})")


def h_theta(table, theta):
    """Dilution-adjusted costs H(i,j) - p * theta with p the longest optimal
    path length.  Asserts the adjusted triangle inequality in the regime
    (N - 2) theta <= H0_hat."""
    if not (0.0 < theta < table.h0):
        raise ThetaTooLarge(f"theta = {theta} not in (0, H0 = {table.h0})")
    n = table.n_balls
    out = table.h_matrix - table.longest_optimal * theta
    np.fill_diagonal(out, 0.0)
    if (n - 2) * theta <= table.h0_hat:
        _check_triangle(out, "adjusted triangle inequality")
    return out


def ldp_transition_bounds(table, i, j, n, sigma, eta):
    """Diagnostic envelopes for the probability of the n-th watched step
    landing in ball j when starting in ball i.

    upper = sum over optimal paths of C(n,|g|) e^{-[H - |g| eta]/s^2}
            + N^N e^{-[H + H0_hat - N eta]/s^2},
    lower = sum over optimal paths of C(n,|g|) e^{-[H + |g| eta]/s^2}.
    """
    if i == j:
        raise NumericError("transition bounds need i != j")
    h = table.h_matrix[i, j]
    s2 = sigma ** 2
    nballs = table.n_balls
    lower = upper = 0.0
    for gamma in table.optimal_paths[(i, j)]:
        p = len(gamma) - 1
        c = math.comb(n, p) if p <= n else 0
        upper += c * math.exp(-(h - p * eta) / s2)
        lower += c * math.exp(-(h + p * eta) / s2)
    if np.isfinite(table.h0_hat):
        upper += nballs ** nballs * math.exp(
            -(h + table.h0_hat - nballs * eta) / s2)
    return lower, upper


@dataclass(frozen=True)
class RefinementReport:
    coarse_values: np.ndarray
    fine_values: np.ndarray
    max_relative_change: float
    tolerance: float

    @property
    def passed(self):
        return self.max_relative_change <= self.tolerance


def refinement_check(model, grid, structure, r_hop, tol=0.05, coarse=None):
    """Compare H entries on the grid and its twofold refinement.

    ``coarse`` is the table already built on ``grid``, if any.  A failure
    is reported, never raised: grid error at the requested resolution is a
    diagnostic, not a contract violation.
    """
    from .grid import Grid
    fine = Grid.from_box(model.box, [2 * (s - 1) + 1 for s in grid.shape])
    coarse_t = coarse if coarse is not None else compute_h_matrix(
        model, grid, structure, r_hop)
    fine_t = compute_h_matrix(model, fine, structure, r_hop)
    mask = ~np.eye(structure.n_balls, dtype=bool)
    c = coarse_t.h_matrix[mask]
    f = fine_t.h_matrix[mask]
    rel = float(np.max(np.abs(c - f) / np.maximum(np.abs(f), 1e-300))) \
        if c.size else 0.0
    return RefinementReport(c, f, rel, tol)
