"""Quasipotential V, inter-well costs H(i,j) and optimal index paths.

The accumulated cost of a chain of one-step Gaussian rates is minimized by a
shortest path on a hop-bounded grid digraph: node u connects to every node
within ``r_hop`` of the deterministic image of u, weighted by the one-step
rate.  Hops longer than the largest optimal single-step displacement are
never used, as rate(d) >= |d|^2 / (2 lambda_max(C)) grows quadratically.
A table that writes V on every node verifies this a posteriori through
the saturation check; one that reads only H up to a cost bound B (the
refinement) drops beforehand the hops longer than sqrt(2 lambda_max(C) B).
A row's edges at fixed indices on the first d - 1 axes are one run along
the last axis, as the hop is monotone along it on either side of the image;
bisection finds the runs' ends, and blocks of EDGE_BLOCK edges fill the CSR.

Dijkstra reads a graph through two members: ``weights``, the CSR matrix of
edge weights, and ``hops(pred, child)``, the hop lengths of the edges
pred -> child of the shortest-path tree; and through ``limit``, if it has
one, the cost Dijkstra stops at.  ``ActionGraph`` is the grid's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HopRadiusTooSmall, InfiniteH, NumericError, RHopSaturated

PATH_TOL = 1e-9
TRIANGLE_TOL = 1e-9
SATURATION_FRACTION = 0.8
BOUND_MARGIN = 1e-3           # relative margin of the refinement's cost bound
EDGE_BLOCK = 1 << 16          # edges filled per block of rows


@dataclass(frozen=True)
class ActionGraph:
    """Hop-bounded digraph over grid nodes with one-step rate weights; a
    zero weight is a stored edge (an image on a node reaches it free)."""

    points: np.ndarray      # (n_nodes, d) grid nodes
    images: np.ndarray      # (n_nodes, d) deterministic images
    weights: object         # (n_nodes, n_nodes) CSR matrix
    limit: float = np.inf   # the cost bound the hops were cut at

    def hops(self, pred, child):
        """Lengths |points[child] - images[pred]| of the edges pred -> child."""
        return np.sqrt(((self.points[child] - self.images[pred]) ** 2).sum(-1))


def build_action_graph(model, grid, r_hop, limit=np.inf):
    """Assemble the action digraph; validates that every image has a node
    within r_hop.  A finite cost ``limit`` B drops the hops longer than
    sqrt(2 lambda_max(C) B), which cost more than B."""
    h_max = float(grid.spacings.max())
    if r_hop < 3.0 * h_max:
        raise HopRadiusTooSmall(
            f"r_hop = {r_hop} below 3 * max grid spacing = {3 * h_max}")
    pts = grid.points()
    images = model.pi(pts)
    far = np.linalg.norm(pts[grid.nearest_index(images)] - images, axis=1) > r_hop
    if far.any():
        raise HopRadiusTooSmall(
            f"image of node {far.argmax()} has no grid node within r_hop")
    reach = math.sqrt(2 * np.linalg.eigvalsh(model.cov)[-1] * limit)
    weights = _weights(grid, images, model.rate, min(float(r_hop), reach))
    return ActionGraph(pts, images, weights, limit)


def _weights(grid, images, rate, r_hop):
    """CSR of the one-step rates ``rate(d)``, d = node - image, over the nodes
    whose hop sqrt(sum_k d_k^2), summed in axis order, is at most r_hop, in
    the box of grid indices around the image, one index wider each side so
    rounding drops no node.  At fixed indices on the first d - 1 axes, each
    step of the hop (fl(a[j] - img), square, sum, sqrt) is monotone in the
    last index j on either side of searchsorted(a, img): the kept j form one
    run, whose ends bisection finds.  Pass 1 keeps the runs' starts and
    lengths, pass 2 fills the CSR; blocks hold <= EDGE_BLOCK runs or edges."""
    from scipy.sparse import csr_matrix
    origin, h = np.array([a[0] for a in grid.axes]), grid.spacings
    lo = np.maximum(np.ceil((images - r_hop - origin) / h) - 1, 0).astype(int)
    wide = np.maximum(np.minimum(np.floor((images + r_hop - origin) / h) + 2,
                                 grid.shape) - lo, 0).astype(int)
    ptr = np.concatenate([[0], np.cumsum(wide[:, :-1].prod(axis=1))])
    a, start, n = grid.axes[-1], np.empty(ptr[-1], int), np.empty(ptr[-1], int)

    def blocks(c):      # rows [b, e) with <= EDGE_BLOCK items of c, or one
        b = 0
        while b < grid.n_nodes:
            e = max(b + 1, np.searchsorted(c, c[b] + EDGE_BLOCK + 1) - 1)
            row = np.repeat(np.arange(b, e), np.diff(ptr[b:e + 1]))
            q, idx, pre = np.arange(ptr[b], ptr[e]) - ptr[row], [0 * row], []
            for k in reversed(range(grid.dim - 1)):     # q: a run's rank
                q, i = np.divmod(q, wide[row, k])
                idx.insert(0, lo[row, k] + i)           # the run's indices
                pre.insert(0, grid.axes[k][idx[0]] - images[row, k])
            yield slice(c[b], c[e]), slice(ptr[b], ptr[e]), row, idx, pre
            b = e

    def bisect(j0, j1, want):       # the first j in [j0, j1) kept == want
        while (on := j0 < j1).any():    # or j1, where the range has shut
            mid = np.minimum((j0 + j1) // 2, a.size - 1)
            hit = on & ((np.sqrt(sq + (a[mid] - img) ** 2) <= r_hop) == want)
            j0, j1 = np.where(hit, j0, mid + 1), np.where(hit, mid, j1)
        return j1

    for p, _, row, _, pre in blocks(ptr):
        sq = sum((dk ** 2 for dk in pre), np.zeros(row.size))
        img, first = images[row, -1], lo[row, -1]
        split = np.clip(np.searchsorted(a, img), first, first + wide[row, -1])
        start[p] = bisect(first, split, True)
        n[p] = bisect(split, first + wide[row, -1], False) - start[p]
    indptr = np.concatenate([[0], np.cumsum(n)])[ptr]
    data, cols = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    for at, p, row, idx, pre in blocks(indptr):
        j = np.repeat(start[p] + n[p] - np.cumsum(n[p]), n[p]) \
            + np.arange(at.stop - at.start)          # each edge's last index
        cols[at] = np.repeat(np.ravel_multi_index(idx, grid.shape), n[p]) + j
        data[at] = rate(np.stack([np.repeat(x, n[p]) for x in pre] + [
            a[j] - np.repeat(images[row, -1], n[p])], axis=-1))
    return csr_matrix((data, cols, indptr), shape=(grid.n_nodes,) * 2)


def quasipotential_from(graph, source_set):
    """Multi-source Dijkstra distances; also returns per-node max hop length
    along the discovered shortest path (for the saturation check).  Reads
    ``graph.weights``, a CSR matrix whose stored entries, zeros included,
    are the edges (distinct targets per row), and ``graph.hops(pred, child)``
    on the edges of the shortest-path tree.  Nodes farther than a graph's
    ``limit`` read inf."""
    from scipy.sparse.csgraph import dijkstra
    sources = np.atleast_1d(np.asarray(source_set, int))
    if sources.size == 0:
        raise NumericError("source set must be nonempty")
    dist, pred, _ = dijkstra(graph.weights, indices=sources, min_only=True,
                             return_predecessors=True,
                             limit=getattr(graph, "limit", np.inf))
    # max hop to the root of the shortest-path tree by pointer doubling: it
    # follows predecessors, since zero-weight edges tie distances
    child = np.flatnonzero(pred >= 0)
    maxhop, up = np.zeros(dist.size), np.arange(dist.size)
    maxhop[child], up[child] = graph.hops(pred[child], child), pred[child]
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
    longest_optimal: np.ndarray     # (N, N) edges of the longest optimal path
    r_hop: float

    @property
    def n_balls(self):
        return self.h_matrix.shape[0]


def compute_h_matrix(model, grid, structure, r_hop, limit=np.inf):
    """Dijkstra costs between ball-center nodes and derived path quantities.

    H(i, j) is the quasipotential from ball i's center node to the node
    nearest ball j's center, which makes H an exact shortest-path metric on
    the graph (the triangle inequality holds to rounding).  Index paths are
    simple (no repeated indices), of length at most N - 1, costed by
    summing H entries.  A finite ``limit`` cuts the graph at that cost (V
    reads inf beyond it), and an H above it makes the result None.
    """
    graph = build_action_graph(model, grid, r_hop, limit)
    n, centers = structure.n_balls, grid.nearest_index(structure.centers)
    v_surfaces, h = np.empty((n, grid.n_nodes)), np.zeros((n, n))
    for i in range(n):
        v_surfaces[i], maxhop = quasipotential_from(graph, [centers[i]])
        for j in [k for k in range(n) if k != i]:
            val = v_surfaces[i, centers[j]]
            if val > limit:
                return None
            if not np.isfinite(val):
                raise InfiniteH(f"ball {j} unreachable from ball {i}")
            h[i, j] = float(val)
            if maxhop[centers[j]] > SATURATION_FRACTION * r_hop:
                raise RHopSaturated(
                    f"optimal path {i}->{j} uses a hop above "
                    f"{SATURATION_FRACTION} * r_hop; increase r_hop")
    return table_from_costs(v_surfaces, h, r_hop)


def table_from_costs(v_surfaces, h, r_hop):
    """The table of V and H; H0, H0_hat and the paths depend on H alone."""
    n = h.shape[0]
    _check_triangle(h)
    h0 = float(h[~np.eye(n, dtype=bool)].min(initial=np.inf))
    optimal, longest, h0_hat = {}, np.zeros((n, n), dtype=int), np.inf
    for i, j in itertools.permutations(range(n), 2):
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


def _check_triangle(h):
    """Raise at the first (i, l, j), in lexicographic order, where
    h[i, l] + h[l, j] < h[i, j] - TRIANGLE_TOL."""
    bad = np.argwhere(h[:, :, None] + h[None, :, :]
                      < h[:, None, :] - TRIANGLE_TOL)
    if bad.size:
        raise NumericError("triangle inequality violated at "
                           f"({','.join(map(str, bad[0]))})")


def refinement_check(model, grid, structure, r_hop, coarse=None):
    """The largest relative change of an off-diagonal H entry from the grid
    to its twofold refinement, 0.0 when there is none.

    ``coarse`` is the table already built on ``grid``, if any.  The fine
    graph is cut at a cost B, BOUND_MARGIN above the coarse table's
    largest H (the fine grid holds the coarse nodes): it keeps the hops up
    to r* = sqrt(2 lambda_max(C) B), as a longer one costs more than B.
    A path of cost at most B uses only kept edges, so a fine H at most B
    is the full graph's, bit for bit; if some fine H exceeds B, the table
    is rebuilt on the full r_hop graph.  Saturation is judged against
    r_hop either way.  The caller judges the change against its tolerance:
    grid error at the requested resolution is a diagnostic, not a contract
    violation.
    """
    fine = type(grid).from_box(model.box, [2 * s - 1 for s in grid.shape])
    coarse_t = coarse or compute_h_matrix(model, grid, structure, r_hop)
    bound = (1 + BOUND_MARGIN) * float(coarse_t.h_matrix.max())
    fine_t = (compute_h_matrix(model, fine, structure, r_hop, bound)
              or compute_h_matrix(model, fine, structure, r_hop))
    mask = ~np.eye(structure.n_balls, dtype=bool)
    c, f = coarse_t.h_matrix[mask], fine_t.h_matrix[mask]
    return float(np.max(np.abs(c - f) / np.maximum(np.abs(f), 1e-300))) \
        if c.size else 0.0
