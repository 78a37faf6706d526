"""Action graphs, Dijkstra costs, H matrices and index paths."""

import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import metareduce as mr
import metareduce.quasipotential
from metareduce.dynamics import DeterministicMapModel
from metareduce.errors import HopRadiusTooSmall, NumericError, RHopSaturated
from metareduce.grid import Grid
from metareduce.maps import build_map
from metareduce.quasipotential import (PATH_TOL, _check_triangle,
                                       quasipotential_from, refinement_check)

from conftest import REF_RHOP, make_ref_model


class FakeGraph:
    """Abstract weighted digraph satisfying the graph duck type: a CSR of
    edge weights, each row kept in the given order, and zero hop lengths."""

    def __init__(self, n, edges, order=None):
        adj = [[] for _ in range(n)]
        for u, v, w in edges:
            adj[u].append((v, w))
        if order is not None:
            adj = [[row[k] for k in order.get(u, range(len(row)))]
                   for u, row in enumerate(adj)]
        self.weights = csr_matrix(
            (np.array([w for row in adj for _, w in row], float),
             np.array([v for row in adj for v, _ in row], int),
             np.cumsum([0] + [len(row) for row in adj])), shape=(n, n))

    def hops(self, pred, child):
        return np.zeros(len(child))


THREE_NODE = [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.5)]


def enumerate_paths_cost(edges, n, src, dst):
    """Oracle: exhaustive minimum over all simple paths."""
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
    best = math.inf
    for r in range(n):
        for mids in itertools.permutations(
                [k for k in range(n) if k not in (src, dst)], r):
            path = (src, *mids, dst)
            cost = 0.0
            ok = True
            for a, b in zip(path[:-1], path[1:]):
                w = dict(adj.get(a, ()))
                if b not in w:
                    ok = False
                    break
                cost += w[b]
            if ok:
                best = min(best, cost)
    return best


class TestDijkstra:
    def test_three_node_example(self):
        g = FakeGraph(3, THREE_NODE)
        dist, _ = quasipotential_from(g, [0])
        oracle = enumerate_paths_cost(THREE_NODE, 3, 0, 2)
        assert oracle == 2.5
        assert dist[2] == pytest.approx(2.5, abs=1e-15)
        assert dist[1] == pytest.approx(1.0, abs=1e-15)
        assert dist[0] == 0.0

    def test_visitation_order_invariance(self):
        rng = np.random.default_rng(3)
        edges = []
        n = 40
        for u in range(n):
            for v in rng.choice(n, size=8, replace=False):
                if v != u:
                    edges.append((u, int(v), float(rng.random() + 0.01)))
        a, _ = quasipotential_from(FakeGraph(n, edges), [0])
        order = {u: list(rng.permutation(sum(1 for e in edges if e[0] == u)))
                 for u in range(n)}
        b, _ = quasipotential_from(FakeGraph(n, edges, order=order), [0])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_source_cost_zero(self, ref, table):
        src = ref["grid"].nearest_index(ref["structure"].centers[0])
        assert table.v_surfaces[0][src] == 0.0

    def test_multi_source(self):
        g = FakeGraph(3, THREE_NODE)
        dist, _ = quasipotential_from(g, [0, 1])
        assert dist[1] == 0.0
        assert dist[2] == pytest.approx(1.5)


@st.composite
def small_graphs(draw):
    """Random digraphs of at most 12 nodes: distinct targets per node,
    integer weights (so path sums are exact) with some zeros, and hops."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=4 * n, unique=True))
    edges = [(u, v, float(draw(st.integers(0, 4)))) for u, v in pairs
             if u != v]
    hops = {(u, v): float(draw(st.integers(0, 9))) for u, v, _ in edges}
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    return n, edges, hops, sources


class HopGraph(FakeGraph):
    def __init__(self, n, edges, hops):
        super().__init__(n, edges)
        self._hops = hops

    def hops(self, pred, child):
        return np.array([self._hops[(int(u), int(v))]
                         for u, v in zip(pred, child)], float)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_dijkstra_matches_floyd_warshall(graph):
    n, edges, hops, sources = graph
    dist, maxhop = quasipotential_from(HopGraph(n, edges, hops), sources)
    fw = np.full((n, n), np.inf)
    np.fill_diagonal(fw, 0.0)
    for u, v, w in edges:
        fw[u, v] = w
    for k in range(n):
        fw = np.minimum(fw, fw[:, [k]] + fw[[k], :])
    np.testing.assert_array_equal(dist, fw[sources].min(axis=0))
    # maxhop[v] must be the largest hop along one shortest path from the
    # sources: grow the set of nodes reached by a tight edge whose hop
    # bookkeeping matches, starting from the sources
    witnessed = set(sources)
    assert (maxhop[sources] == 0.0).all()
    grew = True
    while grew:
        grew = False
        for u, v, w in edges:
            if (u in witnessed and v not in witnessed
                    and dist[u] + w == dist[v]
                    and maxhop[v] == max(maxhop[u], hops[(u, v)])):
                witnessed.add(v)
                grew = True
    assert witnessed == set(np.where(np.isfinite(dist))[0].tolist())


def out_edges(graph, u):
    """Targets and weights stored in row u of the graph's weight CSR."""
    row = slice(graph.weights.indptr[u], graph.weights.indptr[u + 1])
    return graph.weights.indices[row], graph.weights.data[row]


class TestActionGraph:
    def test_linear_map_edge_weights(self):
        # weight of edge x -> y is (y - x/2)^2 / 2 for pi(x) = x/2, cov = 1
        dim, pi, jac = build_map("linear", {"a": 0.5})
        model = DeterministicMapModel(1, pi, jac, [[-1, 1]], [[1.0]], 0.3,
                                      "linear")
        grid = Grid.from_box(model.box, 101)
        graph = mr.build_action_graph(model, grid, 0.5)
        u = 30
        x = grid.points()[u, 0]
        idx, w = out_edges(graph, u)
        ys = grid.points()[idx, 0]
        np.testing.assert_allclose(w, 0.5 * (ys - 0.5 * x) ** 2, atol=1e-15)
        assert (graph.hops(np.full(idx.size, u), idx) <= 0.5).all()

    def test_nearest_image_weight_shrinks_with_refinement(self):
        model = make_ref_model(0.35)
        prev = None
        for n in (101, 201, 401):
            grid = Grid.from_box(model.box, n)
            graph = mr.build_action_graph(model, grid, REF_RHOP)
            pts = grid.points()
            h = grid.spacings.max()
            bound = 0.5 * (h * np.sqrt(model.dim)) ** 2 \
                * np.abs(np.linalg.inv(model.cov)).max()
            worst = 0.0
            for u in range(0, grid.n_nodes, 37):
                target = grid.nearest_index(np.atleast_1d(model.pi(pts[u])))
                idx, w = out_edges(graph, u)
                worst = max(worst, float(w[idx == target][0]))
            assert worst <= bound
            if prev is not None:
                assert worst < prev
            prev = worst

    def test_zero_weight_edges_kept(self):
        # pi(x) = x/2 sends some nodes exactly onto other nodes; those edges
        # cost 0 and must stay edges of the shortest-path graph
        dim, pi, jac = build_map("linear", {"a": 0.5})
        model = DeterministicMapModel(1, pi, jac, [[-1, 1]], [[1.0]], 0.3,
                                      "linear")
        graph = mr.build_action_graph(model, Grid.from_box(model.box, 101),
                                      0.5)
        w = graph.weights
        rows = np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))
        zero = [(int(u), int(v)) for u, v, x in zip(rows, w.indices, w.data)
                if x == 0 and v != u]
        assert len(zero) > 10
        for u, v in zero:
            dist, maxhop = quasipotential_from(graph, [u])
            assert dist[v] == 0.0 and maxhop[v] == 0.0

    def test_out_degree_matches_ball_volume(self, ref):
        model = make_ref_model(0.35)
        graph = mr.build_action_graph(model, ref["grid"], REF_RHOP)
        h = ref["grid"].spacings[0]
        expected = 2 * REF_RHOP / h + 1
        assert np.diff(graph.weights.indptr).mean() == pytest.approx(
            expected, rel=0.05)

    def test_hop_radius_precondition(self, ref):
        model = make_ref_model(0.35)
        with pytest.raises(HopRadiusTooSmall):
            mr.build_action_graph(model, ref["grid"], 2.0 * ref["grid"].spacings[0])


@st.composite
def grids_with_images(draw):
    """A small 1D or 2D grid, r_hop >= 3h, an SPD covariance with
    off-diagonal terms, and one image per node: on a node, on the box edge,
    or anywhere within one spacing of the box."""
    dim = draw(st.integers(1, 2))
    box = [[lo, lo + draw(st.floats(0.5, 3.0))]
           for lo in draw(st.lists(st.floats(-2.0, 0.0), min_size=dim,
                                   max_size=dim))]
    grid = Grid.from_box(box, draw(st.lists(st.integers(2, 9), min_size=dim,
                                            max_size=dim)))
    h = grid.spacings.max()
    r_hop = draw(st.floats(3.0 * h, 8.0 * h))
    scale = draw(st.lists(st.floats(0.3, 2.0), min_size=dim, max_size=dim))
    rho = draw(st.floats(-0.8, 0.8))
    corr = np.array([[1.0]]) if dim == 1 else np.array([[1.0, rho],
                                                        [rho, 1.0]])
    cov = corr * np.outer(scale, scale)
    images = np.array([[draw(st.one_of(
        st.sampled_from(a.tolist()), st.sampled_from([a[0], a[-1]]),
        st.floats(a[0] - h, a[-1] + h))) for a in grid.axes]
        for _ in range(grid.n_nodes)])
    return grid, r_hop, cov, images


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grids_with_images())
def test_action_graph_matches_brute_force_edges(case):
    # an edge u -> v exists iff |pts[v] - images[u]| <= r_hop, with weight
    # 0.5 d^T cov^-1 d; zero weights stay stored entries
    grid, r_hop, cov, images = case
    box = [[a[0], a[-1]] for a in grid.axes]
    model = DeterministicMapModel(grid.dim, lambda x: images, None, box, cov,
                                  1.0)
    graph = mr.build_action_graph(model, grid, r_hop)
    diff = grid.points()[None, :, :] - images[:, None, :]
    hop = np.sqrt((diff ** 2).sum(axis=-1))
    u, v = np.nonzero(hop <= r_hop)
    w = graph.weights
    np.testing.assert_array_equal(
        w.indptr, np.cumsum([0, *np.bincount(u, minlength=grid.n_nodes)]))
    np.testing.assert_array_equal(w.indices, v)
    cov_inv = np.linalg.inv(cov)
    # relative accuracy holds down to the smallest normal float
    np.testing.assert_allclose(
        w.data, [0.5 * d @ cov_inv @ d for d in diff[u, v]], rtol=1e-12,
        atol=np.finfo(float).tiny)
    np.testing.assert_array_equal(graph.hops(u, v), hop[u, v])


def image_model(grid, images, cov):
    """A model on the grid's box whose map sends node u to images[u]."""
    box = [[a[0], a[-1]] for a in grid.axes]
    return DeterministicMapModel(grid.dim, lambda x: images, None, box, cov,
                                 1.0)


def csr_bits(w):
    return w.indptr, w.indices, w.data.view(np.int64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(grids_with_images())
def test_action_graph_weights_are_the_rates_bit_for_bit(case):
    # the weight of u -> v is rate(points[v] - images[u]), every bit of it
    grid, r_hop, cov, images = case
    model = image_model(grid, images, cov)
    w = mr.build_action_graph(model, grid, r_hop).weights
    u = np.repeat(np.arange(grid.n_nodes), np.diff(w.indptr))
    expected = model.rate(grid.points()[w.indices] - images[u])
    np.testing.assert_array_equal(w.data.view(np.int64),
                                  expected.view(np.int64))


class TestHopBoundary:
    """A node exactly r_hop from its image is an edge; at the next float
    below r_hop it is not.  Every hop here is exact in binary."""

    def kept(self, grid, image, r_hop):
        images = np.tile(image, (grid.n_nodes, 1))
        w = metareduce.quasipotential._weights(
            grid, images, lambda d: 0.5 * (d ** 2).sum(axis=-1), r_hop)
        assert (np.diff(w.indptr) == np.diff(w.indptr)[0]).all()
        return {tuple(p) for p in grid.points()[w.indices[w.indptr[0]:
                                                          w.indptr[1]]]}

    @pytest.mark.parametrize("image, ends", [(2.0, (0.0, 5.0)),
                                             (5.0, (2.0, 8.0))])
    def test_1d(self, image, ends):
        # box [0, 8] with 9 nodes, r_hop 3: an end is kept at 3.0 exactly
        grid = Grid.from_box([[0.0, 8.0]], 9)
        lo, hi = ends
        assert self.kept(grid, [image], 3.0) == {
            (x,) for x in np.arange(lo, hi + 1)}
        below = self.kept(grid, [image], np.nextafter(3.0, 0.0))
        assert below == {(x,) for x in np.arange(lo, hi + 1)
                         if abs(x - image) < 3.0}

    def test_2d(self):
        # image (4, 4), r_hop 5: (1, 0), (7, 8), (0, 1), (8, 7) and the
        # others with |dx|, |dy| in {3, 4} lie exactly on the circle
        grid = Grid.from_box([[0.0, 8.0]] * 2, 9)
        on = {(4.0 + sx * dx, 4.0 + sy * dy) for dx, dy in [(3, 4), (4, 3)]
              for sx in (-1, 1) for sy in (-1, 1)}
        inside = {(x, y) for x in range(9) for y in range(9)
                  if (x - 4) ** 2 + (y - 4) ** 2 < 25}
        assert self.kept(grid, [4.0, 4.0], 5.0) == inside | on
        assert self.kept(grid, [4.0, 4.0], np.nextafter(5.0, 0.0)) == inside


@pytest.mark.parametrize("seed", range(4))
def test_action_graph_matches_brute_force_in_3d(seed):
    # three axes, so each run is found for a pair of first two indices
    rng = np.random.default_rng(seed)
    grid = Grid.from_box([[0.0, 1.0], [-1.0, 0.5], [0.0, 2.0]],
                         rng.integers(4, 9, size=3))
    h = grid.spacings.max()
    r_hop = rng.uniform(3.0, 6.0) * h
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    lo, hi = np.array([[ax[0], ax[-1]] for ax in grid.axes]).T
    images = rng.uniform(lo - h, hi + h, size=(grid.n_nodes, 3))
    model = image_model(grid, images, cov)
    w = mr.build_action_graph(model, grid, r_hop).weights
    diff = grid.points()[None, :, :] - images[:, None, :]
    u, v = np.nonzero(np.sqrt((diff ** 2).sum(axis=-1)) <= r_hop)
    np.testing.assert_array_equal(
        w.indptr, np.cumsum([0, *np.bincount(u, minlength=grid.n_nodes)]))
    np.testing.assert_array_equal(w.indices, v)
    np.testing.assert_array_equal(w.data.view(np.int64),
                                  model.rate(diff[u, v]).view(np.int64))


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_edge_blocks_give_the_same_csr(block, monkeypatch):
    # blocks of one row each, blocks that split the rows unevenly, and one
    # block for the whole graph; the graphs cut at cost 0.002 hold rows of
    # no edge and of one edge
    dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
    model = DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2,
                                  [[1.0, 0.3], [0.3, 0.5]], 0.35, "tanh2d")
    cases = [(m, g, limit) for m, g in [
        (model, Grid.from_box(model.box, [17, 13])),
        (make_ref_model(0.35), Grid.from_box([[-2.0, 2.0]], 41))]
        for limit in (np.inf, 0.002)]
    before = [mr.build_action_graph(m, g, 1.0, limit).weights
              for m, g, limit in cases]
    degrees = np.concatenate([np.diff(w.indptr) for w in before])
    assert (degrees == 0).any() and (degrees == 1).any()
    monkeypatch.setattr(metareduce.quasipotential, "EDGE_BLOCK", block)
    for (m, g, limit), want in zip(cases, before):
        got = mr.build_action_graph(m, g, 1.0, limit).weights
        for x, y in zip(csr_bits(got), csr_bits(want)):
            np.testing.assert_array_equal(x, y)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grids_with_images(), st.floats(0.0, 2.0))
def test_cut_graph_keeps_the_hops_up_to_r_star(case, limit):
    # a graph cut at cost B stores exactly the edges of hop at most
    # r* = sqrt(2 lambda_max B) (and r_hop); every edge it drops costs
    # more than B
    grid, r_hop, cov, images = case
    box = [[a[0], a[-1]] for a in grid.axes]
    model = DeterministicMapModel(grid.dim, lambda x: images, None, box, cov,
                                  1.0)
    graph = mr.build_action_graph(model, grid, r_hop, limit)
    r_star = math.sqrt(2 * np.linalg.eigvalsh(cov)[-1] * limit)
    diff = grid.points()[None, :, :] - images[:, None, :]
    hop = np.sqrt((diff ** 2).sum(axis=-1))
    u, v = np.nonzero(hop <= min(r_hop, r_star))
    w = graph.weights
    assert w.nnz == u.size
    np.testing.assert_array_equal(w.indices, v)
    assert (graph.hops(u, v) <= r_star).all()
    du, dv = np.nonzero((hop > r_star) & (hop <= r_hop))
    cov_inv = np.linalg.inv(cov)
    assert all(0.5 * d @ cov_inv @ d > limit for d in diff[du, dv])


class TestHMatrix:
    def test_symmetric_double_well(self, table):
        h = table.h_matrix
        assert h[0, 0] == 0.0 and h[1, 1] == 0.0
        assert abs(h[0, 1] - h[1, 0]) <= 1e-12
        assert table.h0 == pytest.approx(h[0, 1])

    def test_two_well_paths_and_sentinel(self, table):
        assert table.optimal_paths[(0, 1)] == ((0, 1),)
        assert table.optimal_paths[(1, 0)] == ((1, 0),)
        assert table.h0_hat == np.inf
        assert table.longest_optimal[0, 1] == 1

    def test_three_well_asymmetric(self):
        # tilted two-barrier map: three stable wells, tilt breaks symmetry
        dim, pi, jac = build_map(
            "poly", {"coeffs": [0.02, 0.76, 0.0, 0.3, 0.0, -0.06]})
        model = DeterministicMapModel(1, pi, jac, [[-2.5, 2.5]], [[1.0]],
                                      0.35, "threewell")
        fps = mr.find_fixed_points(model)
        assert sum(r.is_stable for r in fps) == 3
        st = mr.build_metastable_structure(model, fps, 0.2)
        grid = Grid.from_box(model.box, 251)
        t = mr.compute_h_matrix(model, grid, st, 1.0)
        h = t.h_matrix
        # triangle inequality within tolerance (checked internally too)
        for i, l, j in itertools.product(range(3), repeat=3):
            assert h[i, l] + h[l, j] >= h[i, j] - 1e-9
        asym = max(abs(h[i, j] - h[j, i])
                   for i in range(3) for j in range(3) if i != j)
        assert asym > 1e-3
        assert np.isfinite(t.h0_hat)

    def test_one_axis_h_bounded_by_the_axis_h(self):
        # tanh2d is separable and C = I, so a 2D edge weighs its axis-k
        # step's 1D weight plus a nonnegative term, and a 2D path between
        # wells that differ in axis k alone projects to a 1D walk between
        # the same centre nodes: the 2D H is at least the 1D H, in floating
        # point too.  Not equal on a grid: 51 nodes read 1.3e-2 (axis 0)
        # and 4.2e-5 (axis 1) relative above
        beta, box, nodes = [2.0, 2.6], [[-2.0, 2.0]], 51

        def table(name, params, dim):
            _, pi, jac = build_map(name, params)
            model = DeterministicMapModel(dim, pi, jac, box * dim,
                                          np.eye(dim), 0.35, name)
            structure = mr.build_metastable_structure(
                model, mr.find_fixed_points(model), 0.2)
            grid = Grid.from_box(model.box, nodes)
            return structure.centers, mr.compute_h_matrix(
                model, grid, structure, 2.5).h_matrix

        centers, h = table("tanh2d", {"beta": beta}, 2)
        signs = np.sign(centers)
        pairs = 0
        for k in range(2):
            axis_centers, axis_h = table("tanh", {"beta": beta[k]}, 1)
            ball = {np.sign(c): b for b, c in enumerate(axis_centers[:, 0])}
            for i, j in itertools.permutations(range(len(centers)), 2):
                if (signs[i] != signs[j]).tolist() == [m == k for m in (0, 1)]:
                    pairs += 1
                    assert h[i, j] >= axis_h[ball[signs[i, k]],
                                             ball[signs[j, k]]]
        assert pairs == 8

    def test_index_path_costs_consistent(self, table):
        # minimal enumerated path cost equals the H entry
        for (i, j), paths in table.optimal_paths.items():
            for gamma in paths:
                cost = sum(table.h_matrix[a, b]
                           for a, b in zip(gamma[:-1], gamma[1:]))
                assert abs(cost - table.h_matrix[i, j]) <= PATH_TOL

    def test_saturation_guard(self):
        model = make_ref_model(0.35)
        grid = Grid.from_box(model.box, 401)
        with pytest.raises(RHopSaturated):
            mr.compute_h_matrix(model, grid, _ref_structure(model), 0.35)


def _ref_structure(model):
    return mr.build_metastable_structure(model, mr.find_fixed_points(model),
                                         0.2)


# H with two triangle violations, (0, 1, 2) and (2, 1, 0): the first in
# lexicographic order (i, l, j) is the one reported
BAD_H = np.array([[0.0, 1.0, 5.0],
                  [1.0, 0.0, 1.0],
                  [5.0, 1.0, 0.0]])


def first_triangle_violation(h, tol=1e-9):
    """Oracle: the first (i, l, j) found by a plain triple loop, or None."""
    n = h.shape[0]
    for i, l, j in itertools.product(range(n), repeat=3):
        if h[i, l] + h[l, j] < h[i, j] - tol:
            return i, l, j
    return None


class TestTriangleCheck:
    def test_compute_h_matrix_reports_first_violation(self, monkeypatch):
        # three balls on the reference grid; Dijkstra is replaced by
        # distances that put BAD_H between the ball centers
        model = make_ref_model(0.35)
        grid = Grid.from_box(model.box, 401)
        structure = mr.MetastableStructure(np.array([[-1.0], [0.0], [1.0]]),
                                           np.full(3, 0.1), 0.1)
        centers = grid.nearest_index(structure.centers)
        sources = []

        def fake_dijkstra(graph, source_set):
            i = int(np.flatnonzero(centers == source_set[0])[0])
            sources.append(i)
            dist = np.zeros(grid.n_nodes)
            dist[centers] = BAD_H[i]
            return dist, np.zeros(grid.n_nodes)

        monkeypatch.setattr(metareduce.quasipotential, "quasipotential_from",
                            fake_dijkstra)
        with pytest.raises(NumericError,
                           match=r"^triangle inequality violated at \(0,1,2\)$"):
            mr.compute_h_matrix(model, grid, structure, REF_RHOP)
        assert sources == [0, 1, 2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.integers(0, 6), min_size=n * n, max_size=n * n)))
def test_triangle_check_matches_triple_loop(values):
    n = math.isqrt(len(values))
    h = np.array(values, float).reshape(n, n) / 2.0
    np.fill_diagonal(h, 0.0)
    first = first_triangle_violation(h)
    if first is None:
        _check_triangle(h)
    else:
        with pytest.raises(NumericError,
                           match=re.escape("triangle inequality violated at "
                                           f"({first[0]},{first[1]},"
                                           f"{first[2]})")):
            _check_triangle(h)


class TestRefinement:
    def test_reference_grid_is_stable(self, ref):
        model = make_ref_model(0.35)
        rel = refinement_check(model, ref["grid"], ref["structure"], REF_RHOP)
        assert rel <= 0.05
        assert rel < 0.01

    def test_coarse_grid_warns_at_tight_tolerance(self, ref):
        model = make_ref_model(0.35)
        coarse = Grid.from_box(model.box, 51)
        rel = refinement_check(model, coarse, ref["structure"], REF_RHOP)
        assert not rel <= 0.01


def tanh2d_case(nodes):
    dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
    model = DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2, np.eye(2),
                                  0.35, "tanh2d")
    structure = mr.build_metastable_structure(
        model, mr.find_fixed_points(model), 0.2)
    return model, Grid.from_box(model.box, nodes), structure, 2.5


@pytest.fixture(scope="module", params=["ref401", "tanh2d21"])
def refine_case(request, ref):
    """Model, grid, structure, r_hop, the coarse table and the fine table
    on the full r_hop graph."""
    if request.param == "ref401":
        case = (make_ref_model(0.35), ref["grid"], ref["structure"], REF_RHOP)
    else:
        case = tanh2d_case(21)
    model, grid, structure, r_hop = case
    fine = Grid.from_box(model.box, [2 * (s - 1) + 1 for s in grid.shape])
    return (*case, mr.compute_h_matrix(model, grid, structure, r_hop),
            mr.compute_h_matrix(model, fine, structure, r_hop))


def record_fine_tables(monkeypatch):
    """(limit, table) of every compute_h_matrix call refinement_check makes."""
    calls, build = [], metareduce.quasipotential.compute_h_matrix

    def recording(model, grid, structure, r_hop, limit=np.inf):
        calls.append((limit, build(model, grid, structure, r_hop, limit)))
        return calls[-1][1]

    monkeypatch.setattr(metareduce.quasipotential, "compute_h_matrix",
                        recording)
    return calls


def relative_change(coarse, fine):
    mask = ~np.eye(coarse.n_balls, dtype=bool)
    c, f = coarse.h_matrix[mask], fine.h_matrix[mask]
    return float(np.max(np.abs(c - f) / np.abs(f)))


class TestCostBoundedRefinement:
    def test_cut_table_is_the_full_graphs(self, refine_case, monkeypatch):
        model, grid, structure, r_hop, coarse, full = refine_case
        calls = record_fine_tables(monkeypatch)
        rel = refinement_check(model, grid, structure, r_hop, coarse=coarse)
        (limit, cut), = calls       # no fallback
        assert limit == pytest.approx(coarse.h_matrix.max(), rel=2e-3)
        np.testing.assert_array_equal(cut.h_matrix, full.h_matrix)
        assert rel == relative_change(coarse, full)

    def test_bound_below_fine_h_falls_back(self, refine_case, monkeypatch):
        model, grid, structure, r_hop, coarse, full = refine_case
        monkeypatch.setattr(metareduce.quasipotential, "BOUND_MARGIN", -0.5)
        calls = record_fine_tables(monkeypatch)
        rel = refinement_check(model, grid, structure, r_hop, coarse=coarse)
        assert [(np.isfinite(limit), t is None) for limit, t in calls] \
            == [(True, True), (False, False)]
        np.testing.assert_array_equal(calls[1][1].h_matrix, full.h_matrix)
        assert rel == relative_change(coarse, full)

    def test_saturation_judged_against_r_hop(self, ref):
        # the fine optimal paths' longest hop sets where RHopSaturated
        # starts: above 0.8 r_hop, whatever the cut
        model, structure = make_ref_model(0.35), ref["structure"]
        coarse = mr.compute_h_matrix(model, ref["grid"], structure, REF_RHOP)
        fine = Grid.from_box(model.box, 801)
        graph = mr.build_action_graph(model, fine, REF_RHOP)
        c = fine.nearest_index(structure.centers)
        hop = quasipotential_from(graph, [c[0]])[1][c[1]]
        with pytest.raises(RHopSaturated):
            refinement_check(model, ref["grid"], structure,
                             0.99 * hop / 0.8, coarse=coarse)
        refinement_check(model, ref["grid"], structure, 1.01 * hop / 0.8,
                         coarse=coarse)

    def test_51_refinement_peak_rss(self):
        # the 51 x 51 tanh2d refinement peaked at 1.9 GB on the full r_hop
        # graph; the cost-bounded one, filled in place, at about 0.4 GB.
        # A memory guard, not a timing gate.
        code = textwrap.dedent("""
            import resource
            import numpy as np
            import metareduce as mr
            from metareduce.dynamics import DeterministicMapModel
            from metareduce.maps import build_map
            from metareduce.quasipotential import refinement_check
            dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
            model = DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2,
                                          np.eye(2), 0.35, "tanh2d")
            st = mr.build_metastable_structure(
                model, mr.find_fixed_points(model), 0.2)
            refinement_check(model, mr.Grid.from_box(model.box, 51), st, 2.5)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """)
        src = str(Path(metareduce.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=300).stdout
        assert int(out.split()[-1]) * 1024 < 1.2e9     # ru_maxrss is in KiB
