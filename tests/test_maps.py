"""The (..., d) point contract, checked on every map in the registry: a batch
of points gives, bit for bit, the stacked results of its rows."""

import numpy as np
import pytest

from metareduce.dynamics import DeterministicMapModel, MetastableStructure
from metareduce.grid import Grid
from metareduce.maps import build_map, builtin_names

PARAMS = {"poly": {"coeffs": [0.02, 0.76, 0.0, 0.3, 0.0, -0.06]}}


@pytest.fixture(params=builtin_names())
def model(request):
    dim, pi, jac = build_map(request.param, PARAMS.get(request.param, {}))
    return DeterministicMapModel(dim, pi, jac, [[-2.0, 2.0]] * dim,
                                 np.eye(dim), 0.3, request.param)


def batch(dim, n=40, seed=3):
    # points inside and outside the box [-2, 2]^d
    return np.random.default_rng(seed).uniform(-2.5, 2.5, (n, dim))


def test_pi_and_jac_batch_equal_rows(model):
    x = batch(model.dim)
    n, d = x.shape
    images, jacs = model.pi(x), model.jac(x)
    assert images.shape == (n, d) and jacs.shape == (n, d, d)
    np.testing.assert_array_equal(images, np.stack([model.pi(p) for p in x]))
    np.testing.assert_array_equal(jacs, np.stack([model.jac(p) for p in x]))


def test_in_box_batch_equals_rows(model):
    x = batch(model.dim)
    inside = model.in_box(x)
    assert inside.shape == (x.shape[0],)
    assert inside.tolist() == [bool(model.in_box(p)) for p in x]
    assert 0 < inside.sum() < x.shape[0]


def test_nearest_index_batch_equals_rows(model):
    grid = Grid.from_box(model.box, 21)
    x = batch(model.dim)
    idx = grid.nearest_index(x)
    assert idx.shape == (x.shape[0],)
    assert idx.tolist() == [int(grid.nearest_index(p)) for p in x]
    np.testing.assert_array_equal(grid.nearest_index(grid.points()),
                                  np.arange(grid.n_nodes))


def test_ball_of_batch_equals_rows(model):
    # overlapping balls on the diagonal: the first one that contains a
    # point wins
    centers = np.array([[-1.0], [0.0], [1.0]]) * np.ones(model.dim)
    st = MetastableStructure(centers, np.array([1.0, 0.8, 0.6]), 1.0)
    x = batch(model.dim, n=200)
    balls = st.ball_of(x)
    assert balls.shape == (x.shape[0],)
    assert balls.tolist() == [int(st.ball_of(p)) for p in x]
    d2 = ((x[:, None, :] - st.centers[None]) ** 2).sum(axis=2)
    inside = d2 <= st.radii ** 2
    expected = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    np.testing.assert_array_equal(balls, expected)
    assert (balls == -1).any() and set(balls.tolist()) >= {0, 1, 2}
