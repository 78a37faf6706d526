"""The (..., d) point contract, checked on every map in the registry: a batch
of points gives, bit for bit, the stacked results of its rows."""

import itertools

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


# per coordinate: the faces of [-1, 2], their float neighbours, the
# extremes, signed zeros, infinities and NaN
FACE_COORDS = [-1.0, 2.0, np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0),
               np.nextafter(2.0, 3.0), np.nextafter(2.0, 0.0), 0.0, -0.0,
               5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_in_box_is_the_all_reduction(dim):
    # column by column, as np.all over the last axis did, for every
    # combination of face, extreme, infinite and NaN coordinates
    m = DeterministicMapModel(dim, None, None, [[-1.0, 2.0]] * dim,
                              np.eye(dim), 0.3)
    lo, hi = m.box[:, 0], m.box[:, 1]
    x = np.array(list(itertools.product(FACE_COORDS, repeat=dim)))
    for pts in (x, x.reshape(len(FACE_COORDS), -1, dim), x[0], x[1], x[-1]):
        old = np.all((pts >= lo) & (pts <= hi), axis=-1)
        new = m.in_box(pts)
        assert np.shape(new) == old.shape and np.asarray(new).dtype == bool
        np.testing.assert_array_equal(new, old)
    # in: both faces, their inner neighbours, both zeros and 5e-324
    assert m.in_box(x).sum() == 7 ** dim
    assert m.in_box(x[0]) and not m.in_box(x[-1])


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
