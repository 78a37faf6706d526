"""RNG streams, chain simulation, committor/hitting estimators, diluted trace."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metareduce as mr
import metareduce.montecarlo
from metareduce.errors import NumericError, Runaway, SimulationTimeout
from metareduce.dynamics import (DeterministicMapModel, MetastableStructure,
                                 _in_closed_ball)
from metareduce.maps import build_map, builtin_names
from metareduce.kernel import save_entry
from metareduce.montecarlo import Normals, fit_log_scaling

from test_maps import PARAMS as MAP_PARAMS
from conftest import (HAND_K3, MASTER_SEED, exact_committor,
                      exact_hitting_times, kernel_from_matrix, make_ref_model,
                      plain_committor, plain_diluted_trace,
                      plain_hitting_steps)


@pytest.fixture(scope="module")
def structure():
    model = make_ref_model(0.35)
    return mr.build_metastable_structure(model, mr.find_fixed_points(model),
                                         0.2)


def tanh2d_model(sigma):
    dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
    return DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2, np.eye(2),
                                 sigma, "tanh2d")


@pytest.fixture(scope="module")
def structure2d():
    model = tanh2d_model(0.4)
    return mr.build_metastable_structure(model, mr.find_fixed_points(model),
                                         0.2)


class TestRngStream:
    def test_reproducible(self):
        a = mr.rng_stream(MASTER_SEED, 3).standard_normal(100)
        b = mr.rng_stream(MASTER_SEED, 3).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_uncorrelated(self):
        a = mr.rng_stream(MASTER_SEED, 0).standard_normal(10_000)
        b = mr.rng_stream(MASTER_SEED, 1).standard_normal(10_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05

    def test_gaussian_moments(self):
        draws = mr.rng_stream(MASTER_SEED, 0).standard_normal(1_000_000)
        se_mean = 1.0 / np.sqrt(draws.size)
        assert abs(draws.mean()) < 4 * se_mean
        se_var = np.sqrt(2.0 / draws.size)
        assert abs(draws.var() - 1.0) < 4 * se_var

    def test_distinct_workers_differ(self):
        a = mr.rng_stream(MASTER_SEED, 0).standard_normal(8)
        b = mr.rng_stream(MASTER_SEED, 1).standard_normal(8)
        assert not np.array_equal(a, b)


class TestSimulateChain:
    def test_noiseless_fixed_point(self, structure):
        model = make_ref_model(0.0)
        x_star = structure.centers[0]
        trace = mr.simulate_chain(model, structure, x_star, 500, MASTER_SEED)
        np.testing.assert_allclose(trace.final_position, x_star, atol=1e-12)
        assert trace.steps_in_ball[0] == 500
        assert trace.event_steps.size == 0

    @pytest.mark.parametrize("x0", [[0.5, 9.0], [], [[0.5]]])
    def test_malformed_start_rejected(self, structure, monkeypatch, x0):
        # only shape (1,) is a point of the 1D box; rejected before a draw
        monkeypatch.setattr(metareduce.montecarlo, "rng_stream", None)
        with pytest.raises(NumericError, match=r"x0 must have shape \(1,\)"):
            mr.simulate_chain(make_ref_model(0.4), structure, x0, 100, 7)

    def test_noiseless_generic_start_enters_basin(self, structure):
        model = make_ref_model(0.0)
        trace = mr.simulate_chain(model, structure, np.array([0.3]), 100,
                                  MASTER_SEED)
        # enters the positive ball during the transient and never exits
        assert trace.entry_counts[1] == 1
        assert trace.entry_counts[0] == 0
        assert trace.event_kinds.tolist() == [1]

    def test_both_balls_visited_at_reference_sigma(self, structure):
        model = make_ref_model(0.35)
        trace = mr.simulate_chain(model, structure, structure.centers[0],
                                  1_000_000, MASTER_SEED)
        assert set(trace.balls_visited.tolist()) == {0, 1}

    def test_reproducible_summaries(self, structure):
        model = make_ref_model(0.4)
        a = mr.simulate_chain(model, structure, structure.centers[0], 5000,
                              MASTER_SEED)
        b = mr.simulate_chain(model, structure, structure.centers[0], 5000,
                              MASTER_SEED)
        np.testing.assert_array_equal(a.event_steps, b.event_steps)
        np.testing.assert_array_equal(a.entry_counts, b.entry_counts)
        assert np.array_equal(a.final_position, b.final_position)

    def test_runaway_detected(self, structure):
        dim, pi, jac = build_map("linear", {"a": 3.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.1,
                                      "explode")
        with pytest.raises(Runaway):
            mr.simulate_chain(model, structure, np.array([1.0]), 200,
                              MASTER_SEED)

    @pytest.mark.parametrize("name,params,step", [
        ("linear", {"a": 3.0}, 6),
        # overflows to inf at the reported step
        ("cubic", {"a": 1.8, "b": -1.0}, 3),
    ])
    def test_runaway_step_reported(self, structure, name, params, step):
        dim, pi, jac = build_map(name, params)
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.1,
                                     "explode")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Runaway) as err:
                mr.simulate_chain(model, structure, np.array([1.0]), 200, 7)
        assert str(err.value) == f"|X_{step}| exceeded 100 diam(X)"
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("pi", [
        lambda x: 3.0 * x,          # grows past 100 diam(X)
        lambda x: 2.0 * x ** 3,     # its squares overflow to inf
        np.log,                     # NaN once a step lands below 0
    ], ids=["linear", "cubic", "log"])
    def test_runaway_step_is_the_row_sum(self, dim, pi):
        # the column-by-column |X|^2 reports the step that the row sum
        # (path * path).sum(axis=1) of first_far_step reports
        model = DeterministicMapModel(dim, pi, None, [[-2.0, 2.0]] * dim,
                                      np.eye(dim), 0.1, "explode")
        st = MetastableStructure(np.zeros((1, dim)), np.array([0.5]), 0.5)
        x0 = np.full(dim, 0.9)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert first_far_step(model, plain_path(model, x0, 3000, 7))
            assert_chain_is_plain(model, st, x0, 3000, 7)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_far_is_the_row_sum(self, dim):
        # |x|^2 column by column is the row sum's, bit for bit: each row
        # is inside a bound of its own row sum and outside the float below
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((4000, dim)) * 10.0 ** rng.integers(
            -170, 170, (4000, dim))
        x[:12] = np.array([[np.inf], [-np.inf], [np.nan], [1e200], [-0.0],
                           [5e-324], [1.5e154], [40.0], [np.inf], [np.nan],
                           [-1e200], [0.0]])[:, [0] * dim]
        x[12:24, 0] = [np.inf, -np.inf, np.nan, 1e200, 1.5e154, 0.0] * 2
        with np.errstate(over="ignore", invalid="ignore"):
            r2 = (x * x).sum(axis=1)
            for bound in (r2, np.nextafter(r2, -np.inf), 1600.0,
                          (100.0 * 4.0 * np.sqrt(dim)) ** 2, np.inf):
                np.testing.assert_array_equal(
                    _in_closed_ball(x, np.zeros(dim), bound), r2 <= bound)

    def test_exit_flagging(self, structure):
        model = make_ref_model(0.8)
        trace = mr.simulate_chain(model, structure, structure.centers[0],
                                  20_000, MASTER_SEED)
        assert trace.exits_from_box > 0


class TestSeededSimulation:
    """Fixed outputs for one seed: how the chain is stepped and its events
    are detected must not move them."""

    def test_1d_events(self, structure):
        t = mr.simulate_chain(make_ref_model(0.1), structure,
                              structure.centers[0], 150, 7)
        assert t.event_steps.tolist() == [59, 60, 66, 67, 107, 108, 112, 113,
                                          123, 124]
        assert t.event_balls.tolist() == [0] * 10
        assert t.event_kinds.tolist() == [-1, 1] * 5
        assert t.event_positions[:, 0].tolist() == [
            -1.2074769746770129, -0.901457624001704, -0.7185483432758819,
            -0.9882093602959565, -1.16212343913931, -1.07977477278331,
            -0.7400628546984057, -0.87934105954256, -1.1775353042309242,
            -0.8725488989467736]
        assert t.entry_counts.tolist() == [5, 0]
        assert t.steps_in_ball.tolist() == [145, 0]
        assert t.exits_from_box == 0
        assert t.final_position.tolist() == [-0.883858623910974]

    def test_2d_events(self, structure2d):
        t = mr.simulate_chain(tanh2d_model(0.07), structure2d,
                              structure2d.centers[0], 200, 7)
        assert t.event_steps.tolist() == [127, 128, 139, 142, 148, 149]
        assert t.event_balls.tolist() == [0] * 6
        assert t.event_kinds.tolist() == [-1, 1] * 3
        assert t.event_positions.tolist() == [
            [-0.8350760306935262, -0.7627483079767812],
            [-0.8652227076186906, -0.8597787800101471],
            [-1.1652239473485795, -0.921471174658668],
            [-0.9556275933113297, -1.0412262272631725],
            [-1.0743834266373695, -0.7129080570428071],
            [-1.0216154932564725, -1.0042990263825893]]
        assert t.entry_counts.tolist() == [3, 0, 0, 0]
        assert t.steps_in_ball.tolist() == [195, 0, 0, 0]
        assert t.exits_from_box == 0
        assert t.final_position.tolist() == [-1.0102488554539362,
                                             -0.9006034738978868]

    @pytest.mark.parametrize("dim,summary", [
        (1, (27027, 8, 946362267, -13513, 183679658, 289.85976752827,
             [6675, 6838], [9588, 9896], 974, [1.296506491293991])),
        (2, (8035, 0, 282373469, -4017, 48355064, -120.71263672370848,
             [1012, 1047, 977, 981], [1096, 1130, 1068, 1072], 1855,
             [1.1333641910731078, -1.3963529551587635])),
    ])
    def test_long_run_across_chunks(self, structure, structure2d, dim,
                                    summary):
        # 70k steps cross the 65,536-step chunk boundary; the 1D run has 8
        # steps with an exit and an entry, which must be logged in that order
        model, st = ((make_ref_model(0.5), structure) if dim == 1
                     else (tanh2d_model(0.5), structure2d))
        t = mr.simulate_chain(model, st, st.centers[0], 70_000, 7)
        k = np.arange(t.event_steps.size)
        assert (t.event_steps.size, int((np.diff(t.event_steps) == 0).sum()),
                int(t.event_steps.sum()), int(k @ t.event_kinds),
                int(k @ t.event_balls), float(t.event_positions.sum()),
                t.entry_counts.tolist(), t.steps_in_ball.tolist(),
                t.exits_from_box, t.final_position.tolist()) == summary

    def test_exit_logged_before_entry(self):
        # pi(x) = -x jumps between the two balls at every step
        dim, pi, jac = build_map("linear", {"a": -1.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.0,
                                      "flip")
        st = MetastableStructure(np.array([[-1.0], [1.0]]),
                                 np.array([0.5, 0.5]), 0.5)
        t = mr.simulate_chain(model, st, np.array([1.0]), 3, 7)
        assert t.event_steps.tolist() == [1, 1, 2, 2, 3, 3]
        assert t.event_balls.tolist() == [1, 0, 0, 1, 1, 0]
        assert t.event_kinds.tolist() == [-1, 1] * 3
        assert t.entry_counts.tolist() == [2, 1]
        assert t.steps_in_ball.tolist() == [2, 1]


def plain_path(model, x0, n_steps, seed):
    """The chain one step at a time, noise drawn in simulate_chain's
    chunks of CHUNK steps: the path simulate_chain must give bit for bit."""
    rng = mr.rng_stream(seed, 0)
    x, rows = np.atleast_1d(np.asarray(x0, float)), []
    chunk = metareduce.montecarlo.CHUNK
    for done in range(0, n_steps, chunk):
        take = min(chunk, n_steps - done)
        for z in model.noise(rng.standard_normal((take, model.dim))):
            x = model.pi(x) + z
            rows.append(x)
    return np.reshape(rows, (n_steps, model.dim))


def assert_trace_is_path(trace, model, structure, path):
    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)
    np.testing.assert_array_equal(bits(trace.event_positions),
                                  bits(path[trace.event_steps - 1]))
    np.testing.assert_array_equal(bits(trace.final_position), bits(path[-1]))
    ball = structure.ball_of(path)
    assert trace.steps_in_ball.tolist() == np.bincount(
        ball[ball >= 0], minlength=structure.n_balls).tolist()
    assert trace.exits_from_box == int((~model.in_box(path)).sum())


def flip_model(sigma):
    """pi(x) = -x: |pi'| = 1, so chains driven by the same noise never
    meet, and two balls at -1 and 1."""
    dim, pi, jac = build_map("linear", {"a": -1.0})
    model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], sigma,
                                  "flip")
    return model, MetastableStructure(np.array([[-1.0], [1.0]]),
                                      np.array([0.5, 0.5]), 0.5)


_BUILTIN = {}


def builtin_model(name, sigma):
    """A built-in map (or ``flip_model``) on [-2, 2]^d with identity
    covariance, and its structure at delta 0.2; built once per name."""
    if name == "flip":
        return flip_model(sigma)
    if name not in _BUILTIN:
        dim, pi, jac = build_map(name, MAP_PARAMS.get(name, {}))
        model = DeterministicMapModel(dim, pi, jac, [[-2.0, 2.0]] * dim,
                                      np.eye(dim), sigma, name)
        _BUILTIN[name] = model, mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.2)
    model, structure = _BUILTIN[name]
    return dataclasses.replace(model, sigma=sigma), structure


def first_far_step(model, path):
    """The first step (1-based) past 100 diam(X), or 0 if none is."""
    far = ~((path * path).sum(axis=1) <= (100.0 * model.diam) ** 2)
    return int(far.argmax()) + 1 if far.any() else 0


def assert_chain_is_plain(model, structure, x0, n_steps, seed):
    """simulate_chain is the plain loop bit for bit, or raises Runaway at
    the step where the plain loop first leaves 100 diam(X)."""
    with np.errstate(over="ignore", invalid="ignore"):
        path = plain_path(model, x0, n_steps, seed)
        step = first_far_step(model, path)
        if step:
            with pytest.raises(Runaway, match=rf"^\|X_{step}\|"):
                mr.simulate_chain(model, structure, x0, n_steps, seed)
            return
        trace = mr.simulate_chain(model, structure, x0, n_steps, seed)
    assert_trace_is_path(trace, model, structure, path)


def counting(model):
    """``model`` with ``pi`` wrapped in a counter of single-point and
    batched calls."""
    calls = {"point": 0, "batch": 0}

    def pi(x):
        calls["point" if x.ndim == 1 else "batch"] += 1
        return model.pi(x)
    return dataclasses.replace(model, pi=pi), calls


def switch_model(n_steps, kicks):
    """1D, pi(x) = 0 below 5 and x from 5 up: chains below 5 meet at their
    next step, chains above never meet.  The noise of step k is
    (-1)^k 1e-3, or z for k: z in ``kicks``, whatever normals are drawn
    (one chunk's worth), so a kick of +100 at a segment's last step sends
    every chain below 5 above it and a kick of -100 brings it back."""
    script = 1e-3 * (-1.0) ** np.arange(n_steps)
    script[list(kicks)] = list(kicks.values())

    class Scripted(DeterministicMapModel):
        def noise(self, z):
            return script[:len(z)].reshape(z.shape)

    model = Scripted(1, lambda x: np.where(x < 5.0, 0.0, x), None,
                     [[-200.0, 200.0]], [[1.0]], 1.0, "switch")
    return model, MetastableStructure(np.array([[0.0], [1.0]]),
                                      np.array([0.5, 0.5]), 0.5)


def switch_calls(n_steps, kicks):
    """simulate_chain on ``switch_model`` from 0.5, checked bit for bit
    against the plain loop; returns its point and batch pi calls."""
    model, st = switch_model(n_steps, kicks)
    counted, calls = counting(model)
    trace = mr.simulate_chain(counted, st, np.array([0.5]), n_steps, 0)
    assert_trace_is_path(trace, model, st,
                         plain_path(model, [0.5], n_steps, 0))
    return calls


class TestParallelInTime:
    """simulate_chain steps segments from the ball centres at once and
    keeps the path of the plain recursion bit for bit."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_every_builtin_map(self, name):
        model, st = builtin_model(name, 0.1)
        trace = mr.simulate_chain(model, st, st.centers[0], 5000, 7)
        assert_trace_is_path(trace, model, st,
                             plain_path(model, st.centers[0], 5000, 7))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_across_chunks_and_groups(self, structure, structure2d, dim):
        model, st = ((make_ref_model(0.5), structure) if dim == 1
                     else (tanh2d_model(0.4), structure2d))
        trace = mr.simulate_chain(model, st, st.centers[0], 70_000, 11)
        assert_trace_is_path(trace, model, st,
                             plain_path(model, st.centers[0], 70_000, 11))

    def test_correlated_covariance(self, structure2d):
        # C = [[1, 0.3], [0.3, 0.5]], not the identity; two chunks
        dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
        model = DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2,
                                      [[1.0, 0.3], [0.3, 0.5]], 0.4, "tanh2d")
        x0 = structure2d.centers[0]
        trace = mr.simulate_chain(model, structure2d, x0, 70_000, 11)
        assert_trace_is_path(trace, model, structure2d,
                             plain_path(model, x0, 70_000, 11))

    @pytest.mark.parametrize("n_steps", [1, 3000])
    def test_noiseless_from_off_centre(self, structure, n_steps):
        model = make_ref_model(0.0)
        trace = mr.simulate_chain(model, structure, np.array([0.3]), n_steps,
                                  7)
        assert_trace_is_path(trace, model, structure,
                             plain_path(model, [0.3], n_steps, 7))

    def test_shorter_than_one_segment(self, structure2d):
        model = tanh2d_model(0.4)
        x0 = np.array([0.2, -0.1])
        trace = mr.simulate_chain(model, structure2d, x0, 500, 7)
        assert_trace_is_path(trace, model, structure2d,
                             plain_path(model, x0, 500, 7))

    def test_never_coalescing_map(self):
        model, st = flip_model(1e-3)
        trace = mr.simulate_chain(model, st, np.array([0.9]), 5000, 7)
        assert_trace_is_path(trace, model, st,
                             plain_path(model, [0.9], 5000, 7))

    def test_few_plain_steps_where_chains_meet(self, structure2d):
        model, calls = counting(tanh2d_model(0.4))
        mr.simulate_chain(model, structure2d, structure2d.centers[0],
                          100_000, MASTER_SEED)
        assert calls["point"] <= 10_000

    def test_sweep_stops_where_chains_never_meet(self):
        model, st = flip_model(1e-3)
        model, calls = counting(model)
        mr.simulate_chain(model, st, np.array([0.9]), 100_000, 7)
        # one group is swept, then the rest is stepped plainly
        segment = metareduce.montecarlo.SEGMENT
        assert calls["batch"] <= segment
        assert calls["point"] + calls["batch"] <= 100_000 + segment

    def test_segment_starts_found_in_one_batch(self, structure2d):
        # each group's segment 1 steps alone until it meets a guess; the
        # other segments' starts are looked up from one candidate batch
        model, calls = counting(tanh2d_model(0.4))
        mr.simulate_chain(model, structure2d, structure2d.centers[0],
                          100_000, MASTER_SEED)
        assert calls["point"] <= 200
        assert calls["batch"] <= 1500

    def test_needed_start_never_meets(self):
        # segment 1 meets, so the candidates run; every guess of segment 2
        # ends at 100, where segment 3's start never meets, so segment 3
        # steps alone and segment 4 steps alone until it meets
        seg, every = (metareduce.montecarlo.SEGMENT,
                      metareduce.montecarlo.CHECK_EVERY)
        calls = switch_calls(6 * seg, {3 * seg - 1: 100.0, 4 * seg: -100.0})
        assert calls["point"] == seg + 2 * every
        assert calls["batch"] == 3 * seg

    def test_segment_one_misses_a_later_one_meets(self):
        # segment 0 ends at 100, so segment 1 never meets; segment 2 comes
        # back below 5 and meets, and the candidates run from segment 3
        seg, every = (metareduce.montecarlo.SEGMENT,
                      metareduce.montecarlo.CHECK_EVERY)
        calls = switch_calls(6 * seg, {seg - 1: 100.0, 2 * seg: -100.0})
        assert calls["point"] == seg + every
        assert calls["batch"] == 2 * seg + every

    @pytest.mark.parametrize("kicked", [False, True])
    @pytest.mark.parametrize("last", [1, 19])
    def test_short_last_segment(self, last, kicked):
        # a last segment shorter than a check (or than two) is looked up,
        # met while it stays at its end; after a kick to 100 its start
        # never meets and it steps alone
        seg, every = (metareduce.montecarlo.SEGMENT,
                      metareduce.montecarlo.CHECK_EVERY)
        kicks = {3 * seg - 1: 100.0} if kicked else {}
        calls = switch_calls(3 * seg + last, kicks)
        assert calls["point"] == every + kicked * last

    def test_runaway_in_swept_group(self):
        # near a well the segments meet, until a kick past the unstable
        # orbit at |x| = 1.67 diverges in a later segment of the first group
        model, st = builtin_model("cubic", 0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            path = plain_path(model, st.centers[0], 20_000, 0)
            step = first_far_step(model, path)
        assert 2 * metareduce.montecarlo.SEGMENT < step < 20_000
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(Runaway) as err:
                mr.simulate_chain(model, st, st.centers[0], 20_000, 0)
        assert str(err.value) == f"|X_{step}| exceeded 100 diam(X)"
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(name=st.sampled_from(builtin_names() + ["flip"]),
           sigma=st.sampled_from([0.05, 0.3]),
           segment=st.integers(2, 40),
           check_every=st.sampled_from([1, 3, 16]),
           chunk=st.tuples(st.integers(1, 8), st.sampled_from([-1, 0, 1])),
           segments=st.integers(1, 6), extra=st.sampled_from([-1, 0, 1]),
           where=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
           seed=st.integers(0, 1000))
    def test_sweep_is_the_plain_loop(self, name, sigma, segment,
                                     check_every, chunk, segments,
                                     extra, where, seed):
        # small segments and chunks of 1 to 8 segments, one step short or
        # over, split the run into many groups; runs of k segments, one
        # step short or over, from a point off the centres
        model, structure = builtin_model(name, sigma)
        lo, hi = model.box[:, 0], model.box[:, 1]
        x0 = lo + np.array(where[:model.dim]) * (hi - lo)
        n_steps = max(1, segments * segment + extra)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metareduce.montecarlo, "SEGMENT", segment)
            mp.setattr(metareduce.montecarlo, "CHECK_EVERY", check_every)
            mp.setattr(metareduce.montecarlo, "CHUNK",
                       chunk[0] * segment + chunk[1])
            assert_chain_is_plain(model, structure, x0, n_steps, seed)

    @pytest.mark.parametrize("check_every", [1, 3, 16])
    def test_small_segments_across_chunks(self, structure2d, monkeypatch,
                                          check_every):
        monkeypatch.setattr(metareduce.montecarlo, "SEGMENT", 100)
        monkeypatch.setattr(metareduce.montecarlo, "CHECK_EVERY",
                            check_every)
        # chunks of 3 segments and a step; the last chunk, 19 steps, is
        # stepped plainly
        monkeypatch.setattr(metareduce.montecarlo, "CHUNK", 301)
        assert_chain_is_plain(tanh2d_model(0.4), structure2d,
                              np.array([0.3, -1.2]), 65_536 + 101, 5)

    @pytest.mark.parametrize("n_steps", [1025, 2047, 2048, 2049])
    def test_last_segment_edges(self, structure2d, n_steps):
        # a 1-step last segment; a run of whole segments and one over
        assert_chain_is_plain(tanh2d_model(0.4), structure2d,
                              structure2d.centers[1], n_steps, 3)


def never_stepped():
    """A 1D model whose map fails the test if it is ever called."""
    def pi(x):
        raise AssertionError("stepped")

    return DeterministicMapModel(1, pi, None, [[-2, 2]], [[1.0]], 0.4,
                                 "never")


class TestEstimateCommittor:
    @pytest.mark.parametrize("workers,hits", [(1, 58), (3, 56)])
    def test_seeded_1d(self, structure, workers, hits):
        # fixed hit counts for one seed and block layout
        est = mr.estimate_committor(make_ref_model(0.5), structure, [(0, 1)],
                                    500, 7, workers=workers)[0]
        assert est.estimate == hits / 500

    @pytest.mark.parametrize("j,hits", [(1, 94), (3, 86)])
    def test_seeded_tanh2d(self, structure2d, j, hits):
        est = mr.estimate_committor(tanh2d_model(0.5), structure2d, [(0, j)],
                                    300, 7, workers=2)[0]
        assert est.estimate == hits / 300

    # (estimate, stderr) of each pair for one seed: the pairs are stepped
    # together, and each must keep its own start and streams 0, 1, ...
    TANH2D_PAIRS = [(i, j) for i in range(4) for j in range(4) if i != j]
    TANH2D_PINS = {
        1: [(0.34, 0.027349588662354686), (0.29, 0.026197964297504744),
            (0.30666666666666664, 0.02662218512332789),
            (0.3233333333333333, 0.027005486411029452),
            (0.27, 0.025632011235952594),
            (0.32666666666666666, 0.027077392510823216),
            (0.3233333333333333, 0.027005486411029452),
            (0.30666666666666664, 0.02662218512332789),
            (0.33, 0.027147743920996455),
            (0.31666666666666665, 0.026856959922826266),
            (0.3433333333333333, 0.027413838084414933),
            (0.3, 0.026457513110645904)],
        3: [(0.33666666666666667, 0.02728383051199753),
            (0.33, 0.027147743920996455),
            (0.24333333333333335, 0.024773791408275413),
            (0.2866666666666667, 0.02610803764417444),
            (0.29333333333333333, 0.026286174369104437),
            (0.37666666666666665, 0.027975518397871192),
            (0.3433333333333333, 0.027413838084414933),
            (0.30666666666666664, 0.02662218512332789),
            (0.3566666666666667, 0.027655955088404592),
            (0.3, 0.026457513110645904),
            (0.3566666666666667, 0.027655955088404592),
            (0.2966666666666667, 0.026372685083595842)],
    }
    REF_PINS = {1: [(0.116, 0.014320893826853127),
                    (0.136, 0.01532997064576446)],
                3: [(0.112, 0.014103616557464968),
                    (0.118, 0.014427473791346842)]}

    @pytest.mark.parametrize("workers", [1, 3])
    def test_seeded_all_pairs(self, structure, structure2d, workers):
        ests = mr.estimate_committor(tanh2d_model(0.5), structure2d,
                                     self.TANH2D_PAIRS, 300, 7,
                                     workers=workers)
        assert [(e.estimate, e.stderr) for e in ests] \
            == self.TANH2D_PINS[workers]
        ests = mr.estimate_committor(make_ref_model(0.5), structure,
                                     [(0, 1), (1, 0)], 500, 7,
                                     workers=workers)
        assert [(e.estimate, e.stderr) for e in ests] \
            == self.REF_PINS[workers]

    def test_same_ball_rejected_before_any_step(self, structure):
        with pytest.raises(NumericError, match="i != j"):
            mr.estimate_committor(never_stepped(), structure,
                                  [(0, 1), (1, 1)], 1000, MASTER_SEED)

    @pytest.mark.parametrize("pairs,match", [
        # -1 would wrap to ball 1 and name one ball twice
        ([(-1, 1)], r"ball index -1 outside \[0, 2\)"),
        ([(0, 1), (0, 2)], r"ball index 2 outside \[0, 2\)"),
        ([(20, 0)], r"ball index 20 outside \[0, 2\)"),
        ([], "at least one pair"),
    ])
    def test_bad_pairs_rejected_before_any_step(self, structure, pairs,
                                                match):
        with pytest.raises(NumericError, match=match):
            mr.estimate_committor(never_stepped(), structure, pairs, 200,
                                  MASTER_SEED)

    def test_zero_hit_pairs_read_zero(self):
        # pi(x) = 0: runs from balls 1 and 2 hit ball 0 at once, runs from
        # ball 0 return at once, so pairs (0, 1) and (0, 2) have no hits
        dim, pi, jac = build_map("linear", {"a": 0.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.01,
                                      "zero")
        st = MetastableStructure(np.array([[0.0], [1.5], [-1.5]]),
                                 np.array([0.5, 0.1, 0.1]), 0.1)
        ests = mr.estimate_committor(model, st, [(1, 0), (0, 2), (0, 1)], 100,
                                     MASTER_SEED)
        assert [(e.estimate, e.stderr, e.log_scale) for e in ests] == [
            (1.0, 0.0, 0.0), (0.0, 0.0, -np.inf), (0.0, 0.0, -np.inf)]
        assert [e.n_samples for e in ests] == [100, 100, 100]

    def test_step_cap_message(self, structure):
        with pytest.raises(SimulationTimeout) as err:
            mr.estimate_committor(make_ref_model(0.4), structure,
                                  [(0, 1), (1, 0)], 1000, MASTER_SEED,
                                  step_cap=1)
        assert str(err.value) == "committor run exceeded 1 steps"

    def test_overlap_counts_as_hit(self):
        # pi(x) = 0 puts every run inside both balls after one step
        dim, pi, jac = build_map("linear", {"a": 0.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.01,
                                      "zero")
        st = MetastableStructure(np.array([[0.2], [0.0]]),
                                 np.array([0.5, 0.5]), 0.5)
        est = mr.estimate_committor(model, st, [(0, 1)], 100, MASTER_SEED)[0]
        assert est.estimate == 1.0

    def test_same_ball_rejected(self, structure):
        with pytest.raises(NumericError):
            mr.estimate_committor(make_ref_model(0.4), structure, [(0, 0)],
                                  1000, MASTER_SEED)

    def test_symmetry_within_three_joint_se(self, structure):
        model = make_ref_model(0.4)
        a = mr.estimate_committor(model, structure, [(0, 1)], 10_000,
                                  MASTER_SEED)[0]
        b = mr.estimate_committor(model, structure, [(1, 0)], 10_000,
                                  MASTER_SEED + 1)[0]
        joint = np.hypot(a.stderr, b.stderr)
        assert abs(a.estimate - b.estimate) <= 3 * joint

    def test_deterministic_given_seed_and_workers(self, structure):
        model = make_ref_model(0.4)
        a = mr.estimate_committor(model, structure, [(0, 1)], 2000,
                                  MASTER_SEED, workers=4)[0]
        b = mr.estimate_committor(model, structure, [(0, 1)], 2000,
                                  MASTER_SEED, workers=4)[0]
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_worker_split_changes_stream(self, structure):
        model = make_ref_model(0.4)
        a = mr.estimate_committor(model, structure, [(0, 1)], 2000,
                                  MASTER_SEED, workers=1)[0]
        b = mr.estimate_committor(model, structure, [(0, 1)], 2000,
                                  MASTER_SEED, workers=2)[0]
        # different stream layout is a different (still valid) estimate
        assert abs(a.estimate - b.estimate) <= 5 * np.hypot(a.stderr, b.stderr)

    def test_zero_hits_flag(self, structure):
        model = make_ref_model(0.1)
        est, = mr.estimate_committor(model, structure, [(0, 1)], 200,
                                     MASTER_SEED)
        assert (est.estimate, est.stderr, est.log_scale) == (0.0, 0.0,
                                                             -np.inf)

    def test_log_scale_recorded(self, structure):
        model = make_ref_model(0.5)
        est = mr.estimate_committor(model, structure, [(0, 1)], 1000,
                                    MASTER_SEED)[0]
        assert est.log_scale == pytest.approx(0.25 * np.log(est.estimate))


class TestExactOracles:
    # HAND_K3 with B_i = {0}, B_j = {2}, C = {1}: from 1, q = 0.2 / (1 - 0.6)
    def test_committor_hand_values(self):
        p = exact_committor(kernel_from_matrix(HAND_K3), [0], [2])
        # p(0) = 0.2 + 0.3 q, p(1) = q, p(2) = 0.8 + 0.1 q
        np.testing.assert_allclose(p, [0.35, 0.5, 0.85], atol=1e-15)

    def test_hitting_times_hand_values(self):
        t = exact_hitting_times(kernel_from_matrix(HAND_K3), [0, 2])
        # E_1 tau = 1 / (1 - 0.6), E_0 tau = 1 + 0.3 E_1 tau,
        # E_2 tau = 1 + 0.1 E_1 tau
        np.testing.assert_allclose(t, [1.75, 2.5, 1.25], atol=1e-15)


class TestEstimateEx:
    def test_seeded_1d(self, structure):
        model = make_ref_model(0.5)
        est = mr.estimate_ex(model, structure, mr.Grid.from_box(model.box, 101),
                             100, 7, fixed_points=mr.find_fixed_points(model),
                             n_reps=20, workers=2)
        assert (est.estimate, est.stderr, est.n_samples) \
            == (6.4, 1.3810750960945721, 2120)

    @pytest.mark.parametrize("workers,pinned", [
        (1, (5.75, 1.2415503889979869)), (3, (5.7, 1.1518863248008278))])
    def test_seeded_1d_other_layouts(self, structure, workers, pinned):
        # start s draws from streams s * workers, ..., s * workers + w - 1
        model = make_ref_model(0.5)
        est = mr.estimate_ex(model, structure, mr.Grid.from_box(model.box, 101),
                             100, 7, fixed_points=mr.find_fixed_points(model),
                             n_reps=20, workers=workers)
        assert (est.estimate, est.stderr, est.n_samples) == (*pinned, 2120)

    def test_seeded_tanh2d(self, structure2d):
        model = tanh2d_model(0.5)
        est = mr.estimate_ex(model, structure2d, mr.Grid.from_box(model.box, 11),
                             100, 7, fixed_points=mr.find_fixed_points(model),
                             n_reps=10)
        assert (est.estimate, est.stderr, est.n_samples) \
            == (30.0, 10.20457413777436, 1660)

    def test_2d_starts_span_the_box(self, structure2d, monkeypatch):
        # every 10th node along each axis of a 101^2 grid, not every 102nd
        # node of the flat index, which lie on the diagonal x = y
        model = tanh2d_model(0.5)
        grid = mr.Grid.from_box(model.box, 101)
        starts = []
        run = metareduce.montecarlo._run

        def recording(model, groups, *args):
            starts.extend(tuple(x0) for x0, _, _ in groups)
            return run(model, groups, *args)

        monkeypatch.setattr(metareduce.montecarlo, "_run", recording)
        mr.estimate_ex(model, structure2d, grid, 100, 7, n_reps=2)
        lattice = [(x, y) for x in grid.axes[0][::10]
                   for y in grid.axes[1][::10]]
        assert starts == lattice

    def test_worst_case_is_order_one_at_large_sigma(self, structure):
        model = make_ref_model(0.8)
        grid = mr.Grid.from_box(model.box, 401)
        est = mr.estimate_ex(model, structure, grid, 100, MASTER_SEED,
                             n_reps=100)
        assert est.estimate < 20.0
        assert est.stderr > 0.0

    def test_unstable_neighborhood_included(self, structure):
        # the maximizing start is near the unstable point between the wells
        model = make_ref_model(0.3)
        grid = mr.Grid.from_box(model.box, 401)
        fps = mr.find_fixed_points(model)
        est = mr.estimate_ex(model, structure, grid, 100, MASTER_SEED,
                             fixed_points=fps, n_reps=200)
        assert est.estimate > 1.0

    def test_budget_precondition(self, structure):
        model = make_ref_model(0.4)
        grid = mr.Grid.from_box(model.box, 401)
        with pytest.raises(NumericError):
            mr.estimate_ex(model, structure, grid, 10, MASTER_SEED)


class TestDilutedTrace:
    def test_block_zero_is_start_ball(self, structure):
        model = make_ref_model(0.35)
        freqs, _ = mr.empirical_diluted_trace(model, structure, 0, 2, 3,
                                              1000, MASTER_SEED)
        assert freqs[0, 0] == 1.0 and freqs[1, 0] == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_no_blocks_is_the_start(self, structure, m):
        freqs, _ = mr.empirical_diluted_trace(make_ref_model(0.35), structure,
                                              1, m, 0, 1000, MASTER_SEED)
        np.testing.assert_array_equal(freqs, [[0.0], [1.0]])

    def test_symmetric_limit(self, structure):
        model = make_ref_model(0.4)
        freqs, ses = mr.empirical_diluted_trace(model, structure, 0, 2, 40,
                                                4000, MASTER_SEED)
        for j in (0, 1):
            assert abs(freqs[j, -1] - 0.5) <= 3 * ses[j, -1] + 1e-12

    @pytest.mark.parametrize("i", [-1, 2, 20])
    def test_bad_start_ball_rejected_before_any_step(self, structure, i):
        # -1 would run from the last ball
        with pytest.raises(NumericError,
                           match=rf"ball index {i} outside \[0, 2\)"):
            mr.empirical_diluted_trace(never_stepped(), structure, i, 1, 2,
                                       1000, MASTER_SEED)

    def test_past_step_cap_rejected_before_any_step(self, structure):
        # a step makes at most one visit to M, so 2 blocks of 2^63 visits
        # cannot end within 50 steps
        with pytest.raises(SimulationTimeout, match=r"over 50 steps$"):
            mr.empirical_diluted_trace(never_stepped(), structure, 0, 2 ** 63,
                                       2, 1000, MASTER_SEED, step_cap=50)

    def test_frequencies_sum_to_one(self, structure):
        model = make_ref_model(0.35)
        freqs, _ = mr.empirical_diluted_trace(model, structure, 1, 3, 5,
                                              1000, MASTER_SEED)
        np.testing.assert_allclose(freqs.sum(axis=0), 1.0, atol=1e-12)

    def test_seeded_counts_unchanged(self, structure):
        # fixed counts for one seed and block layout: how the runs are
        # stepped and tallied must not move them
        freqs, _ = mr.empirical_diluted_trace(make_ref_model(0.5), structure,
                                              0, 3, 4, 1000, 7, workers=2)
        counts = np.rint(freqs * 1000).astype(int)
        np.testing.assert_array_equal(counts, [[1000, 731, 606, 555, 510],
                                               [0, 269, 394, 445, 490]])

    @pytest.mark.parametrize("start,workers", [(0, 1), (1, 3)])
    def test_every_block_counts_every_run(self, structure, start, workers):
        n_runs = 1500
        freqs, _ = mr.empirical_diluted_trace(make_ref_model(0.4), structure,
                                              start, 2, 6, n_runs,
                                              MASTER_SEED, workers=workers)
        counts = np.rint(freqs * n_runs).astype(int)
        np.testing.assert_allclose(freqs * n_runs, counts, atol=1e-9)
        assert (counts.sum(axis=0) == n_runs).all()

    def test_reproducible(self, structure):
        model = make_ref_model(0.35)
        a, _ = mr.empirical_diluted_trace(model, structure, 0, 2, 5, 1000,
                                          MASTER_SEED, workers=3)
        b, _ = mr.empirical_diluted_trace(model, structure, 0, 2, 5, 1000,
                                          MASTER_SEED, workers=3)
        np.testing.assert_array_equal(a, b)


class TestPlainEngine:
    """Every estimator, bit for bit, against conftest's plain stepper,
    which draws and maps one worker block at a time and tests the balls
    one by one."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_committor(self, structure, structure2d, workers):
        # all 12 ordered tanh2d pairs: every run tests its own two balls
        for model, st, pairs, n_runs in (
                (make_ref_model(0.5), structure, [(0, 1), (1, 0)], 300),
                (tanh2d_model(0.5), structure2d,
                 list(itertools.permutations(range(4), 2)), 100)):
            ests = mr.estimate_committor(model, st, pairs, n_runs, 7,
                                         workers=workers)
            hits = plain_committor(model, st, pairs, n_runs, 7, workers)
            assert [e.estimate for e in ests] == (hits / n_runs).tolist()

    @pytest.mark.parametrize("sigma", [0.01, 0.5])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_committor_overlapping_balls(self, sigma, workers):
        # pi(x) = 0, so every run lands near 0: at sigma 0.01 in both balls
        # (a hit), at 0.5 in one, both or none
        dim, pi, jac = build_map("linear", {"a": 0.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], sigma,
                                      "zero")
        st = MetastableStructure(np.array([[0.2], [0.0]]),
                                 np.array([0.5, 0.5]), 0.5)
        pairs = [(0, 1), (1, 0)]
        ests = mr.estimate_committor(model, st, pairs, 200, MASTER_SEED,
                                     workers=workers)
        hits = plain_committor(model, st, pairs, 200, MASTER_SEED, workers)
        assert [e.estimate for e in ests] == (hits / 200).tolist()
        if sigma == 0.01:
            assert hits.tolist() == [200, 200]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_hitting_time(self, structure, structure2d, monkeypatch,
                          workers):
        run, groups = metareduce.montecarlo._run, []

        def recording(model, g, *args):
            groups[:] = g
            return run(model, g, *args)

        monkeypatch.setattr(metareduce.montecarlo, "_run", recording)
        for model, st, nodes in ((make_ref_model(0.5), structure, 101),
                                 (tanh2d_model(0.5), structure2d, 11)):
            grid = mr.Grid.from_box(model.box, nodes)
            est = mr.estimate_ex(model, st, grid, 100, 7,
                                 fixed_points=mr.find_fixed_points(model),
                                 n_reps=10, workers=workers)
            runs = plain_hitting_steps(model, st, groups, 7,
                                       workers).reshape(-1, 10)
            t = runs[runs.mean(axis=1).argmax()]
            assert (est.estimate, est.stderr) \
                == (t.mean(), t.std(ddof=1) / np.sqrt(10))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_diluted_trace(self, structure, structure2d, workers):
        for model, st, i, m in ((make_ref_model(0.5), structure, 0, 3),
                                (tanh2d_model(0.5), structure2d, 2, 1)):
            freqs, _ = mr.empirical_diluted_trace(model, st, i, m, 4, 1000, 7,
                                                  workers=workers)
            counts = plain_diluted_trace(model, st, i, m, 4, 1000, 7, workers)
            np.testing.assert_array_equal(freqs, counts / 1000)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("sigma", [0.01, 0.5])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_diluted_trace_overlapping_balls(self, sigma, workers, m):
        # the set-up of test_committor_overlapping_balls: a point in both
        # balls is tallied in the first; with m = 1 every visit is due
        dim, pi, jac = build_map("linear", {"a": 0.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], sigma,
                                      "zero")
        st = MetastableStructure(np.array([[0.2], [0.0]]),
                                 np.array([0.5, 0.5]), 0.5)
        for i in (0, 1):
            freqs, _ = mr.empirical_diluted_trace(model, st, i, m, 4, 1000,
                                                  MASTER_SEED, workers=workers)
            counts = plain_diluted_trace(model, st, i, m, 4, 1000,
                                         MASTER_SEED, workers)
            np.testing.assert_array_equal(freqs, counts / 1000)
            if sigma == 0.01:       # every visit lands in both: ball 0
                assert (counts[0, 1:] == 1000).all()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pairs_together_equal_pairs_alone(self, structure, structure2d,
                                              dim):
        # d = 1 and a diagonal covariance: a noise row does not depend on
        # the batch, so a pair's estimate is bit for bit that of it alone
        model, st = ((make_ref_model(0.5), structure) if dim == 1
                     else (tanh2d_model(0.5), structure2d))
        pairs = list(itertools.permutations(range(st.n_balls), 2))
        together = mr.estimate_committor(model, st, pairs, 200, 7, workers=2)
        alone = [mr.estimate_committor(model, st, [p], 200, 7, workers=2)[0]
                 for p in pairs]
        assert together == alone

    @pytest.mark.parametrize("tape_bytes", [None, 8 * 3000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_tape_for_every_call(self, structure, monkeypatch, workers,
                                     tape_bytes):
        # the calls of a command in turn, all reading one tape; a small cap
        # sends the later reads past the tape's end
        monkeypatch.setattr(metareduce.montecarlo, "TAPE_CHUNK", 1000)
        if tape_bytes is not None:
            monkeypatch.setattr(metareduce.montecarlo, "TAPE_BYTES",
                                tape_bytes)
        tape, pairs = Normals(7), [(0, 1), (1, 0)]
        for sigma in (0.5, 0.4):
            model = make_ref_model(sigma)
            ests = mr.estimate_committor(model, structure, pairs, 300, tape,
                                         workers=workers)
            hits = plain_committor(model, structure, pairs, 300, 7, workers)
            assert [e.estimate for e in ests] == (hits / 300).tolist()
            freqs, _ = mr.empirical_diluted_trace(model, structure, 0, 3, 4,
                                                  1000, tape, workers=workers)
            counts = plain_diluted_trace(model, structure, 0, 3, 4, 1000, 7,
                                         workers)
            np.testing.assert_array_equal(freqs, counts / 1000)
        assert 0 < recorded(tape) <= (tape_bytes
                                      or metareduce.montecarlo.TAPE_BYTES)

    def test_every_block_past_the_tape_end(self, structure2d, monkeypatch):
        # 12 pairs x 2 workers: with a tape of 3,000 normals every one of
        # the 24 blocks goes on past its stream's end with a generator
        monkeypatch.setattr(metareduce.montecarlo, "TAPE_BYTES", 8 * 3000)
        read, past = Normals.read, set()

        def watched(self, w, at, n, parts):
            after = read(self, w, at, n, parts)
            if not isinstance(after, int):
                past.add(id(after))
            return after

        monkeypatch.setattr(Normals, "read", watched)
        model, pairs = tanh2d_model(0.5), list(
            itertools.permutations(range(4), 2))
        ests = mr.estimate_committor(model, structure2d, pairs, 100, 7,
                                     workers=2)
        hits = plain_committor(model, structure2d, pairs, 100, 7, 2)
        assert [e.estimate for e in ests] == (hits / 100).tolist()
        assert len(past) == 24

    def test_fewer_runs_than_workers_rejected(self, structure):
        # raised before any stream is made or any step taken
        with pytest.raises(NumericError, match="100 runs cannot fill 101"):
            mr.estimate_committor(make_ref_model(0.5), structure, [(0, 1)],
                                  100, 7, workers=101)


class TestEngineProperties:
    """Derandomized draws of the estimators' layouts and tape sizes, each
    bit for bit against conftest's plain stepper.  Run counts are odd and
    no multiple of 3, so worker blocks differ in size; a tape of at most
    65,536 normals sends most draws' later reads past its end."""

    @staticmethod
    def system(two_d, structure, structure2d, sigma=0.5):
        return ((tanh2d_model(sigma), structure2d) if two_d
                else (make_ref_model(sigma), structure))

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), two_d=st.booleans(), m=st.integers(1, 4),
           n_blocks=st.integers(0, 6), workers=st.integers(1, 3),
           n_runs=st.sampled_from([1001, 1003, 1007]),
           sigma=st.sampled_from([0.4, 0.5]),
           tape=st.integers(0, 1 << 16))
    def test_diluted_trace(self, structure, structure2d, data, two_d, m,
                           n_blocks, workers, n_runs, sigma, tape):
        model, balls = self.system(two_d, structure, structure2d, sigma)
        i = data.draw(st.integers(0, balls.n_balls - 1), label="start")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metareduce.montecarlo, "TAPE_BYTES", 8 * tape)
            freqs, _ = mr.empirical_diluted_trace(model, balls, i, m, n_blocks,
                                                  n_runs, 7, workers=workers)
        counts = plain_diluted_trace(model, balls, i, m, n_blocks, n_runs, 7,
                                     workers)
        np.testing.assert_array_equal(freqs, counts / n_runs)

    @settings(max_examples=12, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), two_d=st.booleans(), workers=st.integers(1, 3),
           n_runs=st.sampled_from([101, 103, 107]),
           tape=st.integers(0, 1 << 16))
    def test_committor(self, structure, structure2d, data, two_d, workers,
                       n_runs, tape):
        model, balls = self.system(two_d, structure, structure2d)
        pairs = data.draw(st.lists(st.sampled_from(list(
            itertools.permutations(range(balls.n_balls), 2))), min_size=1,
            max_size=4, unique=True), label="pairs")
        hits = plain_committor(model, balls, pairs, n_runs, 7, workers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metareduce.montecarlo, "TAPE_BYTES", 8 * tape)
            ests = mr.estimate_committor(model, balls, pairs, n_runs, 7,
                                         workers=workers)
        assert [e.estimate for e in ests] == (hits / n_runs).tolist()

    @settings(max_examples=8, deadline=None, derandomize=True,
              database=None)
    @given(two_d=st.booleans(), workers=st.integers(1, 3),
           n_reps=st.sampled_from([5, 7, 11]), tape=st.integers(0, 1 << 16))
    def test_hitting_time(self, structure, structure2d, two_d, workers,
                          n_reps, tape):
        model, balls = self.system(two_d, structure, structure2d)
        grid = mr.Grid.from_box(model.box, 11 if two_d else 101)
        run, groups = metareduce.montecarlo._run, []

        def recording(model, g, *args):
            groups[:] = g
            return run(model, g, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metareduce.montecarlo, "_run", recording)
            mp.setattr(metareduce.montecarlo, "TAPE_BYTES", 8 * tape)
            est = mr.estimate_ex(model, balls, grid, 100, 7,
                                 fixed_points=mr.find_fixed_points(model),
                                 n_reps=n_reps, workers=workers)
        runs = plain_hitting_steps(model, balls, groups, 7,
                                   workers).reshape(-1, n_reps)
        t = runs[runs.mean(axis=1).argmax()]
        assert (est.estimate, est.stderr) \
            == (t.mean(), t.std(ddof=1) / np.sqrt(n_reps))


def recorded(tape):
    """Bytes of the chunks a tape holds."""
    return sum(c.nbytes for chunks, _, _ in tape.streams.values()
               for c in chunks)


class TestNormals:
    """One tape, many readers, each at its own position: each reads its
    stream as one fresh generator would, however the reads are split and
    interleaved."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(chunk=st.integers(1, 9), cap=st.integers(0, 40),
           reads=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 25),
                                    st.sampled_from([1, 2])), max_size=30))
    def test_readers_replay_their_streams(self, chunk, cap, reads):
        # readers 0, 1 and 3 share stream 0, reader 2 reads stream 1 alone
        streams = [0, 0, 1, 0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metareduce.montecarlo, "TAPE_CHUNK", chunk)
            mp.setattr(metareduce.montecarlo, "TAPE_BYTES", 8 * cap)
            tape = Normals(MASTER_SEED)
            at = [0] * len(streams)
            got = [[] for _ in streams]
            for k, n, d in reads:
                at[k] = tape.read(streams[k], at[k], n * d, got[k])
                assert recorded(tape) <= 8 * cap
        for w, parts in zip(streams, got):
            z = np.concatenate([np.empty(0), *parts])
            want = mr.rng_stream(MASTER_SEED, w).standard_normal(z.size)
            assert z.tobytes() == want.tobytes()

    def test_stream_drawn_once_for_many_readers(self, monkeypatch):
        monkeypatch.setattr(metareduce.montecarlo, "TAPE_CHUNK", 100)
        tape = Normals(MASTER_SEED)
        for _ in range(3):
            tape.read(0, 0, 250, [])
        assert sum(c.size for c in tape.streams[0][0]) == 250

    @pytest.mark.parametrize("cap", [None, 700])
    def test_cached_tape_replays_its_streams(self, tmp_path, monkeypatch,
                                             cap):
        # a tape saves 300 normals of stream 0 and 200 of stream 1; a tape
        # loading them reads inside, across and past that stretch as a fresh
        # generator does; a cap of 700 normals sends its last reads past it
        monkeypatch.setattr(metareduce.montecarlo, "TAPE_CHUNK", 100)
        if cap is not None:
            monkeypatch.setattr(metareduce.montecarlo, "TAPE_BYTES", 8 * cap)
        first = Normals(MASTER_SEED, tmp_path)
        for w, n in ((0, 300), (1, 200)):
            first.read(w, 0, n, [])
        first.save()
        tape, at, parts = Normals(MASTER_SEED, tmp_path), [0, 0], [[], []]
        for n in (150, 100, 200, 350, 250):
            for w in (0, 1):
                at[w] = tape.read(w, at[w], n, parts[w])
        for w in (0, 1):
            want = mr.rng_stream(MASTER_SEED, w).standard_normal(1050)
            assert np.concatenate(parts[w]).tobytes() == want.tobytes()
        assert tape.cached == {0: 300, 1: 200}
        assert [len(tape.streams[w][0][0]) for w in (0, 1)] == [300, 200]
        # loaded normals count toward the cap
        assert 8 * 500 <= recorded(tape) <= 8 * (cap or 2 * 1100)

    def test_load_past_the_cap_is_skipped(self, tmp_path, monkeypatch):
        # 300 normals of stream 0 are loaded; stream 1's 200 would pass a
        # cap of 450, so it is drawn afresh, recording 100, and its longer
        # entry is kept
        first = Normals(MASTER_SEED, tmp_path)
        for w, n in ((0, 300), (1, 200)):
            first.read(w, 0, n, [])
        first.save()
        entries = {p: p.read_bytes() for p in tmp_path.rglob("*.bin")}
        monkeypatch.setattr(metareduce.montecarlo, "TAPE_BYTES", 8 * 450)
        tape, at, parts = Normals(MASTER_SEED, tmp_path), [0, 0], [[], []]
        for w, n in ((0, 250), (1, 100), (1, 150)):
            at[w] = tape.read(w, at[w], n, parts[w])
        assert tape.cached == {0: 300, 1: 200}
        assert [tape.streams[w][1] for w in (0, 1)] == [[0, 300], [0, 100]]
        for w, z in enumerate(parts):
            want = mr.rng_stream(MASTER_SEED, w).standard_normal(250)
            assert np.concatenate(z).tobytes() == want.tobytes()
        tape.save()
        assert {p: p.read_bytes() for p in entries} == entries

    def test_short_entry_is_a_miss(self, tmp_path):
        # fewer words than the Philox state: the stream is drawn afresh
        tape = Normals(MASTER_SEED, tmp_path)
        save_entry(tmp_path, "normals", dict(tape.meta, stream=0),
                   [np.zeros(12)])
        parts = []
        tape.read(0, 0, 5, parts)
        assert tape.cached == {0: 0}
        want = mr.rng_stream(MASTER_SEED, 0).standard_normal(5)
        assert parts[0].tobytes() == want.tobytes()


class TestFitLogScaling:
    def test_exact_line_recovered(self):
        sigmas = np.array([0.5, 0.4, 0.3, 0.25])
        values = 2.0 * np.log(1.0 / sigmas) + 1.0
        a, b, r2 = fit_log_scaling(sigmas, values)
        assert a == pytest.approx(2.0)
        assert b == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_flat_data_r2_zero(self):
        a, b, r2 = fit_log_scaling([0.5, 0.4, 0.3], [2.0, 2.0, 2.0])
        assert r2 == 0.0
