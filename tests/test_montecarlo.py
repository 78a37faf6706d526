"""RNG streams, chain simulation, committor/hitting estimators, diluted trace."""

import warnings

import numpy as np
import pytest

import metareduce as mr
from metareduce.errors import (NumericError, Runaway, SimulationTimeout,
                               ZeroHits)
from metareduce.dynamics import DeterministicMapModel, MetastableStructure
from metareduce.maps import build_map
from metareduce.montecarlo import fit_log_scaling

from conftest import (HAND_K3, MASTER_SEED, exact_committor,
                      exact_hitting_times, kernel_from_matrix, make_ref_model)


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
        def pi(x):
            raise AssertionError("stepped")

        model = DeterministicMapModel(1, pi, None, [[-2, 2]], [[1.0]], 0.4,
                                      "never")
        with pytest.raises(NumericError, match="i != j"):
            mr.estimate_committor(model, structure, [(0, 1), (1, 1)], 1000,
                                  MASTER_SEED)

    def test_first_zero_hit_pair_raises(self):
        # pi(x) = 0: runs from balls 1 and 2 hit ball 0 at once, runs from
        # ball 0 return at once, so pairs (0, 1) and (0, 2) have no hits
        dim, pi, jac = build_map("linear", {"a": 0.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.01,
                                      "zero")
        st = MetastableStructure(np.array([[0.0], [1.5], [-1.5]]),
                                 np.array([0.5, 0.1, 0.1]), 0.1)
        ests = mr.estimate_committor(model, st, [(1, 0), (2, 0)], 100,
                                     MASTER_SEED)
        assert [e.estimate for e in ests] == [1.0, 1.0]
        with pytest.raises(ZeroHits) as err:
            mr.estimate_committor(model, st, [(1, 0), (0, 2), (0, 1)], 100,
                                  MASTER_SEED)
        assert str(err.value) == "no run from ball 0 reached ball 2"
        assert err.value.upper_bound == 3 / 100

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
        with pytest.raises(ZeroHits) as err:
            mr.estimate_committor(model, structure, [(0, 1)], 200,
                                  MASTER_SEED)
        assert err.value.upper_bound == pytest.approx(3 / 200)

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

    def test_symmetric_limit(self, structure):
        model = make_ref_model(0.4)
        freqs, ses = mr.empirical_diluted_trace(model, structure, 0, 2, 40,
                                                4000, MASTER_SEED)
        for j in (0, 1):
            assert abs(freqs[j, -1] - 0.5) <= 3 * ses[j, -1] + 1e-12

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
