"""Fixed points, stability classification, metastable balls, drift."""

import numpy as np
import pytest

import metareduce as mr
from metareduce.dynamics import (DeterministicMapModel, FixedPointRecord,
                                 MetastableStructure)
from metareduce.errors import (BallConstructionFailed, DriftViolated,
                               MarginalFixedPoint, NoStableFixedPoint)
from metareduce.maps import build_map

from conftest import make_ref_model


def bisect_root(f, lo, hi, tol=1e-14):
    """Independent scalar root oracle for the fixed-point checks."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def linear_model(a, box=(-1.0, 1.0), sigma=0.3):
    dim, pi, jac = build_map("linear", {"a": a})
    return DeterministicMapModel(1, pi, jac, [list(box)], [[1.0]], sigma,
                                 f"linear_{a}")


class TestFindFixedPoints:
    def test_tanh_double_well(self):
        model = make_ref_model(0.35)
        records = mr.find_fixed_points(model)
        assert len(records) == 3
        # oracle: bisection on x - tanh(2x) over [0.5, 1.5]
        x_star = bisect_root(lambda x: x - np.tanh(2 * x), 0.5, 1.5)
        stable = [r for r in records if r.is_stable]
        unstable = [r for r in records if not r.is_stable]
        assert len(stable) == 2 and len(unstable) == 1
        np.testing.assert_allclose(
            sorted(float(r.location[0]) for r in stable),
            [-x_star, x_star], atol=1e-9)
        assert abs(unstable[0].location[0]) < 1e-8
        assert unstable[0].spectral_radius == pytest.approx(2.0, abs=1e-9)
        rho = 2.0 * (1.0 - x_star ** 2)
        assert rho < 1
        for r in stable:
            assert r.spectral_radius == pytest.approx(rho, abs=1e-9)
        # indices assigned lexicographically
        assert [r.index for r in sorted(stable, key=lambda r: r.location[0])] \
            == [1, 2]

    def test_single_well_flagged_not_error(self):
        records = mr.find_fixed_points(linear_model(0.5))
        stable = [r for r in records if r.is_stable]
        assert len(stable) == 1
        assert stable[0].location == pytest.approx(0.0, abs=1e-11)
        assert stable[0].spectral_radius == pytest.approx(0.5)

    def test_identity_map_rejected(self):
        with pytest.raises(MarginalFixedPoint):
            mr.find_fixed_points(linear_model(1.0))

    def test_expanding_map_no_stable(self):
        with pytest.raises(NoStableFixedPoint):
            mr.find_fixed_points(linear_model(1.5))

    def test_indexing_independent_of_seed_lattice(self):
        model = make_ref_model(0.35)
        a = mr.find_fixed_points(model, seeds_per_axis=8)
        b = mr.find_fixed_points(model, seeds_per_axis=17)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            np.testing.assert_allclose(ra.location, rb.location, atol=1e-9)
            assert ra.index == rb.index

    def test_newton_residual_bound(self):
        model = make_ref_model(0.35)
        for r in mr.find_fixed_points(model):
            res = np.linalg.norm(np.atleast_1d(model.pi(r.location))
                                 - r.location)
            assert res <= 1e-10 * model.diam

    @pytest.mark.parametrize("name,params", [
        ("tanh", {"beta": 2.0}), ("tanh2d", {"beta": [2.0, 2.0]})])
    def test_seed_lattice_is_one_batch(self, name, params):
        # seed-by-seed Newton maps one point per call: 58 and 748 calls
        dim, pi, jac = build_map(name, params)
        calls = []

        def counted(x):
            calls.append(1)
            return pi(x)

        model = DeterministicMapModel(dim, counted, jac, [[-2, 2]] * dim,
                                      np.eye(dim), 0.35, name)
        assert len(mr.find_fixed_points(model)) == 3 ** dim
        assert len(calls) <= 10

    @pytest.mark.parametrize("name,params,box", [
        ("tanh", {"beta": 2.0}, [[-2, 2]]),
        ("poly", {"coeffs": [0.02, 0.76, 0.0, 0.3, 0.0, -0.06]},
         [[-2.5, 2.5]]),
        ("coupled2d", {"beta": [1.5, 2.5], "gamma": 0.5}, [[-2, 2], [-2, 2]])])
    def test_batch_matches_newton_seed_by_seed(self, name, params, box):
        dim, pi, jac = build_map(name, params)
        model = DeterministicMapModel(dim, pi, jac, box, np.eye(dim), 0.35,
                                      name)
        diam, eye = model.diam, np.eye(dim)
        found = []
        for x in mr.Grid.from_box(model.box, 12).points():
            for _ in range(100):
                F = pi(x) - x
                if np.linalg.norm(F) <= 1e-10 * diam:
                    if model.in_box(x):
                        found.append(x)
                    break
                try:
                    step = np.linalg.solve(jac(x) - eye, F)
                except np.linalg.LinAlgError:
                    break
                if (not np.isfinite(step).all()
                        or np.linalg.norm(step) > diam):
                    break
                x = x - step
        found.sort(key=tuple)
        roots = []
        for x in found:
            if all(np.linalg.norm(x - y) > 1e-6 * diam for y in roots):
                roots.append(x)
        records = mr.find_fixed_points(model, 12)
        assert [r.location.tobytes() for r in records] \
            == [x.tobytes() for x in roots]


class TestClassifyStability:
    def test_scalar_contraction(self):
        assert mr.classify_stability([[0.5]]) == (0.5, "stable")

    def test_rotation_expansion(self):
        # eigenvalues of [[0,2],[-2,0]] are +-2i (hand characteristic poly)
        rho, tag = mr.classify_stability([[0.0, 2.0], [-2.0, 0.0]])
        assert rho == pytest.approx(2.0, abs=1e-12)
        assert tag == "unstable"

    def test_marginal(self):
        assert mr.classify_stability([[1.0]]) == (1.0, "marginal")


class TestMetastableStructure:
    def test_tanh_balls(self):
        model = make_ref_model(0.35)
        fps = mr.find_fixed_points(model)
        st = mr.build_metastable_structure(model, fps, 0.2)
        assert st.n_balls == 2
        np.testing.assert_allclose(st.radii, [0.2, 0.2])
        # numerical invariance oracle at the 1D ball endpoints
        x_star = float(st.centers[1][0])
        for e in (0.2, -0.2):
            assert abs(np.tanh(2 * (x_star + e)) - x_star) < 0.2

    def test_disjointness_forces_shrink(self):
        # identity map keeps every ball invariant, so only disjointness binds
        model = DeterministicMapModel(
            1, lambda x: x, lambda x: np.eye(1), [[-3, 3]], [[1.0]], 0.3, "id")
        fps = [FixedPointRecord(np.array([-1.0]), 0.0, "stable", 1),
               FixedPointRecord(np.array([1.0]), 0.0, "stable", 2)]
        st = mr.build_metastable_structure(model, fps, 1.5)
        assert st.radii[0] + st.radii[1] < 2.0
        np.testing.assert_allclose(st.radii, [0.75, 0.75])

    def test_single_ball(self):
        model = linear_model(0.5)
        st = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.1)
        assert st.n_balls == 1

    def test_floor_raises(self):
        # expanding-away map never satisfies invariance
        model = DeterministicMapModel(
            1, lambda x: 1.0 + 2.0 * (x - 1.0), lambda x: 2 * np.eye(1),
            [[-3, 3]], [[1.0]], 0.3, "expand")
        fps = [FixedPointRecord(np.array([1.0]), 2.0, "stable", 1)]
        with pytest.raises(BallConstructionFailed):
            mr.build_metastable_structure(model, fps, 0.5)

    def test_deterministic_output(self):
        model = make_ref_model(0.35)
        fps = mr.find_fixed_points(model)
        a = mr.build_metastable_structure(model, fps, 0.2)
        b = mr.build_metastable_structure(model, fps, 0.2)
        np.testing.assert_array_equal(a.radii, b.radii)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_ball_of_closed_boundary(self):
        model = make_ref_model(0.35)
        st = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.2)
        edge = st.centers[0] + np.array([st.radii[0]])
        assert st.ball_of(edge) == 0

    @pytest.mark.parametrize("name,params,nodes,sizes", [
        ("linear", {"a": 0.5}, 101, [11]),
        ("linear", {"a": 0.5}, 201, [21]),
        ("linear", {"a": 0.5}, 401, [41]),
        ("tanh", {"beta": 2.0}, 401, [40, 40])])
    def test_in_ball_is_grid_membership(self, name, params, nodes, sizes):
        # on [-2, 2] the linear ball's rim node is 0.20000000000000018,
        # whose squared distance exceeds 0.2^2 by less than the slack: the
        # grid and the Monte Carlo estimators must both count it in
        dim, pi, jac = build_map(name, params)
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.3,
                                      name)
        st = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.2)
        grid = mr.Grid.from_box(model.box, nodes)
        balls, _, _ = grid.membership(st)
        assert [b.size for b in balls] == sizes
        for k, ball in enumerate(balls):
            np.testing.assert_array_equal(
                np.where(st.in_ball(grid.points(), k))[0], ball)


class TestLyapunovDrift:
    def test_tanh_drift_negative(self):
        model = make_ref_model(0.3)
        rep = mr.check_lyapunov_drift(model)
        assert rep.max_drift < 0
        assert rep.contraction_ok
        # closed-form oracle at x = 1.5: tanh(3)^2 + 0.09 - 2.25
        drift = np.tanh(3.0) ** 2 + 0.09 - 2.25
        assert drift == pytest.approx(-1.16987, abs=1e-4)
        assert drift < 0

    def test_noiseless_contracting(self):
        dim, pi, jac = build_map("tanh", {"beta": 2.0})
        model = DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.0,
                                      "tanh")
        rep = mr.check_lyapunov_drift(model)
        assert rep.max_drift < 0

    def test_drift_measured_from_box_centre(self):
        # the reference map translated by 3 onto the box [1, 5]: the same
        # samples relative to the centre see the same drift
        dim, pi, jac = build_map("tanh", {"beta": 2.0})
        shifted = DeterministicMapModel(
            1, lambda x: pi(x - 3.0) + 3.0, lambda x: jac(x - 3.0),
            [[1.0, 5.0]], [[1.0]], 0.3, "tanh-shifted")
        rep = mr.check_lyapunov_drift(shifted)
        ref = mr.check_lyapunov_drift(make_ref_model(0.3))
        assert rep.max_drift == pytest.approx(ref.max_drift, abs=1e-12)
        assert rep.contraction_ok == ref.contraction_ok

    def test_expanding_map_violates(self):
        model = linear_model(2.0)
        with pytest.raises(DriftViolated) as err:
            mr.check_lyapunov_drift(model)
        assert err.value.drift >= 0
        assert err.value.sample is not None


class TestModelValidation:
    def test_reference_model_validates(self):
        assert make_ref_model(0.35).validate()

    def test_jacobian_mismatch_detected(self):
        dim, pi, _ = build_map("tanh", {"beta": 2.0})
        bad = DeterministicMapModel(1, pi, lambda x: np.array([[0.0]]),
                                    [[-2, 2]], [[1.0]], 0.35, "bad")
        with pytest.raises(mr.errors.NumericError):
            bad.validate()

    def test_non_invariant_box_detected(self):
        model = linear_model(1.5, box=(-1, 1))
        with pytest.raises(mr.errors.NumericError):
            model.validate()

    def test_covariance_must_be_positive_definite(self):
        dim, pi, jac = build_map("tanh2d", {})
        DeterministicMapModel(2, pi, jac, [[-2, 2], [-2, 2]],
                              [[1.0, 0.2], [0.2, 4.0]], 0.4, "tanh2d")
        # symmetric with eigenvalues 3 and -1
        with pytest.raises(mr.errors.ConfigError, match="positive definite"):
            DeterministicMapModel(2, pi, jac, [[-2, 2], [-2, 2]],
                                  [[1.0, 2.0], [2.0, 1.0]], 0.4, "tanh2d")

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_sigma_must_be_nonnegative_and_finite(self, sigma):
        # sigma = 0 is a noiseless model; a config never gets this far, as
        # it asks for sigma > 0 itself
        dim, pi, jac = build_map("tanh", {"beta": 2.0})
        DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], 0.0, "tanh")
        with pytest.raises(mr.errors.ConfigError, match="sigma"):
            DeterministicMapModel(1, pi, jac, [[-2, 2]], [[1.0]], sigma,
                                  "tanh")


def bits(a):
    return np.ascontiguousarray(a, float).view(np.int64)


class TestNoiseLaw:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 4097])
    def test_noise_is_the_matmul_bit_for_bit(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        for _ in range(5):
            a = rng.standard_normal((d, d))
            cov = a @ a.T + 0.1 * np.eye(d)
            cov = (cov + cov.T) / 2
            model = DeterministicMapModel(d, None, None, [[-1.0, 1.0]] * d,
                                          cov, 0.37)
            z = rng.standard_normal((n, d))
            want = 0.37 * (z @ np.linalg.cholesky(cov).T)
            np.testing.assert_array_equal(bits(model.noise(z)), bits(want))

    @pytest.mark.parametrize("cov", [np.eye(2), np.diag([1.0, 0.25]),
                                     [[1.0, 0.6], [0.6, 0.5]]])
    def test_noise_is_the_dot_route_bit_for_bit(self, cov):
        # L = I takes one multiply: z 1 + z' 0 is z for every normal but
        # an exact -0.0, which a draw of 4,097 rows does not hold
        model = DeterministicMapModel(2, None, None, [[-1.0, 1.0]] * 2,
                                      cov, 0.37)
        z = np.random.default_rng(5).standard_normal((4097, 2))
        assert not (z == 0.0).any()
        want = bits(np.multiply(np.dot(z, np.linalg.cholesky(cov).T), 0.37))
        np.testing.assert_array_equal(bits(model.noise(z)), want)
        out = np.empty_like(z)
        assert model.noise(z, out=out) is out
        np.testing.assert_array_equal(bits(out), want)


def exact_rim(radius):
    """(r, x): a radius near ``radius`` and x > 0 with x^2 = r^2 + 1e-15
    exactly in floating point."""
    r = radius
    while True:
        b = r * r + 1e-15
        x = np.sqrt(b)
        for cand in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)):
            if cand * cand == b:
                return r, cand
        r = np.nextafter(r, 1.0)


class TestMembership:
    """``membership`` and ``ball_of`` against the closed-ball test written
    out: |x - c|^2 summed axis by axis, then <= r^2 + 1e-15."""

    @staticmethod
    def per_ball(st, x):
        rows = []
        for c, r in zip(st.centers, st.radii):
            d2 = 0.0
            for a in range(x.shape[-1]):
                d2 = d2 + (x[..., a] - c[a]) ** 2
            rows.append(d2 <= r ** 2 + 1e-15)
        first = np.full(x.shape[:-1], -1)
        for k in range(len(rows) - 1, -1, -1):
            first[rows[k]] = k
        return np.array(rows), first

    def structure(self, dim):
        # balls 0 and 1 overlap; ball 2 is on its own
        r, rim = exact_rim(0.5)
        centers = np.zeros((3, dim))
        centers[:, 0] = [0.0, 0.6, -1.5]
        return MetastableStructure(centers, np.array([r, 0.5, 0.3]), 0.3), rim

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rim_overlap_and_nan(self, dim):
        st, rim = self.structure(dim)
        x = np.zeros((7, dim))
        x[:, 0] = [rim, np.nextafter(rim, 1.0), -rim, 0.3, -1.5, 5.0, np.nan]
        rows, first = self.per_ball(st, x)
        # on the rim, just past it, the far rim, in both 0 and 1, in
        # ball 2, in none, NaN
        assert first.tolist() == [0, 1, 0, 0, 2, -1, -1]
        assert rows[:, 1].tolist() == [False, True, False]
        np.testing.assert_array_equal(st.membership(x), rows)
        np.testing.assert_array_equal(st.ball_of(x), first)
        for p, row, k in zip(x, rows.T, first):
            np.testing.assert_array_equal(st.membership(p), row)
            assert st.ball_of(p) == k

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_points(self, dim):
        st, _ = self.structure(dim)
        x = np.random.default_rng(dim).uniform(-2.0, 2.0, (5000, dim))
        rows, first = self.per_ball(st, x)
        assert len(set(first.tolist())) == 4
        np.testing.assert_array_equal(st.membership(x), rows)
        np.testing.assert_array_equal(st.ball_of(x), first)
