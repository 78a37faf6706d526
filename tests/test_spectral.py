"""Eigendecomposition, gap reports, QSDs, uniform positivity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eig

import metareduce as mr
from metareduce.dynamics import DeterministicMapModel
from metareduce.errors import NumericError, PrincipalNotSimple, ZeroColumn
from metareduce.grid import Grid
from metareduce.kernel import killed_kernel
from metareduce.maps import build_map
from metareduce.reduction import build_reduced_chain, solve_all_qsds
from metareduce.spectral import (RESIDUAL_TOL, _descending,
                                 check_uniform_positivity, positivity_cap)

from conftest import kernel_from_matrix, stochastic_matrices

HAND_2 = [[0.6, 0.4], [0.3, 0.7]]
HAND_KILLED = [[0.5, 0.2], [0.3, 0.4]]


class TestEigendecompose:
    def test_two_state_hand_spectrum(self):
        # hand characteristic polynomial: trace 1.3, det 0.3 -> {1, 0.3};
        # right vector for 0.3 solves 0.3 v1 + 0.4 v2 = 0, left solves
        # u (K - 0.3 I) = 0 with u = (1, -1)
        d = mr.eigendecompose(kernel_from_matrix(HAND_2))
        np.testing.assert_allclose(sorted(d.eigenvalues.real, reverse=True),
                                   [1.0, 0.3], atol=1e-12)
        assert np.abs(d.eigenvalues.imag).max() < 1e-14
        r1 = d.right[:, 1].real
        assert r1[1] / r1[0] == pytest.approx(-0.75, abs=1e-12)
        l1 = d.left[1, :].real
        assert l1[1] / l1[0] == pytest.approx(-1.0, abs=1e-12)
        # binormalization and the stochastic principal pair
        assert abs(l1 @ r1 - 1.0) < 1e-12
        np.testing.assert_allclose(d.right[:, 0].real, [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(d.left[0, :].real, [3 / 7, 4 / 7],
                                   atol=1e-10)

    def test_identity_all_ones(self):
        d = mr.eigendecompose(kernel_from_matrix(np.eye(3)))
        np.testing.assert_allclose(d.eigenvalues, np.ones(3), atol=1e-14)

    def test_permutation_spectrum(self):
        d = mr.eigendecompose(kernel_from_matrix([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(d.eigenvalues.real, [1.0, -1.0],
                                   atol=1e-14)

    def test_biorthogonality_and_residuals(self, cache):
        d = cache.trace_decomp(0.35)
        K = cache.trace(0.35).matrix
        norm = np.abs(K).sum(axis=1).max()
        n = d.n_modes
        G = d.left @ d.right
        assert np.abs(G - np.eye(n)).max() <= 1e-8
        assert np.abs(K @ d.right - d.right * d.eigenvalues[None, :]).max() \
            <= 1e-8 * norm

    def test_reconstruction(self, cache):
        d = cache.trace_decomp(0.35)
        K = cache.trace(0.35).matrix
        approx = (d.right * d.eigenvalues[None, :]) @ d.left
        assert np.abs(approx.real - K).max() <= 1e-6 * np.abs(K).max()
        assert np.abs(approx.imag).max() <= 1e-8

    def test_exactly_one_unit_eigenvalue(self, cache):
        d = cache.trace_decomp(0.4)
        close = np.abs(d.eigenvalues - 1.0) < 1e-10
        assert close.sum() == 1

    def test_phase_convention_deterministic(self, cache):
        a = mr.eigendecompose(cache.trace(0.5))
        b = mr.eigendecompose(cache.trace(0.5))
        np.testing.assert_array_equal(a.right, b.right)
        mod = np.abs(a.right[:, 1])
        assert mod.max() == pytest.approx(1.0)
        k = int(np.argmax(mod >= 0.5))      # the first entry of modulus >= 1/2
        assert a.right[k, 1].real > 0.0
        assert a.right[k, 1].imag == 0.0

    def test_phase_free_of_ties(self):
        # the odd mode's two mirror entries tie to rounding, so a phase set
        # at the largest entry flips right[:, 1] and left[1] between mode
        # counts and between BLAS thread counts
        vecs = [json.loads(line) for threads in (1, 2)
                for line in _in_subprocess(PHASE_SCRIPT, threads)]
        assert len(vecs) == 8       # 2 threads x 2 sigmas x 2 mode counts
        for sigma in (0.35, 0.4):
            runs = [v for v in vecs if v["sigma"] == sigma]
            assert {v["route"] for v in runs} == {"two", "all"}
            for v in runs:
                np.testing.assert_allclose(v["right"], runs[0]["right"],
                                           rtol=0, atol=1e-8)
                np.testing.assert_allclose(v["left"], runs[0]["left"],
                                           rtol=0, atol=1e-8)

    @pytest.mark.parametrize("sigma", [0.5, 0.3])
    def test_top_modes_match_dense_solve(self, cache, sigma):
        _check_top_modes(cache.kernel(sigma), 3)

    def test_top_modes_keep_double_eigenvalue(self):
        # four wells: the kernel is K1 (x) K1, so lambda_1 = lambda_2 exactly
        # and the extra mode completes the pair at the cutoff 4 / 5
        dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
        model = DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2,
                                      np.eye(2), 0.35, "tanh2d")
        kernel = mr.discretize_kernel(model, Grid.from_box(model.box, 25))
        lam = _check_top_modes(kernel, 5)
        assert abs(lam[1] - lam[2]) <= 1e-12
        assert lam[1].real == pytest.approx(0.97594, abs=1e-5)

    def test_top_modes_rerun_identically(self, cache):
        a = mr.eigenvalues(cache.kernel(0.4), k=3)
        b = mr.eigenvalues(cache.kernel(0.4), k=3)
        assert a.tobytes() == b.tobytes()

    def test_defective_cluster_flagged(self):
        jordan = kernel_from_matrix([[0.5, 0.5], [0.0, 0.5]],
                                    kind="substochastic")
        with pytest.raises(NumericError):
            mr.eigendecompose(jordan)


# the 401-node reference trace's mode 1 when 2 modes are kept and when all
# |M| are, one JSON line each
PHASE_SCRIPT = """
import json
import numpy as np
import metareduce as mr
from metareduce.dynamics import DeterministicMapModel
from metareduce.maps import build_map
dim, pi, jac = build_map("tanh", {"beta": 2.0})
grid = mr.Grid.from_box(np.array([[-2.0, 2.0]]), 401)
for sigma in (0.35, 0.4):
    model = DeterministicMapModel(1, pi, jac, [[-2.0, 2.0]], [[1.0]], sigma,
                                  "tanh")
    structure = mr.build_metastable_structure(
        model, mr.find_fixed_points(model), 0.2)
    _, m_set, _ = grid.membership(structure)
    trace = mr.trace_kernel(mr.discretize_kernel(model, grid), m_set)
    for route, n_modes in (("two", 2), ("all", trace.size)):
        d = mr.eigendecompose(trace, n_modes=n_modes)
        print(json.dumps({"sigma": sigma, "route": route,
                          "right": d.right[:, 1].real.tolist(),
                          "left": d.left[1].real.tolist()}))
"""


def _in_subprocess(code, threads):
    """Stdout lines of ``code`` run in a fresh interpreter with
    OPENBLAS_NUM_THREADS set before numpy loads."""
    src = str(Path(mr.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=300).stdout.splitlines()


def _dense_pairs(K, n):
    """The top n pairs of one dense scipy solve, binormalized, each right
    vector scaled to 1 at its largest-modulus entry: (lam, R, L, at)."""
    lam, vl, vr = eig(K, left=True, right=True)
    order = _descending(lam)
    R = vr[:, order[:n]].astype(complex)
    L = vl[:, order[:n]].conj().T.astype(complex)
    L = np.linalg.solve(L @ R, L)
    at = np.argmax(np.abs(R), axis=0)
    c = R[at, np.arange(n)]
    return lam[order].astype(complex), R / c, L * c[:, None], at


class TestFewModes:
    """``eigendecompose`` with few modes, against closed forms and one
    dense solve of all pairs made in the test."""

    @pytest.fixture(scope="class")
    def well2d(self):
        # four wells: the kernel is K1 (x) K1, so lambda_1 and lambda_2
        # tie, exactly or within a few ulps as the BLAS threads add
        dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
        model = DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2,
                                      np.eye(2), 0.35, "tanh2d")
        structure = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.2)
        grid = Grid.from_box(model.box, 51)
        balls, m_set, _ = grid.membership(structure)
        return mr.trace_kernel(mr.discretize_kernel(model, grid), m_set), balls

    @pytest.mark.parametrize("sigma", [0.5, 0.3])
    def test_reference_trace_matches_dense_solve(self, cache, sigma):
        trace = cache.trace(sigma)
        d = mr.eigendecompose(trace, n_modes=2)
        lam, R, L, at = _dense_pairs(trace.matrix, 2)
        assert d.eigenvalues.tobytes() == lam[:3].tobytes()
        # scaled at the dense solve's entry: the two mirror entries of the
        # odd mode tie to rounding, and either may be the largest
        c = d.right[at, [0, 1]]
        np.testing.assert_allclose(d.right / c, R, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d.left * c[:, None], L, rtol=0,
                                   atol=1e-12)

    def test_four_wells_with_tied_modes(self, well2d):
        trace, balls = well2d
        d = mr.eigendecompose(trace, n_modes=4)
        lam = d.eigenvalues
        assert abs(lam[1] - lam[2]) <= 8 * np.finfo(float).eps
        assert np.abs(d.left @ d.right - np.eye(4)).max() <= 1e-12
        assert d.max_residual <= RESIDUAL_TOL
        full = mr.eigendecompose(trace)
        assert lam.tobytes() == full.eigenvalues[:5].tobytes()
        # m = 11, where lambda_1^m = 0.18 and lambda_3^m = 0.05: P reads
        # every mode
        theta = 0.35 ** 2 * np.log(10.0)
        qsds = solve_all_qsds(trace, balls)
        p, dense_p = (build_reduced_chain(trace, dec, qsds, 0.35, theta)[0].p
                      for dec in (d, full))
        np.testing.assert_allclose(p, dense_p, rtol=0, atol=1e-10)

    def test_complex_conjugate_top_pair(self):
        # a biased walk on a 12-cycle: eigenvalues 0.5 + 0.4 w^k + 0.1 w^-k,
        # w = exp(2 pi i / 12), so 1 and then the pair k = 1, 11
        row = np.zeros(12)
        row[[0, 1, -1]] = 0.5, 0.4, 0.1
        kernel = kernel_from_matrix([np.roll(row, i) for i in range(12)])
        d = mr.eigendecompose(kernel, n_modes=3)
        lam, R, L, _ = _dense_pairs(kernel.matrix, 3)
        w = np.exp(2j * np.pi / 12)
        np.testing.assert_allclose(d.eigenvalues[1:3],
                                   [0.5 + 0.4 * w + 0.1 / w,
                                    0.5 + 0.4 / w + 0.1 * w], atol=1e-14)
        np.testing.assert_allclose(d.eigenvalues, lam[:4], rtol=0,
                                   atol=1e-14)
        assert np.abs(d.left @ d.right - np.eye(3)).max() <= 1e-12
        # every entry of a Fourier mode has the same modulus, so compare
        # the spectral projector, which no phase convention touches
        np.testing.assert_allclose(d.right @ d.left, R @ L, rtol=0,
                                   atol=1e-12)


def _check_top_modes(kernel, k):
    """Top-k Krylov eigenvalues against the top k of the dense full solve."""
    dense = mr.eigenvalues(kernel)
    top = mr.eigenvalues(kernel, k=k)
    assert top.shape == (k,)
    np.testing.assert_allclose(top, dense[:k], rtol=0, atol=1e-12)
    return top


class TestVerifySpectralGap:
    def test_double_well_two_modes(self, cache):
        d = mr.eigendecompose(cache.kernel(0.35))
        rep = mr.verify_spectral_gap(d.eigenvalues, 2, 0.9)
        assert rep.passed
        assert rep.next_modulus < 0.75
        lam1 = d.eigenvalues[1]
        assert abs(lam1.imag) < 1e-12 and lam1.real < 1.0

    def test_identity_full_count(self):
        d = mr.eigendecompose(kernel_from_matrix(np.eye(4)))
        assert mr.verify_spectral_gap(d.eigenvalues, 4, 0.9).passed

    def test_two_state_single_mode(self):
        d = mr.eigendecompose(kernel_from_matrix(HAND_2))
        rep = mr.verify_spectral_gap(d.eigenvalues, 1, 0.9)
        assert rep.passed
        assert rep.next_modulus == pytest.approx(0.3, abs=1e-12)

    def test_wrong_count_fails(self):
        d = mr.eigendecompose(kernel_from_matrix(HAND_2))
        assert not mr.verify_spectral_gap(d.eigenvalues, 2, 0.9).passed

    def test_moduli_approach_the_linearization(self, cache, ref):
        # below the two metastable values the kernel's moduli tend to the
        # map's linearization: 1 / |pi'(0)| = 0.5 and its square at the
        # saddle, pi'(x_s) = 0.1664 at each well.  Measured distances
        # 0.0178 ... 0.0044 for lambda_2 (about 0.7 sigma^2) and at most
        # 3.2 sigma^2 for lambda_2 ... lambda_5, each falling with sigma
        rho = [r.spectral_radius for r in ref["fixed_points"]]
        saddle, = [1 / r for r in rho if r > 1]
        limits = [saddle, saddle ** 2] + [r for r in rho if r < 1]
        sigmas = np.array([0.15, 0.12, 0.1, 0.08])
        dist = np.array([np.abs(mr.eigenvalues(cache.kernel(s), 6)[2:])
                         for s in sigmas]) - limits
        assert (dist > 0).all() and (np.diff(dist, axis=0) < 0).all()
        assert (dist <= 4 * sigmas[:, None] ** 2).all()
        assert (dist[:, 0] <= sigmas ** 2).all()


class TestSolveQsd:
    def test_hand_example(self):
        # trace 0.9, det 0.14 -> eigenvalues {0.7, 0.2}
        trace9 = kernel_from_matrix(
            [[0.5, 0.2, 0.3], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]])
        sol = mr.solve_qsd(trace9, [0, 1])
        assert sol.lambda0 == pytest.approx(0.7, abs=1e-12)
        np.testing.assert_allclose(sol.qsd, [0.6, 0.4], atol=1e-12)
        assert sol.next_modulus == pytest.approx(0.2, abs=1e-12)
        assert sol.gap_ratio == pytest.approx(2 / 7, abs=1e-12)
        assert sol.mean_killing_time == pytest.approx(1 / 0.3, abs=1e-10)

    def test_ball_leaking_through_its_last_state(self):
        # only state 2 leaks, so states 0 and 1 reach the leak through
        # their edges: q K = 0.6 q gives q1 = 4 q0 and q2 = 20 q0 / 3
        trace = kernel_from_matrix([[0.6, 0.4, 0, 0], [0, 0.5, 0.5, 0],
                                    [0, 0, 0.3, 0.7],
                                    [0.25, 0.25, 0.25, 0.25]])
        sol = mr.solve_qsd(trace, [0, 1, 2])
        assert (sol.escape_rows > 0).tolist() == [False, False, True]
        np.testing.assert_allclose(sol.qsd, np.array([3, 12, 20]) / 35,
                                   rtol=0, atol=1e-12)
        assert sol.lambda0 == pytest.approx(0.6, abs=1e-12)
        assert sol.escape == pytest.approx(0.4, abs=1e-12)
        assert sol.next_modulus == pytest.approx(0.5, abs=1e-12)

    def test_scalar_multiple_of_identity_rejected(self):
        padded = kernel_from_matrix(
            [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.2, 0.2, 0.6]])
        with pytest.raises(PrincipalNotSimple):
            mr.solve_qsd(padded, [0, 1])

    def test_geometric_killing_law(self, cache, ref):
        # matrix-power oracle: killing probabilities from the QSD follow
        # lambda0^{n-1} (1 - lambda0)
        trace = cache.trace(0.35)
        sol = mr.solve_qsd(trace, ref["balls"][0])
        killed = killed_kernel(trace, ref["balls"][0])
        kill_mass = 1.0 - killed.matrix.sum(axis=1)
        v = sol.qsd.copy()
        for n in range(1, 11):
            prob = v @ kill_mass
            expected = sol.lambda0 ** (n - 1) * (1.0 - sol.lambda0)
            assert abs(prob - expected) <= 1e-10
            v = v @ killed.matrix

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_geometric_law_on_drawn_blocks(self, data):
        # the killed block of a positive stochastic matrix on a proper
        # subset: started from the QSD, P[tau = n] = lambda0^{n-1} escape,
        # by matrix powers of the block and its row masses leaving it
        k = data.draw(stochastic_matrices(st.integers(2, 8)))
        n = k.shape[0]
        ball = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                        max_size=n - 1)))
        sol = mr.solve_qsd(kernel_from_matrix(k), ball)
        block = k[np.ix_(ball, ball)]
        leaving = np.delete(k[ball], ball, axis=1).sum(axis=1)
        assert sol.qsd.min() >= 0.0 and abs(sol.qsd.sum() - 1.0) <= 1e-12
        for step in range(1, 11):
            prob = sol.qsd @ np.linalg.matrix_power(block, step - 1) @ leaving
            expected = sol.lambda0 ** (step - 1) * sol.escape
            assert abs(prob / expected - 1.0) <= 1e-8

    def test_escape_mass_below_epsilon(self, cache, ref):
        # sigma = 0.08: the killed kernel's principal eigenvalue rounds to 1,
        # yet the escape mass, summed from the entries leaving the ball, is
        # positive and gives the geometric killing law to rounding
        trace = cache.trace(0.08)
        ball = ref["balls"][0]
        sol = mr.solve_qsd(trace, ball)
        assert 0.0 < sol.escape < 1e-15
        assert sol.mean_killing_time == 1.0 / sol.escape
        killed = killed_kernel(trace, ball)
        loc = trace.local_indices(ball)
        kill_mass = np.delete(trace.matrix[loc], loc, axis=1).sum(axis=1)
        v = sol.qsd.copy()
        for n in range(1, 11):
            expected = sol.lambda0 ** (n - 1) * sol.escape
            assert abs(v @ kill_mass / expected - 1.0) <= 1e-8
            v = v @ killed.matrix

    def test_quasiergodic_fixed_point(self, cache, ref):
        trace = cache.trace(0.4)
        sol = mr.solve_qsd(trace, ref["balls"][1])
        killed = killed_kernel(trace, ref["balls"][1])
        err = np.abs((sol.qsd @ killed.matrix) / sol.lambda0 - sol.qsd).sum()
        assert err <= 1e-8


class TestUniformPositivity:
    def test_rank_one_immediate(self):
        flat = kernel_from_matrix(np.full((3, 3), 0.2), kind="substochastic")
        res = check_uniform_positivity(flat, 1.5)
        assert res.n0 == 1
        assert res.achieved_ratio == pytest.approx(1.0)

    def test_hand_example_needs_two_steps(self):
        # n = 1 ratios: max(0.5/0.3, 0.4/0.2) = 2.0 > 1.9;
        # K^2 = [[0.31, 0.18], [0.27, 0.22]] -> max ratio 11/9
        killed = kernel_from_matrix(HAND_KILLED, kind="substochastic")
        res = check_uniform_positivity(killed, 1.9)
        assert res.n0 == 2
        assert res.achieved
        assert res.ratios[0] == pytest.approx(2.0, abs=1e-12)
        assert res.achieved_ratio == pytest.approx(11 / 9, abs=1e-12)

    def test_achieved_on_reference_balls(self, cache, ref):
        for sigma in (0.5, 0.35):
            trace = cache.trace(sigma)
            for ball in ref["balls"]:
                killed = killed_kernel(trace, ball)
                res = check_uniform_positivity(killed, 1.9,
                                               n_cap=positivity_cap(sigma))
                assert res.achieved
                assert res.achieved_ratio <= 1.9

    @pytest.mark.parametrize("sigma", [0.5, 0.4, 0.3, 0.2, 0.15, 0.12, 0.1])
    def test_birkhoff_bounds_the_gap_ratio(self, cache, ref, sigma):
        # a killed kernel whose n0-th power has columns within a factor L
        # contracts Hilbert's projective metric by (L - 1) / (L + 1) per n0
        # steps (Birkhoff), so |lambda1 / lambda0| is at most its n0-th
        # root; a theorem, so no tolerance (measured 0.0042 <= 0.019 at
        # sigma = 0.5, 0.136 <= 0.307 at 0.1)
        for sol in solve_all_qsds(cache.trace(sigma), ref["balls"]):
            res = check_uniform_positivity(sol.killed, 1.5,
                                           n_cap=positivity_cap(sigma))
            assert res.achieved
            ratio = res.achieved_ratio
            assert sol.gap_ratio <= ((ratio - 1) / (ratio + 1)) ** (1 / res.n0)

    def test_monotone_ratio_on_tested_kernels(self, cache, ref):
        killed = kernel_from_matrix(HAND_KILLED, kind="substochastic")
        res = check_uniform_positivity(killed, 1.0 + 1e-9, n_cap=40)
        diffs = np.diff(res.ratios)
        assert (diffs <= 1e-9).all()
        killed_ref = killed_kernel(cache.trace(0.35), ref["balls"][0])
        res = check_uniform_positivity(killed_ref, 1.0 + 1e-12, n_cap=15)
        assert (np.diff(res.ratios) <= 1e-9).all()

    def test_zero_entries_until_the_third_power(self):
        # K's column 1 holds a 0 (ratio inf); K^2 = [[0.75, 0.25],
        # [0.5, 0.5]] gives 2.0 and K^3 = [[0.625, 0.375], [0.75, 0.25]]
        # gives 1.5, all exact in binary
        res = check_uniform_positivity(
            kernel_from_matrix([[0.5, 0.5], [1.0, 0.0]]), 1.9)
        assert res.ratios == (np.inf, 2.0, 1.5)
        assert res.n0 == 3 and res.achieved
        assert res.achieved_ratio == 1.5

    def test_zero_column_raises_at_the_cap(self):
        # every power of K is K, whose column 1 is 0
        with pytest.raises(ZeroColumn, match=r"K\^3 identically zero"):
            check_uniform_positivity(
                kernel_from_matrix([[1.0, 0.0], [1.0, 0.0]]), 1.9, n_cap=3)

    def test_not_achieved_flag(self):
        killed = kernel_from_matrix(HAND_KILLED, kind="substochastic")
        res = check_uniform_positivity(killed, 1.001, n_cap=1)
        assert not res.achieved
        assert res.n0 == 1

    def test_cap_formula(self):
        assert positivity_cap(0.5) == 60
        assert positivity_cap(0.3) == 70

    @pytest.mark.parametrize("sigma", [32.0, 1000.0])
    def test_cap_floored_at_one(self, sigma):
        # the formula gives 0 at sigma = 32 and -40 at sigma = 1000; a cap
        # of 1 still tests K itself, which a uniform kernel passes
        assert positivity_cap(sigma) == 1
        flat = kernel_from_matrix(np.full((3, 3), 0.2), kind="substochastic")
        res = check_uniform_positivity(flat, 1.5, n_cap=positivity_cap(sigma))
        assert res.achieved and res.n0 == 1 and res.achieved_ratio == 1.0
        assert res.ratios == (1.0,)

    @pytest.mark.parametrize("n_cap", [0, -40])
    def test_cap_below_one_raises(self, n_cap):
        flat = kernel_from_matrix(np.full((3, 3), 0.2), kind="substochastic")
        with pytest.raises(NumericError, match="tests no power"):
            check_uniform_positivity(flat, 1.5, n_cap=n_cap)


class TestGuards:
    """Each raise of the eigen layer, reached by a hand-built kernel; where
    no well-formed input reaches it, a solver is replaced by a broken one."""

    def test_eigenvalues_k_out_of_range(self):
        for k in (0, 3):
            with pytest.raises(NumericError, match=r"k must lie in \[1, "):
                mr.eigenvalues(kernel_from_matrix(HAND_2), k=k)

    def test_arnoldi_no_convergence(self):
        # a 100-cycle: all eigenvalues on the unit circle, and the start,
        # the ones vector, spans an invariant subspace; ARPACK gives up
        cycle = kernel_from_matrix(np.roll(np.eye(100), 1, axis=1))
        with pytest.raises(NumericError, match="Arnoldi did not converge"):
            mr.eigenvalues(cycle, k=3)

    def test_eigendecompose_n_modes_out_of_range(self):
        for n_modes in (0, 3):
            with pytest.raises(NumericError,
                               match=r"n_modes must lie in \[1, "):
                mr.eigendecompose(kernel_from_matrix(HAND_2), n_modes=n_modes)

    def test_eigen_residual(self, monkeypatch):
        # the dense solve is backward stable, so its pairs always pass: a
        # solver whose right vectors are off by 1e-4 trips the check
        def off(K, left, right):
            lam, vl, vr = eig(K, left=left, right=right)
            return lam, vl, vr + 1e-4

        monkeypatch.setattr("scipy.linalg.eig", off)
        k = np.full((8, 8), 0.1) + 0.2 * np.eye(8)
        with pytest.raises(NumericError, match=r"eigen residual .* exceeds "
                                               "tolerance"):
            mr.eigendecompose(kernel_from_matrix(k), n_modes=2)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
    def test_rho_threshold_out_of_range(self, rho):
        with pytest.raises(NumericError, match=r"rho_threshold must lie in"):
            mr.verify_spectral_gap(np.array([1.0, 0.3]), 1, rho)

    def test_ball_is_all_of_m(self):
        with pytest.raises(NumericError, match="ball 0 is all of M"):
            mr.solve_qsd(kernel_from_matrix(HAND_2), [0, 1], ball_index=0)

    def test_principal_eigenvalue_not_positive(self):
        # the killed block [[0, .5], [0, 0]] is nilpotent: both eigenvalues 0
        trace = kernel_from_matrix(
            [[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.3, 0.3, 0.4]])
        with pytest.raises(NumericError,
                           match=r"principal eigenvalue .* is not positive"):
            mr.solve_qsd(trace, [0, 1])

    def test_left_vector_not_nonnegative(self, monkeypatch):
        # the Perron vector of a simple principal eigenvalue of a
        # nonnegative block is nonnegative: a solver returning a mixed-sign
        # vector for the order's first value trips the check
        monkeypatch.setattr(np.linalg, "eig", lambda a: (
            np.array([0.2, 0.9]), np.array([[0.1, 0.7], [0.5, -0.3]])))
        trace = kernel_from_matrix(
            [[0.5, 0.2, 0.3], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]])
        with pytest.raises(NumericError, match="principal left eigenvector "
                                               "is not nonnegative"):
            mr.solve_qsd(trace, [0, 1])

    def test_no_mass_escapes(self):
        # state 0 is absorbing and no row of the ball reaches state 2 (the
        # trace is substochastic), so the escape mass is 0 exactly; a
        # stochastic row leaking 0.3 would give escape ~ eps, not 0
        trace = kernel_from_matrix(
            [[1.0, 0.0, 0.0], [0.3, 0.4, 0.0], [0.2, 0.2, 0.6]],
            kind="substochastic")
        with pytest.raises(NumericError, match="no mass escapes the ball "
                                               "under its QSD"):
            mr.solve_qsd(trace, [0, 1])

    def test_closed_class_escapes_nothing(self):
        # a stochastic trace: state 0 of the ball {0, 1} is absorbing, so
        # the exact QSD is (1, 0) and nothing escapes, though state 1 leaks
        # 0.3; a solver may leave a rounding residue on state 1, and ~4e-16
        # there would read as an escape of 1.1e-16
        trace = kernel_from_matrix(
            [[1.0, 0.0, 0.0], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]])
        with pytest.raises(NumericError, match="no mass escapes the ball "
                                               "under its QSD"):
            mr.solve_qsd(trace, [0, 1])

    def test_qsd_residual(self):
        # a substochastic trace: the ball's QSD (0.6, 0.4) has lambda0 =
        # 0.7, but only 0.2 leaves the ball for M, so 1 - escape = 0.8
        trace = kernel_from_matrix(
            [[0.5, 0.2, 0.2], [0.3, 0.4, 0.2], [0.2, 0.2, 0.5]],
            kind="substochastic")
        with pytest.raises(NumericError, match=r"QSD residual .* above 1e-8"):
            mr.solve_qsd(trace, [0, 1])

    @pytest.mark.parametrize("target", [1.0, 2.0, 0.5])
    def test_l_target_out_of_range(self, target):
        flat = kernel_from_matrix(np.full((3, 3), 0.2), kind="substochastic")
        with pytest.raises(NumericError, match=r"l_target must lie in"):
            check_uniform_positivity(flat, target)
