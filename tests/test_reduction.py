"""P*, projectors, the (mu, psi) basis, the reduced matrix P, marginals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metareduce as mr
from metareduce.dynamics import DeterministicMapModel
from metareduce.errors import (BasisDegenerate, NegativeEntry, NumericError,
                               Overflow, ThetaTooLarge)
from metareduce.maps import build_map
from metareduce.reduction import (Projectors, ball_rows, build_reduced_chain,
                                  choose_m, default_theta,
                                  diluted_marginal_deviation, solve_all_qsds,
                                  stochastic_power)
from metareduce.spectral import SpectralDecomposition

from conftest import (REF_BOX, REF_DELTA, REF_RHOP, kernel_from_matrix,
                      make_ref_model, stochastic_matrices)


def kernel_norm(m):
    """Sup over rows of the absolute row mass (the kernel sup-norm)."""
    return np.abs(m).sum(axis=1).max()


def pstar_and_qsds(kernel, balls):
    qsds = solve_all_qsds(kernel, balls)
    return mr.build_pstar(kernel, *ball_rows(kernel, qsds)), qsds


def pi0_of(decomp):
    """The top-2 spectral projector (R L).real on M."""
    return (decomp.right[:, :2] @ decomp.left[:2, :]).real


def pistar_of(proj):
    """The QSD projector Pi* = sum_i 1_{B_i} x QSD_i on M."""
    return proj.indicators.T @ proj.qsd_rows


@pytest.fixture(scope="module")
def reduced35(cache, ref, table):
    trace = cache.trace(0.35)
    decomp = cache.trace_decomp(0.35)
    theta = table.h0 / 4.0
    model, projectors = build_reduced_chain(
        trace, decomp, solve_all_qsds(trace, ref["balls"]), 0.35, theta,
        h0=table.h0)
    return model, projectors, trace, decomp


def rank_one_block_kernel():
    """Trace kernel whose rows are constant within each of two 2-state balls."""
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    q = np.array([[0.25, 0.75], [0.4, 0.6]])
    k = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            k[2 * i:2 * i + 2, 2 * j:2 * j + 2] = p[i, j] * q[j]
    return kernel_from_matrix(k), p, q


def hand_decomp(right, left):
    """The modes given as columns of ``right`` and rows of ``left``, with
    eigenvalues 1."""
    right, left = np.asarray(right, complex), np.asarray(left, complex)
    n = right.shape[1]
    return SpectralDecomposition(np.ones(n, complex), right, left, n)


def hand_projectors(indicators, mu=None):
    """Projectors on the ball rows ``indicators``, each ball's QSD its
    indicator and psi_j = 1_{B_j}; mu_i = QSD_i unless given."""
    rows = np.asarray(indicators, float)
    return Projectors(rows if mu is None else np.asarray(mu, float), rows,
                      np.zeros((len(rows),) * 2), rows, rows)


class TestChooseM:
    def test_hand_value(self):
        # 0.1 / 0.1225 = 0.8163..., exp = 2.262..., ceil = 3
        assert choose_m(0.35, 0.1) == 3

    def test_zero_theta_rejected(self):
        with pytest.raises(ThetaTooLarge):
            choose_m(0.35, 0.0)

    def test_theta_above_h0_rejected(self):
        with pytest.raises(ThetaTooLarge):
            choose_m(0.35, 0.5, h0=0.3)

    def test_monotone_in_sigma(self):
        ms = [choose_m(s, 0.1) for s in (0.5, 0.4, 0.3, 0.2)]
        assert ms == sorted(ms)

    def test_overflow(self):
        with pytest.raises(Overflow):
            choose_m(0.01, 0.1)

    def test_default_theta_cap(self):
        assert default_theta(1.0, 0.35) == pytest.approx(0.25)
        # tiny sigma: capped so m stays at most 1e6
        theta = default_theta(10.0, 0.1)
        assert choose_m(0.1, theta) <= 10 ** 6 + 1


class TestBuildPstar:
    def test_rank_one_rows(self, ):
        kernel, p, q = rank_one_block_kernel()
        balls = [np.array([0, 1]), np.array([2, 3])]
        pstar, qsds = pstar_and_qsds(kernel, balls)
        np.testing.assert_allclose(pstar, p, atol=1e-12)
        np.testing.assert_allclose(qsds[0].qsd, q[0], atol=1e-12)
        np.testing.assert_allclose(qsds[1].qsd, q[1], atol=1e-12)

    def test_symmetric_double_well(self, cache, ref):
        pstar, _ = pstar_and_qsds(cache.trace(0.35), ref["balls"])
        assert abs(pstar[0, 1] - pstar[1, 0]) <= 1e-8
        np.testing.assert_allclose(pstar.sum(axis=1), [1.0, 1.0], atol=1e-10)

    def test_generator_gap_tracks_the_spectral_gap(self, cache, ref):
        # ROADMAP item 3, step 2: the Eyring-Kramers check would read the
        # generator gap P*_01 + P*_10 in place of 1 - lambda_1.  The two
        # differ by 4.2e-4 to 1.8e-4 relative here, far above the 1e-8 of
        # perfbench's output check, so that step must come with
        # regenerated reference outputs
        excess = []
        for sigma in (0.5, 0.4, 0.35, 0.3):
            pstar, _ = pstar_and_qsds(cache.trace(sigma), ref["balls"])
            lam1 = cache.trace_decomp(sigma).eigenvalues[1].real
            excess.append((pstar[0, 1] + pstar[1, 0]) / (1.0 - lam1) - 1.0)
        assert excess[-1] > 0.0 and excess[0] <= 1e-3
        assert (np.diff(excess) < 0.0).all()

    def test_product_matches_row_loop(self, cache, ref):
        # reference: push each QSD through K and sum the image over each
        # ball; the one matrix product sums in another order
        trace = cache.trace(0.35)
        pstar, qsds = pstar_and_qsds(trace, ref["balls"])
        for i, q in enumerate(qsds):
            row = np.zeros(trace.size)
            row[trace.local_indices(q.domain)] = q.qsd
            pushed = row @ trace.matrix
            for j, ball in enumerate(ref["balls"]):
                assert abs(pstar[i, j]
                           - pushed[trace.local_indices(ball)].sum()) <= 1e-15

    def test_paper_upper_bound_on_offdiagonal(self, cache, ref, table):
        # P*_12 <= exp(-(H0 - eta)/sigma^2) with eta = 0.15 H0
        sigma = 0.35
        pstar, _ = pstar_and_qsds(cache.trace(sigma), ref["balls"])
        eta = 0.15 * table.h0
        assert pstar[0, 1] <= np.exp(-(table.h0 - eta) / sigma ** 2)


class TestProjectors:
    def test_exact_rank_n_case(self):
        # kernel is itself rank N with eigenfunctions constant on balls:
        # eps = 0, mu_i = QSD_i, psi_j = indicator of ball j
        kernel, p, q = rank_one_block_kernel()
        balls = [np.array([0, 1]), np.array([2, 3])]
        decomp = mr.eigendecompose(kernel)
        qsds = solve_all_qsds(kernel, balls)
        proj = mr.build_projectors(decomp, *ball_rows(kernel, qsds))
        assert np.abs(proj.eps).max() <= 1e-12
        np.testing.assert_allclose(proj.psi, proj.indicators, atol=1e-10)
        np.testing.assert_allclose(proj.mu, proj.qsd_rows, atol=1e-10)

    def test_biorthogonality(self, reduced35):
        _, proj, _, _ = reduced35
        assert np.abs(proj.mu @ proj.psi.T - np.eye(2)).max() <= 1e-8
        assert np.abs(proj.mu @ proj.indicators.T - np.eye(2)).max() <= 1e-8

    def test_psi_completeness(self, reduced35):
        _, proj, _, _ = reduced35
        assert np.abs(proj.psi.sum(axis=0) - 1.0).max() <= 1e-8

    def test_eps_identity(self, reduced35):
        _, proj, _, _ = reduced35
        recomputed = np.eye(2) - proj.qsd_rows @ proj.psi.T
        np.testing.assert_allclose(proj.eps, recomputed, atol=1e-12)

    def test_eps_small(self, reduced35):
        _, proj, _, _ = reduced35
        assert np.abs(proj.eps).max() <= 1e-3

    def test_projectors_idempotent(self, reduced35):
        _, proj, _, decomp = reduced35
        pi0, pistar = pi0_of(decomp), pistar_of(proj)
        assert kernel_norm(pi0 @ pi0 - pi0) <= 1e-8
        assert kernel_norm(pistar @ pistar - pistar) <= 1e-8

    def test_completeness_kernel_norm(self, reduced35):
        _, proj, _, decomp = reduced35
        assert kernel_norm(proj.psi.T @ proj.mu - pi0_of(decomp)) <= 1e-6


class TestKstarIdentities:
    # the finite-rank kernel K* = Pi* K0, built here from the ball rows
    def test_pistar_kstar_invariance(self, reduced35):
        _, proj, trace, _ = reduced35
        pistar = pistar_of(proj)
        kstar = pistar @ trace.matrix
        assert kernel_norm(pistar @ kstar - kstar) <= 1e-8

    def test_hatted_powers(self, reduced35):
        _, proj, trace, _ = reduced35
        pistar = pistar_of(proj)
        kstar = pistar @ trace.matrix
        khat = kstar @ pistar
        for n in (2, 3):
            lhs = np.linalg.matrix_power(khat, n)
            rhs = np.linalg.matrix_power(kstar, n) @ pistar
            assert kernel_norm(lhs - rhs) <= 1e-8

    def test_matrix_elements_coincide(self, reduced35):
        # <QSD_i, Khat* 1_Bj> = <QSD_i, K0 1_Bj>
        _, proj, trace, _ = reduced35
        pistar = pistar_of(proj)
        khat = pistar @ trace.matrix @ pistar
        lhs = proj.qsd_rows @ khat @ proj.indicators.T
        rhs = proj.qsd_rows @ trace.matrix @ proj.indicators.T
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestBuildP:
    def test_rows_and_symmetry(self, reduced35):
        model, _, _, _ = reduced35
        np.testing.assert_allclose(model.p.sum(axis=1), [1.0, 1.0],
                                   atol=1e-10)
        assert abs(model.p[0, 1] - model.p[1, 0]) <= 1e-6
        assert model.p.min() >= 0.0

    def test_p_eigenvalues_are_powers(self, reduced35):
        model, _, _, decomp = reduced35
        expected = sorted(np.abs(decomp.eigenvalues[:2]) ** model.m,
                          reverse=True)
        got = sorted(np.abs(np.linalg.eigvals(model.p)), reverse=True)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_multiplicative_error_small(self, reduced35):
        model, _, _, _ = reduced35
        assert np.abs(model.multiplicative_error).max() <= 1e-2

    def test_p_is_the_eigencoordinate_form(self, reduced35):
        # P read off K0^m equals (mu R) Lambda^m (L psi^T), the paper's
        # <mu_i, (trunc K0)^m psi_j> in the top-N eigenpairs, where the
        # float eigenvalues resolve it
        model, proj, _, decomp = reduced35
        lam = decomp.eigenvalues[:2]
        want = ((proj.mu @ decomp.right[:, :2]) * lam ** model.m) \
            @ (decomp.left[:2] @ proj.psi.T)
        np.testing.assert_allclose(model.p, want.real, rtol=0, atol=1e-12)

    def test_large_dilution_on_2d_trace(self):
        # 31^2 tanh2d at sigma = 0.35 with m = 1e6: lambda_0 of the float
        # trace is 1 - a few ulps, and m (1 - lambda_0) = 1.1e-10 would
        # break P's row sums if P read lambda^m
        _, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
        model = DeterministicMapModel(2, pi, jac, [[-2.0, 2.0]] * 2,
                                      np.eye(2), 0.35, "tanh2d")
        structure = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.2)
        grid = mr.Grid.from_box(np.array([[-2.0, 2.0]] * 2), 31)
        balls, m_set, _ = grid.membership(structure)
        trace = mr.trace_kernel(mr.discretize_kernel(model, grid), m_set)
        chain, _ = build_reduced_chain(
            trace, mr.eigendecompose(trace, n_modes=len(balls)),
            solve_all_qsds(trace, balls), 0.35, 0.35 ** 2 * np.log(1e6))
        assert chain.m >= 10 ** 6
        assert np.abs(chain.multiplicative_error).max() <= 1e-12

    # P's stationary vector is the trace's ball masses: pi = pi Pi0 gives
    # <pi, psi_j> = pi(B_j), and sum_i pi(B_i) P_ij = <pi, K0^m psi_j>; both
    # read by GTH, measured at most 5.6e-16 relative on either map
    @pytest.mark.parametrize("sigma", [0.3, 0.2, 0.12])
    def test_stationary_law_is_the_ball_masses(self, cache, ref, table,
                                               sigma):
        trace = cache.trace(sigma)
        self._check_stationary_law(trace, ref["balls"], sigma, table.h0)

    @pytest.mark.parametrize("sigma", [0.25, 0.2, 0.15, 0.12])
    def test_stationary_law_of_the_asymmetric_cubic(self, sigma):
        # masses 0.78 / 0.22 at sigma = 0.25 to 0.83 / 0.17 at 0.12
        _, pi, jac = build_map("cubic", {"a": 1.8, "b": 1.0, "d": 0.05})
        model = DeterministicMapModel(1, pi, jac, [[-1.6, 1.6]], [[1.0]],
                                      sigma, "cubic")
        structure = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), REF_DELTA)
        grid = mr.Grid.from_box(model.box, 201)
        balls, m_set, _ = grid.membership(structure)
        h0 = mr.compute_h_matrix(model, grid, structure, REF_RHOP).h0
        trace = mr.trace_kernel(mr.discretize_kernel(model, grid), m_set)
        self._check_stationary_law(trace, balls, sigma, h0)

    @staticmethod
    def _check_stationary_law(trace, balls, sigma, h0):
        law = mr.invariant_measure(trace)
        masses = [law[trace.local_indices(b)].sum() for b in balls]
        chain, _ = build_reduced_chain(
            trace, mr.eigendecompose(trace, n_modes=len(balls)),
            solve_all_qsds(trace, balls), sigma, default_theta(h0, sigma),
            h0=h0)
        np.testing.assert_allclose(
            mr.invariant_measure(kernel_from_matrix(chain.p)), masses,
            rtol=1e-13, atol=0)

    def test_serialization_roundtrip(self, reduced35):
        model, _, _, _ = reduced35
        doc = model.to_dict()
        assert doc["m"] == model.m
        np.testing.assert_allclose(doc["P"], model.p)
        assert len(doc["eigenvalues"]) == 3


def mp_reduced_p(trace, qsd_rows, indicators, m):
    """P = I + a (Lambda^m - I) b of the float trace and QSD rows, every
    other step in mpmath at its working precision: the top N eigenpairs,
    the block binormalization L <- (L R)^{-1} L, psi = Pi0 1_B, mu and
    then a = mu R, b = L psi^T.  Returns P as a complex array."""
    mpmath = pytest.importorskip("mpmath")
    n = len(qsd_rows)
    lam, left, right = mpmath.eig(mpmath.matrix(trace.tolist()), left=True,
                                  right=True)
    top = sorted(range(len(lam)), key=lambda k: -abs(lam[k]))[:n]
    R = mpmath.matrix([[right[r, k] for k in top] for r in range(right.rows)])
    L = mpmath.matrix([[left[k, c] for c in range(left.cols)] for k in top])
    L = (L * R) ** -1 * L
    Q, B = mpmath.matrix(qsd_rows.tolist()), mpmath.matrix(indicators.tolist())
    pi0, eye = R * L, mpmath.eye(n)
    psi = (pi0 * B.T).T
    mu = (Q * psi.T) ** -1 * (Q * pi0)      # Id - eps = <QSD_i, psi_j>
    a, b = mu * R, L * psi.T
    p = eye + a * mpmath.diag([lam[k] ** m - 1 for k in top]) * b
    return np.array(p.tolist(), dtype=complex)


class TestExtendedPrecisionP:
    """The reduced matrix against the same reduction carried out in 60
    digits from the float trace and QSDs on the 101-node reference, where
    the off-diagonal entries are 7.0e-6 and 1.9e-8."""

    @pytest.fixture(scope="class")
    def ref101(self):
        model = make_ref_model(0.35)
        structure = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), REF_DELTA)
        grid = mr.Grid.from_box(np.asarray(REF_BOX), 101)
        balls, m_set, _ = grid.membership(structure)
        h0 = mr.compute_h_matrix(model, grid, structure, REF_RHOP).h0
        return grid, balls, m_set, h0

    # measured: P 4.5e-10 and 6.8e-7 from mp P, P_hat 2.1e-9 and 2.6e-13
    @pytest.mark.parametrize("sigma", [0.15, 0.12])
    def test_p_and_exact_hop_match_60_digits(self, ref101, sigma):
        mpmath = pytest.importorskip("mpmath")
        grid, balls, m_set, h0 = ref101
        trace = mr.trace_kernel(
            mr.discretize_kernel(make_ref_model(sigma), grid), m_set)
        model, proj = build_reduced_chain(
            trace, mr.eigendecompose(trace, n_modes=2),
            solve_all_qsds(trace, balls), sigma, default_theta(h0, sigma),
            h0=h0)
        exact = (proj.qsd_rows @ model.km) @ proj.indicators.T  # P_hat
        with mpmath.workdps(60):
            want = mp_reduced_p(trace.matrix, proj.qsd_rows,
                                proj.indicators, model.m)
        assert np.abs(want.imag).max() <= 1e-30
        for got in (model.p, exact):
            np.testing.assert_allclose(got, want.real, rtol=1e-6, atol=0)


class TestGuards:
    """Each raise of the reduction layer, reached by the smallest input
    built by hand that reaches it."""

    def test_pstar_rows_sum_to_one(self):
        kernel = kernel_from_matrix([[0.5, 0.3], [0.1, 0.2]],
                                    kind="substochastic")
        with pytest.raises(NumericError, match=r"P\* rows must sum to 1"):
            mr.build_pstar(kernel, np.eye(2), np.eye(2))

    def test_projectors_need_n_modes(self):
        decomp = hand_decomp([[1.0], [0.0]], [[1.0, 0.0]])
        with pytest.raises(NumericError, match="at least N modes"):
            mr.build_projectors(decomp, np.eye(2), np.eye(2))

    def test_projectors_need_binormalized_modes(self):
        decomp = hand_decomp([[1.0], [0.0]], [[2.0, 0.0]])
        rows = np.array([[1.0, 0.0]])
        with pytest.raises(NumericError, match="not binormalized"):
            mr.build_projectors(decomp, rows, rows)

    def test_qsd_projection_vanishes(self):
        # Pi0 = e_2 e_2^T kills the QSD e_1 of the one ball
        decomp = hand_decomp([[0.0], [1.0]], [[0.0, 1.0]])
        rows = np.array([[1.0, 0.0]])
        with pytest.raises(BasisDegenerate, match="vanished"):
            mr.build_projectors(decomp, rows, rows)

    def test_id_minus_eps_singular(self):
        # Pi0 projects onto e_3 and e_1 + e_2, so Id - eps = [[.5, .5],
        # [.5, .5]] on the balls {0} and {1}, whose rows do not vanish
        decomp = hand_decomp([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
                             [[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        rows = np.eye(3)[:2]
        with pytest.raises(BasisDegenerate, match="singular"):
            mr.build_projectors(decomp, rows, rows)

    def test_biorthogonality_fails(self):
        # L R = 1 for R = (1, i), L = (1 - i, 1), but Pi0 = Re(R L) =
        # [[1, 1], [1, 0]] is no projector: mu = psi = (1, 1), <mu, psi> = 2
        decomp = hand_decomp([[1.0], [1j]], [[1 - 1j, 1.0]])
        rows = np.array([[1.0, 0.0]])
        with pytest.raises(NumericError, match="delta_ij failed"):
            mr.build_projectors(decomp, rows, rows)

    @pytest.mark.parametrize("n", [3, 6])
    def test_split_conjugate_pair_named(self, n):
        # the damped cycle 0.5 Id + 0.4 C has eigenvalues 0.9 and the pair
        # 0.5 + 0.4 exp(+-2 pi i / n): its top two keep one of the pair, so
        # R L is complex and Re(R L) is no projector
        cycle = 0.5 * np.eye(n) + 0.4 * np.roll(np.eye(n), 1, axis=1)
        decomp = mr.eigendecompose(
            kernel_from_matrix(cycle, kind="substochastic"), n_modes=2)
        rows = np.eye(n)[:2]
        with pytest.raises(NumericError, match="delta_ij failed; the top-N "
                           "modes split a complex conjugate pair$"):
            mr.build_projectors(decomp, rows, rows)

    def test_completeness_fails(self):
        # L R = 1 and Pi0 = Re(R L) = [[.5, .5, 0], [.5, .5, -1], 0]:
        # mu = (1, 1, 0) and psi = (.5, .5, 0) are biorthogonal, but
        # psi^T mu misses Pi0's -1
        decomp = hand_decomp([[1.0], [1j], [0.0]],
                             [[0.5 - 0.5j, 0.5 - 0.5j, 1j]])
        rows = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(NumericError, match="differs from Pi0 by 1"):
            mr.build_projectors(decomp, rows, rows)

    @pytest.mark.parametrize("km,error,match", [
        (-0.5, NegativeEntry, "below"),
        (0.5, NumericError, "row sums off by 0.5"),
    ])
    def test_p_of_one_state(self, km, error, match):
        # P = km for one ball of one state, whose QSD and psi are 1
        with pytest.raises(error, match=match):
            mr.build_p(np.array([[km]]), hand_projectors([[1.0]]))

    def test_negative_power_rejected(self):
        with pytest.raises(NumericError, match="nonnegative"):
            stochastic_power(np.eye(2), -1)

    def test_row_sum_drift_rejected(self):
        with pytest.raises(NumericError, match="drifted"):
            stochastic_power(np.array([[1.0 + 1e-6]]), 1)

    @pytest.mark.parametrize("indicators,start", [
        ([[1, 0, 0], [0, 1, 0]], 2),    # in no ball
        ([[1, 1], [0, 1]], 1),          # in two
    ])
    def test_deviation_start_in_one_ball(self, indicators, start):
        n = len(indicators[0])
        with pytest.raises(NumericError, match="exactly one ball"):
            diluted_marginal_deviation(np.eye(n), hand_projectors(indicators),
                                       np.eye(2), start, 1)

    @pytest.mark.parametrize("start", [-1, 2])
    def test_deviation_start_outside_m(self, start):
        with pytest.raises(NumericError,
                           match=rf"start index {start} outside \[0, 2\)"):
            diluted_marginal_deviation(np.eye(2), hand_projectors(np.eye(2)),
                                       np.eye(2), start, 1)


class TestMarginals:
    def test_start_is_delta(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        out = mr.reduced_chain_marginals(p, 1, 0)
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    @pytest.mark.parametrize("start", [-1, 2])
    def test_start_outside_states_rejected(self, start):
        # -1 must not wrap to the last state
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(NumericError,
                           match=rf"start state {start} outside \[0, 2\)"):
            mr.reduced_chain_marginals(p, start, 3)

    def test_two_state_stationary_limit(self):
        a, b = 0.1, 0.2
        p = np.array([[1 - a, a], [b, 1 - b]])
        out = mr.reduced_chain_marginals(p, 0, 400)
        np.testing.assert_allclose(out[-1], [b / (a + b), a / (a + b)],
                                   atol=1e-12)

    def test_doubly_stochastic_uniform_limit(self):
        p = np.array([[0.6, 0.4], [0.4, 0.6]])
        out = mr.reduced_chain_marginals(p, 0, 200)
        np.testing.assert_allclose(out[-1], [0.5, 0.5], atol=1e-12)


class TestStochasticPower:
    def test_matches_direct_power(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(stochastic_power(p, 13),
                                   np.linalg.matrix_power(p, 13), atol=1e-13)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(p=stochastic_matrices(
               st.integers(1, 8), st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
           n=st.integers(0, 200))
    def test_matches_direct_power_on_drawn_matrices(self, p, n):
        # zero entries included, so periodic and reducible chains occur
        np.testing.assert_allclose(stochastic_power(p, n),
                                   np.linalg.matrix_power(p, n), atol=1e-12)

    def test_large_power_row_sums(self, cache):
        out = stochastic_power(cache.trace(0.4).matrix, 4096)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)


class TestReductionTheoremExact:
    def test_deviation_bound_with_fitted_constant(self, reduced35, ref,
                                                  table, cache):
        model, proj, trace, _ = reduced35
        start = trace.local_indices(np.array(
            [ref["grid"].nearest_index(ref["structure"].centers[0])]))[0]
        devs = diluted_marginal_deviation(model.km, proj, model.p, start, 50)
        # uniform-in-time envelope with eta = 0.15 H0 and the two-well
        # values H_hat_min = H0 - theta, rho from the trace spectrum
        eta = 0.15 * table.h0
        hhat_min = table.h0 - model.theta
        envelope = np.exp(-(hhat_min - eta) / 0.35 ** 2) \
            + model.rho ** (model.m * np.arange(51))
        c_fit = float((devs / envelope).max())
        assert c_fit <= 10.0
