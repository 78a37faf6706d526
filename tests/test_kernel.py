"""Gaussian rates, discretized kernels, killed/trace kernels, invariant law."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metareduce as mr
import metareduce.kernel
import metareduce.montecarlo
from metareduce.dynamics import DeterministicMapModel
from metareduce.errors import (DegenerateRow, NonRecurrentComplement,
                               NumericError)
from metareduce.grid import Grid
from metareduce.kernel import cache_key, load_kernel, save_kernel
from metareduce.maps import build_map
from metareduce.spectral import _descending

from conftest import (HAND_K3, MASTER_SEED, kernel_from_matrix,
                      make_ref_model, stochastic_matrices)


class TestGaussianRate:
    # the one-step rate I(x, y) of a model is model.rate(y - model.pi(x))
    def test_vanishes_on_image(self):
        model = make_ref_model(0.35)
        x = np.array([0.7])
        assert model.rate(model.pi(x) - model.pi(x)) == 0.0

    def test_scalar_hand_value(self):
        # x = 0, y = 0.5, tanh(0) = 0: rate = 0.5 * 0.25
        model = make_ref_model(0.35)
        x, y = np.array([0.0]), np.array([0.5])
        assert model.rate(y - model.pi(x)) == pytest.approx(0.125)

    def test_2d_anisotropic_hand_value(self):
        model = DeterministicMapModel(
            2, lambda x: np.zeros(2), lambda x: np.zeros((2, 2)),
            [[-3, 3], [-3, 3]], [[1.0, 0.0], [0.0, 4.0]], 0.3, "zero")
        # 0.5 * (2^2 / 1 + 2^2 / 4) = 2.5
        x, y = np.array([0.0, 0.0]), np.array([2.0, 2.0])
        assert model.rate(y - model.pi(x)) == pytest.approx(2.5)

    def test_rate_of_noise_is_half_squared_norm(self):
        # noise(z) / sigma = L z and (L z)^T (L L^T)^{-1} (L z) = |z|^2
        dim, pi, jac = build_map("tanh2d", {"beta": [2.0, 2.0]})
        model = DeterministicMapModel(2, pi, jac, [[-2, 2], [-2, 2]],
                                      [[1.0, 0.3], [0.3, 0.5]], 0.4, "tanh2d")
        z = np.random.default_rng(0).standard_normal((50, 2))
        np.testing.assert_allclose(model.rate(model.noise(z) / 0.4),
                                   0.5 * (z ** 2).sum(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_bits_do_not_depend_on_the_batch(self, dim):
        # a row's rate in a call of 1, 2 or 3 rows, or in a (rows, nodes, d)
        # block as the kernel passes it, is its rate in one call of all the
        # rows, bit for bit; einsum sums one or two 2D rows in another order
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        model = DeterministicMapModel(dim, None, None, [[-1, 1]] * dim,
                                      a @ a.T + 0.5 * np.eye(dim), 0.3)
        d = rng.normal(size=(12, dim))
        full = model.rate(d).view(np.int64)
        for n in (1, 2, 3):
            part = np.concatenate([model.rate(d[i:i + n])
                                   for i in range(0, 12, n)])
            np.testing.assert_array_equal(part.view(np.int64), full)
        np.testing.assert_array_equal(
            model.rate(d.reshape(3, 4, dim)).ravel().view(np.int64), full)


class TestDiscretizeKernel:
    def test_rows_sum_to_one(self, cache):
        K = cache.kernel(0.35)
        assert np.abs(K.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    def test_entries_match_pointwise_density(self, ref):
        # entrywise oracle: normalized Gaussian density at node pairs
        model = make_ref_model(0.4)
        g = Grid.from_box(model.box, 101)
        K = mr.discretize_kernel(model, g)
        x = g.points()[:, 0]
        raw = np.exp(-(x[None, :] - np.tanh(2 * x)[:, None]) ** 2
                     / (2 * 0.4 ** 2))
        expected = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(K.matrix, expected, atol=1e-14)

    def test_reflection_symmetry(self):
        # odd map, scalar covariance: kernel commutes with index reversal
        model = make_ref_model(0.4)
        g = Grid.from_box(model.box, 201)
        K = mr.discretize_kernel(model, g).matrix
        reflected = K[::-1, ::-1]
        assert np.abs(K - reflected).max() <= 1e-12

    def test_grid_refinement_stability_of_lambda1(self):
        model = make_ref_model(0.4)
        lam1 = []
        for n in (201, 401):
            K = mr.discretize_kernel(model, Grid.from_box(model.box, n))
            ev = np.sort(np.abs(np.linalg.eigvals(K.matrix)))[::-1]
            lam1.append(ev[1])
        assert abs(lam1[1] - lam1[0]) / lam1[1] < 1e-3

    def test_degenerate_row_raises(self):
        model = make_ref_model(1e-5)
        with pytest.raises(DegenerateRow):
            mr.discretize_kernel(model, Grid.from_box(model.box, 101))


class TestKilledKernel:
    def test_submatrix_extraction(self):
        K = kernel_from_matrix(HAND_K3)
        killed = mr.killed_kernel(K, [0, 1])
        np.testing.assert_allclose(killed.matrix,
                                   [[0.5, 0.3], [0.2, 0.6]])
        assert killed.kind == "substochastic"

    def test_full_domain_warns(self):
        K = kernel_from_matrix(HAND_K3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            same = mr.killed_kernel(K, [0, 1, 2])
        assert len(caught) == 1
        np.testing.assert_array_equal(same.matrix, K.matrix)

    def test_row_sum_deficit(self, cache, ref):
        killed = mr.killed_kernel(cache.kernel(0.35), ref["balls"][0])
        sums = killed.matrix.sum(axis=1)
        assert sums.max() <= 1.0 + 1e-12
        assert sums.min() < 1.0

    def test_escape_mass_below_epsilon_is_kept(self, cache, ref):
        # at sigma = 0.08 a row of ball 0 sends ~1e-23 out of the ball, so
        # 1 - (row sum) reads 0 while the entries outside are positive
        trace = cache.trace(0.08)
        ball = ref["balls"][0]
        killed = mr.killed_kernel(trace, ball)
        loc = trace.local_indices(ball)
        lost = np.delete(trace.matrix[loc], loc, axis=1).sum(axis=1)
        assert 0.0 < lost.max() < 1e-15
        assert killed.kind == "substochastic"

    def test_closed_subset_raises(self):
        K = kernel_from_matrix([[0.5, 0.5, 0.0],
                                [0.4, 0.6, 0.0],
                                [0.3, 0.3, 0.4]])
        with pytest.raises(NumericError, match="lose mass"):
            mr.killed_kernel(K, [0, 1])


class TestTraceKernel:
    def test_hand_example_against_path_sum_oracle(self):
        # oracle: sum over n of P^x[tau+_A = n, X_n = y], paths through state 2
        K = HAND_K3
        A = [0, 1]
        expected = K[np.ix_(A, A)].astype(float).copy()
        via = K[np.ix_(A, [2])].astype(float)
        stay = K[2, 2]
        back = K[np.ix_([2], A)]
        hop = via @ back
        for n in range(200):
            expected += hop * stay ** n
        traced = mr.trace_kernel(kernel_from_matrix(K), A)
        np.testing.assert_allclose(traced.matrix, expected, atol=1e-12)
        # the same value from the 1x1 inverse: K_AA + 5 K_A2 K_2A
        np.testing.assert_allclose(traced.matrix,
                                   [[0.6, 0.4], [0.3, 0.7]], atol=1e-12)

    def test_full_domain_identity(self):
        K = kernel_from_matrix(HAND_K3)
        traced = mr.trace_kernel(K, [0, 1, 2])
        np.testing.assert_array_equal(traced.matrix, K.matrix)

    def test_transitivity(self):
        K = kernel_from_matrix(HAND_K3)
        one_step = mr.trace_kernel(K, [0])
        via_a = mr.trace_kernel(mr.trace_kernel(K, [0, 1]), [0])
        np.testing.assert_allclose(via_a.matrix, one_step.matrix, atol=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_transitive_and_stochastic(self, data):
        # watching the chain on A and then on B within A is watching it on
        # B; positive entries keep every complement transient
        k = kernel_from_matrix(data.draw(stochastic_matrices()))
        a = sorted(data.draw(st.sets(st.integers(0, k.size - 1), min_size=1)))
        b = sorted(data.draw(st.sets(st.sampled_from(a), min_size=1)))
        on_a = mr.trace_kernel(k, a)
        via_a = mr.trace_kernel(on_a, b)
        direct = mr.trace_kernel(k, b)
        np.testing.assert_array_equal(via_a.domain, b)
        np.testing.assert_allclose(via_a.matrix, direct.matrix, rtol=1e-10,
                                   atol=1e-13)
        for t in (on_a, via_a, direct):
            assert np.abs(t.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rows_stochastic_before_renormalization(self, cache, ref):
        # output rows must already sum to 1 within 1e-10 (asserted internally)
        traced = cache.trace(0.35)
        assert np.abs(traced.matrix.sum(axis=1) - 1.0).max() <= 1e-12

    def test_domain_bookkeeping(self, cache, ref):
        traced = cache.trace(0.35)
        np.testing.assert_array_equal(traced.domain, ref["m_set"])
        loc = traced.local_indices(ref["balls"][1])
        assert loc.size == ref["balls"][1].size

    def test_closed_complement_raises(self):
        # {2, 3} is a closed class: the chain started there never returns
        # to {0, 1}, and Id - K_CC = [[.5, -.5], [-.5, .5]] is singular
        K = kernel_from_matrix([[0.5, 0.2, 0.3, 0.0],
                                [0.1, 0.6, 0.0, 0.3],
                                [0.0, 0.0, 0.5, 0.5],
                                [0.0, 0.0, 0.5, 0.5]])
        with pytest.raises(NonRecurrentComplement):
            mr.trace_kernel(K, [0, 1])


class TestInvariantMeasure:
    def test_two_state_balance(self):
        K = kernel_from_matrix([[0.6, 0.4], [0.3, 0.7]])
        pi = mr.invariant_measure(K)
        np.testing.assert_allclose(pi, [3 / 7, 4 / 7], atol=1e-10)

    def test_doubly_stochastic_uniform(self):
        K = kernel_from_matrix([[0.2, 0.5, 0.3],
                                [0.3, 0.2, 0.5],
                                [0.5, 0.3, 0.2]])
        np.testing.assert_allclose(mr.invariant_measure(K),
                                   np.full(3, 1 / 3), atol=1e-10)

    def test_restriction_property(self):
        # invariant law of the trace equals the restricted/renormalized law
        K = kernel_from_matrix(HAND_K3)
        pi = mr.invariant_measure(K)
        traced = mr.trace_kernel(K, [0, 1])
        pi_trace = mr.invariant_measure(traced)
        restricted = pi[:2] / pi[:2].sum()
        assert np.abs(pi_trace - restricted).sum() <= 1e-8

    def test_restriction_property_reference(self, cache, ref):
        pi = mr.invariant_measure(cache.kernel(0.4))
        traced = cache.trace(0.4)
        pi_trace = mr.invariant_measure(traced)
        restricted = pi[ref["m_set"]] / pi[ref["m_set"]].sum()
        assert np.abs(pi_trace - restricted).sum() <= 1e-8

    def test_periodic_chain_exact_law(self):
        # bipartite chain: no power of K converges, yet the law solving
        # pi K = pi is unique: pi_0 = pi_1 + pi_2, pi_1 = 0.3 pi_0
        K = kernel_from_matrix([[0.0, 0.3, 0.7],
                                [1.0, 0.0, 0.0],
                                [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(mr.invariant_measure(K),
                                   [0.5, 0.15, 0.35], rtol=1e-14)

    def test_reducible_chain_raises(self):
        # states {0, 1} and {2} never communicate: a zero GTH pivot
        K = kernel_from_matrix([[0.5, 0.5, 0.0],
                                [0.4, 0.6, 0.0],
                                [0.0, 0.0, 1.0]])
        with pytest.raises(NumericError, match="reducible"):
            mr.invariant_measure(K)

    def test_small_sigma_ball_masses(self):
        # asymmetric double well at sigma = 0.05, where 1 - lambda_1 of the
        # trace kernel is far below the l1 step a power iteration stops at
        dim, pi, jac = build_map("cubic", {"a": 1.8, "b": 1.0, "d": 0.04})
        model = DeterministicMapModel(1, pi, jac, [[-1.6, 1.6]], [[1.0]],
                                      0.05, "cubic")
        structure = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.15)
        grid = Grid.from_box(model.box, 321)
        balls, m_set, _ = grid.membership(structure)
        trace = mr.trace_kernel(mr.discretize_kernel(model, grid), m_set)
        law = mr.invariant_measure(trace)
        masses = [law[trace.local_indices(b)].sum() for b in balls]
        np.testing.assert_allclose(masses, [0.950, 0.050], atol=1e-3)


MEHLER_A = 0.5


def mehler_model(sigma):
    """x' = a x + sigma xi on [-2, 2]: the continuous kernel is Mehler's,
    with eigenvalues a^k and invariant law N(0, sigma^2 / (1 - a^2))."""
    dim, pi, jac = build_map("linear", {"a": MEHLER_A})
    return DeterministicMapModel(dim, pi, jac, [[-2, 2]], [[1.0]], sigma,
                                 "linear")


class TestMehlerOracle:
    GRID = Grid.from_box(np.array([[-2.0, 2.0]]), 401)

    @pytest.mark.parametrize("sigma,tol", [
        # sigma = 0.1: a row's Gaussian samples at spacing sigma / 10 sum to
        # its integral far below rounding, and the box edge is 17 stationary
        # sd out; measured 2.0e-15
        (0.1, 1e-12),
        # sigma = 0.3: the box's edge rows (5.8 sd out) move the higher
        # modes: lambda_3 reads 0.1249946, lambda_5 0.0311939 (5.6e-5 off)
        (0.3, 1e-4)])
    def test_spectrum_is_a_to_the_k(self, sigma, tol):
        # the spectrum command's route: all eigenvalues of the grid kernel
        lam = mr.eigenvalues(mr.discretize_kernel(mehler_model(sigma),
                                                  self.GRID))[:6]
        np.testing.assert_array_equal(lam.imag, 0.0)
        np.testing.assert_allclose(lam.real, MEHLER_A ** np.arange(6),
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("sigma", [0.1, 0.3])
    def test_invariant_law_variance(self, sigma):
        # six digits: at sigma = 0.3 the box cuts 3.1e-7 of the variance
        x = self.GRID.points()[:, 0]
        law = mr.invariant_measure(mr.discretize_kernel(mehler_model(sigma),
                                                        self.GRID))
        assert abs(law @ x) <= 1e-12
        assert law @ x ** 2 == pytest.approx(sigma ** 2 / (1 - MEHLER_A ** 2),
                                             rel=1e-6)

    @pytest.mark.parametrize("sigma", [0.1, 0.3])
    def test_simulated_path_variance(self, sigma, monkeypatch):
        # the path is read where simulate_chain's recursion writes it; for
        # the Gaussian AR(1) chain the sample variance of n steps has
        # standard error v sqrt(2 (1 + a^2) / ((1 - a^2) n)) and the mean
        # sqrt(v (1 + a) / ((1 - a) n)); both must lie within 4 of them
        model = mehler_model(sigma)
        structure = mr.build_metastable_structure(
            model, mr.find_fixed_points(model), 0.1)
        group, paths = metareduce.montecarlo._group, []

        def recording(*args):
            out = group(*args)
            paths.append(args[4].copy())
            return out

        monkeypatch.setattr(metareduce.montecarlo, "_group", recording)
        n, a = 100_000, MEHLER_A
        mr.simulate_chain(model, structure, structure.centers[0], n,
                          MASTER_SEED)
        path = np.concatenate(paths)[:, 0]
        assert path.size == n
        v = sigma ** 2 / (1 - a ** 2)
        assert abs(path.var() - v) <= 4 * v * np.sqrt(
            2 * (1 + a ** 2) / ((1 - a ** 2) * n))
        assert abs(path.mean()) <= 4 * np.sqrt(v * (1 + a) / ((1 - a) * n))


def separable_models(betas, variances, sigma):
    """``tanh2d`` with slopes ``betas`` and the diagonal covariance
    ``variances``, and the two 1D ``tanh`` maps it is the product of."""
    _, pi, jac = build_map("tanh2d", {"beta": list(betas)})
    box = [[-2.0, 2.0]]
    axes = [DeterministicMapModel(1, *build_map("tanh", {"beta": b})[1:],
                                  box, [[v]], sigma, "tanh")
            for b, v in zip(betas, variances)]
    return DeterministicMapModel(2, pi, jac, box * 2, np.diag(variances),
                                 sigma, "tanh2d"), axes


class TestSeparable2D:
    """With a diagonal covariance the 2D Gaussian kernel of a map acting
    axis by axis is the Kronecker product of the two 1D kernels (nodes in
    C order, x slowest), so its invariant law is the outer product."""

    CASES = [((2.0, 2.0), (1.0, 1.0)), ((2.0, 2.6), (1.0, 0.5))]

    @pytest.mark.parametrize("betas,variances", CASES)
    @pytest.mark.parametrize("sigma", [0.35, 0.2])
    def test_kernel_is_the_kronecker_product(self, betas, variances, sigma):
        # 41^2 nodes; measured at most 7.2e-14 (1.8e-14 and 4.3e-14 with
        # the identity); the smallest entry is 1.6e-148
        model, axes = separable_models(betas, variances, sigma)
        k1 = [mr.discretize_kernel(a, Grid.from_box(a.box, 41)).matrix
              for a in axes]
        k2 = mr.discretize_kernel(model, Grid.from_box(model.box, 41))
        np.testing.assert_allclose(k2.matrix, np.kron(*k1), rtol=1e-12,
                                   atol=0)

    @pytest.mark.parametrize("betas,variances", CASES)
    @pytest.mark.parametrize("sigma", [0.35, 0.2])
    def test_top_spectrum_is_the_products(self, betas, variances, sigma):
        # 21^2 nodes, the top 6 by Arnoldi against the 6 largest products
        # of the two dense 1D spectra; measured at most 5.6e-15
        model, axes = separable_models(betas, variances, sigma)
        lam = [mr.eigenvalues(mr.discretize_kernel(
            a, Grid.from_box(a.box, 21))) for a in axes]
        products = np.multiply.outer(*lam).ravel()
        got = mr.eigenvalues(mr.discretize_kernel(
            model, Grid.from_box(model.box, 21)), k=6)
        np.testing.assert_allclose(got, products[_descending(products)][:6],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("betas,variances", CASES)
    def test_invariant_law_is_the_outer_product(self, betas, variances):
        # 21^2 nodes (GTH is cubic in them); measured at most 2.7e-15
        model, axes = separable_models(betas, variances, 0.2)
        laws = [mr.invariant_measure(mr.discretize_kernel(
            a, Grid.from_box(a.box, 21))) for a in axes]
        law = mr.invariant_measure(mr.discretize_kernel(
            model, Grid.from_box(model.box, 21)))
        np.testing.assert_allclose(law, np.outer(*laws).ravel(), rtol=1e-12,
                                   atol=0)


class TestKernelCache:
    def test_roundtrip_and_exact_match(self, tmp_path):
        model = make_ref_model(0.5)
        g = Grid.from_box(model.box, 101)
        K = mr.discretize_kernel(model, g)
        save_kernel(tmp_path, model, g, K)
        loaded = load_kernel(tmp_path, model, g)
        np.testing.assert_array_equal(loaded.matrix, K.matrix)
        # a different sigma misses the cache
        assert load_kernel(tmp_path, make_ref_model(0.45), g) is None

    def test_str_cache_dir(self, tmp_path):
        # RunConfig.cache_dir is a str; both ends take it as given
        model = make_ref_model(0.5)
        g = Grid.from_box(model.box, 51)
        K = mr.discretize_kernel(model, g)
        cache_dir = str(tmp_path / "cache")
        save_kernel(cache_dir, model, g, K)
        loaded = load_kernel(cache_dir, model, g)
        np.testing.assert_array_equal(loaded.matrix, K.matrix)

    @pytest.mark.parametrize("change", [-3, -8, 3])
    def test_wrong_size_file_misses(self, tmp_path, change):
        # a cut or grown .kern file is a miss, whether or not its size is a
        # whole number of float64 entries
        model = make_ref_model(0.5)
        g = Grid.from_box(model.box, 51)
        key = save_kernel(tmp_path, model, g, mr.discretize_kernel(model, g))
        path = tmp_path / f"{key}.kern"
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + b"\0" * change)
        assert load_kernel(tmp_path, model, g) is None

    def test_schemas_key_their_own_entries(self, tmp_path, monkeypatch):
        # CACHE_SCHEMA keys the derived entries alone, so a bump for them
        # renames no kernel; KERNEL_SCHEMA renames the kernels
        model = make_ref_model(0.5)
        g = Grid.from_box(model.box, 51)
        K = mr.discretize_kernel(model, g)

        def names(**schemas):
            for name, value in schemas.items():
                monkeypatch.setattr(metareduce.kernel, name, value)
            cache = tmp_path / str(len(list(tmp_path.iterdir())))
            save_kernel(cache, model, g, K)
            meta = dict(metareduce.kernel.kernel_metadata(model, g), k=2)
            metareduce.kernel.save_entry(cache, "spectrum", meta, [[1.0]])
            return ({p.name for p in cache.glob("*.kern")},
                    {p.name for p in cache.glob("derived/spectrum/*.bin")})

        base = names(CACHE_SCHEMA=4, KERNEL_SCHEMA=4)
        derived = names(CACHE_SCHEMA=5)
        kernel = names(CACHE_SCHEMA=4, KERNEL_SCHEMA=5)
        assert derived[0] == base[0] and derived[1] != base[1]
        assert kernel[0] != base[0] and kernel[1] != base[1]

    def test_cache_key_sensitivity(self):
        base = {"map_id": "tanh", "dim": 1, "box": [[-2, 2]], "nodes": [101],
                "sigma": 0.5, "cov": [[1.0]]}
        other = dict(base, sigma=0.4)
        assert cache_key(base) != cache_key(other)


class TestKernelMatrixValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(NumericError):
            kernel_from_matrix([[1.1, -0.1], [0.5, 0.5]])

    def test_bad_row_sum_rejected(self):
        with pytest.raises(NumericError):
            kernel_from_matrix([[0.5, 0.3], [0.5, 0.5]])

    def test_substochastic_accepts_deficit(self):
        k = kernel_from_matrix([[0.5, 0.3], [0.1, 0.2]], kind="substochastic")
        assert k.kind == "substochastic"

    @pytest.fixture
    def k5(self):
        m = np.random.default_rng(0).random((5, 5))
        return kernel_from_matrix(m / m.sum(axis=1, keepdims=True))

    def test_repeated_state_rejected(self, k5):
        # a domain [1, 1, 3] would hold state 1 twice, its rows summing to
        # 0.47, 0.47 and 0.88
        with pytest.raises(NumericError, match="strictly increasing"):
            mr.killed_kernel(k5, [1, 1, 3])

    def test_unsorted_domain_rejected(self, k5):
        # a trace on domain [3, 1] could not look up its own states
        with pytest.raises(NumericError, match="strictly increasing"):
            mr.trace_kernel(k5, [3, 1])

    @pytest.mark.parametrize("func", ["trace_kernel", "killed_kernel"])
    @pytest.mark.parametrize("subset,match", [
        ([7, 8, 9, 10, 11], "not contained"),
        ([0, 0, 1, 2, 4], "strictly increasing"),
        ([3, 1], "strictly increasing"),
        ([1, 1, 3], "strictly increasing")])
    def test_subset_checked_before_any_solve(self, k5, monkeypatch, func,
                                             subset, match):
        # five indices are the whole domain only if they are its indices
        import scipy.linalg
        monkeypatch.setattr(scipy.linalg, "lu_factor", None)   # no LU runs
        with pytest.raises(NumericError, match=match):
            getattr(mr, func)(k5, subset)
