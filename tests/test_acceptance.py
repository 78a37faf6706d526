"""Acceptance criteria for the reference double-well system.

Reference setup: tanh(2x) on [-2, 2], unit covariance, delta = 0.2, grid of
401 nodes, fixed seeds.  Each test prints one pass/fail line for its
criterion and asserts the criterion at its stated tolerance.
"""

import time

import numpy as np
import pytest

import metareduce as mr
from metareduce.kernel import killed_kernel
from metareduce.montecarlo import fit_log_scaling
from metareduce.reduction import (build_reduced_chain,
                                  diluted_marginal_deviation, solve_all_qsds)
from metareduce.spectral import check_uniform_positivity, positivity_cap

from conftest import (HAND_K3, MASTER_SEED, exact_committor,
                      exact_hitting_times, kernel_from_matrix, make_ref_model)

GAP_SIGMAS = (0.5, 0.4, 0.35)
EK_SIGMAS = (0.5, 0.4, 0.35, 0.3)
COMMITTOR_SIGMAS = (0.5, 0.4)
# the LDP limit is checked on the exact committor, down to where p ~ 4e-15;
# with H off by 10% the deviation turns back up between 0.12 and 0.1
LDP_SIGMAS = (0.5, 0.4, 0.3, 0.2, 0.15, 0.12, 0.1)
# at sigma >= 0.15 the killed kernel is uniformly positive after one step
# (L = 1.9), so n0 can only grow below that; this halving ladder has n0 = 1..4
UPC_SIGMAS = (0.2, 0.1, 0.05, 0.025)
EX_SIGMAS = (0.5, 0.4, 0.3, 0.25)


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def reduced(cache, ref, table):
    out = {}
    for sigma in (0.35, 0.3):
        trace = cache.trace(sigma)
        decomp = cache.trace_decomp(sigma)
        model, proj = build_reduced_chain(
            trace, decomp, solve_all_qsds(trace, ref["balls"]), sigma,
            table.h0 / 4.0, h0=table.h0)
        start = trace.local_indices(np.array(
            [ref["grid"].nearest_index(ref["structure"].centers[0])]))[0]
        devs = diluted_marginal_deviation(model.km, proj, model.p, start, 50)
        out[sigma] = (model, proj, devs)
    return out


def test_criterion_1_spectral_gap(cache):
    """Exactly 2 eigenvalues above 0.9, third below 0.75, lambda_1 real."""
    ok = True
    details = []
    for sigma in GAP_SIGMAS:
        start = time.perf_counter()
        decomp = mr.eigendecompose(cache.kernel(sigma))
        elapsed = time.perf_counter() - start
        mods = np.abs(decomp.eigenvalues)
        lam1 = decomp.eigenvalues[1]
        ok &= int((mods > 0.9).sum()) == 2
        ok &= mods[2] < 0.75
        ok &= abs(lam1.imag) < 1e-12
        ok &= 1.0 - lam1.real > 0.0
        ok &= elapsed < 60.0
        details.append(f"s={sigma}: l1={lam1.real:.5f} |l2|={mods[2]:.3f} "
                       f"({elapsed:.1f}s)")
    assert report(1, ok, "; ".join(details))


def test_criterion_2_eyring_kramers_log_asymptotics(cache, table):
    """sigma^2 log(1 - lambda_1) of the watched kernel tracks -H0 within 20%,
    improving as sigma decreases (one inversion allowed)."""
    errors = []
    for sigma in EK_SIGMAS:
        lam1 = cache.trace_decomp(sigma).eigenvalues[1].real
        log_asym = sigma ** 2 * np.log(1.0 - lam1)
        errors.append(abs(log_asym + table.h0) / table.h0)
    within = all(e <= 0.20 for e in errors)
    inversions = sum(1 for a, b in zip(errors, errors[1:]) if b > a + 1e-12)
    ok = within and inversions <= 1
    assert report(2, ok,
                  f"H0={table.h0:.4f}, rel errors="
                  + ", ".join(f"{e:.3f}" for e in errors)
                  + f", inversions={inversions}")


def test_criterion_3_committor_ldp(cache, ref, table):
    """sigma^2 log p + H(1,2) -> 0 as sigma -> 0, and p_hat estimates p.

    The LDP is a small-noise limit. The sub-exponential prefactor keeps the
    deviation above 0.15 H0 down to sigma ~ 0.15, where p ~ 2e-7 is out of
    reach of plain Monte Carlo. So the limit is checked on the exact grid
    committor p (tau+ convention, started at the grid node nearest the
    stable point): its deviation must shrink at every step of LDP_SIGMAS and
    be within 0.15 H0 at the two smallest sigma. The estimator is checked
    where it counts hits: p_hat within 3 stderr of p at COMMITTOR_SIGMAS.
    """
    tol = 0.15 * table.h0
    h12 = table.h_matrix[0, 1]
    b0, b1 = ref["balls"]
    start = ref["grid"].nearest_index(ref["structure"].centers[0])
    exact = {sigma: exact_committor(cache.kernel(sigma), b0, b1)[start]
             for sigma in LDP_SIGMAS}
    devs = [abs(sigma ** 2 * np.log(exact[sigma]) + h12)
            for sigma in LDP_SIGMAS]
    ok = all(b < a for a, b in zip(devs, devs[1:]))
    ok &= max(devs[-2:]) <= tol
    details = []
    for sigma in COMMITTOR_SIGMAS:
        t0 = time.perf_counter()
        est = mr.estimate_committor(make_ref_model(sigma), ref["structure"],
                                    [(0, 1)], 10_000, MASTER_SEED,
                                    workers=4)[0]
        elapsed = time.perf_counter() - t0
        z = (est.estimate - exact[sigma]) / est.stderr
        ok &= abs(z) <= 3.0 and elapsed < 300.0
        details.append(f"s={sigma}: p_hat={est.estimate:.4f} "
                       f"p={exact[sigma]:.4f} z={z:+.2f}")
    assert report(3, ok, f"tol={tol:.4f}; exact dev="
                  + ", ".join(f"{d:.4f} (s={sigma}, p={exact[sigma]:.2e})"
                              for sigma, d in zip(LDP_SIGMAS, devs))
                  + "; " + "; ".join(details))


def test_criterion_4_qsd_geometric_law(cache, ref):
    """Killing-time law from the QSD is geometric to 1e-8 relative."""
    trace = cache.trace(0.35)
    sol = mr.solve_qsd(trace, ref["balls"][0])
    killed = killed_kernel(trace, ref["balls"][0])
    kill_mass = 1.0 - killed.matrix.sum(axis=1)
    v = sol.qsd.copy()
    worst = 0.0
    for n in range(1, 11):
        prob = float(v @ kill_mass)
        expected = sol.lambda0 ** (n - 1) * (1.0 - sol.lambda0)
        worst = max(worst, abs(prob / expected - 1.0))
        v = v @ killed.matrix
    ok = worst <= 1e-8
    assert report(4, ok, f"lambda0={sol.lambda0:.6f}, "
                         f"max relative dev={worst:.2e}")


def test_criterion_5_uniform_positivity_scaling(cache, ref):
    """UPC holds with L = 1.9 for all balls; n0 grows like log(1/sigma).

    n0 is the largest over balls of the first power at which the killed
    trace kernel has column ratio <= 1.9. Its log(1/sigma) growth is a
    small-noise statement: at sigma >= 0.15 n0 = 1, so UPC_SIGMAS starts
    below that.
    """
    n0s = []
    achieved_all = True
    for sigma in UPC_SIGMAS:
        trace = cache.trace(sigma)
        per_ball = []
        for ball in ref["balls"]:
            res = check_uniform_positivity(killed_kernel(trace, ball), 1.9,
                                           n_cap=positivity_cap(sigma))
            achieved_all &= res.achieved
            per_ball.append(res.n0)
        n0s.append(max(per_ball))
    slope, _, r2 = fit_log_scaling(UPC_SIGMAS, n0s)
    ok = achieved_all and slope > 0 and r2 >= 0.8
    assert report(5, ok, f"achieved={achieved_all}, n0 ladder: "
                  + ", ".join(f"s={sigma}: {n}"
                              for sigma, n in zip(UPC_SIGMAS, n0s))
                  + f"; slope={slope:.3f}, R2={r2:.3f}")


def test_criterion_6_basis_identities(reduced):
    """<mu_i, psi_j> and <mu_i, 1_Bj> biorthogonal to 1e-8; psi complete;
    |eps| <= 1e-3 at sigma = 0.35."""
    model, proj, _ = reduced[0.35]
    eye = np.eye(2)
    d1 = np.abs(proj.mu @ proj.psi.T - eye).max()
    d2 = np.abs(proj.mu @ proj.indicators.T - eye).max()
    d3 = np.abs(proj.psi.sum(axis=0) - 1.0).max()
    d4 = np.abs(proj.eps).max()
    ok = d1 <= 1e-8 and d2 <= 1e-8 and d3 <= 1e-8 and d4 <= 1e-3
    assert report(6, ok, f"<mu,psi> dev={d1:.1e}, <mu,1> dev={d2:.1e}, "
                         f"sum psi dev={d3:.1e}, max|eps|={d4:.1e}")


def test_criterion_7_reduction_exact_matrix(reduced):
    """Watched-chain marginals match the reduced chain to 1e-2 uniformly for
    n <= 50, improving from sigma 0.35 to 0.3."""
    start = time.perf_counter()
    dev35 = reduced[0.35][2].max()
    dev30 = reduced[0.3][2].max()
    elapsed = time.perf_counter() - start
    m35 = reduced[0.35][0].m
    ok = dev35 <= 1e-2 and dev30 < dev35 and elapsed < 600.0
    assert report(7, ok, f"m={m35}, max dev: {dev35:.2e} (s=0.35) -> "
                         f"{dev30:.2e} (s=0.3)")


def test_criterion_8_reduction_monte_carlo(reduced, ref):
    """Empirical diluted-trace frequencies within 3 SE + exact bound."""
    model, _, devs = reduced[0.35]
    freqs, ses = mr.empirical_diluted_trace(
        make_ref_model(0.35), ref["structure"], 0, model.m, 20, 10_000,
        MASTER_SEED, workers=4)
    marginals = mr.reduced_chain_marginals(model.p, 0, 20).T
    bound = 3.0 * ses + devs.max()
    excess = (np.abs(freqs - marginals) - bound).max()
    ok = excess <= 0.0
    assert report(8, ok, f"m={model.m}, worst excess over 3SE+exact bound: "
                         f"{excess:.2e}")


def test_criterion_9_hitting_time_scaling(cache, ref):
    """Worst-case mean hitting times of M fit a log(1/sigma) + b, a > 0.

    Over EX_SIGMAS the worst case grows by only 0.04-0.09 per step, below
    what 400 runs per start resolve (stderr 0.13-0.17), and the max over
    noisy per-start means is biased upward. So the scaling is fitted on the
    exact worst case over grid nodes, max_x E_x tau+_M, and the estimator
    must be within 3 stderr of it at each sigma.
    """
    fps = mr.find_fixed_points(make_ref_model(0.35))
    exact = [float(exact_hitting_times(cache.kernel(sigma),
                                       ref["m_set"]).max())
             for sigma in EX_SIGMAS]
    ok = True
    zs = []
    for sigma, worst in zip(EX_SIGMAS, exact):
        est = mr.estimate_ex(make_ref_model(sigma), ref["structure"],
                             ref["grid"], 128, MASTER_SEED,
                             fixed_points=fps, n_reps=400)
        zs.append((est.estimate - worst) / est.stderr)
        ok &= abs(zs[-1]) <= 3.0
    slope, _, r2 = fit_log_scaling(EX_SIGMAS, exact)
    ok &= slope > 0 and r2 >= 0.9
    assert report(9, ok, "exact=" + ", ".join(f"{m:.3f}" for m in exact)
                         + "; z=" + ", ".join(f"{z:+.2f}" for z in zs)
                         + f"; slope={slope:.3f}, R2={r2:.3f}")


def test_criterion_10_oracle_equivalences(table):
    """Hand-checkable identities: trace, QSD, shortest path, transitivity."""
    start = time.perf_counter()
    k3 = kernel_from_matrix(HAND_K3)
    traced = mr.trace_kernel(k3, [0, 1])
    d_trace = np.abs(traced.matrix
                     - np.array([[0.6, 0.4], [0.3, 0.7]])).max()

    trace9 = kernel_from_matrix(
        [[0.5, 0.2, 0.3], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]])
    sol = mr.solve_qsd(trace9, [0, 1])
    d_qsd = max(abs(sol.lambda0 - 0.7),
                float(np.abs(sol.qsd - np.array([0.6, 0.4])).max()))

    from test_quasipotential import FakeGraph, THREE_NODE
    dist, _ = mr.quasipotential_from(FakeGraph(3, THREE_NODE), [0])
    d_dijkstra = abs(dist[2] - 2.5)

    via = mr.trace_kernel(mr.trace_kernel(k3, [0, 1]), [0])
    direct = mr.trace_kernel(k3, [0])
    d_transitivity = np.abs(via.matrix - direct.matrix).max()

    elapsed = time.perf_counter() - start
    ok = (d_trace <= 1e-12 and d_qsd <= 1e-10 and d_dijkstra == 0.0
          and d_transitivity <= 1e-10 and elapsed < 1.0)
    assert report(10, ok,
                  f"trace dev={d_trace:.1e}, qsd dev={d_qsd:.1e}, "
                  f"path dev={d_dijkstra:.1e}, "
                  f"transitivity dev={d_transitivity:.1e} ({elapsed:.2f}s)")
