"""Finite-rank projections of the watched kernel and the reduced N-state chain.

Everything here lives on the index set of the metastable union M.  Measures
are row vectors, test functions column vectors.  Each ball B_i is two (N, |M|)
rows, built once per sigma from its QSD: 1_{B_i} and QSD_i extended by zeros;
P*, the projectors and P read only these, and no |M| x |M| projector is kept.
The top-N spectral projector Pi0 comes from the binormalized eigenpairs;
P, the exact N x N compression of the truncated kernel in the (mu_i, psi_j)
basis, is read off (K0)^m through the QSD and psi rows, not off eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BasisDegenerate, NegativeEntry, NumericError, Overflow,
                     ThetaTooLarge)
from .spectral import solve_qsd

BIORTH_TOL = 1e-8
COMPLETENESS_TOL = 1e-6
ROW_SUM_TOL = 1e-10
CLAMP_FLOOR = -1e-8
SQUARING_DRIFT_TOL = 1e-12


def choose_m(sigma, theta, h0=None):
    """Time dilution m = ceil(exp(theta / sigma^2))."""
    if h0 is not None and not (0.0 < theta < h0):
        raise ThetaTooLarge(f"theta = {theta} not in (0, H0 = {h0})")
    if theta <= 0:
        raise ThetaTooLarge("theta must be positive")
    ratio = theta / sigma ** 2
    if ratio > 600.0:
        raise Overflow(f"theta/sigma^2 = {ratio:.1f} > 600; m unrepresentable")
    return int(math.ceil(math.exp(ratio)))


def default_theta(h0, sigma):
    """min(H0/4, sigma^2 ln 1e6): keeps m <= 1e6 and theta well below H0."""
    return min(h0 / 4.0, sigma ** 2 * math.log(1e6))


def solve_all_qsds(trace_on_m, ball_grid_indices, known=None):
    known = known or [None] * len(ball_grid_indices)    # see solve_qsd
    return [solve_qsd(trace_on_m, b, ball_index=i, known=k)
            for i, (b, k) in enumerate(zip(ball_grid_indices, known))]


def ball_rows(trace_on_m, qsds):
    """The (N, |M|) rows 1_{B_i} and QSD_i (zero off B_i), placed by each
    solution's grid-index domain inside the M kernel domain."""
    indicators = np.zeros((len(qsds), trace_on_m.size))
    qsd_rows = np.zeros_like(indicators)
    for i, q in enumerate(qsds):
        at = trace_on_m.local_indices(q.domain)
        indicators[i, at], qsd_rows[i, at] = 1.0, q.qsd
    return indicators, qsd_rows


def build_pstar(trace_on_m, indicators, qsd_rows):
    """Hop matrix P*_ij = P^{QSD_i}[first watched step lands in ball j]."""
    pstar = qsd_rows @ trace_on_m.matrix @ indicators.T
    if np.abs(pstar.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise NumericError("P* rows must sum to 1 (trace kernel is stochastic)")
    return pstar


@dataclass(frozen=True)
class Projectors:
    """The (mu, psi) basis and the (N, |M|) ball rows it was built from."""

    mu: np.ndarray          # (N, |M|) rows are signed measures
    psi: np.ndarray         # (N, |M|) rows are test functions psi_j
    eps: np.ndarray         # (N, N)
    indicators: np.ndarray  # (N, |M|) rows 1_{B_j}
    qsd_rows: np.ndarray    # (N, |M|) rows QSD_i extended by zeros


def build_projectors(decomp, indicators, qsd_rows):
    """mu_i, psi_j and eps_ij from the top-N spectral projector Pi0.

    ``indicators`` and ``qsd_rows`` are the (N, |M|) rows of ``ball_rows``,
    1_{B_i} and QSD_i zero off B_i, so Pi* = indicators^T qsd_rows.
    psi_j = Pi0 1_{B_j}, and mu_i = QSD_i [Id - Pi0_perp Pi*]^{-1} Pi0 is
    one solve with the N x N matrix Id - eps.
    """
    n = indicators.shape[0]
    if decomp.n_modes < n:
        raise NumericError("decomposition must retain at least N modes")
    R = decomp.right[:, :n]
    L = decomp.left[:n, :]
    if np.abs(L @ R - np.eye(n)).max() > BIORTH_TOL:
        raise NumericError("top-N modes are not binormalized")
    pi0 = R @ L     # real, unless the top N split a complex conjugate pair
    why = ("; the top-N modes split a complex conjugate pair"
           if np.abs(pi0.imag).max() > BIORTH_TOL else "")
    pi0 = pi0.real

    psi = (pi0 @ indicators.T).T
    eps = np.eye(n) - qsd_rows @ psi.T

    # hypothesis <QSD_i| Pi0 Pi* != 0, i.e. rows of (I - eps) Q do not vanish
    if np.abs((np.eye(n) - eps) @ qsd_rows).max(axis=1).min() < 1e-12:
        raise BasisDegenerate("<QSD_i| Pi0 Pi* vanished for some ball")

    try:
        mu = np.linalg.solve(np.eye(n) - eps, qsd_rows @ pi0)
    except np.linalg.LinAlgError as exc:
        raise BasisDegenerate(f"Id - eps is singular: {exc}") from exc

    if np.abs(mu @ psi.T - np.eye(n)).max() > BIORTH_TOL:
        raise NumericError("<mu_i, psi_j> = delta_ij failed" + why)
    completeness = np.abs(psi.T @ mu - pi0).sum(axis=1).max()
    if completeness > COMPLETENESS_TOL:
        raise NumericError(
            f"sum_i psi_i x mu_i differs from Pi0 by {completeness:.3g}{why}")
    return Projectors(mu, psi, eps, indicators, qsd_rows)


def build_p(km, projectors):
    """Reduced matrix P_ij = <mu_i, (trunc K0)^m psi_j>, read off ``km`` =
    (K0)^m with no eigenvalue power: Pi0 commutes with K0 and fixes psi, and
    mu = (Id - eps)^{-1} QSD Pi0, so P = (Id - eps)^{-1} <QSD_i, km psi_j>.

    Also reports the per-entry multiplicative deviation from the watched-chain
    probability <QSD_i, (K0)^m 1_{B_j}> predicted to be exponentially small.
    """
    n = projectors.eps.shape[0]
    qkm = projectors.qsd_rows @ km
    p = np.linalg.solve(np.eye(n) - projectors.eps, qkm @ projectors.psi.T)
    if p.min() < CLAMP_FLOOR:
        raise NegativeEntry(
            f"P entry {p.min():.3g} below {CLAMP_FLOOR}; sigma too large "
            "for the asymptotic regime")
    clamped = p.min() < 0.0
    p = np.clip(p, 0.0, None)
    sums = p.sum(axis=1)
    if np.abs(sums - 1.0).max() > ROW_SUM_TOL:
        raise NumericError(f"P row sums off by {np.abs(sums - 1).max():.3g}")
    p = p / sums[:, None]

    # multiplicative comparison against the exact watched-chain hop
    exact = qkm @ projectors.indicators.T
    rel = p / exact - 1.0
    return p, rel, clamped


def reduced_chain_marginals(p, start, n_steps):
    """delta_start P^n for n = 0..n_steps, stacked as rows."""
    n = p.shape[0]
    if not 0 <= start < n:
        raise NumericError(f"start state {start} outside [0, {n})")
    v = np.zeros(n)
    v[start] = 1.0
    out = [v.copy()]
    for _ in range(n_steps):
        v = v @ p
        out.append(v.copy())
    return np.array(out)


def stochastic_power(matrix, n):
    """matrix^n by repeated squaring, renormalizing row sums each squaring.

    Raises if any squaring drifts row sums by more than 1e-12, which would
    signal accumulating error rather than representable roundoff.
    """
    if n < 0:
        raise NumericError("power must be nonnegative")
    result = np.eye(matrix.shape[0])
    base = matrix.copy()
    k = n
    while k:
        if k & 1:
            result = result @ base
            result = _renormalize(result)
        k >>= 1
        if k:
            base = base @ base
            base = _renormalize(base)
    return result


def _renormalize(m):
    sums = m.sum(axis=1)
    if np.abs(sums - 1.0).max() > SQUARING_DRIFT_TOL * m.shape[0]:
        raise NumericError("row sums drifted during repeated squaring")
    return m / sums[:, None]


@dataclass(frozen=True)
class ReducedChainModel:
    """Everything the reduction produces; ``to_dict`` serializes all but
    ``km``, the watched kernel (K0)^m on M."""

    n_balls: int
    m: int
    theta: float
    p: np.ndarray
    pstar: np.ndarray
    eps: np.ndarray
    eigenvalues: np.ndarray
    rho: float
    multiplicative_error: np.ndarray
    qsds: tuple
    km: np.ndarray

    def to_dict(self):
        return {
            "n_balls": self.n_balls,
            "m": self.m,
            "theta": self.theta,
            "P": self.p.tolist(),
            "P_star": self.pstar.tolist(),
            "eps": self.eps.tolist(),
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "rho": self.rho,
            "multiplicative_error": self.multiplicative_error.tolist(),
            "qsd_lambda0": [q.lambda0 for q in self.qsds],
            "qsd_gap_ratio": [q.gap_ratio for q in self.qsds],
        }


def build_reduced_chain(trace_on_m, decomp, qsds, sigma, theta, h0=None):
    """Full reduction from the top eigenpairs and the balls' QSDs: their
    ball rows, P*, projectors, m, (K0)^m and the reduced matrix P."""
    n = len(qsds)
    indicators, qsd_rows = ball_rows(trace_on_m, qsds)
    pstar = build_pstar(trace_on_m, indicators, qsd_rows)
    projectors = build_projectors(decomp, indicators, qsd_rows)
    m = choose_m(sigma, theta, h0=h0)
    km = stochastic_power(trace_on_m.matrix, m)
    p, rel, _ = build_p(km, projectors)
    mods = np.abs(decomp.eigenvalues)
    rho = float(mods[n]) if mods.size > n else 0.0
    model = ReducedChainModel(n, m, float(theta), p, pstar,
                              projectors.eps, decomp.eigenvalues[:n + 1],
                              rho, rel, tuple(qsds), km)
    return model, projectors


def diluted_marginal_deviation(km, projectors, p, start_local, n_max):
    """Exact comparison of the watched chain against the reduced chain.

    Returns per-step deviations max_j |delta_x (K0)^{nm} 1_{B_j} - (P^n)_ij|
    for n = 0..n_max, by vector iteration with ``km`` = (K0)^m.
    """
    if not 0 <= start_local < km.shape[0]:
        raise NumericError(f"start index {start_local} outside "
                           f"[0, {km.shape[0]})")
    ball = np.flatnonzero(projectors.indicators[:, start_local])
    if ball.size != 1:
        raise NumericError("start index must lie in exactly one ball")
    v = np.zeros(km.shape[0])
    v[start_local] = 1.0
    marginals = reduced_chain_marginals(p, int(ball[0]), n_max)
    devs = []
    for n in range(n_max + 1):
        lhs = projectors.indicators @ v
        devs.append(float(np.abs(lhs - marginals[n]).max()))
        if n < n_max:
            v = v @ km
    return np.array(devs)
