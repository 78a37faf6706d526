"""Nonsymmetric eigenanalysis, spectral-gap reports and QSD solvers.

scipy is imported inside the solves that use it, so set-up never loads it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, PrincipalNotSimple, ZeroColumn
from .kernel import KernelMatrix, killed_with_escape

RESIDUAL_TOL = 1e-8
CLUSTER_COND_CAP = 1e8
CLUSTER_GAP = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with binormalized left/right eigenvectors.

    ``right`` has eigenvectors as columns, ``left`` as rows, ordered by
    decreasing eigenvalue modulus (ties: descending real part, then
    descending imaginary part, which keeps conjugate pairs adjacent).
    Binormalization enforces left[i] . right[:, j] = delta_ij per cluster;
    clusters whose overlap matrix has condition number above 1e8 are flagged
    defective and kept as unnormalized blocks.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    n_modes: int
    binormalized: bool
    defective_clusters: tuple = field(default_factory=tuple)
    max_residual: float = 0.0


def eigendecompose(kernel, n_modes=None):
    """Eigendecomposition of a kernel matrix, in full or of its top modes.

    With ``n_modes + 1 < n - 1`` only the top ``n_modes + 1`` modes are
    computed (ARPACK on K and K^T), the extra one so that a cluster at the
    cutoff stays whole; otherwise a dense solve computes all n modes.
    The sign/phase convention makes the largest-modulus entry of each right
    eigenvector real and equal to 1; left vectors absorb the inverse factor
    so products are preserved.
    """
    K = kernel.matrix
    n = K.shape[0]
    if n_modes is None:
        n_modes = n
    if not (1 <= n_modes <= n):
        raise NumericError("n_modes must lie in [1, dimension]")
    if n_modes + 1 < n - 1:
        # implicitly restarted Arnoldi from a fixed start, so reruns agree
        from scipy.sparse.linalg import ArpackNoConvergence, eigs
        try:
            (lam, vr), (lam_l, vl) = [eigs(M, k=n_modes + 1, v0=np.ones(n))
                                      for M in (K, K.T)]
        except ArpackNoConvergence as exc:
            raise NumericError(f"Arnoldi did not converge: {exc}") from exc
        free = list(range(lam.size))   # pair with the nearest left value
        vl = vl[:, [free.pop(int(np.argmin(np.abs(lam_l[free] - z))))
                    for z in lam]]
    else:
        from scipy.linalg import eig
        lam, vl, vr = eig(K, left=True, right=True)
        vl = vl.conj()
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    lam = lam[order]
    R = vr[:, order].astype(complex)
    L = vl[:, order].T.astype(complex)

    clusters = _cluster(lam)
    defective = []
    for c in clusters:
        idx = list(c)
        G = L[idx, :] @ R[:, idx]
        # solver vectors are unit norm, so a healthy cluster has a Gram
        # matrix with smallest singular value of order 1; near-parallel
        # left/right spaces drive it to zero even when cond(G) stays small
        sv = np.linalg.svd(G, compute_uv=False)
        if sv[-1] < max(1.0, sv[0]) / CLUSTER_COND_CAP:
            defective.append(tuple(idx))
            continue
        L[idx, :] = np.linalg.solve(G, L[idx, :])
    lam, R, L = lam[:n_modes], R[:, :n_modes], L[:n_modes, :]

    # phase fixing: top entry of each right vector becomes 1 (real positive)
    for k in range(n_modes):
        j = int(np.argmax(np.abs(R[:, k])))
        c = R[j, k]
        if c != 0:
            R[:, k] = R[:, k] / c
            L[k, :] = L[k, :] * c

    norm = np.abs(K).sum(axis=1).max()
    res_r = np.abs(K @ R - R * lam[None, :]).max()
    res_l = np.abs(L @ K - lam[:, None] * L).max()
    max_res = float(max(res_r, res_l))
    if max_res > RESIDUAL_TOL * max(norm, 1.0):
        raise NumericError(f"eigen residual {max_res:.3g} exceeds tolerance")

    return SpectralDecomposition(
        eigenvalues=lam.copy(),
        right=R.copy(),
        left=L.copy(),
        n_modes=n_modes,
        binormalized=not defective,
        defective_clusters=tuple(defective),
        max_residual=max_res,
    )


def _cluster(lam):
    """Group adjacent (sorted) eigenvalues closer than the cluster gap."""
    scale = max(1.0, float(np.abs(lam).max()) if lam.size else 1.0)
    clusters, current = [], [0]
    for k in range(1, lam.size):
        if abs(lam[k] - lam[current[-1]]) <= CLUSTER_GAP * scale:
            current.append(k)
        else:
            clusters.append(current)
            current = [k]
    clusters.append(current)
    return clusters


@dataclass(frozen=True)
class GapReport:
    leading_moduli: np.ndarray
    distances_to_one: np.ndarray
    next_modulus: float
    gap_radius: float
    n_above_threshold: int
    rho_threshold: float
    passed: bool


def verify_spectral_gap(decomp, n_expected, rho_threshold):
    """Report whether exactly ``n_expected`` modes sit above the threshold."""
    if not (0.0 < rho_threshold < 1.0):
        raise NumericError("rho_threshold must lie in (0, 1)")
    mods = np.abs(decomp.eigenvalues)
    leading = mods[:n_expected]
    dists = np.abs(decomp.eigenvalues[:n_expected] - 1.0)
    nxt = float(mods[n_expected]) if decomp.n_modes > n_expected else 0.0
    count = int((mods > rho_threshold).sum())
    return GapReport(
        leading_moduli=leading.copy(),
        distances_to_one=dists.copy(),
        next_modulus=nxt,
        gap_radius=float(dists.max()) if dists.size else 0.0,
        n_above_threshold=count,
        rho_threshold=float(rho_threshold),
        passed=count == n_expected,
    )


@dataclass(frozen=True)
class QsdSolution:
    domain: np.ndarray
    lambda0: float
    qsd: np.ndarray
    next_modulus: float
    escape: float           # 1 - lambda0, summed from the mass leaving
    killed: KernelMatrix    # the chain killed on leaving the ball
    escape_rows: np.ndarray  # per-row mass leaving the ball

    @property
    def gap_ratio(self):
        return self.next_modulus / self.lambda0

    @property
    def mean_killing_time(self):
        return 1.0 / self.escape


def solve_qsd(trace_on_m, ball_indices, ball_index=-1):
    """Quasistationary distribution of the trace process killed off one ball.

    Returns the principal left eigenpair of the killed sub-kernel, with the
    QSD normalized to a probability vector over the ball's grid indices,
    and the killed kernel and row masses it was solved from.
    lambda0 = 1 - escape, escape = QSD . (row masses leaving the ball): the
    eigenvalue itself rounds to 1 once escape falls below machine epsilon.
    """
    if len(ball_indices) == trace_on_m.size:
        raise NumericError(f"ball {ball_index} is all of M: one metastable "
                           "state, nothing to reduce")
    killed, rows = killed_with_escape(trace_on_m, ball_indices)
    from scipy.linalg import eig
    lam, vl = eig(killed.matrix.T)
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    lam, vl = lam[order], vl[:, order]
    lam0 = lam[0]
    if abs(lam0.imag) > 1e-12 or not lam0.real > 0.0:
        raise NumericError(f"principal eigenvalue {lam0} is not positive")
    lam0 = float(lam0.real)
    next_mod = float(np.abs(lam[1])) if lam.size > 1 else 0.0
    if next_mod / lam0 > 1.0 - 1e-10:
        raise PrincipalNotSimple(
            f"|lambda1|/lambda0 = {next_mod / lam0} too close to 1")
    q = vl[:, 0].real
    if q.sum() < 0:
        q = -q
    if q.min() < -1e-10:
        raise NumericError("principal left eigenvector is not nonnegative")
    q = np.clip(q, 0.0, None)
    q /= q.sum()
    escape = float(q @ rows)
    if not escape > 0.0:
        raise NumericError("no mass escapes the ball under its QSD")
    resid = np.abs(q @ killed.matrix - (1.0 - escape) * q).sum()
    if resid > 1e-8:
        raise NumericError(f"QSD residual {resid:.3g} above 1e-8")
    return QsdSolution(killed.domain.copy(), 1.0 - escape, q,
                       next_mod, escape, killed, rows)


@dataclass(frozen=True)
class PositivityResult:
    n0: int
    achieved_ratio: float
    achieved: bool
    ratios: tuple


def check_uniform_positivity(kernel, l_target, n_cap=200):
    """Smallest power at which column oscillation drops below the target.

    Computes max_y [sup_x K^n(x,y) / inf_x K^n(x,y)] for n = 1, 2, ... and
    returns the first n with ratio <= l_target.  If the cap is reached, the
    best ratio seen is returned with ``achieved=False``.
    """
    if not (1.0 < l_target < 2.0):
        raise NumericError("l_target must lie in (1, 2)")
    K = kernel.matrix
    P = K.copy()
    ratios = []
    best = np.inf
    for n in range(1, n_cap + 1):
        lo = P.min(axis=0)
        hi = P.max(axis=0)
        if (lo <= 0.0).any():
            if n == n_cap and (hi <= 0.0).any():
                raise ZeroColumn(f"column of K^{n} identically zero at the cap")
            ratio = np.inf
        else:
            ratio = float((hi / lo).max())
        ratios.append(ratio)
        best = min(best, ratio)
        if ratio <= l_target:
            return PositivityResult(n, ratio, True, tuple(ratios))
        P = P @ K
    return PositivityResult(n_cap, best, False, tuple(ratios))


def positivity_cap(sigma):
    """Power-search cap 10 ceil(log(1/sigma)/log 2) + 50."""
    return 10 * int(np.ceil(np.log(1.0 / sigma) / np.log(2.0))) + 50
