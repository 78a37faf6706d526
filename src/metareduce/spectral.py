"""Nonsymmetric eigenanalysis, spectral-gap reports and QSD solvers.

Each consumer gets one route.  ``eigenvalues`` computes no eigenvectors: a
dense solve of the full spectrum, or ARPACK for the top k of a large kernel.
``eigendecompose`` keeps the top pairs of a small kernel (the trace on M)
from one dense solve of all pairs, binormalized as one block.
``solve_qsd`` takes the killed kernel's eigenvalues and its Perron vector
from one dense solve of its transpose.  ``checked_pairs`` and ``known``
pass cached outputs through the same checks.  scipy is imported inside the
solves that use it, so set-up and ``spectrum`` never load it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PrincipalNotSimple, ZeroColumn
from .kernel import KernelMatrix, killed_with_escape

RESIDUAL_TOL = 1e-8
CLUSTER_COND_CAP = 1e8


def _descending(lam):
    """Order by decreasing modulus (ties: descending real part, then
    descending imaginary part, which keeps conjugate pairs adjacent)."""
    return np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))


def eigenvalues(kernel, k=None):
    """Eigenvalues of a kernel matrix, sorted as by ``_descending``; no
    eigenvectors are computed.

    With ``k`` None a dense solve returns all n values.  Otherwise ARPACK on
    K alone returns the top ``k``; it is asked for one more, so that a
    cluster at the cutoff converges whole.
    """
    K = kernel.matrix
    n = K.shape[0]
    if k is not None and not (1 <= k <= n):
        raise NumericError("k must lie in [1, dimension]")
    if k is None or k + 1 >= n - 1:
        lam = np.linalg.eigvals(K)
    else:
        # implicitly restarted Arnoldi from a fixed start, so reruns agree
        from scipy.sparse.linalg import ArpackNoConvergence, eigs
        try:
            lam = eigs(K, k=k + 1, v0=np.ones(n), return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            raise NumericError(f"Arnoldi did not converge: {exc}") from exc
    lam = lam.astype(complex)[_descending(lam)]
    return lam if k is None else lam[:k]


@dataclass(frozen=True)
class SpectralDecomposition:
    """The top ``n_modes`` binormalized eigenpairs of ``eigendecompose``.

    ``right`` has eigenvectors as columns, ``left`` as rows, ordered as by
    ``_descending``, with left[i] . right[:, j] = delta_ij.  ``eigenvalues``
    holds one value more than the pairs when there is one, so a consumer
    can read the modulus of the first dropped mode.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    n_modes: int
    max_residual: float = 0.0


def eigendecompose(kernel, n_modes=None):
    """Top ``n_modes`` eigenpairs (all n by default), binormalized.

    Meant for small kernels such as the trace on M: one dense solve gives
    all pairs, and the top ones are kept.  Their left vectors are
    binormalized together, L <- (L R)^{-1} L; a Gram matrix with a
    singular value below 1e-8 of the largest raises NumericError.  Each
    right vector is scaled to largest modulus 1 and phased so its first
    entry of modulus >= 1/2 is real positive (the largest may tie its
    mirror entry to rounding); left vectors absorb the inverse factor so
    products are preserved.
    """
    K = kernel.matrix
    n = K.shape[0]
    if n_modes is None:
        n_modes = n
    if not (1 <= n_modes <= n):
        raise NumericError("n_modes must lie in [1, dimension]")
    from scipy.linalg import eig
    lam, vl, vr = eig(K, left=True, right=True)
    order = _descending(lam)
    lam = lam[order].astype(complex)
    R = vr[:, order[:n_modes]].astype(complex)
    L = vl[:, order[:n_modes]].conj().T.astype(complex)

    L = np.linalg.solve(_independent(L @ R), L)

    # the phase's parts divided apart, so a real entry's phase is exactly +-1
    mod = np.abs(R)
    at = np.argmax(mod >= mod.max(axis=0) / 2, axis=0), np.arange(n_modes)
    c = mod.max(axis=0) * (R[at].real / mod[at] + 1j * (R[at].imag / mod[at]))
    return checked_pairs(kernel, lam[:n_modes + 1].copy(), R / c[None, :],
                         L * c[:, None])


def _independent(G):
    # unit solver vectors give a healthy block a Gram matrix with smallest
    # singular value of order 1; near-parallel left/right spaces (a
    # defective eigenvalue) or a damaged cache entry drive it to zero
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[-1] < max(1.0, sv[0]) / CLUSTER_COND_CAP:
        raise NumericError("top eigenpairs are defective: their left and "
                           "right spaces are near-parallel")
    return G


def checked_pairs(kernel, lam, R, L):
    """The decomposition of binormalized right (columns) and left (rows)
    vectors R and L, either flat, of the leading values ``lam``, if they
    pass the Gram-matrix and residual tests; how a cached one is read."""
    K, m = kernel.matrix, kernel.size
    R, L = R.reshape(m, -1), L.reshape(-1, m)
    _independent(L @ R)
    top = lam[:R.shape[1]]
    norm = np.abs(K).sum(axis=1).max()
    res_r = np.abs(K @ R - R * top[None, :]).max()
    res_l = np.abs(L @ K - top[:, None] * L).max()
    max_res = float(max(res_r, res_l))
    if max_res > RESIDUAL_TOL * max(norm, 1.0):
        raise NumericError(f"eigen residual {max_res:.3g} exceeds tolerance")
    return SpectralDecomposition(lam, R, L, R.shape[1], max_res)


@dataclass(frozen=True)
class GapReport:
    leading_moduli: np.ndarray
    distances_to_one: np.ndarray
    next_modulus: float
    gap_radius: float
    n_above_threshold: int
    rho_threshold: float
    passed: bool


def verify_spectral_gap(eigvals, n_expected, rho_threshold):
    """Report whether exactly ``n_expected`` of the sorted eigenvalues
    ``eigvals`` sit above the threshold."""
    if not (0.0 < rho_threshold < 1.0):
        raise NumericError("rho_threshold must lie in (0, 1)")
    mods = np.abs(eigvals)
    leading = mods[:n_expected]
    dists = np.abs(eigvals[:n_expected] - 1.0)
    nxt = float(mods[n_expected]) if mods.size > n_expected else 0.0
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


def solve_qsd(trace_on_m, ball_indices, ball_index=-1, known=None):
    """Quasistationary distribution of the trace process killed off one ball.

    Returns the principal left eigenpair of the killed sub-kernel, with the
    QSD normalized to a probability vector over the ball's grid indices,
    and the killed kernel and row masses it was solved from.  The order,
    ``next_modulus`` and the Perron vector come from one dense solve of
    the transposed killed kernel; a cached ``known`` (QSD, next modulus)
    skips it, not the checks.  lambda0 = 1 - escape, escape =
    QSD . (row masses leaving the ball): the eigenvalue itself rounds to 1
    once escape falls below machine epsilon.  A closed class in the ball
    would leave only a rounding residue as the escape, so it raises.
    """
    if len(ball_indices) == trace_on_m.size:
        raise NumericError(f"ball {ball_index} is all of M: one metastable "
                           "state, nothing to reduce")
    killed, rows = killed_with_escape(trace_on_m, ball_indices)
    reach, edges = rows > 0.0, killed.matrix > 0.0
    # the leaking states, grown by every state with an edge into them
    while (more := reach | (edges & reach).any(axis=1)).sum() > reach.sum():
        reach = more
    if not reach.all():
        raise NumericError("no mass escapes the ball under its QSD")
    if known is not None:
        q, next_mod = known[0], float(known[1])
    else:
        lam, vecs = np.linalg.eig(killed.matrix.T)
        order = _descending(lam)
        lam = lam[order]
        lam0 = lam[0]
        if abs(lam0.imag) > 1e-12 or not lam0.real > 0.0:
            raise NumericError(f"principal eigenvalue {lam0} is not positive")
        lam0 = float(lam0.real)
        next_mod = float(np.abs(lam[1])) if lam.size > 1 else 0.0
        if next_mod / lam0 > 1.0 - 1e-10:
            raise PrincipalNotSimple(
                f"|lambda1|/lambda0 = {next_mod / lam0} too close to 1")
        q = vecs[:, order[0]].real
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
    if resid > 1e-8 or abs(q.sum() - 1.0) > 1e-12:    # the sum: a cached q
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
    if n_cap < 1:
        raise NumericError(f"n_cap = {n_cap} tests no power")
    P = K = kernel.matrix       # each power is a new array; K is not written
    ratios, best = [], np.inf
    for n in range(1, n_cap + 1):
        lo, hi = P.min(axis=0), P.max(axis=0)
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
    """Power-search cap 10 ceil(log(1/sigma)/log 2) + 50, at least 1."""
    return max(1, 10 * int(np.ceil(np.log(1.0 / sigma) / np.log(2.0))) + 50)
