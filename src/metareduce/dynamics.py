"""Deterministic map models, fixed-point analysis and metastable balls."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (BallConstructionFailed, ConfigError, MarginalFixedPoint,
                     NoStableFixedPoint, NumericError)
from .grid import Grid

STABILITY_MARGIN = 1e-6         # |rho - 1| below this is marginal
NEWTON_RESIDUAL_FACTOR = 1e-10  # * diam(X)
DEDUP_FACTOR = 1e-6             # * diam(X)
JAC_CHECK_RTOL = 1e-5
RADIUS_FLOOR_FACTOR = 1e-3      # * diam(X)
NEWTON_MAX_ITER = 100
BALL_TOL = 1e-15                # slack on r^2 of the closed-ball test


@dataclass(frozen=True)
class DeterministicMapModel:
    """A map with its invariant box and the Gaussian noise it is driven by.

    ``pi`` and ``jac`` act on arrays of points of shape (..., d) and return
    shapes (..., d) and (..., d, d).  ``box`` has shape (d, 2)
    with rows (lo, hi).  ``cov`` is the noise covariance C (symmetric
    positive definite) and ``sigma`` the scalar noise level.  ``map_id`` and
    ``map_params`` name the map; the kernel cache keys on both.

    The one-step law is X_{n+1} = pi(X_n) + sigma L xi_n, C = L L^T.  The
    kernel (density exp(-rate / sigma^2)), the action graph and Monte Carlo
    read it only through ``rate(d)`` = d^T C^{-1} d / 2 and ``noise(z)`` =
    sigma z L^T; C^{-1} and L are computed once, on first use.
    """

    dim: int
    pi: callable
    jac: callable
    box: np.ndarray
    cov: np.ndarray
    sigma: float
    map_id: str = "custom"
    map_params: dict = field(default=None, compare=False)

    def __post_init__(self):
        box = np.atleast_2d(np.asarray(self.box, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "cov", cov)
        if box.shape != (self.dim, 2) or not (box[:, 1] > box[:, 0]).all():
            raise ConfigError("box must be (d, 2) with hi > lo per axis")
        if cov.shape != (self.dim, self.dim):
            raise ConfigError("cov must be d x d")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("cov must be symmetric")
        if np.linalg.eigvalsh(cov)[0] <= 0:
            raise ConfigError("cov must be positive definite")
        # sigma = 0 is allowed for noiseless simulation; kernel ops reject it
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ConfigError("sigma must be a nonnegative finite real")

    @functools.cached_property
    def _factors(self):
        """C^{-1} and L, or None for an L that is exactly I."""
        chol = np.linalg.cholesky(self.cov)
        unit = (chol == np.eye(self.dim)).all()
        return np.linalg.inv(self.cov), None if unit else chol

    def rate(self, d):
        """d^T C^{-1} d / 2 for each row of d, shape (..., d) -> (...): the
        terms d_k C^{-1}_kl d_l added k-major, so a row's bits do not depend
        on the batch it is in."""
        return 0.5 * sum(d[..., k] * c * d[..., l]
                         for (k, l), c in np.ndenumerate(self._factors[0]))

    def noise(self, z, out=None):
        """sigma z L^T for standard normal rows z, shape (..., d), written
        to ``out`` if given (C-contiguous, of z's shape)."""
        chol = self._factors[1]
        if chol is None:    # z 1 + z' 0 is z, bar a normal of exactly -0.0
            return np.multiply(z, self.sigma, out=out)
        # np.dot gives the bits of z @ L^T, without matmul's overhead
        d = np.dot(z, chol.T, out=out)
        return np.multiply(d, self.sigma, out=d)

    @property
    def diam(self):
        return float(np.linalg.norm(self.box[:, 1] - self.box[:, 0]))

    def in_box(self, x):
        """Whether each point of x, shape (..., d), lies in the closed box.
        Tested column by column: a reduction over a short last axis is
        slow."""
        x, (lo, hi) = np.asarray(x), self.box.T
        inside = (x[..., 0] >= lo[0]) & (x[..., 0] <= hi[0])
        for k in range(1, self.dim):
            inside &= (x[..., k] >= lo[k]) & (x[..., k] <= hi[k])
        return inside

    def validate(self):
        """Positive invariance on 33 nodes per axis, Jacobian at 32 draws."""
        pts = Grid.from_box(self.box, 33).points()
        outside = ~self.in_box(self.pi(pts))
        if outside.any():
            raise NumericError("box is not positively invariant: "
                               f"pi({pts[outside.argmax()]}) leaves it")
        lo, hi = self.box[:, 0], self.box[:, 1]
        xs = lo + (hi - lo) * np.random.default_rng(0).random((32, self.dim))
        # central differences: row k of x + e is x + h e_k, so the result
        # is indexed [sample, k, j] and is transposed to [sample, j, k]
        h = 1e-6
        x, e = xs[:, None, :], h * np.eye(self.dim)
        jfd = ((self.pi(x + e) - self.pi(x - e)) / (2 * h)).swapaxes(-1, -2)
        scale = np.maximum(np.abs(jfd).max(axis=(-2, -1)), 1.0)
        err = np.abs(self.jac(xs) - jfd).max(axis=(-2, -1))
        bad = err > JAC_CHECK_RTOL * scale
        if bad.any():
            raise NumericError("Jacobian disagrees with finite differences "
                               f"at {xs[bad.argmax()]}")
        return True


@dataclass(frozen=True)
class FixedPointRecord:
    location: np.ndarray
    spectral_radius: float
    stability: str          # "stable" | "unstable" | "marginal"
    index: int = -1         # 1-based, stable points only

    @property
    def is_stable(self):
        return self.stability == "stable"


@dataclass(frozen=True)
class MetastableStructure:
    centers: np.ndarray     # (N, d)
    radii: np.ndarray       # (N,)
    requested_delta: float

    @property
    def n_balls(self):
        return len(self.radii)

    def membership(self, x):
        """The N closed-ball rows of x, shape (..., d), each of shape
        (...): row k tells which points lie in ball k (``in_ball``)."""
        x = np.asarray(x, float)
        return [self.in_ball(x, k) for k in range(self.n_balls)]

    def ball_of(self, x):
        """Index of the closed ball containing each point of x, shape
        (..., d), or -1; where balls overlap the first one wins."""
        rows = self.membership(x)
        out = np.full(np.shape(rows[0]), -1)
        for k in range(self.n_balls - 1, -1, -1):     # the first ball last
            out = np.where(rows[k], k, out)
        return out[()]

    def in_ball(self, x, k):
        """Whether each point of x is in ball k: |x - c|^2 <= r^2 + BALL_TOL,
        summed axis by axis.  Grid membership, the invariance check and
        every Monte Carlo estimator use this test."""
        return _in_closed_ball(x, self.centers[k], self.bounds[k])

    @functools.cached_property
    def bounds(self):
        """Per ball, r^2 + BALL_TOL, one radius at a time: a scalar square
        may differ in the last bit from an array's."""
        return np.array([r ** 2 + BALL_TOL for r in self.radii])


def _in_closed_ball(x, center, bound):
    """Whether |x - c|^2 <= bound for each point of x, shape (..., d): one
    ball, or one per point with ``center`` (..., d) and ``bound`` (...)."""
    d2 = x[..., 0] - center[..., 0]
    d2 *= d2
    for a in range(1, x.shape[-1]):
        t = x[..., a] - center[..., a]
        t *= t
        d2 += t
    return d2 <= bound


def classify_stability(jacobian):
    """Spectral radius of a Jacobian and its stability tag."""
    J = np.atleast_2d(np.asarray(jacobian, dtype=float))
    if not np.isfinite(J).all():
        raise NumericError("Jacobian has non-finite entries")
    rho = float(np.max(np.abs(np.linalg.eigvals(J))))
    if rho < 1.0 - STABILITY_MARGIN:
        tag = "stable"
    elif rho > 1.0 + STABILITY_MARGIN:
        tag = "unstable"
    else:
        tag = "marginal"
    return rho, tag


def find_fixed_points(model, seeds_per_axis=12):
    """Newton search for fixed points of the map from a seed lattice.

    The seed lattice is iterated as one batch, one ``pi`` and ``jac`` call
    per step; a seed fails on a singular J - I, a non-finite step or one
    longer than diam(X), or after NEWTON_MAX_ITER steps.
    Stable points are indexed 1..N by lexicographic order of their
    coordinates, which makes the indexing independent of the seed lattice.
    Raises NoStableFixedPoint when no stable point is found and
    MarginalFixedPoint when any converged point sits on the stability margin.
    """
    if seeds_per_axis < 8:
        raise ConfigError("seeds_per_axis must be >= 8")
    diam = model.diam
    x = Grid.from_box(model.box, seeds_per_axis).points()
    roots = np.full(x.shape, np.nan)    # per seed; NaN where Newton failed
    live = np.arange(len(x))            # the seeds still iterating
    for _ in range(NEWTON_MAX_ITER):
        F = model.pi(x) - x
        done = np.linalg.norm(F, axis=-1) <= NEWTON_RESIDUAL_FACTOR * diam
        roots[live[done]] = x[done]
        x, F, live = x[~done], F[~done], live[~done]
        if not live.size:
            break
        J = model.jac(x) - np.eye(model.dim)
        # numpy's batched solve raises for the whole stack on one singular J
        ok = np.linalg.det(J) != 0
        step = np.full_like(x, np.inf)
        step[ok] = np.linalg.solve(J[ok], F[ok, :, None])[..., 0]
        with np.errstate(over="ignore"):    # inf, NaN and huge steps fail
            ok = np.linalg.norm(step, axis=-1) <= diam
        x, live = x[ok] - step[ok], live[ok]
    found = roots[model.in_box(roots)]          # NaN rows are not in it
    # sort lexicographically, ties in seed order, then dedup
    found = found[np.lexsort(found.T[::-1])]
    dedup = []
    for x in found:
        if not any(np.linalg.norm(x - y) <= DEDUP_FACTOR * diam for y in dedup):
            dedup.append(x)

    records, idx = [], 0
    for x, jac in zip(dedup, model.jac(np.reshape(dedup, (-1, model.dim)))):
        rho, tag = classify_stability(jac)
        if tag == "marginal":
            raise MarginalFixedPoint(
                f"fixed point {x} has spectral radius {rho} within "
                f"{STABILITY_MARGIN} of 1")
        idx += tag == "stable"
        records.append(FixedPointRecord(x, rho, tag,
                                        idx if tag == "stable" else -1))
    if not idx:
        raise NoStableFixedPoint("no stable fixed point found in the box")
    return records


def build_metastable_structure(model, fixed_points, delta):
    """Closed Euclidean balls around the stable fixed points.

    Each radius starts at ``delta`` and is halved until the sampled
    invariance check pi(B_i) in B_i passes; overlapping pairs are then both
    halved (largest-overlap first) until all balls are pairwise disjoint.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    stable = [r for r in fixed_points if r.is_stable]
    if not stable:
        raise NoStableFixedPoint("structure needs at least one stable point")
    stable.sort(key=lambda r: r.index)
    centers = np.array([r.location for r in stable])
    floor = RADIUS_FLOOR_FACTOR * model.diam

    radii = []
    for c in centers:
        r = float(delta)
        while not _ball_invariant(model, c, r):
            r *= 0.5
            if r < floor:
                raise BallConstructionFailed(
                    f"ball at {c} shrank below {floor} without invariance")
        radii.append(r)
    radii = np.array(radii)

    # enforce strict pairwise disjointness of the closed balls
    while True:
        worst, pair = 0.0, None
        for i in range(len(radii)):
            for j in range(i + 1, len(radii)):
                overlap = radii[i] + radii[j] - np.linalg.norm(centers[i] - centers[j])
                if overlap >= worst and overlap >= 0:
                    worst, pair = overlap, (i, j)
        if pair is None:
            break
        for k in pair:
            radii[k] *= 0.5
            if radii[k] < floor:
                raise BallConstructionFailed("disjointness forced radius below floor")
            if not _ball_invariant(model, centers[k], radii[k]):
                raise BallConstructionFailed(
                    f"ball {k} lost invariance while shrinking for disjointness")
    return MetastableStructure(centers, radii, float(delta))


def _ball_invariant(model, center, radius):
    scales = np.array([1.0, 0.5, 0.25])
    u = np.random.default_rng(1).standard_normal((3 * 64, model.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    offsets = radius * np.repeat(scales, 64)[:, None] * u
    pts = np.vstack([center, center + offsets])
    return bool(_in_closed_ball(model.pi(pts), center,
                                radius ** 2 + BALL_TOL).all())


@dataclass(frozen=True)
class DriftReport:
    """Each sample of ``check_lyapunov_drift`` and its drift, in draw
    order; the drift condition holds when every drift is negative."""
    samples: np.ndarray     # (64, d)
    drifts: np.ndarray      # (64,)


def check_lyapunov_drift(model):
    """Drift of U(x) = |x - c|^2, c the box centre, under one noisy step,
    at 64 points (seed 2) in the shell 1.05 to 2 half-diagonals from c:
    each draws a direction, then a radius, and all map in one ``pi`` call.

    For Gaussian noise the expectation is exact:
    E|pi(x) + sigma xi - c|^2 = |pi(x) - c|^2 + sigma^2 tr(cov).  A negative
    drift gives |pi(x) - c| < |x - c| in floating point too, as
    sigma^2 tr(cov) >= 0 and rounding is monotone.  Never raises.
    """
    rng = np.random.default_rng(2)
    lo, hi = model.box[:, 0], model.box[:, 1]
    center, half = (lo + hi) / 2, (hi - lo) / 2
    xs = np.empty((64, model.dim))
    for x in xs:
        u = rng.standard_normal(model.dim)
        u /= np.linalg.norm(u)
        x[:] = center + u * (1.05 + 0.95 * rng.random()) * np.linalg.norm(half)
    noise = model.sigma ** 2 * float(np.trace(model.cov))
    # one dot per row: a row sum over the batch may differ in the last bit
    drifts = np.array([p @ p + noise - q @ q for p, q in
                       zip(model.pi(xs) - center, xs - center)])
    return DriftReport(xs, drifts)
