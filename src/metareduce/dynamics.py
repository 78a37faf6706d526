"""Deterministic map models, fixed-point analysis and metastable balls."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BallConstructionFailed, ConfigError, DriftViolated,
                     MarginalFixedPoint, NoStableFixedPoint, NumericError)
from .grid import Grid

STABILITY_MARGIN = 1e-6         # |rho - 1| below this is marginal
NEWTON_RESIDUAL_FACTOR = 1e-10  # * diam(X)
DEDUP_FACTOR = 1e-6             # * diam(X)
JAC_CHECK_RTOL = 1e-5
RADIUS_FLOOR_FACTOR = 1e-3      # * diam(X)


@dataclass(frozen=True)
class DeterministicMapModel:
    """A map with its invariant box and the Gaussian noise it is driven by.

    ``pi`` and ``jac`` act on arrays of points of shape (..., d) and return
    shapes (..., d) and (..., d, d).  ``box`` has shape (d, 2)
    with rows (lo, hi).  ``cov`` is the noise covariance (symmetric positive
    definite) and ``sigma`` the scalar noise level.  ``map_id`` and
    ``map_params`` name the map; the kernel cache keys on both.
    """

    dim: int
    pi: callable
    jac: callable
    box: np.ndarray
    cov: np.ndarray
    sigma: float
    map_id: str = "custom"
    cov_bounds: tuple = field(default=None)
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
        eig = np.linalg.eigvalsh(cov)
        if eig[0] <= 0:
            raise ConfigError("cov must be positive definite")
        object.__setattr__(self, "cov_bounds", (float(eig[0]), float(eig[-1])))
        # sigma = 0 is allowed for noiseless simulation; kernel ops reject it
        if not (self.sigma >= 0 and np.isfinite(self.sigma)):
            raise ConfigError("sigma must be a nonnegative finite real")

    @property
    def diam(self):
        return float(np.linalg.norm(self.box[:, 1] - self.box[:, 0]))

    def in_box(self, x):
        """Whether each point of x, shape (..., d), lies in the closed box."""
        return np.all((x >= self.box[:, 0]) & (x <= self.box[:, 1]), axis=-1)

    def validate(self, nodes_per_axis=33, n_jac_samples=32, seed=0):
        """Sampled positive-invariance and Jacobian consistency checks."""
        pts = Grid.from_box(self.box, nodes_per_axis).points()
        outside = ~self.in_box(self.pi(pts))
        if outside.any():
            raise NumericError("box is not positively invariant: "
                               f"pi({pts[outside.argmax()]}) leaves it")
        rng = np.random.default_rng(seed)
        lo, hi = self.box[:, 0], self.box[:, 1]
        xs = lo + (hi - lo) * rng.random((n_jac_samples, self.dim))
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

    def ball_of(self, x):
        """Index of the closed ball containing each point of x, shape
        (..., d), or -1; where balls overlap the first one wins."""
        x = np.asarray(x, float)
        out = np.full(x.shape[:-1], -1)
        for k in range(self.n_balls - 1, -1, -1):     # the first ball last
            out[self.in_ball(x, k)] = k
        return out[()]

    def in_ball(self, x, k):
        """Whether each point of x is in ball k (one, or one per point)."""
        c = self.centers[k]
        d2 = 0.0
        for a in range(x.shape[-1]):
            d2 = d2 + (x[..., a] - c[..., a]) ** 2
        return d2 <= self.radii[k] ** 2


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

    Stable points are indexed 1..N by lexicographic order of their
    coordinates, which makes the indexing independent of the seed lattice.
    Raises NoStableFixedPoint when no stable point is found and
    MarginalFixedPoint when any converged point sits on the stability margin.
    """
    if seeds_per_axis < 8:
        raise ConfigError("seeds_per_axis must be >= 8")
    diam = model.diam
    tol = NEWTON_RESIDUAL_FACTOR * diam
    seeds = Grid.from_box(model.box, seeds_per_axis).points()

    found = []
    for s in seeds:
        x = _newton(model, s, tol)
        if x is None or not model.in_box(x):
            continue
        found.append(x)
    # deterministic merge: sort lexicographically, then dedup
    found.sort(key=lambda p: tuple(p))
    dedup = []
    for x in found:
        if not any(np.linalg.norm(x - y) <= DEDUP_FACTOR * diam for y in dedup):
            dedup.append(x)

    records = []
    for x in dedup:
        rho, tag = classify_stability(model.jac(x))
        if tag == "marginal":
            raise MarginalFixedPoint(
                f"fixed point {x} has spectral radius {rho} within "
                f"{STABILITY_MARGIN} of 1")
        records.append(FixedPointRecord(x, rho, tag))

    stable = [r for r in records if r.is_stable]
    if not stable:
        raise NoStableFixedPoint("no stable fixed point found in the box")
    stable.sort(key=lambda r: tuple(r.location))
    out = []
    idx = 0
    for r in sorted(records, key=lambda r: tuple(r.location)):
        if r.is_stable:
            idx += 1
            r = FixedPointRecord(r.location, r.spectral_radius, r.stability, idx)
        out.append(r)
    return out


def _newton(model, x0, tol, max_iter=100):
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        F = model.pi(x) - x
        if np.linalg.norm(F) <= tol:
            return x
        J = model.jac(x) - np.eye(model.dim)
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(step).all() or np.linalg.norm(step) > model.diam:
            return None
        x = x - step
    return None


def build_metastable_structure(model, fixed_points, delta, n_boundary=64, seed=1):
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
        while not _ball_invariant(model, c, r, n_boundary, seed):
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
            if not _ball_invariant(model, centers[k], radii[k], n_boundary, seed):
                raise BallConstructionFailed(
                    f"ball {k} lost invariance while shrinking for disjointness")
    return MetastableStructure(centers, radii, float(delta))


def _ball_invariant(model, center, radius, n_boundary, seed):
    scales = np.array([1.0, 0.5, 0.25])
    if model.dim == 1:
        offsets = np.concatenate([radius * scales, -radius * scales])[:, None]
    else:
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((3 * n_boundary, model.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        offsets = radius * np.repeat(scales, n_boundary)[:, None] * u
    pts = np.vstack([center, center + offsets])
    r2 = radius ** 2 + 1e-15
    return bool((((model.pi(pts) - center) ** 2).sum(axis=-1) <= r2).all())


@dataclass(frozen=True)
class DriftReport:
    max_drift: float
    epsilon: float
    n_samples: int
    contraction_ok: bool


def check_lyapunov_drift(model, n_samples=64, seed=2, shell=(1.05, 2.0)):
    """Drift of U(x) = |x|^2 under one noisy step, sampled outside the box.

    For Gaussian noise the expectation is exact:
    E|pi(x) + sigma xi|^2 = |pi(x)|^2 + sigma^2 tr(cov).  Raises
    DriftViolated at the first sample with nonnegative drift.
    """
    rng = np.random.default_rng(seed)
    lo, hi = model.box[:, 0], model.box[:, 1]
    center = (lo + hi) / 2
    half = (hi - lo) / 2
    trace_cov = float(np.trace(model.cov))
    r0 = float(np.linalg.norm(half + np.abs(center)))

    worst = -np.inf
    contraction_ok = True
    for _ in range(n_samples):
        u = rng.standard_normal(model.dim)
        u /= np.linalg.norm(u)
        scale = shell[0] + (shell[1] - shell[0]) * rng.random()
        x = center + u * scale * np.linalg.norm(half)
        px = model.pi(x)
        drift = float(px @ px + model.sigma ** 2 * trace_cov - x @ x)
        worst = max(worst, drift)
        if drift >= 0:
            raise DriftViolated(
                f"nonnegative drift {drift:.3g} at {x}", sample=x, drift=drift)
        if np.linalg.norm(x) >= r0 and px @ px > x @ x:
            contraction_ok = False
    return DriftReport(worst, -worst, n_samples, contraction_ok)
