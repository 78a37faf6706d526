"""Deterministic map models, fixed-point analysis and metastable balls."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BallConstructionFailed, ConfigError, DriftViolated,
                     MarginalFixedPoint, NoStableFixedPoint, NumericError)

STABILITY_MARGIN = 1e-6         # |rho - 1| below this is marginal
NEWTON_RESIDUAL_FACTOR = 1e-10  # * diam(X)
DEDUP_FACTOR = 1e-6             # * diam(X)
JAC_CHECK_RTOL = 1e-5
RADIUS_FLOOR_FACTOR = 1e-3      # * diam(X)


@dataclass(frozen=True)
class DeterministicMapModel:
    """A map with its invariant box and the Gaussian noise it is driven by.

    ``pi`` and ``jac`` act on points of shape (d,).  ``box`` has shape (d, 2)
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
        return bool(np.all(x >= self.box[:, 0]) and np.all(x <= self.box[:, 1]))

    def validate(self, nodes_per_axis=33, n_jac_samples=32, seed=0):
        """Sampled positive-invariance and Jacobian consistency checks."""
        axes = [np.linspace(lo, hi, nodes_per_axis) for lo, hi in self.box]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        for x in pts:
            if not self.in_box(self.pi(x)):
                raise NumericError(
                    f"box is not positively invariant: pi({x}) leaves it")
        rng = np.random.default_rng(seed)
        lo, hi = self.box[:, 0], self.box[:, 1]
        for _ in range(n_jac_samples):
            x = lo + (hi - lo) * rng.random(self.dim)
            J = np.atleast_2d(self.jac(x))
            Jfd = _fd_jacobian(self.pi, x)
            scale = max(np.abs(Jfd).max(), 1.0)
            if np.abs(J - Jfd).max() > JAC_CHECK_RTOL * scale:
                raise NumericError(
                    f"Jacobian disagrees with finite differences at {x}")
        return True


def _fd_jacobian(pi, x, h=1e-6):
    d = x.size
    J = np.empty((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        J[:, k] = (np.atleast_1d(pi(x + e)) - np.atleast_1d(pi(x - e))) / (2 * h)
    return J


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
        """Index of the ball containing x (closed balls), or -1."""
        d2 = ((self.centers - x) ** 2).sum(axis=1)
        hits = np.where(d2 <= self.radii ** 2)[0]
        return int(hits[0]) if hits.size else -1


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
    axes = [np.linspace(lo, hi, seeds_per_axis) for lo, hi in model.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=-1)

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
        F = np.atleast_1d(model.pi(x)) - x
        if np.linalg.norm(F) <= tol:
            return x
        J = np.atleast_2d(model.jac(x)) - np.eye(model.dim)
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
    rng = np.random.default_rng(seed)
    pts = [center]
    for scale in (1.0, 0.5, 0.25):
        if model.dim == 1:
            pts += [center + np.array([radius * scale]),
                    center - np.array([radius * scale])]
        else:
            for _ in range(n_boundary):
                u = rng.standard_normal(model.dim)
                u /= np.linalg.norm(u)
                pts.append(center + radius * scale * u)
    r2 = radius ** 2 + 1e-15
    return all(((np.atleast_1d(model.pi(p)) - center) ** 2).sum() <= r2 for p in pts)


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
        px = np.atleast_1d(model.pi(x))
        drift = float(px @ px + model.sigma ** 2 * trace_cov - x @ x)
        worst = max(worst, drift)
        if drift >= 0:
            raise DriftViolated(
                f"nonnegative drift {drift:.3g} at {x}", sample=x, drift=drift)
        if np.linalg.norm(x) >= r0 and px @ px > x @ x:
            contraction_ok = False
    return DriftReport(worst, -worst, n_samples, contraction_ok)
