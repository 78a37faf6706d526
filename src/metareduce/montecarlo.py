"""Simulation of the perturbed map and estimators for rare-event quantities.

All randomness flows through counter-based Philox streams derived from a
master seed and a worker id, so every estimate is a pure function of
(config, master seed, worker count).  Workers own contiguous blocks of runs
and are reduced in worker order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, Runaway, SimulationTimeout, ZeroHits

RUNAWAY_FACTOR = 100.0
DEFAULT_STEP_CAP = 100_000_000


def rng_stream(master_seed, worker_id):
    """Independent, reproducible Philox substream for one worker."""
    if worker_id < 0:
        raise NumericError("worker_id must be nonnegative")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(worker_id),))
    return np.random.Generator(np.random.Philox(seq))


def _chol(model):
    return np.linalg.cholesky(model.cov)


def _apply_map(model, xa):
    """Map a (block, d) array of points through pi, vectorizing when safe."""
    if model.dim == 1:
        out = np.asarray(model.pi(xa[:, 0]))
        if out.shape == (xa.shape[0],):
            return out[:, None]
    return np.array([np.atleast_1d(model.pi(p)) for p in xa])


@dataclass
class SimulationTrace:
    master_seed: int
    sigma: float
    n_steps: int
    worker_count: int
    event_steps: np.ndarray     # step index of each ball-entry/exit event
    event_balls: np.ndarray     # ball index (entered or exited)
    event_kinds: np.ndarray     # +1 entry, -1 exit
    event_positions: np.ndarray
    entry_counts: np.ndarray    # per-ball number of entries
    steps_in_ball: np.ndarray   # per-ball total residence steps
    exits_from_box: int
    final_position: np.ndarray

    @property
    def balls_visited(self):
        return np.where(self.entry_counts > 0)[0]


def simulate_chain(model, structure, x0, n_steps, seed, record_events=True):
    """Iterate X_{n+1} = pi(X_n) + sigma * L xi_n, logging ball entries/exits.

    Positions leaving the box are kept (the drift pulls them back) but
    counted; a position farther than 100 * diam(X) raises Runaway.
    """
    x0 = np.atleast_1d(np.asarray(x0, float))
    if not model.in_box(x0):
        raise NumericError("x0 must lie in the invariant box")
    L = _chol(model)
    rng = rng_stream(seed, 0)
    nballs = structure.n_balls
    runaway2 = (RUNAWAY_FACTOR * model.diam) ** 2

    ev_steps, ev_balls, ev_kinds, ev_pos = [], [], [], []
    entry_counts = np.zeros(nballs, dtype=np.int64)
    steps_in_ball = np.zeros(nballs, dtype=np.int64)
    exits_box = 0
    x = x0.copy()
    current = structure.ball_of(x)
    chunk = 65536
    done = 0
    while done < n_steps:
        take = min(chunk, n_steps - done)
        noise = model.sigma * (rng.standard_normal((take, model.dim)) @ L.T)
        for k in range(take):
            x = np.atleast_1d(model.pi(x)) + noise[k]
            step = done + k + 1
            if (x @ x) > runaway2:
                raise Runaway(f"|X_{step}| exceeded 100 diam(X)")
            if not model.in_box(x):
                exits_box += 1
            ball = structure.ball_of(x)
            if ball >= 0:
                steps_in_ball[ball] += 1
            if ball != current:
                if record_events:
                    if current >= 0:
                        ev_steps.append(step)
                        ev_balls.append(current)
                        ev_kinds.append(-1)
                        ev_pos.append(x.copy())
                    if ball >= 0:
                        ev_steps.append(step)
                        ev_balls.append(ball)
                        ev_kinds.append(+1)
                        ev_pos.append(x.copy())
                if ball >= 0:
                    entry_counts[ball] += 1
                current = ball
        done += take
    return SimulationTrace(
        master_seed=int(seed), sigma=model.sigma, n_steps=int(n_steps),
        worker_count=1,
        event_steps=np.array(ev_steps, dtype=np.int64),
        event_balls=np.array(ev_balls, dtype=np.int64),
        event_kinds=np.array(ev_kinds, dtype=np.int64),
        event_positions=(np.array(ev_pos) if ev_pos
                         else np.empty((0, model.dim))),
        entry_counts=entry_counts, steps_in_ball=steps_in_ball,
        exits_from_box=exits_box, final_position=x.copy())


@dataclass(frozen=True)
class EstimateWithError:
    estimate: float
    stderr: float
    n_samples: int
    sigma: float
    log_scale: float = field(default=np.nan)   # sigma^2 log(estimate)
    flag: str = ""


def _worker_blocks(total, workers):
    base = total // workers
    rem = total % workers
    return [base + (1 if w < rem else 0) for w in range(workers)]


def estimate_committor(model, structure, i, j, n_runs, seed, workers=1,
                       step_cap=DEFAULT_STEP_CAP):
    """P[reach ball j before returning to ball i], started at the i-th
    stable point so the first step is the displacing noise kick.

    Membership is tested only after a step (first-passage times
    tau+ = min{n >= 1 : X_n in B}), so a run still inside ball i after the
    first kick counts as a return, not a hit: the estimate is
    P_x[tau+_{B_j} < tau+_{B_i}] at the stable point x.
    """
    if i == j:
        raise NumericError("committor needs i != j")
    if n_runs < 100:
        raise NumericError("n_runs must be >= 100")
    L = _chol(model)
    x_start = structure.centers[i]
    hits = 0
    for w, block in enumerate(_worker_blocks(n_runs, workers)):
        if block == 0:
            continue
        rng = rng_stream(seed, w)
        x = np.tile(x_start, (block, 1))
        active = np.ones(block, bool)
        steps = 0
        while active.any():
            steps += 1
            if steps > step_cap:
                raise SimulationTimeout(f"committor run exceeded {step_cap} steps")
            xa = x[active]
            xa = _apply_map(model, xa) \
                + model.sigma * (rng.standard_normal(xa.shape) @ L.T)
            x[active] = xa
            d2i = ((xa - structure.centers[i]) ** 2).sum(axis=1)
            d2j = ((xa - structure.centers[j]) ** 2).sum(axis=1)
            in_j = d2j <= structure.radii[j] ** 2
            in_i = d2i <= structure.radii[i] ** 2
            hits += int(in_j.sum())
            idx = np.where(active)[0]
            active[idx[in_j | in_i]] = False
    if hits == 0:
        raise ZeroHits("no run reached the target ball",
                       upper_bound=3.0 / n_runs)
    p = hits / n_runs
    se = float(np.sqrt(p * (1.0 - p) / n_runs))
    return EstimateWithError(p, se, n_runs, model.sigma,
                             float(model.sigma ** 2 * np.log(p)))


def _in_m(x, structure):
    d2 = ((x[:, None, :] - structure.centers[None, :, :]) ** 2).sum(axis=2)
    return (d2 <= structure.radii[None, :] ** 2).any(axis=1)


def estimate_ex(model, structure, grid, n_starts, seed, fixed_points=None,
                n_reps=200, workers=1, step_cap=DEFAULT_STEP_CAP):
    """Worst-case mean hitting time of the metastable union.

    Starts are a coarse sub-lattice of the box of about ``n_starts`` nodes,
    always augmented with the neighborhoods of the unstable fixed points
    (the slowest region).  Returns the maximum over starts of the per-start
    mean, with the batch standard error of the argmax start.  The maximum of
    noisy means is biased upward, and ``stderr`` is that of the argmax
    start's mean alone; it does not cover the choice of the argmax.
    """
    if n_starts < 100:
        raise NumericError("n_starts must be >= 100")
    pts = grid.points()
    stride = max(1, grid.n_nodes // n_starts)
    starts = [pts[k] for k in range(0, grid.n_nodes, stride)]
    if fixed_points is not None:
        h = grid.spacings
        for r in fixed_points:
            if not r.is_stable:
                starts.append(np.atleast_1d(r.location))
                for axis in range(model.dim):
                    for s in (-2.0, -1.0, 1.0, 2.0):
                        p = np.atleast_1d(r.location).copy()
                        p[axis] += s * h[axis]
                        if model.in_box(p):
                            starts.append(p)
    L = _chol(model)
    best_mean, best_se = -np.inf, np.nan
    total = 0
    for s_idx, x0 in enumerate(starts):
        times = np.zeros(n_reps)
        off = 0
        for w, block in enumerate(_worker_blocks(n_reps, workers)):
            if block == 0:
                continue
            rng = rng_stream(seed, s_idx * max(workers, 1) + w)
            x = np.tile(np.atleast_1d(x0), (block, 1))
            t = np.zeros(block)
            active = np.ones(block, bool)
            steps = 0
            while active.any():
                steps += 1
                if steps > step_cap:
                    raise SimulationTimeout(f"hit run exceeded {step_cap} steps")
                xa = x[active]
                imgs = np.array([np.atleast_1d(model.pi(p)) for p in xa]) \
                    if model.dim > 1 else np.atleast_2d(model.pi(xa[:, 0])).T
                xa = imgs + model.sigma * (rng.standard_normal(xa.shape) @ L.T)
                x[active] = xa
                hit = _in_m(xa, structure)
                idx = np.where(active)[0]
                t[idx[hit]] = steps
                active[idx[hit]] = False
            times[off:off + block] = t
            off += block
        total += n_reps
        mean = float(times.mean())
        if mean > best_mean:
            best_mean = mean
            best_se = float(times.std(ddof=1) / np.sqrt(n_reps))
    return EstimateWithError(best_mean, best_se, total, model.sigma)


def empirical_diluted_trace(model, structure, i, m, n_blocks, n_runs, seed,
                            workers=1, step_cap=DEFAULT_STEP_CAP):
    """Frequencies of the ball occupied at the (n m)-th visit to the
    metastable union, n = 0..n_blocks, over runs started at the i-th stable
    point.  Returns (freqs, stderrs) of shape (n_balls, n_blocks + 1)."""
    if n_runs < 1000:
        raise NumericError("n_runs must be >= 1000")
    if m < 1:
        raise NumericError("m must be >= 1")
    nballs = structure.n_balls
    counts = np.zeros((nballs, n_blocks + 1), dtype=np.int64)
    counts[i, 0] = n_runs    # visit 0 is the start, inside ball i
    L = _chol(model)
    for w, block in enumerate(_worker_blocks(n_runs, workers)):
        if block == 0:
            continue
        rng = rng_stream(seed, w)
        # state of the active runs only, kept in run order: each step draws
        # one noise row per active run, in that order
        xa = np.tile(structure.centers[i], (block, 1))
        visits = np.zeros(block, dtype=np.int64)
        recorded = np.ones(block, dtype=np.int64)   # blocks recorded so far
        steps = 0
        while xa.shape[0]:
            steps += 1
            if steps > step_cap:
                raise SimulationTimeout(f"trace run exceeded {step_cap} steps")
            xa = _apply_map(model, xa) \
                + model.sigma * (rng.standard_normal(xa.shape) @ L.T)
            d2 = ((xa[:, None, :] - structure.centers[None, :, :]) ** 2).sum(axis=2)
            inball = d2 <= structure.radii[None, :] ** 2
            in_m = inball.any(axis=1)
            visits += in_m
            due = in_m & (visits == recorded * m)
            np.add.at(counts, (inball[due].argmax(axis=1), recorded[due]), 1)
            recorded += due
            keep = recorded <= n_blocks
            if not keep.all():
                xa, visits, recorded = xa[keep], visits[keep], recorded[keep]
    freqs = counts / n_runs
    se = np.sqrt(freqs * (1.0 - freqs) / n_runs)
    return freqs, se


def fit_log_scaling(sigmas, values):
    """Least-squares fit of a log(1/sigma) + b; returns (a, b, r_squared)."""
    x = np.log(1.0 / np.asarray(sigmas, float))
    y = np.asarray(values, float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(coef[0]), float(coef[1]), r2
