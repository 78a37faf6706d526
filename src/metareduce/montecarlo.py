"""Simulation of the perturbed map and estimators for rare-event quantities.

All randomness flows through counter-based Philox streams derived from a
master seed and a worker id, so every estimate is a pure function of
(config, master seed, worker count).  Workers own contiguous blocks of runs,
each on its own stream; all blocks are stepped together in one process, so
the worker count sets only this stream layout.
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


@dataclass
class SimulationTrace:
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


def simulate_chain(model, structure, x0, n_steps, seed):
    """Iterate X_{n+1} = pi(X_n) + sigma * L xi_n, logging ball entries/exits.

    Positions leaving the box are kept (the drift pulls them back) but
    counted; a position farther than 100 * diam(X) raises Runaway.  Only
    the positions are computed step by step: the runaway bound, box exits,
    ball residence and events are checked per chunk of steps, an exit
    before an entry at the same step.
    """
    x0 = np.atleast_1d(np.asarray(x0, float))
    if not model.in_box(x0):
        raise NumericError("x0 must lie in the invariant box")
    L = np.linalg.cholesky(model.cov)
    rng = rng_stream(seed, 0)
    nballs = structure.n_balls
    runaway2 = (RUNAWAY_FACTOR * model.diam) ** 2

    empty = np.empty(0, dtype=np.int64)
    # per chunk: event steps, balls, kinds and positions
    events = [(empty, empty, empty, np.empty((0, model.dim)))]
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
        path = np.empty((take, model.dim))
        # a runaway path may overflow before the chunk ends
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(take):
                path[k] = x = model.pi(x) + noise[k]
            far = ~((path * path).sum(axis=1) <= runaway2)    # NaN too
        if far.any():
            raise Runaway(f"|X_{done + far.argmax() + 1}| exceeded 100 diam(X)")
        exits_box += int((~model.in_box(path)).sum())
        ball = structure.ball_of(path)
        steps_in_ball += np.bincount(ball[ball >= 0], minlength=nballs)
        prev = np.concatenate([[current], ball[:-1]])
        moved = np.nonzero(ball != prev)[0]
        entered = moved[ball[moved] >= 0]
        entry_counts += np.bincount(ball[entered], minlength=nballs)
        left = moved[prev[moved] >= 0]
        at = np.concatenate([left, entered])
        kinds = np.repeat([-1, 1], [left.size, entered.size])
        # stable: an exit stays before an entry at the same step
        order = np.argsort(at, kind="stable")
        at, kinds = at[order], kinds[order]
        events.append((done + at + 1,
                       np.where(kinds < 0, prev[at], ball[at]),
                       kinds, path[at]))
        current = ball[-1]
        done += take
    ev_steps, ev_balls, ev_kinds, ev_pos = map(np.concatenate, zip(*events))
    return SimulationTrace(
        event_steps=ev_steps, event_balls=ev_balls, event_kinds=ev_kinds,
        event_positions=ev_pos,
        entry_counts=entry_counts, steps_in_ball=steps_in_ball,
        exits_from_box=exits_box, final_position=x.copy())


@dataclass(frozen=True)
class EstimateWithError:
    estimate: float
    stderr: float
    n_samples: int
    sigma: float
    log_scale: float = field(default=np.nan)   # sigma^2 log(estimate)


def _run(model, groups, seed, workers, step_cap, what, retire, *state):
    """Step groups ``(x0, n_runs, stream0)`` of runs started at x0, laid
    out one after another, until ``retire`` has stopped them all.

    A group's worker blocks are contiguous, block w on stream
    ``stream0 + w``.  All blocks are stepped together, so ``workers`` sets
    only the stream layout: each step draws, block by block in run order,
    one noise row per active run, then maps all active runs at once.
    ``retire(step, x, idx, *state)`` gets the new positions of the active
    runs, their indices among all runs and their per-run state entries
    (which it may update in place), and returns a mask of the runs that
    stop; the arrays are compacted only on steps where some do.
    """
    L = np.linalg.cholesky(model.cov)
    rngs, counts, x = [], [], []
    for x0, n_runs, stream0 in groups:
        rngs += [rng_stream(seed, stream0 + w) for w in range(workers)]
        counts += [n_runs // workers + (w < n_runs % workers)
                   for w in range(workers)]
        x.append(np.tile(x0, (n_runs, 1)))
    x = np.concatenate(x)
    idx = np.arange(x.shape[0])
    bounds = np.cumsum([0] + counts)
    step = 0
    while x.shape[0]:
        step += 1
        if step > step_cap:
            raise SimulationTimeout(f"{what} run exceeded {step_cap} steps")
        noise = np.concatenate([rng.standard_normal((n, model.dim))
                                for rng, n in zip(rngs, counts) if n])
        x = model.pi(x) + model.sigma * (noise @ L.T)
        stop = retire(step, x, idx, *state)
        if stop.any():
            keep = ~stop
            x, idx = x[keep], idx[keep]
            state = [a[keep] for a in state]
            counts = np.diff(np.searchsorted(idx, bounds))


def estimate_committor(model, structure, pairs, n_runs, seed, workers=1,
                       step_cap=DEFAULT_STEP_CAP):
    """For each ordered pair (i, j) of ``pairs``, P[reach ball j before
    returning to ball i], started at the i-th stable point so the first
    step is the displacing noise kick.  Returns one estimate per pair.

    Membership is tested only after a step (first-passage times
    tau+ = min{n >= 1 : X_n in B}), so a run still inside ball i after the
    first kick counts as a return, not a hit: the estimate is
    P_x[tau+_{B_j} < tau+_{B_i}] at the stable point x.  The pairs are
    stepped together, each on streams 0, 1, ... of the seed as if alone.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise NumericError("committor needs i != j")
    if n_runs < 100:
        raise NumericError("n_runs must be >= 100")
    home, target = np.repeat(pairs, n_runs, axis=0).T
    hit = np.zeros(home.size, bool)

    def retire(step, x, idx):
        # a point in both balls counts as a hit
        reached = structure.in_ball(x, target[idx])
        hit[idx[reached]] = True
        return reached | structure.in_ball(x, home[idx])

    _run(model, [(structure.centers[i], n_runs, 0) for i in pairs[:, 0]],
         seed, workers, step_cap, "committor", retire)
    hits = hit.reshape(-1, n_runs).sum(axis=1)
    if not hits.all():
        i, j = pairs[hits.argmin()]       # the first pair with no hit
        raise ZeroHits(f"no run from ball {i} reached ball {j}",
                       upper_bound=3.0 / n_runs)
    return [EstimateWithError(p, float(np.sqrt(p * (1.0 - p) / n_runs)),
                              n_runs, model.sigma,
                              float(model.sigma ** 2 * np.log(p)))
            for p in (hits / n_runs).tolist()]


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
    times = np.zeros(len(starts) * n_reps)

    def retire(step, x, idx):
        hit = structure.ball_of(x) >= 0
        times[idx[hit]] = step
        return hit

    _run(model, [(x0, n_reps, s_idx * workers)
                 for s_idx, x0 in enumerate(starts)],
         seed, workers, step_cap, "hit", retire)
    runs = times.reshape(-1, n_reps)
    t = runs[runs.mean(axis=1).argmax()]    # first start of largest mean
    se = float(t.std(ddof=1) / np.sqrt(n_reps))
    return EstimateWithError(float(t.mean()), se, times.size, model.sigma)


def empirical_diluted_trace(model, structure, i, m, n_blocks, n_runs, seed,
                            workers=1, step_cap=DEFAULT_STEP_CAP):
    """Frequencies of the ball occupied at the (n m)-th visit to the
    metastable union, n = 0..n_blocks, over runs started at the i-th stable
    point.  Returns (freqs, stderrs) of shape (n_balls, n_blocks + 1)."""
    if n_runs < 1000:
        raise NumericError("n_runs must be >= 1000")
    if m < 1:
        raise NumericError("m must be >= 1")
    counts = np.zeros((structure.n_balls, n_blocks + 1), dtype=np.int64)
    counts[i, 0] = n_runs    # visit 0 is the start, inside ball i

    def retire(step, x, idx, visits, recorded):
        ball = structure.ball_of(x)
        in_m = ball >= 0
        visits += in_m
        due = in_m & (visits == recorded * m)
        np.add.at(counts, (ball[due], recorded[due]), 1)
        recorded += due
        return recorded > n_blocks

    # per run: visits to M so far, and blocks recorded so far
    _run(model, [(structure.centers[i], n_runs, 0)], seed, workers,
         step_cap, "trace", retire, np.zeros(n_runs, dtype=np.int64),
         np.ones(n_runs, dtype=np.int64))
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
