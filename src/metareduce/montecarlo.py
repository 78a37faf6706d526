"""Simulation of the perturbed map and estimators for rare-event quantities.

All randomness flows through counter-based Philox streams derived from a
master seed and a worker id, so every estimate is a pure function of
(config, master seed, worker count).  Workers own contiguous blocks of runs,
each on its own stream; all blocks are stepped together in one process, so
the worker count sets only this stream layout.  A command's estimators
share one ``Normals`` tape, which draws each stream once and replays it.

The single chain of ``simulate_chain`` is stepped parallel in time, and is
bit for bit the chain stepped one step at a time: chains driven by the same
noise coalesce near a stable point, in floating point too (``_recur``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import _in_closed_ball
from .errors import NumericError, Runaway, SimulationTimeout, ZeroHits

RUNAWAY_FACTOR = 100.0
DEFAULT_STEP_CAP = 100_000_000
MIN_COMMITTOR_RUNS = 100
MIN_TRACE_RUNS = 1000
SEGMENT = 1024              # steps per segment of the parallel-in-time sweep
GUESS_BYTES = 1 << 20       # cap on the guess paths one sweep holds
CHECK_EVERY = 16            # plain steps between two coalescence checks
TAPE_BYTES = 16 << 20       # cap on the normals one tape records
TAPE_CHUNK = 1 << 16        # most normals a tape draws at a time


def rng_stream(master_seed, worker_id):
    """Independent, reproducible Philox substream for one worker."""
    if worker_id < 0:
        raise NumericError("worker_id must be nonnegative")
    seq = np.random.SeedSequence(int(master_seed), spawn_key=(int(worker_id),))
    return np.random.Generator(np.random.Philox(seq))


class Normals:
    """Each stream (seed, w), drawn once in chunks (chunk c: what a reader
    asks or 2^c normals, at most TAPE_CHUNK) and replayed to every reader,
    as Philox gives the same normals however draws split.  Past TAPE_BYTES
    a stream records no more; a reader past its end goes on alone."""

    def __init__(self, seed):
        self.seed, self.nbytes = seed, 0
        self.streams = {}       # w -> (chunks, generator at their end)

    def reader(self, w):
        """A function filling C-contiguous arrays with stream w's normals."""
        if w not in self.streams:
            self.streams[w] = ([], rng_stream(self.seed, w))
        chunks, rng = self.streams[w]
        c, at, own = 0, 0, None     # the next normal is chunks[c][at]

        def fill(out):
            nonlocal c, at, own
            flat, done = out.reshape(-1), 0
            while done < flat.size and own is None:
                if c == len(chunks):
                    size = min(TAPE_CHUNK, max(flat.size - done, 1 << c))
                    if self.nbytes + 8 * size > TAPE_BYTES:
                        own = rng_stream(self.seed, w)
                        own.bit_generator.state = rng.bit_generator.state
                        break
                    chunks.append(rng.standard_normal(size))
                    self.nbytes += 8 * size
                k = min(flat.size - done, chunks[c].size - at)
                flat[done:done + k] = chunks[c][at:at + k]
                done, at = done + k, at + k
                if at == chunks[c].size:
                    c, at = c + 1, 0
            if done < flat.size:
                own.standard_normal(out=flat[done:])
        return fill


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
    counted; a position farther than 100 * diam(X) raises Runaway.  The
    positions, bit for bit those of the one-step recursion, are mostly
    copied from batched sweeps started at the ball centres (``_recur``).
    The runaway bound, box exits, ball residence and events are checked
    per chunk of steps, an exit before an entry at the same step.
    """
    x0 = np.atleast_1d(np.asarray(x0, float))
    if not model.in_box(x0):
        raise NumericError("x0 must lie in the invariant box")
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
    sweep = True
    current = structure.ball_of(x)
    chunk = 65536
    done = 0
    while done < n_steps:
        take = min(chunk, n_steps - done)
        noise = model.noise(rng.standard_normal((take, model.dim)))
        path = np.empty((take, model.dim))
        # a runaway path may overflow before the chunk ends
        with np.errstate(over="ignore", invalid="ignore"):
            x, sweep = _recur(model, structure.centers, x, noise, path, sweep)
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


def _recur(model, centers, x, noise, path, sweep):
    """Fill path[k] = x = pi(x) + noise[k], k < len(noise), bit for bit as
    that loop would, and return the last x and whether to keep sweeping.

    A group of segments of SEGMENT steps is swept together from x and
    from every ball centre, one ``pi`` call on an (n, d) batch per step
    (a batch gives its rows bit for bit).  Segment 0 starts at x, so its
    guess is exact.  In each later segment the exact state steps alone
    until it equals a guess at the same step, compared bit for bit every
    CHECK_EVERY steps; from there both apply ``pi`` to the same bits and
    add the same noise, so that guess's rest is the path.  Where
    |pi'| < 1, as near a stable point, chains driven by the same noise
    meet in the last bit within a few dozen steps.  A segment that never
    meets a guess is stepped to its end; after a group where none did,
    ``sweep`` is False and the rest of the run is stepped plainly.
    """
    take, d = noise.shape
    n_max = max(1, GUESS_BYTES // (SEGMENT * (centers.size + d) * 8))
    k = 0
    while sweep and k < take:
        starts = np.concatenate([x[None], centers])
        span = min(n_max * SEGMENT, take - k)
        seg = min(SEGMENT, span)
        n = -(-span // seg)
        z = np.zeros((n * seg, d))          # the last segment padded
        z[:span] = noise[k:k + span]
        z = z.reshape(n, 1, seg, d).transpose(2, 0, 1, 3)
        guess = np.empty((seg, n, len(starts), d))
        guess[...] = z                      # each segment's noise per start
        rows = guess.reshape(seg, -1, d)
        y = np.tile(starts, (n, 1))
        for t in range(seg):
            y = np.add(model.pi(y), rows[t], out=rows[t])
        path[k:k + seg] = guess[:, 0, 0]
        x, met = guess[-1, 0, 0].copy(), n == 1
        for s in range(1, n):
            lo = k + s * seg
            x, hit = _coalesce(model, x, noise, path, lo,
                               min(lo + seg, take), guess[:, s])
            met |= hit
        sweep, k = met, k + span
    for k in range(k, take):
        path[k] = x = model.pi(x) + noise[k]
    return x, sweep


def _coalesce(model, x, noise, path, lo, hi, guess):
    """Step x through path[lo:hi] until it equals, bit for bit, one of the
    guesses (guess[t] holds the states after step lo + t), then copy that
    guess's rest.  Returns the last state and whether a guess was met."""
    bits = guess.view(np.int64)
    for at in range(lo, hi, CHECK_EVERY):
        end = min(at + CHECK_EVERY, hi)
        for k in range(at, end):
            path[k] = x = model.pi(x) + noise[k]
        same = (bits[end - 1 - lo] == x.view(np.int64)).all(axis=1)
        if same.any():
            path[end:hi] = guess[end - lo:hi - lo, same.argmax()]
            return path[hi - 1].copy(), True
    return x, False


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
    ``stream0 + w``; a group needs at least ``workers`` runs.  All blocks
    are stepped together, so ``workers`` sets only the stream layout: each
    step reads, block by block in run order, one row of normals per active
    run into one buffer, then maps all active runs at once.  ``seed`` is an
    int or a ``Normals`` tape, which replays each stream to every call.
    ``retire(step, x, idx, *state)`` gets the new positions of the active
    runs, their indices among all runs and their per-run state entries
    (which it may update in place), and returns the positions, among the
    active runs, of those that stop; the arrays are compacted only on
    steps where some do.
    """
    tape = seed if isinstance(seed, Normals) else Normals(seed)
    reads, counts, x = [], [], []
    for x0, n_runs, stream0 in groups:
        if n_runs < workers:
            raise NumericError(f"{what}: {n_runs} runs cannot fill "
                               f"{workers} worker blocks")
        reads += [tape.reader(stream0 + w) for w in range(workers)]
        counts += [n_runs // workers + (w < n_runs % workers)
                   for w in range(workers)]
        x.append(np.tile(x0, (n_runs, 1)))
    x = np.concatenate(x)
    z = np.empty_like(x)        # the normals of a step, block by block
    idx = np.arange(x.shape[0])
    # block edges among all runs (bounds) and among the active runs (edges)
    bounds = edges = np.cumsum([0] + counts)
    step = 0
    while x.shape[0]:
        step += 1
        if step > step_cap:
            raise SimulationTimeout(f"{what} run exceeded {step_cap} steps")
        for read, lo, hi in zip(reads, edges[:-1], edges[1:]):
            read(z[lo:hi])
        x = model.pi(x) + model.noise(z[:len(x)])
        gone = retire(step, x, idx, *state)
        if gone.size:
            keep = np.delete(np.arange(len(x)), gone)   # take, not a mask
            x, idx = x.take(keep, axis=0), idx[keep]
            state = [a[keep] for a in state]
            edges = np.searchsorted(idx, bounds)


def estimate_committor(model, structure, pairs, n_runs, seed, workers=1,
                       step_cap=DEFAULT_STEP_CAP):
    """For each ordered pair (i, j) of ``pairs``, P[reach ball j before
    returning to ball i], started at the i-th stable point so the first
    step is the displacing noise kick.  Returns one estimate per pair.

    Membership is tested only after a step (first-passage times
    tau+ = min{n >= 1 : X_n in B}), so a run still inside ball i after the
    first kick counts as a return, not a hit: the estimate is
    P_x[tau+_{B_j} < tau+_{B_i}] at the stable point x.  The pairs are
    stepped together, each on streams 0, 1, ... of the seed.  Where a row
    of noise does not depend on the batch (d = 1, or a diagonal
    covariance) each estimate is bit for bit that of its pair alone; for
    a correlated covariance the batched product may differ in the last
    bit, so it is equal in law.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise NumericError("committor needs i != j")
    if n_runs < MIN_COMMITTOR_RUNS:
        raise NumericError(f"n_runs must be >= {MIN_COMMITTOR_RUNS}")
    hit = np.zeros(len(pairs) * n_runs, bool)
    c, b = structure.centers, structure.bounds
    balls = [(c[k], b[k]) for k in pairs.T]     # home and target per pair
    ends = np.arange(len(pairs) + 1) * n_runs   # each pair's runs

    def retire(step, x, idx):
        # each run tests only its own two balls: a pair's active runs stay
        # contiguous, so its centres and thresholds are repeated per run
        n = np.diff(np.searchsorted(idx, ends))
        home, reached = (_in_closed_ball(x, cs.repeat(n, axis=0),
                                         bs.repeat(n)) for cs, bs in balls)
        hit[idx[reached]] = True    # a point in both balls counts as a hit
        return np.flatnonzero(reached | home)

    _run(model, [(c[i], n_runs, 0) for i in pairs[:, 0]], seed, workers,
         step_cap, "committor", retire)
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

    Starts are a sub-lattice spanning the box, every s-th node along each
    axis with s the largest stride where s^d <= n_nodes // n_starts (about
    ``n_starts`` nodes or more), always augmented with the neighborhoods of
    the unstable fixed points (the slowest region).  Returns the maximum
    over starts of the per-start mean, with the batch standard error of the
    argmax start.  The maximum of noisy means is biased upward, and
    ``stderr`` is that of the argmax start's mean alone; it does not cover
    the choice of the argmax.
    """
    if n_starts < 100:
        raise NumericError("n_starts must be >= 100")
    s = 1
    while (s + 1) ** grid.dim <= grid.n_nodes // n_starts:
        s += 1
    lattice = grid.points().reshape(*grid.shape, grid.dim)
    starts = list(lattice[(slice(None, None, s),) * grid.dim]
                  .reshape(-1, grid.dim))
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
        hit = np.flatnonzero(structure.membership(x).any(axis=0))
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
    if n_runs < MIN_TRACE_RUNS:
        raise NumericError(f"n_runs must be >= {MIN_TRACE_RUNS}")
    if m < 1:
        raise NumericError("m must be >= 1")
    n_balls = structure.n_balls
    counts = np.zeros(n_balls * (n_blocks + 1), dtype=np.int64)
    counts[i * (n_blocks + 1)] = n_runs    # visit 0 is the start, in ball i

    def retire(step, x, idx, left, block):
        # block n is recorded at visit n m: only the runs due now are tallied
        rows = structure.membership(x)
        left -= rows.any(axis=0)
        due = np.flatnonzero(left == 0)
        ball = np.full(due.size, n_balls - 1)    # the first ball, as ball_of
        for k in range(n_balls - 2, -1, -1):
            ball[rows[k, due]] = k
        nonlocal counts
        done = block[due]   # the blocks recorded now
        counts += np.bincount(ball * (n_blocks + 1) + done,
                              minlength=counts.size)
        left[due] = m
        block[due] = done + 1
        return due[done == n_blocks]

    if n_blocks > 0:    # else visit 0 is all there is
        # per run: visits to M until the next recorded one, and that block
        _run(model, [(structure.centers[i], n_runs, 0)], seed, workers,
             step_cap, "trace", retire, np.full(n_runs, m, dtype=np.int64),
             np.ones(n_runs, dtype=np.int64))
    freqs = counts.reshape(n_balls, -1) / n_runs
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
