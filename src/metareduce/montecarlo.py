"""Simulation of the perturbed map and estimators for rare-event quantities.

All randomness flows through counter-based Philox streams derived from a
master seed and a worker id, so every estimate is a pure function of
(config, master seed, worker count).  Workers own contiguous blocks of runs,
each on its own stream; all blocks are stepped together in one process, so
the worker count sets only this stream layout.  A command's estimators
share one ``Normals`` tape, which draws each stream once (once per cache in
``validate``) and replays it to every read; each worker block keeps its place.

The single chain of ``simulate_chain`` is stepped parallel in time, and is
bit for bit the chain stepped one step at a time: chains driven by the same
noise coalesce near a stable point, in floating point too.  ``_group``
sweeps the segments of a chunk from the ball centres keeping only
checkpoints, steps each segment from every guess end of the one before
until it meets one, resolves the exact chain's segment starts by lookup,
and steps every segment from its start into the path in one batch.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_STEP_CAP, MIN_COMMITTOR_RUNS, MIN_TRACE_RUNS
from .dynamics import _in_closed_ball
from .errors import NumericError, Runaway, SimulationTimeout
from .kernel import load_entry, save_entry

RUNAWAY_FACTOR = 100.0
SEGMENT = 256               # steps per segment of the parallel-in-time sweep
CHUNK = 1 << 16             # steps of the chain drawn and swept at a time
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
    """Each stream (seed, w), drawn once in chunks (chunk c: what a read
    asks or 2^c normals, at most TAPE_CHUNK) and replayed to every read, as
    Philox gives the same normals however draws split.  A read hands out
    views of the recorded chunks, never copied again.  Past TAPE_BYTES a
    stream records no more; a read past its end goes on with a generator
    restored there.  Given ``cache_dir``, a first read loads the stream's
    ``derived/normals`` entry if it fits that cap: 13 uint64 words of Philox
    state at its end (counter 4, key 2, buffer 4, buffer_pos, has_uint32,
    uinteger), then normals.  ``save`` writes each stream recorded past its
    entry: a seed takes at most TAPE_BYTES on disk for one worker count."""

    def __init__(self, seed, cache_dir=None):
        self.seed, self.cache_dir, self.nbytes = seed, cache_dir, 0
        self.meta = {"seed": int(seed), "numpy": np.__version__}
        # w -> (chunks, offsets of their starts and end, generator at the end)
        self.streams, self.cached = {}, {}     # w -> normals its entry holds

    def _open(self, w):
        """Start stream w's record, from its cache entry if one fits."""
        rng, data = rng_stream(self.seed, w), None
        if self.cache_dir is not None:
            data = load_entry(self.cache_dir, "normals",
                              dict(self.meta, stream=w))
        n = -1 if data is None else data.size - 13
        self.streams[w], self.cached[w] = ([], [0], rng), max(n, 0)
        if n >= 0 and self.nbytes + 8 * n <= TAPE_BYTES:
            h = data[:13].view(np.uint64).tolist()
            rng.bit_generator.state = {"bit_generator": "Philox", "state": {
                "counter": h[:4], "key": h[4:6]}, "buffer": h[6:10],
                "buffer_pos": h[10], "has_uint32": h[11], "uinteger": h[12]}
            self.streams[w] = ([data[13:]], [0, n], rng)
            self.nbytes += 8 * n

    def save(self):
        """Write each stream recorded past its cache entry's end."""
        for w, (chunks, starts, rng) in self.streams.items():
            if starts[-1] > self.cached[w]:
                s = rng.bit_generator.state
                h = np.array([*s["state"]["counter"], *s["state"]["key"],
                              *s["buffer"], s["buffer_pos"], s["has_uint32"],
                              s["uinteger"]], np.uint64)
                save_entry(self.cache_dir, "normals",
                           dict(self.meta, stream=w), [h.view("<f8"), *chunks])

    def read(self, w, at, n, parts):
        """Append stream w's normals at, ..., at + n - 1 to ``parts`` and
        return the position after them: an int on the tape or, past its
        end, the generator that goes on with the stream."""
        if not isinstance(at, int):
            parts.append(at.standard_normal(n))
            return at
        if w not in self.streams:
            self._open(w)
        chunks, starts, rng = self.streams[w]
        end = at + n
        while starts[-1] < end:
            size = min(TAPE_CHUNK, max(end - starts[-1], 1 << len(chunks)))
            if self.nbytes + 8 * size > TAPE_BYTES:
                break
            chunks.append(rng.standard_normal(size))
            starts.append(starts[-1] + size)
            self.nbytes += 8 * size
        stop = end if end <= starts[-1] else starts[-1]
        c = bisect_right(starts, at) - 1
        while at < stop:
            lo = starts[c]
            parts.append(chunks[c][at - lo:stop - lo])
            c += 1
            at = starts[c]
        if stop == end:
            return end
        own = rng_stream(self.seed, w)
        own.bit_generator.state = rng.bit_generator.state
        parts.append(own.standard_normal(end - stop))
        return own


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
    stepped in batches, a chunk of CHUNK steps at a time: a sweep from the
    ball centres, then one from its segments' ends, finds each segment's
    exact start, and a last batch steps every segment from its start into
    the path (``_group``).  After a chunk where no segment met a guess,
    the rest of the run is stepped plainly, as is a chunk of one segment
    or less.  The runaway bound, box exits, ball residence and events are
    checked per chunk, a change of ball logging its exit, then its entry.
    """
    x0 = np.asarray(x0, float)
    if x0.shape != (model.dim,):
        raise NumericError(f"x0 must have shape ({model.dim},), not "
                           f"{x0.shape}")
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
    done = 0
    while done < n_steps:
        take = min(CHUNK, n_steps - done)
        noise = model.noise(rng.standard_normal((take, model.dim)))
        path = np.empty((take, model.dim))
        # a runaway path may overflow before the chunk ends
        with np.errstate(over="ignore", invalid="ignore"):
            if sweep and take > SEGMENT:
                x, sweep = _group(model, structure.centers, x, noise, path)
            else:
                for k in range(take):
                    path[k] = x = model.pi(x) + noise[k]
            # |X|^2 summed column by column; NaN is far too
            far = ~_in_closed_ball(path, np.zeros(model.dim), runaway2)
        if far.any():
            raise Runaway(f"|X_{done + far.argmax() + 1}| exceeded 100 diam(X)")
        exits_box += int((~model.in_box(path)).sum())
        ball = structure.ball_of(path)
        steps_in_ball += np.bincount(ball[ball >= 0], minlength=nballs)
        prev = np.concatenate([[current], ball[:-1]])
        moved = np.flatnonzero(ball != prev)
        # side 2i is change i's exit, side 2i + 1 its entry; keep the balls
        side = np.stack([prev[moved], ball[moved]], axis=1).ravel()
        e = np.flatnonzero(side >= 0)
        at, balls, kinds = moved[e >> 1], side[e], (e & 1) * 2 - 1
        entry_counts += np.bincount(balls[kinds > 0], minlength=nballs)
        events.append((done + at + 1, balls, kinds, path[at]))
        current = ball[-1]
        done += take
    ev_steps, ev_balls, ev_kinds, ev_pos = map(np.concatenate, zip(*events))
    return SimulationTrace(
        event_steps=ev_steps, event_balls=ev_balls, event_kinds=ev_kinds,
        event_positions=ev_pos,
        entry_counts=entry_counts, steps_in_ball=steps_in_ball,
        exits_from_box=exits_box, final_position=x.copy())


def _checkpoints(model, y, noise, path=None):
    """Step y[s] through segment s of ``noise``, one ``pi`` call on the
    batch a step, and yield (j, y) after each segment's step
    (j + 1) CHECK_EVERY - 1 and after its last step.  y is stepped in
    place or, given ``path``, into path[t::SEGMENT] at step t."""
    for t in range(SEGMENT):
        z = noise[t::SEGMENT]       # step t of every segment that has one
        head = y[:len(z)]           # a short last segment stays at its end
        if path is not None:
            y = path[t::SEGMENT, None]
        np.add(model.pi(head), z[:, None], out=y[:len(z)])
        if (t + 1) % CHECK_EVERY == 0 or t == SEGMENT - 1:
            yield t // CHECK_EVERY, y


def _group(model, centers, x, noise, path):
    """Fill path[k] = x = pi(x) + noise[k] from x, bit for bit as that loop
    would, for a chunk of two or more segments, and return the last state
    and whether a segment after the first met a guess.

    Pass 1 steps every segment from x and from every ball centre, one
    ``pi`` call on a batch a step (a batch gives its rows bit for bit);
    segment 0 starts at x, so its guess is exact.  marks[j, s] holds
    segment s's states after its step (j + 1) CHECK_EVERY - 1, or after
    its last step if that comes first, so marks[-1] holds every segment's
    ends.  Where |pi'| < 1, as near a stable point, chains driven by the
    same noise meet in the last bit within a few dozen steps; once the
    exact chain equals a checkpoint bit for bit, both apply ``pi`` to the
    same bits and add the same noise, so that guess's end is the segment's.
    Segment 1's exact chain steps alone until it meets one.  Once a
    segment has met so, each later segment starts at one of the guess
    ends of the segment before, and ``_candidates`` steps all those
    starts at once; the exact chain then goes by lookup, and steps alone
    only where the start it needs never met.  Pass 2 steps every segment
    from the exact start kept for it, through ``_checkpoints`` into path;
    if none met, segment 0 is stepped plainly.
    """
    span = len(noise)
    y = np.empty((-(-span // SEGMENT), len(centers) + 1, noise.shape[1]))
    y[:, 0], y[:, 1:] = x, centers
    marks = np.empty((-(-SEGMENT // CHECK_EVERY),) + y.shape)
    for j, y in _checkpoints(model, y, noise):
        marks[j] = y
    ends, bits = marks[-1], marks.view(np.int64)
    starts, met, hit = [x], None, False     # met[s, g]: as _candidates
    x, g = ends[0, 0], -1       # the guess end of s - 1 that x is, or -1
    for s, lo in enumerate(range(SEGMENT, span, SEGMENT), 1):
        hi = min(lo + SEGMENT, span)
        starts.append(x)
        if g >= 0 and met[s, g] >= 0:     # the start it needs met
            g = met[s, g]
            x = ends[s, g]
            continue
        g = -1
        for j, at in enumerate(range(lo, hi, CHECK_EVERY)):
            for k in range(at, min(at + CHECK_EVERY, hi)):
                path[k] = x = model.pi(x) + noise[k]
            same = (bits[j, s] == x.view(np.int64)).all(axis=1)
            if same.any():
                hit, g = True, int(same.argmax())
                x = ends[s, g]
                break
        if g >= 0 and met is None and hi < span:
            met = _candidates(model, noise, marks, s + 1)
    if hit:
        for _ in _checkpoints(model, np.array(starts)[:, None], noise, path):
            pass
    else:
        y = starts[0]
        for k in range(SEGMENT):
            path[k] = y = model.pi(y) + noise[k]
    return x.copy(), hit


def _candidates(model, noise, marks, first):
    """Step segment s = first, first + 1, ... of ``noise`` from each guess
    end g of segment s - 1, all in one batch a step, until every one
    equals a checkpoint of its segment bit for bit or its segment ends.
    Return met, where met[s, g] is the guess that start met (its end is
    then that guess's end), or -1 if it never met or s < first."""
    ends, bits = marks[-1], marks.view(np.int64)
    met = np.full(ends.shape[:2], -1)
    y, todo = ends[first - 1:-1].copy(), met[first:]
    for j, y in _checkpoints(model, y, noise[first * SEGMENT:]):
        # start g of segment s against its guesses, column by column
        a, b = y.view(np.int64)[:, :, None], bits[j, first:, None]
        same = a[..., 0] == b[..., 0]
        for k in range(1, y.shape[2]):
            same &= a[..., k] == b[..., k]
        new = same.any(axis=2) & (todo < 0)
        todo[new] = same.argmax(axis=2)[new]
        if (todo >= 0).all():
            break
    return met


@dataclass(frozen=True)
class EstimateWithError:
    estimate: float
    stderr: float
    n_samples: int
    sigma: float
    log_scale: float = field(default=np.nan)   # sigma^2 log(estimate) or -inf


def _run(model, groups, seed, workers, step_cap, what, retire, *state):
    """Step groups ``(x0, n_runs, stream0)`` of runs started at x0, laid
    out one after another, until ``retire`` has stopped them all.

    A group's worker blocks are contiguous, block w on stream
    ``stream0 + w``; a group needs at least ``workers`` runs.  All blocks
    are stepped together, so ``workers`` sets only the stream layout: each
    step reads, block by block in run order, one row of normals per active
    run, as views of the tape joined by one copy into the step's buffer,
    then maps all active runs at once into buffers of its own.  ``seed``
    is an int or a ``Normals`` tape, which replays each stream to every
    call; each block keeps its position on its stream.
    ``retire(step, x, *state)`` gets the new positions of the active runs
    (a buffer the next step overwrites) and their per-run state arrays
    (which it may update in place), and returns the sorted positions,
    among the active runs, of those that stop; on steps where some do,
    each array is compacted by one ``take`` of the indices a keep mask
    leaves, and each block's read shrinks by its stopped runs.
    """
    tape = seed if isinstance(seed, Normals) else Normals(seed)
    streams, counts, x = [], [], []
    for x0, n_runs, stream0 in groups:
        if n_runs < workers:
            raise NumericError(f"{what}: {n_runs} runs cannot fill "
                               f"{workers} worker blocks")
        streams += range(stream0, stream0 + workers)
        counts += [n_runs // workers + (w < n_runs % workers)
                   for w in range(workers)]
        x.append(np.tile(x0, (n_runs, 1)))
    x = np.concatenate(x)
    w, y, z = np.empty((3,) + x.shape)  # a step's noise, sums and normals
    flat = z.reshape(-1)        # the normals of a step, block by block
    # 0, then each block's end among the active runs; normals it reads a step
    ends, reads = np.cumsum([0] + counts), [x.shape[1] * c for c in counts]
    at = [0] * len(streams)     # each block's position on its stream
    read = tape.read
    step = 0
    while x.shape[0]:
        step += 1
        if step > step_cap:
            raise SimulationTimeout(f"{what} run exceeded {step_cap} steps")
        parts, n = [], len(x)
        for b, size in enumerate(reads):
            if size:
                at[b] = read(streams[b], at[b], size, parts)
        np.concatenate(parts, out=flat[:x.size])
        x = np.add(model.pi(x), model.noise(z[:n], out=w[:n]), out=y[:n])
        gone = retire(step, x, *state)
        if gone.size:
            keep = np.ones(n, bool)
            keep[gone] = False
            keep = keep.nonzero()[0]    # then take: x[mask] is slow
            x = x.take(keep, axis=0)
            state = [a.take(keep) for a in state]
            ends -= gone.searchsorted(ends)     # gone is sorted
            reads = (x.shape[1] * (ends[1:] - ends[:-1])).tolist()


def _ball_rows(structure, x):
    """The ball rows of x (``membership``) and their union, M's row."""
    rows = structure.membership(x)
    in_m = rows[0] | rows[-1]
    for row in rows[1:-1]:
        in_m |= row
    return rows, in_m


def _check_balls(structure, index):
    """Raise NumericError unless every ball index is in [0, n_balls)."""
    index = np.asarray(index)
    bad = index[(index < 0) | (index >= structure.n_balls)]
    if bad.size:
        raise NumericError(f"ball index {bad[0]} outside "
                           f"[0, {structure.n_balls})")


def estimate_committor(model, structure, pairs, n_runs, seed, workers=1,
                       step_cap=DEFAULT_STEP_CAP):
    """For each ordered pair (i, j) of ``pairs``, P[reach ball j before
    returning to ball i], started at the i-th stable point so the first
    step is the displacing noise kick.  Returns one estimate per pair; a
    pair that no run reaches reads 0 with stderr 0 and log_scale -inf, an
    ordinary binomial count whose 95% upper bound is 3 / n_runs.

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
    if not pairs.size:
        raise NumericError("committor needs at least one pair (i, j)")
    _check_balls(structure, pairs)
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise NumericError("committor needs i != j")
    if n_runs < MIN_COMMITTOR_RUNS:
        raise NumericError(f"n_runs must be >= {MIN_COMMITTOR_RUNS}")
    hit = np.zeros(len(pairs) * n_runs, bool)
    c, b = structure.centers, structure.bounds
    (hc, hb), (tc, tb) = [(c[k], b[k]) for k in pairs.T]    # home, target
    ends = np.arange(len(pairs) + 1) * n_runs   # each pair's runs

    def retire(step, x, idx):
        # each run tests only its own two balls: a pair's active runs stay
        # contiguous, so its centres and thresholds are repeated per run
        n = idx.searchsorted(ends)
        n = n[1:] - n[:-1]
        home = _in_closed_ball(x, hc.repeat(n, axis=0), hb.repeat(n))
        reached = _in_closed_ball(x, tc.repeat(n, axis=0), tb.repeat(n))
        hit[idx[reached]] = True    # a point in both balls counts as a hit
        return (reached | home).nonzero()[0]

    _run(model, [(c[i], n_runs, 0) for i in pairs[:, 0]], seed, workers,
         step_cap, "committor", retire, np.arange(len(pairs) * n_runs))
    hits = hit.reshape(-1, n_runs).sum(axis=1)
    return [EstimateWithError(p, float(np.sqrt(p * (1.0 - p) / n_runs)),
                              n_runs, model.sigma,
                              float(model.sigma ** 2 * np.log(p)) if p
                              else -np.inf)
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
    d = grid.dim
    lattice = grid.points().reshape(*grid.shape, d)
    starts = [lattice[(slice(None, None, s),) * d].reshape(-1, d)]
    if fixed_points is not None:
        # each unstable point, then the points -2, -1, +1 and +2 spacings
        # from it along each axis that lie in the box
        unstable = [r.location for r in fixed_points if not r.is_stable]
        near = np.repeat(np.reshape(unstable, (-1, 1, d)), 1 + 4 * d, axis=1)
        near[:, 1 + np.arange(4 * d), np.repeat(np.arange(d), 4)] += (
            np.outer(grid.spacings, [-2.0, -1.0, 1.0, 2.0]).ravel())
        keep = model.in_box(near)
        keep[:, 0] = True
        starts.append(near[keep])
    starts = np.concatenate(starts)
    times = np.zeros(len(starts) * n_reps)

    def retire(step, x, idx):
        hit = np.flatnonzero(_ball_rows(structure, x)[1])
        times[idx.take(hit)] = step
        return hit

    _run(model, [(x0, n_reps, s_idx * workers)
                 for s_idx, x0 in enumerate(starts)],
         seed, workers, step_cap, "hit", retire, np.arange(times.size))
    runs = times.reshape(-1, n_reps)
    t = runs[runs.mean(axis=1).argmax()]    # first start of largest mean
    se = float(t.std(ddof=1) / np.sqrt(n_reps))
    return EstimateWithError(float(t.mean()), se, times.size, model.sigma)


def empirical_diluted_trace(model, structure, i, m, n_blocks, n_runs, seed,
                            workers=1, step_cap=DEFAULT_STEP_CAP):
    """Frequencies of the ball occupied at the (n m)-th visit to the
    metastable union, n = 0..n_blocks, over runs started at the i-th stable
    point.  Returns (freqs, stderrs) of shape (n_balls, n_blocks + 1)."""
    _check_balls(structure, i)
    if n_runs < MIN_TRACE_RUNS:
        raise NumericError(f"n_runs must be >= {MIN_TRACE_RUNS}")
    if m < 1:
        raise NumericError("m must be >= 1")
    if n_blocks * m > step_cap:     # a step makes at most one visit to M
        raise SimulationTimeout(f"trace run needs {n_blocks} x {m} visits "
                                f"to M, over {step_cap} steps")
    n_balls = structure.n_balls
    counts = np.zeros(n_balls * (n_blocks + 1), dtype=np.int64)
    counts[i * (n_blocks + 1)] = n_runs    # visit 0 is the start, in ball i

    def retire(step, x, left, block):
        # block n is recorded at visit n m: only the runs due now are tallied
        rows, in_m = _ball_rows(structure, x)
        left -= in_m.view(np.uint8)
        due = (left == 0).nonzero()[0]
        done = block.take(due)  # the blocks recorded now
        # a due run is in M, so its first ball, as ball_of, is the number
        # of leading balls it is not in; counts has rows of n_blocks + 1
        lead = ~rows[0].take(due)
        key = lead * (n_blocks + 1) + done
        for row in rows[1:-1]:
            lead &= ~row.take(due)
            key += lead * (n_blocks + 1)
        counts[:] += np.bincount(key, minlength=counts.size)
        left[due] = m
        block[due] = done + 1
        return due[done == n_blocks]

    if n_blocks > 0:    # else visit 0 is all there is
        # per run: visits to M until the next recorded one, and that block,
        # in the least types that hold them: in_m's uint8 view needs no cast
        _run(model, [(structure.centers[i], n_runs, 0)], seed, workers,
             step_cap, "trace", retire,
             np.full(n_runs, m, dtype=np.min_scalar_type(m)),
             np.ones(n_runs, dtype=np.min_scalar_type(n_blocks + 1)))
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
