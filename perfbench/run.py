"""metareduce benchmark: one workload per process, timed through the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload ref1d-validate --seed 20250809 \\
        --seconds 20 --trace 0

The workload's config gets the given seed and its own fresh output and cache
directories under ``.perfbench-work/``; METAREDUCE_CACHE points at that
cache.  Every invocation calls ``metareduce.cli.main`` in this process and
has its outputs checked against ``perfbench/reference`` (see outcheck.py).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over SETUP_REPEATS fresh processes that import
  metareduce, parse the config and fill the empty kernel cache for every
  sigma the command reads (fill_cache.py);
- ``wall_s``: median time of one warm-cache invocation, repeated for
  ``--seconds`` after one untimed warm-up invocation;

Both times are rescaled to reference machine speed by the calibration probe
of speed.py, which runs before and after every set-up and invocation; the
raw times and the probe times are in the record line.  The other two metrics:

- ``peak_rss_mb``: peak resident memory of this process;
- ``pass_frac``: invocations that passed over invocations attempted, that is
  1 - fail_frac.  An invocation fails when an exception escapes, the exit
  code is not 0 or 1 (``validate`` returns 1 as a verdict), the output check
  fails or the warm kernel cache changes.

``--trace 1`` reports the per-layer metrics of tracer.py: one traced set-up,
then untraced and traced invocations in turn; each metric is the median over
the traced invocations and ``trace.overhead_s`` is the traced median wall
time minus the untraced one.

The second to last line of stdout records the environment and the samples;
the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from outcheck import CHECKS
from speed import REFERENCE_PROBE_S, Probe
from tracer import EXACT_COUNTS, PER_LAYER_UNITS, Tracer, median_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE_ROOT = HERE / "reference"
WORK_ROOT = ".perfbench-work"
BLAS_THREADS = 1
SETUP_REPEATS = 5
MIN_TIMED = 2           # timed invocations (traced pairs) even past --seconds
MAX_PROBLEMS_SHOWN = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "fraction"}


class Run:
    """One workload in its own work directory, invoked through the CLI."""

    def __init__(self, workload, seed, root, ref_dir):
        self.workload = workload
        self.root = Path(root)
        self.ref_dir = Path(ref_dir)
        self.work = self.root / WORK_ROOT / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.out_dir = self.work / "out"
        self.cache_dir = self.work / "cache"
        self.out_dir.mkdir(parents=True)
        self.cache_dir.mkdir()
        self.config_path = workload.write_config(
            self.work / "config.json", seed, self.out_dir, self.cache_dir)
        self.config = json.loads(self.config_path.read_text())
        self.attempted = 0
        self.failed = 0
        self.problems = []      # problems of the benchmark run itself
        self._saved_env = os.environ.get("METAREDUCE_CACHE")
        os.environ["METAREDUCE_CACHE"] = str(self.cache_dir)
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)

    def close(self):
        if self._saved_env is None:
            os.environ.pop("METAREDUCE_CACHE", None)
        else:
            os.environ["METAREDUCE_CACHE"] = self._saved_env
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / WORK_ROOT).rmdir()
        except OSError:
            pass        # another run still uses it

    def fresh_setup(self):
        """Fill an empty cache in a fresh process; return its wall time."""
        shutil.rmtree(self.cache_dir)
        self.cache_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(self.root / "src"), os.environ.get("PYTHONPATH"))
            if p))
        cmd = [sys.executable, str(HERE / "fill_cache.py"),
               str(self.config_path)]
        if self.workload.fills_cache:
            cmd.append("--kernels")
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=self.root, check=True,
                       stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    def traced_setup(self, tracer):
        from fill_cache import fill_cache

        shutil.rmtree(self.cache_dir)
        self.cache_dir.mkdir()
        tracer.install()
        try:
            tracer.reset()
            fill_cache(self.config_path, self.workload.fills_cache)
            return tracer.setup_metrics()
        finally:
            tracer.uninstall()

    def invoke(self):
        """Run the workload's command once; return (seconds, passed)."""
        from metareduce.cli import main

        for path in self.out_dir.iterdir():
            path.unlink()
        cache_before = _listing(self.cache_dir)
        t0 = perf_counter()
        try:
            code = main([self.workload.command, "--config",
                         str(self.config_path)])
        except Exception:       # an escaping exception is a failed invocation
            traceback.print_exc()
            code = "exception"
        elapsed = perf_counter() - t0
        problems = []
        if code not in (0, 1):
            problems.append(f"exit code {code}")
        else:
            try:
                problems += CHECKS[self.workload.command](
                    self.ref_dir, self.out_dir, self.config)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"malformed output: {exc!r}")
        if _listing(self.cache_dir) != cache_before:
            problems.append("the warm kernel cache changed (a cache miss)")
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:MAX_PROBLEMS_SHOWN]:
                print(f"perfbench: {self.workload.name}: {p}", file=sys.stderr)
        return elapsed, not problems

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out_dir.iterdir())


def _listing(directory):
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in Path(directory).iterdir()}


def _median_wall(samples):
    passed = [t for t, ok in samples if ok]
    return statistics.median(passed or [t for t, _ in samples])


def _timed_loop(seconds, step):
    """Call step() for about ``seconds``, at least MIN_TIMED times.

    A call starts only while the median call so far still fits before the
    deadline, so the run ends near ``seconds`` instead of one long call
    past it.
    """
    times = []
    deadline = perf_counter() + seconds
    while len(times) < MIN_TIMED or (
            perf_counter() + statistics.median(times) < deadline):
        t0 = perf_counter()
        step()
        times.append(perf_counter() - t0)


def _at_reference_speed(times, probes):
    """Rescale each time by the mean of the probes just before and after it."""
    return [t * 2.0 * REFERENCE_PROBE_S / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


def measure_plain(run, seconds):
    probe = Probe()
    probe()                                 # the first call warms it up
    setup_probes, raw_setups = [probe()], []
    for _ in range(SETUP_REPEATS):
        raw_setups.append(run.fresh_setup())
        setup_probes.append(probe())
    run.invoke()                            # warm-up: imports, first calls
    probes, samples = [probe()], []

    def step():
        samples.append(run.invoke())
        probes.append(probe())

    _timed_loop(seconds, step)
    raw_walls = [t for t, _ in samples]
    walls = _at_reference_speed(raw_walls, probes)
    setups = _at_reference_speed(raw_setups, setup_probes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": _median_wall([(t, ok) for t, (_, ok) in zip(walls, samples)]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "pass_frac": (run.attempted - run.failed) / run.attempted,
    }
    samples_record = {"setup_s": setups, "raw_setup_s": raw_setups,
                      "setup_probe_s": setup_probes, "wall_s": walls,
                      "raw_wall_s": raw_walls, "probe_s": probes}
    return metrics, samples_record


def measure_traced(run, seconds):
    tracer = Tracer()
    setup = run.traced_setup(tracer)
    plain, traced, per_invocation = [], [], []
    run.invoke()                            # warm-up: imports, first calls

    def step():
        plain.append(run.invoke())
        tracer.install()
        try:
            tracer.reset()
            traced.append(run.invoke())
            per_invocation.append(tracer.invocation_metrics(
                run.bytes_written()))
        finally:
            tracer.uninstall()

    _timed_loop(seconds, step)
    for name in EXACT_COUNTS:
        values = {m[name] for m in per_invocation if name in m}
        if len(values) > 1:
            run.problems.append(f"{name} differs between invocations: "
                                f"{sorted(values)}")
    if any(m["kernel.cache_misses"] for m in per_invocation):
        run.problems.append("a warm traced invocation missed the cache")
    metrics = dict(median_metrics(per_invocation), **setup)
    metrics["trace.overhead_s"] = _median_wall(traced) - _median_wall(plain)
    samples_record = {"wall_s": [t for t, _ in plain],
                      "traced_wall_s": [t for t, _ in traced]}
    return metrics, samples_record


def measure(workload, seed, seconds, trace, root, ref_dir):
    """Run one workload; return (record, result) as printed by main."""
    run = Run(workload, seed, root, ref_dir)
    try:
        if trace:
            metrics, samples = measure_traced(run, seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, samples = measure_plain(run, seconds)
            units = END_TO_END_UNITS
        for p in run.problems:
            print(f"perfbench: {workload.name}: {p}", file=sys.stderr)
        result = {
            "correct": run.failed == 0 and not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }
        record = {"workload": workload.name, "command": workload.command,
                  "seed": seed, "seconds": seconds, "trace": int(trace),
                  "samples": samples, "problems": run.problems,
                  "environment": environment()}
        return record, result
    finally:
        run.close()


def environment():
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "cpu_model": _cpu_model(),
    }


def _openblas_threads():
    """Thread count of each OpenBLAS build that numpy and scipy bundle."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            handle = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                getter = getattr(handle, fn, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[f"{pkg.__name__}:{Path(lib).name}"] = getter()
                    break
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "metareduce" / "__init__.py").is_file():
        print("perfbench: src/metareduce not found; run from the root of a "
              "metareduce checkout", file=sys.stderr)
        return 2
    # fixed thread count before numpy is first imported in this process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    workload = WORKLOADS[args.workload]
    record, result = measure(workload, args.seed, args.seconds, args.trace,
                             root, REFERENCE_ROOT / workload.name)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
