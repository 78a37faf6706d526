"""Spans and counts recorded around metareduce's public functions.

The tracer patches, from outside the package, every name listed in
``SPANNED``: the module attribute and every other metareduce namespace that
imported the same object (``from .kernel import trace_kernel`` makes a
second binding), plus the CLI's command table.  Each call becomes a span
(name, layer, start, end, parent) kept in memory.  Counts are taken at the
same boundaries: calls of the map callable ``maps.build_map`` returns,
kernel-cache hits and misses, Monte Carlo steps and runs, eigenmodes.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import pathlib
import statistics
import sys
from collections import Counter
from time import perf_counter

# layer (= module of metareduce) -> public names wrapped in spans; a name
# "Class.method" patches the class attribute
SPANNED = {
    "config": ("load_config", "RunConfig.build_model"),
    "maps": ("build_map",),
    "dynamics": ("DeterministicMapModel.validate", "find_fixed_points",
                 "build_metastable_structure", "check_lyapunov_drift"),
    "grid": ("Grid.from_box", "Grid.points", "Grid.membership"),
    "kernel": ("discretize_kernel", "load_kernel", "save_kernel",
               "trace_kernel", "killed_kernel"),
    "spectral": ("eigendecompose", "verify_spectral_gap", "solve_qsd",
                 "check_uniform_positivity"),
    "quasipotential": ("build_action_graph", "quasipotential_from",
                       "compute_h_matrix", "refinement_check"),
    "reduction": ("build_reduced_chain", "build_pstar", "build_projectors",
                  "build_p", "diluted_marginal_deviation", "stochastic_power",
                  "reduced_chain_marginals"),
    "montecarlo": ("simulate_chain", "estimate_committor",
                   "empirical_diluted_trace"),
    "cli": ("main", "cmd_reduce", "cmd_simulate", "cmd_validate",
            "write_csv", "write_json"),
}
SELF_TIME_LAYERS = ("config", "dynamics", "grid", "kernel", "spectral",
                    "quasipotential", "reduction", "montecarlo", "cli")
WRITE_SPANS = ("cli.write_csv", "cli.write_json", "cli.path_write")

# per-layer metric -> unit; see README.md for what each should move
PER_LAYER_UNITS = {
    "spectral.eig_full_s": "s",
    "spectral.eig_full_calls": "count",
    "spectral.eig_trace_s": "s",
    "spectral.modes_used_frac": "fraction",
    "quasipotential.dijkstra_s": "s",
    "quasipotential.dijkstra_calls": "count",
    "quasipotential.h_tables_built": "count",
    "quasipotential.graph_build_s": "s",
    "quasipotential.refinement_s": "s",
    "montecarlo.sim_s": "s",
    "montecarlo.sim_steps_per_s": "steps/s",
    "montecarlo.committor_s": "s",
    "montecarlo.committor_runs_per_s": "runs/s",
    "montecarlo.trace_mc_s": "s",
    "montecarlo.trace_mc_runs_per_s": "runs/s",
    "maps.pi_calls": "count",
    "maps.pi_points_per_call": "points/call",
    "maps.setup_pi_calls": "count",
    "kernel.discretize_s": "s",
    "kernel.trace_s": "s",
    "kernel.trace_calls": "count",
    "kernel.cache_load_s": "s",
    "kernel.cache_hits": "count",
    "kernel.cache_misses": "count",
    "dynamics.fixed_points_s": "s",
    "dynamics.model_validate_s": "s",
    "reduction.reduce_s": "s",
    "reduction.deviation_s": "s",
    "reduction.power_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
}
# counts that must repeat exactly between invocations of one run
EXACT_COUNTS = tuple(k for k, u in PER_LAYER_UNITS.items()
                     if u in ("count", "bytes"))


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "tag")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.tag = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self._trace_kernels = {}    # id -> kernel, kept alive for the id
        self._n_balls = None

    # --- patching ---------------------------------------------------------

    def install(self):
        import metareduce.cli as cli

        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if name == "metareduce" or name.startswith("metareduce.")]
        namespaces.append(cli.COMMANDS)
        for layer, names in SPANNED.items():
            module = sys.modules[f"metareduce.{layer}"]
            for attr in names:
                hook = getattr(self, f"_after_{attr.split('.')[-1]}", None)
                if "." in attr:
                    self._patch_method(module, layer, attr, hook)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, f"{layer}.{attr}", layer, hook)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._patches.append((ns, key, original))
                            ns[key] = wrapped
        self._patch_path(cli)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._trace_kernels.clear()
        self._n_balls = None

    def _patch_method(self, module, layer, attr, hook):
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        name = f"{layer}.{attr}"
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, name, layer,
                                             hook))
        else:
            wrapped = self._wrap(original, name, layer, hook)
        self._patches.append((cls, meth, original))
        setattr(cls, meth, wrapped)

    def _patch_path(self, cli):
        """Time file writes the CLI makes through its ``Path`` name."""
        tracer = self

        class TracedPath(type(pathlib.Path())):
            def write_text(self, *args, **kwargs):
                return tracer._call("cli.path_write", "cli",
                                    super().write_text, args, kwargs)

            def write_bytes(self, *args, **kwargs):
                return tracer._call("cli.path_write", "cli",
                                    super().write_bytes, args, kwargs)

        self._patches.append((cli, "Path", cli.Path))
        cli.Path = TracedPath

    def _wrap(self, fn, name, layer, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            at = len(self.spans)
            result = self._call(name, layer, fn, args, kwargs)
            if hook is not None:
                result = hook(self.spans[at],
                              signature.bind(*args, **kwargs).arguments,
                              result)
            return result

        return wrapper

    def _call(self, name, layer, fn, args, kwargs):
        span = Span(name, layer, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    # --- counts taken after a wrapped call returns; a hook gets the call's
    # span and bound arguments and returns the (possibly wrapped) result

    def _after_build_map(self, span, args, result):
        dim, pi, jac = result
        counts = self.counts

        @functools.wraps(pi)
        def counted_pi(x):
            counts["pi_calls"] += 1
            counts["pi_points"] += max(1, getattr(x, "size", 1) // dim)
            return pi(x)

        return dim, counted_pi, jac

    def _after_load_kernel(self, span, args, result):
        self.counts["cache_hits" if result is not None else "cache_misses"] += 1
        return result

    def _after_trace_kernel(self, span, args, result):
        self._trace_kernels[id(result)] = result
        return result

    def _after_build_metastable_structure(self, span, args, result):
        self._n_balls = result.n_balls
        return result

    def _after_eigendecompose(self, span, args, result):
        span.tag = "trace" if id(args["kernel"]) in self._trace_kernels \
            else "full"
        self.counts[f"eig_{span.tag}_calls"] += 1
        self.counts["modes_computed"] += result.eigenvalues.size
        if self._n_balls is not None:
            self.counts["modes_used"] += min(self._n_balls + 1,
                                             result.eigenvalues.size)
        return result

    def _after_simulate_chain(self, span, args, result):
        self.counts["sim_steps"] += int(args["n_steps"])
        return result

    def _after_estimate_committor(self, span, args, result):
        self.counts["committor_runs"] += int(args["n_runs"])
        return result

    def _after_empirical_diluted_trace(self, span, args, result):
        self.counts["trace_runs"] += int(args["n_runs"])
        return result

    # --- metrics ----------------------------------------------------------

    def _total(self, name, where=None):
        return sum(s.duration for s in self.spans
                   if s.name == name and (where is None or where(s)))

    def _calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def setup_metrics(self):
        """Metrics of a cold set-up (the kernel-cache fill) traced alone."""
        return {
            "kernel.discretize_s": self._total("kernel.discretize_kernel"),
            "maps.setup_pi_calls": self.counts["pi_calls"],
        }

    def invocation_metrics(self, bytes_written):
        """Per-layer metrics of one warm CLI invocation traced alone."""
        c = self.counts
        children = Counter()
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)] += s.duration
        self_time = Counter()
        for s in self.spans:
            self_time[s.layer] += s.duration - children[id(s)]

        sim_s = self._total("montecarlo.simulate_chain")
        committor_s = self._total("montecarlo.estimate_committor")
        trace_mc_s = self._total("montecarlo.empirical_diluted_trace")
        metrics = {
            "spectral.eig_full_calls": c["eig_full_calls"],
            "spectral.eig_full_s": self._total(
                "spectral.eigendecompose", lambda s: s.tag == "full"),
            "spectral.eig_trace_s": self._total(
                "spectral.eigendecompose", lambda s: s.tag == "trace"),
            "spectral.modes_used_frac": (c["modes_used"] / c["modes_computed"]
                                         if c["modes_computed"] else 1.0),
            "quasipotential.dijkstra_s":
                self._total("quasipotential.quasipotential_from"),
            "quasipotential.dijkstra_calls":
                self._calls("quasipotential.quasipotential_from"),
            "quasipotential.h_tables_built":
                self._calls("quasipotential.compute_h_matrix"),
            "quasipotential.graph_build_s":
                self._total("quasipotential.build_action_graph"),
            "quasipotential.refinement_s":
                self._total("quasipotential.refinement_check"),
            "montecarlo.sim_s": sim_s,
            "montecarlo.sim_steps_per_s": _rate(c["sim_steps"], sim_s),
            "montecarlo.committor_s": committor_s,
            "montecarlo.committor_runs_per_s":
                _rate(c["committor_runs"], committor_s),
            "montecarlo.trace_mc_s": trace_mc_s,
            "montecarlo.trace_mc_runs_per_s":
                _rate(c["trace_runs"], trace_mc_s),
            "maps.pi_calls": c["pi_calls"],
            "maps.pi_points_per_call": _rate(c["pi_points"], c["pi_calls"]),
            "kernel.trace_s": self._total("kernel.trace_kernel"),
            "kernel.trace_calls": self._calls("kernel.trace_kernel"),
            "kernel.cache_load_s": self._total("kernel.load_kernel"),
            "kernel.cache_hits": c["cache_hits"],
            "kernel.cache_misses": c["cache_misses"],
            "dynamics.fixed_points_s":
                self._total("dynamics.find_fixed_points"),
            "dynamics.model_validate_s":
                self._total("dynamics.DeterministicMapModel.validate"),
            "reduction.reduce_s": self._total("reduction.build_reduced_chain"),
            "reduction.deviation_s":
                self._total("reduction.diluted_marginal_deviation"),
            "reduction.power_s": self._total("reduction.stochastic_power"),
            "cli.write_s": self._cli_write_time(),
            "cli.bytes_written": bytes_written,
        }
        for layer in SELF_TIME_LAYERS:
            metrics[f"{layer}.self_s"] = self_time[layer]
        return metrics

    def _cli_write_time(self):
        """Time in writes the CLI makes itself, not counting a file write
        inside write_csv/write_json twice, nor kernel-cache writes."""
        return sum(s.duration for s in self.spans
                   if s.name in WRITE_SPANS and s.parent is not None
                   and s.parent.layer == "cli"
                   and s.parent.name not in WRITE_SPANS)


def _rate(amount, seconds):
    return amount / seconds if seconds else 0.0


def median_metrics(samples):
    """Per-metric median over a list of metric dicts with the same keys."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
