"""The benchmark's trace mode against the package it patches.

``perfbench/tracer.py`` wraps metareduce functions by name, so renaming or
no longer calling one of them breaks ``--trace 1`` runs.  This test installs
the tracer (read from perfbench, never modified), runs ``reduce`` on a
101-node 1D config and checks what the per-layer metrics read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import metareduce.cli
from metareduce.cli import main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CONFIG = {
    "schema": 1,
    "map": {"name": "tanh", "params": {"beta": 2.0}},
    "dim": 1,
    "box": [[-2.0, 2.0]],
    "cov": [[1.0]],
    "sigma": 0.35,
    "grid_nodes": 101,
    "delta": 0.2,
    "theta": "auto",
    "r_hop": 1.0,
    "mc": {"committor_runs": 0, "trace_runs": 0, "sim_steps": 0},
}
# filled by the benchmark's set-up run and its untraced twin, not by one
# traced invocation
NOT_PER_INVOCATION = {"kernel.discretize_s", "maps.setup_pi_calls",
                      "trace.overhead_s"}
# layers a 1D reduce runs, so their metrics must read above zero
RUN_BY_REDUCE = ("spectral.eig_trace_s", "quasipotential.dijkstra_calls",
                 "quasipotential.graph_build_s", "kernel.trace_calls",
                 "kernel.cache_misses", "maps.pi_calls", "reduction.reduce_s",
                 "reduction.power_s", "cli.write_s", "cli.bytes_written")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patchable(spanned):
    """Every object the tracer may replace, keyed by where it is bound."""
    out = {("cli", "Path"): metareduce.cli.Path}
    out.update({("COMMANDS", k): v
                for k, v in metareduce.cli.COMMANDS.items()})
    for name, module in list(sys.modules.items()):
        if name == "metareduce" or name.startswith("metareduce."):
            out.update({(name, k): v for k, v in vars(module).items()
                        if callable(v)})
    for layer, names in spanned.items():
        for attr in (a for a in names if "." in a):
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"metareduce.{layer}"], cls_name)
            out[(layer, attr)] = cls.__dict__[meth]
    return out


def test_traced_reduce_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.delenv("METAREDUCE_CACHE", raising=False)
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CONFIG, out_dir=str(out),
                                    cache_dir=str(tmp_path / "cache"))))
    bench = load_tracer()
    before = patchable(bench.SPANNED)
    tracer = bench.Tracer()
    tracer.install()
    try:
        code = main(["reduce", "--config", str(path)])
        metrics = tracer.invocation_metrics(
            sum(p.stat().st_size for p in out.iterdir()))
    finally:
        tracer.uninstall()
    after = patchable(bench.SPANNED)

    assert code == 0
    assert set(bench.PER_LAYER_UNITS) - NOT_PER_INVOCATION <= set(metrics)
    assert metrics["quasipotential.h_tables_built"] == 1
    assert [k for k in RUN_BY_REDUCE if not metrics[k] > 0] == []
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
