"""The benchmark's fixed workloads: one CLI command on one config each.

Every workload names the command it runs, the config it runs it on (the
seed, output and cache directories are filled in per run), and whether its
set-up fills a kernel cache.  The reason for each choice is recorded in
BENCHMARK.json and README.md beside this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 20250809
WORKERS = 2

_TANH_1D = {
    "schema": 1,
    "map": {"name": "tanh", "params": {"beta": 2.0}},
    "dim": 1,
    "box": [[-2.0, 2.0]],
    "cov": [[1.0]],
    "theta": "auto",
    "delta": 0.2,
}

_TANH_2D = {
    "schema": 1,
    "map": {"name": "tanh2d", "params": {"beta": [2.0, 2.0]}},
    "dim": 2,
    "box": [[-2.0, 2.0], [-2.0, 2.0]],
    "cov": [[1.0, 0.0], [0.0, 1.0]],
    "theta": "auto",
    "delta": 0.2,
    "grid_nodes": 51,
    "r_hop": 2.5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    fills_cache: bool     # the command reads a kernel for every sigma

    def write_config(self, path, seed, out_dir, cache_dir):
        doc = dict(self.config, seed=int(seed), workers=WORKERS,
                   out_dir=str(out_dir), cache_dir=str(cache_dir))
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1))
        return Path(path)


WORKLOADS = {w.name: w for w in (
    # the paper's reference double well; the only workload where every
    # layer runs (spectral, quasipotential, montecarlo and reduction)
    Workload("ref1d-validate", "validate", dict(
        _TANH_1D, grid_nodes=401, r_hop=1.0,
        sigmas=[0.5, 0.4, 0.35, 0.3],
        mc={"committor_runs": 10_000, "trace_runs": 10_000}),
        fills_cache=True),
    # 4 wells on 2601 nodes: the Dijkstra H table dominates, eigen work is
    # only on the small trace kernel, and the full kernel is the largest
    Workload("well2d-reduce", "reduce", dict(
        _TANH_2D, sigma=0.35,
        mc={"committor_runs": 0, "trace_runs": 0, "sim_steps": 0}),
        fills_cache=True),
    # pure Monte Carlo: the sequential path stepper and the batched
    # committor over all 12 ordered well pairs; no kernel, no H table
    Workload("mc2d-simulate", "simulate", dict(
        _TANH_2D, sigma=0.4,
        mc={"committor_runs": 2000, "sim_steps": 100_000, "trace_runs": 0}),
        fills_cache=False),
)}
