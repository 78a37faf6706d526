"""Run configuration: schema validation, canonical hashing, model assembly."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import maps
from .dynamics import DeterministicMapModel
from .errors import ConfigError

SCHEMA_VERSION = 1
MIN_GRID_NODES = 51

_MC_DEFAULTS = {
    "committor_runs": 10_000,
    "trace_runs": 10_000,
    "trace_blocks": 20,
    "sim_steps": 100_000,
    "step_cap": 100_000_000,
}


@dataclass(frozen=True)
class RunConfig:
    map_name: str
    map_params: dict
    dim: int
    box: list
    cov: list
    sigmas: list                 # one or more noise levels
    grid_nodes: list             # per-axis node counts
    delta: float
    theta: object                # float or "auto"
    r_hop: float
    mc: dict
    tol_refine: float
    seed: int
    workers: int
    out_dir: str
    cache_dir: str

    def canonical(self):
        return {
            "schema": SCHEMA_VERSION,
            "map": {"name": self.map_name, "params": self.map_params},
            "dim": self.dim,
            "box": self.box,
            "cov": self.cov,
            "sigmas": self.sigmas,
            "grid_nodes": self.grid_nodes,
            "delta": self.delta,
            "theta": self.theta,
            "r_hop": self.r_hop,
            "mc": self.mc,
            "tol_refine": self.tol_refine,
            "seed": self.seed,
            "workers": self.workers,
        }

    @property
    def config_hash(self):
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def build_model(self, sigma):
        dim, pi, jac = maps.build_map(self.map_name, self.map_params)
        if dim != self.dim:
            raise ConfigError(
                f"map '{self.map_name}' is {dim}D but config says dim={self.dim}")
        return DeterministicMapModel(
            dim=dim, pi=pi, jac=jac, box=np.asarray(self.box, float),
            cov=np.asarray(self.cov, float), sigma=float(sigma),
            map_id=self.map_name, map_params=self.map_params)


def _require(doc, key, kind, where="config"):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field '{key}'")
    val = doc[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ConfigError(f"{where}: field '{key}' must be {kind.__name__}")
    return val


def _finite(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigError(f"field '{name}' must be finite")
    return value


def load_config(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)


def parse_config(doc):
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema}")

    map_doc = _require(doc, "map", dict)
    name = _require(map_doc, "name", str, "map")
    params = map_doc.get("params", {})
    dim = _require(doc, "dim", int)
    if dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2")

    box = _finite("box", _require(doc, "box", list))
    box_arr = np.atleast_2d(np.asarray(box, float))
    if box_arr.shape != (dim, 2):
        raise ConfigError("box must be a list of [lo, hi] pairs, one per axis")

    cov = _finite("cov", _require(doc, "cov", list))

    if "sigma" in doc and "sigmas" in doc:
        raise ConfigError("give either 'sigma' or 'sigmas', not both")
    if "sigma" in doc:
        sigmas = [float(_finite("sigma", doc["sigma"]))]
    elif "sigmas" in doc:
        sigmas = [float(s) for s in _finite("sigmas", doc["sigmas"])]
    else:
        raise ConfigError("missing required field 'sigma' (or 'sigmas')")
    if not sigmas or any(s <= 0 for s in sigmas):
        raise ConfigError("sigma values must be positive")

    nodes = doc.get("grid_nodes")
    if nodes is None:
        raise ConfigError("missing required field 'grid_nodes'")
    if isinstance(nodes, int):
        nodes = [nodes] * dim
    if (not isinstance(nodes, list) or len(nodes) != dim
            or any(not isinstance(v, int) for v in nodes)):
        raise ConfigError("grid_nodes must be an int or per-axis list of ints")
    if any(v < MIN_GRID_NODES for v in nodes):
        raise ConfigError(f"grid_nodes must be >= {MIN_GRID_NODES} per axis")

    delta = float(_finite("delta", _require(doc, "delta", (int, float))))
    if delta <= 0:
        raise ConfigError("delta must be positive")

    theta = doc.get("theta", "auto")
    if theta != "auto":
        theta = float(_finite("theta", theta))
        if theta <= 0:
            raise ConfigError("theta must be positive or 'auto'")

    r_hop = float(_finite("r_hop", _require(doc, "r_hop", (int, float))))
    if r_hop <= 0:
        raise ConfigError("r_hop must be positive")

    mc = dict(_MC_DEFAULTS)
    user_mc = doc.get("mc", {})
    if not isinstance(user_mc, dict):
        raise ConfigError("mc must be an object")
    unknown = set(user_mc) - set(mc)
    if unknown:
        raise ConfigError(f"unknown mc fields: {sorted(unknown)}")
    mc.update({k: int(v) for k, v in user_mc.items()})
    if any(v < 0 for v in mc.values()):
        raise ConfigError("mc budgets must be nonnegative")

    tol_refine = float(_finite("tol_refine", doc.get("tol_refine", 0.05)))
    if tol_refine <= 0:
        raise ConfigError("tol_refine must be positive")

    seed = int(doc.get("seed", 0))
    workers = int(doc.get("workers", 1))
    if workers < 1:
        raise ConfigError("workers must be >= 1")

    return RunConfig(
        map_name=name, map_params=dict(params), dim=dim,
        box=box_arr.tolist(), cov=np.atleast_2d(np.asarray(cov, float)).tolist(),
        sigmas=sigmas, grid_nodes=list(nodes), delta=delta, theta=theta,
        r_hop=r_hop, mc=mc, tol_refine=tol_refine, seed=seed,
        workers=workers,
        out_dir=str(doc.get("out_dir", "out")),
        cache_dir=str(doc.get("cache_dir", ".metareduce-cache")))
