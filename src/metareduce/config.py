"""Run configuration: schema validation, canonical hashing, model assembly."""

from __future__ import annotations

import dataclasses
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
DEFAULT_STEP_CAP = 100_000_000     # MC budgets: parsing loads no montecarlo
MIN_COMMITTOR_RUNS = 100
MIN_TRACE_RUNS = 1000

_MC_DEFAULTS = {
    "committor_runs": 10_000,
    "trace_runs": 10_000,
    "trace_blocks": 20,
    "sim_steps": 100_000,
    "step_cap": DEFAULT_STEP_CAP,
}
_FIELDS = {"schema", "map", "dim", "box", "cov", "sigma", "sigmas",
           "grid_nodes", "delta", "theta", "r_hop", "mc", "tol_refine",
           "seed", "workers", "out_dir", "cache_dir"}


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
        """Every field but the output and cache paths, the map nested as in
        the config file."""
        doc = {k: v for k, v in dataclasses.asdict(self).items()
               if k not in ("map_name", "map_params", "out_dir", "cache_dir")}
        return {**doc, "schema": SCHEMA_VERSION,
                "map": {"name": self.map_name, "params": self.map_params}}

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


def _require(doc, key, kind=object, where="config"):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field '{key}'")
    val = doc[key]
    if not isinstance(val, kind):
        raise ConfigError(f"{where}: field '{key}' must be {kind.__name__}")
    return val


def _finite(name, value):
    """``value`` if it is a finite real number or a (nested) list of them."""
    try:
        ok = np.asarray(value).dtype.kind in "iuf" and np.isfinite(value).all()
    except ValueError:              # a ragged list
        ok = False
    if not ok:
        raise ConfigError(f"field '{name}' must be finite real numbers")
    return value


def _positive(name, value):
    """``value`` as a float, if it is one finite positive real number."""
    if np.ndim(_finite(name, value)) != 0 or not value > 0:
        raise ConfigError(f"field '{name}' must be a positive real number")
    return float(value)


def _integer(name, value):
    """``value`` as an int, if it is an integer (an integral float too)."""
    if type(value) not in (int, float) or not float(value).is_integer():
        raise ConfigError(f"field '{name}' must be an integer, not {value!r}")
    return int(value)


def load_config(path, **overrides):
    """Parse the JSON config at ``path`` with the non-None ``overrides``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(doc, dict):
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return parse_config(doc)


def parse_config(doc):
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise ConfigError(f"unknown fields: {sorted(unknown)}")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema}")

    map_doc = _require(doc, "map", dict)
    name = _require(map_doc, "name", str, "map")
    params = (_require(map_doc, "params", dict, "map")
              if "params" in map_doc else {})
    dim = _integer("dim", _require(doc, "dim"))
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
        sigmas = [_positive("sigma", doc["sigma"])]
    elif "sigmas" in doc:
        sigmas = [_positive("sigmas", s)
                  for s in _require(doc, "sigmas", list)]
    else:
        raise ConfigError("missing required field 'sigma' (or 'sigmas')")
    if not sigmas:
        raise ConfigError("field 'sigmas' must not be empty")
    if len(set(sigmas)) < len(sigmas):    # each sigma names its own files
        raise ConfigError(f"field 'sigmas' repeats a value: {sigmas}")

    nodes = _require(doc, "grid_nodes")
    nodes = nodes if isinstance(nodes, list) else [nodes] * dim
    if len(nodes) != dim:
        raise ConfigError("grid_nodes must be an int or per-axis list of ints")
    nodes = [_integer("grid_nodes", v) for v in nodes]
    if any(v < MIN_GRID_NODES for v in nodes):
        raise ConfigError(f"grid_nodes must be >= {MIN_GRID_NODES} per axis")

    delta = _positive("delta", _require(doc, "delta"))
    theta = doc.get("theta", "auto")
    if theta != "auto":
        theta = _positive("theta", theta)
    r_hop = _positive("r_hop", _require(doc, "r_hop"))

    mc = dict(_MC_DEFAULTS)
    user_mc = doc.get("mc", {})
    if not isinstance(user_mc, dict):
        raise ConfigError("mc must be an object")
    unknown = set(user_mc) - set(mc)
    if unknown:
        raise ConfigError(f"unknown mc fields: {sorted(unknown)}")
    mc.update({k: _integer(f"mc.{k}", v) for k, v in user_mc.items()})
    if any(v < 0 for v in mc.values()):
        raise ConfigError("mc budgets must be nonnegative")
    if mc["step_cap"] < 1:
        raise ConfigError("field 'mc.step_cap' must be >= 1")
    for key, least in (("committor_runs", MIN_COMMITTOR_RUNS),
                       ("trace_runs", MIN_TRACE_RUNS)):
        if 0 < mc[key] < least:
            raise ConfigError(f"mc.{key} must be 0 (off) or >= {least}")

    tol_refine = _positive("tol_refine", doc.get("tol_refine", 0.05))

    seed = _integer("seed", doc.get("seed", 0))
    if seed < 0:
        raise ConfigError("field 'seed' must be >= 0")
    workers = _integer("workers", doc.get("workers", 1))
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    # every worker block holds at least one run
    runs = [mc[k] for k in ("committor_runs", "trace_runs") if mc[k] > 0]
    if runs and workers > min(runs):
        raise ConfigError(f"field 'workers' must be <= {min(runs)}, the "
                          "smallest positive Monte Carlo run count")

    return RunConfig(
        map_name=name, map_params=dict(params), dim=dim,
        box=box_arr.tolist(), cov=np.atleast_2d(np.asarray(cov, float)).tolist(),
        sigmas=sigmas, grid_nodes=nodes, delta=delta, theta=theta,
        r_hop=r_hop, mc=mc, tol_refine=tol_refine, seed=seed, workers=workers,
        out_dir=str(doc.get("out_dir", "out")),
        cache_dir=str(doc.get("cache_dir", ".metareduce-cache")))
