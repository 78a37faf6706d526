"""End-to-end CLI contracts: exit codes, file outputs, caching, idempotence."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metareduce
import metareduce.cli
import metareduce.kernel
import metareduce.montecarlo
import metareduce.quasipotential
import metareduce.spectral
from metareduce.cli import Pipeline, main
from metareduce.config import load_config
from metareduce.dynamics import DeterministicMapModel
from metareduce.errors import ConfigError
from metareduce.montecarlo import Normals, SimulationTrace

BASE = {
    "schema": 1,
    "map": {"name": "tanh", "params": {"beta": 2.0}},
    "dim": 1,
    "box": [[-2, 2]],
    "cov": [[1.0]],
    "sigma": 0.35,
    "grid_nodes": 101,
    "delta": 0.2,
    "theta": "auto",
    "r_hop": 1.0,
    "mc": {"committor_runs": 0, "trace_runs": 0, "sim_steps": 0},
    "seed": 11,
    "workers": 2,
}


def write_config(tmp_path, **overrides):
    doc = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    doc.setdefault("out_dir", str(tmp_path / "out"))
    doc.setdefault("cache_dir", str(tmp_path / "cache"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run(path, command, *extra):
    return main([command, "--config", str(path), *extra])


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every metareduce module that
    binds the same function."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("metareduce")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


def events_lines(trace):
    """The events file's lines as json.dumps(..., sort_keys=True) writes
    them, one per event of ``trace``."""
    return [json.dumps({"step": int(s), "ball": int(b), "kind": int(k),
                        "position": list(map(float, p))},
                       sort_keys=True) + "\n"
            for s, b, k, p in zip(trace.event_steps, trace.event_balls,
                                  trace.event_kinds, trace.event_positions)]


class TestConfigErrors:
    def test_missing_field_names_it(self, tmp_path, capsys):
        path = write_config(tmp_path, delta=None)
        assert run(path, "analyze") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "delta" in err["message"]

    def test_grid_too_coarse_rejected(self, tmp_path):
        path = write_config(tmp_path, grid_nodes=31)
        assert run(path, "analyze") == 2

    def test_unknown_map_rejected(self, tmp_path):
        path = write_config(tmp_path, map={"name": "nope"})
        assert run(path, "analyze") == 2

    @pytest.mark.parametrize("field", ["ex_starts", "ex_reps"])
    def test_unused_mc_fields_rejected(self, tmp_path, capsys, field):
        path = write_config(tmp_path, mc={field: 100})
        assert run(path, "analyze") == 2
        err = json.loads(capsys.readouterr().err)
        assert "unknown mc fields" in err["message"] and field in err["message"]

    @pytest.mark.parametrize("overrides,field", [
        ({"mc": {"committor_runs": "10k"}}, "committor_runs"),
        ({"mc": {"committor_runs": 1.5}}, "committor_runs"),
        ({"seed": "abc"}, "seed"),
        ({"workers": "two"}, "workers"),
        ({"sigma": None, "sigmas": [0.3, "x"]}, "sigmas"),
        ({"delta": "wide"}, "delta"),
        ({"map": {"name": "tanh", "params": {"beta": "steep"}}}, "beta"),
        ({"map": {"name": "tanh2d", "params": {"beta": 2.0}}, "dim": 2,
          "box": [[-2, 2], [-2, 2]], "cov": [[1, 0], [0, 1]]}, "beta"),
        ({"map": {"name": "tanh2d", "params": {"beta": [2.0, 2.0, 9.0]}},
          "dim": 2, "box": [[-2, 2], [-2, 2]], "cov": [[1, 0], [0, 1]]},
         "beta"),
        ({"map": {"name": "coupled2d", "params": {"beta": [2.0]}}, "dim": 2,
          "box": [[-2, 2], [-2, 2]], "cov": [[1, 0], [0, 1]]}, "beta"),
        ({"dim": True}, "dim"),
        ({"grid_nodes": True}, "'grid_nodes' must be an integer"),
        ({"thetaa": 0.05}, "thetaa"),
        ({"tol_refin": 0.01}, "tol_refin"),
        ({"mc": {"committor_runs": 99}}, "committor_runs"),
        ({"mc": {"trace_runs": 1}}, "trace_runs"),
        ({"seed": -3}, "seed"),
        ({"mc": {"step_cap": 0}}, "step_cap"),
        # a str is the config file's whole text
        ("[1, 2]", "JSON object"),
        ('{"schema": 1,', "cannot read config"),
        ({"schema": 2}, "schema"),
        ({"dim": 3}, "dim"),
        ({"box": [[-2, 2], [-2, 2]]}, "box"),
        ({"sigmas": [0.3]}, "either 'sigma' or 'sigmas'"),
        ({"sigma": None}, "'sigma'"),
        ({"sigma": None, "sigmas": []}, "'sigmas' must not be empty"),
        ({"sigma": 0.0}, "sigma"),
        ({"sigma": -0.5}, "sigma"),
        ({"grid_nodes": [101, 101]}, "grid_nodes"),
        ({"mc": [0, 0]}, "mc must be an object"),
        ({"mc": {"sim_steps": -1}}, "budgets must be nonnegative"),
        # the model's own checks, reached when the command builds it
        ({"box": [[2, -2]]}, "hi > lo"),
        ({"cov": [[1.0, 0.0]]}, "cov must be d x d"),
        ({"cov": [[-1.0]]}, "positive definite"),
        ({"map": {"name": "tanh2d", "params": {"beta": [2.0, 2.0]}},
          "dim": 2, "box": [[-2, 2], [-2, 2]], "cov": [[1, 0.5], [0, 1]]},
         "symmetric"),
        # the second run of a sigma would overwrite the first's files
        ({"sigma": None, "sigmas": [0.5, 0.4, 0.5]},
         "'sigmas' repeats a value: [0.5, 0.4, 0.5]")])
    def test_malformed_value_names_field(self, tmp_path, capsys, overrides,
                                         field):
        if isinstance(overrides, str):
            path = tmp_path / "config.json"
            path.write_text(overrides)
        else:
            path = write_config(tmp_path, **overrides)
        assert run(path, "analyze") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and field in err["message"]

    @pytest.mark.parametrize("flag,value,field", [
        ("--workers", "0", "workers"), ("--workers", "-2", "workers"),
        ("--seed", "-1", "seed")])
    def test_bad_override_names_field(self, tmp_path, capsys, flag, value,
                                      field):
        # the flags replace config fields before validation, not after
        path = write_config(tmp_path, mc={"committor_runs": 500,
                                          "trace_runs": 0, "sim_steps": 2000})
        assert run(path, "simulate", flag, value) == 2
        line, = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and field in err["message"]


    @pytest.mark.parametrize("mc,workers,bound", [
        ({"committor_runs": 500, "trace_runs": 0}, 500, None),
        ({"committor_runs": 500, "trace_runs": 0}, 501, 500),
        ({"committor_runs": 5000, "trace_runs": 1000}, 1001, 1000),
        ({"committor_runs": 0, "trace_runs": 0}, 10_000_000, None)])
    def test_workers_bounded_by_run_counts(self, tmp_path, mc, workers,
                                           bound):
        # every worker block holds a run; MC off leaves workers unused
        path = write_config(tmp_path, mc=mc, workers=workers)
        if bound is None:
            assert load_config(path).workers == workers
        else:
            with pytest.raises(ConfigError, match=f"'workers' must be <= "
                                                  f"{bound}"):
                load_config(path)

    def test_huge_workers_flag_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, mc={"committor_runs": 500,
                                          "trace_runs": 0, "sim_steps": 2000})
        assert run(path, "simulate", "--workers", "10000000") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "workers" in err["message"]


class TestIoErrors:
    """A file or directory that cannot be read or written exits 2 with one
    JSON line on stderr, not a traceback."""

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = write_config(tmp_path)
        assert run(path, "reduce", "--out", str(blocker / "sub")) == 2
        line, = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert (err["error"], err["type"]) == ("io", "NotADirectoryError")

    def test_cache_under_a_regular_file(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("METAREDUCE_CACHE", str(blocker / "cache"))
        path = write_config(tmp_path)
        assert run(path, "reduce") == 2
        line, = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert (err["error"], err["type"]) == ("io", "NotADirectoryError")
        assert not (tmp_path / "out" / "reduced_0.35.json").exists()

    def test_unwritable_output_file(self, tmp_path, capsys):
        (tmp_path / "out" / "analyze.json").mkdir(parents=True)
        assert run(write_config(tmp_path), "analyze") == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"]) == ("io", "IsADirectoryError")

    @pytest.mark.parametrize("garbled", [b'{"cache_schema": 3', b"[]",
                                         b"\xff\xfe"])
    def test_garbled_meta_file_is_a_miss(self, tmp_path, monkeypatch,
                                         garbled):
        # the kernel is recomputed and its meta file rewritten
        path = write_config(tmp_path)
        assert run(path, "spectrum") == 0
        first = (tmp_path / "out" / "spectrum_0.35.csv").read_bytes()
        meta, = (tmp_path / "cache").glob("*.meta.json")
        good = meta.read_bytes()
        meta.write_bytes(garbled)
        calls = count_calls(monkeypatch, metareduce.cli, "discretize_kernel")
        assert run(path, "spectrum") == 0
        assert len(calls) == 1
        assert meta.read_bytes() == good
        assert (tmp_path / "out" / "spectrum_0.35.csv").read_bytes() == first


def cache_entries(cache):
    """File names of the cache's entries, per kind."""
    entries = {"kernel": {p.name for p in cache.glob("*.kern")}}
    for kind in metareduce.kernel.DERIVED:
        entries[kind] = {p.name for p in (cache / "derived" / kind).glob("*")}
    return entries


def outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


# every kind but the Monte Carlo tape, which the model does not enter
MODEL_KINDS = {"kernel", *metareduce.kernel.DERIVED} - {"normals"}
# what each entry is built from, so changing it must make a new entry; the
# balls (delta) key the eigenpairs and QSDs but not the kernel's spectrum
KEYED = [
    ("sigma", 0.4, {"kernel", "trace", "spectrum", "eigen", "qsd"}),
    ("box", [[-2.2, 2.2]], MODEL_KINDS),
    ("cov", [[0.8]], MODEL_KINDS),
    ("grid_nodes", 121, MODEL_KINDS),
    ("map", {"name": "tanh", "params": {"beta": 2.2}}, MODEL_KINDS),
    ("delta", 0.25, {"trace", "eigen", "qsd", "table", "refinement"}),
    ("r_hop", 1.2, {"table", "refinement"}),
    ("seed", 12, {"normals"}),
]
BUILDERS = ((metareduce.cli, "discretize_kernel"),
            (metareduce.cli, "trace_kernel"),
            (metareduce.quasipotential, "compute_h_matrix"),
            (metareduce.cli, "refinement_check"),
            (metareduce.cli, "eigenvalues"),
            (metareduce.cli, "eigendecompose"))
SMALL_MC = {"committor_runs": 200, "trace_runs": 1000, "sim_steps": 0}
# fewer committor runs and the same trace runs: no read past SMALL_MC's tape
SMALLER_MC = {"committor_runs": 100, "trace_runs": 1000, "sim_steps": 0}


def _scaled(blob):
    """The float64 bytes with their largest finite value scaled by 10."""
    values = np.frombuffer(blob).copy()
    values[np.abs(np.nan_to_num(values, posinf=0, neginf=0)).argmax()] *= 10
    return values.tobytes()


DAMAGE = {
    "garble-meta": lambda blob: b'{"cache_schema": 3',
    "truncate-data": lambda blob: blob[:-8],
    "reverse-data": lambda blob: np.frombuffer(blob)[::-1].tobytes(),
    "scale-data": _scaled,
}
# every damage to every kind of entry, but reversing the one float of a
# refinement entry, which leaves it as it was
DAMAGED = [(damage, kind) for damage in DAMAGE
           for kind in [*metareduce.kernel.DERIVED, "kernel"]
           if (damage, kind) != ("reverse-data", "refinement")]


class TestDerivedCache:
    """The kernel's top eigenvalues, the trace on M, its top eigenpairs, the
    QSDs, the H table and its refinement check are cached beside the
    kernels, keyed on exactly what they are built from."""

    COMMANDS = ("reduce", "qsd", "quasipotential", "validate")

    @pytest.mark.parametrize("field,value,kinds", KEYED,
                             ids=[k[0] for k in KEYED])
    def test_keyed_input_makes_new_entries(self, tmp_path, field, value,
                                           kinds):
        cache = tmp_path / "cache"
        base = write_config(tmp_path, mc=SMALL_MC,
                            out_dir=str(tmp_path / "base-out"))
        assert run(base, "validate") in (0, 1)
        before = cache_entries(cache)
        assert all(before.values())
        assert run(write_config(tmp_path, mc=SMALL_MC, **{field: value}),
                   "validate") in (0, 1)
        after = cache_entries(cache)
        assert {k for k in after if after[k] != before[k]} == kinds
        assert all(len(after[k]) == 2 * len(before[k]) for k in kinds)
        cold = write_config(tmp_path, mc=SMALL_MC, **{field: value},
                            out_dir=str(tmp_path / "cold-out"),
                            cache_dir=str(tmp_path / "cold-cache"))
        assert run(cold, "validate") in (0, 1)
        assert outputs(tmp_path / "cold-out") == outputs(tmp_path / "out")

    @pytest.mark.parametrize("field,value", [
        ("theta", 0.05), ("mc", SMALLER_MC), ("out_dir", "other"),
        ("tol_refine", 0.001)])
    def test_unkeyed_input_reuses_every_entry(self, tmp_path, monkeypatch,
                                              field, value):
        if field == "out_dir":
            value = str(tmp_path / value)
        cache = tmp_path / "cache"
        assert run(write_config(tmp_path, mc=SMALL_MC), "validate") in (0, 1)
        before = cache_entries(cache)
        files = {p: (p.read_bytes(), p.stat().st_mtime_ns)
                 for p in cache.rglob("*") if p.is_file()}
        calls = {name: count_calls(monkeypatch, module, name)
                 for module, name in BUILDERS}
        assert run(write_config(tmp_path, **{"mc": SMALL_MC, field: value}),
                   "validate") in (0, 1)
        assert {name: len(c) for name, c in calls.items()} == {
            name: 0 for _, name in BUILDERS}
        assert cache_entries(cache) == before
        # no file is rewritten: a smaller budget reads inside the tape
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in files} == files
        if field == "tol_refine":     # the cached change, judged afresh
            doc = json.loads(
                (tmp_path / "out" / "validate_0.35.json").read_text())
            detail, = [c["detail"] for c in doc["checks"]
                       if c["name"] == "grid_refinement_stability"]
            assert detail["tolerance"] == 0.001
            assert detail["warning"] == (
                detail["max_relative_change"] > 0.001)

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """Each command's outputs, each from an empty cache."""
        outs = {}
        for command in self.COMMANDS:
            tmp = tmp_path_factory.mktemp(command)
            path = write_config(tmp, sigma=None, sigmas=[0.4, 0.35],
                                mc=SMALL_MC)
            assert run(path, command) in (0, 1)
            outs[command] = outputs(tmp / "out")
        return outs

    def test_warm_from_another_commands_cache(self, tmp_path, monkeypatch,
                                              cold):
        # reduce fills the kernels, traces, eigenpairs, QSDs and table;
        # validate adds the kernels' spectra and the refinement check; the
        # rest read them
        for k, command in enumerate(("reduce", "validate", "qsd",
                                     "quasipotential", "reduce")):
            if k == 4:
                loads = count_calls(monkeypatch, metareduce.kernel,
                                    "load_kernel")
            out = tmp_path / f"out{k}"
            path = write_config(tmp_path, sigma=None, sigmas=[0.4, 0.35],
                                mc=SMALL_MC, out_dir=str(out))
            assert run(path, command) in (0, 1)
            assert outputs(out) == cold[command]
        assert loads == []
        assert not list((tmp_path / "cache").rglob("*.tmp"))

    def test_kernels_only_cache_keeps_its_listing(self, tmp_path):
        # a cache seeded with kernels alone (as a set-up step fills it)
        # shows no new, grown or touched top-level entry once a command
        # adds its derived entries
        path = write_config(tmp_path, sigma=None, sigmas=[0.4, 0.35])
        cfg = load_config(path)
        pipe = Pipeline(cfg)
        for sigma in cfg.sigmas:
            model = pipe.model(sigma)
            metareduce.kernel.save_kernel(
                cfg.cache_dir, model, pipe.grid,
                metareduce.kernel.discretize_kernel(model, pipe.grid))
        cache = tmp_path / "cache"

        def listing():
            return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
                    for p in cache.iterdir()}

        before = listing()
        assert run(path, "validate") == 0
        assert listing() == before
        entries = cache_entries(cache)
        assert not entries.pop("normals")   # Monte Carlo is off
        assert all(entries.values())
        with_mc = write_config(tmp_path, sigma=None, sigmas=[0.4, 0.35],
                               mc=SMALL_MC)
        assert run(with_mc, "validate") in (0, 1)
        assert listing() == before
        assert len(list((cache / "derived" / "normals").glob("*.bin"))) == 2

    @pytest.mark.parametrize("damage,kind", DAMAGED,
                             ids=[f"{d}-{k}" for d, k in DAMAGED])
    def test_damaged_entry_is_a_miss(self, tmp_path, cold, kind, damage):
        # reversed or scaled data keeps its length: only the checksum in
        # the metadata tells it from the entry that was saved
        path = write_config(tmp_path, sigma=None, sigmas=[0.4, 0.35],
                            mc=SMALL_MC)
        assert run(path, "validate") in (0, 1)
        cache = tmp_path / "cache"
        good = {p: p.read_bytes() for p in cache.rglob("*") if p.is_file()}
        folder, meta, data = ((cache, "*.meta.json", "*.kern")
                              if kind == "kernel" else
                              (cache / "derived" / kind, "*.json", "*.bin"))
        damaged = list(folder.glob(meta if damage == "garble-meta" else data))
        assert damaged
        for p in damaged:
            p.write_bytes(DAMAGE[damage](p.read_bytes()))
            assert p.read_bytes() != good[p]
        if kind == "kernel":    # a warm validate reads K only to build
            for p in (cache / "derived").rglob("*"):
                if p.is_file():
                    p.unlink()
        assert run(path, "validate") in (0, 1)
        assert outputs(tmp_path / "out") == cold["validate"]
        assert {p: p.read_bytes() for p in good} == good
        for p in folder.glob(meta):     # each rewritten entry loads again
            doc = json.loads(p.read_text())
            del doc["hash"], doc["crc32"]
            size = p.with_name(p.name.split(".")[0] + data[1:]).stat().st_size
            assert metareduce.kernel.load_entry(cache, kind, doc,
                                                size // 8) is not None
        assert not list((tmp_path / "cache").rglob("*.tmp"))

    @pytest.mark.parametrize("kind", ["eigen", "qsd"])
    def test_permuted_entry_is_a_miss(self, tmp_path, cold, kind):
        # saved with its own checksum and of the right length, so only the
        # Gram, residual and QSD checks a computed entry passes can tell it
        # is wrong
        path = write_config(tmp_path, sigma=None, sigmas=[0.4, 0.35],
                            mc=SMALL_MC)
        assert run(path, "validate") in (0, 1)
        cache = tmp_path / "cache"
        bins = list((cache / "derived" / kind).glob("*.bin"))
        good = {p: p.read_bytes() for p in bins}
        assert len(good) == 2
        rng = np.random.default_rng(0)
        for p in bins:
            meta = json.loads(p.with_suffix(".json").read_text())
            del meta["hash"], meta["crc32"]
            permuted = rng.permutation(np.fromfile(p))
            assert metareduce.kernel.save_entry(cache, kind, meta,
                                                [permuted]) == p.stem
            assert p.read_bytes() != good[p]
            assert np.array_equal(metareduce.kernel.load_entry(
                cache, kind, meta, permuted.size), permuted)
        assert run(path, "validate") in (0, 1)
        assert outputs(tmp_path / "out") == cold["validate"]
        assert {p: p.read_bytes() for p in bins} == good

    def test_warm_commands_solve_no_eigenproblem(self, tmp_path, monkeypatch,
                                                 cold):
        path = write_config(tmp_path, sigma=None, sigmas=[0.4, 0.35],
                            mc=SMALL_MC)
        assert run(path, "validate") in (0, 1)

        def refused(*args, **kwargs):
            raise AssertionError("a warm run solved an eigenproblem")

        def outside_spectral(solve):
            # numpy's solvers stay open to the fixed points' Jacobians
            def checked(a):
                if (sys._getframe(1).f_globals["__name__"]
                        == "metareduce.spectral"):
                    refused()
                return solve(a)
            return checked

        for name in ("eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name,
                                outside_spectral(getattr(np.linalg, name)))
        monkeypatch.setattr("scipy.sparse.linalg.eigs", refused)
        monkeypatch.setattr("scipy.linalg.eig", refused)
        for module in (metareduce.cli, metareduce.kernel):
            monkeypatch.setattr(module, "load_kernel", refused)
        for command in ("validate", "reduce", "qsd"):
            out = tmp_path / f"out-{command}"
            assert run(path, command, "--out", str(out)) in (0, 1)
            assert outputs(out) == cold[command]

    def test_cold_commands_solve_only_what_they_read(self, tmp_path,
                                                     monkeypatch):
        # reduce reads no full-kernel spectrum, qsd no trace eigenpairs
        def refused(*args, **kwargs):
            raise AssertionError("eigs called")

        monkeypatch.setattr("scipy.sparse.linalg.eigs", refused)
        calls = count_calls(monkeypatch, metareduce.cli, "eigendecompose")
        path = write_config(tmp_path, sigma=None, sigmas=[0.4, 0.35])
        assert run(path, "qsd") == 0
        assert calls == []
        assert run(path, "reduce") == 0
        entries = cache_entries(tmp_path / "cache")
        assert not entries["spectrum"]
        assert len(entries["eigen"]) == len(entries["qsd"]) == 2 * 2


class TestAnalyze:
    def test_failing_drift_recorded(self, tmp_path):
        # a = 0.99: E U(X_1) - U(x) = sigma^2 - (1 - a^2) x^2 >= 0 out to
        # |x| = 3.5, so a sample in the shell outside [-2, 2] fails
        path = write_config(tmp_path, map={"name": "linear",
                                           "params": {"a": 0.99}}, sigma=0.5)
        assert run(path, "analyze") == 1
        doc = json.loads((tmp_path / "out" / "analyze.json").read_text())
        drift = doc["drift"]["0.5"]
        assert drift["passed"] is False
        assert drift["drift"] >= 0.0 and abs(drift["sample"][0]) > 2.0

    def test_tanh_three_fixed_points(self, tmp_path):
        path = write_config(tmp_path)
        assert run(path, "analyze") == 0
        doc = json.loads((tmp_path / "out" / "analyze.json").read_text())
        assert len(doc["fixed_points"]) == 3
        assert doc["n_stable"] == 2
        assert not doc["flag_single_well"]
        assert doc["drift"]["0.35"]["passed"]

    def test_identity_map_numeric_error(self, tmp_path, capsys):
        path = write_config(tmp_path, map={"name": "linear",
                                           "params": {"a": 1.0}},
                            box=[[-1, 1]])
        assert run(path, "analyze") == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "MarginalFixedPoint"

    def test_single_well_flagged(self, tmp_path):
        path = write_config(tmp_path, map={"name": "linear",
                                           "params": {"a": 0.5}},
                            box=[[-1, 1]], delta=0.1)
        assert run(path, "analyze") == 0
        doc = json.loads((tmp_path / "out" / "analyze.json").read_text())
        assert doc["flag_single_well"]


class TestSpectrum:
    def test_gap_passes_and_cache_reruns_identically(self, tmp_path):
        path = write_config(tmp_path)
        assert run(path, "spectrum") == 0
        csv_path = tmp_path / "out" / "spectrum_0.35.csv"
        first = csv_path.read_bytes()
        assert (tmp_path / "cache").glob("*.kern")
        assert run(path, "spectrum") == 0
        assert csv_path.read_bytes() == first

    def test_small_sigma_reference_runs(self, tmp_path):
        # sigma = 0.12 on the 401-node reference: only eigenvalues are
        # computed, so no eigenvector residual can fail the command
        path = write_config(tmp_path, sigma=0.12, grid_nodes=401)
        assert run(path, "spectrum") == 0
        doc = json.loads((tmp_path / "out" / "gap_0.12.json").read_text())
        assert doc["passed"]

    def test_large_sigma_gap_fails(self, tmp_path):
        path = write_config(tmp_path, sigma=0.8)
        assert run(path, "spectrum") == 1
        doc = json.loads((tmp_path / "out" / "gap_0.8.json").read_text())
        assert not doc["passed"]

    def test_csv_schema(self, tmp_path):
        path = write_config(tmp_path)
        run(path, "spectrum")
        lines = (tmp_path / "out" / "spectrum_0.35.csv").read_text().splitlines()
        assert lines[0] == "mode,re,im,modulus,dist_to_one"
        assert len(lines) == 102
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            for field in fields:
                float(field)

    def test_cache_keys_on_map_params(self, tmp_path):
        lam1 = []
        for beta in (2.0, 2.5):
            path = write_config(tmp_path, map={"name": "tanh",
                                               "params": {"beta": beta}})
            assert run(path, "spectrum") == 0
            doc = json.loads((tmp_path / "out" / "gap_0.35.json").read_text())
            lam1.append(doc["leading_moduli"][1])
        cache = tmp_path / "cache"
        assert len(list(cache.glob("*.kern"))) == 2
        assert len(list(cache.glob("*.meta.json"))) == 2
        assert not list(cache.glob("*.tmp"))
        assert abs(lam1[0] - lam1[1]) > 1e-3


class TestQuasipotential:
    def test_symmetric_h(self, tmp_path):
        path = write_config(tmp_path)
        assert run(path, "quasipotential") == 0
        doc = json.loads((tmp_path / "out" / "h_matrix.json").read_text())
        h = np.array(doc["H"])
        assert abs(h[0, 1] - h[1, 0]) < 1e-10
        assert doc["H0_hat"] == "inf"

    def test_r_hop_too_small_surfaced(self, tmp_path, capsys):
        path = write_config(tmp_path, r_hop=0.05)
        assert run(path, "quasipotential") == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "HopRadiusTooSmall"

    def test_single_well_note(self, tmp_path):
        path = write_config(tmp_path, map={"name": "linear",
                                           "params": {"a": 0.5}},
                            box=[[-1, 1]], delta=0.1, r_hop=0.5)
        assert run(path, "quasipotential") == 0
        doc = json.loads((tmp_path / "out" / "h_matrix.json").read_text())
        assert doc["H0"] == "inf"
        assert "single-well" in doc["note"]


def run_subprocess(path, command):
    """Exit code and stderr lines of a CLI run in a subprocess, so that a
    leaked warning or a traceback would reach stderr."""
    src = str(Path(metareduce.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "metareduce.cli", command, "--config",
         str(path)], env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr.splitlines()


class TestSingleWell:
    @pytest.mark.parametrize("command", ["qsd", "reduce", "validate"])
    def test_one_ball_is_all_of_m(self, tmp_path, command):
        path = write_config(tmp_path, map={"name": "linear",
                                           "params": {"a": 0.5}},
                            box=[[-1, 1]], delta=0.1, r_hop=0.5)
        code, lines = run_subprocess(path, command)
        assert code == 3
        err, = lines
        doc = json.loads(err)
        assert doc["type"] == "NumericError"
        assert "all of M" in doc["message"]
        assert "one metastable state" in doc["message"]

    def test_simulate_runs(self, tmp_path):
        # one ball: events at sigma 0.35; none at 0.01, where the path never
        # leaves the ball it starts in, so its file is empty
        path = write_config(tmp_path, map={"name": "linear",
                                           "params": {"a": 0.5}},
                            box=[[-1, 1]], delta=0.1, r_hop=0.5, sigma=None,
                            sigmas=[0.35, 0.01],
                            mc={"committor_runs": 500, "trace_runs": 0,
                                "sim_steps": 2000})
        code, lines = run_subprocess(path, "simulate")
        assert (code, lines) == (0, [])
        out = tmp_path / "out"
        assert (out / "results.csv").read_text().splitlines()[1:] == [
            "balls_visited,0.35,1.0,0.0,2000,11",
            "balls_visited,0.01,0.0,0.0,2000,11"]
        assert (out / "events_0.01.ndjson").read_bytes() == b""
        pipe = Pipeline(load_config(path))
        trace = metareduce.simulate_chain(
            pipe.model(0.35), pipe.structure, pipe.structure.centers[0],
            2000, pipe.cfg.seed)
        assert (out / "events_0.35.ndjson").read_text() == "".join(
            events_lines(trace))


class TestEmptyBall:
    @pytest.mark.parametrize("command", ["qsd", "reduce", "validate"])
    def test_ball_without_nodes_named(self, tmp_path, command):
        # spacing 0.01 on 401 nodes: a radius 0.002 ball misses every node
        path = write_config(tmp_path, grid_nodes=401, delta=0.002)
        code, lines = run_subprocess(path, command)
        assert code == 3
        err, = lines
        doc = json.loads(err)
        assert doc["type"] == "BallConstructionFailed"
        assert "ball 0" in doc["message"] and "holds no grid node" \
            in doc["message"]
        assert "centre" in doc["message"] and "radius 0.002" in doc["message"]


class TestQsd:
    def test_outputs(self, tmp_path):
        path = write_config(tmp_path)
        assert run(path, "qsd") == 0
        doc = json.loads((tmp_path / "out" / "qsd_0.35.json").read_text())
        assert len(doc["balls"]) == 2
        for entry in doc["balls"]:
            assert 0.0 < entry["lambda0"] < 1.0
            assert entry["gap_ratio"] < 1.0
        lines = (tmp_path / "out" / "qsd_0.35_ball0.csv").read_text().splitlines()
        assert lines[0] == "node_index,x0,weight"
        weights = [float(l.split(",")[2]) for l in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-10)


class TestReduce:
    def test_row_stochastic_and_idempotent(self, tmp_path):
        path = write_config(tmp_path)
        assert run(path, "reduce") == 0
        out = tmp_path / "out" / "reduced_0.35.json"
        first = out.read_bytes()
        doc = json.loads(first)
        p = np.array(doc["P"])
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)
        assert doc["m"] >= 1
        assert run(path, "reduce") == 0
        assert out.read_bytes() == first

    def test_theta_too_large(self, tmp_path, capsys):
        path = write_config(tmp_path, theta=5.0)
        assert run(path, "reduce") == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ThetaTooLarge"


class TestSimulate:
    def test_results_csv_and_events(self, tmp_path):
        path = write_config(tmp_path,
                            mc={"committor_runs": 500, "trace_runs": 0,
                                "sim_steps": 2000})
        assert run(path, "simulate") == 0
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines[0] == "quantity,sigma,estimate,stderr,n,seed"
        quantities = [l.split(",")[0] for l in lines[1:]]
        assert "balls_visited" in quantities
        assert "committor_0_to_1" in quantities
        events = (tmp_path / "out" / "events_0.35.ndjson").read_text()
        first = json.loads(events.splitlines()[0])
        assert set(first) == {"step", "ball", "kind", "position"}

    @pytest.mark.parametrize("overrides", [
        {"sigma": 0.4},
        {"map": {"name": "tanh2d", "params": {"beta": [2.0, 2.0]}}, "dim": 2,
         "box": [[-2, 2], [-2, 2]], "cov": [[1.0, 0.0], [0.0, 1.0]],
         "sigma": 0.5, "grid_nodes": 51, "r_hop": 2.5}], ids=["1d", "2d"])
    def test_events_file_matches_json_dumps(self, tmp_path, overrides):
        path = write_config(tmp_path, mc={"committor_runs": 0,
                                          "trace_runs": 0,
                                          "sim_steps": 3000}, **overrides)
        assert run(path, "simulate") == 0
        pipe = Pipeline(load_config(path))
        sigma = pipe.cfg.sigmas[0]
        trace = metareduce.simulate_chain(
            pipe.model(sigma), pipe.structure, pipe.structure.centers[0],
            3000, pipe.cfg.seed)
        lines = [json.dumps({"step": int(s), "ball": int(b), "kind": int(k),
                             "position": list(map(float, p))},
                            sort_keys=True)
                 for s, b, k, p in zip(trace.event_steps, trace.event_balls,
                                       trace.event_kinds,
                                       trace.event_positions)]
        assert len(lines) > 10
        assert len(json.loads(lines[0])["position"]) == pipe.cfg.dim
        written = (tmp_path / "out" / f"events_{sigma!r}.ndjson").read_bytes()
        assert written == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("d,n", [(1, 14), (2, 2 * 1024 + 5), (2, 0)],
                             ids=["1d", "2d-three-blocks", "no-events"])
    def test_events_writer_oracle(self, tmp_path, monkeypatch, d, n):
        # a hand-built trace: json's float forms a chain path never reaches
        # (exponents, -0.0, subnormals), balls past 9, both kinds, and
        # blocks after a full one reusing its rows
        rng = np.random.default_rng(5)
        edge = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1 + 0.2,
                1.7976931348623157e308]
        values = rng.standard_normal(n * d) * 10.0 ** rng.integers(
            -30, 30, n * d)
        values[:2 * len(edge)] = (edge + [-v for v in edge])[:n * d]
        trace = SimulationTrace(
            event_steps=np.cumsum(rng.integers(1, 10**6, n)),
            event_balls=np.arange(n) % 13,
            event_kinds=np.where(np.arange(n) % 3, 1, -1),
            event_positions=values.reshape(n, d),
            entry_counts=np.zeros(13, dtype=np.int64),
            steps_in_ball=np.zeros(13, dtype=np.int64), exits_from_box=0,
            final_position=np.zeros(d))
        monkeypatch.setattr(metareduce.cli, "simulate_chain",
                            lambda *args: trace)
        path = write_config(tmp_path, mc={"committor_runs": 0,
                                          "trace_runs": 0, "sim_steps": 10})
        assert run(path, "simulate") == 0
        lines = events_lines(trace)
        written = (tmp_path / "out" / "events_0.35.ndjson").read_bytes()
        assert written == "".join(lines).encode()
        assert all(repr(v) in lines[i // d] for i, v in enumerate(edge[:n]))

    def test_reruns_byte_identical(self, tmp_path):
        # digests of the outputs of the chain stepped one step at a time,
        # which the parallel-in-time path must reproduce byte for byte
        path = write_config(
            tmp_path, map={"name": "tanh2d", "params": {"beta": [2.0, 2.0]}},
            dim=2, box=[[-2, 2], [-2, 2]], cov=[[1.0, 0.0], [0.0, 1.0]],
            sigma=0.4, grid_nodes=51, r_hop=2.5,
            mc={"committor_runs": 200, "trace_runs": 0, "sim_steps": 20_000})
        names = ("events_0.4.ndjson", "results.csv")
        runs = []
        for _ in range(2):
            assert run(path, "simulate") == 0
            runs.append([(tmp_path / "out" / f).read_bytes() for f in names])
        assert runs[0] == runs[1]
        assert [hashlib.sha256(b).hexdigest() for b in runs[0]] == [
            "bdbcafebc5c5aa23c8953256814c5bbc08dc5945f7cdf9af04cbce72d2efb241",
            "ad78619395972390c1e5ef05c0e8e125ceec7e1b3165e3e8e6cbec976fbf50e4"]

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path,
                            mc={"committor_runs": 500, "trace_runs": 0,
                                "sim_steps": 0})
        run(path, "simulate")
        first = (tmp_path / "out" / "results.csv").read_text()
        run(path, "simulate", "--seed", "99")
        second = (tmp_path / "out" / "results.csv").read_text()
        assert first != second


def count_normals(monkeypatch):
    """Normals drawn from each Philox stream (seed, w), in every tape; and
    per block reading a tape, its stream and how many normals it read."""
    drawn, readers, places = {}, [], {}
    make, read = metareduce.montecarlo.rng_stream, Normals.read

    class Counted:
        def __init__(self, seed, w):
            self.rng, self.key = make(seed, w), (seed, w)
            self.bit_generator = self.rng.bit_generator

        def standard_normal(self, size=None, out=None):
            z = self.rng.standard_normal(size, out=out)
            drawn[self.key] = drawn.get(self.key, 0) + z.size
            return z

    def counted(self, w, at, n, parts):
        # a block's reads go on from where its last one stopped (an int, or
        # past the tape's end a generator); blocks at one place of a stream
        # read the same normals, so either may be credited
        if isinstance(at, int) and at == 0:
            readers.append([w, 0])
            reader = readers[-1]
        else:
            reader = places[self, w, at].pop()
        reader[1] += n
        after = read(self, w, at, n, parts)
        places.setdefault((self, w, after), []).append(reader)
        return after

    monkeypatch.setattr(metareduce.montecarlo, "rng_stream", Counted)
    monkeypatch.setattr(Normals, "read", counted)
    return drawn, readers


class TestNormalsTape:
    MC = {"committor_runs": 1000, "trace_runs": 1000, "trace_blocks": 4}

    def test_validate_draws_each_stream_once(self, tmp_path, monkeypatch):
        # a small chunk makes "the longest read plus one chunk" a tight bound
        monkeypatch.setattr(metareduce.montecarlo, "TAPE_CHUNK", 1000)
        drawn, readers = count_normals(monkeypatch)
        path = write_config(tmp_path, sigma=None, sigmas=[0.5, 0.4],
                            mc=self.MC)
        run(path, "validate")
        assert sorted(drawn) == [(11, 0), (11, 1)]
        for (_, w), n in drawn.items():
            reads = [k for v, k in readers if v == w]
            assert len(reads) == 4          # 2 sigmas x 2 estimators
            assert max(reads) <= n <= max(reads) + 1000
            assert sum(reads) > max(reads) + 1000   # the replay saved draws

    def test_warm_validate_draws_nothing(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, sigma=None, sigmas=[0.5, 0.4],
                            mc=self.MC)
        first = run(path, "validate")
        cold = outputs(tmp_path / "out")
        drawn, _ = count_normals(monkeypatch)
        warm = tmp_path / "warm-out"
        assert run(path, "validate", "--out", str(warm)) == first
        assert drawn == {}
        assert outputs(warm) == cold

    def test_larger_budget_draws_its_extension(self, tmp_path, monkeypatch):
        # the tape loaded from the cache is read on past its end: only the
        # normals past it are drawn, at most one chunk more than are read
        monkeypatch.setattr(metareduce.montecarlo, "TAPE_CHUNK", 1000)
        drawn, readers = count_normals(monkeypatch)
        assert run(write_config(tmp_path, sigma=None, sigmas=[0.5, 0.4],
                                mc=self.MC), "validate") in (0, 1)
        loaded, first = dict(drawn), len(readers)
        more = dict(self.MC, trace_runs=2000)
        warm = write_config(tmp_path, sigma=None, sigmas=[0.5, 0.4], mc=more,
                            out_dir=str(tmp_path / "warm"))
        assert run(warm, "validate") in (0, 1)
        assert sorted(drawn) == sorted(loaded) == [(11, 0), (11, 1)]
        for (_, w), n in loaded.items():
            extension = max(k for v, k in readers[first:] if v == w) - n
            assert 0 < extension <= drawn[11, w] - n <= extension + 1000
        cold = write_config(tmp_path, sigma=None, sigmas=[0.5, 0.4], mc=more,
                            out_dir=str(tmp_path / "cold"),
                            cache_dir=str(tmp_path / "cold-cache"))
        assert run(cold, "validate") in (0, 1)
        assert outputs(tmp_path / "warm") == outputs(tmp_path / "cold")

    def test_each_command_draws_again(self, tmp_path, monkeypatch):
        drawn, _ = count_normals(monkeypatch)
        path = write_config(tmp_path, mc={"committor_runs": 200,
                                          "trace_runs": 0, "sim_steps": 0})
        outs = []
        for _ in range(2):
            before = sum(drawn.values())
            assert run(path, "simulate") == 0
            outs.append((sum(drawn.values()) - before,
                         (tmp_path / "out" / "results.csv").read_bytes()))
        assert outs[0][0] > 0
        assert outs[0] == outs[1]


class TestTanh2d:
    def test_four_wells_end_to_end(self, tmp_path):
        path = write_config(
            tmp_path, map={"name": "tanh2d", "params": {"beta": [2.0, 2.0]}},
            dim=2, box=[[-2, 2], [-2, 2]], cov=[[1.0, 0.0], [0.0, 1.0]],
            sigma=0.4, grid_nodes=51, r_hop=2.5,
            mc={"committor_runs": 200, "trace_runs": 0, "sim_steps": 2000})
        out = tmp_path / "out"
        assert run(path, "analyze") == 0
        assert json.loads((out / "analyze.json").read_text())["n_stable"] == 4
        assert run(path, "simulate") == 0
        lines = (out / "results.csv").read_text().splitlines()[1:]
        assert sum(l.startswith("committor_") for l in lines) == 12
        assert run(path, "reduce") == 0
        doc = json.loads((out / "reduced_0.4.json").read_text())
        assert doc["n_balls"] == 4
        p = np.array(doc["P"])
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)
        # wells in lexicographic order (-,-), (-,+), (+,-), (+,+): the
        # reflections x -> -x and y -> -y and the swap of x and y, which
        # generate the symmetries of the square, permute them
        for perm in ([2, 3, 0, 1], [1, 0, 3, 2], [0, 2, 1, 3]):
            np.testing.assert_allclose(p[np.ix_(perm, perm)], p, atol=1e-10)
        assert p[0, 0] == pytest.approx(0.58969, abs=1e-5)
        assert p[0, 1] == pytest.approx(0.16552, abs=1e-5)
        assert p[0, 3] == pytest.approx(0.07928, abs=1e-5)


class TestValidate:
    def test_exact_checks_run_mc_skipped(self, tmp_path):
        path = write_config(tmp_path)
        code = run(path, "validate")
        doc = json.loads(
            (tmp_path / "out" / "validate_0.35.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["committor_ldp"]["skipped"]
        assert by_name["reduction_monte_carlo"]["skipped"]
        for name in ("spectral_gap", "qsd_geometric_law", "basis_identities",
                     "reduction_exact_matrix", "uniform_positivity",
                     "eyring_kramers_log_asymptotics"):
            assert not by_name[name]["skipped"]
            assert by_name[name]["passed"]
        assert code == 0

    def test_h_tables_built_once_for_all_sigmas(self, tmp_path, monkeypatch):
        calls = []
        original = metareduce.quasipotential.compute_h_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (metareduce.quasipotential, metareduce.cli):
            monkeypatch.setattr(module, "compute_h_matrix", counted)
        path = write_config(tmp_path, sigma=None, sigmas=[0.5, 0.4, 0.35])
        run(path, "validate")
        for tag in ("0.5", "0.4", "0.35"):
            doc = json.loads(
                (tmp_path / "out" / f"validate_{tag}.json").read_text())
            names = [c["name"] for c in doc["checks"]]
            assert "grid_refinement_stability" in names
        assert 1 <= len(calls) <= 2

    def test_each_reduction_object_solved_once_per_sigma(self, tmp_path,
                                                         monkeypatch):
        # one killed kernel, one set of escape masses and one QSD per ball,
        # one (K0)^m per sigma
        counts = {name: count_calls(monkeypatch, module, name)
                  for module, name in (
                      (metareduce.spectral, "solve_qsd"),
                      (metareduce.kernel, "killed_kernel"),
                      (metareduce.kernel, "escape_mass"),
                      (metareduce.reduction, "stochastic_power"))}
        sigmas = [0.5, 0.35]
        path = write_config(tmp_path, sigma=None, sigmas=sigmas,
                            grid_nodes=401)
        assert run(path, "validate") == 0
        doc = json.loads((tmp_path / "out" / "validate_0.5.json").read_text())
        n = len(next(c["detail"] for c in doc["checks"]
                     if c["name"] == "uniform_positivity"))   # one per ball
        assert n == 2
        assert len(counts["solve_qsd"]) <= n * len(sigmas)
        assert len(counts["killed_kernel"]) <= n * len(sigmas)
        assert len(counts["escape_mass"]) == n * len(sigmas)
        assert len(counts["stochastic_power"]) == len(sigmas)

    def test_map_validated_once(self, tmp_path, monkeypatch):
        calls = []
        original = DeterministicMapModel.validate

        def counted(self, *args, **kwargs):
            calls.append(self.sigma)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DeterministicMapModel, "validate", counted)
        path = write_config(tmp_path, sigma=None, sigmas=[0.5, 0.4, 0.35])
        assert run(path, "analyze") == 0
        assert calls == [0.5]

    def test_reruns_byte_identical(self, tmp_path):
        path = write_config(tmp_path, sigma=None, sigmas=[0.5, 0.35])
        outs = []
        for _ in range(2):
            run(path, "validate")
            outs.append({p.name: p.read_bytes()
                         for p in sorted((tmp_path / "out").iterdir())})
        assert len(outs[0]) == 2
        assert outs[0] == outs[1]

    def test_small_sigma_reference_passes(self, tmp_path):
        # 401-node reference at sigma = 0.12 and 0.1, where the escape mass
        # is below 1e-9 and the top eigenvalues cluster within 1e-9
        path = write_config(tmp_path, sigma=None, sigmas=[0.12, 0.1],
                            grid_nodes=401)
        assert run(path, "validate") == 0
        for tag in ("0.12", "0.1"):
            doc = json.loads(
                (tmp_path / "out" / f"validate_{tag}.json").read_text())
            assert doc["passed"]
            for check in doc["checks"]:
                assert check["passed"]
                if check["name"] not in ("committor_ldp",
                                         "reduction_monte_carlo"):
                    assert not check["skipped"]

    def test_unresolved_gap_fails_eyring_kramers(self, tmp_path):
        # 101 nodes at sigma = 0.09: lambda0 - lambda1 of the trace is
        # 6.5 eps, inside validate's cluster floor (8 eps ||K||), so
        # 1 - lambda1 is rounding and its log is no gap (sigma^2 log of it
        # read -0.2976, within 5% of -H0, and passed)
        path = write_config(tmp_path, sigma=0.09)
        assert run(path, "validate") == 1
        doc = json.loads((tmp_path / "out" / "validate_0.09.json").read_text())
        check, = [c for c in doc["checks"]
                  if c["name"] == "eyring_kramers_log_asymptotics"]
        assert not check["passed"] and not check["skipped"]
        detail = check["detail"]
        assert set(detail) == {"gap", "floor", "reason"}
        assert 0.0 <= detail["gap"] <= detail["floor"]
        assert detail["floor"] == pytest.approx(8 * np.finfo(float).eps)

    def test_reference_reduces_at_sigma_015_and_012(self, tmp_path):
        # 1 - lambda_1 = 4.4e-7 at sigma = 0.15 and 1.7e-10 at 0.12: the top
        # N trace modes are binormalized as one block, so P's rows sum to 1
        # within 1e-10 and P matches the watched chain to 1e-6
        path = write_config(tmp_path, sigma=None, sigmas=[0.15, 0.12],
                            grid_nodes=401)
        assert run(path, "reduce") == 0
        assert run(path, "validate") == 0
        for tag in ("0.15", "0.12"):
            doc = json.loads(
                (tmp_path / "out" / f"reduced_{tag}.json").read_text())
            assert np.abs(doc["multiplicative_error"]).max() <= 1e-6
            doc = json.loads(
                (tmp_path / "out" / f"validate_{tag}.json").read_text())
            assert doc["passed"]

    def test_reduces_below_eigenvalue_resolution(self, tmp_path):
        # 101 nodes at sigma <= 0.1: 1 - lambda_1 of the float trace is
        # rounding, so P must come from K0^m, not from lambda^m, to match
        # the watched chain
        path = write_config(tmp_path, sigma=None, sigmas=[0.1, 0.09, 0.08])
        assert run(path, "reduce") == 0
        for tag in ("0.1", "0.09", "0.08"):
            doc = json.loads(
                (tmp_path / "out" / f"reduced_{tag}.json").read_text())
            assert np.abs(doc["multiplicative_error"]).max() <= 1e-6

    def test_reference_sigma_015_with_monte_carlo(self, tmp_path):
        # default budgets: no committor run from ball 0 reaches ball 1, so
        # that check is skipped with the estimator's message; P_01 = 7e-6,
        # so the trace's 10,000 runs see no hop at n = 1, which the law's
        # own standard error allows
        path = write_config(tmp_path, sigma=0.15, grid_nodes=401, mc=None,
                            seed=20250809)
        assert run(path, "validate") == 0
        doc = json.loads(
            (tmp_path / "out" / "validate_0.15.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name.pop("committor_ldp") == {
            "name": "committor_ldp", "passed": True, "skipped": True,
            "detail": {"reason": "no run from ball 0 reached ball 1"}}
        for check in by_name.values():
            assert check["passed"] and not check["skipped"]

    def test_estimators_past_step_cap_skipped(self, tmp_path):
        path = write_config(tmp_path, mc={"committor_runs": 100,
                                          "trace_runs": 1000, "step_cap": 1})
        assert run(path, "validate") == 0
        doc = json.loads(
            (tmp_path / "out" / "validate_0.35.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        for name, reason in (
                ("committor_ldp", "committor run exceeded 1 steps"),
                ("reduction_monte_carlo", r"trace run needs 20 x \d+ visits "
                                          r"to M, over 1 steps")):
            assert by_name[name]["skipped"] and by_name[name]["passed"]
            assert re.fullmatch(reason, by_name[name]["detail"]["reason"])

    def test_coarse_grid_refinement_warning(self, tmp_path):
        path = write_config(tmp_path, grid_nodes=51, tol_refine=0.01)
        run(path, "validate")
        doc = json.loads(
            (tmp_path / "out" / "validate_0.35.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["grid_refinement_stability"]["detail"]["warning"]


def test_import_leaves_sparse_solvers_unloaded():
    # ARPACK and csgraph are imported where they are used, so that
    # ``import metareduce`` stays as fast as before
    src = str(Path(metareduce.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, metareduce; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.sparse.linalg', 'scipy.sparse.csgraph'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def fresh_run(code):
    """The last line ``code`` prints, run in a fresh interpreter on src."""
    src = str(Path(metareduce.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.splitlines()[-1]


LOADED = ("\nimport sys; print(sorted(m for m in sys.modules "
          "if m.startswith(('metareduce', 'scipy'))))")


class TestLazyImport:
    """``import metareduce`` loads no submodule; each public name loads its
    own module on first access, so set-up loads only what it runs."""

    def test_package_alone(self):
        assert fresh_run("import metareduce" + LOADED) == "['metareduce']"

    def test_cache_fill_loads_seven_modules(self):
        # what a kernel-cache fill imports: no Monte Carlo, spectral,
        # reduction or quasipotential module, and no scipy
        assert fresh_run("import metareduce.config, metareduce.grid, "
                         "metareduce.kernel" + LOADED) == str(sorted(
            ["metareduce"] + [f"metareduce.{m}" for m in (
                "config", "dynamics", "errors", "grid", "kernel", "maps")]))

    def test_each_name_is_its_modules_object(self):
        assert len(metareduce.__all__) == 44
        assert fresh_run("""
import importlib, metareduce
bad = [name for name in metareduce.__all__
       if name in vars(metareduce) or name not in dir(metareduce)]
for name in metareduce.__all__:
    value = getattr(metareduce, name)
    module = importlib.import_module(value.__module__)
    if getattr(module, name) is not value or vars(metareduce)[name] is not value:
        bad.append(name)
print(bad)""") == "[]"

    def test_star_import_binds_every_name(self):
        assert fresh_run("""
import metareduce
ns = {}
exec("from metareduce import *", ns)
print(sorted(set(ns) - {"__builtins__"}) == sorted(metareduce.__all__))
""") == "True"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            metareduce.no_such_name
        assert "no_such_name" not in dir(metareduce)


def scipy_loaded_after(code):
    """Sorted names of the scipy modules in ``sys.modules`` once ``code`` has
    run in a fresh interpreter."""
    return fresh_run(code + "\nimport sys; print(sorted(m for m in "
                     "sys.modules if m.startswith('scipy')))")


class TestColdStartWithoutScipy:
    """scipy.linalg is imported inside the three dense solves and the sparse
    solvers inside their callers, so set-up and the numpy-only commands
    never load scipy."""

    def test_import(self):
        assert scipy_loaded_after("import metareduce, metareduce.cli") == "[]"

    def test_kernel_cache_fill(self, tmp_path):
        path = write_config(tmp_path, grid_nodes=51)
        assert scipy_loaded_after(f"""
from pathlib import Path
import numpy as np
from metareduce.config import load_config
from metareduce.grid import Grid
from metareduce.kernel import discretize_kernel, save_kernel
cfg = load_config({str(path)!r})
grid = Grid.from_box(np.asarray(cfg.box, float), cfg.grid_nodes)
model = cfg.build_model(cfg.sigmas[0])
kernel = discretize_kernel(model, grid)
save_kernel(Path(cfg.cache_dir), model, grid, kernel)
""") == "[]"
        assert any((tmp_path / "cache").iterdir())

    @pytest.mark.parametrize("command", ["analyze", "simulate", "spectrum"])
    def test_command(self, tmp_path, command):
        path = write_config(tmp_path, mc={"committor_runs": 500,
                                          "trace_runs": 0, "sim_steps": 2000})
        assert scipy_loaded_after(
            "from metareduce.cli import main\n"
            f"assert main([{command!r}, '--config', {str(path)!r}]) == 0"
        ) == "[]"
