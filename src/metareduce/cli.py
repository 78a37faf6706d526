"""Command line driver: analyze | spectrum | qsd | quasipotential | reduce
| simulate | validate.

Every command is a pure function of (config, cache): reruns produce
byte-identical outputs, whether or not earlier runs cached the kernels, traces
on M, H tables and Monte Carlo normals (see ``kernel``).  Exit codes: 0 pass,
1 check failure, 2 config error or a file that cannot be read or written
("io"), 3 numeric error; errors are mirrored as one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .dynamics import (DriftViolated, build_metastable_structure,
                       check_lyapunov_drift, find_fixed_points)
from .errors import ConfigError, NumericError, SimulationTimeout, ZeroHits
from .grid import Grid
from .kernel import (KernelMatrix, discretize_kernel, kernel_metadata,
                     load_entry, load_kernel, save_entry, save_kernel,
                     trace_kernel)
from .montecarlo import (Normals, empirical_diluted_trace,
                         estimate_committor, simulate_chain)
from .quasipotential import (compute_h_matrix, refinement_check,
                             table_from_costs)
from .reduction import (build_reduced_chain, default_theta,
                        diluted_marginal_deviation, reduced_chain_marginals,
                        solve_all_qsds)
from .spectral import (check_uniform_positivity, checked_pairs,
                       eigendecompose, eigenvalues, positivity_cap,
                       verify_spectral_gap)

RHO_THRESHOLD = 0.9
UPC_TARGET = 1.9
GAP_REL_TOL = 0.20
COMMITTOR_ETA_FACTOR = 0.15
QSD_LAW_RTOL = 1e-8
REDUC_ABS_TOL = 1e-2
REDUC_N_MAX = 50
CLUSTER_ULPS = 8        # a gap this many eps ||K|| wide is rounding
EVENT_BLOCK = 1024      # simulate events formatted per block


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _sig_tag(sigma):
    return repr(float(sigma))


class Pipeline:
    """Shared per-config state, lazily built and cached in memory.  What no
    seed, theta or MC budget enters (the kernel's top eigenvalues, the trace
    on M, its top eigenpairs, the QSDs, the H table and its refinement) is
    loaded from the derived cache or built and saved there, and only when
    a command reads it."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = Grid.from_box(np.asarray(cfg.box, float), cfg.grid_nodes)
        self.cache_dir = Path(os.environ.get("METAREDUCE_CACHE",
                                             cfg.cache_dir))
        self.out_dir = Path(cfg.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._models = {}

    def model(self, sigma):
        if sigma not in self._models:
            m = self.cfg.build_model(sigma)
            if not self._models:        # the map checks do not read sigma
                m.validate()
            self._models[sigma] = m
        return self._models[sigma]

    @functools.cached_property
    def fixed_points(self):
        return find_fixed_points(self.model(self.cfg.sigmas[0]))

    @functools.cached_property
    def structure(self):
        return build_metastable_structure(
            self.model(self.cfg.sigmas[0]), self.fixed_points, self.cfg.delta)

    @functools.cached_property
    def membership(self):
        return self.grid.membership(self.structure)

    def kernel(self, sigma):
        """K, read only to build a missing derived entry or the spectrum."""
        model = self.model(sigma)
        k = load_kernel(self.cache_dir, model, self.grid)
        if k is None:
            k = discretize_kernel(model, self.grid)
            save_kernel(self.cache_dir, model, self.grid, k)
        return k

    def _derived(self, kind, meta, size, build, flat, read):
        """Entry ``kind`` of ``meta``: ``read`` of its floats, unless that
        fails a built value's checks (NumericError); else ``build()``, saved."""
        data = load_entry(self.cache_dir, kind, meta, size)
        if data is not None:
            with contextlib.suppress(NumericError):
                return read(data)
        value = build()
        save_entry(self.cache_dir, kind, meta, flat(value))
        return value

    def _meta(self, sigma, **keys):
        return dict(kernel_metadata(self.model(sigma), self.grid), **keys)

    def top_eigenvalues(self, sigma, k):
        return self._derived(
            "spectrum", self._meta(sigma, k=k), 2 * k,
            lambda: eigenvalues(self.kernel(sigma), k=k),
            lambda lam: [lam.view(float)], lambda data: data.view(complex))

    def trace_on_m(self, sigma):
        _, m_set, _ = self.membership
        return self._derived(
            "trace", self._meta(sigma, m_set=m_set.tolist()), m_set.size ** 2,
            lambda: trace_kernel(self.kernel(sigma), m_set),
            lambda trace: [trace.matrix], lambda data: KernelMatrix(
                data.reshape(m_set.size, -1), "stochastic", m_set))

    def decomposition(self, sigma, trace):
        balls, n, m = self.membership[0], self.structure.n_balls, trace.size
        cut = np.cumsum([min(n + 1, m), m * n, m * n])    # values, R, L
        return self._derived(
            "eigen", self._meta(sigma, balls=[b.tolist() for b in balls]),
            2 * cut[-1], lambda: eigendecompose(trace, n_modes=n),
            lambda d: [a.ravel().view(float)
                       for a in (d.eigenvalues, d.right, d.left)],
            lambda data: checked_pairs(trace, *np.split(data.view(complex),
                                                        cut[:-1])))

    def qsds(self, sigma, trace):
        balls, _, _ = self.membership
        cut = np.cumsum([b.size for b in balls])    # QSDs, next moduli
        return self._derived(
            "qsd", self._meta(sigma, balls=[b.tolist() for b in balls]),
            cut[-1] + len(balls), lambda: solve_all_qsds(trace, balls),
            lambda sols: [*(s.qsd for s in sols),
                          [s.next_modulus for s in sols]],
            lambda data: solve_all_qsds(trace, balls, zip(
                np.split(data, cut), data[cut[-1]:])))

    @functools.cached_property
    def _table_meta(self):
        s = self.structure
        meta = kernel_metadata(self.model(self.cfg.sigmas[0]), self.grid)
        del meta["sigma"]
        return dict(meta, r_hop=self.cfg.r_hop, centers=s.centers.tolist(),
                    radii=s.radii.tolist())

    @functools.cached_property
    def table(self):
        b = self.structure.n_balls
        return self._derived(       # V, then H
            "table", self._table_meta, b * (self.grid.n_nodes + b),
            lambda: compute_h_matrix(self.model(self.cfg.sigmas[0]),
                                     self.grid, self.structure, self.cfg.r_hop),
            lambda t: [t.v_surfaces, t.h_matrix],
            lambda data: table_from_costs(data[:-b * b].reshape(b, -1),
                                          data[-b * b:].reshape(b, b),
                                          self.cfg.r_hop))

    @functools.cached_property
    def refinement(self):
        """The largest relative change of H, which is sigma-free, from the
        grid to its twofold refinement; ``validate`` reads the tolerance."""
        return self._derived(
            "refinement", self._table_meta, 1,
            lambda: refinement_check(
                self.model(self.cfg.sigmas[0]), self.grid, self.structure,
                self.cfg.r_hop, coarse=self.table),
            lambda rel: [rel], lambda data: float(data[0]))

    def theta(self, sigma):
        if self.cfg.theta == "auto":
            return default_theta(self.table.h0, sigma)
        return float(self.cfg.theta)

    def reduction(self, sigma):
        """Trace on M, its reduced chain and the projectors: Pi0 from the
        top N eigenpairs (one dense solve, binormalized as one block), P
        from (Id - eps)^{-1} QSD K0^m psi."""
        trace = self.trace_on_m(sigma)
        return (trace, *build_reduced_chain(
            trace, self.decomposition(sigma, trace), self.qsds(sigma, trace),
            sigma, self.theta(sigma), h0=self.table.h0))


# --- commands ----------------------------------------------------------------

def cmd_analyze(pipe: Pipeline):
    records = [{
        "location": list(map(float, np.atleast_1d(r.location))),
        "spectral_radius": r.spectral_radius,
        "stability": r.stability,
        "index": r.index,
    } for r in pipe.fixed_points]
    n_stable = sum(1 for r in pipe.fixed_points if r.is_stable)
    drift = {}
    ok = True
    for sigma in pipe.cfg.sigmas:
        try:
            rep = check_lyapunov_drift(pipe.model(sigma))
            drift[_sig_tag(sigma)] = {
                "max_drift": rep.max_drift, "epsilon": rep.epsilon,
                "n_samples": rep.n_samples,
                "contraction_ok": rep.contraction_ok, "passed": True}
        except DriftViolated as exc:
            ok = False
            drift[_sig_tag(sigma)] = {
                "passed": False, "drift": exc.drift,
                "sample": list(map(float, np.atleast_1d(exc.sample)))}
    doc = {
        "config_hash": pipe.cfg.config_hash,
        "fixed_points": records,
        "n_stable": n_stable,
        "flag_single_well": n_stable == 1,
        "balls": {
            "centers": pipe.structure.centers.tolist(),
            "radii": pipe.structure.radii.tolist(),
            "requested_delta": pipe.structure.requested_delta,
        },
        "drift": drift,
    }
    write_json(pipe.out_dir / "analyze.json", doc)
    return 0 if ok else 1


def cmd_spectrum(pipe: Pipeline):
    all_pass = True
    n = pipe.structure.n_balls
    for sigma in pipe.cfg.sigmas:
        lams = eigenvalues(pipe.kernel(sigma))
        rows = [(k, lam.real, lam.imag, abs(lam), abs(lam - 1.0))
                for k, lam in enumerate(lams)]
        write_csv(pipe.out_dir / f"spectrum_{_sig_tag(sigma)}.csv",
                  ("mode", "re", "im", "modulus", "dist_to_one"), rows)
        rep = verify_spectral_gap(lams, n, RHO_THRESHOLD)
        write_json(pipe.out_dir / f"gap_{_sig_tag(sigma)}.json", {
            "sigma": sigma, "n_expected": n,    # and every field of rep
            **{k: np.asarray(v).tolist() for k, v in vars(rep).items()}})
        all_pass &= rep.passed
    return 0 if all_pass else 1


def cmd_qsd(pipe: Pipeline):
    pts = pipe.grid.points()
    for sigma in pipe.cfg.sigmas:
        summary = []
        for i, sol in enumerate(pipe.qsds(sigma, pipe.trace_on_m(sigma))):
            rows = [(int(gi), *map(float, pts[gi]), float(wi))
                    for gi, wi in zip(sol.domain, sol.qsd)]
            coords = [f"x{k}" for k in range(pipe.cfg.dim)]
            write_csv(pipe.out_dir / f"qsd_{_sig_tag(sigma)}_ball{i}.csv",
                      ("node_index", *coords, "weight"), rows)
            summary.append({
                "ball": i, "lambda0": sol.lambda0,
                "next_modulus": sol.next_modulus,
                "gap_ratio": sol.gap_ratio,
                "mean_killing_time": sol.mean_killing_time,
            })
        write_json(pipe.out_dir / f"qsd_{_sig_tag(sigma)}.json",
                   {"sigma": sigma, "balls": summary})
    return 0


def cmd_quasipotential(pipe: Pipeline):
    table = pipe.table
    pts = pipe.grid.points()
    coords = [f"x{k}" for k in range(pipe.cfg.dim)]
    for i in range(table.n_balls):
        rows = [(*map(float, pts[k]), float(table.v_surfaces[i, k]))
                for k in range(pipe.grid.n_nodes)]
        write_csv(pipe.out_dir / f"v_surface_ball{i}.csv",
                  (*coords, "V"), rows)
    paths = {f"{i}->{j}": [list(g) for g in gs]
             for (i, j), gs in table.optimal_paths.items()}
    write_json(pipe.out_dir / "h_matrix.json", {
        "H": table.h_matrix.tolist(),
        "H0": (table.h0 if np.isfinite(table.h0) else "inf"),
        "H0_hat": (table.h0_hat if np.isfinite(table.h0_hat) else "inf"),
        "optimal_paths": paths,
        "longest_optimal": table.longest_optimal.tolist(),
        "r_hop": table.r_hop,
        "note": ("single-well model: no off-diagonal entries"
                 if table.n_balls == 1 else ""),
    })
    return 0


def cmd_reduce(pipe: Pipeline):
    for sigma in pipe.cfg.sigmas:
        _, model, _ = pipe.reduction(sigma)
        doc = model.to_dict()
        doc["sigma"] = sigma
        doc["config_hash"] = pipe.cfg.config_hash
        write_json(pipe.out_dir / f"reduced_{_sig_tag(sigma)}.json", doc)
    return 0


def _event_blocks(trace):
    """Yield the events file (see cmd_simulate) EVENT_BLOCK lines at a time,
    each one join of pieces: "".join frees them before the text is encoded."""
    heads = np.array([f'{{"ball": {b}, "kind": {k}, "position": ['
                      for b in range(trace.event_balls.max(initial=0) + 1)
                      for k in (-1, 1)], dtype=object)
    n, d = trace.event_positions.shape
    parts = np.empty((EVENT_BLOCK, 2 * d + 3), dtype=object)
    parts[:, 2:2 * d:2] = ", "
    parts[:, [2 * d, -1]] = '], "step": ', "}\n"
    for at in range(0, n, EVENT_BLOCK):
        ev, m = slice(at, at + EVENT_BLOCK), min(n - at, EVENT_BLOCK)
        parts[:m, 0] = heads[2 * trace.event_balls[ev]
                             + (trace.event_kinds[ev] > 0)]
        parts[:m, 1:2 * d:2].flat = list(map(
            repr, trace.event_positions[ev].ravel().tolist()))
        parts[:m, -2] = list(map(str, trace.event_steps[ev].tolist()))
        yield "".join(parts[:m].ravel().tolist())


def cmd_simulate(pipe: Pipeline):
    """Write results.csv and, if mc.sim_steps > 0, events_<sigma>.ndjson,
    one JSON object a line, keys sorted, per ball entry or exit of the path:
    "ball", "kind" (+1 an entry, -1 an exit; at one step an exit comes
    first), "position" (each coordinate as Python's repr, json's form of a
    finite float; a runaway raises) and "step".  No events, an empty file."""
    cfg = pipe.cfg
    structure = pipe.structure
    rows, tape = [], Normals(cfg.seed)     # no kernel read: no cached tape
    for sigma in cfg.sigmas:
        model = pipe.model(sigma)
        if cfg.mc["sim_steps"] > 0:
            trace = simulate_chain(model, structure, structure.centers[0],
                                   cfg.mc["sim_steps"], cfg.seed)
            (pipe.out_dir / f"events_{_sig_tag(sigma)}.ndjson").write_text(
                "".join(_event_blocks(trace)))
            rows.append(("balls_visited", sigma,
                         float(len(trace.balls_visited)), 0.0,
                         cfg.mc["sim_steps"], cfg.seed))
        if cfg.mc["committor_runs"] > 0 and structure.n_balls > 1:
            pairs = list(itertools.permutations(range(structure.n_balls), 2))
            ests = estimate_committor(
                model, structure, pairs, cfg.mc["committor_runs"],
                tape, workers=cfg.workers, step_cap=cfg.mc["step_cap"])
            rows += [(f"committor_{i}_to_{j}", sigma, est.estimate,
                      est.stderr, est.n_samples, cfg.seed)
                     for (i, j), est in zip(pairs, ests)]
    write_csv(pipe.out_dir / "results.csv",
              ("quantity", "sigma", "estimate", "stderr", "n", "seed"), rows)
    return 0


def cmd_validate(pipe: Pipeline):
    cfg = pipe.cfg
    table = pipe.table
    n = pipe.structure.n_balls
    overall, tape = True, Normals(cfg.seed, pipe.cache_dir)
    for sigma in cfg.sigmas:
        checks = []

        def add(name, passed, detail, skipped=False):
            checks.append({"name": name, "passed": bool(passed),
                           "skipped": bool(skipped), "detail": detail})

        gap = verify_spectral_gap(pipe.top_eigenvalues(sigma, n + 1), n,
                                  RHO_THRESHOLD)
        add("spectral_gap", gap.passed, {
            "leading_moduli": gap.leading_moduli.tolist(),
            "next_modulus": gap.next_modulus})

        trace, model_r, projectors = pipe.reduction(sigma)
        lam = model_r.eigenvalues
        split = float(abs(lam[0] - lam[1]))
        floor = float(CLUSTER_ULPS * np.finfo(float).eps
                      * np.abs(trace.matrix).sum(axis=1).max())
        if split <= floor:  # lambda0 and lambda1 are one cluster: no log
            add("eyring_kramers_log_asymptotics", False, {
                "gap": split, "floor": floor, "reason": "lambda0 - lambda1 "
                "is within rounding of the trace: the gap is unresolved"})
        else:
            log_asym = sigma ** 2 * np.log(1.0 - lam[1].real)
            rel = abs(log_asym + table.h0) / table.h0
            add("eyring_kramers_log_asymptotics", rel <= GAP_REL_TOL,
                {"sigma2_log_gap": float(log_asym), "H0": table.h0,
                 "relative_error": float(rel)})

        qsd_ok, qsd_detail = _qsd_law_check(model_r.qsds[0])
        add("qsd_geometric_law", qsd_ok, qsd_detail)

        upc_ok = True
        upc_detail = []
        for i, sol in enumerate(model_r.qsds):
            res = check_uniform_positivity(sol.killed, UPC_TARGET,
                                           n_cap=positivity_cap(sigma))
            upc_ok &= res.achieved
            upc_detail.append({"ball": i, "n0": res.n0,
                               "ratio": res.achieved_ratio,
                               "achieved": res.achieved})
        add("uniform_positivity", upc_ok, upc_detail)

        basis_ok = (np.abs(projectors.mu @ projectors.psi.T - np.eye(n)).max()
                    <= 1e-8
                    and np.abs(projectors.mu @ projectors.indicators.T
                               - np.eye(n)).max() <= 1e-8
                    and np.abs(projectors.psi.sum(axis=0) - 1.0).max() <= 1e-8
                    and np.abs(projectors.eps).max() <= 1e-3)
        add("basis_identities", basis_ok,
            {"max_eps": float(np.abs(projectors.eps).max())})

        start_local = trace.local_indices(
            np.array([pipe.grid.nearest_index(pipe.structure.centers[0])]))[0]
        devs = diluted_marginal_deviation(model_r.km, projectors, model_r.p,
                                          start_local, REDUC_N_MAX)
        add("reduction_exact_matrix", devs.max() <= REDUC_ABS_TOL,
            {"max_deviation": float(devs.max()), "m": model_r.m,
             "theta": model_r.theta})

        change = pipe.refinement
        add("grid_refinement_stability", True, {
            "warning": not change <= cfg.tol_refine,
            "max_relative_change": change, "tolerance": cfg.tol_refine})

        if cfg.mc["committor_runs"] > 0 and n > 1:
            try:
                est, = estimate_committor(
                    pipe.model(sigma), pipe.structure, [(0, 1)],
                    cfg.mc["committor_runs"], tape,
                    workers=cfg.workers, step_cap=cfg.mc["step_cap"])
            except (ZeroHits, SimulationTimeout) as exc:
                add("committor_ldp", True, {"reason": str(exc)}, skipped=True)
            else:
                dev = abs(est.log_scale + table.h_matrix[0, 1])
                tol = COMMITTOR_ETA_FACTOR * table.h0
                add("committor_ldp", dev <= tol,
                    {"p_hat": est.estimate, "sigma2_log_p": est.log_scale,
                     "H12": float(table.h_matrix[0, 1]),
                     "deviation": float(dev), "tolerance": float(tol)})
        else:
            add("committor_ldp", True, {"reason": "zero MC budget"},
                skipped=True)

        if cfg.mc["trace_runs"] > 0 and n > 1:
            runs = cfg.mc["trace_runs"]
            try:
                freqs, _ = empirical_diluted_trace(
                    pipe.model(sigma), pipe.structure, 0, model_r.m,
                    cfg.mc["trace_blocks"], runs, tape,
                    workers=cfg.workers, step_cap=cfg.mc["step_cap"])
            except SimulationTimeout as exc:
                add("reduction_monte_carlo", True, {"reason": str(exc)},
                    skipped=True)
            else:
                marg = reduced_chain_marginals(model_r.p, 0,
                                               cfg.mc["trace_blocks"]).T
                # the law's own standard error, not the count's, which is 0
                # where no run was seen; |1 - p| as p may round past 1
                se = np.sqrt(marg * np.abs(1.0 - marg) / runs)
                bound = 3.0 * se + devs.max()
                mc_ok = bool((np.abs(freqs - marg) <= bound).all())
                add("reduction_monte_carlo", mc_ok, {
                    "max_excess": float((np.abs(freqs - marg) - bound).max())})
        else:
            add("reduction_monte_carlo", True, {"reason": "zero MC budget"},
                skipped=True)

        passed = all(c["passed"] for c in checks if not c["skipped"])
        overall &= passed
        write_json(pipe.out_dir / f"validate_{_sig_tag(sigma)}.json", {
            "sigma": sigma, "passed": passed, "checks": checks,
            "config_hash": cfg.config_hash})
    tape.save()
    return 0 if overall else 1


def _qsd_law_check(sol):
    """Killing probabilities of steps 1 to 10 against the geometric law."""
    v = sol.qsd.copy()
    worst = 0.0
    for step in range(1, 11):
        prob = float(v @ sol.escape_rows)
        expect = sol.lambda0 ** (step - 1) * sol.escape
        worst = max(worst, abs(prob / expect - 1.0))
        v = v @ sol.killed.matrix
    return worst <= QSD_LAW_RTOL, {"max_relative_dev": worst,
                                   "lambda0": sol.lambda0}


COMMANDS = {
    "analyze": cmd_analyze,
    "spectrum": cmd_spectrum,
    "qsd": cmd_qsd,
    "quasipotential": cmd_quasipotential,
    "reduce": cmd_reduce,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metareduce",
        description="Reduce a metastable perturbed iterated map to a finite "
                    "Markov chain.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--workers", type=int, default=None,
                        help="Monte Carlo stream layout: blocks of runs, one "
                             "stream each, all stepped in one process")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, workers=args.workers, seed=args.seed,
                          out_dir=args.out)
        return COMMANDS[args.command](Pipeline(cfg))
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except OSError as exc:
        _emit_error("io", exc)
        return 2
    except NumericError as exc:
        _emit_error("numeric", exc)
        return 3


def _emit_error(kind, exc):
    sys.stderr.write(json.dumps(
        {"error": kind, "type": type(exc).__name__, "message": str(exc)},
        sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
