"""Command line driver: analyze | spectrum | qsd | quasipotential | reduce
| simulate | validate.

Every command is a pure function of (config, cache): reruns with the same
inputs produce byte-identical outputs.  Exit codes: 0 pass, 1 check failure,
2 config error, 3 numeric error; errors are mirrored as JSON on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .errors import ConfigError, MetareduceError, NumericError
from .grid import Grid
from .kernel import discretize_kernel, load_kernel, save_kernel, trace_kernel
from .montecarlo import (empirical_diluted_trace, estimate_committor,
                         simulate_chain)
from .quasipotential import compute_h_matrix, refinement_check
from .reduction import (build_reduced_chain, default_theta,
                        diluted_marginal_deviation, reduced_chain_marginals,
                        solve_all_qsds)
from .spectral import (check_uniform_positivity, eigendecompose,
                       positivity_cap, verify_spectral_gap)

RHO_THRESHOLD = 0.9
UPC_TARGET = 1.9
GAP_REL_TOL = 0.20
COMMITTOR_ETA_FACTOR = 0.15
QSD_LAW_RTOL = 1e-8
REDUC_ABS_TOL = 1e-2
REDUC_N_MAX = 50


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
    """Shared per-config state, lazily built and cached in memory."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = Grid.from_box(np.asarray(cfg.box, float), cfg.grid_nodes)
        self.cache_dir = Path(os.environ.get("METAREDUCE_CACHE",
                                             cfg.cache_dir))
        self.out_dir = Path(cfg.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._models = {}
        self._kernels = {}

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
        if sigma not in self._kernels:
            model = self.model(sigma)
            cached = load_kernel(self.cache_dir, model, self.grid)
            if cached is None:
                cached = discretize_kernel(model, self.grid)
                save_kernel(self.cache_dir, model, self.grid, cached)
            self._kernels[sigma] = cached
        return self._kernels[sigma]

    def trace_on_m(self, sigma):
        _, m_set, _ = self.membership
        return trace_kernel(self.kernel(sigma), m_set)

    @functools.cached_property
    def table(self):
        return compute_h_matrix(self.model(self.cfg.sigmas[0]), self.grid,
                                self.structure, self.cfg.r_hop)

    @functools.cached_property
    def refinement(self):
        """H on the grid against its twofold refinement; H is sigma-free."""
        return refinement_check(
            self.model(self.cfg.sigmas[0]), self.grid, self.structure,
            self.cfg.r_hop, tol=self.cfg.tol_refine, coarse=self.table)

    def theta(self, sigma):
        if self.cfg.theta == "auto":
            return default_theta(self.table.h0, sigma)
        return float(self.cfg.theta)

    def reduction(self, sigma):
        """Trace on M, reduced chain from its top N + 1 modes, projectors."""
        balls, _, _ = self.membership
        trace = self.trace_on_m(sigma)
        decomp = eigendecompose(trace, n_modes=len(balls) + 1)
        return (trace, *build_reduced_chain(trace, decomp, balls, sigma,
                                            self.theta(sigma),
                                            h0=self.table.h0))


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
        decomp = eigendecompose(pipe.kernel(sigma))
        rows = [(k, lam.real, lam.imag, abs(lam), abs(lam - 1.0))
                for k, lam in enumerate(decomp.eigenvalues)]
        write_csv(pipe.out_dir / f"spectrum_{_sig_tag(sigma)}.csv",
                  ("mode", "re", "im", "modulus", "dist_to_one"), rows)
        rep = verify_spectral_gap(decomp, n, RHO_THRESHOLD)
        write_json(pipe.out_dir / f"gap_{_sig_tag(sigma)}.json", {
            "sigma": sigma,
            "n_expected": n,
            "rho_threshold": rep.rho_threshold,
            "leading_moduli": rep.leading_moduli.tolist(),
            "distances_to_one": rep.distances_to_one.tolist(),
            "next_modulus": rep.next_modulus,
            "gap_radius": rep.gap_radius,
            "n_above_threshold": rep.n_above_threshold,
            "passed": rep.passed,
        })
        all_pass &= rep.passed
    return 0 if all_pass else 1


def cmd_qsd(pipe: Pipeline):
    balls, _, _ = pipe.membership
    pts = pipe.grid.points()
    for sigma in pipe.cfg.sigmas:
        summary = []
        for i, sol in enumerate(solve_all_qsds(pipe.trace_on_m(sigma), balls)):
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


def cmd_simulate(pipe: Pipeline):
    cfg = pipe.cfg
    structure = pipe.structure
    rows = []
    for sigma in cfg.sigmas:
        model = pipe.model(sigma)
        if cfg.mc["sim_steps"] > 0:
            trace = simulate_chain(model, structure, structure.centers[0],
                                   cfg.mc["sim_steps"], cfg.seed)
            # the lines json.dumps(..., sort_keys=True) writes; positions
            # are finite, since a runaway position raises
            lines = [f'{{"ball": {b}, "kind": {k}, "position": '
                     f'[{", ".join(map(repr, p.tolist()))}], "step": {s}}}'
                     for s, b, k, p in zip(trace.event_steps,
                                           trace.event_balls,
                                           trace.event_kinds,
                                           trace.event_positions)]
            (pipe.out_dir / f"events_{_sig_tag(sigma)}.ndjson").write_text(
                "\n".join(lines) + ("\n" if lines else ""))
            rows.append(("balls_visited", sigma,
                         float(len(trace.balls_visited)), 0.0,
                         cfg.mc["sim_steps"], cfg.seed))
        if cfg.mc["committor_runs"] > 0 and structure.n_balls > 1:
            pairs = list(itertools.permutations(range(structure.n_balls), 2))
            ests = estimate_committor(
                model, structure, pairs, cfg.mc["committor_runs"], cfg.seed,
                workers=cfg.workers, step_cap=cfg.mc["step_cap"])
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
    overall = True
    for sigma in cfg.sigmas:
        checks = []

        def add(name, passed, detail, skipped=False):
            checks.append({"name": name, "passed": bool(passed),
                           "skipped": bool(skipped), "detail": detail})

        top = eigendecompose(pipe.kernel(sigma), n_modes=n + 1)
        gap = verify_spectral_gap(top, n, RHO_THRESHOLD)
        add("spectral_gap", gap.passed, {
            "leading_moduli": gap.leading_moduli.tolist(),
            "next_modulus": gap.next_modulus})

        trace, model_r, projectors = pipe.reduction(sigma)
        lam1 = model_r.eigenvalues[1].real
        log_asym = sigma ** 2 * np.log(1.0 - lam1)
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

        ref = pipe.refinement
        add("grid_refinement_stability", True, {
            "warning": not ref.passed,
            "max_relative_change": ref.max_relative_change,
            "tolerance": ref.tolerance})

        if cfg.mc["committor_runs"] > 0 and n > 1:
            est, = estimate_committor(pipe.model(sigma), pipe.structure,
                                      [(0, 1)], cfg.mc["committor_runs"],
                                      cfg.seed, workers=cfg.workers,
                                      step_cap=cfg.mc["step_cap"])
            dev = abs(est.log_scale + table.h_matrix[0, 1])
            tol = COMMITTOR_ETA_FACTOR * table.h0
            add("committor_ldp", dev <= tol,
                {"p_hat": est.estimate, "sigma2_log_p": est.log_scale,
                 "H12": float(table.h_matrix[0, 1]), "deviation": float(dev),
                 "tolerance": float(tol)})
        else:
            add("committor_ldp", True, {"reason": "zero MC budget"},
                skipped=True)

        if cfg.mc["trace_runs"] > 0 and n > 1:
            freqs, ses = empirical_diluted_trace(
                pipe.model(sigma), pipe.structure, 0, model_r.m,
                cfg.mc["trace_blocks"], cfg.mc["trace_runs"], cfg.seed,
                workers=cfg.workers, step_cap=cfg.mc["step_cap"])
            marg = reduced_chain_marginals(model_r.p, 0,
                                           cfg.mc["trace_blocks"]).T
            bound = 3.0 * ses + devs.max()
            mc_ok = bool((np.abs(freqs - marg) <= bound).all())
            add("reduction_monte_carlo", mc_ok,
                {"max_excess": float((np.abs(freqs - marg) - bound).max())})
        else:
            add("reduction_monte_carlo", True, {"reason": "zero MC budget"},
                skipped=True)

        passed = all(c["passed"] for c in checks if not c["skipped"])
        overall &= passed
        write_json(pipe.out_dir / f"validate_{_sig_tag(sigma)}.json", {
            "sigma": sigma, "passed": passed, "checks": checks,
            "config_hash": cfg.config_hash})
    return 0 if overall else 1


def _qsd_law_check(sol, n_max=10, rtol=QSD_LAW_RTOL):
    """Matrix-power killing probabilities against the geometric law."""
    v = sol.qsd.copy()
    worst = 0.0
    for step in range(1, n_max + 1):
        prob = float(v @ sol.escape_rows)
        expect = sol.lambda0 ** (step - 1) * sol.escape
        worst = max(worst, abs(prob / expect - 1.0))
        v = v @ sol.killed.matrix
    return worst <= rtol, {"max_relative_dev": worst, "lambda0": sol.lambda0}


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
        cfg = load_config(args.config)
        if args.workers is not None:
            cfg = dataclasses.replace(cfg, workers=args.workers)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        return COMMANDS[args.command](Pipeline(cfg))
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except NumericError as exc:
        _emit_error("numeric", exc)
        return 3
    except MetareduceError as exc:
        _emit_error("error", exc)
        return 3


def _emit_error(kind, exc):
    sys.stderr.write(json.dumps(
        {"error": kind, "type": type(exc).__name__, "message": str(exc)},
        sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
