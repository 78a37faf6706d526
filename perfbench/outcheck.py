"""Output check: compare one CLI invocation's files with stored references.

References were made once with seed 20250809 (see make_reference.py).  A
check returns a list of problems; an empty list means the outputs are right.

- Exact quantities (P, P*, eigenvalues, H, H0, QSD lambda0 and every other
  deterministic number) must agree within ``ATOL + RTOL * |reference|``.
- Seeded Monte Carlo estimates must stay within ``MC_BAND_SE`` standard
  errors of the reference, so a run with another seed or another random
  stream layout still passes.
- A ``validate`` check that does not use Monte Carlo and passed at the
  reference must still pass.  The two Monte Carlo checks are verdicts of
  3-standard-error tests: their pass/fail flips with the seed, so their
  estimates are checked against bands instead.  ``committor_ldp`` fails at
  the reference; that is recorded there, not counted as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-10
MC_BAND_SE = 6.0
ENTRY_BAND_REL = 0.25       # per-ball entry counts of the simulated path
MC_CHECKS = ("committor_ldp", "reduction_monte_carlo")


def _close(ref, out):
    return ref == out or abs(out - ref) <= ATOL + RTOL * abs(ref)


def compare_exact(ref, out, where, problems):
    """Append a problem for every leaf of ``out`` that differs from ``ref``."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(ref) != set(out):
            problems.append(f"{where}: keys differ")
            return
        for key in ref:
            compare_exact(ref[key], out[key], f"{where}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(ref) != len(out):
            problems.append(f"{where}: length differs")
            return
        for k, (a, b) in enumerate(zip(ref, out)):
            compare_exact(a, b, f"{where}[{k}]", problems)
    elif isinstance(ref, float) and isinstance(out, (int, float)) \
            and not isinstance(out, bool):
        if not _close(ref, out):
            problems.append(f"{where}: {out!r} != reference {ref!r}")
    elif type(ref) is not type(out) or ref != out:
        problems.append(f"{where}: {out!r} != reference {ref!r}")


def _binomial_se(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _in_band(ref_p, out_p, n_ref, n_out):
    se = math.hypot(_binomial_se(ref_p, n_ref), _binomial_se(out_p, n_out))
    return abs(out_p - ref_p) <= MC_BAND_SE * max(se, 1.0 / n_out)


def _load(path):
    return json.loads(Path(path).read_text())


def _file_set(ref_dir, out_dir, skip=()):
    ref = {p.name for p in Path(ref_dir).iterdir() if p.name not in skip}
    out = {p.name for p in Path(out_dir).iterdir()}
    return ref, out


# --- validate -----------------------------------------------------------------

def check_validate(ref_dir, out_dir, config):
    problems = []
    ref_names, out_names = _file_set(ref_dir, out_dir)
    if ref_names != out_names:
        return [f"output files {sorted(out_names)} != {sorted(ref_names)}"]
    for name in sorted(ref_names):
        ref, out = _load(Path(ref_dir) / name), _load(Path(out_dir) / name)
        compare_exact(ref["sigma"], out["sigma"], f"{name}.sigma", problems)
        ref_checks = {c["name"]: c for c in ref["checks"]}
        out_checks = {c["name"]: c for c in out["checks"]}
        if list(ref_checks) != list(out_checks):
            problems.append(f"{name}: check names differ")
            continue
        for cname, rc in ref_checks.items():
            oc = out_checks[cname]
            where = f"{name}:{cname}"
            compare_exact(rc["skipped"], oc["skipped"], f"{where}.skipped",
                          problems)
            if cname == "committor_ldp":
                _check_committor_ldp(rc["detail"], oc["detail"], config,
                                     ref["sigma"], where, problems)
            elif cname == "reduction_monte_carlo":
                se_max = 0.5 / math.sqrt(config["mc"]["trace_runs"])
                excess = oc["detail"]["max_excess"]
                if not excess <= (MC_BAND_SE - 3.0) * se_max:
                    problems.append(f"{where}: max_excess {excess} leaves "
                                    f"the {MC_BAND_SE}-standard-error band")
            else:
                if rc["passed"] and not oc["passed"]:
                    problems.append(f"{where}: passed at the reference, "
                                    "fails now")
                compare_exact(rc["detail"], oc["detail"], f"{where}.detail",
                              problems)
    return problems


def _check_committor_ldp(ref, out, config, sigma, where, problems):
    n = config["mc"]["committor_runs"]
    for key in ("H12", "tolerance"):
        compare_exact(ref[key], out[key], f"{where}.{key}", problems)
    p = out["p_hat"]
    if not _in_band(ref["p_hat"], p, n, n):
        problems.append(f"{where}: p_hat {p} outside the band around "
                        f"reference {ref['p_hat']}")
        return
    compare_exact(sigma ** 2 * math.log(p), out["sigma2_log_p"],
                  f"{where}.sigma2_log_p", problems)
    compare_exact(abs(out["sigma2_log_p"] + out["H12"]), out["deviation"],
                  f"{where}.deviation", problems)


# --- reduce -------------------------------------------------------------------

def check_reduce(ref_dir, out_dir, config):
    problems = []
    ref_names, out_names = _file_set(ref_dir, out_dir)
    if ref_names != out_names:
        return [f"output files {sorted(out_names)} != {sorted(ref_names)}"]
    for name in sorted(ref_names):
        ref, out = _load(Path(ref_dir) / name), _load(Path(out_dir) / name)
        # the config hash covers the seed, which the benchmark varies
        ref.pop("config_hash", None)
        if out.pop("config_hash", None) is None:
            problems.append(f"{name}: no config_hash")
        compare_exact(ref, out, name, problems)
    return problems


# --- simulate -----------------------------------------------------------------

EVENTS_SUMMARY = "events_summary.json"


def summarize_events(path, n_steps, centers, radii):
    """Replay an events file; return per-ball entry counts and problems.

    The path starts at the centre of ball 0, so the events must form a walk
    that leaves ball 0 first, alternates exits and entries consistently, and
    enters a ball only at a position inside it.
    """
    problems = []
    entries = [0] * len(centers)
    current, last_step = 0, 0
    lines = Path(path).read_text().splitlines()
    for k, line in enumerate(lines):
        ev = json.loads(line)
        step, ball, kind = ev["step"], ev["ball"], ev["kind"]
        if not (last_step <= step <= n_steps) or not 0 <= ball < len(centers):
            problems.append(f"event {k}: step or ball out of range")
            break
        last_step = step
        if kind == -1 and ball == current:
            current = -1
        elif kind == 1 and current == -1:
            d2 = sum((x - c) ** 2 for x, c in zip(ev["position"], centers[ball]))
            if d2 > radii[ball] ** 2 * (1.0 + 1e-12):
                problems.append(f"event {k}: entry position outside ball")
                break
            current = ball
            entries[ball] += 1
        else:
            problems.append(f"event {k}: inconsistent with the walk so far")
            break
    return {"n_events": len(lines), "entries": entries}, problems


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_simulate(ref_dir, out_dir, config):
    problems = []
    ref_names, out_names = _file_set(ref_dir, out_dir, skip=(EVENTS_SUMMARY,))
    if ref_names != {n for n in out_names if not n.startswith("events_")}:
        return [f"output files {sorted(out_names)} differ from the reference"]
    ref_rows = _read_rows(Path(ref_dir) / "results.csv")
    out_rows = _read_rows(Path(out_dir) / "results.csv")
    if [r["quantity"] for r in ref_rows] != [r["quantity"] for r in out_rows]:
        return ["results.csv: quantities differ"]
    for r, o in zip(ref_rows, out_rows):
        where = f"results.csv:{r['quantity']}"
        if o["sigma"] != r["sigma"] or o["n"] != r["n"] \
                or int(o["seed"]) != config["seed"]:
            problems.append(f"{where}: sigma, n or seed differs")
            continue
        est, se = float(o["estimate"]), float(o["stderr"])
        if r["quantity"].startswith("committor_"):
            n = int(o["n"])
            compare_exact(_binomial_se(est, n), se, f"{where}.stderr",
                          problems)
            if not _in_band(float(r["estimate"]), est, n, n):
                problems.append(f"{where}: estimate {est} outside the band "
                                f"around reference {r['estimate']}")
        else:
            compare_exact(float(r["estimate"]), est, where, problems)
            compare_exact(float(r["stderr"]), se, where, problems)
    summary = _load(Path(ref_dir) / EVENTS_SUMMARY)
    for sigma in summary["per_sigma"]:
        ref = summary["per_sigma"][sigma]
        got, bad = summarize_events(
            Path(out_dir) / f"events_{sigma}.ndjson", config["mc"]["sim_steps"],
            summary["centers"], summary["radii"])
        problems += [f"events_{sigma}: {b}" for b in bad]
        for ball, (a, b) in enumerate(zip(ref["entries"], got["entries"])):
            if abs(b - a) > ENTRY_BAND_REL * a:
                problems.append(f"events_{sigma}: ball {ball} entered {b} "
                                f"times, reference {a}")
    return problems


CHECKS = {
    "validate": check_validate,
    "reduce": check_reduce,
    "simulate": check_simulate,
}
