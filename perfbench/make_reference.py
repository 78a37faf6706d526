"""Regenerate perfbench/reference from the current program.

Run from the repository root: ``python3 perfbench/make_reference.py``.  Each
workload runs once with REFERENCE_SEED on a cold cache; its output files are
stored as they are, except that the simulated path's events file is stored
as a summary (per-ball entry counts and the ball geometry), which is all the
output check reads from it.  Only regenerate when a change of the program's
results is intended, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

from outcheck import EVENTS_SUMMARY, summarize_events
from run import REFERENCE_ROOT, Run
from workloads import REFERENCE_SEED, WORKLOADS


def make_reference(workload, root, ref_dir):
    run = Run(workload, REFERENCE_SEED, root, ref_dir)
    try:
        from metareduce.cli import Pipeline, main
        from metareduce.config import load_config

        code = main([workload.command, "--config", str(run.config_path)])
        if code not in (0, 1):
            raise SystemExit(f"{workload.name}: exit code {code}")
        shutil.rmtree(ref_dir, ignore_errors=True)
        ref_dir.mkdir(parents=True)
        per_sigma = {}
        for path in sorted(run.out_dir.iterdir()):
            if path.name.startswith("events_"):
                sigma = path.name[len("events_"):-len(".ndjson")]
                per_sigma[sigma] = path
            else:
                shutil.copy(path, ref_dir / path.name)
        if per_sigma:
            structure = Pipeline(load_config(run.config_path)).structure
            centers, radii = structure.centers.tolist(), structure.radii.tolist()
            summary = {"centers": centers, "radii": radii, "per_sigma": {}}
            for sigma, path in per_sigma.items():
                got, problems = summarize_events(
                    path, run.config["mc"]["sim_steps"], centers, radii)
                if problems:
                    raise SystemExit(f"{workload.name}: {problems}")
                summary["per_sigma"][sigma] = got
            (ref_dir / EVENTS_SUMMARY).write_text(
                json.dumps(summary, sort_keys=True, indent=1) + "\n")
    finally:
        run.close()


if __name__ == "__main__":
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    for w in WORKLOADS.values():
        make_reference(w, root, REFERENCE_ROOT / w.name)
        print(f"{w.name}: {sorted(p.name for p in (REFERENCE_ROOT / w.name).iterdir())}")
