"""Self-test of the benchmark on a tiny 1D reduce workload (101 nodes).

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from make_reference import make_reference  # noqa: E402
from outcheck import check_reduce  # noqa: E402
from run import measure  # noqa: E402
from workloads import REFERENCE_SEED, Workload  # noqa: E402

TINY = Workload("tiny1d-reduce", "reduce", {
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
}, fills_cache=True)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    ref_dir = tmp_path_factory.mktemp("reference") / TINY.name
    make_reference(TINY, ROOT, ref_dir)
    return ref_dir


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(reference, trace,
                                                        section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record, result = measure(TINY, REFERENCE_SEED + 1, 0, trace, ROOT,
                             reference)
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}
    assert all(isinstance(m["value"], float)
               for m in result["metrics"].values())


def test_output_check_rejects_a_perturbed_p(reference, tmp_path):
    out_dir = tmp_path / "out"
    shutil.copytree(reference, out_dir)
    assert check_reduce(reference, out_dir, {}) == []
    path = next(out_dir.glob("reduced_*.json"))
    doc = json.loads(path.read_text())
    doc["P"][0][1] += 1e-6
    path.write_text(json.dumps(doc))
    problems = check_reduce(reference, out_dir, {})
    assert problems and all(".P[0][1]" in p for p in problems)
