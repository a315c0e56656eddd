"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import math
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from wcontrast import cli, harness, limitlaw  # noqa: E402
from wcontrast.errors import ValidationError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: bool, workload: str = "mc-replicate") -> dict:
    return bench.run(workload, seed=3, seconds=0, trace=trace, tiny=True,
                     log=lambda *_: None)


def test_spec_names_the_workloads_the_bench_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    original = limitlaw.build_bridge_grid
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 + 3      # three studies, three determinism ops
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert limitlaw.build_bridge_grid is original   # tracing wrappers removed
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC[section])


@pytest.mark.parametrize("workload", ["infer-structured", "infer-copula"])
def test_inference_workloads_pass_and_copula_shows_only_on_copula(workload):
    result = _run(True, workload)
    calls = len(bench.workload_calls(workload, tiny=True))
    assert (result["correct"], result["attempted"]) == (True, 2 * calls)
    evals = result["metrics"]["distributions.copula.evals"]["value"]
    assert (evals > 0) == (workload == "infer-copula")
    assert result["metrics"]["limitlaw.paths.count"]["value"] > 0


def test_wrong_output_counts_as_failed_op(monkeypatch):
    monkeypatch.setattr(harness, "ks_2samp", lambda a, b: SimpleNamespace(statistic=0.99))
    result = _run(False)
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (3, 6)


def test_nonzero_exit_counts_as_failed_op(monkeypatch):
    def broken(*args, **kwargs):
        raise ValidationError("injected")
    monkeypatch.setattr(cli, "load_config", broken)
    result = _run(False)
    assert (result["correct"], result["failed"]) == (False, 3)


def test_determinism_comparison_flags_a_difference():
    from determinism import compare_outputs
    root = bench.WORK_ROOT / "selftest-compare"
    shutil.rmtree(root, ignore_errors=True)
    a, b = root / "a", root / "b"
    for d, runtime, value in ((a, 1.0, "1.5"), (b, 2.0, "1.5")):
        d.mkdir(parents=True)
        (d / "study.json").write_text(json.dumps({"runtime_seconds": runtime, "ks": 0.1}))
        (d / "draws.csv").write_text(value)
    assert compare_outputs(a, b) is None       # timing fields are ignored
    (b / "draws.csv").write_text("1.6")
    assert compare_outputs(a, b) is not None
    shutil.rmtree(root)
