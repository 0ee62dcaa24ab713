"""Self-test of the benchmark at a tiny size.

It checks the correctness gate and the metric names and units against
BENCHMARK.json, never absolute times. Run from the repository root:

    python3 -m pytest bench -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def check_result(out, metrics):
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = check_result(run(workload, 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out = run(workload, 1)
    check_result(out, SPEC["per_layer"])
    assert "absent targets: none" in out.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("catalog", 0, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


@pytest.fixture()
def package_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))


def test_gate_counts_failed_verdicts(package_path):
    import workloads
    from gsadmm import diagnostics, engine

    catalog = workloads.Catalog(seed=0, tiny=True)
    catalog.build()
    bundle, config, mats, w0 = catalog.runs[0]
    trace = engine.solve(bundle.problem, config, w0=w0, w_star=bundle.w_star, mats=mats)
    pointwise = diagnostics.pointwise_residual_check(bundle.problem, config, trace)
    nonergodic = diagnostics.nonergodic_check(mats, trace, bundle.w_star)
    assert workloads.certified_failures(bundle, mats, trace, pointwise, nonergodic, None)[0] == []
    broken = dataclasses.replace(nonergodic, monotone_ok=False)
    failures, _ = workloads.certified_failures(bundle, mats, trace, pointwise, broken, None)
    assert failures == [f"{bundle.name}: monotone_ok false"]


def test_gate_counts_missing_atlas_rows(package_path, tmp_path):
    import workloads

    atlas = workloads.Atlas(seed=0, tiny=True, out_dir=tmp_path)
    atlas.build()
    tau_grid = atlas.argv.index("--tau-grid")
    atlas.argv[tau_grid + 3] = "2"  # the sweep writes 6 of the 9 rows the gate expects
    result = atlas.run_pass()
    assert result.attempted == 9 and result.failed >= 3


def test_absent_target_is_reported(package_path):
    from spans import Tracer

    with Tracer(["engine.no_such_function", "engine.solve"]) as tracer:
        pass
    assert tracer.absent == ["engine.no_such_function"]
