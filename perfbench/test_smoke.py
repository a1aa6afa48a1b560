"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced with ``--scale toy`` and asserts
that each run prints every metric ``BENCHMARK.json`` names, with its
unit, that every output check of the workload ran and passed, and that
the traced run measured the layers on the workload's path. Also checks
that the benchmark refuses to run without the program's source and that
``compare.py`` refuses results from different environments.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

#: Output checks each workload must run, untraced and traced.
CHECKS = {
    "scan-plain": (["scan_vs_per_window_reference"],
                   ["recomposed_vs_scan", "recomposed_regions_vs_scan"]),
    "scan-array": (["scan_vs_per_window_reference"],
                   ["recomposed_vs_scan", "recomposed_regions_vs_scan"]),
    "serve-http": (["http_vs_offline"], ["engine_vs_offline"]),
    "train-fit": (["heldout_accuracy_floor"], ["recomposed_fit_weights"]),
}

#: Per-layer metrics each workload's traced run must measure itself.
LAYERS = {
    "scan-plain": [
        "geometry.read_chip_s", "features.raster_s", "features.dct_s",
        "features.grid_s", "features.tiles_unique", "nn.infer_s",
        "nn.infer_windows", "core.merge_s", "core.flagged",
        "scanfarm.dedup_ratio",
    ],
    "serve-http": [
        "nn.infer_single_ms", "serve.client_ms", "serve.engine_ms",
        "serve.wire_ms", "serve.body_bytes", "serve.queue_wait_ms",
        "serve.batch_size_mean", "serve.server_cpu_ms_per_request",
    ],
    "train-fit": [
        "data.prepare_s", "features.extract_s", "features.raster_s",
        "features.dct_s", "nn.forward_ms", "nn.backward_ms",
        "nn.optim_step_ms", "nn.steps", "fit.heldout_accuracy",
    ],
}
LAYERS["scan-array"] = LAYERS["scan-plain"] + ["scanfarm.fingerprint_s"]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--scale", "toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_workload_emits_every_metric(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], completed.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)

    stem = f"{workload}-{SEED}-toy"
    record = json.loads(
        (ROOT / ".perfbench_out" / f"result-{stem}-trace{trace}.json")
        .read_text()
    )
    untraced, traced = CHECKS[workload]
    for check in untraced + (traced if trace else []):
        assert record["checks"].get(check, 0) >= 1, check
    assert record["env"]["nproc"] >= 1
    if trace:
        for name in LAYERS[workload] + ["trace.attributed_frac"]:
            assert name in record["on_path"], name
            assert result["metrics"][name]["value"] > 0, name
        spans = ROOT / ".perfbench_out" / f"spans-{stem}.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert sorted(first) == ["end", "id", "name", "op", "parent", "start"]


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("scan-plain", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _record(tmp_path: Path, name: str, nproc: int, throughput: float):
    record = {
        "workload": "scan-plain", "trace": 0, "correct": True,
        "env": {"nproc": nproc, "cpu_model": "cpu", "blas": "blas",
                "python": "3", "numpy": "2", "scipy": "1"},
        "metrics": {"throughput_per_s": {"value": throughput, "unit": "1/s"}},
    }
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return path


def test_compare_refuses_mismatched_environments(tmp_path):
    import compare

    base = _record(tmp_path, "base.json", 2, 100.0)
    assert compare.main([str(base), str(_record(tmp_path, "ok.json", 2, 99.0))]) == 0
    assert compare.main([str(base), str(_record(tmp_path, "slow.json", 2, 50.0))]) == 1
    assert compare.main([str(base), str(_record(tmp_path, "other.json", 8, 99.0))]) == 2
