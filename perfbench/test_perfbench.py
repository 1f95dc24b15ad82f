"""Self-tests of the benchmark, at a tiny app scale.

    python3 -m pytest perfbench -q

They check that the exact metrics repeat for a seed, that another seed
gives other inputs, that the traced run reproduces the untraced run's
bytes, that the metric names agree with ``BENCHMARK.json``, and that
the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.1
WORKLOADS = tuple(workloads.WORKLOADS)
EXACT = (
    "text_bytes",
    "reduction_pct",
    "runtime_cycles_ratio",
    "ltbo.repeats_outlined",
    "graph.nodes_rebuilt",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = _run(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--scale", str(SCALE),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _exact_metrics(workload: str, seed: int, work_dir: Path) -> dict:
    spec = workloads.WORKLOADS[workload]
    state = spec.setup(seed, SCALE, work_dir)
    try:
        outcome = spec.window(state, 0.0, layers.NullRecorder(), min_builds=0)
    finally:
        spec.close(state)
    spec.verify(state, outcome)
    assert outcome.mismatches == [] and outcome.errors == []
    return {name: outcome.exact.get(name) for name in EXACT}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_exact_metrics(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = _exact_metrics(workload, 5, tmp_path)
    assert first == _exact_metrics(workload, 5, tmp_path)
    assert first["text_bytes"] > 0 and first["ltbo.repeats_outlined"] > 0
    if workload == "incremental_stream":
        assert first["graph.nodes_rebuilt"] > 0


def test_another_seed_gives_other_inputs():
    def fingerprint(app) -> str:
        from repro.dex.serialize import dexfile_to_json

        return json.dumps(dexfile_to_json(app.dexfile), sort_keys=True)

    for name in ("Taobao", "Kuaishou"):
        assert fingerprint(workloads.make_app(name, 1, SCALE)) == fingerprint(
            workloads.make_app(name, 1, SCALE)
        )
        assert fingerprint(workloads.make_app(name, 1, SCALE)) != fingerprint(
            workloads.make_app(name, 2, SCALE)
        )
    apps = [workloads.make_app(name, 1, SCALE) for name in workloads.APP_NAMES]
    combos = [(a, c) for c in (workloads.CONFIG, workloads.MERGE_CONFIG) for a in range(6)]
    plan_a = [(c, e is None) for c, e in workloads._plan(1, 0, apps, combos)]
    plan_b = [(c, e is None) for c, e in workloads._plan(2, 0, apps, combos)]
    assert plan_a == [(c, e is None) for c, e in workloads._plan(1, 0, apps, combos)]
    assert plan_a != plan_b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_untraced_bytes(workload):
    result, detail = _result(workload, 3, trace=1)
    assert result["correct"] and result["failed"] == 0, detail["mismatches"]
    assert set(result["metrics"]) == set(layers.LAYER_METRICS)
    assert detail["spans"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["oat.link_s"] > 0 and metrics["ltbo.select_s"] > 0
    assert 0.0 <= metrics["unattributed_share"] < 1.0
    if workload == "serve_mix":
        assert metrics["service.codec_s"] > 0 and metrics["shard.map_s"] > 0
        assert metrics["merge.merge_s"] > 0
    if workload == "incremental_stream":
        assert metrics["graph.state_io_s"] > 0 and metrics["cache.lookups"] > 0


def test_end_to_end_run_reports_every_metric():
    result, detail = _result("cold_build", 4, trace=0)
    assert result["correct"] and result["attempted"] >= 6
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["latency"]["samples"] == result["attempted"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "cold_build", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
