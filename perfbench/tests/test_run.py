"""The command's guards and how it pools repetitions into metrics."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]


def _invoke(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-loop"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_refuses_a_selected_engine_backend():
    done = _invoke(ROOT, {**os.environ, "REPRO_ENGINE_BACKEND": "reference"})
    assert done.returncode != 0
    assert "REPRO_ENGINE_BACKEND" in done.stderr
    assert done.stdout.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE_BACKEND"}
    env.pop("PYTHONPATH", None)
    done = _invoke(tmp_path, env)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _rep(**overrides):
    rep = {
        "setup_s": 2.0,
        "peak_rss_mb": 100.0,
        "op_s": 4.0,
        "window_s": 4.5,
        "node_steps": 400,
        "requests": 40,
        "attempted": 10,
        "failed": 0,
    }
    rep.update(overrides)
    return rep


def test_end_to_end_pools_rates_and_takes_medians():
    reps = [_rep(setup_s=1.0, op_s=2.0), _rep(setup_s=3.0, op_s=6.0), _rep(setup_s=2.0)]
    values = run.end_to_end(reps, [])
    assert values["setup_s"] == 2.0
    assert values["solve_s"] == pytest.approx(12.0 / 3)
    assert values["node_steps_per_s"] == pytest.approx(1200 / 12.0)
    assert values["requests_per_s"] == pytest.approx(120 / 12.0)
    assert values["served_availability"] == 1.0


def test_setup_time_counts_setup_only_repetitions():
    setups = [{"setup_s": 5.0}, {"setup_s": 6.0}]
    assert run.end_to_end([_rep(setup_s=1.0)], setups)["setup_s"] == 5.0


def test_served_availability_counts_failures_and_deadline_misses():
    assert run.end_to_end([_rep(failed=2)], [])["served_availability"] == pytest.approx(0.8)
    rep = _rep(due=50, served=45)
    assert run.end_to_end([rep], [])["served_availability"] == pytest.approx(0.9)


def test_benchmark_spec_names_every_measured_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end([_rep()], []))
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
