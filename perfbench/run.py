"""Repository benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload closed-loop --seed 0 --seconds 30 --trace 0

Each repetition of a workload runs in a fresh interpreter
(``perfbench/workloads.py``), so every repetition pays cold caches the way a
``python -m repro run`` user does.  Repetitions run one after another until
``--seconds`` is spent (at least two); set-up-only repetitions make up at
least three set-up times, so set-up time is a median.  With
``--trace 1`` one more repetition runs under the outside-in tracer and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record —
environment stamp, every repetition, and the spans of a traced run — goes
to ``perfbench/out/``.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/README.md`` defines each metric per
workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed-loop", "threshold-opt", "service-soak", "consensus-churn")
#: Full repetitions per invocation, at least.  service-soak needs three for
#: >= 1000 steady ticks, so that ten samples lie beyond the p99.
MIN_REPS = {"service-soak": 3}
MIN_REPS_DEFAULT = 2
#: Set-up times per invocation; set-up-only repetitions fill up the count.
MIN_SETUPS = 3
#: Wall-clock budget of one invocation: no repetition starts that would
#: likely end past it.
BUDGET_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def child_environment(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        # Deterministic str hashing: the same seed gives the same run.
        PYTHONHASHSEED="0",
        # One process, no threads: keep BLAS single-threaded.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_rep(
    workload: str,
    seed: int,
    timeout: float,
    trace: bool = False,
    trace_out: Path | None = None,
    setup_only: bool = False,
) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload]
    command += ["--seed", str(seed)]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
    t0 = perf_counter()
    try:
        done = subprocess.run(
            command + ["--t0", repr(t0)],
            cwd=ROOT,
            env=child_environment(ROOT),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    wall = perf_counter() - t0
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr[-4000:])
        raise BenchmarkError(f"{workload} repetition exited with code {done.returncode}")
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    rep["rep_wall_s"] = wall
    return rep


def end_to_end(reps: list, setups: list) -> dict:
    """End-to-end metric values of the untraced repetitions.

    Rates and ``solve_s`` are pooled over the repetitions (total work or
    time / count), which averages over the machine's slow and fast phases
    better than a median of a few values.  ``setup_s`` and ``peak_rss_mb``
    are medians; set-up time also counts the set-up-only repetitions.
    """
    op_s = sum(r["op_s"] for r in reps)
    due = sum(r.get("due", r["attempted"]) for r in reps)
    served = sum(r.get("served", r["attempted"] - r["failed"]) for r in reps)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps + setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "node_steps_per_s": sum(r["node_steps"] for r in reps) / op_s,
        "solve_s": op_s / len(reps),
        "requests_per_s": sum(r["requests"] for r in reps) / op_s,
        "served_availability": served / due,
    }


def per_layer(reps: list, traced: dict) -> dict:
    """Per-layer metric values of the traced repetition."""
    values = dict(traced["layers"])
    values["trace_overhead"] = traced["window_s"] / statistics.median(r["window_s"] for r in reps)
    ticks = [t for r in reps for t in r.get("tick_ms", ())]
    values["service.tick_samples"] = len(ticks)
    values["service.tick_p50_ms"] = percentile(ticks, 50)
    values["service.tick_p99_ms"] = percentile(ticks, 99)
    return values


def measure(workload: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> dict:
    """Run repetitions until ``seconds`` is spent, then the traced one."""
    started = perf_counter()
    min_reps = MIN_REPS.get(workload, MIN_REPS_DEFAULT)
    reps: list = []
    setups: list = []
    while True:
        elapsed = perf_counter() - started
        typical = statistics.mean(r["rep_wall_s"] for r in reps) if reps else 0.0
        reserve = 1.5 * typical if trace else 0.0  # the traced repetition
        if len(reps) >= min_reps and elapsed + typical > seconds:
            break
        if reps and elapsed + typical + reserve > BUDGET_S:
            break
        reps.append(run_rep(workload, seed, BUDGET_S + 20 - elapsed))
    while len(reps) + len(setups) < MIN_SETUPS:
        elapsed = perf_counter() - started
        setups.append(run_rep(workload, seed, BUDGET_S + 20 - elapsed, setup_only=True))
    traced = None
    if trace:
        elapsed = perf_counter() - started
        spans = out_dir / f"{workload}-seed{seed}-spans.json"
        traced = run_rep(workload, seed, BUDGET_S + 20 - elapsed, trace=True, trace_out=spans)
    return {"reps": reps, "setups": setups, "traced": traced, "elapsed_s": perf_counter() - started}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("REPRO_ENGINE_BACKEND"):
        print(
            "error: REPRO_ENGINE_BACKEND is set; it selects a different engine "
            "backend, so the numbers would not be this benchmark's. Unset it.",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reps, traced = run["reps"], run["traced"]
    everything = reps + ([traced] if traced else [])
    values = per_layer(reps, traced) if traced else end_to_end(reps, run["setups"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    problems = [p for r in everything for p in r["problems"]]
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "repetitions": len(reps),
        "setup_only_repetitions": len(run["setups"]),
        "elapsed_s": run["elapsed_s"],
        **reps[0]["environment"],
        "geometry": reps[0]["geometry"],
    }
    for rep in everything:
        rep.pop("tick_ms", None)
    record = {
        "stamp": stamp,
        "result": result,
        "problems": problems,
        "reps": reps,
        "setups": run["setups"],
        "traced": traced,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("stamp: " + json.dumps(stamp))
    for metric in wanted:
        print(f"{metric['name']:>36} {values[metric['name']]:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
