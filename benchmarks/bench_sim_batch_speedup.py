"""Throughput benchmarks: batch engine vs scalar, and kernel backends.

Two acceptance bars are asserted here, both on the 1000-episode Monte-Carlo
evaluation that Algorithm 1 and the Table 2/7 experiments are built on:

* the vectorized batch engine is >= 10x faster than the scalar
  :class:`~repro.solvers.evaluation.RecoverySimulator` while reproducing its
  per-episode statistics *exactly* (same seed, same results);
* the fused kernel backend is >= 3x faster than the ``reference`` backend
  (the engine's generic step loop) while staying bit-exact.

Backend timings are interleaved (reference and fused alternate inside the
same measurement loop) and reduced with min-of-N, so host jitter moves both
numerators and denominators together and the reported ratio is stable.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
from repro.sim import BatchRecoveryEngine, FleetScenario
from repro.sim.kernels import BACKENDS
from repro.solvers import RecoverySimulator

NUM_EPISODES = 1000
HORIZON = 200
SEED = 0

#: Interleaved min-of-N schedule for the backend comparison.
_REPS = 3
_INNER = 10


def _measure():
    simulator = RecoverySimulator(
        NodeParameters(p_a=0.1, delta_r=15), BetaBinomialObservationModel(), horizon=HORIZON
    )
    strategy = ThresholdStrategy(0.6)

    start = time.perf_counter()
    scalar_results = simulator.evaluate(strategy, num_episodes=NUM_EPISODES, seed=SEED)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch_results = simulator.evaluate(
        strategy, num_episodes=NUM_EPISODES, seed=SEED, batch=True
    )
    batch_seconds = time.perf_counter() - start

    return scalar_results, batch_results, scalar_seconds, batch_seconds


def test_batch_engine_speedup(benchmark, table_printer):
    scalar_results, batch_results, scalar_seconds, batch_seconds = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    steps = NUM_EPISODES * HORIZON
    speedup = scalar_seconds / batch_seconds

    table_printer(
        f"Batch engine throughput ({NUM_EPISODES} episodes x {HORIZON} steps)",
        ["engine", "time (s)", "steps/s", "speedup"],
        [
            ["scalar", f"{scalar_seconds:.2f}", f"{steps / scalar_seconds:,.0f}", "1.0x"],
            ["batch", f"{batch_seconds:.3f}", f"{steps / batch_seconds:,.0f}", f"{speedup:.1f}x"],
        ],
    )

    # Exact parity: same seed, identical per-episode statistics.
    assert scalar_results == batch_results
    # Acceptance bar: >= 10x on the 1000-episode evaluation.
    assert speedup >= 10.0, f"batch engine only {speedup:.1f}x faster than scalar"


def _assert_exact_parity(reference, other) -> None:
    """Every field of :class:`BatchSimulationResult` bit-equal."""
    for name in (
        "average_cost",
        "time_to_recovery",
        "recovery_frequency",
        "num_recoveries",
        "num_compromises",
    ):
        assert np.array_equal(getattr(reference, name), getattr(other, name)), name
    assert reference.steps == other.steps
    if reference.availability is None:
        assert other.availability is None
    else:
        assert np.array_equal(reference.availability, other.availability)


def _min_interleaved(runners: dict[str, object]) -> dict[str, float]:
    """Min-of-N seconds per backend, alternating backends inside each pass."""
    best = {name: float("inf") for name in runners}
    for _rep in range(_REPS):
        for _i in range(_INNER):
            for name, run in runners.items():
                start = time.perf_counter()
                run()
                elapsed = time.perf_counter() - start
                best[name] = min(best[name], elapsed)
    return best


def _measure_backends():
    scenario = FleetScenario.single_node(
        NodeParameters(p_a=0.1, delta_r=15), BetaBinomialObservationModel(), horizon=HORIZON
    )
    strategy = ThresholdStrategy(0.6)
    engines = {
        name: BatchRecoveryEngine(scenario, backend=name) for name in BACKENDS
    }
    # One shared pre-drawn buffer: timings cover the step path, not stream
    # generation (and the fused backend's rank precompute is amortized by
    # its per-buffer memo, exactly as in Algorithm 1's evaluation loops).
    uniforms = engines["reference"].draw_uniforms(SEED, NUM_EPISODES)
    results = {}
    for name, engine in engines.items():
        results[name] = engine.run(strategy, uniforms=uniforms)  # warmup + parity run
    seconds = _min_interleaved(
        {
            name: (lambda engine=engine: engine.run(strategy, uniforms=uniforms))
            for name, engine in engines.items()
        }
    )
    profile = engines["fused"].run(strategy, uniforms=uniforms, profile=True).profile
    return results, seconds, profile


def test_kernel_backend_speedup(benchmark, table_printer):
    results, seconds, profile = benchmark.pedantic(_measure_backends, rounds=1, iterations=1)
    steps = NUM_EPISODES * HORIZON
    ref_seconds = seconds["reference"]

    rows = []
    for name in sorted(seconds, key=seconds.get, reverse=True):
        speedup = ref_seconds / seconds[name]
        rows.append(
            [
                name,
                f"{seconds[name] * 1e3:.2f}",
                f"{steps / seconds[name]:,.0f}",
                f"{speedup:.2f}x",
            ]
        )
    table_printer(
        f"Kernel backends ({NUM_EPISODES} episodes x {HORIZON} steps, min of "
        f"{_REPS}x{_INNER} interleaved)",
        ["backend", "time (ms)", "steps/s", "vs reference"],
        rows,
    )
    table_printer(
        "Fused backend per-phase profile",
        ["phase", "time (ms)", "share"],
        [[name, f"{ms:.3f}", f"{share:.1%}"] for name, ms, share in profile.rows()],
    )

    # The fused backend is bit-exact against the reference path.
    _assert_exact_parity(results["reference"], results["fused"])
    fused_speedup = ref_seconds / seconds["fused"]
    assert fused_speedup >= 3.0, f"fused backend only {fused_speedup:.2f}x over reference"

