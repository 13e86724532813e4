"""Sharded multi-process sweeps: bit-exact parity, speedup, cache hits.

The parallel execution layer (:mod:`repro.control.parallel`) shards the
closed-loop sweeps over episodes and promises the sharded table is
**bit-identical** to the single-process one under a fixed seed — the
common-random-number discipline every Table 7 / Figure 12 comparison
rests on must survive parallelization exactly, not approximately.

This module runs a mixed Table-6-style grid through
:func:`~repro.control.sweep.mixed_closed_loop_sweep` at ``n_jobs=1`` and
``n_jobs=4`` and asserts every per-episode metric array (including the
per-class dictionaries) is bit-exact between the two.  The wall-clock
speedup is measured and reported as sustained cells/second; the >= 2x
assertion at 4 workers only fires when the machine actually exposes 4
cores (CI runners do).  On a smaller machine the parity check is just as
binding, and the test then ends as a visible skip that records the
measured ratio and the core count.

The policy-cache benchmark asserts the second
:func:`~repro.control.sysid.identify_replication_strategies` call on an
unchanged fit is served entirely from the
:class:`~repro.control.policy_cache.PolicySolveCache` — zero LP solver
invocations, observed by monkeypatching the solver the cache routes
through.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.control import (
    ClosedLoopCell,
    PolicySolveCache,
    identify_replication_strategies,
    mixed_closed_loop_sweep,
)
from repro.core import (
    BetaBinomialObservationModel,
    MixedReplicationStrategy,
    NodeParameters,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
from repro.sim import FleetScenario, NodeClass

SEED = 7
NUM_ENVS = 192
HORIZON = 200
N_JOBS = 4

#: Table 6 flavor: a hardened and a vulnerable container class.
HARDENED = NodeParameters(p_a=0.04, p_c1=0.01, p_c2=0.03, eta=1.5, delta_r=20)
VULNERABLE = NodeParameters(p_a=0.3, p_c1=0.02, p_c2=0.08, eta=3.0, delta_r=8)

TWO_LEVEL_FIELDS = (
    "availability",
    "average_nodes",
    "average_cost",
    "recovery_frequency",
    "additions",
    "emergency_additions",
    "evictions",
)


def _grid() -> dict[str, FleetScenario]:
    observation_model = BetaBinomialObservationModel()

    def mixed(hardened: int, vulnerable: int) -> FleetScenario:
        return FleetScenario.mixed(
            [
                NodeClass("hardened", HARDENED, observation_model, count=hardened),
                NodeClass("vulnerable", VULNERABLE, observation_model, count=vulnerable),
            ],
            horizon=HORIZON,
            f=1,
        )

    return {"balanced-6": mixed(3, 3), "exposed-8": mixed(2, 6)}


def _cells() -> list[ClosedLoopCell]:
    stochastic = MixedReplicationStrategy(
        ReplicationThresholdStrategy(4), ReplicationThresholdStrategy(5), kappa=0.5
    )
    # Eight (scenario, cell) pairs: two full rounds on four workers.
    return [
        ClosedLoopCell("tolerance", ThresholdStrategy(0.75)),
        ClosedLoopCell(
            "det-add-4", ThresholdStrategy(0.75), ReplicationThresholdStrategy(4)
        ),
        ClosedLoopCell(
            "det-add-5", ThresholdStrategy(0.75), ReplicationThresholdStrategy(5)
        ),
        ClosedLoopCell("stoch-add", ThresholdStrategy(0.75), stochastic),
    ]



def _run(n_jobs: int) -> tuple[dict, float]:
    start = time.perf_counter()
    table = mixed_closed_loop_sweep(
        _grid(), _cells(), num_envs=NUM_ENVS, seed=SEED, initial_nodes=4, n_jobs=n_jobs
    )
    return table, time.perf_counter() - start


def _assert_bit_exact(reference: dict, table: dict) -> None:
    assert set(reference) == set(table)
    for key in reference:
        a, b = reference[key], table[key]
        assert a.steps == b.steps
        for field in TWO_LEVEL_FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype, (key, field)
            np.testing.assert_array_equal(x, y, err_msg=f"{key}/{field}")
        assert list(a.class_average_cost) == list(b.class_average_cost)
        for label in a.class_average_cost:
            np.testing.assert_array_equal(
                a.class_average_cost[label], b.class_average_cost[label]
            )
            np.testing.assert_array_equal(
                a.class_recovery_frequency[label], b.class_recovery_frequency[label]
            )


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_parallel_sweep_parity_and_speedup(table_printer):
    serial_table, serial_seconds = _run(1)
    parallel_table, parallel_seconds = _run(N_JOBS)

    # The contract: sharding must not change a single bit of the table.
    _assert_bit_exact(serial_table, parallel_table)

    cells = len(serial_table)
    speedup = serial_seconds / parallel_seconds
    cores = _available_cores()
    table_printer(
        f"Sharded mixed sweep ({cells} cells x {NUM_ENVS} episodes x {HORIZON} steps)",
        ["path", "time (s)", "cells/s", "speedup"],
        [
            ["serial (n_jobs=1)", f"{serial_seconds:.2f}", f"{cells / serial_seconds:.2f}", "1.00x"],
            [
                f"sharded (n_jobs={N_JOBS})",
                f"{parallel_seconds:.2f}",
                f"{cells / parallel_seconds:.2f}",
                f"{speedup:.2f}x",
            ],
        ],
    )

    if cores >= N_JOBS:
        assert speedup >= 2.0, (
            f"sharded sweep only {speedup:.2f}x over serial on {cores} cores"
        )
    else:
        pytest.skip(
            f"speedup gate needs {N_JOBS} cores, {cores} available "
            f"(measured {speedup:.2f}x at n_jobs={N_JOBS}); parity asserted"
        )


def test_policy_cache_effectiveness(table_printer, monkeypatch):
    observation_model = BetaBinomialObservationModel()
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1), observation_model, num_nodes=6, horizon=40, f=1
    )
    cache = PolicySolveCache()
    kwargs = dict(
        num_fit_episodes=20, num_eval_episodes=10, seed=SEED, policy_cache=cache
    )

    start = time.perf_counter()
    first = identify_replication_strategies(scenario, ThresholdStrategy(0.75), **kwargs)
    cold_seconds = time.perf_counter() - start
    assert cache.misses == 2 and cache.hits == 0

    # The refit reproduces the same kernel, so the cache must absorb every
    # solve: the spy on the routed-through solver must never fire.
    import repro.solvers.cmdp as cmdp

    def forbidden(model):  # pragma: no cover - firing is the failure
        raise AssertionError("solver invoked despite an unchanged fitted model")

    monkeypatch.setattr(cmdp, "solve_replication_lp", forbidden)
    monkeypatch.setattr(cmdp, "solve_replication_lagrangian", forbidden)
    start = time.perf_counter()
    second = identify_replication_strategies(scenario, ThresholdStrategy(0.75), **kwargs)
    warm_seconds = time.perf_counter() - start

    assert cache.hits == 2 and cache.misses == 2
    assert second.lp is first.lp
    np.testing.assert_array_equal(first.model.transition, second.model.transition)

    table_printer(
        "Policy-solve cache (identify_replication_strategies, unchanged fit)",
        ["pass", "time (s)", "hits", "misses"],
        [
            ["cold", f"{cold_seconds:.2f}", "0", "2"],
            ["warm", f"{warm_seconds:.2f}", "2", "2"],
        ],
    )
