"""Correctness checks on each workload's outputs.

Every check returns a list of problems (empty when the output is correct).
They rely on parity between two code paths and on bounds, never on pinned
numbers, so they keep holding when the random-stream contract changes.
``perfbench/tests/test_checks.py`` feeds each one a corrupted output and
sees it fail.
"""

from __future__ import annotations

import math

import numpy as np

#: Per-episode fields of ``TwoLevelResult`` compared for bit-parity.
TWO_LEVEL_FIELDS = (
    "availability",
    "average_nodes",
    "average_cost",
    "recovery_frequency",
    "additions",
    "emergency_additions",
    "evictions",
)


def compare_two_level(ours, theirs, context: str) -> list[str]:
    """Field-for-field bit equality of two ``TwoLevelResult``s."""
    return [
        f"{context}: {name} differs"
        for name in TWO_LEVEL_FIELDS
        if not np.array_equal(getattr(ours, name), getattr(theirs, name))
    ]


def check_closed_loop(result: dict, episodes: int, num_nodes: int, batched_slice, scalar_slice) -> list[str]:
    """``result-v1`` validity, metric bounds, and batched/scalar slice parity."""
    from repro.cli import validate_result

    problems = [f"result-v1: {p}" for p in validate_result(result)]
    if problems:
        return problems
    if result["episodes"] != episodes or result["mode"] != "closed-loop":
        problems.append(
            f"ran {result['episodes']} {result['mode']!r} episodes, asked for {episodes} closed-loop"
        )
    metrics = result["metrics"]
    bounds = {
        "availability": (0.0, 1.0),
        "recovery_frequency": (0.0, 1.0),
        "average_nodes": (0.0, float(num_nodes)),
    }
    for name, (low, high) in bounds.items():
        value = metrics.get(name, {}).get("mean")
        if value is None or not low <= value <= high:
            problems.append(f"metric {name}={value!r} outside [{low}, {high}]")
    problems += compare_two_level(batched_slice, scalar_slice, "episode slice vs run_scalar_reference")
    return problems


def check_threshold_opt(
    solved_cost: float,
    never_cost: float,
    always_cost: float,
    batched_estimate: float,
    scalar_estimate: float,
) -> list[str]:
    """The solved strategy beats both corner strategies; batch == scalar."""
    problems = []
    costs = {"solved": solved_cost, "never-recover": never_cost, "always-recover": always_cost}
    for name, cost in costs.items():
        if not math.isfinite(cost):
            problems.append(f"{name} cost is not finite: {cost!r}")
    if problems:
        return problems
    if not solved_cost < never_cost:
        problems.append(f"solved cost {solved_cost} does not beat never-recover {never_cost}")
    if not solved_cost < always_cost:
        problems.append(f"solved cost {solved_cost} does not beat always-recover {always_cost}")
    if batched_estimate != scalar_estimate:
        problems.append(
            f"batched estimate {batched_estimate!r} != scalar estimate {scalar_estimate!r}"
        )
    return problems


def check_service_soak(sampled: list, engine_calls: int, ticks: int) -> list[str]:
    """Sampled fleets replay a direct run bit for bit; one engine call per tick.

    ``sampled`` holds ``(fleet, service_result, direct_result)`` triples.
    """
    problems = []
    if not sampled:
        problems.append("no fleet was sampled for parity")
    for fleet, served, direct in sampled:
        problems += compare_two_level(served, direct, f"fleet {fleet} vs TwoLevelController.run")
    if engine_calls != ticks:
        problems.append(f"engine_calls {engine_calls} != ticks {ticks}")
    return problems


def check_consensus(
    audits: list,
    reconfigurations: int,
    served_availability: float,
    audit_calls: int | None = None,
) -> list[str]:
    """Safety audits all pass and follow reconfigurations; availability in (0, 1].

    The loop audits once per controller step that reconfigured the cluster,
    and a step mirrors at least one reconfiguration, so
    ``0 < len(audits) <= reconfigurations``.  When the run was traced,
    ``audit_calls`` (``audit_safety`` calls seen by the tracer) must equal
    the audits returned.
    """
    problems = []
    failed = [i for i, audit in enumerate(audits) if not audit.ok]
    if failed:
        problems.append(f"safety audits {failed} failed")
    if not 0 < len(audits) <= reconfigurations:
        problems.append(
            f"{len(audits)} audits for {reconfigurations} reconfigurations "
            "(need 0 < audits <= reconfigurations)"
        )
    if audit_calls is not None and audit_calls != len(audits):
        problems.append(f"audit_safety ran {audit_calls} times, {len(audits)} audits returned")
    if not 0.0 < served_availability <= 1.0:
        problems.append(f"served availability {served_availability!r} outside (0, 1]")
    return problems
