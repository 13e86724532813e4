"""Every correctness check passes on a real output and fails on a corrupted one."""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest

import workloads
from checks import (
    check_closed_loop,
    check_consensus,
    check_service_soak,
    check_threshold_opt,
)


# -- closed-loop ----------------------------------------------------------------
@pytest.fixture(scope="module")
def closed_loop_outputs():
    from repro.cli import run_scenario
    from repro.control import TwoLevelController
    from repro.control.parallel import parallel_closed_loop_table
    from repro.control.sweep import ClosedLoopCell
    from repro.core import ReplicationThresholdStrategy, ThresholdStrategy
    from repro.sim.scenario_io import load_yaml_document, scenario_from_mapping

    geometry = {"nodes": 4, "horizon": 12, "episodes": 3, "slice_episodes": 2}
    saved = dict(workloads.CLOSED_LOOP)
    workloads.CLOSED_LOOP.update(geometry)
    try:
        document = workloads.closed_loop_document(seed=5)
    finally:
        workloads.CLOSED_LOOP.update(saved)
    result = run_scenario(document)
    scenario = scenario_from_mapping(load_yaml_document(document))
    recovery, replication = ThresholdStrategy(0.75), ReplicationThresholdStrategy(1)
    cell = ClosedLoopCell(name="tolerance", recovery=recovery, replication=replication)
    batched = parallel_closed_loop_table(
        [("s", scenario)], [cell], num_envs=2, seed=5, k=1, initial_nodes=None, n_jobs=1
    )[("s", "tolerance")]
    scalar = TwoLevelController(
        scenario, 2, recovery, replication_strategy=replication, k=1
    ).run_scalar_reference(seed=5)
    return result, batched, scalar


def test_closed_loop_check_passes(closed_loop_outputs):
    result, batched, scalar = closed_loop_outputs
    assert check_closed_loop(result, 3, 4, batched, scalar) == []


def _corrupt_schema(result):
    result["schema"] = "repro/result-v0"


def _corrupt_availability(result):
    result["metrics"]["availability"]["mean"] = 1.5


def _drop_metrics(result):
    result["metrics"] = {}


@pytest.mark.parametrize("corrupt", [_corrupt_schema, _corrupt_availability, _drop_metrics])
def test_closed_loop_check_fails_on_corrupted_result(closed_loop_outputs, corrupt):
    result, batched, scalar = closed_loop_outputs
    broken = copy.deepcopy(result)
    corrupt(broken)
    assert check_closed_loop(broken, 3, 4, batched, scalar)


def test_closed_loop_check_fails_on_wrong_episode_count(closed_loop_outputs):
    result, batched, scalar = closed_loop_outputs
    assert check_closed_loop(result, 4, 4, batched, scalar)


def test_closed_loop_check_fails_on_slice_divergence(closed_loop_outputs):
    result, batched, scalar = closed_loop_outputs
    cost = batched.average_cost.copy()
    cost[1] = np.nextafter(cost[1], np.inf)
    assert check_closed_loop(result, 3, 4, replace(batched, average_cost=cost), scalar)


# -- threshold-opt --------------------------------------------------------------
@pytest.fixture(scope="module")
def threshold_costs():
    from repro.core import (
        BetaBinomialObservationModel,
        NodeParameters,
        NoRecoveryStrategy,
        ThresholdStrategy,
    )
    from repro.solvers import RecoverySimulator, solve_recovery_problem
    from repro.solvers.optimizers import CrossEntropyMethod

    params = NodeParameters(p_a=0.1, delta_r=15)
    model = BetaBinomialObservationModel()
    solution = solve_recovery_problem(
        params,
        model,
        CrossEntropyMethod(population_size=10, iterations=3),
        horizon=60,
        episodes_per_evaluation=30,
        final_evaluation_episodes=10,
        seed=3,
    )
    simulator = RecoverySimulator(params, model, horizon=60)

    def cost(strategy, episodes=60, batch=True):
        return simulator.estimate_cost(strategy, num_episodes=episodes, seed=4, batch=batch)

    return {
        "solved_cost": cost(solution.strategy),
        "never_cost": cost(NoRecoveryStrategy()),
        "always_cost": cost(ThresholdStrategy(0.0)),
        "batched_estimate": cost(solution.strategy, 3),
        "scalar_estimate": cost(solution.strategy, 3, batch=False),
    }


def test_threshold_check_passes(threshold_costs):
    assert check_threshold_opt(**threshold_costs) == []


@pytest.mark.parametrize(
    "corruption",
    [
        lambda c: {"solved_cost": c["never_cost"]},
        lambda c: {"solved_cost": c["always_cost"] + 1.0},
        lambda c: {"solved_cost": float("nan")},
        lambda c: {"batched_estimate": np.nextafter(c["scalar_estimate"], np.inf)},
    ],
    ids=["ties-never-recover", "loses-to-always-recover", "nan", "batch-scalar-mismatch"],
)
def test_threshold_check_fails_on_corrupted_costs(threshold_costs, corruption):
    broken = {**threshold_costs, **corruption(threshold_costs)}
    assert check_threshold_opt(**broken)


# -- service-soak ---------------------------------------------------------------
@pytest.fixture(scope="module")
def service_outputs():
    from repro.control import TwoLevelController
    from repro.core import (
        BetaBinomialObservationModel,
        NodeParameters,
        ReplicationThresholdStrategy,
        ThresholdStrategy,
    )
    from repro.serve import DecisionService
    from repro.sim import FleetScenario

    horizon = 6
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1), BetaBinomialObservationModel(), num_nodes=4, horizon=horizon, f=1
    )

    def controller():
        return TwoLevelController(
            scenario,
            num_envs=2,
            recovery_policy=ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
        )

    service = DecisionService(coalesce=True)
    seeds = (11, 12)
    sessions = [service.register_controller(controller(), seed=s) for s in seeds]
    for _ in range(horizon):
        for sid in sessions:
            service.tick(sid)
    served = [service.result(sid) for sid in sessions]
    direct = [controller().run(seed=s) for s in seeds]
    return served, direct, service.stats()["engine_calls"], horizon


def test_service_check_passes(service_outputs):
    served, direct, calls, horizon = service_outputs
    sampled = [(i, served[i], direct[i]) for i in range(2)]
    assert check_service_soak(sampled, calls, horizon) == []


def test_service_check_fails_on_swapped_fleet(service_outputs):
    served, direct, calls, horizon = service_outputs
    assert check_service_soak([(0, served[0], direct[1])], calls, horizon)


def test_service_check_fails_on_corrupted_field(service_outputs):
    served, direct, calls, horizon = service_outputs
    availability = served[0].availability.copy()
    availability[0] += 1.0 / horizon
    broken = replace(served[0], availability=availability)
    assert check_service_soak([(0, broken, direct[0])], calls, horizon)


def test_service_check_fails_on_engine_call_count(service_outputs):
    served, direct, calls, horizon = service_outputs
    assert check_service_soak([(0, served[0], direct[0])], calls + 1, horizon)


def test_service_check_fails_without_samples(service_outputs):
    _, _, calls, horizon = service_outputs
    assert check_service_soak([], calls, horizon)


# -- consensus-churn ------------------------------------------------------------
@pytest.fixture(scope="module")
def consensus_outputs():
    from repro.control import ConsensusBackedFleet
    from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
    from repro.core.strategies import ReplicationThresholdStrategy
    from repro.sim import FleetScenario

    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.3), BetaBinomialObservationModel(), num_nodes=6, horizon=8, f=1
    )
    fleet = ConsensusBackedFleet(
        scenario,
        recovery_policy=ThresholdStrategy(0.5),
        replication_strategy=ReplicationThresholdStrategy(1),
        num_clients=2,
        pipeline=2,
        ticks_per_step=10,
        deadline_ticks=20,
    )
    result = fleet.run(seed=1)
    reconfigurations = result.recoveries + result.evictions + result.additions
    return result, reconfigurations


def test_consensus_check_passes(consensus_outputs):
    result, reconfigurations = consensus_outputs
    assert reconfigurations > 0
    assert check_consensus(result.audits, reconfigurations, result.served_availability) == []
    assert (
        check_consensus(
            result.audits, reconfigurations, result.served_availability, len(result.audits)
        )
        == []
    )


def test_consensus_check_fails_on_unsafe_audit(consensus_outputs):
    result, reconfigurations = consensus_outputs
    audits = list(result.audits)
    audits[0] = replace(audits[0], consistent=False, divergent=("replica-0",))
    assert check_consensus(audits, reconfigurations, result.served_availability)


def test_consensus_check_fails_without_audits(consensus_outputs):
    result, reconfigurations = consensus_outputs
    assert check_consensus([], reconfigurations, result.served_availability)


def test_consensus_check_fails_on_more_audits_than_reconfigurations(consensus_outputs):
    result, _ = consensus_outputs
    assert check_consensus(result.audits, len(result.audits) - 1, result.served_availability)


def test_consensus_check_fails_on_uncounted_audit_calls(consensus_outputs):
    result, reconfigurations = consensus_outputs
    assert check_consensus(
        result.audits, reconfigurations, result.served_availability, len(result.audits) + 1
    )


@pytest.mark.parametrize("availability", [0.0, 1.0 + 1e-9, float("nan")])
def test_consensus_check_fails_on_availability_out_of_range(consensus_outputs, availability):
    result, reconfigurations = consensus_outputs
    assert check_consensus(result.audits, reconfigurations, availability)
