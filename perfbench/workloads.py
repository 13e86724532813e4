"""One cold repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition::

    python3 perfbench/workloads.py --workload closed-loop --seed 0 --t0 <perf_counter>

``--t0`` is the parent's ``time.perf_counter()`` just before the spawn
(``CLOCK_MONOTONIC``, shared by every process of the machine), so the
reported set-up time runs from interpreter start to the first timed
operation and includes ``import repro``.  With ``--trace`` the repetition
runs under :class:`tracing.Tracer`.  The last line of standard output is one
JSON object describing the repetition.

Every workload runs single-process: no worker pool (``n_jobs=1``), no
sockets and no threads.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from time import perf_counter

from checks import (
    check_closed_loop,
    check_consensus,
    check_service_soak,
    check_threshold_opt,
)
from tracing import Tracer, layer_metrics, percentile

# -- workload geometry --------------------------------------------------------------
#: closed-loop: ``python -m repro run`` in closed-loop mode on a homogeneous
#: 10-node fleet (Table 7 node parameters, static attacker).
CLOSED_LOOP = {"nodes": 10, "horizon": 200, "episodes": 4000, "slice_episodes": 2}
#: threshold-opt: Algorithm 1 with CEM (K=50, 10 iterations, M=200,
#: Delta_R=15, horizon 200) on one node.
THRESHOLD_OPT = {
    "population": 50,
    "iterations": 10,
    "episodes_per_evaluation": 200,
    "final_evaluation_episodes": 50,
    "delta_r": 15,
    "horizon": 200,
    "check_episodes": 200,
    "parity_episodes": 4,
}
#: service-soak: 40 fleets x 25 episodes x 10 nodes = 10^4 node streams
#: (``bench_decision_service``'s geometry) with a horizon long enough that
#: three repetitions give >= 1000 steady ticks for the p99 rule.
SERVICE_SOAK = {"fleets": 40, "episodes": 25, "nodes": 10, "horizon": 350, "parity_fleets": 2}
#: consensus-churn: ``bench_fig10``'s churn configuration at its fixed
#: seed.  The seed stays fixed because other seeds do different work: the
#: reconfiguration history changes how long the cluster stalls, and with it
#: the completed requests per wall second by up to 2x.
CONSENSUS_CHURN = {
    "seed": 0,
    "nodes": 10,
    "horizon": 35,
    "clients": 16,
    "pipeline": 4,
    "ticks_per_step": 20,
    "deadline_ticks": 30,
}


class SetupDone(Exception):
    """Raised at the start of the timed region of a set-up-only repetition."""


class Clock:
    """Marks of one repetition: imports done, timed region start and stop."""

    def __init__(self, t0: float, tracer: Tracer | None, setup_only: bool = False) -> None:
        self.t0 = t0
        self.tracer = tracer
        self.setup_only = setup_only
        self.t_imported = self.t_start = self.t_stop = 0.0
        self.peak_rss_mb = 0.0

    def imported(self) -> None:
        """Call after the workload's imports; installs the tracer if any."""
        if self.tracer is not None:
            self.tracer.install()
        self.t_imported = perf_counter()

    def start(self) -> None:
        self.t_start = perf_counter()
        if self.setup_only:
            raise SetupDone

    def stop(self) -> None:
        """End of the timed region; the correctness checks after it are not traced."""
        self.t_stop = perf_counter()
        if self.tracer is not None:
            self.tracer.uninstall()
        # ru_maxrss is in KiB on Linux.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def timings(self) -> dict:
        return {
            "setup_s": self.t_start - self.t0,
            "op_s": self.t_stop - self.t_start,
            "window_s": self.t_stop - self.t_imported,
            "peak_rss_mb": self.peak_rss_mb,
        }


# -- closed-loop --------------------------------------------------------------------
def closed_loop_document(seed: int) -> str:
    """The scenario-v1 document ``python -m repro run`` would read."""
    g = CLOSED_LOOP
    return f"""\
schema: repro/scenario-v1
horizon: {g['horizon']}
enforce_btr: true
f: 1
fleet:
  labelled: false
  classes:
    - name: replica
      count: {g['nodes']}
      params: {{p_a: 0.1, p_c1: 1.0e-05, p_c2: 0.001, p_u: 0.02, eta: 2.0, delta_r: .inf, k: 1}}
      observations:
        type: beta-binomial
        n: 10
        healthy: {{alpha: 0.7, beta: 3.0}}
        compromised: {{alpha: 1.0, beta: 0.7}}
run:
  mode: closed-loop
  episodes: {g['episodes']}
  seed: {seed}
  threshold: 0.75
  beta: 1
  k: 1
  n_jobs: 1
"""


def closed_loop(seed: int, clock: Clock) -> dict:
    from repro.cli import run_scenario

    clock.imported()
    g = CLOSED_LOOP
    document = closed_loop_document(seed)
    clock.start()
    result = run_scenario(document)
    clock.stop()

    from repro.control import TwoLevelController
    from repro.control.parallel import parallel_closed_loop_table
    from repro.control.sweep import ClosedLoopCell
    from repro.core import ReplicationThresholdStrategy, ThresholdStrategy
    from repro.sim.scenario_io import load_yaml_document, scenario_from_mapping

    scenario = scenario_from_mapping(load_yaml_document(document))
    recovery, replication = ThresholdStrategy(0.75), ReplicationThresholdStrategy(1)
    cell = ClosedLoopCell(name="tolerance", recovery=recovery, replication=replication)
    episodes = g["slice_episodes"]
    batched = parallel_closed_loop_table(
        [("scenario", scenario)], [cell], num_envs=episodes, seed=seed, k=1, initial_nodes=None, n_jobs=1
    )[("scenario", "tolerance")]
    scalar = TwoLevelController(
        scenario, episodes, recovery, replication_strategy=replication, k=1
    ).run_scalar_reference(seed=seed)
    problems = check_closed_loop(result, g["episodes"], g["nodes"], batched, scalar)
    node_steps = g["episodes"] * g["nodes"] * g["horizon"]
    return {
        "node_steps": node_steps,
        "requests": g["episodes"],
        "attempted": 1,
        "failed": int(bool(problems)),
        "problems": problems,
        "counters": {},
    }


# -- threshold-opt ------------------------------------------------------------------
def threshold_opt(seed: int, clock: Clock) -> dict:
    from repro.core import (
        BetaBinomialObservationModel,
        NodeParameters,
        NoRecoveryStrategy,
        ThresholdStrategy,
    )
    from repro.solvers import RecoverySimulator, solve_recovery_problem
    from repro.solvers.optimizers import CrossEntropyMethod

    clock.imported()
    g = THRESHOLD_OPT
    params = NodeParameters(p_a=0.1, delta_r=g["delta_r"])
    observation_model = BetaBinomialObservationModel()
    optimizer = CrossEntropyMethod(population_size=g["population"], iterations=g["iterations"])
    clock.start()
    solution = solve_recovery_problem(
        params,
        observation_model,
        optimizer,
        horizon=g["horizon"],
        episodes_per_evaluation=g["episodes_per_evaluation"],
        final_evaluation_episodes=g["final_evaluation_episodes"],
        seed=seed,
    )
    clock.stop()

    simulator = RecoverySimulator(params, observation_model, horizon=g["horizon"])
    check_seed = seed + 1

    def cost(strategy, episodes=g["check_episodes"], batch=True):
        return simulator.estimate_cost(strategy, num_episodes=episodes, seed=check_seed, batch=batch)

    problems = check_threshold_opt(
        solved_cost=cost(solution.strategy),
        never_cost=cost(NoRecoveryStrategy()),
        always_cost=cost(ThresholdStrategy(0.0)),
        batched_estimate=cost(solution.strategy, g["parity_episodes"]),
        scalar_estimate=cost(solution.strategy, g["parity_episodes"], batch=False),
    )
    evaluations = solution.optimizer_result.evaluations
    episodes = evaluations * g["episodes_per_evaluation"] + g["final_evaluation_episodes"]
    return {
        "node_steps": episodes * g["horizon"],
        "requests": evaluations,
        "attempted": 1,
        "failed": int(bool(problems)),
        "problems": problems,
        "counters": {"optimizer_wall_clock_s": solution.wall_clock_seconds},
    }


# -- service-soak -------------------------------------------------------------------
def service_soak(seed: int, clock: Clock) -> dict:
    from repro.control import TwoLevelController
    from repro.core import (
        BetaBinomialObservationModel,
        NodeParameters,
        ReplicationThresholdStrategy,
        ThresholdStrategy,
    )
    from repro.serve import DecisionService, ServiceError
    from repro.sim import FleetScenario

    clock.imported()
    g = SERVICE_SOAK
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1, p_c1=1e-5, p_c2=1e-3, p_u=0.02, eta=2.0),
        BetaBinomialObservationModel(),
        num_nodes=g["nodes"],
        horizon=g["horizon"],
        f=1,
    )

    def controller():
        return TwoLevelController(
            scenario,
            num_envs=g["episodes"],
            recovery_policy=ThresholdStrategy(0.75),
            replication_strategy=ReplicationThresholdStrategy(1),
        )

    fleet_seeds = [seed * 1000 + fleet for fleet in range(g["fleets"])]
    service = DecisionService(coalesce=True)
    sessions = [service.register_controller(controller(), seed=s) for s in fleet_seeds]
    errors = 0

    def tick_all():
        nonlocal errors
        for sid in sessions:
            try:
                service.tick(sid)
            except ServiceError:
                errors += 1

    # The first tick seals the cohort (draws and fuses every session's
    # uniform buffer); it belongs to set-up, so work moved there shows.
    seal_start = perf_counter()
    tick_all()
    seal_s = perf_counter() - seal_start
    tick_ms = []
    clock.start()
    for _ in range(g["horizon"] - 1):
        start = perf_counter()
        tick_all()
        tick_ms.append((perf_counter() - start) * 1e3)
    clock.stop()

    stats = service.stats()
    sampled = []
    for fleet in (0, g["fleets"] - 1)[: g["parity_fleets"]]:
        direct = controller().run(seed=fleet_seeds[fleet])
        sampled.append((fleet, service.result(sessions[fleet]), direct))
    problems = check_service_soak(sampled, stats["engine_calls"], g["horizon"])
    steady_ticks = g["horizon"] - 1
    return {
        "node_steps": steady_ticks * g["fleets"] * g["episodes"] * g["nodes"],
        "requests": steady_ticks * g["fleets"],
        "attempted": g["horizon"] * g["fleets"],
        "failed": errors,
        "problems": problems,
        "tick_ms": tick_ms,
        "counters": {
            "service.seal_s": seal_s,
            "service.engine_calls": stats["engine_calls"],
            "service.node_decisions": stats["node_decisions"],
            "service.ticks_served": stats["ticks_served"],
        },
    }


# -- consensus-churn ----------------------------------------------------------------
def consensus_churn(seed: int, clock: Clock) -> dict:
    del seed  # the configuration's own seed is used; see CONSENSUS_CHURN
    from repro.control import ConsensusBackedFleet
    from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
    from repro.core.strategies import ReplicationThresholdStrategy
    from repro.sim import FleetScenario

    clock.imported()
    g = CONSENSUS_CHURN
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.1),
        BetaBinomialObservationModel(),
        num_nodes=g["nodes"],
        horizon=g["horizon"],
        f=1,
    )
    fleet = ConsensusBackedFleet(
        scenario,
        recovery_policy=ThresholdStrategy(0.75),
        replication_strategy=ReplicationThresholdStrategy(1),
        num_clients=g["clients"],
        pipeline=g["pipeline"],
        ticks_per_step=g["ticks_per_step"],
        deadline_ticks=g["deadline_ticks"],
    )
    clock.start()
    result = fleet.run(seed=g["seed"])
    clock.stop()

    workload = fleet.workload
    latencies = [done.latency for client in workload.clients for done in client.completed.values()]
    reconfigurations = result.recoveries + result.evictions + result.additions
    audit_calls = clock.tracer.calls("consensus.audit") if clock.tracer is not None else None
    problems = check_consensus(result.audits, reconfigurations, result.served_availability, audit_calls)
    completed = workload.completed_requests
    messages = fleet.cluster.network.messages_sent
    # A deadline miss is a late request, not a failed one: it lowers served
    # availability.  A failed safety audit makes every request suspect.
    return {
        "node_steps": scenario.num_nodes * g["horizon"],
        "requests": completed,
        "served": workload.served_requests,
        "due": workload.due_requests,
        "attempted": workload.due_requests,
        "failed": workload.due_requests if problems else 0,
        "problems": problems,
        "counters": {
            "consensus.messages_sent": messages,
            "consensus.messages_per_request": messages / completed if completed else 0.0,
            "consensus.reconfigurations": reconfigurations,
            "consensus.latency_ticks_p50": percentile(latencies, 50),
            "consensus.latency_ticks_p99": percentile(latencies, 99),
            "consensus.sim_rps": result.workload["throughput_rps"],
            "consensus.deadline_misses": workload.missed_requests,
        },
    }


WORKLOADS = {
    "closed-loop": closed_loop,
    "threshold-opt": threshold_opt,
    "service-soak": service_soak,
    "consensus-churn": consensus_churn,
}
GEOMETRY = {
    "closed-loop": CLOSED_LOOP,
    "threshold-opt": THRESHOLD_OPT,
    "service-soak": SERVICE_SOAK,
    "consensus-churn": CONSENSUS_CHURN,
}


def environment() -> dict:
    """Library versions and the engine backend this interpreter resolves."""
    import importlib.util

    import numpy
    import scipy

    from repro.sim.kernels import resolve_backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "engine_backend": resolve_backend(None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop at the timed region")
    parser.add_argument("--trace-out", default=None, help="write the spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        # Consensus makes ~10^6 traced calls: keep aggregates only.
        tracer = Tracer(record_spans=args.workload != "consensus-churn")
    clock = Clock(args.t0, tracer, setup_only=args.setup_only)
    try:
        rep = WORKLOADS[args.workload](args.seed, clock)
    except SetupDone:
        print(json.dumps({"setup_s": clock.t_start - clock.t0}))
        return 0
    rep.update(clock.timings())
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, rep["counters"], rep["window_s"])
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.export(), handle)
    rep["environment"] = environment()
    rep["geometry"] = GEOMETRY[args.workload]
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
