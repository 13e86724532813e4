"""Closed-loop two-level feedback control on the batched simulation path.

:class:`TwoLevelController` runs ``B`` fleet episodes of the paper's full
control architecture at once:

* **node level** — per-slot belief updates and recovery actions through a
  :class:`~repro.envs.VectorRecoveryEnv` over the bit-exact
  :class:`~repro.sim.BatchRecoveryEngine` (the controller computes its own
  active-masked CMDP states, so it skips
  :class:`~repro.envs.FleetVectorEnv`'s whole-fleet bookkeeping), with the
  ``k``-parallel-recovery limit of Proposition 1c granted to the most
  suspicious requests;
* **system level** — eviction, CMDP-state computation, replication
  decisions and the Prop. 1 emergency-add invariant through a
  :class:`~repro.control.vector_system.VectorSystemController` with a
  pluggable :class:`~repro.core.strategies.ReplicationStrategy` backend
  (threshold, Algorithm 2 LP, Theorem 2 Lagrangian mixture, or the learned
  PPO replication policy of :mod:`repro.control.replication_ppo`).

Node churn is mapped onto a fixed bank of ``smax`` engine slots: ``N_1``
slots start active, evicted/crashed slots deactivate, and additions claim
standby slots.  Standby slots recover on every step, so a newly activated
slot joins as a fresh healthy node with the prior belief ``p_A`` —
mirroring the testbed's fresh-container semantics.  Only active slots
contribute to the CMDP state, the fleet availability ``T^(A)``, the node
count ``N_t`` and the cost accounting.

Fleets may be heterogeneous (``FleetScenario.mixed``): every per-slot
quantity — the initial/reset belief ``p_{A,j}``, the BTR deadline
``Delta_{R,j}``, the cost weight ``eta_j`` and the observation model — is
threaded through the engine per slot, so a standby slot activates as a
fresh node of *its own* container class, never node 0's.  Labelled
scenarios additionally get per-class cost/recovery metrics on the result.

The system level is **class-aware** on such fleets: a replication strategy
that chooses *which* class to add
(:class:`~repro.core.strategies.ClassTabularReplicationStrategy`, the
class-indexed Algorithm 2 output, or any
:class:`~repro.core.strategies.ClassAwareReplicationStrategy`) has its
``add(c)`` decision activate the first free slot of class ``c``'s
sub-fleet on both run paths (falling back to any free slot when the
sub-fleet is exhausted); emergency adds stay classless.  Classless
strategies keep the first-free-slot behaviour unchanged.

:meth:`TwoLevelController.run_scalar_reference` executes the identical
closed loop one episode at a time with the scalar
:class:`~repro.core.system_controller.SystemController` — the decision
trace is bit-identical to the batched run under a shared seed (asserted in
``tests/test_control_plane.py``), and the wall-clock ratio between the two
is the control-plane speedup asserted in the Table 7 closed-loop benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.strategies import (
    RecoveryStrategy,
    ReplicationStrategy,
    strategy_is_class_aware,
)
from ..core.system_controller import SystemController
from ..envs.base import VectorObservation
from ..envs.policies import StrategyPolicy, VectorPolicy
from ..envs.vector_recovery import VectorRecoveryEnv
from ..sim import BatchRecoveryEngine, FleetScenario
from ..sim.kernels import EngineProfile
from ..sim.strategies import BatchStrategy
from ..core.metrics import summarize_metric_arrays
from .vector_system import (
    VectorSystemController,
    VectorSystemDecision,
    strategy_consumes_rng,
)

__all__ = [
    "SystemTrace",
    "TwoLevelResult",
    "TwoLevelStepEvent",
    "TwoLevelLoop",
    "TwoLevelController",
]


@dataclass(frozen=True)
class TwoLevelStepEvent:
    """One step of the batched closed loop, as seen by an ``on_step`` observer.

    :meth:`TwoLevelController.run` emits one event per step *after* the
    step's recoveries, evictions and additions have been applied.  The
    consensus integration (:mod:`repro.control.consensus_loop`) consumes the
    events to mirror every controller decision onto a live MinBFT cluster;
    the arrays are the controller's own working state — observers must not
    mutate them.

    Attributes:
        t: Step index, ``0 <= t < horizon``.
        executed_recoveries: Recoveries executed this step (granted
            voluntary plus BTR-forced, active slots only), shape ``(B, S)``.
        crashed: Slots that crashed this step (evicted by the system
            level), shape ``(B, S)``.
        failed: Ground-truth failed mask (compromised or crashed) after the
            step, shape ``(B, S)``.
        decision: The system level's full :class:`VectorSystemDecision`.
        activated: Slot activated by this step's addition per episode,
            shape ``(B,)``; ``-1`` where no slot was added.
        active: Active mask after evictions and additions, shape
            ``(B, S)``.
        available: Whether the step counted toward ``T^(A)``, shape
            ``(B,)``.
    """

    t: int
    executed_recoveries: np.ndarray
    crashed: np.ndarray
    failed: np.ndarray
    decision: VectorSystemDecision
    activated: np.ndarray
    active: np.ndarray
    available: np.ndarray


@dataclass(frozen=True)
class SystemTrace:
    """Per-step system-level trajectory of one batched closed-loop run.

    All arrays have shape ``(T, B)``.  The PPO replication trainer consumes
    the trace as its rollout buffer; the system-identification loop reads
    the ``(s_t, a_t, s_{t+1})`` transitions off it.

    Attributes:
        states: CMDP states ``s_t``.
        actions: Executed add decisions ``a_t`` (including emergency adds).
        add_probabilities: The strategy's ``pi(a=1 | s_t)`` per decision.
        forced: Steps where the executed action overrode the strategy
            (emergency add, or an add dropped at the ``smax`` cap).
        node_counts: Replication factors ``N_t`` after the step's
            evictions and additions.
        decision_counts: ``N_t`` at decision time (after evictions, before
            additions) — the count feature the learned policy conditions on.
        available: Whether at most ``f`` active nodes were failed.
        add_classes: Chosen container-class indices, shape ``(T, B)`` with
            ``-1`` where no class was chosen; ``None`` for classless
            strategies.
        action_probabilities: Full per-action distributions the decisions
            were sampled from, shape ``(T, B, 1 + C)``; ``None`` for
            classless strategies.  The class-aware PPO replication trainer
            reads its old-policy probabilities off this.
    """

    states: np.ndarray
    actions: np.ndarray
    add_probabilities: np.ndarray
    forced: np.ndarray
    node_counts: np.ndarray
    decision_counts: np.ndarray
    available: np.ndarray
    add_classes: np.ndarray | None = None
    action_probabilities: np.ndarray | None = None

    def transitions(self) -> np.ndarray:
        """Observed ``(s_t, a_t, s_{t+1})`` triples, shape ``(K, 3)``.

        The empirical input of Algorithm 2's system-identification step:
        aggregate into counts to fit ``f_S`` from closed-loop simulation
        instead of testbed traces (see :mod:`repro.control.sysid`).
        """
        if self.states.shape[0] < 2:
            return np.empty((0, 3), dtype=np.int64)
        return np.stack(
            [
                self.states[:-1].ravel(),
                self.actions[:-1].astype(np.int64).ravel(),
                self.states[1:].ravel(),
            ],
            axis=1,
        )


@dataclass(frozen=True)
class TwoLevelResult:
    """Per-episode outcome of one closed-loop two-level run.

    All arrays have shape ``(B,)``; metrics follow the Table 7 conventions.

    Attributes:
        availability: Fleet availability ``T^(A)``: the fraction of steps
            with at most ``f`` failed active nodes **and** a consensus
            quorum ``N_t >= 2f + 1`` in place.  The quorum conjunct
            matters under dynamic membership — a fleet evicted down to one
            node trivially satisfies ``failed <= f`` but cannot serve
            requests (Prop. 1d); fixed-size backends
            (:class:`~repro.sim.BatchSimulationResult`) omit it because
            their ``N`` never changes.
        average_nodes: Average replication factor ``J`` (Eq. 9 cost).
        average_cost: Node-level Eq. 5 cost per active slot-step.
        recovery_frequency: Executed recoveries per active slot-step.
        additions: Node additions requested by the system level.
        emergency_additions: Additions forced by the Prop. 1 invariant.
        evictions: Evicted (crashed) nodes.
        steps: Episode length.
        class_average_cost: Per-class Eq. 5 cost per active slot-step,
            one ``(B,)`` array per node class — present only for labelled
            (mixed) scenarios, else ``None``.
        class_recovery_frequency: Per-class executed recoveries per active
            slot-step, same convention.
        profile: Engine per-phase wall-clock accounting, when the run was
            requested with ``run(..., profile=True)``; the sharded sweeps
            (:mod:`repro.control.parallel`) merge per-shard profiles into
            this field at join.  Else ``None``.
    """

    availability: np.ndarray
    average_nodes: np.ndarray
    average_cost: np.ndarray
    recovery_frequency: np.ndarray
    additions: np.ndarray
    emergency_additions: np.ndarray
    evictions: np.ndarray
    steps: int
    class_average_cost: dict[str, np.ndarray] | None = None
    class_recovery_frequency: dict[str, np.ndarray] | None = None
    profile: "EngineProfile | None" = None

    @property
    def num_episodes(self) -> int:
        return int(self.availability.shape[0])

    def summary(self, confidence: float = 0.95) -> dict[str, tuple[float, float]]:
        """Aggregate ``(mean, ci)`` pairs across episodes."""
        return summarize_metric_arrays(
            {
                "availability": self.availability,
                "average_nodes": self.average_nodes,
                "average_cost": self.average_cost,
                "recovery_frequency": self.recovery_frequency,
            },
            confidence,
        )

    def class_summary(
        self, confidence: float = 0.95
    ) -> dict[str, dict[str, tuple[float, float]]]:
        """Per-class ``(mean, ci)`` pairs for labelled (mixed) scenarios."""
        if self.class_average_cost is None or self.class_recovery_frequency is None:
            raise ValueError(
                "per-class metrics require a labelled scenario; build it with "
                "FleetScenario.mixed(...)"
            )
        return {
            label: summarize_metric_arrays(
                {
                    "average_cost": self.class_average_cost[label],
                    "recovery_frequency": self.class_recovery_frequency[label],
                },
                confidence,
            )
            for label in self.class_average_cost
        }


@dataclass
class _DecisionTrace:
    """Per-step decision record used by the parity tests."""

    states: list = field(default_factory=list)
    adds: list = field(default_factory=list)
    emergencies: list = field(default_factory=list)
    evictions: list = field(default_factory=list)
    add_classes: list = field(default_factory=list)


class TwoLevelLoop:
    """Incremental executor of the batched two-level loop, one tick at a time.

    The loop owns everything :meth:`TwoLevelController.run` accumulates
    between engine steps — the active-slot mask, the metric accumulators,
    the per-episode :class:`VectorSystemController` and the optional
    decision/system traces — but **not** the engine state, which its driver
    advances between :meth:`pre_step` and :meth:`post_step`.  Its batch
    size is its system controller's ``num_episodes``, which need not be
    the controller's own ``num_envs``:

    * :meth:`TwoLevelController.run` drives the loop to the horizon with
      its own :class:`~repro.envs.VectorRecoveryEnv` (one fleet batch per
      engine call);
    * the decision service (:mod:`repro.serve`) drives one loop per
      *control group* — the cohort sessions that share a control
      configuration — over the members' concatenated episode rows, around
      one engine step shared by the whole cohort.

    Every per-tick control operation is row-independent (the policy's
    recover mask, the ``k``-recovery grants, the CMDP state, the slot
    activations and the per-episode uniform buffer of the system level),
    so both drivers execute the identical per-row arithmetic.  That is what
    makes service decisions bit-identical to a direct
    :meth:`TwoLevelController.run` on the same ``SeedSequence`` tree
    (asserted in ``tests/test_decision_service.py``).

    One tick is::

        mask = loop.pre_step(observation)       # node level: recoveries
        # driver advances the engine with `mask` (plus the BTR overrides)
        event = loop.post_step(observation', costs, info)   # system level

    where ``observation'`` is the post-step observation and ``info``
    carries the step's ``crashed``/``failed_mask`` arrays.
    """

    def __init__(
        self,
        controller: "TwoLevelController",
        system: VectorSystemController,
        policy_rng: np.random.Generator | None = None,
    ) -> None:
        self.controller = controller
        self.system = system
        self.policy_rng = policy_rng
        batch, slots = system.num_episodes, controller.smax
        self.t = 0
        self.active = np.zeros((batch, slots), dtype=bool)
        self.active[:, : controller.initial_nodes] = True
        self.available_steps = np.zeros(batch, dtype=np.int64)
        self.node_count_sum = np.zeros(batch, dtype=np.int64)
        self.cost_sum = np.zeros(batch)
        self.recovery_steps = np.zeros(batch, dtype=np.int64)
        self.active_slot_steps = np.zeros(batch, dtype=np.int64)
        self.class_slots = controller.class_slots
        if self.class_slots is not None:
            self._class_cost = {label: np.zeros(batch) for label in self.class_slots}
            self._class_recoveries = {
                label: np.zeros(batch, dtype=np.int64) for label in self.class_slots
            }
            self._class_steps = {
                label: np.zeros(batch, dtype=np.int64) for label in self.class_slots
            }
        self.trace = _DecisionTrace() if controller.record_decisions else None
        self._record = controller.record_system_trace
        self._states_t: list[np.ndarray] = []
        self._actions_t: list[np.ndarray] = []
        self._probs_t: list[np.ndarray] = []
        self._forced_t: list[np.ndarray] = []
        self._counts_t: list[np.ndarray] = []
        self._decision_counts_t: list[np.ndarray] = []
        self._available_t: list[np.ndarray] = []
        self._add_classes_t: list[np.ndarray] = []
        self._class_probs_t: list[np.ndarray] = []
        self._executed: np.ndarray | None = None

    @property
    def done(self) -> bool:
        return self.t >= self.controller.horizon

    def pre_step(self, observation: VectorObservation) -> np.ndarray:
        """Node level: decide this tick's recoveries from ``observation``.

        Returns the engine recover mask (granted voluntary recoveries plus
        every standby slot) **without** the BTR overrides — the driver ORs
        ``observation.forced`` in when it steps the engine, exactly as
        :meth:`~repro.envs.VectorRecoveryEnv.step` does.
        """
        if self.done:
            raise RuntimeError("the loop is done (horizon reached)")
        controller = self.controller
        active = self.active
        forced = observation.forced
        policy_observation = VectorObservation(
            beliefs=observation.beliefs,
            time_since_recovery=observation.time_since_recovery,
            forced=forced,
            active=active,
        )
        voluntary = (
            np.asarray(controller.recovery_policy.act(policy_observation, self.policy_rng))
            .astype(bool)
            & active
            & ~forced
        )
        granted = (
            controller._grant_recoveries(voluntary, observation.beliefs)
            if controller.respect_recovery_limit
            else voluntary
        )
        self.active_slot_steps += active.sum(axis=1)
        executed = (granted | forced) & active
        self.recovery_steps += executed.sum(axis=1)
        self._executed = executed
        # Standby slots recover every step, staying fresh for activation.
        return granted | ~active

    def post_step(
        self,
        observation: VectorObservation,
        costs: np.ndarray,
        info: dict,
        on_step: Callable[[TwoLevelStepEvent], None] | None = None,
    ) -> TwoLevelStepEvent:
        """System level: account the step and take the replication decision.

        ``observation``/``costs``/``info`` are the engine step's outputs
        (post-step beliefs, per-slot costs, ``crashed``/``failed_mask``).
        Returns the step's :class:`TwoLevelStepEvent` — the per-tick
        decision record the service hands back to its clients.
        """
        controller = self.controller
        active = self.active
        executed = self._executed
        if executed is None:
            raise RuntimeError("post_step called before pre_step")
        self._executed = None
        active_costs = costs * active
        self.cost_sum += active_costs.sum(axis=1)
        if self.class_slots is not None:
            for label, slots in self.class_slots.items():
                self._class_steps[label] += active[:, slots].sum(axis=1)
                self._class_recoveries[label] += executed[:, slots].sum(axis=1)
                self._class_cost[label] += active_costs[:, slots].sum(axis=1)

        crashed = info["crashed"]
        decision = self.system.step(
            observation.beliefs,
            reporting=active & ~crashed,
            registered=active,
            node_counts=active.sum(axis=1),
        )
        active = active & ~crashed
        activated = controller._activate_slots(
            active, decision.add_node, decision.add_class
        )
        self.active = active

        node_counts = active.sum(axis=1)
        self.node_count_sum += node_counts
        step_available = (
            (info["failed_mask"] & active).sum(axis=1) <= controller.f
        ) & (node_counts >= 2 * controller.f + 1)
        self.available_steps += step_available

        event = TwoLevelStepEvent(
            t=self.t,
            executed_recoveries=executed,
            crashed=crashed,
            failed=info["failed_mask"],
            decision=decision,
            activated=activated,
            active=active,
            available=step_available,
        )
        if on_step is not None:
            on_step(event)

        if self.trace is not None:
            self.trace.states.append(decision.state)
            self.trace.adds.append(decision.add_node)
            self.trace.emergencies.append(decision.emergency_add)
            self.trace.evictions.append(decision.evicted.sum(axis=1))
            self.trace.add_classes.append(
                decision.add_class
                if decision.add_class is not None
                else np.full(active.shape[0], -1, dtype=np.int64)
            )
        if self._record:
            self._states_t.append(decision.state)
            self._actions_t.append(decision.add_node)
            self._probs_t.append(decision.add_probability)
            self._forced_t.append(decision.emergency_add | decision.capped)
            self._counts_t.append(node_counts)
            self._decision_counts_t.append(decision.node_count_after_eviction)
            self._available_t.append(step_available)
            if decision.add_class is not None:
                self._add_classes_t.append(decision.add_class)
                self._class_probs_t.append(decision.action_probabilities)
        self.t += 1
        return event

    def build_system_trace(self) -> SystemTrace | None:
        """The recorded :class:`SystemTrace` (``None`` unless recording)."""
        if not self._record or not self._states_t:
            return None
        return SystemTrace(
            states=np.stack(self._states_t),
            actions=np.stack(self._actions_t),
            add_probabilities=np.stack(self._probs_t),
            forced=np.stack(self._forced_t),
            node_counts=np.stack(self._counts_t),
            decision_counts=np.stack(self._decision_counts_t),
            available=np.stack(self._available_t),
            add_classes=(
                np.stack(self._add_classes_t) if self._add_classes_t else None
            ),
            action_probabilities=(
                np.stack(self._class_probs_t) if self._class_probs_t else None
            ),
        )

    def result(self, profile: "EngineProfile | None" = None) -> TwoLevelResult:
        """Aggregate the accumulators into a :class:`TwoLevelResult`."""
        controller = self.controller
        steps = max(controller.horizon, 1)
        slot_steps = np.maximum(self.active_slot_steps, 1)
        class_average_cost = class_recovery_frequency = None
        if self.class_slots is not None:
            class_average_cost = {
                label: self._class_cost[label]
                / np.maximum(self._class_steps[label], 1)
                for label in self.class_slots
            }
            class_recovery_frequency = {
                label: self._class_recoveries[label]
                / np.maximum(self._class_steps[label], 1)
                for label in self.class_slots
            }
        return TwoLevelResult(
            availability=self.available_steps / steps,
            average_nodes=self.node_count_sum / steps,
            average_cost=self.cost_sum / slot_steps,
            recovery_frequency=self.recovery_steps / slot_steps,
            additions=self.system.total_additions.copy(),
            emergency_additions=self.system.emergency_additions.copy(),
            evictions=self.system.total_evictions.copy(),
            steps=steps,
            class_average_cost=class_average_cost,
            class_recovery_frequency=class_recovery_frequency,
            profile=profile,
        )


class TwoLevelController:
    """Batched closed-loop controller coupling both feedback levels.

    Args:
        scenario: Fleet scenario whose ``num_nodes`` is the slot-bank
            capacity ``smax`` and whose ``f`` defines availability; the
            horizon is the episode length.
        num_envs: Number of independent fleet episodes ``B``.
        recovery_policy: Node-level policy — any
            :class:`~repro.envs.policies.VectorPolicy`, or any recovery
            strategy / per-slot strategy sequence (wrapped via
            :class:`~repro.envs.policies.StrategyPolicy`).
        replication_strategy: System-level strategy ``pi(a | s)``; ``None``
            never adds nodes.
        initial_nodes: Initial replication factor ``N_1``; defaults to the
            minimum admissible ``2f + 1 + k`` (capped at ``smax``).
        k: Maximum parallel recoveries granted per step (Prop. 1c).
        enforce_invariant: Whether the system level force-adds nodes to
            keep ``N_t >= 2f + 1 + k``.
        respect_recovery_limit: Whether at most ``k`` voluntary recoveries
            are granted per episode-step (most suspicious beliefs first);
            BTR-forced recoveries are always executed.
        engine: Optional pre-built engine for ``scenario`` (sharing one
            across controllers skips recompiling the scenario kernels).
        record_system_trace: Record the per-step :class:`SystemTrace`
            (required by the PPO replication trainer and the
            system-identification loop).
        record_decisions: Record the per-step decision trace
            (:attr:`last_decision_trace`) that the scalar-vs-vectorized
            parity checks compare.  Off by default so the hot loop — and
            the batched side of the speedup measurement — carries no
            optional bookkeeping.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        num_envs: int,
        recovery_policy: VectorPolicy | RecoveryStrategy | BatchStrategy | Sequence,
        replication_strategy: ReplicationStrategy | None = None,
        initial_nodes: int | None = None,
        k: int = 1,
        enforce_invariant: bool = True,
        respect_recovery_limit: bool = True,
        engine: BatchRecoveryEngine | None = None,
        record_system_trace: bool = False,
        record_decisions: bool = False,
    ) -> None:
        if scenario.f is None:
            raise ValueError(
                "the scenario must define a tolerance threshold f (the system "
                "level plans against it); pass f=... to "
                "FleetScenario.homogeneous/.mixed"
            )
        if k < 1:
            raise ValueError("k must be >= 1")
        self.scenario = scenario
        self.f = scenario.f
        self.k = k
        self.smax = scenario.num_nodes
        minimum = 2 * self.f + 1 + k
        if initial_nodes is None:
            initial_nodes = min(minimum, self.smax)
        if not 1 <= initial_nodes <= self.smax:
            raise ValueError(
                f"initial_nodes must lie in [1, {self.smax}], got {initial_nodes}"
            )
        self.initial_nodes = initial_nodes
        self.enforce_invariant = enforce_invariant
        self.respect_recovery_limit = respect_recovery_limit
        self.replication_strategy = replication_strategy
        self.recovery_policy: VectorPolicy = (
            recovery_policy
            if hasattr(recovery_policy, "act")
            else StrategyPolicy(recovery_policy)
        )
        self.env = VectorRecoveryEnv(scenario, num_envs, engine)
        self.record_system_trace = record_system_trace
        self.record_decisions = record_decisions
        self.system_trace: SystemTrace | None = None
        self.last_decision_trace: _DecisionTrace | None = None
        #: Slot indices per container class for labelled (mixed) scenarios;
        #: drives the per-class metric accounting of both run paths.
        self.class_slots: dict[str, np.ndarray] | None = (
            scenario.class_slots() if scenario.node_labels is not None else None
        )
        #: Slot indices per strategy class index, for class-aware
        #: replication strategies: an add(c) decision activates the first
        #: free slot of class c (falling back to the first free slot of any
        #: class when c's sub-fleet is exhausted), on both run paths.
        self._strategy_class_slots: list[np.ndarray] | None = None
        if replication_strategy is not None and strategy_is_class_aware(
            replication_strategy
        ):
            if self.class_slots is None:
                raise ValueError(
                    "a class-aware replication strategy requires a labelled "
                    "scenario; build it with FleetScenario.mixed(...)"
                )
            missing = [
                name
                for name in replication_strategy.class_names
                if name not in self.class_slots
            ]
            if missing:
                raise ValueError(
                    f"replication strategy chooses among classes {missing} "
                    f"that the scenario does not define "
                    f"(available: {sorted(self.class_slots)})"
                )
            self._strategy_class_slots = [
                self.class_slots[name] for name in replication_strategy.class_names
            ]

    # -- interface properties ----------------------------------------------------
    @property
    def num_envs(self) -> int:
        return self.env.num_envs

    @property
    def horizon(self) -> int:
        return self.scenario.horizon

    # -- seed tree ----------------------------------------------------------------
    def _system_seed_sequences(
        self, seed: int | None
    ) -> list[np.random.SeedSequence] | None:
        """Per-episode controller streams from the shared episode seed tree.

        The engine consumes children ``0 .. B*N-1`` of ``SeedSequence(seed)``
        (episode-major); the system controllers take the next ``B`` children,
        so one seed reproduces the entire closed loop — including the scalar
        reference, which hands child ``B*N + b`` to episode ``b``'s scalar
        controller.
        """
        if self.replication_strategy is None or not strategy_consumes_rng(
            self.replication_strategy
        ):
            return None
        total = self.num_envs * self.smax
        children = np.random.SeedSequence(seed).spawn(total + self.num_envs)
        return children[total:]

    # -- batched closed loop -------------------------------------------------------
    def run(
        self,
        seed: int | None = None,
        policy_rng: np.random.Generator | None = None,
        on_step: Callable[[TwoLevelStepEvent], None] | None = None,
        uniforms: np.ndarray | None = None,
        system_seed_sequences: Sequence[np.random.SeedSequence] | None = None,
        profile: bool = False,
        adversary_uniforms: np.ndarray | None = None,
    ) -> TwoLevelResult:
        """Run one batch of ``B`` closed-loop episodes.

        Args:
            seed: Episode seed; seeds the engine's per-(episode, node)
                streams and the per-episode system-controller streams from
                one ``SeedSequence`` tree.
            policy_rng: Generator handed to stochastic node-level policies
                (deterministic strategies ignore it).
            on_step: Observer called once per step with a
                :class:`TwoLevelStepEvent` after the step's recoveries,
                evictions and additions have been applied; the consensus
                integration mirrors controller decisions onto a live
                cluster through it.
            uniforms: Pre-drawn ``(B, N, width)`` engine uniform buffer
                overriding the seed tree — e.g. an episode slice of the
                full batch's buffer, which is how the sharded sweeps
                (:mod:`repro.control.parallel`) replay episodes
                ``[lo, hi)`` of a larger run bit for bit.  Mutually
                exclusive with ``seed``.
            system_seed_sequences: Explicit per-episode controller seed
                sequences overriding the seed tree's tail children (one
                per episode); used together with ``uniforms`` by the
                sharded sweeps.  Ignored for deterministic replication
                strategies, matching the seed-tree convention.
            profile: Record the engine's per-phase wall-clock time into
                :attr:`TwoLevelResult.profile`.
            adversary_uniforms: Pre-drawn ``(B, horizon, K)`` adversary
                uniform buffer accompanying ``uniforms`` when the
                scenario's adversary is dynamic (see
                :mod:`repro.sim.adversary`); sliced per shard by the
                sharded sweeps exactly like ``uniforms``.
        """
        env = self.env
        observation = env.reset(
            seed=seed,
            uniforms=uniforms,
            profile=profile,
            adversary_uniforms=adversary_uniforms,
        )
        loop = self.begin_loop(
            seed=seed,
            policy_rng=policy_rng,
            system_seed_sequences=system_seed_sequences,
        )
        for _ in range(self.horizon):
            mask = loop.pre_step(observation)
            observation, costs, _, info = env.step(mask)
            loop.post_step(observation, costs, info, on_step)

        self.last_decision_trace = loop.trace
        if self.record_system_trace:
            self.system_trace = loop.build_system_trace()
        return loop.result(profile=env.profile if profile else None)

    def begin_loop(
        self,
        seed: int | None = None,
        policy_rng: np.random.Generator | None = None,
        system_seed_sequences: Sequence[np.random.SeedSequence] | None = None,
        num_envs: int | None = None,
    ) -> TwoLevelLoop:
        """Create the incremental per-tick executor of this controller's loop.

        :meth:`run` drives the returned :class:`TwoLevelLoop` to the
        horizon around its own environment; the decision service drives it
        one tick at a time around a fused engine step shared with other
        sessions.  The system-controller seed sequences follow the same
        convention as :meth:`run` (tail children of the shared episode seed
        tree unless given explicitly).  ``num_envs`` sizes the loop's batch
        (default: this controller's ``num_envs``); the service passes the
        row count of several sessions that share this control
        configuration, together with their concatenated seed-sequence tails.
        """
        system = VectorSystemController(
            f=self.f,
            k=self.k,
            strategy=self.replication_strategy,
            smax=self.smax,
            enforce_invariant=self.enforce_invariant,
            num_episodes=self.num_envs if num_envs is None else num_envs,
            horizon=self.horizon,
            seed_sequences=(
                system_seed_sequences
                if system_seed_sequences is not None
                else self._system_seed_sequences(seed)
            ),
        )
        return TwoLevelLoop(self, system, policy_rng)

    def _activate_slots(
        self,
        active: np.ndarray,
        add_mask: np.ndarray,
        add_class: np.ndarray | None,
    ) -> np.ndarray:
        """Activate one standby slot per adding episode, in place.

        Classless adds (and class-aware emergency adds, ``add_class == -1``)
        claim the first free slot; a class-aware ``add(c)`` claims the first
        free slot of class ``c``'s sub-fleet, falling back to the first free
        slot of any class when the sub-fleet is exhausted.  The scalar
        reference applies the identical rule one episode at a time.

        Returns the activated slot index per episode (``-1`` where the
        episode added nothing), for ``on_step`` observers.
        """
        activated = np.full(active.shape[0], -1, dtype=np.int64)
        if not add_mask.any():
            return activated
        rows = np.flatnonzero(add_mask)
        targets = (~active).argmax(axis=1)[rows]
        if self._strategy_class_slots is not None and add_class is not None:
            classes = add_class[rows]
            for c, slots in enumerate(self._strategy_class_slots):
                members = np.flatnonzero(classes == c)
                if members.size == 0:
                    continue
                free = ~active[np.ix_(rows[members], slots)]
                has_free = free.any(axis=1)
                chosen = slots[free.argmax(axis=1)]
                targets[members[has_free]] = chosen[has_free]
        active[rows, targets] = True
        activated[rows] = targets
        return activated

    def _grant_recoveries(
        self, requests: np.ndarray, beliefs: np.ndarray
    ) -> np.ndarray:
        """Grant at most ``k`` voluntary recoveries per episode (Prop. 1c).

        Most suspicious requests first, ties broken by slot index — the
        same stable ordering the scalar reference's ``sorted`` applies.
        """
        keys = np.where(requests, -beliefs, np.inf)
        order = np.argsort(keys, axis=1, kind="stable")
        granted = np.zeros_like(requests)
        rows = np.arange(requests.shape[0])[:, None]
        head = order[:, : self.k]
        granted[rows, head] = requests[rows, head]
        return granted

    # -- scalar reference ----------------------------------------------------------
    def run_scalar_reference(self, seed: int | None = None) -> TwoLevelResult:
        """Run the identical closed loop one episode at a time.

        Episode ``b`` replays row ``b`` of the batched run bit for bit: the
        engine consumes the same per-(episode, node) uniform streams (via a
        slice of the shared buffer) and a scalar
        :class:`~repro.core.system_controller.SystemController` seeded with
        the same seed-tree child takes every system-level decision.  Kept
        as the parity reference and the speedup baseline — the decision
        trace (:attr:`last_decision_trace`) matches :meth:`run` exactly
        under a shared seed.
        """
        engine = self.env.engine
        batch, slots = self.num_envs, self.smax
        if engine.is_dynamic and seed is None:
            from ..sim.adversary import resolve_adversary_entropy

            seed = resolve_adversary_entropy(None)
        uniforms = engine.draw_uniforms(seed, batch)
        adversary_uniforms = engine.draw_adversary_uniforms(seed, batch)
        sequences = self._system_seed_sequences(seed)

        availability = np.zeros(batch)
        average_nodes = np.zeros(batch)
        average_cost = np.zeros(batch)
        recovery_frequency = np.zeros(batch)
        additions = np.zeros(batch, dtype=np.int64)
        emergencies = np.zeros(batch, dtype=np.int64)
        evictions = np.zeros(batch, dtype=np.int64)
        class_slots = self.class_slots
        if class_slots is not None:
            class_average_cost = {label: np.zeros(batch) for label in class_slots}
            class_recovery_frequency = {
                label: np.zeros(batch) for label in class_slots
            }
        trace = _DecisionTrace() if self.record_decisions else None
        if trace is not None:
            trace.states = [[] for _ in range(batch)]
            trace.adds = [[] for _ in range(batch)]
            trace.emergencies = [[] for _ in range(batch)]
            trace.evictions = [[] for _ in range(batch)]
            trace.add_classes = [[] for _ in range(batch)]

        for b in range(batch):
            sim = engine.begin(
                uniforms=uniforms[b : b + 1],
                adversary_uniforms=(
                    adversary_uniforms[b : b + 1]
                    if adversary_uniforms is not None
                    else None
                ),
            )
            controller = SystemController(
                f=self.f,
                k=self.k,
                strategy=self.replication_strategy,
                smax=slots,
                enforce_invariant=self.enforce_invariant,
                seed=sequences[b] if sequences is not None else None,
            )
            active = np.zeros(slots, dtype=bool)
            active[: self.initial_nodes] = True
            available_steps = 0
            node_count_sum = 0
            cost_sum = 0.0
            recovery_steps = 0
            active_slot_steps = 0
            if class_slots is not None:
                episode_class_cost = {label: 0.0 for label in class_slots}
                episode_class_recoveries = {label: 0 for label in class_slots}
                episode_class_steps = {label: 0 for label in class_slots}

            for _ in range(self.horizon):
                forced = engine.forced_recoveries(sim)[0]
                observation = VectorObservation(
                    beliefs=sim.belief,
                    time_since_recovery=sim.time_since_recovery,
                    forced=forced[None, :],
                    active=active[None, :],
                )
                voluntary = (
                    np.asarray(self.recovery_policy.act(observation, None))[0]
                    .astype(bool)
                    & active
                    & ~forced
                )
                if self.respect_recovery_limit:
                    requested = [j for j in range(slots) if voluntary[j]]
                    requested.sort(key=lambda j: -sim.belief[0, j])
                    granted = np.zeros(slots, dtype=bool)
                    granted[requested[: self.k]] = True
                else:
                    granted = voluntary
                active_slot_steps += int(active.sum())
                executed = (granted | forced) & active
                recovery_steps += int(executed.sum())
                mask = granted | ~active
                costs = engine.step(sim, (mask | forced)[None, :], btr_applied=True)
                cost_sum += float(costs[0][active].sum())
                if class_slots is not None:
                    active_costs = costs[0] * active
                    for label, indices in class_slots.items():
                        episode_class_steps[label] += int(active[indices].sum())
                        episode_class_recoveries[label] += int(executed[indices].sum())
                        episode_class_cost[label] += float(active_costs[indices].sum())

                crashed = sim.last_crashed[0]
                reported = {
                    j: float(sim.belief[0, j])
                    for j in range(slots)
                    if active[j] and not crashed[j]
                }
                registered = {j for j in range(slots) if active[j]}
                decision = controller.step(
                    reported_beliefs=reported,
                    registered_nodes=registered,
                    current_node_count=int(active.sum()),
                )
                active = active & ~crashed
                if decision.add_node:
                    target = int(np.argmax(~active))
                    if (
                        self._strategy_class_slots is not None
                        and decision.add_class is not None
                    ):
                        class_slot_indices = self._strategy_class_slots[
                            decision.add_class
                        ]
                        free = ~active[class_slot_indices]
                        if free.any():
                            target = int(class_slot_indices[int(np.argmax(free))])
                    active[target] = True

                count = int(active.sum())
                node_count_sum += count
                failed = sim.last_failed_mask[0]
                available_steps += int(
                    (failed & active).sum() <= self.f and count >= 2 * self.f + 1
                )
                if trace is not None:
                    trace.states[b].append(decision.state)
                    trace.adds[b].append(decision.add_node)
                    trace.emergencies[b].append(decision.emergency_add)
                    trace.evictions[b].append(len(decision.evicted_nodes))
                    trace.add_classes[b].append(
                        decision.add_class if decision.add_class is not None else -1
                    )

            steps = max(self.horizon, 1)
            slot_steps = max(active_slot_steps, 1)
            availability[b] = available_steps / steps
            average_nodes[b] = node_count_sum / steps
            average_cost[b] = cost_sum / slot_steps
            recovery_frequency[b] = recovery_steps / slot_steps
            additions[b] = controller.total_additions
            emergencies[b] = controller.emergency_additions
            evictions[b] = controller.total_evictions
            if class_slots is not None:
                for label in class_slots:
                    denominator = max(episode_class_steps[label], 1)
                    class_average_cost[label][b] = (
                        episode_class_cost[label] / denominator
                    )
                    class_recovery_frequency[label][b] = (
                        episode_class_recoveries[label] / denominator
                    )

        if trace is not None:
            # Transpose the per-episode lists into per-step arrays matching run().
            trace.states = [
                np.array([trace.states[b][t] for b in range(batch)], dtype=np.int64)
                for t in range(self.horizon)
            ]
            trace.adds = [
                np.array([trace.adds[b][t] for b in range(batch)], dtype=bool)
                for t in range(self.horizon)
            ]
            trace.emergencies = [
                np.array([trace.emergencies[b][t] for b in range(batch)], dtype=bool)
                for t in range(self.horizon)
            ]
            trace.evictions = [
                np.array([trace.evictions[b][t] for b in range(batch)], dtype=np.int64)
                for t in range(self.horizon)
            ]
            trace.add_classes = [
                np.array(
                    [trace.add_classes[b][t] for b in range(batch)], dtype=np.int64
                )
                for t in range(self.horizon)
            ]
        self.last_decision_trace = trace
        return TwoLevelResult(
            availability=availability,
            average_nodes=average_nodes,
            average_cost=average_cost,
            recovery_frequency=recovery_frequency,
            additions=additions,
            emergency_additions=emergencies,
            evictions=evictions,
            steps=max(self.horizon, 1),
            class_average_cost=(
                class_average_cost if class_slots is not None else None
            ),
            class_recovery_frequency=(
                class_recovery_frequency if class_slots is not None else None
            ),
        )
