"""Vectorized recovery environments over the bit-exact batch engine.

:class:`VectorRecoveryEnv` advances ``B`` independent episodes of a
:class:`~repro.sim.FleetScenario` per array operation by driving the
stepwise API of :class:`~repro.sim.BatchRecoveryEngine`.  Because the
engine consumes the same per-episode ``SeedSequence`` streams as the scalar
:class:`~repro.solvers.evaluation.RecoverySimulator`, an episode stepped
through this environment under a strategy's decisions is **bit-identical**
to the corresponding scalar episode — which is what makes the PPO rollout
refactor and the environment test suite exact rather than statistical.

:class:`FleetVectorEnv` extends the recovery environment with the
system-level quantities of Section V-B: the per-episode CMDP state
``s_t = floor(sum_i (1 - b_{i,t}))`` (Eq. 8, what the system controller
conditions its replication decision on), per-step failed-node counts, and
fleet availability ``T^(A)`` — feeding heterogeneous N-node sweeps and the
empirical ``f_S`` transition counts used by Algorithm 2.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.node_model import NodeParameters
from ..core.observation import ObservationModel
from ..sim import BatchRecoveryEngine, BatchSimulationResult, FleetScenario
from ..sim.engine import BatchEpisodeState
from .base import VectorObservation

__all__ = ["VectorRecoveryEnv", "FleetVectorEnv"]


class VectorRecoveryEnv:
    """Batched step/reset environment over the vectorized recovery simulator.

    Args:
        scenario: The fleet of node POMDPs one episode simulates.
        num_envs: Number of independent episodes ``B`` advanced per step.
        engine: Optional pre-built engine for ``scenario`` (rebuilding the
            engine recompiles the scenario kernels; sharing one across
            environments avoids that).
        track_metrics: Track recovery/compromise/delay statistics so that
            :meth:`result` reports them (the default).  Rollout consumers
            that only need costs and observations — the PPO collector —
            switch this off for a faster step.
        copy_observations: Return defensive copies of the belief/clock
            arrays in every observation (the default).  With ``False`` the
            observation holds views that the next :meth:`step` may
            invalidate — safe for consumers that derive their features
            before stepping, and one allocation cheaper per step.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        num_envs: int,
        engine: BatchRecoveryEngine | None = None,
        track_metrics: bool = True,
        copy_observations: bool = True,
    ) -> None:
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        self.scenario = scenario
        self._num_envs = num_envs
        self.engine = engine if engine is not None else BatchRecoveryEngine(scenario)
        self._track_metrics = track_metrics
        self._copy_observations = copy_observations
        self._active = np.ones((num_envs, scenario.num_nodes), dtype=bool)
        self._last_forced: np.ndarray | None = None
        self._sim: BatchEpisodeState | None = None

    @classmethod
    def single_node(
        cls,
        params: NodeParameters,
        observation_model: ObservationModel,
        num_envs: int,
        horizon: int = 200,
        enforce_btr: bool = True,
    ) -> "VectorRecoveryEnv":
        """Environment over a single-node scenario (the Problem 1 setting)."""
        scenario = FleetScenario.single_node(
            params, observation_model, horizon=horizon, enforce_btr=enforce_btr
        )
        return cls(scenario, num_envs)

    # -- interface properties ---------------------------------------------------
    @property
    def num_envs(self) -> int:
        return self._num_envs

    @property
    def num_nodes(self) -> int:
        return self.scenario.num_nodes

    @property
    def horizon(self) -> int:
        return self.scenario.horizon

    @property
    def done(self) -> bool:
        return self._sim is not None and self._sim.t >= self.horizon

    # -- step/reset -------------------------------------------------------------
    def reset(
        self,
        seed: int | None = None,
        uniforms: np.ndarray | None = None,
        profile: bool = False,
        adversary_uniforms: np.ndarray | None = None,
    ) -> VectorObservation:
        """Start ``B`` fresh episodes from the per-episode seed tree.

        ``seed`` seeds the same ``SeedSequence`` tree the scalar simulator
        and :meth:`BatchRecoveryEngine.run` use; ``None`` draws OS entropy
        (non-reproducible), matching their convention.

        ``uniforms`` bypasses the seed tree with a pre-drawn
        ``(num_envs, N, width)`` buffer — e.g. a contiguous episode slice
        of :meth:`~repro.sim.BatchRecoveryEngine.draw_uniforms`, which is
        how the sharded sweeps of :mod:`repro.control.parallel` replay
        rows ``[lo, hi)`` of a larger batch bit for bit.  Mutually
        exclusive with ``seed``.  When the scenario carries a dynamic
        :class:`~repro.sim.adversary.AdversaryProcess`, pass the matching
        episode slice of
        :meth:`~repro.sim.BatchRecoveryEngine.draw_adversary_uniforms` as
        ``adversary_uniforms`` (the seed path draws it automatically).
        ``profile=True`` attaches an
        :class:`~repro.sim.kernels.EngineProfile` (read it back via
        :attr:`profile`).
        """
        if uniforms is not None:
            if seed is not None:
                raise ValueError("pass either uniforms or seed, not both")
            uniforms = np.asarray(uniforms, dtype=float)
            if uniforms.ndim != 3 or uniforms.shape[0] != self._num_envs:
                raise ValueError(
                    f"uniforms must have shape (num_envs={self._num_envs}, "
                    f"num_nodes, width), got {uniforms.shape}"
                )
            self._sim = self.engine.begin(
                uniforms=uniforms,
                track_metrics=self._track_metrics,
                profile=profile,
                adversary_uniforms=adversary_uniforms,
            )
        else:
            self._sim = self.engine.begin(
                self._num_envs,
                seed=seed,
                track_metrics=self._track_metrics,
                profile=profile,
                adversary_uniforms=adversary_uniforms,
            )
        return self._observation()

    @property
    def profile(self):
        """The :class:`~repro.sim.kernels.EngineProfile` of the current
        episode batch, when it was requested with ``reset(profile=True)``;
        else ``None``."""
        return self._sim.profile if self._sim is not None else None

    def step(
        self, recover: np.ndarray
    ) -> tuple[VectorObservation, np.ndarray, bool, dict[str, Any]]:
        sim = self._require_running()
        shape = (self._num_envs, self.num_nodes)
        recover = np.asarray(recover, dtype=bool)
        if recover.shape != shape:
            recover = np.broadcast_to(recover, shape)
        # The forced mask shown in the last observation is exactly the BTR
        # override the engine would recompute; OR it in here and tell the
        # engine so.
        costs = self.engine.step(sim, recover | self._last_forced, btr_applied=True)
        observation = self._observation()
        info = self._info(sim)
        return observation, costs, sim.t >= self.horizon, info

    def result(self) -> BatchSimulationResult:
        """Per-episode statistics of the current (or finished) episodes.

        Identical to what :meth:`BatchRecoveryEngine.run` returns for the
        same seed and decision sequence.  Raises for environments built
        with ``track_metrics=False`` (no statistics were accumulated).
        """
        return self.engine.finalize(self._require_started())

    # -- internals ---------------------------------------------------------------
    def _require_started(self) -> BatchEpisodeState:
        if self._sim is None:
            raise RuntimeError("reset() must be called before stepping the environment")
        return self._sim

    def _require_running(self) -> BatchEpisodeState:
        sim = self._require_started()
        if sim.t >= self.horizon:
            raise RuntimeError(
                "the episode batch is done (horizon reached); call reset() first"
            )
        return sim

    def _observation(self) -> VectorObservation:
        sim = self._require_started()
        copy = self._copy_observations
        forced = self.engine.forced_recoveries(sim)
        self._last_forced = forced
        return VectorObservation(
            beliefs=sim.belief.copy() if copy else sim.belief,
            time_since_recovery=(
                sim.time_since_recovery.copy() if copy else sim.time_since_recovery
            ),
            forced=forced,
            active=self._active,
        )

    def _info(self, sim: BatchEpisodeState) -> dict[str, Any]:
        info: dict[str, Any] = {"t": sim.t}
        if sim.last_crashed is not None:
            info["crashed"] = sim.last_crashed
        if sim.last_failed_mask is not None:
            info["failed_mask"] = sim.last_failed_mask
        return info


class FleetVectorEnv(VectorRecoveryEnv):
    """System-level vectorized environment over an ``N``-node fleet.

    On top of :class:`VectorRecoveryEnv`, every step's info dict carries

    * ``system_state`` — the per-episode CMDP state ``s_t`` of Eq. 8
      (expected number of healthy nodes, from the post-step beliefs), shape
      ``(B,)``;
    * ``failed_nodes`` — ground-truth failed-node counts, shape ``(B,)``
      (present when the scenario defines a tolerance threshold ``f``);

    and the environment records the system-state trajectory so that
    :meth:`system_state_transitions` can produce empirical ``(s_t, s_{t+1})``
    counts for fitting the system transition kernel ``f_S`` consumed by
    Algorithm 2 / the CMDP evaluation.
    """

    def __init__(
        self,
        scenario: FleetScenario,
        num_envs: int,
        engine: BatchRecoveryEngine | None = None,
    ) -> None:
        super().__init__(scenario, num_envs, engine)
        self._system_states: list[np.ndarray] = []
        self._class_slots: dict[str, np.ndarray] | None = (
            scenario.class_slots() if scenario.node_labels is not None else None
        )
        self._class_states: dict[str, list[np.ndarray]] = {}
        self._class_available_steps: dict[str, np.ndarray] = {}

    @property
    def num_replication_actions(self) -> int:
        """Size of the system-level action space over this fleet.

        ``1 + C`` for a labelled (mixed) scenario — wait plus one add
        action per container class — and the classless ``2`` otherwise.
        This is the action dimension a class-aware replication policy
        (:func:`repro.control.train_ppo_replication` with
        ``class_aware=True``) learns over.
        """
        if self._class_slots is None:
            return 2
        return 1 + len(self._class_slots)

    def expected_healthy_nodes(self) -> np.ndarray:
        """Per-episode CMDP state ``s_t = floor(sum_i (1 - b_i))`` (Eq. 8)."""
        sim = self._require_started()
        total = (1.0 - sim.belief).sum(axis=1)
        return np.clip(np.floor(total), 0, self.num_nodes).astype(np.int64)

    def expected_healthy_nodes_by_class(self) -> dict[str, np.ndarray]:
        """Per-class Eq. 8 states: the sum restricted to each class's slots.

        Requires a labelled (mixed) scenario.  Each class state lives in
        ``{0, ..., count_c}``, the sub-fleet counterpart of the global CMDP
        state — the input of the per-class ``f_S`` fits in
        :func:`repro.control.sysid.fit_system_models_per_class`.
        """
        if self._class_slots is None:
            raise ValueError(
                "per-class states require a labelled scenario; build it with "
                "FleetScenario.mixed(...)"
            )
        sim = self._require_started()
        states: dict[str, np.ndarray] = {}
        for label, slots in self._class_slots.items():
            total = (1.0 - sim.belief[:, slots]).sum(axis=1)
            states[label] = np.clip(np.floor(total), 0, len(slots)).astype(np.int64)
        return states

    def reset(
        self,
        seed: int | None = None,
        uniforms: np.ndarray | None = None,
        profile: bool = False,
        adversary_uniforms: np.ndarray | None = None,
    ) -> VectorObservation:
        observation = super().reset(
            seed,
            uniforms=uniforms,
            profile=profile,
            adversary_uniforms=adversary_uniforms,
        )
        self._system_states = [self.expected_healthy_nodes()]
        if self._class_slots is not None:
            self._class_states = {
                label: [state]
                for label, state in self.expected_healthy_nodes_by_class().items()
            }
            self._class_available_steps = {
                label: np.zeros(self.num_envs, dtype=np.int64)
                for label in self._class_slots
            }
        return observation

    def step(
        self, recover: np.ndarray
    ) -> tuple[VectorObservation, np.ndarray, bool, dict[str, Any]]:
        observation, costs, done, info = super().step(recover)
        system_state = self.expected_healthy_nodes()
        self._system_states.append(system_state)
        info["system_state"] = system_state
        if self._class_slots is not None:
            for label, state in self.expected_healthy_nodes_by_class().items():
                self._class_states[label].append(state)
            failed_mask = info.get("failed_mask")
            if failed_mask is not None and self.scenario.f is not None:
                for label, slots in self._class_slots.items():
                    threshold = min(self.scenario.f, len(slots))
                    self._class_available_steps[label] += (
                        failed_mask[:, slots].sum(axis=1) <= threshold
                    )
        sim = self._require_started()
        if sim.last_failed is not None:
            info["failed_nodes"] = sim.last_failed
        return observation, costs, done, info

    def availability(self) -> np.ndarray | None:
        """Per-episode fleet availability ``T^(A)`` so far, shape ``(B,)``."""
        sim = self._require_started()
        if sim.available_steps is None:
            return None
        return sim.available_steps / max(sim.t, 1)

    def class_availability(self) -> dict[str, np.ndarray]:
        """Per-class availability so far: one ``(B,)`` array per class.

        A class sub-fleet counts as available on a step when at most
        ``min(f, count_c)`` of its nodes are failed — the sub-fleet
        counterpart of the fleet-level ``T^(A)``, and the per-class signal
        a class-aware replication policy trades off against the add cost.
        Requires a labelled scenario with a tolerance threshold ``f``.
        """
        if self._class_slots is None:
            raise ValueError(
                "per-class availability requires a labelled scenario; build "
                "it with FleetScenario.mixed(...)"
            )
        if self.scenario.f is None:
            raise ValueError(
                "per-class availability requires the scenario to define f"
            )
        sim = self._require_started()
        steps = max(sim.t, 1)
        return {
            label: counts / steps
            for label, counts in self._class_available_steps.items()
        }

    def system_state_transitions(self) -> np.ndarray:
        """Observed ``(s_t, s_{t+1})`` pairs across all episodes, shape ``(K, 2)``.

        The empirical counterpart of the ``f_S`` estimation step: aggregate
        the pairs into a count matrix to fit the system CMDP transition
        kernel from simulation instead of testbed traces.
        """
        if len(self._system_states) < 2:
            return np.empty((0, 2), dtype=np.int64)
        states = np.stack(self._system_states)  # (T + 1, B)
        pairs = np.stack([states[:-1].ravel(), states[1:].ravel()], axis=1)
        return pairs

    def class_state_transitions(self) -> dict[str, np.ndarray]:
        """Per-class ``(s_t, s_{t+1})`` pairs across all episodes.

        The mixed-fleet counterpart of :meth:`system_state_transitions`:
        each class's pairs live in its own sub-fleet state space
        ``{0, ..., count_c}`` and feed one empirical kernel per container
        class.  Requires a labelled scenario.
        """
        if self._class_slots is None:
            raise ValueError(
                "per-class transitions require a labelled scenario; build it "
                "with FleetScenario.mixed(...)"
            )
        transitions: dict[str, np.ndarray] = {}
        # Key off the scenario's classes (not the recorded dict) so an env
        # that was never reset still reports every class, with empty pairs.
        for label in self._class_slots:
            recorded = self._class_states.get(label, [])
            if len(recorded) < 2:
                transitions[label] = np.empty((0, 2), dtype=np.int64)
                continue
            states = np.stack(recorded)  # (T + 1, B)
            transitions[label] = np.stack(
                [states[:-1].ravel(), states[1:].ravel()], axis=1
            )
        return transitions
