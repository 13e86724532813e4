"""Vectorized batch simulation of the node POMDP (Problem 1).

:class:`BatchRecoveryEngine` advances ``B`` episodes x ``N`` nodes
simultaneously as NumPy array operations: batched hidden-state transitions
(``f_N``), batched observation sampling from ``Z``, the batched two-state
belief recursion of Appendix A, batched strategy application, and batched
cost/metric accumulation.  All per-episode state is held in arrays of shape
``(B, N)`` (episodes are rows, nodes are columns).

Exactness
---------

The engine is not merely statistically equivalent to the scalar
:class:`~repro.solvers.evaluation.RecoverySimulator` -- it is **bit-exact**
per episode.  Three properties make that possible:

1. *Counter-free randomness.*  Each ``(episode, node)`` pair draws its
   uniforms from an independent child of ``numpy.random.SeedSequence(seed)``
   (episode-major order), the same streams the scalar simulator consumes
   when run one episode at a time.  The uniforms are pre-generated into a
   ``(B, N, 2 * horizon)`` buffer and consumed through a per-stream cursor,
   so the skip-on-crash draw pattern of the scalar loop is reproduced.
2. *Exact categorical inversion.*  ``Generator.choice(n, p)`` internally
   inverts the CDF ``p.cumsum() / p.cumsum()[-1]`` on one uniform double;
   the engine precomputes the same CDFs
   (:meth:`~repro.core.node_model.NodeTransitionModel.sampling_cdf`,
   :meth:`~repro.core.observation.ObservationModel.sampling_cdf`) and
   inverts them with vectorized comparisons.
3. *Bit-compatible belief updates.*  The batched prediction step evaluates
   the same ``vector @ matrix`` product as the scalar update (see
   :func:`repro.core.belief._batch_two_state_posterior`), whose rounding
   matches the scalar BLAS path bit for bit.

``tests/test_sim_equivalence.py`` asserts the resulting exact parity for
every strategy class.

Backends
--------

The belief kernels live behind one of two backends
(:mod:`repro.sim.kernels`), selected with
``BatchRecoveryEngine(scenario, backend=...)``: ``fused`` (default) runs
the update as flat gathers plus one fused multiply-add and closes a static
run in its own table-driven loop; ``reference`` updates node by node and
runs through the engine's generic step loop (:meth:`begin`, then per step
the strategies and one :meth:`step`, then :meth:`finalize`), the same loop
every backend uses for dynamic adversaries.  Both are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter_ns
from typing import NamedTuple, Sequence

import numpy as np

from ..core.metrics import summarize_metric_arrays
from ..core.node_model import NodeState
from ..core.strategies import RecoveryStrategy
from .adversary import (
    StaticAdversary,
    draw_adversary_uniforms as _draw_adversary_uniforms,
    resolve_adversary_entropy,
)
from .kernels import BACKENDS, EngineProfile, resolve_backend
from .scenario import FleetScenario
from .strategies import BatchMultiThreshold, BatchStrategy, as_batch_strategy

__all__ = ["BatchEpisodeState", "BatchSimulationResult", "BatchRecoveryEngine"]

_HEALTHY = int(NodeState.HEALTHY)
_COMPROMISED = int(NodeState.COMPROMISED)
_CRASHED = int(NodeState.CRASHED)

# Memo of seeded uniform buffers keyed (seed, B, N, width); the arrays are
# marked read-only before caching.  FIFO-bounded, and very large buffers are
# never cached so the memo cannot pin hundreds of megabytes.
_UNIFORM_CACHE: dict[tuple, np.ndarray] = {}
_UNIFORM_CACHE_MAX_ENTRIES = 8
_UNIFORM_CACHE_MAX_ELEMENTS = 8_000_000  # 64 MB of float64 per entry


class _SharedStreams(NamedTuple):
    """An ``(M, N, W)`` uniform buffer read by ``repeat * M`` episodes.

    Episode ``b`` reads buffer row ``b mod M``: ``repeat`` groups of ``M``
    episodes share the same streams (common random numbers), in the row
    order ``np.tile(uniforms, (repeat, 1, 1))`` would give, without the
    copy.  :meth:`BatchRecoveryEngine._simulate` receives the layout in its
    ``uniforms`` slot because ``perfbench/tracing.py`` wraps that method
    with a fixed signature to inject its phase profile.
    """

    uniforms: np.ndarray
    repeat: int


@dataclass(frozen=True)
class BatchSimulationResult:
    """Per-episode, per-node statistics of one batch simulation.

    Every array has shape ``(B, N)``; the fields mirror
    :class:`~repro.solvers.evaluation.RecoveryEpisodeResult` entry by entry.

    Attributes:
        average_cost: Per-episode average cost ``J_i`` (Eq. 5 estimator).
        time_to_recovery: Mean steps from compromise to recovery start.
        recovery_frequency: Fraction of steps with a recovery action.
        num_recoveries: Recovery-action counts.
        num_compromises: Compromise-event counts.
        steps: Episode length (the scenario horizon).
        availability: Per-episode fleet availability ``T^(A)`` of shape
            ``(B,)`` when the scenario defines a tolerance threshold ``f``,
            else ``None``.
        profile: Per-phase wall-clock accounting of the run, when it was
            requested with ``run(..., profile=True)``; else ``None``.
    """

    average_cost: np.ndarray
    time_to_recovery: np.ndarray
    recovery_frequency: np.ndarray
    num_recoveries: np.ndarray
    num_compromises: np.ndarray
    steps: int
    availability: np.ndarray | None = None
    profile: EngineProfile | None = None

    @property
    def num_episodes(self) -> int:
        return int(self.average_cost.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.average_cost.shape[1])

    def episode_results(self, node: int = 0) -> list:
        """Per-episode scalar results for one node, in episode order.

        Returns :class:`~repro.solvers.evaluation.RecoveryEpisodeResult`
        objects identical to what the scalar simulator produces for the same
        seed (imported lazily to avoid a package cycle).
        """
        from ..solvers.evaluation import RecoveryEpisodeResult

        return [
            RecoveryEpisodeResult(
                average_cost=float(self.average_cost[b, node]),
                time_to_recovery=float(self.time_to_recovery[b, node]),
                recovery_frequency=float(self.recovery_frequency[b, node]),
                num_recoveries=int(self.num_recoveries[b, node]),
                num_compromises=int(self.num_compromises[b, node]),
                steps=self.steps,
            )
            for b in range(self.num_episodes)
        ]

    def summary(self, confidence: float = 0.95) -> dict[str, tuple[float, float]]:
        """Aggregate ``(mean, ci)`` pairs across all episodes and nodes."""
        metrics: dict[str, np.ndarray] = {
            "average_cost": self.average_cost,
            "time_to_recovery": self.time_to_recovery,
            "recovery_frequency": self.recovery_frequency,
        }
        if self.availability is not None:
            metrics["availability"] = self.availability
        return summarize_metric_arrays(metrics, confidence)


@dataclass
class BatchEpisodeState:
    """Mutable per-stream state of an in-progress batch simulation.

    Produced by :meth:`BatchRecoveryEngine.begin` and advanced in place by
    :meth:`BatchRecoveryEngine.step`.  All arrays have shape ``(B, N)``
    unless noted; the fields mirror the per-episode bookkeeping of the
    scalar :meth:`~repro.solvers.evaluation.RecoverySimulator.run_episode`
    loop one for one.  The stepwise decomposition is what the vectorized
    environment layer (:mod:`repro.envs`) builds on: a policy can inspect
    ``belief`` / ``time_since_recovery`` between steps and choose the next
    batch of actions, while :meth:`BatchRecoveryEngine.run` drives the same
    state with a closed-form strategy — both paths are bit-identical.
    """

    #: (M, N, 2 * horizon) pre-generated uniform buffer; episode ``b`` reads
    #: row ``b mod M`` (``M = B`` unless begun with ``repeat > 1``).
    uniforms: np.ndarray
    t: int  #: Number of completed steps.
    state: np.ndarray  #: Hidden node states (int64).
    belief: np.ndarray  #: Two-state compromise beliefs.
    time_since_recovery: np.ndarray  #: BTR clocks (int64).
    cursor: np.ndarray  #: Per-stream uniform-consumption cursors.
    total_cost: np.ndarray  #: Accumulated Eq. 5 costs.
    recoveries: np.ndarray  #: Recovery-action counts.
    compromises: np.ndarray  #: Compromise-event counts.
    open_active: np.ndarray  #: Whether a compromise is currently unresolved.
    open_count: np.ndarray  #: Steps elapsed in the open compromise.
    delay_sum: np.ndarray  #: Sum of completed recovery delays.
    delay_count: np.ndarray  #: Number of completed recovery delays.
    available_steps: np.ndarray | None  #: (B,) steps with <= f failed nodes.
    last_failed: np.ndarray | None = None  #: (B,) failed-node counts of the last step.
    #: (B, N) mask of streams whose node crashed during the last step (before
    #: its replacement by a fresh node); always maintained by :meth:`step`.
    last_crashed: np.ndarray | None = None
    #: (B, N) ground-truth failed mask (compromised or crashed) of the last
    #: step; maintained when the scenario tracks availability (``f`` set) and
    #: ``track_metrics`` is on.  The system-level control plane
    #: (:mod:`repro.control`) consumes both masks for eviction decisions and
    #: per-episode availability under dynamic node membership.
    last_failed_mask: np.ndarray | None = None
    #: Whether recovery/compromise/delay statistics are tracked.  Rollout
    #: consumers that only need costs and beliefs (the PPO collector) switch
    #: this off to skip the bookkeeping array operations; the dynamics and
    #: random streams are unaffected.
    track_metrics: bool = True
    # Per-batch constant caches (derived from the engine's precompiled
    # arrays at begin() time so the hot step loop allocates nothing anew).
    uniforms_flat: np.ndarray = field(default=None, repr=False)  # (M * N * 2T,) view
    stream_rows: np.ndarray = field(default=None, repr=False)  # (B, N) buffer offsets
    eta_mat: np.ndarray = field(default=None, repr=False)  # (B, N) broadcast view
    initial_belief_mat: np.ndarray = field(default=None, repr=False)  # (B, N) view
    btr_deadline_mat: np.ndarray = field(default=None, repr=False)  # (B, N) view
    transition_base: np.ndarray = field(default=None, repr=False)  # (B, N) flat bases
    observation_base: np.ndarray = field(default=None, repr=False)  # (B, N) flat bases
    belief_workspace: dict = field(default=None, repr=False)  # reusable (B,) buffers
    profile: EngineProfile | None = field(default=None, repr=False)  # opt-in timings
    #: (B, horizon, K) pre-drawn adversary uniforms (dynamic adversaries only).
    adversary_uniforms: np.ndarray | None = field(default=None, repr=False)
    #: Mutable adversary state from AdversaryProcess.begin() (dynamic only).
    adversary_state: object = field(default=None, repr=False)
    #: (B, N) compromise pressure of the last step (dynamic only; diagnostics).
    last_pressure: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_episodes(self) -> int:
        return int(self.state.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.state.shape[1])


class BatchRecoveryEngine:
    """NumPy-vectorized Monte-Carlo simulator for a :class:`FleetScenario`.

    The engine precompiles the scenario's transition kernels, sampling CDFs
    and observation pmfs into dense arrays at construction time; each
    :meth:`run` then advances all episodes and nodes in lockstep with O(T)
    vectorized steps instead of O(B * N * T) Python-level steps.

    The simulation loop is decomposed into a stepwise API —
    :meth:`begin` / :meth:`step` / :meth:`finalize` — so that callers that
    need to interleave computation with the dynamics (the vectorized
    environments of :mod:`repro.envs`, and through them the PPO rollout
    loop) drive exactly the same array operations as :meth:`run`.

    Args:
        scenario: The fleet scenario to precompile.
        backend: Kernel backend name, ``"fused"`` (the default for
            ``None``) or ``"reference"``.
    """

    def __init__(self, scenario: FleetScenario, backend: str | None = None) -> None:
        self.scenario = scenario
        transition_models = scenario.transition_models()
        #: (N, |A|, |S|, |S|) raw transition matrices for belief updates.
        self._matrices = np.stack([m.matrices() for m in transition_models])
        #: (N, |A|, |S|, |S|) sampling CDFs matching Generator.choice.
        self._transition_cdf = np.stack([m.sampling_cdf() for m in transition_models])
        #: (N, |S|, |O|) observation pmfs and sampling CDFs.
        self._observation_pmf = np.stack(
            [m.matrix() for m in scenario.observation_models]
        )
        self._observation_cdf = np.stack(
            [m.sampling_cdf() for m in scenario.observation_models]
        )
        self._initial_belief = scenario.initial_beliefs()  # (N,)
        self._eta = scenario.cost_weights()  # (N,)
        self._btr_deadline = scenario.btr_deadlines()  # (N,)
        # Flattened CDF tables + per-node index bases for single-gather
        # lookups in the hot step loop: row (j, a, s) of the transition
        # table lives at (j * |A| + a) * |S| + s, row (j, s) of the
        # observation table at j * |S| + s.
        num_nodes, num_actions, num_states, _ = self._transition_cdf.shape
        self._num_states = num_states
        self._transition_cdf_flat = self._transition_cdf.reshape(-1, num_states)
        self._observation_cdf_flat = self._observation_cdf.reshape(
            -1, self._observation_cdf.shape[-1]
        )
        self._transition_node_base = (
            np.arange(num_nodes, dtype=np.int64) * num_actions * num_states
        )
        self._observation_node_base = np.arange(num_nodes, dtype=np.int64) * num_states
        # Assumption D regularity: with full-support live-state observation
        # pmfs and positive live mass in every live transition row, the
        # degenerate-observation fallback of the belief recursion can never
        # trigger, so the hot loop may skip the check.
        self._regular_observations = bool(
            (self._observation_pmf[:, :2, :] > 0.0).all()
            and (self._matrices[:, :, :2, :2].sum(axis=3) > 0.0).all()
        )
        #: The adversary process generating per-step compromise pressure;
        #: ``None`` on the scenario means the paper's static i.i.d. attacker.
        self.adversary = (
            scenario.adversary if scenario.adversary is not None else StaticAdversary()
        )
        #: Whether the adversary requires the per-step dynamic-CDF path.  A
        #: static adversary keeps the precompiled tables and kernel fast
        #: paths above untouched (bit-exact with the pre-seam engine).
        self._dynamic = not self.adversary.is_static
        # Per-node probability columns for the dynamic per-step CDF
        # construction (mirrors NodeTransitionModel._build_matrices).
        self._p_c1 = np.array([p.p_c1 for p in scenario.node_params])
        self._p_c2 = np.array([p.p_c2 for p in scenario.node_params])
        self._p_u = np.array([p.p_u for p in scenario.node_params])
        self._baseline_pressure = np.array([p.p_a for p in scenario.node_params])
        #: Resolved backend name and the kernel instance implementing it.
        self.backend = resolve_backend(backend)
        self._kernel = BACKENDS[self.backend](self)

    @property
    def is_dynamic(self) -> bool:
        """Whether the scenario's adversary takes the per-step dynamic path."""
        return self._dynamic

    # -- randomness -------------------------------------------------------------
    def draw_uniforms(self, seed: int | None, num_episodes: int) -> np.ndarray:
        """Pre-generate the uniform buffer, shape ``(B, N, 2 * horizon)``.

        Stream ``(b, j)`` is child ``b * N + j`` of ``SeedSequence(seed)``
        (episode-major), matching a scalar run of episode ``b`` on node
        ``j``'s parameters with that child's generator.  Each scalar step
        consumes one uniform for the state transition and, unless the node
        crashed, one for the observation, so ``2 * horizon`` doubles bound
        an episode's consumption.

        Seeded buffers are memoized in a small module-level cache (the
        buffer is a pure function of ``(seed, B, N, width)`` and the engine
        never writes into it), so common-random-number loops that rebuild
        engines per candidate stop regenerating identical gigastreams.
        """
        num_nodes = self.scenario.num_nodes
        width = 2 * self.scenario.horizon
        key = (seed, num_episodes, num_nodes, width)
        if seed is not None:
            cached = _UNIFORM_CACHE.get(key)
            if cached is not None:
                return cached
        children = np.random.SeedSequence(seed).spawn(num_episodes * num_nodes)
        buffer = np.empty((num_episodes * num_nodes, width))
        for row, child in enumerate(children):
            buffer[row] = np.random.default_rng(child).random(width)
        uniforms = buffer.reshape(num_episodes, num_nodes, width)
        if seed is not None and uniforms.size <= _UNIFORM_CACHE_MAX_ELEMENTS:
            uniforms.setflags(write=False)
            if len(_UNIFORM_CACHE) >= _UNIFORM_CACHE_MAX_ENTRIES:
                _UNIFORM_CACHE.pop(next(iter(_UNIFORM_CACHE)))
            _UNIFORM_CACHE[key] = uniforms
        return uniforms

    def draw_adversary_uniforms(
        self, seed: int | None, num_episodes: int
    ) -> np.ndarray | None:
        """Pre-draw the adversary's ``(B, horizon, K)`` uniform buffer.

        Episode ``b``'s row comes from the salted stream
        ``SeedSequence([salt, seed], spawn_key=(b,))``, independent of the
        engine streams of :meth:`draw_uniforms`; rows are per-episode, so
        the ``[b : b + 1]`` scalar replay and the ``[lo : hi)`` shard slices
        of :mod:`repro.control.parallel` reproduce a monolithic draw
        exactly.  Returns ``None`` for static adversaries and for dynamic
        adversaries that consume no randomness.
        """
        if not self._dynamic:
            return None
        if seed is None:
            raise ValueError(
                "a dynamic adversary needs a concrete seed to draw its "
                "uniform streams; pass seed= (or pre-drawn adversary_uniforms=)"
            )
        return _draw_adversary_uniforms(
            self.adversary,
            int(seed),
            0,
            num_episodes,
            self.scenario.num_nodes,
            self.scenario.horizon,
        )

    # -- public API -------------------------------------------------------------
    def run(
        self,
        strategies: RecoveryStrategy | BatchStrategy | Sequence,
        num_episodes: int | None = None,
        seed: int | None = None,
        uniforms: np.ndarray | None = None,
        profile: bool | EngineProfile | None = None,
        adversary_uniforms: np.ndarray | None = None,
    ) -> BatchSimulationResult:
        """Simulate ``num_episodes`` episodes of the whole fleet.

        Args:
            strategies: One strategy shared by every node, or a sequence of
                per-node strategies (scalar strategies are batched via
                :func:`~repro.sim.strategies.as_batch_strategy`).
            num_episodes: Batch size ``B``; required unless ``uniforms`` is
                given.
            seed: Seed for the episode seed tree; ``None`` draws fresh OS
                entropy (non-reproducible), matching the scalar simulator.
            uniforms: Pre-drawn ``(B, N, width)`` uniform buffer with
                ``width >= 2 * horizon``, bypassing :meth:`draw_uniforms`
                (benchmarks use this to time the step path separately from
                stream generation).
            profile: ``True`` (or an :class:`EngineProfile` to accumulate
                into) records per-phase wall-clock time; the filled profile
                is returned on the result.
            adversary_uniforms: Pre-drawn ``(B, horizon, K)`` adversary
                buffer (dynamic adversaries with pre-drawn ``uniforms``
                require it; the seed path draws it automatically from the
                same seed).
        """
        if uniforms is None:
            if num_episodes is None or num_episodes < 1:
                raise ValueError("num_episodes must be >= 1")
            if self._dynamic and seed is None:
                # Resolve one entropy up front so the engine streams and the
                # adversary streams come from the same (fresh) root.
                seed = resolve_adversary_entropy(None)
            uniforms = self.draw_uniforms(seed, num_episodes)
            if self._dynamic and adversary_uniforms is None:
                adversary_uniforms = self.draw_adversary_uniforms(seed, num_episodes)
        else:
            uniforms = self._check_uniforms(uniforms)
        batch_strategies = self._normalize_strategies(strategies)
        prof = EngineProfile(backend=self.backend) if profile is True else profile
        result = self._simulate(
            batch_strategies,
            uniforms,
            profile=prof,
            adversary_uniforms=adversary_uniforms,
        )
        if prof is not None:
            result = replace(result, profile=prof)
        return result

    def run_threshold_population(
        self,
        thresholds: np.ndarray,
        num_episodes: int,
        seed: int | None = None,
    ) -> np.ndarray:
        """Estimate ``J(theta)`` for a whole population of threshold vectors.

        Evaluates ``K`` candidate threshold vectors with common random
        numbers: every candidate sees the same ``num_episodes`` episode
        streams.  The run covers ``K * num_episodes`` episodes that all read
        the one memoized ``(M, 1, 2 * horizon)`` buffer of
        :meth:`draw_uniforms` (episode ``b`` reads row ``b mod M``), so no
        per-candidate copy of the streams is made.  Requires a single-node
        scenario.  Row ``k`` of the result equals
        ``RecoverySimulator.estimate_cost`` for candidate ``k`` exactly.

        Args:
            thresholds: Candidate matrix of shape ``(K, d)`` (a ``(d,)``
                vector is treated as ``K = 1``; ``K = 0`` returns an empty
                array without simulating).
            num_episodes: Episodes per candidate ``M``.
            seed: Seed for the shared episode streams.

        Returns:
            Estimated costs, shape ``(K,)``.
        """
        if self.scenario.num_nodes != 1:
            raise ValueError("population evaluation requires a single-node scenario")
        if num_episodes < 1:
            raise ValueError("num_episodes must be >= 1")
        thresholds = np.atleast_2d(np.asarray(thresholds, dtype=float))
        num_candidates = thresholds.shape[0]
        if num_candidates == 0:
            return np.empty(0)
        strategy = BatchMultiThreshold(np.repeat(thresholds, num_episodes, axis=0))
        if self._dynamic and seed is None:
            seed = resolve_adversary_entropy(None)
        # Common random numbers for the adversary too: every candidate sees
        # the same attack realisations (None for static adversaries).
        result = self._simulate(
            [strategy],
            _SharedStreams(self.draw_uniforms(seed, num_episodes), num_candidates),
            adversary_uniforms=self.draw_adversary_uniforms(seed, num_episodes),
        )
        costs = result.average_cost.reshape(num_candidates, num_episodes)
        return costs.mean(axis=1)

    # -- internals --------------------------------------------------------------
    def _check_uniforms(self, uniforms) -> np.ndarray:
        """Validate a pre-drawn ``(B, num_nodes, width)`` uniform buffer.

        Every horizon step reads up to two uniforms per stream, so the
        buffer needs ``width >= 2 * horizon``; a wrong node count or a
        narrow buffer would otherwise fail deep inside a kernel, or not at
        all.
        """
        uniforms = np.asarray(uniforms, dtype=float)
        num_nodes = self.scenario.num_nodes
        width = 2 * self.scenario.horizon
        if (
            uniforms.ndim != 3
            or uniforms.shape[1] != num_nodes
            or uniforms.shape[2] < width
        ):
            raise ValueError(
                f"uniforms must have shape (B, {num_nodes}, W) with W >= "
                f"2 * horizon = {width}, got {uniforms.shape}"
            )
        return uniforms

    def _normalize_strategies(self, strategies) -> list[BatchStrategy]:
        num_nodes = self.scenario.num_nodes
        if isinstance(strategies, (list, tuple)):
            if len(strategies) != num_nodes:
                raise ValueError(
                    f"need one strategy per node ({num_nodes}), got {len(strategies)}"
                )
            return [as_batch_strategy(s) for s in strategies]
        return [as_batch_strategy(strategies)] * num_nodes

    # -- stepwise simulation ----------------------------------------------------
    def begin(
        self,
        num_episodes: int | None = None,
        seed: int | None = None,
        track_metrics: bool = True,
        uniforms: np.ndarray | None = None,
        profile: bool = False,
        adversary_uniforms: np.ndarray | None = None,
        repeat: int = 1,
    ) -> BatchEpisodeState:
        """Initialize the per-stream state for ``num_episodes`` episodes.

        Draws the uniform buffer from the same per-episode seed tree as
        :meth:`run`, so stepping the returned state with the recover masks a
        strategy would produce reproduces :meth:`run` exactly.

        Args:
            num_episodes: Batch size ``B``; required unless ``uniforms`` is
                given.
            seed: Seed for the episode seed tree.
            track_metrics: When ``False``, :meth:`step` skips the
                recovery/compromise/delay/total-cost bookkeeping (per-step
                costs, beliefs and random streams are unchanged) — a fast
                path for rollout collectors that consume the returned step
                costs and observations and never call :meth:`finalize`.
            uniforms: Pre-drawn ``(B, N, width)`` uniform buffer with
                ``width >= 2 * horizon`` (e.g. a per-episode slice of
                :meth:`draw_uniforms`), which makes a
                ``B = 1`` replay of one row of a larger batch bit-identical
                to that row — the scalar reference loop of
                :mod:`repro.control` relies on this.  Mutually exclusive
                with ``seed``/``num_episodes``.
            profile: When ``True``, attach an :class:`EngineProfile` to the
                state; :meth:`step` then records per-phase wall-clock time
                into ``sim.profile``.
            adversary_uniforms: Pre-drawn ``(B, horizon, K)`` adversary
                buffer (a per-episode slice of
                :meth:`draw_adversary_uniforms` slices on the episode axis
                just like ``uniforms``).  Required when ``uniforms`` is
                pre-drawn and the scenario's adversary is dynamic; the
                seed path draws it from the same seed automatically.
            repeat: Run ``repeat`` copies of the ``M`` episodes drawn (or
                given as ``uniforms``), ``repeat * M`` episodes in total:
                episode ``b`` reads the streams of episode ``b mod M``
                without copying them, which is how a population of
                candidates shares common random numbers.
        """
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        if uniforms is not None:
            if num_episodes is not None or seed is not None:
                raise ValueError("pass either uniforms or (num_episodes, seed), not both")
            uniforms = self._check_uniforms(uniforms)
        else:
            if num_episodes is None or num_episodes < 1:
                raise ValueError("num_episodes must be >= 1")
            if self._dynamic and seed is None:
                seed = resolve_adversary_entropy(None)
            uniforms = self.draw_uniforms(seed, num_episodes)
            if self._dynamic and adversary_uniforms is None:
                adversary_uniforms = self.draw_adversary_uniforms(seed, num_episodes)
        sim = self._begin(uniforms, track_metrics, adversary_uniforms, repeat)
        if profile:
            sim.profile = EngineProfile(backend=self.backend)
        return sim

    def _begin(
        self,
        uniforms: np.ndarray,
        track_metrics: bool = True,
        adversary_uniforms: np.ndarray | None = None,
        repeat: int = 1,
    ) -> BatchEpisodeState:
        num_rows, num_nodes, stream_width = uniforms.shape
        num_episodes = num_rows * repeat
        shape = (num_episodes, num_nodes)
        track_availability = self.scenario.f is not None
        adversary_state = None
        if self._dynamic:
            width = self.adversary.uniforms_per_step(num_nodes)
            if width > 0:
                if adversary_uniforms is None:
                    raise ValueError(
                        "the scenario's adversary is dynamic: pass "
                        "adversary_uniforms alongside pre-drawn uniforms "
                        "(engine.draw_adversary_uniforms(seed, num_episodes))"
                    )
                adversary_uniforms = np.asarray(adversary_uniforms, dtype=float)
                if (
                    adversary_uniforms.ndim != 3
                    or adversary_uniforms.shape[0] != num_rows
                    or adversary_uniforms.shape[1] < self.scenario.horizon
                    or adversary_uniforms.shape[2] != width
                ):
                    raise ValueError(
                        "adversary_uniforms must have shape (M, horizon, "
                        f"{width}) with M = {num_rows} uniform rows, got "
                        f"{adversary_uniforms.shape}"
                    )
                if repeat > 1:
                    # The per-step adversary slice is read as a whole row
                    # block, so its (small) buffer is repeated outright.
                    adversary_uniforms = np.tile(adversary_uniforms, (repeat, 1, 1))
            else:
                adversary_uniforms = None
            adversary_state = self.adversary.begin(num_episodes, num_nodes)
        else:
            adversary_uniforms = None
        # Stream (b, j) reads buffer row (b mod M, j).
        buffer_rows = np.arange(num_episodes, dtype=np.int64) % num_rows
        node_ids = np.arange(num_nodes, dtype=np.int64)
        return BatchEpisodeState(
            uniforms=uniforms,
            t=0,
            state=np.full(shape, _HEALTHY, dtype=np.int64),
            belief=np.array(np.broadcast_to(self._initial_belief, shape), dtype=float),
            time_since_recovery=np.zeros(shape, dtype=np.int64),
            cursor=np.zeros(shape, dtype=np.int64),
            total_cost=np.zeros(shape),
            recoveries=np.zeros(shape, dtype=np.int64),
            compromises=np.zeros(shape, dtype=np.int64),
            open_active=np.zeros(shape, dtype=bool),
            open_count=np.zeros(shape, dtype=np.int64),
            delay_sum=np.zeros(shape),
            delay_count=np.zeros(shape, dtype=np.int64),
            available_steps=(
                np.zeros(num_episodes, dtype=np.int64) if track_availability else None
            ),
            track_metrics=track_metrics,
            uniforms_flat=uniforms.reshape(-1),
            stream_rows=(buffer_rows[:, None] * num_nodes + node_ids) * stream_width,
            eta_mat=np.broadcast_to(self._eta, shape),
            initial_belief_mat=np.broadcast_to(self._initial_belief, shape),
            btr_deadline_mat=np.broadcast_to(self._btr_deadline, shape),
            transition_base=np.broadcast_to(self._transition_node_base, shape),
            observation_base=np.broadcast_to(self._observation_node_base, shape),
            belief_workspace=self._kernel.make_step_workspace(num_episodes),
            adversary_uniforms=adversary_uniforms,
            adversary_state=adversary_state,
        )

    def forced_recoveries(self, sim: BatchEpisodeState) -> np.ndarray:
        """Boolean mask of streams whose BTR deadline forces the next action."""
        return sim.time_since_recovery >= sim.btr_deadline_mat

    def step(
        self,
        sim: BatchEpisodeState,
        recover: np.ndarray,
        btr_applied: bool = False,
    ) -> np.ndarray:
        """Advance every stream by one step under the given recover mask.

        ``recover`` is the policy's boolean decision per ``(episode, node)``
        stream; the BTR constraint is applied on top (a stream at its
        deadline recovers regardless), exactly as in the scalar simulator.
        Callers that have already OR-ed the :meth:`forced_recoveries` mask
        into ``recover`` (the environment layer does) pass
        ``btr_applied=True`` to skip the recomputation.  Mutates ``sim`` in
        place and returns the per-stream step cost ``c_N(s_t, a_t)``, shape
        ``(B, N)``.

        The body avoids fancy-index scatters in favour of element-wise
        masked arithmetic: the resulting values are identical (the parity
        suite checks them bit for bit), but a step over a small batch costs
        roughly half as many microseconds — which matters because the PPO
        rollout loop calls this once per timestep.
        """
        state = sim.state
        belief = sim.belief
        time_since_recovery = sim.time_since_recovery
        cursor = sim.cursor
        num_states = self._num_states
        prof = sim.profile
        if prof is not None:
            t_mark = perf_counter_ns()

        # Policy decision on the current belief; the BTR constraint
        # overrides with a forced recovery at the deadline.
        if not btr_applied:
            recover = np.asarray(recover, dtype=bool) | (
                time_since_recovery >= sim.btr_deadline_mat
            )

        # Cost c_N(s, a) = eta * s * (1 - a) + a  (Eq. 5).
        step_cost = np.where(recover, 1.0, sim.eta_mat * (state == _COMPROMISED))
        if sim.track_metrics:
            # total_cost only feeds finalize(); fast-path consumers read the
            # returned per-step costs instead.
            sim.total_cost += step_cost
        if prof is not None:
            now = perf_counter_ns()
            prof.add("bookkeeping", now - t_mark)
            t_mark = now

        # Hidden-state transition: invert the per-(node, action, state)
        # sampling CDF on this step's transition uniform.  With a dynamic
        # adversary the CDF rows are rebuilt per step from the adversary's
        # compromise pressure instead of gathered from the static tables.
        u_transition = sim.uniforms_flat[sim.stream_rows + cursor]
        cursor += 1
        if self._dynamic:
            adversary_u = (
                sim.adversary_uniforms[:, sim.t, :]
                if sim.adversary_uniforms is not None
                else None
            )
            next_state = self._dynamic_transition(
                sim, recover, state, u_transition, adversary_u
            )
        else:
            adversary_u = None
            transition_rows = sim.transition_base + (recover * num_states + state)
            cdf_rows = self._transition_cdf_flat[transition_rows]  # (B, N, |S|)
            next_state = (cdf_rows <= u_transition[..., None]).sum(axis=2)

        crashed = next_state == _CRASHED
        alive = ~crashed
        sim.last_crashed = crashed
        if prof is not None:
            now = perf_counter_ns()
            prof.add("transition_sample", now - t_mark)
            t_mark = now

        if sim.track_metrics:
            sim.recoveries += recover
            # A compromise window closes when the node recovers, crashes, or
            # is restored to healthy by a software update; the three events
            # are disjoint, so one mask applies the delay bookkeeping that
            # the scalar simulator performs case by case.
            open_active = sim.open_active
            back_to_healthy = alive & (next_state == _HEALTHY)
            resolved = open_active & (recover | crashed | back_to_healthy)
            sim.delay_sum += sim.open_count * resolved
            sim.delay_count += resolved
            new_compromise = (
                alive & (state != _COMPROMISED) & (next_state == _COMPROMISED)
            )
            sim.compromises += new_compromise
            open_active = (open_active & ~resolved) | new_compromise
            sim.open_active = open_active
            sim.open_count *= ~new_compromise
            sim.open_count += alive & open_active

            if sim.available_steps is not None:
                failed = (next_state == _COMPROMISED) | crashed
                failed_counts = failed.sum(axis=1)
                sim.available_steps += failed_counts <= self.scenario.f
                sim.last_failed = failed_counts
                sim.last_failed_mask = failed
        if prof is not None:
            now = perf_counter_ns()
            prof.add("bookkeeping", now - t_mark)
            t_mark = now

        # Observation + belief update for live nodes only (a crashed node
        # is replaced by a fresh one and draws no observation).  A crashed
        # stream's state and observation collapse to HEALTHY = 0, so the
        # ``where`` selects reduce to one multiply by the alive mask; its
        # belief update is computed but discarded below (the reset mask
        # covers every crashed stream).
        u_observation = sim.uniforms_flat[sim.stream_rows + cursor]
        cursor += alive
        live_state = next_state * alive
        observed_state = live_state
        if self._dynamic:
            # A stealth adversary may hide a compromise from the IDS: the
            # observation is drawn from the HEALTHY alert distribution on
            # the *same* uniform (streams never shift), while the true
            # hidden state and the cost/metric bookkeeping are untouched.
            suppress = self.adversary.alert_suppression(
                sim.adversary_state, sim.t, adversary_u
            )
            if suppress is not None:
                observed_state = live_state * ~suppress
        obs_cdf_rows = self._observation_cdf_flat[sim.observation_base + observed_state]
        observation_index = (obs_cdf_rows <= u_observation[..., None]).sum(axis=2)
        if prof is not None:
            now = perf_counter_ns()
            prof.add("observation_draw", now - t_mark)
            t_mark = now
        if sim.belief_workspace is None:
            # States constructed outside begin() (tests, adapters) arrive
            # without engine-owned buffers; allocate them once, not per step.
            sim.belief_workspace = self._kernel.make_step_workspace(state.shape[0])
        new_belief = self._kernel.update_beliefs(
            recover, observation_index, belief, workspace=sim.belief_workspace
        )
        if prof is not None:
            now = perf_counter_ns()
            prof.add("belief_update", now - t_mark)
            t_mark = now

        # Resets: a crashed node is replaced by a fresh healthy node; a
        # recovery restarts the BTR window and the belief.
        reset = crashed | recover
        sim.belief = np.where(reset, sim.initial_belief_mat, new_belief)
        sim.time_since_recovery = np.where(reset, 0, time_since_recovery + ~reset)
        sim.state = live_state
        sim.t += 1
        if prof is not None:
            prof.add("bookkeeping", perf_counter_ns() - t_mark)
            prof.steps += 1
        return step_cost

    def finalize(self, sim: BatchEpisodeState) -> BatchSimulationResult:
        """Summarize a (finished or in-progress) state into per-episode results.

        Does not mutate ``sim``: the end-of-episode censoring of unresolved
        compromises (matching the scalar simulator) is applied on copies, so
        the state may keep stepping afterwards.  States begun with
        ``track_metrics=False`` carry no statistics and are rejected loudly
        rather than summarized as zeros.
        """
        if not sim.track_metrics:
            raise RuntimeError(
                "cannot finalize a track_metrics=False state: the cost/recovery "
                "accumulators were skipped; begin(..., track_metrics=True) instead"
            )
        steps = max(sim.t, 1)
        shape = sim.state.shape
        delay_sum = sim.delay_sum.copy()
        delay_count = sim.delay_count.copy()
        # Episodes ending with an unresolved compromise contribute the
        # elapsed time, the same censoring the scalar simulator applies.
        delay_sum[sim.open_active] += sim.open_count[sim.open_active]
        delay_count[sim.open_active] += 1

        time_to_recovery = np.divide(
            delay_sum,
            delay_count,
            out=np.zeros(shape),
            where=delay_count > 0,
        )
        return BatchSimulationResult(
            average_cost=sim.total_cost / steps,
            time_to_recovery=time_to_recovery,
            recovery_frequency=sim.recoveries / steps,
            num_recoveries=sim.recoveries.copy(),
            num_compromises=sim.compromises.copy(),
            steps=steps,
            availability=(
                (sim.available_steps / steps) if sim.available_steps is not None else None
            ),
        )

    def _dynamic_transition(
        self,
        sim: BatchEpisodeState,
        recover: np.ndarray,
        state: np.ndarray,
        u_transition: np.ndarray,
        adversary_u: np.ndarray | None,
    ) -> np.ndarray:
        """Sample next states under the adversary's per-step pressure.

        Rebuilds the per-stream transition CDF row from the pressure using
        the exact product forms of
        :meth:`~repro.core.node_model.NodeTransitionModel._build_matrices`
        followed by the same cumulative-sum-and-normalize, so that when the
        pressure equals the baseline ``p_A`` the row is **bit-identical** to
        the precompiled static table (the parity suite asserts this via
        ``StaticAdversary(force_dynamic=True)``).
        """
        pressure = self.adversary.compromise_pressure(
            sim.adversary_state, sim.t, self._baseline_pressure, adversary_u
        )
        sim.last_pressure = pressure
        compromised = state == _COMPROMISED
        # Crash probability of the current state; live states only (crashed
        # streams were reset to fresh healthy nodes at the end of last step).
        crash = np.where(compromised, self._p_c2, self._p_c1)
        survive = 1.0 - crash
        wait_from_c = compromised & ~recover
        # Row entries in state order (H, C, CRASHED); see Eq. 2.
        to_healthy = np.where(
            wait_from_c, survive * self._p_u, (1.0 - pressure) * survive
        )
        to_compromised = np.where(
            wait_from_c, survive * (1.0 - self._p_u), survive * pressure
        )
        # Same association as cumsum([e0, e1, e2]) then /= last entry.
        partial = to_healthy + to_compromised
        total = partial + crash
        c_healthy = to_healthy / total
        c_compromised = partial / total
        return (c_healthy <= u_transition).astype(np.int64) + (
            c_compromised <= u_transition
        )

    def _simulate(
        self,
        strategies: list[BatchStrategy],
        uniforms: np.ndarray | _SharedStreams,
        profile: EngineProfile | None = None,
        trellis: bool | None = None,
        adversary_uniforms: np.ndarray | None = None,
    ) -> BatchSimulationResult:
        # ``trellis`` is accepted and ignored: no kernel has a belief trellis,
        # but ``perfbench/tracing.py`` wraps this method with a fixed
        # signature and passes ``trellis=`` by keyword.
        del trellis
        uniforms, repeat = (
            uniforms if isinstance(uniforms, _SharedStreams) else (uniforms, 1)
        )
        if self._dynamic:
            return self._run_steps(
                strategies, uniforms, profile, adversary_uniforms, repeat
            )
        return self._kernel.simulate(strategies, uniforms, profile=profile, repeat=repeat)

    def _run_steps(
        self,
        strategies: list[BatchStrategy],
        uniforms: np.ndarray,
        profile: EngineProfile | None = None,
        adversary_uniforms: np.ndarray | None = None,
        repeat: int = 1,
    ) -> BatchSimulationResult:
        """Generic step loop: begin, strategies and one :meth:`step` per round, finalize.

        This is the reference backend's run, and every backend's run under a
        dynamic adversary: the fused kernel's closed loop bakes the static
        per-node CDFs into its rank tables, while :meth:`step` rebuilds the
        transition CDFs per step.  Belief updates still go through the
        active kernel's ``update_beliefs`` (the defender's recursion uses
        the nominal model on every backend).  Runs ``repeat * M`` episodes
        on the ``(M, N, W)`` buffer; episode ``b`` reads row ``b mod M``.
        """
        sim = self._begin(uniforms, True, adversary_uniforms, repeat)
        sim.profile = profile
        if profile is not None:
            profile.backend = self.backend
        recover = np.empty(sim.state.shape, dtype=bool)
        for _ in range(self.scenario.horizon):
            if profile is not None:
                t0 = perf_counter_ns()
            for j, strategy in enumerate(strategies):
                recover[:, j] = strategy.action_batch(
                    sim.belief[:, j], sim.time_since_recovery[:, j]
                )
            if profile is not None:
                profile.add("strategy", perf_counter_ns() - t0)
            self.step(sim, recover)
        return self.finalize(sim)
