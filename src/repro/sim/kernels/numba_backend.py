"""Optional numba backend: the whole fused step in one nopython loop.

The step loop below mirrors the scalar
:meth:`~repro.solvers.evaluation.RecoverySimulator.run_episode` faithfully —
transition CDF inversion, observation draw, belief update, reset masks and
the delay bookkeeping — as plain scalar Python over ``(episode, node, step)``
triples, which numba JITs into a single allocation-free machine loop.  When
numba is not installed the same function runs as pure Python: the backend's
*semantics* are testable everywhere, only its *speed* needs the optional
dependency (``pip install .[kernels]``), and backend selection degrades to
the fused NumPy backend with a warning rather than failing.

Tolerance tier (versioned)
--------------------------

Unlike the NumPy backends, the JIT loop is **not bit-exact** against the
scalar simulator: the belief prediction ``(1-b) * M[0,s] + b * M[1,s]`` is
evaluated with two-rounding multiply-add, while the reference BLAS product
rounds once through a fused-multiply-add chain.  Beliefs can therefore
differ in the final ulp.  The contract, versioned as
:data:`NUMBA_TOLERANCE_TIER`:

* **Same-seed determinism is bitwise:** two runs of the same workload on
  the same build return identical arrays.
* **Whenever no belief falls within one ulp of an active threshold, the
  integer trajectories coincide with the NumPy backends and every statistic
  agrees exactly.**  A last-ulp belief difference at a threshold boundary
  can flip one action and decouple that episode; the effect on a batch mean
  is ``O(1/B)``, which ``stat_atol`` bounds with a wide margin.

Strategies expressible as per-node threshold tables (all core strategy
classes plus :class:`~repro.sim.strategies.BatchMultiThreshold`) run in the
JIT loop; anything else (e.g. a wrapped PPO policy) falls back to the fused
NumPy backend transparently.
"""

from __future__ import annotations

import math

import numpy as np

from ...core.strategies import (
    BeliefPeriodicStrategy,
    MultiThresholdStrategy,
    NoRecoveryStrategy,
    PeriodicStrategy,
    ThresholdStrategy,
)
from ..strategies import BatchMultiThreshold, LoopedBatchStrategy
from .fused import FusedKernel

try:  # pragma: no cover - exercised only where numba is installed
    import numba
except ImportError:  # pragma: no cover
    numba = None

__all__ = ["HAVE_NUMBA", "NUMBA_TOLERANCE_TIER", "NumbaKernel"]

HAVE_NUMBA = numba is not None

#: Versioned exactness contract of the numba backend (see module docstring).
NUMBA_TOLERANCE_TIER = {
    "version": 1,
    # Batch-mean statistics vs. the bit-exact NumPy backends.
    "stat_atol": 2e-2,
    "stat_rtol": 1e-6,
    # Per-step beliefs along a shared (non-diverged) trajectory.
    "belief_atol": 1e-12,
    # Repeated same-seed runs of this backend itself.
    "determinism": "bitwise",
}


def _simulate_loop(
    uniforms: np.ndarray,  # (M, N, W) float64, C-contiguous; episode b reads row b % M
    thresholds: np.ndarray,  # (N, B, D) float64, B a multiple of M
    deadlines: np.ndarray,  # (N,) int64 (BTR + periodic schedules folded in)
    m4: np.ndarray,  # (N, 4, 2) live-state rows [W_H; W_C; R_H; R_C]
    like_h: np.ndarray,  # (N, O) Z(o | H)
    like_c: np.ndarray,  # (N, O) Z(o | C)
    tcdf: np.ndarray,  # (N, 2, 3, 3) transition sampling CDFs
    ocdf: np.ndarray,  # (N, 3, O) observation sampling CDFs
    init_belief: np.ndarray,  # (N,)
    eta: np.ndarray,  # (N,)
    horizon: int,
    f: int,  # tolerance threshold, -1 when availability is untracked
):
    num_rows, num_nodes, _ = uniforms.shape
    num_episodes = thresholds.shape[1]
    depth = thresholds.shape[2]
    num_obs = like_h.shape[1]

    state = np.zeros((num_episodes, num_nodes), np.int64)
    belief = np.empty((num_episodes, num_nodes))
    tsr = np.zeros((num_episodes, num_nodes), np.int64)
    cursor = np.zeros((num_episodes, num_nodes), np.int64)
    open_active = np.zeros((num_episodes, num_nodes), np.bool_)
    open_count = np.zeros((num_episodes, num_nodes), np.int64)
    total_cost = np.zeros((num_episodes, num_nodes))
    recoveries = np.zeros((num_episodes, num_nodes), np.int64)
    compromises = np.zeros((num_episodes, num_nodes), np.int64)
    delay_sum = np.zeros((num_episodes, num_nodes))
    delay_count = np.zeros((num_episodes, num_nodes), np.int64)
    available = np.zeros(num_episodes, np.int64)
    for b in range(num_episodes):
        for j in range(num_nodes):
            belief[b, j] = init_belief[j]

    for _t in range(horizon):
        for b in range(num_episodes):
            u_row = b % num_rows
            failed = 0
            for j in range(num_nodes):
                s = state[b, j]
                bel = belief[b, j]
                k = tsr[b, j]
                d = k if k < depth else depth - 1
                act = bel >= thresholds[j, b, d] or k >= deadlines[j]
                if act:
                    total_cost[b, j] += 1.0
                    recoveries[b, j] += 1
                    if open_active[b, j]:
                        delay_sum[b, j] += open_count[b, j]
                        delay_count[b, j] += 1
                        open_active[b, j] = False
                elif s == 1:
                    total_cost[b, j] += eta[j]

                u = uniforms[u_row, j, cursor[b, j]]
                cursor[b, j] += 1
                ai = 1 if act else 0
                ns = 0
                if tcdf[j, ai, s, 0] <= u:
                    ns += 1
                if tcdf[j, ai, s, 1] <= u:
                    ns += 1

                if ns == 2:
                    # Crash: the node is replaced by a fresh healthy node;
                    # no observation is drawn (the uniform is not consumed).
                    if open_active[b, j]:
                        delay_sum[b, j] += open_count[b, j]
                        delay_count[b, j] += 1
                        open_active[b, j] = False
                    state[b, j] = 0
                    belief[b, j] = init_belief[j]
                    tsr[b, j] = 0
                    failed += 1
                    continue

                if s != 1 and ns == 1:
                    compromises[b, j] += 1
                    open_active[b, j] = True
                    open_count[b, j] = 0
                elif ns == 0:
                    if open_active[b, j] and not act:
                        delay_sum[b, j] += open_count[b, j]
                        delay_count[b, j] += 1
                    open_active[b, j] = False
                if open_active[b, j]:
                    open_count[b, j] += 1
                if ns == 1:
                    failed += 1

                u2 = uniforms[u_row, j, cursor[b, j]]
                cursor[b, j] += 1
                o = 0
                while o < num_obs and ocdf[j, ns, o] <= u2:
                    o += 1

                if act:
                    belief[b, j] = init_belief[j]
                    tsr[b, j] = 0
                else:
                    row = 2 * ai
                    p0 = (1.0 - bel) * m4[j, row, 0] + bel * m4[j, row + 1, 0]
                    p1 = (1.0 - bel) * m4[j, row, 1] + bel * m4[j, row + 1, 1]
                    wh = like_h[j, o] * p0
                    wc = like_c[j, o] * p1
                    tot = wh + wc
                    if tot > 0.0:
                        belief[b, j] = wc / tot
                    else:
                        lm = p0 + p1
                        belief[b, j] = p1 / lm if lm > 0.0 else 1.0
                    tsr[b, j] = k + 1
                state[b, j] = ns
            if f >= 0 and failed <= f:
                available[b] += 1

    # End-of-episode censoring of unresolved compromises.
    for b in range(num_episodes):
        for j in range(num_nodes):
            if open_active[b, j]:
                delay_sum[b, j] += open_count[b, j]
                delay_count[b, j] += 1

    return total_cost, recoveries, compromises, delay_sum, delay_count, available


_jit_loop = None


def _get_loop(jit: bool):
    """The JIT-compiled loop when requested and available, else pure Python."""
    global _jit_loop
    if jit and HAVE_NUMBA:
        if _jit_loop is None:
            _jit_loop = numba.njit(cache=True)(_simulate_loop)
        return _jit_loop
    return _simulate_loop


class NumbaKernel:
    """JIT backend; degrades to :class:`FusedKernel` where it cannot apply.

    Args:
        engine: The owning :class:`~repro.sim.engine.BatchRecoveryEngine`.
        force_python: Run the step loop as pure Python even when numba is
            installed — used by the tolerance-tier tests, which check the
            backend's semantics independently of the optional dependency.
    """

    name = "numba"
    #: Exactness contract: the versioned :data:`NUMBA_TOLERANCE_TIER`.
    bit_exact = False

    def __init__(self, engine, force_python: bool = False) -> None:
        self.engine = engine
        self.force_python = force_python
        self._fused = FusedKernel(engine)
        pmf = engine._observation_pmf  # (N, |S|, |O|)
        self._like_h = np.ascontiguousarray(pmf[:, 0, :])
        self._like_c = np.ascontiguousarray(pmf[:, 1, :])
        self._tcdf = np.ascontiguousarray(engine._transition_cdf)
        self._ocdf = np.ascontiguousarray(engine._observation_cdf)

    # The stepwise API stays on the bit-exact fused path: only the closed
    # run loop is JITted (and covered by the tolerance tier).
    def make_step_workspace(self, num_episodes: int) -> dict:
        return self._fused.make_step_workspace(num_episodes)

    def update_beliefs(self, *args, **kwargs):
        return self._fused.update_beliefs(*args, **kwargs)

    def simulate(self, strategies, uniforms, profile=None, trellis=None, repeat=1):
        from ..engine import BatchSimulationResult  # deferred: package cycle

        from time import perf_counter_ns

        engine = self.engine
        # The loop reads buffer row b % M for episode b of the repeat * M.
        num_episodes = uniforms.shape[0] * repeat
        table = self._threshold_table(strategies, num_episodes)
        if table is None:
            # Not expressible as threshold tables (e.g. a wrapped learned
            # policy): run on the fused NumPy backend instead.
            return self._fused.simulate(
                strategies, uniforms, profile=profile, trellis=trellis, repeat=repeat
            )
        thresholds, deadlines = table
        loop = _get_loop(jit=not self.force_python)
        scenario = engine.scenario
        t0 = perf_counter_ns()
        (
            total_cost,
            recoveries,
            compromises,
            delay_sum,
            delay_count,
            available,
        ) = loop(
            np.ascontiguousarray(uniforms, dtype=np.float64),
            thresholds,
            deadlines,
            self._fused.m4,
            self._like_h,
            self._like_c,
            self._tcdf,
            self._ocdf,
            engine._initial_belief,
            engine._eta,
            scenario.horizon,
            -1 if scenario.f is None else int(scenario.f),
        )
        if profile is not None:
            profile.backend = self.name if not self.force_python else "numba(python)"
            profile.add("jit_loop", perf_counter_ns() - t0)
            profile.steps += scenario.horizon
        horizon = scenario.horizon
        time_to_recovery = np.divide(
            delay_sum,
            delay_count,
            out=np.zeros_like(delay_sum),
            where=delay_count > 0,
        )
        return BatchSimulationResult(
            average_cost=total_cost / horizon,
            time_to_recovery=time_to_recovery,
            recovery_frequency=recoveries / horizon,
            num_recoveries=recoveries,
            num_compromises=compromises,
            steps=horizon,
            availability=(available / horizon) if scenario.f is not None else None,
        )

    def _threshold_table(self, strategies, num_episodes: int):
        """Per-node ``(N, B, D)`` threshold tables, or ``None`` if inexpressible.

        Periodic schedules fold into the per-node deadline (they share the
        BTR constraint's ``time_since_recovery >= deadline`` form); pure
        threshold strategies pad their vectors with the last entry, which is
        exactly the ``theta_{min(t, d-1)}`` clamping of the scalar strategy.
        """
        deadlines = self.engine._btr_deadline.copy()
        vectors: list[np.ndarray] = []
        for j, strategy in enumerate(strategies):
            if isinstance(strategy, LoopedBatchStrategy):
                strategy = strategy.strategy
            if isinstance(strategy, ThresholdStrategy):
                vec = np.array([[strategy.alpha]])
            elif isinstance(strategy, MultiThresholdStrategy):
                vec = np.asarray(strategy.thresholds, dtype=float)[None, :]
            elif isinstance(strategy, BatchMultiThreshold):
                thresholds = strategy.thresholds
                vec = thresholds[None, :] if thresholds.ndim == 1 else thresholds
            elif isinstance(strategy, NoRecoveryStrategy):
                vec = np.array([[2.0]])  # beliefs are <= 1: never triggers
            elif isinstance(strategy, PeriodicStrategy):
                vec = np.array([[2.0]])
                if strategy.period != math.inf:
                    deadlines[j] = min(deadlines[j], int(strategy.period) - 1)
            elif isinstance(strategy, BeliefPeriodicStrategy):
                vec = np.array([[strategy.alpha]])
                if strategy.period != math.inf:
                    deadlines[j] = min(deadlines[j], int(strategy.period) - 1)
            else:
                return None
            if vec.shape[0] not in (1, num_episodes):
                raise ValueError(
                    "per-episode thresholds require one row per episode, got "
                    f"{vec.shape[0]} rows for batch size {num_episodes}"
                )
            vectors.append(vec)
        depth = max(vec.shape[1] for vec in vectors)
        table = np.empty((len(vectors), num_episodes, depth))
        for j, vec in enumerate(vectors):
            if vec.shape[1] < depth:
                vec = np.concatenate(
                    [vec, np.repeat(vec[:, -1:], depth - vec.shape[1], axis=1)], axis=1
                )
            table[j] = vec
        return table, deadlines
