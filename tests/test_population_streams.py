"""Common random numbers by reference: populations on one shared buffer.

``BatchRecoveryEngine.run_threshold_population`` evaluates ``K`` candidates
on the same ``M`` episode streams.  The run covers ``K * M`` episodes that
all read the one memoized ``(M, N, W)`` uniform buffer (episode ``b`` reads
row ``b mod M``) instead of a ``K``-fold copy of it.  This suite pins that
layout to the per-candidate runs bit for bit on every backend, checks the
stepwise ``begin(..., repeat=K)`` path against the closed run, and bounds
the memory a warmed population call keeps and peaks at.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    BetaBinomialObservationModel,
    DiscreteObservationModel,
    MultiThresholdStrategy,
    NodeParameters,
)
from repro.sim import (
    BatchMultiThreshold,
    BatchRecoveryEngine,
    BurstyAdversary,
    FleetScenario,
    StaticAdversary,
)

_WIDE_MODEL = BetaBinomialObservationModel()
#: |O| = 3: a small observation alphabet for the fused kernel's rank tables.
_SMALL_MODEL = DiscreteObservationModel(
    observations=[0, 1, 2],
    healthy_pmf=[0.7, 0.2, 0.1],
    compromised_pmf=[0.1, 0.3, 0.6],
)
_HORIZON = 40

#: name -> (backend, observation model, adversary).
_LEGS = {
    "fused-small-alphabet": ("fused", _SMALL_MODEL, None),
    "fused-table": ("fused", _WIDE_MODEL, None),
    "reference": ("reference", _WIDE_MODEL, None),
    "force-dynamic": ("fused", _WIDE_MODEL, StaticAdversary(force_dynamic=True)),
    "bursty": ("fused", _WIDE_MODEL, BurstyAdversary()),
}

_RESULT_FIELDS = (
    "average_cost",
    "time_to_recovery",
    "recovery_frequency",
    "num_recoveries",
    "num_compromises",
    "availability",
)


def _engine(leg: str, delta_r: float, num_nodes: int = 1, horizon: int = _HORIZON):
    backend, model, adversary = _LEGS[leg]
    scenario = FleetScenario.homogeneous(
        NodeParameters(p_a=0.2, delta_r=delta_r),
        model,
        num_nodes,
        horizon=horizon,
        f=0 if num_nodes == 1 else 1,
        adversary=adversary,
    )
    return BatchRecoveryEngine(scenario, backend=backend)


def _candidates(num_candidates: int, delta_r: float) -> np.ndarray:
    dimension = 1 if delta_r == math.inf else int(delta_r) - 1
    return np.random.default_rng(num_candidates).uniform(
        0.1, 0.95, size=(num_candidates, dimension)
    )


def _assert_results_equal(a, b):
    for name in _RESULT_FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        if left is None and right is None:
            continue
        assert np.array_equal(left, right), name


class TestPopulationParity:
    @pytest.mark.parametrize("delta_r", [8.0, math.inf], ids=["dr8", "dr-inf"])
    @pytest.mark.parametrize("num_episodes", [1, 8], ids=["M1", "M8"])
    @pytest.mark.parametrize("num_candidates", [1, 3], ids=["K1", "K3"])
    @pytest.mark.parametrize("leg", list(_LEGS))
    def test_rows_equal_separate_runs(self, leg, num_candidates, num_episodes, delta_r):
        """Row k == engine.run(candidate k) on the same seed, bit for bit."""
        engine = _engine(leg, delta_r)
        thetas = _candidates(num_candidates, delta_r)
        population = engine.run_threshold_population(thetas, num_episodes, seed=11)
        separate = [
            engine.run(
                MultiThresholdStrategy.from_vector(theta, delta_r=delta_r),
                num_episodes=num_episodes,
                seed=11,
            ).average_cost[:, 0].mean()
            for theta in thetas
        ]
        assert population.shape == (num_candidates,)
        assert np.array_equal(population, np.array(separate))

    @pytest.mark.parametrize("leg", ["fused-table", "reference", "force-dynamic", "bursty"])
    @pytest.mark.parametrize("num_nodes", [1, 3])
    def test_stepwise_repeat_equals_run_on_tiled_buffer(self, leg, num_nodes):
        """begin(..., repeat=K) + step == run on the K-fold tiled buffer."""
        engine = _engine(leg, 8.0, num_nodes=num_nodes)
        repeat, num_episodes, seed = 3, 5, 4
        thresholds = np.repeat(_candidates(repeat, 8.0), num_episodes, axis=0)
        strategy = BatchMultiThreshold(thresholds)
        uniforms = engine.draw_uniforms(seed, num_episodes)
        adversary_uniforms = engine.draw_adversary_uniforms(seed, num_episodes)
        tiled = engine.run(
            strategy,
            uniforms=np.tile(uniforms, (repeat, 1, 1)),
            adversary_uniforms=(
                None
                if adversary_uniforms is None
                else np.tile(adversary_uniforms, (repeat, 1, 1))
            ),
        )
        for sim in (
            engine.begin(num_episodes, seed=seed, repeat=repeat),
            engine.begin(
                uniforms=uniforms, adversary_uniforms=adversary_uniforms, repeat=repeat
            ),
        ):
            assert sim.num_episodes == repeat * num_episodes
            assert sim.uniforms is uniforms  # the memoized buffer, not a copy
            recover = np.empty(sim.state.shape, dtype=bool)
            for _ in range(engine.scenario.horizon):
                for j in range(num_nodes):
                    recover[:, j] = strategy.action_batch(
                        sim.belief[:, j], sim.time_since_recovery[:, j]
                    )
                engine.step(sim, recover)
            _assert_results_equal(tiled, engine.finalize(sim))

    @pytest.mark.parametrize("num_nodes", [1, 3, 6], ids=["N1", "N3-rank", "N6-flat"])
    def test_fused_driver_repeat_equals_tiled_buffer(self, num_nodes):
        """The fused driver's row map matches the tiled layout on every path."""
        engine = _engine("fused-small-alphabet", 8.0, num_nodes=num_nodes)
        kernel = engine._kernel
        strategies = engine._normalize_strategies(
            MultiThresholdStrategy.from_vector([0.3, 0.6, 0.8], delta_r=8.0)
        )
        uniforms = engine.draw_uniforms(2, 9)
        shared = kernel.simulate(strategies, uniforms, repeat=4)
        tiled = kernel.simulate(strategies, np.tile(uniforms, (4, 1, 1)))
        _assert_results_equal(tiled, shared)

    def test_repeat_must_be_positive(self):
        engine = _engine("fused-table", 8.0)
        with pytest.raises(ValueError, match="repeat"):
            engine.begin(4, seed=0, repeat=0)


class TestPopulationInputs:
    def test_empty_population_returns_empty_without_simulating(self):
        engine = _engine("fused-table", 8.0)
        engine._kernel = None  # any simulation attempt would fail loudly
        costs = engine.run_threshold_population(np.empty((0, 7)), num_episodes=10, seed=0)
        assert costs.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_candidate_is_rejected(self, bad):
        engine = _engine("fused-table", 8.0)
        thetas = np.array([[0.5] * 7, [0.5] * 6 + [bad]])
        with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
            engine.run_threshold_population(thetas, num_episodes=4, seed=0)


class TestPopulationMemory:
    """Algorithm 1's population call must not copy the shared streams."""

    def test_warmed_call_retains_nothing_and_peaks_small(self):
        scenario = FleetScenario.single_node(
            NodeParameters(p_a=0.1, delta_r=15), _WIDE_MODEL, horizon=200
        )
        engine = BatchRecoveryEngine(scenario, backend="fused")
        thetas = np.random.default_rng(0).uniform(0.2, 0.9, size=(50, 14))
        seed, num_episodes = 5, 200
        engine.run_threshold_population(thetas, num_episodes, seed=seed)  # warm
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            costs = engine.run_threshold_population(thetas, num_episodes, seed=seed)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert costs.shape == (50,)
        assert after - before < 1 << 20
        assert peak - before < 64 << 20
        # One rank entry, pinned to the engine's memoized buffer itself.
        cache = engine._kernel._rank_cache
        assert len(cache) == 1
        (buffer, _ranks), = cache.values()
        assert buffer is engine.draw_uniforms(seed, num_episodes)
