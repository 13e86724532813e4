"""Tests for the kernel backends (``repro.sim.kernels``).

Covers the backend registry and selection, bit-exactness of the fused
backend against the reference backend (property-based, including the
degenerate-observation fallback and a small observation alphabet), the
rank-table machinery behind the fused run loop, validation of pre-drawn
uniform buffers, and the observability satellites (per-phase profiles,
workspace allocation in ``begin``, the belief-dynamics memo).
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.belief as belief_module
import repro.sim as sim_package
import repro.sim.kernels.fused as fused_module
from repro.core import (
    BetaBinomialObservationModel,
    CachedBeliefDynamics,
    DiscreteObservationModel,
    MultiThresholdStrategy,
    NodeParameters,
    PeriodicStrategy,
    ThresholdStrategy,
)
from repro.sim import (
    BatchMultiThreshold,
    BatchRecoveryEngine,
    FleetScenario,
    StaticAdversary,
    resolve_backend,
)
from repro.sim.kernels import BACKENDS, DEFAULT_BACKEND, FusedKernel

_OBSERVATION_MODEL = BetaBinomialObservationModel()

#: Small observation alphabet (|O| = 3, against BetaBinomial's 11): the
#: fused backend's rank tables then hold only a few merged CDF values.
_SMALL_MODEL = DiscreteObservationModel(
    observations=[0, 1, 2],
    healthy_pmf=[0.7, 0.2, 0.1],
    compromised_pmf=[0.1, 0.3, 0.6],
)

#: A zero likelihood entry under both live states: Assumption D fails, so
#: the engine must keep the degenerate-observation fallback branch.
_DEGENERATE_MODEL = DiscreteObservationModel(
    observations=[0, 1, 2],
    healthy_pmf=[1.0, 0.0, 0.0],
    compromised_pmf=[0.0, 0.0, 1.0],
)


def _single_node(model=_OBSERVATION_MODEL, horizon=40, **params):
    params.setdefault("p_a", 0.1)
    params.setdefault("delta_r", 8)
    return FleetScenario.single_node(NodeParameters(**params), model, horizon=horizon)


def _assert_results_equal(a, b):
    for name in (
        "average_cost",
        "time_to_recovery",
        "recovery_frequency",
        "num_recoveries",
        "num_compromises",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.steps == b.steps
    if a.availability is None:
        assert b.availability is None
    else:
        assert np.array_equal(a.availability, b.availability)


def _compare_backends(scenario, strategy, num_episodes=32, seed=3):
    reference = BatchRecoveryEngine(scenario, backend="reference")
    fused = BatchRecoveryEngine(scenario, backend="fused")
    ref = reference.run(strategy, num_episodes=num_episodes, seed=seed)
    out = fused.run(strategy, num_episodes=num_episodes, seed=seed)
    _assert_results_equal(ref, out)
    return ref


class TestBackendSelection:
    def test_registry_and_default(self):
        assert set(BACKENDS) == {"reference", "fused"}
        assert DEFAULT_BACKEND == "fused"

    def test_explicit_argument(self):
        engine = BatchRecoveryEngine(_single_node(), backend="reference")
        assert engine.backend == "reference"
        assert type(engine._kernel).__name__ == "ReferenceKernel"

    def test_default_when_unset(self):
        assert resolve_backend() == DEFAULT_BACKEND
        assert BatchRecoveryEngine(_single_node()).backend == DEFAULT_BACKEND

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend("fortran")

    def test_case_and_whitespace_insensitive(self):
        assert resolve_backend("  Reference ") == "reference"

    @pytest.mark.parametrize("name", ["numba", "trellis"])
    def test_removed_backends_rejected(self, name):
        with pytest.raises(ValueError, match="unknown engine backend"):
            resolve_backend(name)
        with pytest.raises(ValueError, match="unknown engine backend"):
            BatchRecoveryEngine(_single_node(), backend=name)

    def test_simulate_ignores_trellis_keyword(self):
        engine = BatchRecoveryEngine(_single_node(_SMALL_MODEL), backend="fused")
        strategies = engine._normalize_strategies(ThresholdStrategy(0.75))
        uniforms = engine.draw_uniforms(5, 64)
        baseline = engine._simulate(strategies, uniforms)
        for flag in (True, False):
            _assert_results_equal(
                baseline, engine._simulate(strategies, uniforms, trellis=flag)
            )


class TestFusedBitExactness:
    """The fused backend must reproduce the reference backend bit for bit."""

    @given(
        p_a=st.floats(min_value=0.01, max_value=0.5),
        p_c1=st.floats(min_value=0.01, max_value=0.5),
        p_u=st.floats(min_value=0.0, max_value=0.5),
        degenerate=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_beliefs_equals_batch_posterior(self, p_a, p_c1, p_u, degenerate, seed):
        """The fused-table kernel == ``_batch_two_state_posterior`` bitwise,
        for random node models, beliefs, observations and recover masks —
        including the degenerate-observation fallback branch."""
        from repro.core.belief import _batch_two_state_posterior
        from repro.core.node_model import NodeTransitionModel

        model = _DEGENERATE_MODEL if degenerate else _SMALL_MODEL
        scenario = _single_node(model, p_a=p_a, p_c1=p_c1, p_u=p_u)
        engine = BatchRecoveryEngine(scenario, backend="fused")
        kernel = engine._kernel
        rng = np.random.default_rng(seed)
        batch = 17
        beliefs = rng.random(batch)
        recover = rng.random(batch) < 0.4
        observations = rng.integers(0, model.num_observations, size=batch)
        pmf = engine._observation_pmf[0]
        transition = NodeTransitionModel(scenario.node_params[0])
        expected = _batch_two_state_posterior(
            beliefs,
            recover,
            pmf[0][observations],
            pmf[1][observations],
            transition.matrix(0),
            transition.matrix(1),
        )
        updated = kernel.update_beliefs(
            recover[:, None], observations[:, None], beliefs[:, None]
        )
        assert np.array_equal(updated[:, 0], expected)

    @given(
        p_a=st.floats(min_value=0.01, max_value=0.5),
        p_c1=st.floats(min_value=0.01, max_value=0.5),
        p_u=st.floats(min_value=0.0, max_value=0.5),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_threshold_parity_random_parameters(self, p_a, p_c1, p_u, alpha, seed):
        scenario = _single_node(p_a=p_a, p_c1=p_c1, p_u=p_u, horizon=25)
        _compare_backends(scenario, ThresholdStrategy(alpha), num_episodes=20, seed=seed)

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_degenerate_observation_fallback_parity(self, alpha, seed):
        scenario = _single_node(_DEGENERATE_MODEL, p_u=0.0, horizon=25)
        engine = BatchRecoveryEngine(scenario, backend="fused")
        assert not engine._regular_observations
        _compare_backends(scenario, ThresholdStrategy(alpha), num_episodes=20, seed=seed)

    @pytest.mark.parametrize(
        "model", [_OBSERVATION_MODEL, _SMALL_MODEL], ids=["beta-binomial", "small-alphabet"]
    )
    @pytest.mark.parametrize(
        "strategy",
        [
            ThresholdStrategy(0.6),
            MultiThresholdStrategy.from_vector([0.2, 0.5, 0.9], delta_r=8.0),
            PeriodicStrategy(5),
        ],
        ids=["threshold", "multi-threshold", "periodic"],
    )
    def test_strategy_classes_parity(self, strategy, model):
        _compare_backends(_single_node(model), strategy, num_episodes=48, seed=11)

    def test_per_episode_thresholds_parity(self):
        """A per-episode (2-D) threshold matrix is bit-exact too."""
        rng = np.random.default_rng(5)
        strategy = BatchMultiThreshold(rng.uniform(0.2, 0.9, size=(48, 3)))
        _compare_backends(_single_node(), strategy, num_episodes=48, seed=11)

    @pytest.mark.parametrize("num_nodes", [2, 4, 6])
    def test_multi_node_parity(self, num_nodes):
        """Covers both the rank path (N <= 4) and the raw path (N > 4)."""
        assert fused_module._MAX_RANK_NODES == 4
        scenario = FleetScenario.homogeneous(
            NodeParameters(p_a=0.15, delta_r=10),
            _OBSERVATION_MODEL,
            num_nodes=num_nodes,
            horizon=30,
            f=1,
        )
        ref = _compare_backends(scenario, ThresholdStrategy(0.5), num_episodes=24, seed=2)
        assert ref.availability is not None


class TestRankTables:
    def test_ranks_into_matches_searchsorted(self):
        rng = np.random.default_rng(0)
        merged = np.unique(rng.random(37))
        bucket = FusedKernel._bucket_grid(merged)
        assert bucket is not None
        u = rng.random((50, 8))
        out = np.empty_like(u, dtype=np.int64)
        FusedKernel._ranks_into(u, merged, bucket, out)
        expected = np.searchsorted(merged, u.ravel(), side="right").reshape(u.shape)
        assert np.array_equal(out, expected)
        # Values of the merged set themselves rank as #{merged <= u}.
        out2 = np.empty(len(merged), dtype=np.int64)
        FusedKernel._ranks_into(merged, merged, bucket, out2)
        assert np.array_equal(out2, np.arange(1, len(merged) + 1))

    def test_bucket_grid_dense_set_falls_back(self):
        # Eight values inside one 1/65536 bucket: occupancy > 4 at the cap,
        # so the grid is abandoned and _ranks_into uses searchsorted.
        merged = 0.5 + np.arange(8) * 1e-9
        assert FusedKernel._bucket_grid(merged) is None
        u = np.array([0.4999, 0.5 + 3.5e-9, 0.6])
        out = np.empty(3, dtype=np.int64)
        FusedKernel._ranks_into(u, merged, None, out)
        assert np.array_equal(out, np.searchsorted(merged, u, side="right"))

    def test_rank_cache_memoizes_by_buffer_identity(self):
        engine = BatchRecoveryEngine(_single_node(), backend="fused")
        kernel = engine._kernel
        uniforms = engine.draw_uniforms(0, 16)
        first = kernel._uniform_ranks(uniforms)
        assert kernel._uniform_ranks(uniforms) is first
        # The entry pins the buffer, so the address key cannot be recycled.
        key = uniforms.__array_interface__["data"][0]
        assert kernel._rank_cache[key][0] is uniforms
        # A different buffer gets its own entry; the cache stays bounded.
        for seed in range(1, 6):
            kernel._uniform_ranks(engine.draw_uniforms(seed, 16))
        assert len(kernel._rank_cache) <= 4

    def test_uniform_ranks_values(self):
        engine = BatchRecoveryEngine(_single_node(), backend="fused")
        kernel = engine._kernel
        uniforms = engine.draw_uniforms(1, 4)
        num_episodes, num_nodes, width = uniforms.shape
        flat = kernel._uniform_ranks(uniforms)
        ranks = flat.reshape(width, 2, num_nodes, num_episodes)
        ut = uniforms[:, 0, :].T
        for row, merged in ((0, kernel._t_merged[0]), (1, kernel._obs_merged[0])):
            expected = np.searchsorted(merged, ut.ravel(), side="right")
            assert np.array_equal(ranks[:, row, 0], expected.reshape(ut.shape))


class TestUniformsValidation:
    """``run(uniforms=...)`` and ``begin(uniforms=...)`` share one check."""

    _EPISODES = 8
    _HORIZON = 50

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("entry", ["run", "begin"])
    @pytest.mark.parametrize(
        "shape",
        [(_EPISODES, 2, 2 * _HORIZON), (_EPISODES, 1, 60), (_EPISODES, 2 * _HORIZON)],
        ids=["two-node-buffer", "narrow-buffer", "two-dimensional"],
    )
    def test_malformed_buffer_is_rejected(self, backend, entry, shape):
        engine = BatchRecoveryEngine(_single_node(horizon=self._HORIZON), backend=backend)
        uniforms = np.random.default_rng(0).random(shape)
        with pytest.raises(ValueError, match="uniforms must have shape"):
            if entry == "run":
                engine.run(ThresholdStrategy(0.75), uniforms=uniforms)
            else:
                engine.begin(uniforms=uniforms)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_wider_buffer_reads_only_its_prefix(self, backend):
        engine = BatchRecoveryEngine(_single_node(horizon=self._HORIZON), backend=backend)
        wide = np.random.default_rng(1).random((self._EPISODES, 1, 2 * self._HORIZON + 7))
        strategy = ThresholdStrategy(0.75)
        _assert_results_equal(
            engine.run(strategy, uniforms=wide[:, :, : 2 * self._HORIZON].copy()),
            engine.run(strategy, uniforms=wide),
        )


class TestObservability:
    def test_run_profile_collects_phases(self):
        engine = BatchRecoveryEngine(_single_node(), backend="fused")
        result = engine.run(ThresholdStrategy(0.6), num_episodes=32, seed=0, profile=True)
        profile = result.profile
        assert profile is not None
        assert profile.steps == 40
        assert profile.backend == "fused"
        for phase in ("strategy", "transition_sample", "observation_draw", "belief_update"):
            assert profile.nanos[phase] > 0
        assert profile.total_ns == sum(ns for _, ns in profile.nanos.items())
        assert [row[0] for row in profile.rows()] == sorted(
            (n for n, ns in profile.nanos.items() if ns),
            key=lambda n: -profile.nanos[n],
        )

    def test_unprofiled_run_has_no_profile(self):
        engine = BatchRecoveryEngine(_single_node(), backend="fused")
        result = engine.run(ThresholdStrategy(0.6), num_episodes=8, seed=0)
        assert result.profile is None

    def test_begin_allocates_belief_workspace(self):
        engine = BatchRecoveryEngine(_single_node(), backend="fused")
        sim = engine.begin(num_episodes=12, seed=0)
        workspace = sim.belief_workspace
        assert isinstance(workspace, dict) and workspace
        for array in workspace.values():
            assert array.shape[-1] == 12 or array.shape[0] == 12

    def test_stepwise_profile(self):
        engine = BatchRecoveryEngine(_single_node(), backend="fused")
        sim = engine.begin(num_episodes=8, seed=0, profile=True)
        engine.step(sim, np.zeros((8, 1), dtype=bool))
        assert sim.profile is not None
        assert sim.profile.nanos["belief_update"] > 0

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_dynamic_path_profiles_strategy_phase(self, backend):
        scenario = FleetScenario.single_node(
            NodeParameters(p_a=0.1, delta_r=8),
            _OBSERVATION_MODEL,
            horizon=40,
            adversary=StaticAdversary(force_dynamic=True),
        )
        engine = BatchRecoveryEngine(scenario, backend=backend)
        assert engine.is_dynamic
        result = engine.run(ThresholdStrategy(0.6), num_episodes=16, seed=0, profile=True)
        assert result.profile.backend == backend
        assert result.profile.steps == 40
        for phase in ("strategy", "transition_sample", "belief_update"):
            assert result.profile.nanos[phase] > 0

    def test_uniforms_memoized_per_seed(self):
        engine = BatchRecoveryEngine(_single_node(), backend="fused")
        first = engine.draw_uniforms(0, 16)
        assert engine.draw_uniforms(0, 16) is first
        assert not first.flags.writeable
        assert engine.draw_uniforms(1, 16) is not first


class TestCachedBeliefDynamics:
    def test_lives_in_core_without_sim_shim(self):
        assert CachedBeliefDynamics is belief_module.CachedBeliefDynamics
        assert not hasattr(sim_package, "CachedBeliefDynamics")
        assert importlib.util.find_spec("repro.sim.kernels.trellis") is None

    def test_memoization_counters(self):
        cache = CachedBeliefDynamics()
        calls = []

        def compute():
            calls.append(1)
            return 0.25

        key = (0.5, 0, 3)
        assert cache.get(key, compute) == 0.25
        assert cache.get(key, compute) == 0.25
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0
