"""Sharded multi-process sweeps and the fitted-model policy-solve cache.

The parallel execution layer (:mod:`repro.control.parallel`) promises one
thing above all: **any shard count reproduces the single-process sweep bit
for bit** under a fixed seed.  This suite pins that contract down —

* the sharding primitives and the seed tree of :mod:`repro.sim.streams`:
  contiguous episode partitions, and engine / system / adversary rows of
  any episode range ``[lo, hi)`` identical to the matching rows of a
  monolithic draw;
* bit-exact table parity for ``n_jobs in {1, 2, 3}`` across
  ``closed_loop_sweep``, ``attacker_intensity_sweep``,
  ``engine_fleet_sweep`` and ``mixed_closed_loop_sweep`` against direct
  ``engine.run(seed=...)`` / ``TwoLevelController(...).run(seed=...)``
  calls — including stochastic replication cells (which consume the
  per-episode system streams) and labelled scenarios (per-class metric
  dictionaries);
* common random numbers under ``seed=None`` and the named error for a
  repeated table key;
* shard-result concatenation, :meth:`EngineProfile.merge` and profile
  pickling round-trips;
* the named ``n_jobs``/``n1`` validation errors;
* the policy-solve cache: hit/miss/invalidation accounting, infeasible
  outcome caching, and the two hash properties the cache key relies on —
  order-insensitivity over however a fit enumerated its transitions, and
  collision-distinctness for perturbed kernels (hypothesis properties).
"""

from __future__ import annotations

import pickle
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    ClosedLoopCell,
    PolicySolveCache,
    attacker_intensity_sweep,
    closed_loop_sweep,
    default_tolerance_threshold,
    engine_fleet_sweep,
    identify_replication_strategies,
    mixed_closed_loop_sweep,
)
from repro.control.parallel import (
    _concatenate,
    parallel_closed_loop_table,
    shard_episodes,
    shard_uniforms,
    validate_n_jobs,
)
from repro.control.two_level import TwoLevelController, TwoLevelResult
from repro.control.policy_cache import fitted_model_key
from repro.core import (
    BetaBinomialObservationModel,
    MixedReplicationStrategy,
    NodeParameters,
    ReplicationThresholdStrategy,
    ThresholdStrategy,
)
from repro.core.system_model import EmpiricalSystemModel, class_aware_system_model
from repro.sim import BatchRecoveryEngine, BurstyAdversary, FleetScenario, NodeClass
from repro.sim.kernels import EngineProfile
from repro.sim.streams import (
    adversary_uniforms,
    engine_uniforms,
    resolve_entropy,
    system_seed_sequences,
)

PARAMS = NodeParameters(p_a=0.1)
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
ENGINE_FIELDS = (
    "average_cost",
    "time_to_recovery",
    "recovery_frequency",
    "num_recoveries",
    "num_compromises",
)


@pytest.fixture(scope="module")
def observation_model():
    return BetaBinomialObservationModel()


def _cells() -> list[ClosedLoopCell]:
    stochastic = MixedReplicationStrategy(
        ReplicationThresholdStrategy(4), ReplicationThresholdStrategy(5), kappa=0.5
    )
    return [
        ClosedLoopCell("tolerance", ThresholdStrategy(0.75)),
        ClosedLoopCell("det-add", ThresholdStrategy(0.75), ReplicationThresholdStrategy(4)),
        ClosedLoopCell("stoch-add", ThresholdStrategy(0.75), stochastic),
    ]


def _assert_two_level_tables_equal(reference: dict, table: dict) -> None:
    assert set(reference) == set(table)
    for key in reference:
        a, b = reference[key], table[key]
        assert a.steps == b.steps
        for field in TWO_LEVEL_FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype, (key, field)
            np.testing.assert_array_equal(x, y, err_msg=f"{key}/{field}")
        assert (a.class_average_cost is None) == (b.class_average_cost is None)
        if a.class_average_cost is not None:
            assert list(a.class_average_cost) == list(b.class_average_cost)
            for label in a.class_average_cost:
                np.testing.assert_array_equal(
                    a.class_average_cost[label], b.class_average_cost[label]
                )
                np.testing.assert_array_equal(
                    a.class_recovery_frequency[label],
                    b.class_recovery_frequency[label],
                )


def _assert_engine_tables_equal(reference: dict, table: dict) -> None:
    assert set(reference) == set(table)
    for key in reference:
        a, b = reference[key], table[key]
        assert a.steps == b.steps
        for field in ENGINE_FIELDS:
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype, (key, field)
            np.testing.assert_array_equal(x, y, err_msg=f"{key}/{field}")
        assert (a.availability is None) == (b.availability is None)
        if a.availability is not None:
            np.testing.assert_array_equal(a.availability, b.availability)


def _direct_closed_loop_table(scenarios, cells, num_envs, seed, k=1, initial_nodes=None):
    """The oracle: one direct ``TwoLevelController.run(seed=...)`` per cell."""
    table = {}
    for index, (key, scenario) in enumerate(scenarios):
        engine = BatchRecoveryEngine(scenario)
        initial = (
            initial_nodes[index] if isinstance(initial_nodes, list) else initial_nodes
        )
        for cell in cells:
            table[(key, cell.name)] = TwoLevelController(
                scenario,
                num_envs,
                cell.recovery,
                replication_strategy=cell.replication,
                initial_nodes=initial,
                k=k,
                enforce_invariant=cell.enforce_invariant,
                respect_recovery_limit=cell.respect_recovery_limit,
                engine=engine,
            ).run(seed=seed)
    return table


def _direct_engine_table(scenarios, strategies, num_episodes, seed):
    """The oracle: one direct ``engine.run(seed=...)`` per strategy."""
    table = {}
    for key, scenario in scenarios:
        engine = BatchRecoveryEngine(scenario)
        for name, strategy in strategies.items():
            table[(key, name)] = engine.run(strategy, num_episodes=num_episodes, seed=seed)
    return table


def _sweep_scenario(observation_model, num_nodes, horizon, f):
    return FleetScenario(
        (PARAMS,) * num_nodes, (observation_model,) * num_nodes, horizon=horizon, f=f
    )


class TestShardingPrimitives:
    def test_shards_are_contiguous_and_cover_every_episode(self):
        for episodes in (1, 2, 5, 7, 100):
            for jobs in (1, 2, 3, 4, 9):
                shards = shard_episodes(episodes, jobs)
                assert shards[0][0] == 0 and shards[-1][1] == episodes
                for (_, hi), (lo, _) in zip(shards, shards[1:]):
                    assert hi == lo
                sizes = [hi - lo for lo, hi in shards]
                assert all(size >= 1 for size in sizes)
                assert max(sizes) - min(sizes) <= 1
                assert len(shards) == min(jobs, episodes)

    def test_shard_episodes_rejects_empty_batches(self):
        with pytest.raises(ValueError, match="num_episodes"):
            shard_episodes(0, 2)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_validate_n_jobs_names_the_parameter(self, bad):
        with pytest.raises(ValueError, match="n_jobs"):
            validate_n_jobs(bad)

    def test_validate_n_jobs_accepts_numpy_integers(self):
        assert validate_n_jobs(np.int64(3)) == 3

    def test_resolve_entropy(self):
        assert resolve_entropy(42) == 42
        assert resolve_entropy(np.int64(42)) == 42
        drawn = resolve_entropy(None)
        assert isinstance(drawn, int) and drawn != resolve_entropy(None)

    def test_shard_uniforms_slices_the_engine_seed_tree(self, observation_model):
        scenario = FleetScenario.homogeneous(
            PARAMS, observation_model, num_nodes=4, horizon=10, f=1
        )
        engine = BatchRecoveryEngine(scenario)
        full = engine.draw_uniforms(5, num_episodes=6)
        for lo, hi in ((0, 2), (2, 5), (5, 6), (0, 6)):
            shard = shard_uniforms(5, lo, hi, scenario.num_nodes, 2 * scenario.horizon)
            np.testing.assert_array_equal(shard, full[lo:hi])


class TestSeedTree:
    """:mod:`repro.sim.streams` at episode ranges that start past zero."""

    BATCH, NODES, HORIZON = 6, 4, 10

    @pytest.mark.parametrize("lo,hi", [(1, 3), (2, 6), (5, 6)])
    def test_engine_rows_match_draw_uniforms(self, observation_model, lo, hi):
        scenario = FleetScenario.homogeneous(
            PARAMS, observation_model, num_nodes=self.NODES, horizon=self.HORIZON, f=1
        )
        full = BatchRecoveryEngine(scenario).draw_uniforms(9, self.BATCH)
        rows = engine_uniforms(9, lo, hi, self.NODES, 2 * self.HORIZON)
        assert rows.shape == (hi - lo, self.NODES, 2 * self.HORIZON)
        np.testing.assert_array_equal(rows, full[lo:hi])

    @pytest.mark.parametrize("lo,hi", [(1, 3), (2, 6), (5, 6)])
    def test_system_children_follow_the_engine_children(self, lo, hi):
        total = self.BATCH * self.NODES
        spawned = np.random.SeedSequence(9).spawn(total + self.BATCH)
        expected = spawned[total + lo : total + hi]
        children = system_seed_sequences(9, self.BATCH, self.NODES, lo, hi)
        assert [c.spawn_key for c in children] == [c.spawn_key for c in expected]
        for child, reference in zip(children, expected):
            assert (
                np.random.default_rng(child).random(8).tolist()
                == np.random.default_rng(reference).random(8).tolist()
            )

    @pytest.mark.parametrize("lo,hi", [(1, 3), (2, 6), (5, 6)])
    def test_adversary_rows_match_the_monolithic_draw(self, observation_model, lo, hi):
        scenario = FleetScenario.homogeneous(
            PARAMS,
            observation_model,
            num_nodes=self.NODES,
            horizon=self.HORIZON,
            f=1,
            adversary=BurstyAdversary(),
        )
        engine = BatchRecoveryEngine(scenario)
        full = engine.draw_adversary_uniforms(9, self.BATCH)
        width = engine.adversary.uniforms_per_step(self.NODES)
        rows = adversary_uniforms(9, lo, hi, self.HORIZON, width)
        np.testing.assert_array_equal(rows, full[lo:hi])


class TestDefaultToleranceThreshold:
    def test_bft_rule_for_positive_fleets(self):
        assert [default_tolerance_threshold(n) for n in (1, 2, 3, 4, 7, 10)] == [
            0, 0, 0, 1, 2, 3,
        ]

    @pytest.mark.parametrize("n1", [0, -1, -10])
    def test_rejects_non_positive_fleet_sizes(self, n1):
        with pytest.raises(ValueError, match="n1 >= 1"):
            default_tolerance_threshold(n1)


class TestSweepParity:
    """Every sweep at ``n_jobs in {1, 2, 3}`` against direct seeded runs."""

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_closed_loop_sweep_is_bit_identical(self, observation_model, n_jobs):
        table = closed_loop_sweep(
            n1_values=[4, 7],
            cells=_cells(),
            node_params=PARAMS,
            observation_model=observation_model,
            smax=9,
            num_envs=7,
            horizon=15,
            seed=3,
            n_jobs=n_jobs,
        )
        scenarios = [
            (n1, _sweep_scenario(observation_model, 9, 15, default_tolerance_threshold(n1)))
            for n1 in (4, 7)
        ]
        reference = _direct_closed_loop_table(
            scenarios, _cells(), 7, seed=3, initial_nodes=[4, 7]
        )
        _assert_two_level_tables_equal(reference, table)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_attacker_intensity_sweep_is_bit_identical(self, observation_model, n_jobs):
        scenario = FleetScenario.homogeneous(
            PARAMS, observation_model, num_nodes=6, horizon=15, f=1
        )
        table = attacker_intensity_sweep(
            scenario=scenario,
            intensities=[1.0, 2.5],
            cells=_cells(),
            num_envs=7,
            seed=11,
            initial_nodes=4,
            n_jobs=n_jobs,
        )
        scenarios = [(x, scenario.scale_attack(x)) for x in (1.0, 2.5)]
        reference = _direct_closed_loop_table(
            scenarios, _cells(), 7, seed=11, initial_nodes=4
        )
        _assert_two_level_tables_equal(reference, table)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_mixed_sweep_carries_class_metrics_through_shards(
        self, observation_model, n_jobs
    ):
        scenario = FleetScenario.mixed(
            [
                NodeClass("hardened", HARDENED, observation_model, count=3),
                NodeClass("vulnerable", VULNERABLE, observation_model, count=3),
            ],
            horizon=15,
            f=1,
        )
        table = mixed_closed_loop_sweep(
            scenarios={"mixed": scenario},
            cells=_cells(),
            num_envs=6,
            seed=7,
            initial_nodes=4,
            n_jobs=n_jobs,
        )
        reference = _direct_closed_loop_table(
            [("mixed", scenario)], _cells(), 6, seed=7, initial_nodes=4
        )
        _assert_two_level_tables_equal(reference, table)
        assert table[("mixed", "tolerance")].class_average_cost is not None

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_engine_fleet_sweep_is_bit_identical(self, observation_model, n_jobs):
        strategies = {"threshold": ThresholdStrategy(0.75)}
        table = engine_fleet_sweep(
            n1_values=[4, 7],
            strategies=strategies,
            node_params=PARAMS,
            observation_model=observation_model,
            num_episodes=7,
            horizon=15,
            seed=3,
            n_jobs=n_jobs,
        )
        scenarios = [
            (n1, _sweep_scenario(observation_model, n1, 15, default_tolerance_threshold(n1)))
            for n1 in (4, 7)
        ]
        reference = _direct_engine_table(scenarios, strategies, 7, seed=3)
        _assert_engine_tables_equal(reference, table)

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_episode_shards_replay_the_serial_seed_tree(
        self, observation_model, n_jobs
    ):
        """A single stochastic cell forces true episode sharding.

        With one (scenario, cell) pair every worker owns a proper
        ``[lo, hi)`` episode range, so this exercises both halves of the
        seeding contract: the engine's episode-major uniform children and
        the per-episode system-controller streams at offset ``B * N + b``
        (consumed by the stochastic replication strategy).
        """
        scenario = FleetScenario.homogeneous(
            PARAMS, observation_model, num_nodes=6, horizon=15, f=1
        )
        stochastic = MixedReplicationStrategy(
            ReplicationThresholdStrategy(4), ReplicationThresholdStrategy(5), kappa=0.5
        )
        cell = ClosedLoopCell("stoch", ThresholdStrategy(0.75), stochastic)
        reference = _direct_closed_loop_table(
            [("s", scenario)], [cell], 7, seed=13, initial_nodes=4
        )
        table = parallel_closed_loop_table(
            [("s", scenario)], [cell], 7, 13, 1, 4, n_jobs
        )
        _assert_two_level_tables_equal(reference, table)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_seed_none_gives_every_column_the_same_streams(
        self, observation_model, n_jobs
    ):
        """Common random numbers hold under ``seed=None`` at every n_jobs."""
        engine_table = engine_fleet_sweep(
            [4],
            {"a": ThresholdStrategy(0.75), "b": ThresholdStrategy(0.75)},
            PARAMS,
            observation_model,
            num_episodes=6,
            horizon=15,
            seed=None,
            n_jobs=n_jobs,
        )
        a, b = engine_table[(4, "a")], engine_table[(4, "b")]
        for field in ENGINE_FIELDS:
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        stochastic = MixedReplicationStrategy(
            ReplicationThresholdStrategy(4), ReplicationThresholdStrategy(5), kappa=0.5
        )
        cells = [
            ClosedLoopCell(name, ThresholdStrategy(0.75), stochastic) for name in "ab"
        ]
        loop_table = closed_loop_sweep(
            [4],
            cells,
            PARAMS,
            observation_model,
            smax=9,
            num_envs=6,
            horizon=15,
            seed=None,
            n_jobs=n_jobs,
        )
        a, b = loop_table[(4, "a")], loop_table[(4, "b")]
        for field in TWO_LEVEL_FIELDS:
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_repeated_table_keys_are_rejected(self, observation_model, n_jobs):
        base = dict(
            node_params=PARAMS,
            observation_model=observation_model,
            smax=6,
            num_envs=2,
            horizon=5,
            n_jobs=n_jobs,
        )
        twins = [ClosedLoopCell("t", ThresholdStrategy(0.75))] * 2
        with pytest.raises(ValueError, match="duplicate cell name 't'"):
            closed_loop_sweep([4], twins, **base)
        with pytest.raises(ValueError, match="duplicate scenario key 4"):
            closed_loop_sweep([4, 4], _cells()[:1], **base)
        with pytest.raises(ValueError, match="duplicate scenario key 4"):
            engine_fleet_sweep(
                [4, 4],
                {"t": ThresholdStrategy(0.75)},
                PARAMS,
                observation_model,
                num_episodes=2,
                horizon=5,
                n_jobs=n_jobs,
            )
        scenario = FleetScenario.homogeneous(
            PARAMS, observation_model, num_nodes=6, horizon=5, f=1
        )
        with pytest.raises(ValueError, match="duplicate scenario key 2.0"):
            attacker_intensity_sweep(
                scenario, [2.0, 2], _cells()[:1], num_envs=2, n_jobs=n_jobs
            )

    def test_sweeps_validate_n_jobs(self, observation_model):
        with pytest.raises(ValueError, match="n_jobs"):
            closed_loop_sweep(
                [4],
                _cells()[:1],
                PARAMS,
                observation_model,
                smax=6,
                num_envs=2,
                horizon=5,
                n_jobs=0,
            )
        with pytest.raises(ValueError, match="n_jobs"):
            engine_fleet_sweep(
                [4],
                {"t": ThresholdStrategy(0.75)},
                PARAMS,
                observation_model,
                num_episodes=2,
                horizon=5,
                n_jobs=-2,
            )


class TestShardConcatenation:
    @staticmethod
    def _block(values, steps=15, profile=None):
        array = np.asarray(values, dtype=float)
        counts = np.asarray(values, dtype=np.int64)
        return TwoLevelResult(
            availability=array,
            average_nodes=array,
            average_cost=array,
            recovery_frequency=array,
            additions=counts,
            emergency_additions=counts,
            evictions=counts,
            steps=steps,
            class_average_cost={"x": array},
            class_recovery_frequency={"x": array},
            profile=profile,
        )

    def test_blocks_join_in_order_and_profiles_merge(self):
        joined = _concatenate(
            [
                self._block([1, 2], profile=EngineProfile(nanos={"strategy": 3}, steps=2)),
                self._block([3], profile=EngineProfile(nanos={"strategy": 4}, steps=1)),
            ]
        )
        assert joined.steps == 15
        np.testing.assert_array_equal(joined.average_cost, [1.0, 2.0, 3.0])
        assert joined.additions.dtype == np.int64
        np.testing.assert_array_equal(joined.class_average_cost["x"], [1.0, 2.0, 3.0])
        assert joined.profile.nanos["strategy"] == 7 and joined.profile.steps == 3

    def test_shards_must_agree_on_the_episode_length(self):
        with pytest.raises(ValueError, match="episode length"):
            _concatenate([self._block([1]), self._block([2], steps=14)])


class TestEngineProfileMerge:
    def test_merge_sums_phases_steps_and_keeps_backend(self):
        a = EngineProfile(nanos={"strategy": 5, "belief_update": 7}, steps=3, backend="fused")
        b = EngineProfile(nanos={"strategy": 2, "extra_phase": 11}, steps=4)
        merged = EngineProfile.merge(a, None, b)
        assert merged.nanos["strategy"] == 7
        assert merged.nanos["belief_update"] == 7
        assert merged.nanos["extra_phase"] == 11
        assert merged.steps == 7
        assert merged.backend == "fused"

    def test_merge_of_nothing_is_empty(self):
        merged = EngineProfile.merge()
        assert merged.steps == 0 and merged.total_ns == 0

    def test_numpy_increments_survive_pickle_round_trips(self):
        profile = EngineProfile()
        profile.add("strategy", np.int64(41))
        profile.add("strategy", np.int64(1))
        clone = pickle.loads(pickle.dumps(profile))
        assert type(clone.nanos["strategy"]) is int
        assert clone.nanos == profile.nanos
        assert clone.steps == profile.steps
        assert EngineProfile.merge(clone, profile).nanos["strategy"] == 84


def _model_from_counts(counts: np.ndarray, f: int = 1) -> EmpiricalSystemModel:
    return EmpiricalSystemModel.from_counts(
        np.asarray(counts, dtype=float), f=f, epsilon_a=0.9, num_observed=1
    )


def _triples(num_states: int):
    """Hypothesis strategy: a non-empty list of (s, a, s') transitions."""
    state = st.integers(min_value=0, max_value=num_states - 1)
    return st.lists(st.tuples(state, st.integers(0, 1), state), min_size=1, max_size=30)


class TestContentHash:
    @settings(max_examples=25, deadline=None)
    @given(triples=_triples(4), seed=st.integers(0, 2**16))
    def test_hash_is_order_insensitive_over_transition_enumeration(self, triples, seed):
        smax = 3
        shuffled = list(triples)
        np.random.default_rng(seed).shuffle(shuffled)
        a = EmpiricalSystemModel(triples, smax=smax, f=1, epsilon_a=0.9)
        b = EmpiricalSystemModel(shuffled, smax=smax, f=1, epsilon_a=0.9)
        assert a.content_hash() == b.content_hash()

    @settings(max_examples=25, deadline=None)
    @given(
        action=st.integers(0, 1),
        row=st.integers(0, 3),
        column=st.integers(0, 3),
        bump=st.floats(min_value=0.01, max_value=0.9),
    )
    def test_hash_distinguishes_perturbed_kernels(self, action, row, column, bump):
        counts = np.ones((2, 4, 4))
        base = _model_from_counts(counts)
        perturbed_counts = counts.copy()
        perturbed_counts[action, row, column] += bump
        perturbed = _model_from_counts(perturbed_counts)
        assert base.content_hash() != perturbed.content_hash()

    def test_hash_covers_class_names_and_add_costs(self):
        base = _model_from_counts(np.ones((2, 4, 4)))
        one = class_aware_system_model(
            base, class_names=["a", "b"], survival_probabilities=[0.5, 0.9]
        )
        renamed = class_aware_system_model(
            base, class_names=["a", "c"], survival_probabilities=[0.5, 0.9]
        )
        priced = class_aware_system_model(
            base,
            class_names=["a", "b"],
            survival_probabilities=[0.5, 0.9],
            add_costs=[0.0, 0.0, 1.0],
        )
        hashes = {base.content_hash(), one.content_hash(), renamed.content_hash(), priced.content_hash()}
        assert len(hashes) == 4

    def test_fitted_model_key_canonicalizes_parameter_order(self):
        model = _model_from_counts(np.ones((2, 4, 4)))
        assert fitted_model_key(model, "s", a=1, b=2) == fitted_model_key(
            model, "s", b=2, a=1
        )
        assert fitted_model_key(model, "s", a=1) != fitted_model_key(model, "s", a=2)
        assert fitted_model_key(model, "s") != fitted_model_key(model, "t")


class TestPolicySolveCache:
    def test_counts_hits_misses_and_reuses_outcomes(self):
        model = _model_from_counts(np.ones((2, 5, 5)) + np.eye(5))
        cache = PolicySolveCache()
        first = cache.solve_lp(model)
        again = cache.solve_lp(model)
        assert again is first
        assert cache.stats() == {"hits": 1, "misses": 1, "invalidations": 0, "size": 1}

    def test_lagrangian_parameters_split_the_key(self):
        model = _model_from_counts(np.ones((2, 5, 5)) + np.eye(5))
        cache = PolicySolveCache()
        for kwargs in ({}, {"tolerance": 1e-3}):
            try:
                cache.solve_lagrangian(model, **kwargs)
            except ValueError:
                pass
        assert cache.hits == 0 and cache.misses == 2

    def test_infeasible_outcomes_are_cached_and_reraised(self):
        model = _model_from_counts(np.ones((2, 5, 5)))
        cache = PolicySolveCache()
        boom = {"n": 0}

        def solve():
            boom["n"] += 1
            raise ValueError("relaxation infeasible on the fitted kernel")

        with pytest.raises(ValueError, match="infeasible"):
            cache.get_or_solve(model, "lagrangian", solve)
        with pytest.raises(ValueError, match="infeasible"):
            cache.get_or_solve(model, "lagrangian", solve)
        assert boom["n"] == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidate_drops_every_solve_of_one_model(self):
        model = _model_from_counts(np.ones((2, 5, 5)) + np.eye(5))
        other = _model_from_counts(np.ones((2, 5, 5)) + 2 * np.eye(5))
        cache = PolicySolveCache()
        cache.solve_lp(model)
        cache.solve_lp(other)
        assert cache.invalidate(model) == 1
        assert len(cache) == 1
        assert cache.invalidations == 1
        cache.solve_lp(model)
        assert cache.misses == 3  # the invalidated solve re-runs

    def test_clear_and_lru_bound(self):
        cache = PolicySolveCache(maxsize=2)
        models = [
            _model_from_counts(np.ones((2, 4, 4)) + k * np.eye(4)) for k in range(3)
        ]
        for model in models:
            cache.get_or_solve(model, "s", lambda: object())
        assert len(cache) == 2  # the first entry was evicted
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_concurrent_stampede_is_single_flight(self):
        """Regression test for the unlocked cache: the lock is held across a
        miss's ``solve()``, so a thread stampede on one fitted model runs
        the solver exactly once and everyone else hits.  The unlocked
        implementation lets every racer pass the check-then-act lookup
        before the first solve stores, so misses pile up and the solver
        runs concurrently with itself."""
        model = _model_from_counts(np.ones((2, 4, 4)) + np.eye(4))
        cache = PolicySolveCache()
        threads = 8
        in_solver = {"now": 0, "peak": 0, "calls": 0}
        gauge = threading.Lock()
        start = threading.Barrier(threads)
        errors: list[Exception] = []

        def solve() -> object:
            with gauge:
                in_solver["now"] += 1
                in_solver["calls"] += 1
                in_solver["peak"] = max(in_solver["peak"], in_solver["now"])
            time.sleep(0.02)  # widen the check-then-act window
            with gauge:
                in_solver["now"] -= 1
            return object()

        def stampede() -> None:
            try:
                start.wait()
                cache.get_or_solve(model, "s", solve)
            except Exception as error:  # pragma: no cover - only on races
                errors.append(error)

        workers = [threading.Thread(target=stampede) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        assert errors == []
        assert in_solver["calls"] == 1  # single-flight: the LP ran once
        assert in_solver["peak"] == 1  # never two concurrent solves
        assert cache.misses == 1 and cache.hits == threads - 1
        assert len(cache) == 1

    def test_concurrent_hammering_keeps_counters_consistent(self):
        """Threads racing on lookup, insert and LRU eviction must never
        lose a counter increment or corrupt the entry dict: ``maxsize`` is
        kept below the model pool so every round churns the LRU, and the
        switch interval is shrunk to force interleaving inside the
        read-modify-write counter updates."""
        models = [
            _model_from_counts(np.ones((2, 4, 4)) + k * np.eye(4)) for k in range(6)
        ]
        keys = [fitted_model_key(model, "s") for model in models]
        cache = PolicySolveCache(maxsize=3)
        threads, rounds = 8, 300
        errors: list[Exception] = []
        start = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            try:
                start.wait()
                for call in range(rounds):
                    model = models[(worker + call) % len(models)]
                    outcome = cache.get_or_solve(model, "s", object)
                    assert outcome is not None
                    if call % 50 == 0:
                        cache.stats()
                        len(cache)
                        keys[worker % len(keys)] in cache
            except Exception as error:  # pragma: no cover - only on races
                errors.append(error)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=hammer, args=(w,)) for w in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(old_interval)

        assert errors == []
        assert cache.hits + cache.misses == threads * rounds
        assert len(cache) <= cache.maxsize
        stats = cache.stats()
        assert stats["hits"] == cache.hits and stats["misses"] == cache.misses

    def test_sysid_refit_on_unchanged_kernel_is_all_hits(self, observation_model):
        scenario = FleetScenario.homogeneous(
            PARAMS, observation_model, num_nodes=5, horizon=12, f=1
        )
        cache = PolicySolveCache()
        kwargs = dict(
            num_fit_episodes=6, num_eval_episodes=3, seed=2, policy_cache=cache
        )
        first = identify_replication_strategies(scenario, ThresholdStrategy(0.75), **kwargs)
        assert cache.misses == 2 and cache.hits == 0
        second = identify_replication_strategies(scenario, ThresholdStrategy(0.75), **kwargs)
        assert cache.hits == 2 and cache.misses == 2
        assert second.lp is first.lp
        np.testing.assert_array_equal(first.model.transition, second.model.transition)

    def test_sysid_cache_bypass(self, observation_model):
        scenario = FleetScenario.homogeneous(
            PARAMS, observation_model, num_nodes=5, horizon=12, f=1
        )
        result = identify_replication_strategies(
            scenario,
            ThresholdStrategy(0.75),
            num_fit_episodes=6,
            num_eval_episodes=3,
            seed=2,
            policy_cache=False,
        )
        assert "never-add" in result.closed_loop
