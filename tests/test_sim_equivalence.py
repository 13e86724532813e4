"""Scalar-vs-vectorized equivalence suite for the batch engine (repro.sim).

The batch engine claims *bit-exact* parity with the scalar
:class:`~repro.solvers.evaluation.RecoverySimulator` under a shared seed.
This suite enforces that claim for every strategy class, for heterogeneous
multi-node fleets, and for the population objective used by Algorithm 1,
plus Hypothesis property tests for the batched belief recursion.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BeliefPeriodicStrategy,
    BetaBinomialObservationModel,
    DiscreteObservationModel,
    MultiThresholdStrategy,
    NodeAction,
    NodeParameters,
    NodeTransitionModel,
    NoRecoveryStrategy,
    PeriodicStrategy,
    ThresholdStrategy,
    batch_update_compromise_belief,
    update_compromise_belief,
)
from repro.sim import (
    BatchMultiThreshold,
    BatchRecoveryEngine,
    FleetScenario,
    LoopedBatchStrategy,
    as_batch_strategy,
)
from repro.solvers import RecoverySimulator, solve_recovery_problem
from repro.solvers.optimizers import CrossEntropyMethod, RandomSearch

HORIZON = 60
EPISODES = 25

STRATEGY_CASES = {
    "threshold": ThresholdStrategy(0.6),
    "threshold-always": ThresholdStrategy(0.0),
    "multi-threshold": MultiThresholdStrategy.from_vector([0.2, 0.5, 0.9], delta_r=8.0),
    "periodic": PeriodicStrategy(5),
    "belief-periodic": BeliefPeriodicStrategy(9, alpha=0.8),
    "no-recovery": NoRecoveryStrategy(),
}


@pytest.fixture
def simulator(observation_model):
    return RecoverySimulator(
        NodeParameters(p_a=0.1, delta_r=8), observation_model, horizon=HORIZON
    )


class TestExactEpisodeParity:
    @pytest.mark.parametrize("strategy", STRATEGY_CASES.values(), ids=STRATEGY_CASES.keys())
    def test_batch_reproduces_scalar_episodes_exactly(self, simulator, strategy):
        """Same seed -> identical RecoveryEpisodeResult list, field for field."""
        scalar = simulator.evaluate(strategy, num_episodes=EPISODES, seed=7)
        batch = simulator.evaluate(strategy, num_episodes=EPISODES, seed=7, batch=True)
        assert scalar == batch

    @pytest.mark.parametrize("seed", [0, 1, 123456789])
    def test_parity_across_seeds(self, simulator, seed):
        strategy = ThresholdStrategy(0.55)
        scalar = simulator.evaluate(strategy, num_episodes=10, seed=seed)
        batch = simulator.evaluate(strategy, num_episodes=10, seed=seed, batch=True)
        assert scalar == batch

    def test_estimate_cost_parity(self, simulator):
        strategy = MultiThresholdStrategy.from_vector([0.4, 0.6, 0.8], delta_r=8.0)
        scalar = simulator.estimate_cost(strategy, num_episodes=EPISODES, seed=3)
        batch = simulator.estimate_cost(strategy, num_episodes=EPISODES, seed=3, batch=True)
        assert scalar == batch

    def test_parity_without_btr_enforcement(self, observation_model):
        simulator = RecoverySimulator(
            NodeParameters(p_a=0.15, delta_r=6),
            observation_model,
            horizon=HORIZON,
            enforce_btr=False,
        )
        strategy = ThresholdStrategy(0.7)
        assert simulator.evaluate(strategy, 10, seed=5) == simulator.evaluate(
            strategy, 10, seed=5, batch=True
        )

    def test_looped_fallback_matches_native_batching(self, simulator):
        """Arbitrary scalar strategies run through the element-wise fallback."""
        strategy = ThresholdStrategy(0.6)
        engine = simulator._batch_engine()
        native = engine.run(strategy, num_episodes=12, seed=2)
        looped = engine.run(LoopedBatchStrategy(strategy), num_episodes=12, seed=2)
        assert np.array_equal(native.average_cost, looped.average_cost)
        assert np.array_equal(native.num_recoveries, looped.num_recoveries)

    def test_as_batch_strategy_prefers_native_action_batch(self):
        strategy = ThresholdStrategy(0.5)
        assert as_batch_strategy(strategy) is strategy

        class ScalarOnly:
            def action(self, belief, time_since_recovery):
                return NodeAction.WAIT

        assert isinstance(as_batch_strategy(ScalarOnly()), LoopedBatchStrategy)


class TestFleetParity:
    def test_heterogeneous_fleet_matches_per_node_scalar_runs(self):
        """Every (episode, node) stream equals a scalar run on its own child seed."""
        params = (
            NodeParameters(p_a=0.05, delta_r=10, eta=1.5),
            NodeParameters(p_a=0.2, delta_r=math.inf, eta=3.0),
        )
        models = (
            BetaBinomialObservationModel(),
            DiscreteObservationModel(
                list(range(10)), np.linspace(10, 1, 10), np.linspace(1, 10, 10)
            ),
        )
        strategies = [ThresholdStrategy(0.5), PeriodicStrategy(6)]
        scenario = FleetScenario(params, models, horizon=40, f=1)
        result = BatchRecoveryEngine(scenario).run(strategies, num_episodes=15, seed=11)

        children = np.random.SeedSequence(11).spawn(15 * 2)
        for node, (node_params, model, strategy) in enumerate(
            zip(params, models, strategies)
        ):
            scalar_sim = RecoverySimulator(node_params, model, horizon=40)
            batch_episodes = result.episode_results(node=node)
            for episode in range(15):
                rng = np.random.default_rng(children[episode * 2 + node])
                assert scalar_sim.run_episode(strategy, rng) == batch_episodes[episode]

    def test_availability_tracked_iff_f_given(self, observation_model):
        params = NodeParameters(p_a=0.1)
        with_f = FleetScenario.homogeneous(params, observation_model, 3, horizon=20, f=1)
        without_f = FleetScenario.homogeneous(params, observation_model, 3, horizon=20)
        strategy = ThresholdStrategy(0.5)
        tracked = BatchRecoveryEngine(with_f).run(strategy, 5, seed=0)
        untracked = BatchRecoveryEngine(without_f).run(strategy, 5, seed=0)
        assert tracked.availability is not None
        assert tracked.availability.shape == (5,)
        assert np.all((tracked.availability >= 0) & (tracked.availability <= 1))
        assert untracked.availability is None
        # The availability side-channel must not perturb the simulation.
        assert np.array_equal(tracked.average_cost, untracked.average_cost)

    def test_scenario_validation(self, observation_model):
        params = NodeParameters()
        with pytest.raises(ValueError):
            FleetScenario((), (), horizon=10)
        with pytest.raises(ValueError):
            FleetScenario((params,), (observation_model, observation_model))
        with pytest.raises(ValueError):
            FleetScenario.homogeneous(params, observation_model, 2, horizon=0)
        mismatched = DiscreteObservationModel([0, 1], [0.5, 0.5], [0.2, 0.8])
        with pytest.raises(ValueError):
            FleetScenario((params, params), (observation_model, mismatched))


class TestPopulationObjective:
    def test_population_rows_equal_individual_estimates(self, simulator):
        """One K x M batch with CRN == K separate batch estimates == K scalar ones."""
        engine = simulator._batch_engine()
        thetas = np.array([[0.2, 0.5, 0.7], [0.9, 0.9, 0.9], [0.0, 0.3, 0.6]])
        population_costs = engine.run_threshold_population(thetas, num_episodes=8, seed=13)
        for row, theta in zip(population_costs, thetas):
            strategy = MultiThresholdStrategy.from_vector(theta, delta_r=8.0)
            assert float(row) == simulator.estimate_cost(strategy, 8, seed=13)
            assert float(row) == simulator.estimate_cost(strategy, 8, seed=13, batch=True)

    @pytest.mark.parametrize(
        "optimizer",
        [CrossEntropyMethod(population_size=12, iterations=3), RandomSearch(iterations=10)],
        ids=["cem", "random"],
    )
    def test_solver_output_independent_of_batching(self, observation_model, optimizer):
        """Algorithm 1 returns identical thresholds with and without the engine."""
        params = NodeParameters(p_a=0.1, delta_r=5)
        kwargs = dict(
            horizon=30,
            episodes_per_evaluation=3,
            final_evaluation_episodes=4,
            seed=17,
        )
        scalar = solve_recovery_problem(
            params, observation_model, optimizer, batch=False, **kwargs
        )
        batched = solve_recovery_problem(
            params, observation_model, optimizer, batch=True, **kwargs
        )
        assert scalar.strategy.thresholds == batched.strategy.thresholds
        assert scalar.estimated_cost == batched.estimated_cost
        assert scalar.optimizer_result.history == batched.optimizer_result.history

    def test_population_requires_positive_episode_count(self, simulator):
        engine = simulator._batch_engine()
        with pytest.raises(ValueError):
            engine.run_threshold_population(np.array([[0.5]]), num_episodes=0)

    def test_batch_multi_threshold_validates_shapes(self):
        with pytest.raises(ValueError):
            BatchMultiThreshold(np.empty((3, 0)))
        with pytest.raises(ValueError):
            BatchMultiThreshold(np.array([0.5, 1.5]))
        # NaN fails every comparison; the scalar strategies reject it too.
        with pytest.raises(ValueError, match=r"thresholds must lie in \[0, 1\]"):
            BatchMultiThreshold(np.array([[0.5], [np.nan]]))
        per_episode = BatchMultiThreshold(np.array([[0.1], [0.9]]))
        with pytest.raises(ValueError):
            per_episode.action_batch(np.zeros(3), np.zeros(3, dtype=int))


# ---------------------------------------------------------------------------
# Hypothesis property tests for the batched belief recursion
# ---------------------------------------------------------------------------
@st.composite
def node_parameters(draw):
    prob = st.floats(1e-6, 0.5, allow_nan=False)
    return NodeParameters(
        p_a=draw(prob), p_c1=draw(prob), p_c2=draw(prob), p_u=draw(prob)
    )


@st.composite
def observation_models(draw):
    size = draw(st.integers(2, 6))
    positive = st.floats(1e-6, 1.0, allow_nan=False)
    healthy = [draw(positive) for _ in range(size)]
    compromised = [draw(positive) for _ in range(size)]
    return DiscreteObservationModel(list(range(size)), healthy, compromised)


class TestBatchBeliefProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        params=node_parameters(),
        model=observation_models(),
        beliefs=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_batched_beliefs_stay_in_unit_interval_and_match_scalar(
        self, params, model, beliefs, data
    ):
        """Batched posterior lies in [0, 1] and agrees with the scalar update."""
        transition_model = NodeTransitionModel(params)
        size = len(beliefs)
        actions = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=size, max_size=size)
        )
        observations = data.draw(
            st.lists(
                st.integers(0, model.num_observations - 1), min_size=size, max_size=size
            )
        )
        batched = batch_update_compromise_belief(
            np.array(beliefs), np.array(actions), np.array(observations),
            transition_model, model,
        )
        assert np.all(batched >= 0.0) and np.all(batched <= 1.0)
        for index in range(size):
            scalar = update_compromise_belief(
                beliefs[index],
                NodeAction(actions[index]),
                observations[index],
                transition_model,
                model,
            )
            assert batched[index] == pytest.approx(scalar, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        params=node_parameters(),
        beliefs=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_degenerate_observation_falls_back_to_renormalized_prior(
        self, params, beliefs, data
    ):
        """An all-states-impossible observation triggers the shared fallback."""
        # Observation 2 has zero probability in both live states.
        model = DiscreteObservationModel(
            [0, 1, 2], [0.6, 0.4, 0.0], [0.3, 0.7, 0.0], crashed_pmf=[0.5, 0.5, 0.0]
        )
        transition_model = NodeTransitionModel(params)
        size = len(beliefs)
        actions = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=size, max_size=size)
        )
        observations = np.full(size, 2)
        batched = batch_update_compromise_belief(
            np.array(beliefs), np.array(actions), observations, transition_model, model
        )
        for index in range(size):
            scalar = update_compromise_belief(
                beliefs[index], NodeAction(actions[index]), 2, transition_model, model
            )
            assert batched[index] == pytest.approx(scalar, abs=1e-10)
            prior = np.array([1.0 - beliefs[index], beliefs[index], 0.0]) @ (
                transition_model.matrix(NodeAction(actions[index]))
            )
            live = prior[0] + prior[1]
            assert scalar == pytest.approx(prior[1] / live, abs=1e-10)

    def test_batch_update_validates_inputs(self, transition_model, observation_model):
        with pytest.raises(ValueError):
            batch_update_compromise_belief(
                np.array([1.5]), np.array([0]), np.array([0]),
                transition_model, observation_model,
            )
        with pytest.raises(ValueError):
            batch_update_compromise_belief(
                np.array([0.5]), np.array([0]), np.array([99]),
                transition_model, observation_model,
            )
        with pytest.raises(ValueError):
            batch_update_compromise_belief(
                np.array([0.5]), np.array([2]), np.array([0]),
                transition_model, observation_model,
            )
