"""Algorithm 1: parametric optimization of threshold recovery strategies.

Theorem 1 guarantees that an optimal recovery strategy is a threshold
strategy; Algorithm 1 exploits this by searching directly over the space of
threshold vectors ``Theta = [0, 1]^d`` with ``d = Delta_R - 1`` (or ``d = 1``
when ``Delta_R = inf``), estimating the objective ``J_i(theta)`` by
simulation, and delegating the search to a black-box parametric optimizer
(CEM, DE, SPSA, BO, ...).

:func:`solve_recovery_problem` is the entry point; it returns both the
fitted :class:`~repro.core.strategies.MultiThresholdStrategy` and the
optimizer diagnostics used to reproduce Table 2 and Figures 7-8.

By default the objective estimator routes through the vectorized batch
engine (:mod:`repro.sim`): a single candidate is simulated as one batch of
episodes, and optimizers that evaluate whole populations (CEM, and the
initial designs of DE/BO/random search) submit all ``K`` candidates as one
engine run with common random numbers, every candidate's ``M`` episodes
reading the same shared uniform buffer.  Because the batch engine is
bit-exact against the scalar simulator, ``batch=True`` changes wall-clock
time only — never the solver's output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..core.node_model import NodeParameters
from ..core.observation import ObservationModel
from ..core.strategies import MultiThresholdStrategy
from .evaluation import RecoverySimulator
from .optimizers import OptimizationResult, ParametricOptimizer

__all__ = ["RecoverySolution", "threshold_dimension", "solve_recovery_problem"]


class _BatchThresholdObjective:
    """Simulated objective ``J(theta)`` backed by the batch engine.

    Implements the plain callable protocol expected by every optimizer plus
    the optional ``evaluate_population`` hook that population-based
    optimizers use to estimate all candidates in one vectorized simulation.
    Both entry points use common random numbers (the same episode seed tree)
    so candidate comparisons are low-variance and identical to the scalar
    estimator's.
    """

    def __init__(self, engine, num_episodes: int, seed: int) -> None:
        self._engine = engine
        self._num_episodes = num_episodes
        self._seed = seed

    def __call__(self, theta: np.ndarray) -> float:
        return float(self.evaluate_population(np.atleast_2d(theta))[0])

    def evaluate_population(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return self._engine.run_threshold_population(
            thetas, num_episodes=self._num_episodes, seed=self._seed
        )


def threshold_dimension(delta_r: float) -> int:
    """Dimension of the threshold parameter vector (Algorithm 1, line 4)."""
    if delta_r is math.inf or delta_r == math.inf:
        return 1
    if delta_r < 1:
        raise ValueError("delta_r must be >= 1 or inf")
    return max(int(delta_r) - 1, 1)


@dataclass
class RecoverySolution:
    """Output of Algorithm 1.

    Attributes:
        strategy: The fitted multi-threshold recovery strategy
            ``\\hat{pi}_{i,theta,t}``.
        estimated_cost: Monte-Carlo estimate of ``J_i`` under the strategy.
        optimizer_result: Raw optimizer diagnostics (history, evaluations).
        wall_clock_seconds: Time spent in the optimizer (the "Time" column of
            Table 2).
        optimizer_name: Name of the parametric optimizer used.
    """

    strategy: MultiThresholdStrategy
    estimated_cost: float
    optimizer_result: OptimizationResult
    wall_clock_seconds: float
    optimizer_name: str


def solve_recovery_problem(
    params: NodeParameters,
    observation_model: ObservationModel,
    optimizer: ParametricOptimizer,
    horizon: int = 200,
    episodes_per_evaluation: int = 10,
    final_evaluation_episodes: int = 50,
    seed: int | None = None,
    batch: bool = True,
) -> RecoverySolution:
    """Run Algorithm 1 for one node.

    Args:
        params: Node model parameters (including ``Delta_R`` and ``eta``).
        observation_model: The intrusion detection model ``Z`` or ``\\hat{Z}``.
        optimizer: A parametric optimizer implementing
            :class:`~repro.solvers.optimizers.ParametricOptimizer` (the ``PO``
            input of Algorithm 1).
        horizon: Episode length used by the Monte-Carlo cost estimator.
        episodes_per_evaluation: Episodes per objective evaluation during the
            search (Appendix E uses ``M = 50``; smaller values trade accuracy
            for speed).
        final_evaluation_episodes: Episodes used to score the returned
            strategy.
        seed: Seed controlling both the optimizer and the simulator.
        batch: Route the objective estimator through the vectorized batch
            engine (:mod:`repro.sim`).  The returned solution is identical
            to ``batch=False`` under the same seed — the batch engine is
            bit-exact against the scalar simulator — only faster.

    Returns:
        The fitted strategy and diagnostics.
    """
    dimension = threshold_dimension(params.delta_r)
    simulator = RecoverySimulator(params, observation_model, horizon=horizon)
    seed_sequence = np.random.SeedSequence(seed)
    evaluation_seed = int(seed_sequence.generate_state(1)[0])

    if batch:
        # Common random numbers across candidates reduce estimator variance;
        # population-based optimizers evaluate all K candidates in one
        # engine run through `evaluate_population`, every candidate reading
        # the same M episode streams of one shared buffer.
        objective = _BatchThresholdObjective(
            simulator._batch_engine(),
            episodes_per_evaluation,
            evaluation_seed,
        )
    else:

        def objective(theta: np.ndarray) -> float:
            strategy = MultiThresholdStrategy.from_vector(theta, delta_r=params.delta_r)
            # Common random numbers across candidates reduce estimator variance.
            return simulator.estimate_cost(
                strategy, num_episodes=episodes_per_evaluation, seed=evaluation_seed
            )

    start = time.perf_counter()
    result = optimizer.optimize(objective, dimension=dimension, seed=seed)
    elapsed = time.perf_counter() - start

    strategy = MultiThresholdStrategy.from_vector(result.best_parameters, delta_r=params.delta_r)
    estimated_cost = simulator.estimate_cost(
        strategy,
        num_episodes=final_evaluation_episodes,
        seed=evaluation_seed + 1,
        batch=batch,
    )
    return RecoverySolution(
        strategy=strategy,
        estimated_cost=estimated_cost,
        optimizer_result=result,
        wall_clock_seconds=elapsed,
        optimizer_name=getattr(optimizer, "name", type(optimizer).__name__.lower()),
    )
