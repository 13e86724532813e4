"""Belief computation for node controllers (Equation 4 and Appendix A).

A node controller cannot observe whether its replica is compromised.  It
maintains the belief

.. math::

    b_{i,t} = P[S_{i,t} = C \\mid o_{i,1}, a_{i,1}, \\ldots, o_{i,t}, b_{i,1}],

which Appendix A shows is a sufficient statistic for the hidden state and can
be computed with the recursive Bayesian filter

.. math::

    b_{i,t}(s) \\propto Z(o_t \\mid s) \\sum_{s'} b_{i,t-1}(s') f_N(s \\mid s', a_{t-1}).

This module implements that filter in two flavours:

* :class:`BeliefState` / :class:`BeliefFilter` -- filtering over the full
  three-state distribution ``(H, C, crash)``, which is what the emulation
  and the architecture layer use;
* :func:`update_compromise_belief` -- the scalar update over ``b = P[C]``
  restricted to the two live states, which is what the POMDP solvers and the
  threshold strategies of Theorem 1 operate on;
* :func:`batch_update_compromise_belief` -- the vectorized counterpart of
  the scalar update, operating on arrays of beliefs/actions/observations at
  once.  It is the numerical core of the batch simulation engine in
  :mod:`repro.sim` and is bit-compatible with the scalar update.

Degenerate-observation convention
---------------------------------

An observation with zero likelihood under every tracked state leaves the
Bayesian update undefined (the normalizer is zero).  All updates in this
package then follow one convention: *drop the observation* and return the
prediction (the Chapman-Kolmogorov prior), renormalized over the tracked
support.  For the three-state filter the tracked support is ``(H, C,
crash)``; for the two-state update it is the live states ``{H, C}`` (with
``b = 1`` when even the live mass is zero: the node is certainly not
healthy).  Because both fallbacks keep the same prediction, they agree on
the live-conditioned compromise probability ``P[C | alive]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .node_model import NODE_STATES, NodeAction, NodeState, NodeTransitionModel
from .observation import ObservationModel

__all__ = [
    "BeliefState",
    "BeliefFilter",
    "CachedBeliefDynamics",
    "update_compromise_belief",
    "batch_update_compromise_belief",
    "belief_transition_distribution",
]


@dataclass(frozen=True)
class BeliefState:
    """Distribution over the three node states at one time-step."""

    healthy: float
    compromised: float
    crashed: float

    def __post_init__(self) -> None:
        total = self.healthy + self.compromised + self.crashed
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"belief must sum to one, got {total}")
        for name in ("healthy", "compromised", "crashed"):
            if getattr(self, name) < -1e-12:
                raise ValueError(f"belief component {name} must be non-negative")

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "BeliefState":
        vector = np.asarray(vector, dtype=float)
        vector = np.clip(vector, 0.0, None)
        vector = vector / vector.sum()
        return cls(float(vector[0]), float(vector[1]), float(vector[2]))

    @classmethod
    def initial(cls, p_a: float) -> "BeliefState":
        """Initial belief ``b_1 = p_A`` used by Problem 1 (Eq. 6a)."""
        return cls(1.0 - p_a, p_a, 0.0)

    def as_vector(self) -> np.ndarray:
        return np.array([self.healthy, self.compromised, self.crashed], dtype=float)

    @property
    def compromise_probability(self) -> float:
        """``P[S = C]`` — the scalar belief used by threshold strategies."""
        return self.compromised

    @property
    def failure_probability(self) -> float:
        """``P[S = C or S = crash]`` — probability the node counts toward f."""
        return self.compromised + self.crashed

    @property
    def live_compromise_probability(self) -> float:
        """``P[S = C | S != crash]``: belief conditioned on the node being alive."""
        live = self.healthy + self.compromised
        if live <= 0.0:
            return 1.0
        return self.compromised / live


class BeliefFilter:
    """Recursive Bayesian filter over the node state (Appendix A).

    The filter is deliberately stateless with respect to observations: the
    caller provides the previous belief, the action taken, and the new
    observation, and receives the posterior belief.  A convenience
    :meth:`run` method filters a whole trajectory.
    """

    def __init__(
        self,
        transition_model: NodeTransitionModel,
        observation_model: ObservationModel,
    ) -> None:
        self.transition_model = transition_model
        self.observation_model = observation_model

    def predict(self, belief: BeliefState, action: NodeAction) -> BeliefState:
        """Chapman-Kolmogorov prediction step (no observation)."""
        prior = belief.as_vector() @ self.transition_model.matrix(action)
        return BeliefState.from_vector(prior)

    def update(
        self,
        belief: BeliefState,
        action: NodeAction,
        observation: int,
    ) -> BeliefState:
        """Full predict + correct step of the belief recursion in Appendix A."""
        prior = belief.as_vector() @ self.transition_model.matrix(action)
        likelihood = np.array(
            [self.observation_model.probability(observation, state) for state in NODE_STATES]
        )
        unnormalized = likelihood * prior
        total = unnormalized.sum()
        if total <= 0.0:
            # Degenerate-observation convention (module docstring): drop the
            # observation and keep the prediction, renormalized over the
            # tracked support (H, C, crash).
            return BeliefState.from_vector(prior)
        return BeliefState.from_vector(unnormalized / total)

    def run(
        self,
        initial_belief: BeliefState,
        actions: list[NodeAction],
        observations: list[int],
    ) -> list[BeliefState]:
        """Filter a trajectory; returns beliefs ``[b_1, b_2, ..., b_T]``."""
        if len(actions) != len(observations):
            raise ValueError("actions and observations must have equal length")
        beliefs = [initial_belief]
        belief = initial_belief
        for action, observation in zip(actions, observations):
            belief = self.update(belief, action, observation)
            beliefs.append(belief)
        return beliefs


def update_compromise_belief(
    belief: float,
    action: NodeAction,
    observation: int,
    transition_model: NodeTransitionModel,
    observation_model: ObservationModel,
) -> float:
    """Scalar belief update over ``b = P[S = C | alive]``.

    The POMDP solvers and the threshold strategies of Theorem 1 work on the
    two live states only (the crashed state is observable in practice: a
    crashed node stops responding and is evicted by the system controller).
    This function performs the Bayesian update restricted to ``{H, C}`` and
    renormalizes over the live states.

    Args:
        belief: Previous belief ``b_{t-1} = P[S_{t-1} = C]``.
        action: Action ``a_{t-1}`` taken at the previous step.
        observation: New observation ``o_t``.
        transition_model: Node transition kernel ``f_N``.
        observation_model: Observation model ``Z``.

    Returns:
        The posterior belief ``b_t`` in ``[0, 1]``.
    """
    if not 0.0 <= belief <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {belief}")
    prior_vector = np.array([1.0 - belief, belief, 0.0]) @ transition_model.matrix(action)
    live_states = (NodeState.HEALTHY, NodeState.COMPROMISED)
    weights = np.array(
        [
            observation_model.probability(observation, state) * prior_vector[state]
            for state in live_states
        ]
    )
    total = weights.sum()
    if total <= 0.0:
        # Degenerate-observation convention (module docstring): drop the
        # observation and keep the prediction, renormalized over the tracked
        # support {H, C}; an empty live mass means the node cannot be healthy.
        live_mass = prior_vector[NodeState.HEALTHY] + prior_vector[NodeState.COMPROMISED]
        if live_mass <= 0.0:
            return 1.0
        return float(prior_vector[NodeState.COMPROMISED] / live_mass)
    return float(weights[1] / total)


def _batch_two_state_posterior(
    beliefs: np.ndarray,
    recover_mask: np.ndarray,
    likelihood_healthy: np.ndarray,
    likelihood_compromised: np.ndarray,
    wait_matrix: np.ndarray,
    recover_matrix: np.ndarray,
    workspace: dict | None = None,
    assume_regular: bool = False,
) -> np.ndarray:
    """Vectorized core of the two-state belief recursion.

    Computes, for every element of the batch, the same quantities as
    :func:`update_compromise_belief`: the Chapman-Kolmogorov prediction
    ``[1 - b, b, 0] @ f_N(a)`` followed by the Bayes correction restricted
    to the live states, with the shared degenerate-observation fallback.

    The prediction is evaluated with a batched matrix product so the
    floating-point rounding matches the scalar ``vector @ matrix`` product
    bit for bit; this is what makes the batch simulator in :mod:`repro.sim`
    reproduce scalar trajectories exactly.

    Args:
        beliefs: Previous beliefs ``b_{t-1}``, shape ``(B,)``.
        recover_mask: Boolean array, ``True`` where ``a_{t-1} = R``.
        likelihood_healthy: ``Z(o_t | H)`` per element, shape ``(B,)``.
        likelihood_compromised: ``Z(o_t | C)`` per element, shape ``(B,)``.
        wait_matrix: ``3 x 3`` transition matrix ``f_N(. | ., W)``.
        recover_matrix: ``3 x 3`` transition matrix ``f_N(. | ., R)``.
        workspace: Optional reusable buffer dict for hot loops (the batch
            engine passes one per simulation): ``embedded`` of shape
            ``(B, 3)`` with the third column zeroed, ``prior_wait`` /
            ``prior_recover`` of shape ``(B, 3)``, and optionally ``ones``
            of shape ``(B,)`` for the degenerate-observation fallback.
            Callers supplying a workspace must consume (or copy) the result
            before the next call.
        assume_regular: The caller guarantees the degenerate-observation
            fallback cannot trigger (full-support observation model and
            sub-stochastic-to-live transition rows, Assumption D), so the
            check is skipped.

    Returns:
        Posterior beliefs ``b_t``, shape ``(B,)``.
    """
    beliefs = np.asarray(beliefs, dtype=float)
    batch = beliefs.shape[0]
    if workspace is None:
        embedded = np.zeros((batch, 3))
        prior_wait = None
        prior_recover = None
    else:
        embedded = workspace["embedded"]
        prior_wait = workspace["prior_wait"]
        prior_recover = workspace["prior_recover"]
    embedded[:, 0] = 1.0 - beliefs
    embedded[:, 1] = beliefs
    prior_wait = np.matmul(embedded, wait_matrix, out=prior_wait)
    prior_recover = np.matmul(embedded, recover_matrix, out=prior_recover)
    prior = np.where(recover_mask[:, None], prior_recover, prior_wait)

    weight_healthy = likelihood_healthy * prior[:, 0]
    weight_compromised = likelihood_compromised * prior[:, 1]
    total = weight_healthy + weight_compromised

    if assume_regular or not (total <= 0.0).any():
        # Regular case (every observation has positive likelihood under
        # some live state): one plain division, no masked machinery.
        return weight_compromised / total

    live_mass = prior[:, 0] + prior[:, 1]
    if workspace is not None and "ones" in workspace:
        ones = workspace["ones"]
        ones.fill(1.0)
    else:
        ones = np.ones(batch)
    fallback = np.divide(
        prior[:, 1],
        live_mass,
        out=ones,
        where=live_mass > 0.0,
    )
    posterior = np.divide(
        weight_compromised,
        total,
        out=fallback,
        where=total > 0.0,
    )
    return posterior


def batch_update_compromise_belief(
    beliefs: np.ndarray,
    actions: np.ndarray,
    observations: np.ndarray,
    transition_model: NodeTransitionModel,
    observation_model: ObservationModel,
) -> np.ndarray:
    """Vectorized scalar belief update over arrays of ``(b, a, o)`` triples.

    Semantically identical to calling :func:`update_compromise_belief`
    element by element (including the degenerate-observation fallback), but
    evaluated as batched array operations.  The batch simulation engine in
    :mod:`repro.sim` relies on this routine matching the scalar update bit
    for bit on regular inputs; the equivalence test suite asserts agreement
    to ``1e-10`` on adversarial inputs.

    Args:
        beliefs: Previous beliefs, shape ``(B,)``, each in ``[0, 1]``.
        actions: Actions taken, shape ``(B,)``; values in ``{0, 1}``
            (``NodeAction`` members are accepted, being ``IntEnum``).
        observations: Observations received, shape ``(B,)``; values must lie
            in the observation model's support.
        transition_model: Node transition kernel ``f_N``.
        observation_model: Observation model ``Z``.

    Returns:
        Posterior beliefs, shape ``(B,)``.
    """
    beliefs = np.asarray(beliefs, dtype=float)
    if beliefs.ndim != 1:
        raise ValueError("beliefs must be a one-dimensional array")
    if np.any(beliefs < 0.0) or np.any(beliefs > 1.0):
        raise ValueError("beliefs must lie in [0, 1]")
    actions = np.asarray(actions, dtype=int)
    observations = np.asarray(observations, dtype=int)
    if actions.shape != beliefs.shape or observations.shape != beliefs.shape:
        raise ValueError("beliefs, actions and observations must share one shape")
    if not np.all(np.isin(actions, (int(NodeAction.WAIT), int(NodeAction.RECOVER)))):
        raise ValueError("actions must be NodeAction values (0 = WAIT, 1 = RECOVER)")

    indices = observation_model.indices_of(observations)
    pmf_healthy = observation_model.pmf(NodeState.HEALTHY)
    pmf_compromised = observation_model.pmf(NodeState.COMPROMISED)
    return _batch_two_state_posterior(
        beliefs,
        actions == int(NodeAction.RECOVER),
        pmf_healthy[indices],
        pmf_compromised[indices],
        transition_model.matrix(NodeAction.WAIT),
        transition_model.matrix(NodeAction.RECOVER),
    )


class CachedBeliefDynamics:
    """Exact memo table for deterministic belief-dynamics evaluations.

    Belief updates and observation probabilities are pure functions of
    ``(belief, action, observation)``; backward-induction solvers evaluate
    them for the same grid beliefs over and over (every stage of a
    finite-horizon sweep revisits the full grid).  The memo returns the
    previously computed float — which is *exact*, not approximate, because
    identical double inputs produce identical doubles.

    The table is keyed by the raw float belief plus the discrete arguments;
    ``hits`` / ``misses`` counters make cache effectiveness observable.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, key: tuple, compute):
        """Return the memoized value for ``key``, computing it on first use."""
        try:
            value = self._memo[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._memo[key] = value
            return value
        self.hits += 1
        return value

    def clear(self) -> None:
        self._memo.clear()
        self.hits = 0
        self.misses = 0


def belief_transition_distribution(
    belief: float,
    action: NodeAction,
    transition_model: NodeTransitionModel,
    observation_model: ObservationModel,
    cache: CachedBeliefDynamics | None = None,
) -> list[tuple[float, float]]:
    """Distribution over next beliefs ``(probability, b')`` given ``(b, a)``.

    Used by the belief-MDP value iteration and by the proofs' machinery: for
    every observation ``o`` with positive probability under ``(b, a)`` the
    next belief ``b' = tau(b, a, o)`` occurs with probability ``P[o | b, a]``.

    Args:
        cache: Optional :class:`CachedBeliefDynamics` memo.  The
            distribution is a pure function of ``(belief, action)`` for
            fixed models, so backward-induction sweeps that revisit grid
            beliefs reuse the exact previously computed list.
    """
    if cache is not None:
        key = ("btd", float(belief), int(action))
        return cache.get(
            key,
            lambda: belief_transition_distribution(
                belief, action, transition_model, observation_model
            ),
        )
    results: list[tuple[float, float]] = []
    prior_vector = np.array([1.0 - belief, belief, 0.0]) @ transition_model.matrix(action)
    live_mass = prior_vector[NodeState.HEALTHY] + prior_vector[NodeState.COMPROMISED]
    if live_mass <= 0.0:
        return [(1.0, 1.0)]
    for observation in observation_model.observations:
        prob_o = sum(
            observation_model.probability(int(observation), state) * prior_vector[state]
            for state in (NodeState.HEALTHY, NodeState.COMPROMISED)
        )
        prob_o /= live_mass
        if prob_o <= 0.0:
            continue
        next_belief = update_compromise_belief(
            belief, action, int(observation), transition_model, observation_model
        )
        results.append((float(prob_o), next_belief))
    # Normalize for numerical safety.
    total = sum(p for p, _ in results)
    if total > 0:
        results = [(p / total, b) for p, b in results]
    return results
