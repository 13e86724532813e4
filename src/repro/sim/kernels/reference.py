"""Reference NumPy backend: the node-by-node engine path.

This backend is the obviously-correct vectorized implementation the fused
kernels are measured against: the belief update loops over fleet nodes and
calls :func:`repro.core.belief._batch_two_state_posterior` per node (two
``(B, 3) @ (3, 3)`` products plus a ``where`` over the recover mask), and
its run is the engine's generic step loop, which applies the strategies
and calls :meth:`~repro.sim.engine.BatchRecoveryEngine.step` once per
horizon step.
It stays bit-exact against the scalar simulator, and the fused backend is
required to match it bit for bit in turn.
"""

from __future__ import annotations

import numpy as np

from ...core.belief import _batch_two_state_posterior
from ...core.node_model import NodeAction, NodeState

__all__ = ["ReferenceKernel"]

_HEALTHY = int(NodeState.HEALTHY)
_COMPROMISED = int(NodeState.COMPROMISED)


class ReferenceKernel:
    """Per-node-loop backend (the pre-kernel engine behaviour)."""

    name = "reference"
    #: Exactness contract: bit-exact against the scalar simulator.
    bit_exact = True

    def __init__(self, engine) -> None:
        self.engine = engine

    # -- stepwise belief update --------------------------------------------------
    def make_step_workspace(self, num_episodes: int) -> dict:
        """Reusable per-batch buffers for :meth:`update_beliefs`."""
        return {
            "embedded": np.zeros((num_episodes, 3)),
            "prior_wait": np.empty((num_episodes, 3)),
            "prior_recover": np.empty((num_episodes, 3)),
            "ones": np.empty(num_episodes),
            "updated": None,  # lazily shaped (B, N) on the multi-node path
        }

    def update_beliefs(
        self,
        recover: np.ndarray,
        observation_index: np.ndarray,
        belief: np.ndarray,
        workspace: dict | None = None,
    ) -> np.ndarray:
        """Batched Appendix A recursion, node by node (shared matrices)."""
        engine = self.engine
        regular = engine._regular_observations
        if engine.scenario.num_nodes == 1:
            likelihoods = engine._observation_pmf[0]  # (|S|, |O|)
            obs = observation_index[:, 0]
            posterior = _batch_two_state_posterior(
                belief[:, 0],
                recover[:, 0],
                likelihoods[_HEALTHY][obs],
                likelihoods[_COMPROMISED][obs],
                engine._matrices[0, int(NodeAction.WAIT)],
                engine._matrices[0, int(NodeAction.RECOVER)],
                workspace=workspace,
                assume_regular=regular,
            )
            return posterior.reshape(-1, 1)
        if workspace is not None and workspace.get("updated") is not None:
            updated = workspace["updated"]
        else:
            updated = np.empty_like(belief)
            if workspace is not None:
                workspace["updated"] = updated
        for j in range(engine.scenario.num_nodes):
            likelihoods = engine._observation_pmf[j]  # (|S|, |O|)
            obs = observation_index[:, j]
            updated[:, j] = _batch_two_state_posterior(
                belief[:, j],
                recover[:, j],
                likelihoods[_HEALTHY][obs],
                likelihoods[_COMPROMISED][obs],
                engine._matrices[j, int(NodeAction.WAIT)],
                engine._matrices[j, int(NodeAction.RECOVER)],
                workspace=workspace,
                assume_regular=regular,
            )
        return updated

    # -- run driver --------------------------------------------------------------
    def simulate(self, strategies, uniforms, profile=None, repeat=1):
        """The engine's generic step loop (``BatchRecoveryEngine._run_steps``)."""
        return self.engine._run_steps(strategies, uniforms, profile, repeat=repeat)
