"""Batched recovery strategies: array-in, array-out strategy application.

The batch engine applies one recovery strategy to a whole batch of episodes
at once.  A *batch strategy* maps a ``(B,)`` array of beliefs and a ``(B,)``
array of times-since-recovery to a ``(B,)`` boolean recover mask.  Three
sources of batch strategies exist:

* the core strategy classes of :mod:`repro.core.strategies` expose
  ``action_batch`` and are used directly;
* :class:`BatchMultiThreshold` additionally supports a *per-episode*
  threshold matrix of shape ``(B, d)``, which is how Algorithm 1 evaluates a
  whole optimizer population (candidate ``k`` occupies episodes
  ``k*M..(k+1)*M-1``) in a single simulation;
* :class:`LoopedBatchStrategy` wraps any scalar
  :class:`~repro.core.strategies.RecoveryStrategy` (e.g. a PPO policy) with
  an element-wise loop, trading speed for full generality.

:func:`as_batch_strategy` dispatches between these automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..core.node_model import NodeAction
from ..core.strategies import RecoveryStrategy

__all__ = [
    "BatchStrategy",
    "BatchMultiThreshold",
    "LoopedBatchStrategy",
    "as_batch_strategy",
]


@runtime_checkable
class BatchStrategy(Protocol):
    """Interface of a batched recovery strategy."""

    def action_batch(
        self, beliefs: np.ndarray, time_since_recovery: np.ndarray
    ) -> np.ndarray:
        """Boolean recover mask for a batch of ``(belief, time)`` pairs."""
        ...


@dataclass(frozen=True)
class BatchMultiThreshold:
    """Batched multi-threshold strategy with optionally per-episode thresholds.

    ``thresholds`` has shape ``(d,)`` (one threshold vector shared by the
    whole batch, the batched form of
    :class:`~repro.core.strategies.MultiThresholdStrategy`) or ``(B, d)``
    (one threshold vector per episode, used to evaluate an optimizer
    population in one simulation).  At time ``t`` since the last recovery
    the threshold ``theta_{min(t, d-1)}`` applies, exactly as in the scalar
    strategy.
    """

    thresholds: np.ndarray

    def __post_init__(self) -> None:
        thresholds = np.asarray(self.thresholds, dtype=float)
        if thresholds.ndim not in (1, 2) or thresholds.shape[-1] == 0:
            raise ValueError("thresholds must have shape (d,) or (B, d) with d >= 1")
        # Written as "all inside" so that NaN (for which every comparison is
        # False) is rejected, as the scalar strategies reject it.
        if not np.all((thresholds >= 0.0) & (thresholds <= 1.0)):
            raise ValueError("thresholds must lie in [0, 1]")
        object.__setattr__(self, "thresholds", thresholds)

    def action_batch(
        self, beliefs: np.ndarray, time_since_recovery: np.ndarray
    ) -> np.ndarray:
        beliefs = np.asarray(beliefs)
        indices = np.clip(np.asarray(time_since_recovery), 0, self.thresholds.shape[-1] - 1)
        if self.thresholds.ndim == 1:
            active = self.thresholds[indices]
        else:
            if beliefs.shape[0] != self.thresholds.shape[0]:
                raise ValueError(
                    "per-episode thresholds require one row per batch element, got "
                    f"{self.thresholds.shape[0]} rows for batch size {beliefs.shape[0]}"
                )
            active = self.thresholds[np.arange(self.thresholds.shape[0]), indices]
        return beliefs >= active


@dataclass(frozen=True)
class LoopedBatchStrategy:
    """Element-wise fallback: apply a scalar strategy to each batch element.

    Correct for arbitrary :class:`~repro.core.strategies.RecoveryStrategy`
    implementations (including stateless learned policies such as the PPO
    policy), at scalar-loop speed.  The engine stays exact because the
    strategy sees exactly the beliefs the scalar simulator would produce.
    """

    strategy: RecoveryStrategy

    def action_batch(
        self, beliefs: np.ndarray, time_since_recovery: np.ndarray
    ) -> np.ndarray:
        recover = int(NodeAction.RECOVER)
        return np.fromiter(
            (
                int(self.strategy.action(float(b), int(t))) == recover
                for b, t in zip(beliefs, time_since_recovery)
            ),
            dtype=bool,
            count=len(beliefs),
        )


def as_batch_strategy(strategy: RecoveryStrategy | BatchStrategy) -> BatchStrategy:
    """Return a batched view of ``strategy``.

    Objects already exposing ``action_batch`` (all core strategy classes and
    the classes in this module) are returned unchanged; anything else is
    wrapped in a :class:`LoopedBatchStrategy`.
    """
    if isinstance(strategy, BatchStrategy):
        return strategy
    return LoopedBatchStrategy(strategy)
