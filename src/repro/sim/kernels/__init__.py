"""HMM-forward belief kernels for the batch engine.

Two backends implement the same kernel interface
(``make_step_workspace`` / ``update_beliefs`` / ``simulate``), and both are
bit-exact against the scalar simulator.  ``simulate(..., repeat=K)`` runs
``K * M`` episodes on an ``(M, N, W)`` uniform buffer, episode ``b``
reading row ``b mod M`` (common random numbers shared by reference, not
copied):

``reference``
    The node-by-node NumPy path: the ground truth the fused kernel is
    measured against.  Its run is the engine's generic step loop.

``fused`` (default)
    Precomputed per-``(node, action, observation)`` tables turn the belief
    update across all ``(B, N)`` streams into one flat gather plus a fused
    multiply-add — no per-node Python loop, no per-step matmul pair, no
    ``np.where`` over the recover mask.  Still bit-exact (the parity suites
    are the gate), including the degenerate-observation fallback.

Select with ``BatchRecoveryEngine(scenario, backend=...)``; ``None`` means
``fused``.
"""

from __future__ import annotations

from .fused import FusedKernel
from .profile import PHASES, EngineProfile
from .reference import ReferenceKernel

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "PHASES",
    "EngineProfile",
    "FusedKernel",
    "ReferenceKernel",
    "resolve_backend",
]

#: Registry of kernel classes by backend name.
BACKENDS = {
    "reference": ReferenceKernel,
    "fused": FusedKernel,
}

DEFAULT_BACKEND = "fused"


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend name; ``None`` selects :data:`DEFAULT_BACKEND`."""
    if name is None:
        return DEFAULT_BACKEND
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown engine backend {name!r}; expected one of {sorted(BACKENDS)}"
        )
    return name
