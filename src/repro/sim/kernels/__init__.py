"""Selectable HMM-forward belief kernels for the batch engine.

Three backends implement the same kernel interface
(``make_step_workspace`` / ``update_beliefs`` / ``simulate``).
``simulate(..., repeat=K)`` runs ``K * M`` episodes on an ``(M, N, W)``
uniform buffer, episode ``b`` reading row ``b mod M`` (common random
numbers shared by reference, not copied):

``reference``
    The node-by-node NumPy path of PRs 1-6.  Bit-exact against the scalar
    simulator; kept as the ground truth the fused kernels are measured
    against.

``fused`` (default)
    Precomputed per-``(node, action, observation)`` tables turn the belief
    update across all ``(B, N)`` streams into one flat gather plus a fused
    multiply-add — no per-node Python loop, no per-step matmul pair, no
    ``np.where`` over the recover mask.  Still bit-exact (the parity suites
    are the gate), including the degenerate-observation fallback.

``numba``
    Optional (``pip install .[kernels]``): the full fused step JITted into
    one nopython loop.  Not bit-exact — validated under the versioned
    :data:`~repro.sim.kernels.numba_backend.NUMBA_TOLERANCE_TIER` — and
    degrades gracefully to ``fused`` (with a warning) when numba is absent.

Selection precedence: explicit ``BatchRecoveryEngine(..., backend=...)``
argument, then the ``REPRO_ENGINE_BACKEND`` environment variable, then the
default.
"""

from __future__ import annotations

import os
import warnings

from .fused import FusedKernel
from .numba_backend import HAVE_NUMBA, NUMBA_TOLERANCE_TIER, NumbaKernel
from .profile import PHASES, EngineProfile
from .reference import ReferenceKernel
from .trellis import BeliefTrellis, CachedBeliefDynamics, trellis_eligible

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "HAVE_NUMBA",
    "NUMBA_TOLERANCE_TIER",
    "PHASES",
    "BeliefTrellis",
    "CachedBeliefDynamics",
    "EngineProfile",
    "FusedKernel",
    "NumbaKernel",
    "ReferenceKernel",
    "available_backends",
    "resolve_backend",
    "trellis_eligible",
]

#: Registry of kernel classes by backend name.
BACKENDS = {
    "reference": ReferenceKernel,
    "fused": FusedKernel,
    "numba": NumbaKernel,
}

DEFAULT_BACKEND = "fused"

#: Environment variable consulted when no explicit ``backend=`` is given.
ENV_VAR = "REPRO_ENGINE_BACKEND"


def available_backends() -> tuple[str, ...]:
    """Backend names usable in this environment (numba only if installed)."""
    names = ["reference", "fused"]
    if HAVE_NUMBA:
        names.append("numba")
    return tuple(names)


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend name: argument > ``REPRO_ENGINE_BACKEND`` > default.

    Requesting ``numba`` without numba installed warns and falls back to
    ``fused`` rather than failing — the optional dependency changes speed,
    not correctness.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown engine backend {name!r}; expected one of {sorted(BACKENDS)}"
        )
    if name == "numba" and not HAVE_NUMBA:
        warnings.warn(
            "numba is not installed; falling back to the fused NumPy backend "
            "(pip install 'repro[kernels]' for the JIT backend)",
            RuntimeWarning,
            stacklevel=2,
        )
        return "fused"
    return name
