"""Pluggable adversary processes: the attack-dynamics seam of the engine.

The paper's node model folds the attacker into a single static per-node
compromise probability ``p_A`` (Eq. 2): every step, every node is attacked
i.i.d. with the same intensity.  This module lifts that assumption into a
first-class abstraction: an :class:`AdversaryProcess` is a *process* that,
given the episode step and its own pre-drawn RNG stream, yields the
per-stream **compromise pressure** — the effective ``p_A`` value of shape
``(B, N)`` used for this step's hidden-state transition — and, optionally,
an alert-suppression mask that hides compromise evidence from the IDS.

Contract
--------

Adversaries are **frozen dataclasses**: stateless, hashable, picklable and
serializable to the YAML scenario schema (:mod:`repro.sim.scenario_io`).
All mutable per-batch state lives in the object returned by :meth:`begin`,
which the engine stores on its :class:`~repro.sim.engine.BatchEpisodeState`
and threads back into the per-step hooks.  An adversary implements:

* ``is_static`` — ``True`` iff the pressure equals the scenario baseline at
  every step.  Static adversaries take the engine's precompiled-CDF fast
  path (the fused kernel's rank tables) untouched and are **bit-exact**
  with the pre-seam engine by construction; dynamic adversaries route
  through a per-step CDF construction that reproduces
  :meth:`~repro.core.node_model.NodeTransitionModel._build_matrices`
  bit-for-bit when the pressure equals the baseline.
* ``uniforms_per_step(num_nodes)`` — how many uniform doubles the adversary
  consumes per episode per step.  The engine pre-draws them into a
  ``(B, horizon, K)`` buffer so batched, scalar-replay (``[b : b + 1]``)
  and sharded (``[lo : hi)``) runs all see identical streams.
* ``compromise_pressure(state, t, baseline, uniforms)`` — the ``(B, N)``
  effective compromise probability for step ``t``; ``baseline`` is the
  per-node ``p_A`` vector and ``uniforms`` the ``(B, K)`` slice for this
  step (``None`` when ``K == 0``).
* ``alert_suppression(state, t, uniforms)`` — optional ``(B, N)`` boolean
  mask; where ``True`` *and* the node is compromised, the engine draws the
  step's observation from the HEALTHY alert distribution instead (the
  attacker suppresses its alert footprint).  The observation uniform is
  consumed either way, so suppression never shifts the random streams.

Randomness
----------

Adversary uniforms come from a **salted** seed root,
``SeedSequence([_ADVERSARY_SALT, entropy], spawn_key=(b,))`` per episode
``b``, so they never collide with the engine's per-``(episode, node)``
streams (children of ``SeedSequence(entropy)``) or the system controllers'
streams.  Episode rows are independent, which is what makes the scalar
reference replay and the PR-8 shard pool bit-identical to a monolithic run.

The defender's belief recursion intentionally stays on the scenario's
*nominal* model: controllers do not know the true attacker, so a bursty or
correlated campaign is a model-mismatch experiment by design.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

__all__ = [
    "AdversaryProcess",
    "StaticAdversary",
    "CorrelatedAdversary",
    "BurstyAdversary",
    "StealthAdversary",
    "ADVERSARY_TYPES",
    "adversary_from_spec",
    "adversary_to_spec",
    "draw_adversary_uniforms",
    "resolve_adversary_entropy",
]

#: Salt prepended to the run entropy so adversary streams are independent of
#: the engine's episode streams and the controllers' system streams.
_ADVERSARY_SALT = 0x5EED_AD7E


def resolve_adversary_entropy(seed: int | None) -> int:
    """A concrete entropy value for the adversary seed tree.

    ``None`` draws fresh OS entropy (the run is then non-reproducible,
    matching the engine's ``seed=None`` convention); integers pass through.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


def draw_adversary_uniforms(
    adversary: "AdversaryProcess",
    entropy: int,
    lo: int,
    hi: int,
    num_nodes: int,
    horizon: int,
) -> np.ndarray | None:
    """Pre-draw the adversary uniforms for episodes ``[lo, hi)``.

    Returns a ``(hi - lo, horizon, K)`` buffer with
    ``K = adversary.uniforms_per_step(num_nodes)``, or ``None`` when the
    adversary consumes no randomness.  Row ``b - lo`` is a pure function of
    ``(entropy, b)``, so shards and scalar replays reproduce the exact rows
    of a monolithic draw.
    """
    width = adversary.uniforms_per_step(num_nodes)
    if width == 0:
        return None
    if entropy is None:
        raise ValueError("adversary uniforms require a concrete entropy/seed")
    buffer = np.empty((hi - lo, horizon, width))
    for b in range(lo, hi):
        sequence = np.random.SeedSequence(
            [_ADVERSARY_SALT, int(entropy)], spawn_key=(b,)
        )
        buffer[b - lo] = np.random.default_rng(sequence).random((horizon, width))
    return buffer


class AdversaryProcess:
    """Base contract; see the module docstring for hook semantics."""

    #: Registry key used by the YAML schema (overridden per subclass).
    kind: str = "abstract"

    @property
    def is_static(self) -> bool:
        """Whether the pressure equals the baseline ``p_A`` at every step."""
        return False

    def uniforms_per_step(self, num_nodes: int) -> int:
        """Uniform doubles consumed per episode per step."""
        return 0

    def begin(self, num_episodes: int, num_nodes: int) -> Any:
        """Allocate the mutable per-batch state (``None`` for stateless)."""
        return None

    def compromise_pressure(
        self,
        state: Any,
        t: int,
        baseline: np.ndarray,
        uniforms: np.ndarray | None,
    ) -> np.ndarray:
        """Effective per-stream ``p_A`` for step ``t``, shape ``(B, N)``."""
        raise NotImplementedError

    def alert_suppression(
        self,
        state: Any,
        t: int,
        uniforms: np.ndarray | None,
    ) -> np.ndarray | None:
        """Optional ``(B, N)`` mask of streams whose alerts are suppressed."""
        return None


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability, got {value}")


def _check_non_negative(name: str, value: float) -> None:
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class StaticAdversary(AdversaryProcess):
    """The paper's attacker: i.i.d. per-node pressure equal to ``p_A``.

    The default adversary of every scenario.  With ``force_dynamic=False``
    (the default) the engine keeps its precompiled static-CDF fast path —
    trivially bit-exact with the pre-seam engine.  ``force_dynamic=True`` is
    a diagnostic knob: the pressure is still the baseline, but the engine
    routes through the dynamic per-step CDF construction, which the parity
    suite asserts is bit-identical to the static tables.
    """

    kind = "static"
    force_dynamic: bool = False

    @property
    def is_static(self) -> bool:
        return not self.force_dynamic

    def compromise_pressure(self, state, t, baseline, uniforms):
        del state, t, uniforms
        return baseline

    def begin(self, num_episodes, num_nodes):
        return None


@dataclass(frozen=True)
class CorrelatedAdversary(AdversaryProcess):
    """Correlated multi-node campaign: a shared latent intensity per episode.

    A two-state (calm / campaign) Markov chain, **common to every node of an
    episode**, modulates the baseline: during a campaign every node's
    pressure is ``min(1, campaign_scale * p_A)`` simultaneously.  The
    cross-node correlation this induces cannot be expressed by any per-node
    ``p_A`` assignment, which all factorize across nodes.

    Attributes:
        p_enter: Per-step probability that a calm episode enters a campaign.
        p_exit: Per-step probability that a campaign ends.
        campaign_scale: Pressure multiplier while the campaign is active.
        calm_scale: Pressure multiplier while calm (``1.0`` = baseline).
    """

    kind = "correlated"
    p_enter: float = 0.05
    p_exit: float = 0.15
    campaign_scale: float = 4.0
    calm_scale: float = 1.0

    def __post_init__(self) -> None:
        _check_probability("p_enter", self.p_enter)
        _check_probability("p_exit", self.p_exit)
        _check_non_negative("campaign_scale", self.campaign_scale)
        _check_non_negative("calm_scale", self.calm_scale)

    def uniforms_per_step(self, num_nodes: int) -> int:
        return 1

    def begin(self, num_episodes, num_nodes):
        return {"campaign": np.zeros(num_episodes, dtype=bool)}

    def compromise_pressure(self, state, t, baseline, uniforms):
        u = uniforms[:, 0]
        campaign = state["campaign"]
        campaign = np.where(campaign, u >= self.p_exit, u < self.p_enter)
        state["campaign"] = campaign
        scale = np.where(campaign, self.campaign_scale, self.calm_scale)
        return np.minimum(baseline[None, :] * scale[:, None], 1.0)


@dataclass(frozen=True)
class BurstyAdversary(AdversaryProcess):
    """Bursty time-varying attacker: per-node on/off Markov-modulated ``p_A``.

    Each ``(episode, node)`` stream carries an independent two-state Markov
    chain; while *on* the node's pressure is ``min(1, burst_scale * p_A)``,
    while *off* it is ``quiet_scale * p_A``.  The long-run average intensity
    can match the static attacker while the arrival process is heavily
    clustered — precisely the regime where reactive recovery under-performs
    its i.i.d. evaluation.

    Attributes:
        p_on: Per-step off -> on transition probability.
        p_off: Per-step on -> off transition probability.
        burst_scale: Pressure multiplier while on.
        quiet_scale: Pressure multiplier while off.
    """

    kind = "bursty"
    p_on: float = 0.05
    p_off: float = 0.25
    burst_scale: float = 5.0
    quiet_scale: float = 0.2

    def __post_init__(self) -> None:
        _check_probability("p_on", self.p_on)
        _check_probability("p_off", self.p_off)
        _check_non_negative("burst_scale", self.burst_scale)
        _check_non_negative("quiet_scale", self.quiet_scale)

    def uniforms_per_step(self, num_nodes: int) -> int:
        return num_nodes

    def begin(self, num_episodes, num_nodes):
        return {"on": np.zeros((num_episodes, num_nodes), dtype=bool)}

    def compromise_pressure(self, state, t, baseline, uniforms):
        on = state["on"]
        on = np.where(on, uniforms >= self.p_off, uniforms < self.p_on)
        state["on"] = on
        scale = np.where(on, self.burst_scale, self.quiet_scale)
        return np.minimum(baseline[None, :] * scale, 1.0)


@dataclass(frozen=True)
class StealthAdversary(AdversaryProcess):
    """Stealth attacker: compromises at scaled pressure, then hides.

    Every step, each compromised node's alert emission is suppressed with
    probability ``suppression``: the IDS observation is drawn from the
    HEALTHY alert distribution instead of the compromised one, so the
    defender's belief barely rises and threshold recovery fires late.  The
    pressure itself is the baseline scaled by ``scale``.

    Attributes:
        suppression: Per-step probability a compromised node emits healthy-
            looking alerts.
        scale: Pressure multiplier applied to the baseline ``p_A``.
    """

    kind = "stealth"
    suppression: float = 0.8
    scale: float = 1.0

    def __post_init__(self) -> None:
        _check_probability("suppression", self.suppression)
        _check_non_negative("scale", self.scale)

    def uniforms_per_step(self, num_nodes: int) -> int:
        return num_nodes

    def begin(self, num_episodes, num_nodes):
        return None

    def compromise_pressure(self, state, t, baseline, uniforms):
        del state, t, uniforms
        return np.minimum(baseline * self.scale, 1.0)

    def alert_suppression(self, state, t, uniforms):
        del state, t
        return uniforms < self.suppression


#: YAML / CLI registry: ``type`` key -> adversary class.
ADVERSARY_TYPES: dict[str, type[AdversaryProcess]] = {
    cls.kind: cls
    for cls in (StaticAdversary, CorrelatedAdversary, BurstyAdversary, StealthAdversary)
}


def adversary_to_spec(adversary: AdversaryProcess) -> dict[str, Any]:
    """Serialize an adversary to its YAML mapping (``type`` + parameters)."""
    spec: dict[str, Any] = {"type": adversary.kind}
    for field_ in fields(adversary):
        spec[field_.name] = getattr(adversary, field_.name)
    return spec


def adversary_from_spec(spec: Mapping[str, Any]) -> AdversaryProcess:
    """Build an adversary from its YAML mapping.

    The mapping must carry a ``type`` key naming a registered adversary;
    the remaining keys are the dataclass parameters.
    """
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise ValueError(f"adversary spec must be a mapping with a 'type' key, got {spec!r}")
    params = dict(spec)
    kind = params.pop("type")
    cls = ADVERSARY_TYPES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown adversary type {kind!r}; known types: {sorted(ADVERSARY_TYPES)}"
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for adversary {kind!r}: {exc}") from exc
