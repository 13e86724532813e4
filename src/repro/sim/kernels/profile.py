"""Per-phase wall-clock accounting for the batch engine.

:class:`EngineProfile` accumulates cumulative nanoseconds per simulation
phase so that kernel regressions are attributable: when a backend change
slows the Table 2/7 evaluation down, the profile says whether the time went
into transition sampling, observation draws, the belief update, or the
bookkeeping around them.

Profiles are opt-in (``BatchRecoveryEngine.begin(..., profile=True)`` or
``run(..., profile=True)``) because the timer calls themselves cost a few
hundred nanoseconds per step; the hot loop stays timer-free when disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EngineProfile", "PHASES"]

#: Canonical phase names, in simulation order.  Other phase names are
#: accepted (``add`` and ``merge`` keep them), but these five are always
#: present.
PHASES = (
    "strategy",
    "transition_sample",
    "observation_draw",
    "belief_update",
    "bookkeeping",
)


@dataclass
class EngineProfile:
    """Cumulative per-phase nanoseconds of one (or several) engine runs.

    Profiles are plain data and travel across process boundaries: the
    sharded sweeps of :mod:`repro.control.parallel` fill one profile per
    worker shard, pickle it back to the parent, and join the shards with
    :meth:`merge`.  Every accumulated total is coerced to a built-in
    ``int`` (timer deltas may arrive as NumPy integers), so a pickling
    round-trip reproduces the profile exactly.

    Attributes:
        nanos: Phase name -> cumulative nanoseconds.
        steps: Number of engine steps accounted for.
        backend: Name of the backend that filled the profile (informational).
    """

    nanos: dict[str, int] = field(default_factory=lambda: {p: 0 for p in PHASES})
    steps: int = 0
    backend: str = ""

    def add(self, phase: str, ns: int) -> None:
        self.nanos[phase] = int(self.nanos.get(phase, 0)) + int(ns)

    @classmethod
    def merge(cls, *profiles: "EngineProfile | None") -> "EngineProfile":
        """Join per-shard profiles into one cumulative profile.

        Sums the per-phase nanosecond totals and step counts of every
        non-``None`` input (``None`` entries — shards run without
        profiling — are skipped).  Non-canonical phases are preserved; the
        backend name is taken from the first profile that set one.  The
        merge of zero profiles is an empty profile.
        """
        merged = cls()
        for profile in profiles:
            if profile is None:
                continue
            for phase, ns in profile.nanos.items():
                merged.add(phase, ns)
            merged.steps += int(profile.steps)
            if not merged.backend and profile.backend:
                merged.backend = profile.backend
        return merged

    @property
    def total_ns(self) -> int:
        return sum(self.nanos.values())

    def rows(self) -> list[tuple[str, float, float]]:
        """``(phase, milliseconds, share)`` rows, largest first."""
        total = self.total_ns or 1
        return sorted(
            ((name, ns / 1e6, ns / total) for name, ns in self.nanos.items() if ns),
            key=lambda row: -row[1],
        )

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        head = f"EngineProfile(backend={self.backend or '?'}, steps={self.steps})"
        body = "".join(
            f"\n  {name:<20} {ms:9.3f} ms  {share:6.1%}" for name, ms, share in self.rows()
        )
        return head + body
