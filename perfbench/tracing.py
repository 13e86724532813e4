"""Outside-in tracing of one workload repetition, layer by layer.

The tracer wraps public entry points of each layer of ``repro`` from the
benchmark's side: it replaces a class attribute (for methods) or a module
global (for functions looked up at call time) with a timing wrapper.  No
tracing lives inside ``src/``.

Every wrapped call records ``(name, start, end, parent)``.  A span's *self
time* is its duration minus the time covered by its child spans.  Spans are
kept in memory and written out at the end; for workloads that make ~10^6
calls (consensus) only per-name aggregates are kept, with the same call
stack, so self times are exact either way.

The layers are this repository's modules:

* ``rng`` — the stream generators ``BatchRecoveryEngine.draw_uniforms`` /
  ``draw_adversary_uniforms`` and ``repro.control.parallel.shard_uniforms``;
* ``engine`` — ``repro.sim`` (stepwise ``begin``/``step``/``finalize`` and
  the closed ``run`` drivers);
* ``control`` — ``repro.control`` (the two-level loop);
* ``service`` — ``repro.serve``;
* ``consensus`` — ``repro.consensus``.
"""

from __future__ import annotations

import functools
import importlib
import math
from time import perf_counter

#: (span name, module, class or ``None`` for a module global, attribute).
#: The span name's first dotted component is its layer.
TARGETS = (
    ("rng.draw_uniforms", "repro.sim.engine", "BatchRecoveryEngine", "draw_uniforms"),
    (
        "rng.draw_adversary_uniforms",
        "repro.sim.engine",
        "BatchRecoveryEngine",
        "draw_adversary_uniforms",
    ),
    ("rng.shard_uniforms", "repro.control.parallel", None, "shard_uniforms"),
    ("engine.begin", "repro.sim.engine", "BatchRecoveryEngine", "begin"),
    ("engine.step", "repro.sim.engine", "BatchRecoveryEngine", "step"),
    ("engine.finalize", "repro.sim.engine", "BatchRecoveryEngine", "finalize"),
    ("engine.run", "repro.sim.engine", "BatchRecoveryEngine", "run"),
    (
        "engine.run",
        "repro.sim.engine",
        "BatchRecoveryEngine",
        "run_threshold_population",
    ),
    ("control.pre_step", "repro.control.two_level", "TwoLevelLoop", "pre_step"),
    ("control.post_step", "repro.control.two_level", "TwoLevelLoop", "post_step"),
    (
        "control.system",
        "repro.control.vector_system",
        "VectorSystemController",
        "step",
    ),
    (
        "service.register",
        "repro.serve.service",
        "DecisionService",
        "register_controller",
    ),
    ("service.tick", "repro.serve.service", "DecisionService", "tick"),
    # ``digest`` is imported by name into several modules; each binding is
    # looked up at call time, so each one is wrapped.
    ("consensus.digest", "repro.consensus.crypto", None, "digest"),
    ("consensus.digest", "repro.consensus.minbft", None, "digest"),
    ("consensus.digest", "repro.consensus.usig", None, "digest"),
    ("consensus.digest", "repro.consensus.state_machine", None, "digest"),
    ("consensus.sign", "repro.consensus.crypto", "KeyPair", "sign"),
    ("consensus.verify", "repro.consensus.crypto", "KeyPair", "verify"),
    ("consensus.usig", "repro.consensus.usig", "USIG", "create_ui"),
    ("consensus.usig", "repro.consensus.usig", "USIGVerifier", "verify"),
    ("consensus.network_step", "repro.consensus.network", "SimulatedNetwork", "step"),
    ("consensus.audit", "repro.control.consensus_loop", None, "audit_safety"),
    # The client pump and the membership changes run inside the control
    # loop's ``on_step`` observer; without their own spans their time would
    # count as control time.
    ("consensus.pump", "repro.consensus.client", "ClientWorkload", "pump"),
    ("consensus.reconfigure", "repro.consensus.minbft", "MinBFTCluster", "recover_replica"),
    ("consensus.reconfigure", "repro.consensus.minbft", "MinBFTCluster", "add_replica"),
    ("consensus.reconfigure", "repro.consensus.minbft", "MinBFTCluster", "evict_replica"),
    ("consensus.reconfigure", "repro.consensus.minbft", "MinBFTCluster", "crash"),
    ("consensus.reconfigure", "repro.consensus.minbft", "MinBFTCluster", "compromise"),
)

LAYERS = ("rng", "engine", "control", "service", "consensus")

#: Spans whose returned arrays are counted into ``rng.bytes``.
_BYTE_SPANS = frozenset({"rng.draw_uniforms", "rng.draw_adversary_uniforms", "rng.shard_uniforms"})

_ENGINE_PHASES = (
    "strategy",
    "transition_sample",
    "observation_draw",
    "belief_update",
    "bookkeeping",
)
_CONSENSUS_SPANS = ("digest", "sign", "verify", "usig", "network_step", "audit")


class Tracer:
    """Span recorder with a call stack; see the module docstring.

    Args:
        record_spans: Keep every span (``False`` keeps only per-name
            aggregates, for workloads with ~10^6 traced calls).
    """

    def __init__(self, record_spans: bool = True) -> None:
        self.record_spans = record_spans
        self.spans: list = []
        #: name -> [calls, total seconds, self seconds]
        self.aggregates: dict[str, list] = {}
        self.rng_bytes = 0
        self.profile = None
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------
    def wrap(self, name: str, function):
        """Return ``function`` wrapped to record one span per call."""
        stack = self._stack
        spans = self.spans if self.record_spans else None
        aggregate = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        count_bytes = name in _BYTE_SPANS

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = -1
            if spans is not None:
                index = len(spans)
                spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if spans is not None:
                    spans[index] = (name, start, end, parent[0] if parent else -1)
            if count_bytes and result is not None:
                self.rng_bytes += int(result.nbytes)
            return result

        return traced

    def install(self) -> None:
        """Patch every target in :data:`TARGETS`; :meth:`uninstall` restores them."""
        from repro.sim.kernels import EngineProfile
        from repro.sim.engine import BatchRecoveryEngine

        for name, module_name, class_name, attribute in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))

        # The closed driver's per-phase profile.  ``run_threshold_population``
        # (Algorithm 1's path) takes no ``profile=`` argument, so the profile
        # is handed to the private driver both ``run`` paths share.
        self.profile = shared = EngineProfile()
        simulate = BatchRecoveryEngine.__dict__["_simulate"]

        @functools.wraps(simulate)
        def profiled(engine, strategies, uniforms, profile=None, trellis=None, adversary_uniforms=None):
            return simulate(
                engine,
                strategies,
                uniforms,
                profile=profile if profile is not None else shared,
                trellis=trellis,
                adversary_uniforms=adversary_uniforms,
            )

        self._undo.append((BatchRecoveryEngine, "_simulate", simulate))
        BatchRecoveryEngine._simulate = profiled

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.aggregates.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.aggregates.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(a[2] for n, a in self.aggregates.items() if n.startswith(prefix))

    def export(self) -> dict:
        """JSON-ready dump: aggregates, plus every span when recorded."""
        return {
            "aggregates": {
                name: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                for name, a in sorted(self.aggregates.items())
                if a[0]
            },
            "spans": [list(s) for s in self.spans] if self.record_spans else None,
            "engine_profile_ns": dict(self.profile.nanos) if self.profile else {},
        }


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def layer_metrics(tracer: Tracer, counters: dict, traced_wall_s: float) -> dict:
    """Per-layer metric values of one traced repetition.

    ``counters`` carries the workload's own per-layer counts (service
    statistics, consensus message counts and latencies).  Metrics of a
    layer the workload bypasses come out as 0.  ``trace_overhead`` and the
    service's tick percentiles need the untraced repetitions, so the
    caller adds them.
    """
    m: dict[str, float] = {}
    m["rng.calls"] = sum(tracer.calls(n) for n in _BYTE_SPANS)
    m["rng.self_s"] = tracer.layer_self_s("rng")
    m["rng.bytes"] = tracer.rng_bytes

    m["engine.step.calls"] = tracer.calls("engine.step")
    for name in ("step", "begin", "finalize"):
        m[f"engine.{name}.self_s"] = tracer.self_s(f"engine.{name}")
    m["engine.run.calls"] = tracer.calls("engine.run")
    m["engine.run.self_s"] = tracer.self_s("engine.run")
    nanos = tracer.profile.nanos if tracer.profile is not None else {}
    for phase in _ENGINE_PHASES:
        m[f"engine.phase.{phase}_s"] = nanos.get(phase, 0) / 1e9
    phases_s = sum(nanos.values()) / 1e9
    m["engine.run.unprofiled_s"] = max(m["engine.run.self_s"] - phases_s, 0.0)
    m["engine.self_s"] = tracer.layer_self_s("engine")

    m["control.pre_step.calls"] = tracer.calls("control.pre_step")
    m["control.pre_step.self_s"] = tracer.self_s("control.pre_step")
    m["control.post_step.self_s"] = tracer.self_s("control.post_step")
    m["control.system.self_s"] = tracer.self_s("control.system")
    m["control.self_s"] = tracer.layer_self_s("control")

    m["service.register.self_s"] = tracer.self_s("service.register")
    m["service.tick.self_s"] = tracer.self_s("service.tick")
    for key in (
        "service.seal_s",
        "service.engine_calls",
        "service.node_decisions",
    ):
        m[key] = counters.get(key, 0)
    engine_calls = counters.get("service.engine_calls", 0)
    m["service.sessions_per_engine_call"] = (
        counters.get("service.ticks_served", 0) / engine_calls if engine_calls else 0.0
    )
    m["service.self_s"] = tracer.layer_self_s("service")

    for name in _CONSENSUS_SPANS:
        m[f"consensus.{name}.calls"] = tracer.calls(f"consensus.{name}")
        m[f"consensus.{name}.self_s"] = tracer.self_s(f"consensus.{name}")
    for key in (
        "consensus.messages_sent",
        "consensus.messages_per_request",
        "consensus.reconfigurations",
        "consensus.deadline_misses",
        "consensus.latency_ticks_p50",
        "consensus.latency_ticks_p99",
        "consensus.sim_rps",
    ):
        m[key] = counters.get(key, 0)
    m["consensus.self_s"] = tracer.layer_self_s("consensus")

    attributed = sum(tracer.layer_self_s(layer) for layer in LAYERS)
    m["unattributed_s"] = max(traced_wall_s - attributed, 0.0)
    return m
