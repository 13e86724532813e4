"""The tracer's self-time arithmetic, patching and per-layer metrics."""

from __future__ import annotations

import time

import numpy as np

from tracing import TARGETS, Tracer, layer_metrics, percentile


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("engine.step", lambda: _busy(0.02))

    def outer_body():
        _busy(0.01)
        inner()
        inner()

    outer = tracer.wrap("control.post_step", outer_body)
    outer()

    calls, total, self_time = tracer.aggregates["control.post_step"]
    assert calls == 1
    assert total >= 0.05
    assert 0.01 <= self_time < total - 0.04
    assert tracer.calls("engine.step") == 2
    # The outer span is recorded last; both inner spans name it as parent.
    names = [span[0] for span in tracer.spans]
    outer_index = names.index("control.post_step")
    assert [s[3] for s in tracer.spans if s[0] == "engine.step"] == [outer_index] * 2
    assert tracer.spans[outer_index][3] == -1


def test_aggregates_only_mode_keeps_no_spans():
    tracer = Tracer(record_spans=False)
    tracer.wrap("consensus.digest", lambda: None)()
    assert tracer.export()["spans"] is None
    assert tracer.calls("consensus.digest") == 1


def test_exception_still_closes_the_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("service.tick", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.calls("service.tick") == 1
    assert tracer._stack == []


def test_install_patches_and_uninstall_restores():
    import importlib

    originals = {}
    for _, module_name, class_name, attribute in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        originals[(module_name, class_name, attribute)] = getattr(owner, attribute)
    tracer = Tracer()
    tracer.install()
    try:
        from repro.sim.engine import BatchRecoveryEngine

        assert BatchRecoveryEngine.step is not originals[("repro.sim.engine", "BatchRecoveryEngine", "step")]
    finally:
        tracer.uninstall()
    for (module_name, class_name, attribute), original in originals.items():
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert getattr(owner, attribute) is original


def test_traced_engine_run_counts_rng_bytes_and_phases():
    from repro.core import BetaBinomialObservationModel, NodeParameters, ThresholdStrategy
    from repro.sim import BatchRecoveryEngine, FleetScenario

    scenario = FleetScenario.single_node(NodeParameters(), BetaBinomialObservationModel(), horizon=20)
    engine = BatchRecoveryEngine(scenario)
    untraced = engine.run(ThresholdStrategy(0.5), num_episodes=7, seed=2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = engine.run(ThresholdStrategy(0.5), num_episodes=7, seed=2)
    finally:
        tracer.uninstall()
    # Tracing observes; it does not change the result.
    assert np.array_equal(traced.average_cost, untraced.average_cost)
    metrics = layer_metrics(tracer, {}, traced_wall_s=10.0)
    assert metrics["engine.run.calls"] == 1
    assert metrics["rng.calls"] == 1
    assert metrics["rng.bytes"] == 7 * 1 * 40 * 8
    assert sum(tracer.profile.nanos.values()) > 0
    assert 0.0 < metrics["unattributed_s"] < 10.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 99) == 0.0
