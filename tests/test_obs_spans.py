"""Tests for runtime span tracing (:mod:`repro.obs.spans`).

The recorder mechanics (fake clocks, enable/disable, stage windows, the
zero-allocation disabled path) plus the real thing: an instrumented
:meth:`RatelRuntime.train_step` under :func:`obs.observe` produces
``rt_*`` lanes, stage windows, storage-move spans and CPU-Adam spans in
one ordinary :class:`~repro.sim.trace.Trace`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs import spans
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    CrossEntropyLoss,
    GPTModel,
    NVME,
    RatelOptimizer,
    ratel_hook,
    ratel_init,
)

GB = 1e9
VOCAB, DIM, LAYERS, HEADS, SEQ, BATCH = 37, 16, 2, 2, 8, 2


class FakeClock:
    def __init__(self):
        self.t = 100.0  # non-zero origin: spans must still start at t=0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


class TestSpanRecorder:
    def test_origin_is_zero(self):
        clock = FakeClock()
        rec = spans.SpanRecorder(clock=clock)
        clock.tick(2.0)
        with rec.span("rt_ssd", "io"):
            clock.tick(3.0)
        (interval,) = rec.trace.intervals
        assert interval.start == pytest.approx(2.0)
        assert interval.end == pytest.approx(5.0)
        assert interval.resource == "rt_ssd"
        assert interval.label == "io"

    def test_span_recorded_even_on_exception(self):
        clock = FakeClock()
        rec = spans.SpanRecorder(clock=clock)
        with pytest.raises(RuntimeError):
            with rec.span("rt_compute", "boom"):
                clock.tick(1.0)
                raise RuntimeError("kernel failed")
        assert rec.trace.busy_time("rt_compute") == pytest.approx(1.0)

    def test_stage_windows(self):
        clock = FakeClock()
        rec = spans.SpanRecorder(clock=clock)
        with rec.stage("forward"):
            clock.tick(4.0)
        assert rec.stage_windows["forward"] == (pytest.approx(0.0), pytest.approx(4.0))

    def test_span_feeds_registry(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        rec = spans.SpanRecorder(clock=clock, registry=registry)
        with rec.span("rt_ssd", "io", amount=1024.0):
            clock.tick(2.0)
        snapshot = registry.snapshot()
        assert snapshot.value("rt_spans_total", lane="rt_ssd") == 1
        assert snapshot.value("rt_busy_seconds_total", lane="rt_ssd") == pytest.approx(2.0)
        assert snapshot.value("rt_amount_total", lane="rt_ssd") == 1024.0


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert spans.recorder() is None

    def test_maybe_span_is_shared_noop_when_disabled(self):
        assert spans.maybe_span("rt_ssd", "a") is spans.maybe_span("rt_compute", "b")

    def test_observe_enables_and_restores(self):
        assert spans.recorder() is None
        with obs.observe() as rec:
            assert spans.recorder() is rec
            with spans.maybe_span("rt_ssd", "io"):
                pass
        assert spans.recorder() is None
        assert rec.trace.resources() == ["rt_ssd"]

    def test_observe_nests(self):
        with obs.observe() as outer:
            with obs.observe() as inner:
                assert spans.recorder() is inner
            assert spans.recorder() is outer
        assert spans.recorder() is None

    def test_enable_disable_explicit(self):
        rec = spans.enable()
        try:
            assert spans.recorder() is rec
            assert spans.enable() is rec  # idempotent
        finally:
            spans.disable()
        assert spans.recorder() is None

    def test_link_lane_names(self):
        assert spans.link_lane("gpu", "host") == "rt_gpu2host"
        assert spans.link_lane("host", "nvme") == "rt_host2nvme"


class TestRuntimeInstrumentation:
    """A real train_step under observe() lands in rt_* swim-lanes."""

    @pytest.fixture(scope="class")
    def recorded(self):
        loss_fn = CrossEntropyLoss()
        with ratel_init(
            gpu_capacity=1 * GB,
            host_capacity=1 * GB,
            nvme_capacity=4 * GB,
            checkpoint_tier=NVME,
            active_offload=True,
        ):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            rng = np.random.default_rng(99)
            ids = rng.integers(0, VOCAB, size=(BATCH, SEQ))
            targets = np.roll(ids, -1, axis=1)
            with obs.observe() as rec:
                runtime.train_step(lambda: loss_fn(model(ids), targets))
        return rec

    def test_rt_lanes_present(self, recorded):
        resources = set(recorded.trace.resources())
        assert spans.RT_STEP in resources
        assert spans.RT_COMPUTE in resources
        assert spans.RT_CPU_ADAM in resources
        # NVMe checkpoints force host<->nvme movement through the manager.
        assert any(name.startswith("rt_") and "2" in name for name in resources)

    def test_all_lanes_namespaced(self, recorded):
        assert all(name.startswith("rt_") for name in recorded.trace.resources())

    def test_stage_windows_cover_forward_and_backward(self, recorded):
        names = set(recorded.stage_windows)
        assert any(name.startswith("forward") for name in names)
        assert any(name.startswith("backward") for name in names)

    def test_step_span_encloses_compute(self, recorded):
        steps = [i for i in recorded.trace.intervals if i.resource == spans.RT_STEP]
        assert len(steps) == 1
        (step,) = steps
        for interval in recorded.trace.intervals:
            if interval.resource == spans.RT_COMPUTE:
                assert interval.start >= step.start - 1e-9
                assert interval.end <= step.end + 1e-9

    def test_adam_spans_one_per_parameter_update(self, recorded):
        adam = [i for i in recorded.trace.intervals if i.resource == spans.RT_CPU_ADAM]
        # Active offloading updates every parameter once per step, a
        # block's parameters (and the ones outside every block) in one
        # CPU-Adam update, so one span per group.
        groups = [f"block{index}" for index in range(LAYERS)] + ["nonblock"]
        assert sorted(i.label for i in adam) == sorted(f"adam:{g}" for g in groups)

    def test_attribution_works_on_runtime_trace(self, recorded):
        report = obs.attribute(recorded.trace, recorded.stage_windows)
        assert report.iteration_time > 0
        backward = next(
            b for b in report.stages if b.stage.startswith("backward")
        )
        assert backward.bottleneck.startswith("rt_")

    def test_disabled_train_step_records_nothing(self):
        loss_fn = CrossEntropyLoss()
        with ratel_init(
            gpu_capacity=1 * GB,
            host_capacity=1 * GB,
            nvme_capacity=4 * GB,
            active_offload=True,
        ):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            rng = np.random.default_rng(99)
            ids = rng.integers(0, VOCAB, size=(BATCH, SEQ))
            targets = np.roll(ids, -1, axis=1)
            assert spans.recorder() is None
            loss = runtime.train_step(lambda: loss_fn(model(ids), targets))
        assert np.isfinite(loss)

    def test_instrumented_equals_uninstrumented_loss(self):
        def one_step(instrumented: bool) -> float:
            loss_fn = CrossEntropyLoss()
            with ratel_init(
                gpu_capacity=1 * GB,
                host_capacity=1 * GB,
                nvme_capacity=4 * GB,
                active_offload=True,
            ):
                model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
                runtime = ratel_hook(model)
                RatelOptimizer(model, runtime, lr=1e-2)
                rng = np.random.default_rng(99)
                ids = rng.integers(0, VOCAB, size=(BATCH, SEQ))
                targets = np.roll(ids, -1, axis=1)
                if instrumented:
                    with obs.observe():
                        return runtime.train_step(lambda: loss_fn(model(ids), targets))
                return runtime.train_step(lambda: loss_fn(model(ids), targets))

        assert one_step(True) == one_step(False)
