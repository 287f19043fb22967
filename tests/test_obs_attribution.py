"""Tests for bottleneck attribution (:mod:`repro.obs.attribution`).

Synthetic traces with known busy/stall/idle geometry verify the
accounting exactly; a real simulated iteration checks the report ties
back to the engine's stage times and Algorithm-1's plan.  A Hypothesis
property holds every busy, stall, idle and utilisation value the trace
and the report compute to the per-interval definition, bit for bit.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IterationResult, RatelPolicy
from repro.hardware import evaluation_server
from repro.models import llm, profile_model
from repro.obs.attribution import MODEL_TO_TRACE, AttributionReport, attribute
from repro.sim.trace import Trace


def synthetic_trace():
    """Stage window [0, 10]: gpu busy 0-6, ssd busy 4-9, dead air 9-10."""
    trace = Trace()
    trace.record("gpu0", "kernel", 0.0, 6.0, 0.0)
    trace.record("ssd", "io", 4.0, 9.0, 0.0)
    return trace


class TestAccounting:
    @pytest.fixture()
    def report(self):
        return attribute(synthetic_trace(), {"stage": (0.0, 10.0)})

    def test_busy_seconds(self, report):
        stage = report.stage("stage")
        assert stage.usage("gpu0").busy_s == pytest.approx(6.0)
        assert stage.usage("ssd").busy_s == pytest.approx(5.0)

    def test_union_and_idle(self, report):
        # Union busy = [0, 9] = 9 s, so 1 s of dead air.
        assert report.stage("stage").idle_s == pytest.approx(1.0)

    def test_stall_is_union_minus_busy(self, report):
        stage = report.stage("stage")
        assert stage.usage("gpu0").stall_s == pytest.approx(3.0)  # 9 - 6
        assert stage.usage("ssd").stall_s == pytest.approx(4.0)  # 9 - 5

    def test_bottleneck_is_busiest_resource(self, report):
        assert report.stage("stage").bottleneck == "gpu0"

    def test_utilization(self, report):
        assert report.stage("stage").usage("gpu0").utilization == pytest.approx(0.6)

    def test_resources_sorted_by_busy(self, report):
        rows = report.stage("stage").resources
        assert [row.resource for row in rows] == ["gpu0", "ssd"]

    def test_iteration_time_is_last_window_end(self):
        report = attribute(
            synthetic_trace(), {"a": (0.0, 4.0), "b": (4.0, 10.0)}
        )
        assert report.iteration_time == pytest.approx(10.0)

    def test_window_clipping(self):
        report = attribute(synthetic_trace(), {"early": (0.0, 5.0)})
        stage = report.stage("early")
        assert stage.usage("gpu0").busy_s == pytest.approx(5.0)
        assert stage.usage("ssd").busy_s == pytest.approx(1.0)
        assert stage.idle_s == pytest.approx(0.0)

    def test_empty_window_has_no_bottleneck(self):
        report = attribute(Trace(), {"void": (0.0, 1.0)})
        stage = report.stage("void")
        assert stage.bottleneck == ""
        assert stage.idle_s == pytest.approx(1.0)

    def test_unknown_stage_raises(self):
        report = attribute(synthetic_trace(), {"stage": (0.0, 10.0)})
        with pytest.raises(KeyError):
            report.stage("nope")


class FakeStageTime:
    def __init__(self, total, components):
        self.total = total
        self.components = components


class FakeEstimate:
    def __init__(self):
        self.stage = FakeStageTime(9.5, {"ssd": 9.5, "gpu": 3.0})
        self.total = 9.5


class TestPrediction:
    def test_predicted_vs_actual(self):
        report = attribute(
            synthetic_trace(), {"stage": (0.0, 10.0)}, predicted=FakeEstimate()
        )
        assert report.predicted_time == pytest.approx(9.5)
        assert report.prediction_error == pytest.approx((10.0 - 9.5) / 9.5)
        stage = report.stage("stage")
        assert stage.predicted_s == pytest.approx(9.5)
        # Component names map through MODEL_TO_TRACE to trace lanes.
        assert stage.predicted_bottleneck == MODEL_TO_TRACE["ssd"] == "ssd"

    def test_no_prediction_means_none(self):
        report = attribute(synthetic_trace(), {"stage": (0.0, 10.0)})
        assert report.predicted_time is None
        assert report.prediction_error is None

    def test_render_flags_bottleneck_disagreement(self):
        report = attribute(
            synthetic_trace(), {"stage": (0.0, 10.0)}, predicted=FakeEstimate()
        )
        text = report.render()
        # Plan said ssd binds, the trace says gpu0 does — the report says so.
        assert "plan expected ssd" in text


class TestRender:
    def test_table_contents(self):
        text = attribute(synthetic_trace(), {"stage": (0.0, 10.0)}).render()
        assert "bound by gpu0" in text
        assert "busy_s" in text and "stall_s" in text
        assert "idle 1.0 s" in text
        assert text.strip().endswith("iteration: 10.0 s")

    def test_render_includes_plan_line(self):
        text = attribute(
            synthetic_trace(), {"stage": (0.0, 10.0)}, predicted=FakeEstimate()
        ).render()
        assert "(planned 9.5 s, +5% vs plan)" in text


class TestPayload:
    def test_round_trip(self):
        report = attribute(
            synthetic_trace(), {"stage": (0.0, 10.0)}, predicted=FakeEstimate()
        )
        payload = json.loads(json.dumps(report.to_payload()))
        rebuilt = AttributionReport.from_payload(payload)
        assert rebuilt.iteration_time == pytest.approx(report.iteration_time)
        assert rebuilt.predicted_time == pytest.approx(report.predicted_time)
        stage = rebuilt.stage("stage")
        assert stage.bottleneck == "gpu0"
        assert stage.usage("gpu0").busy_s == pytest.approx(6.0)
        assert stage.usage("ssd").stall_s == pytest.approx(4.0)
        assert stage.usage("gpu0").utilization == pytest.approx(0.6)


class TestOnSimulatedIteration:
    @pytest.fixture(scope="class")
    def outcome(self):
        return RatelPolicy().evaluate(
            profile_model(llm("13B"), 32), evaluation_server()
        )

    def test_outcome_carries_attribution(self, outcome):
        report = outcome.attribution()
        assert report is not None
        stages = {b.stage for b in report.stages}
        assert {"forward", "backward"} <= stages

    def test_iteration_time_matches_engine(self, outcome):
        report = outcome.attribution()
        assert report.iteration_time == pytest.approx(
            outcome.iteration_time, rel=1e-6
        )

    def test_plan_rides_along(self, outcome):
        report = outcome.attribution()
        assert report.predicted_time is not None
        assert outcome.predicted_iteration_time == pytest.approx(report.predicted_time)
        # Algorithm 1's model tracks the engine within a loose band.
        assert abs(report.prediction_error) < 0.5

    def test_every_stage_has_a_binding_resource(self, outcome):
        for breakdown in outcome.attribution().stages:
            assert breakdown.bottleneck != ""

    def test_survives_metrics_round_trip(self, outcome):
        payload = json.loads(json.dumps(outcome.to_payload()))
        from repro.core.evaluation import EvalOutcome

        rebuilt = EvalOutcome.from_payload(payload)
        report = rebuilt.attribution()
        assert report is not None
        assert report.iteration_time == pytest.approx(outcome.iteration_time)


# -- the per-interval definition, as a scalar reference ----------------------------


def reference_busy(intervals, resource, window_start, window_end):
    """Clipped durations of ``resource`` added term by term, in record order."""
    busy = 0.0
    for interval in intervals:
        if interval.resource != resource:
            continue
        lo = window_start if window_start > interval.start else interval.start
        hi = window_end if window_end < interval.end else interval.end
        if hi > lo:
            busy += hi - lo
    return busy


def reference_union(intervals, window_start, window_end, resources):
    """Seconds of the window covered by any of ``resources``, overlap once.

    The clipped spans sorted, merged, and their lengths added term by
    term (not with ``sum()``, which Python 3.12 made compensated).
    """
    clipped = sorted(
        (max(interval.start, window_start), min(interval.end, window_end))
        for interval in intervals
        if interval.resource in resources
        and min(interval.end, window_end) > max(interval.start, window_start)
    )
    merged: list[list[float]] = []
    for lo, hi in clipped:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    union = 0.0
    for lo, hi in merged:
        union += hi - lo
    return union


def bits(value: float) -> str:
    return float(value).hex()


LANES = ("gpu0", "pcie_m2g0", "pcie_g2m0", "ssd", "cpu_adam")
SECONDS = st.one_of(
    st.just(0.0), st.sampled_from([0.1, 0.25, 1 / 3, 0.7, 1.0]), st.floats(0.0, 3.0)
)
#: One channel request: kind, the idle gap before it, its length, and
#: where inside it a fault tick lands.
REQUEST = st.tuples(
    st.sampled_from(["transfer", "transfer_with_tick", "fault_stall", "zero_amount"]),
    SECONDS,
    SECONDS,
    st.floats(0.0, 1.0),
)
#: Up to 30 requests a lane, the count drawn uniformly: a sum of more
#: than eight terms is where a pairwise sum would part from a loop's.
LANE_REQUESTS = st.dictionaries(
    st.sampled_from(LANES),
    st.integers(0, 30).flatmap(lambda n: st.lists(REQUEST, min_size=n, max_size=n)),
    min_size=1,
    max_size=len(LANES),
)
EDGE = st.one_of(st.floats(-1.0, 60.0), st.sampled_from([0.0, 0.1, 1.0, 2.5]))
WINDOWS = st.lists(st.tuples(EDGE, EDGE).map(sorted), min_size=1, max_size=4)


def generated_trace(lane_requests) -> Trace:
    """Record each lane's requests the way the simulator would.

    A transfer or a stall is recorded when it ends, a zero-amount
    transfer and a fault tick when they happen, so a tick inside a
    transfer lands before it in record order: the lane is out of start
    order.
    """
    records = []
    for resource, requests in lane_requests.items():
        now = 0.0
        for kind, gap, length, where in requests:
            start = now + gap
            if kind == "zero_amount":
                records.append((start, resource, "zero", start, start, 0.0))
                now = start
                continue
            end = start + length
            label = "fault_stall" if kind == "fault_stall" else "xfer"
            records.append((end, resource, label, start, end, length))
            if kind == "transfer_with_tick":
                tick = start + where * length
                if tick > end:  # rounding
                    tick = end
                records.append((tick, resource, "fault_bw_sag", tick, tick, 0.0))
            now = end
    trace = Trace()
    for _at, resource, label, start, end, amount in sorted(records, key=lambda r: r[0]):
        trace.record(resource, label, start, end, amount)
    return trace


@settings(max_examples=200, deadline=None)
@given(lane_requests=LANE_REQUESTS, windows=WINDOWS, subset=st.sets(st.sampled_from(LANES)))
def test_every_value_is_the_per_interval_definition(lane_requests, windows, subset):
    trace = generated_trace(lane_requests)
    intervals = list(trace.intervals)
    names = trace.resources()
    assert names == sorted({interval.resource for interval in intervals})
    stage_windows = {f"stage{i}": (lo, hi) for i, (lo, hi) in enumerate(windows)}

    for resource in (*LANES, "absent"):
        assert bits(trace.busy_time(resource)) == bits(
            reference_busy(intervals, resource, 0.0, float("inf"))
        ), resource
    for lo, hi in windows:
        for resource in (*LANES, "absent"):
            assert bits(trace.busy_time(resource, lo, hi)) == bits(
                reference_busy(intervals, resource, lo, hi)
            ), resource
        assert bits(trace.union_busy_time(lo, hi)) == bits(
            reference_union(intervals, lo, hi, set(names))
        )
        assert bits(trace.union_busy_time(lo, hi, sorted(subset))) == bits(
            reference_union(intervals, lo, hi, subset)
        )

    report = attribute(trace, stage_windows)
    for breakdown, (lo, hi) in zip(report.stages, windows):
        span = hi - lo
        union = reference_union(intervals, lo, hi, set(names))
        assert bits(breakdown.idle_s) == bits(max(0.0, span - union))
        expected = []
        for resource in names:
            busy = reference_busy(intervals, resource, lo, hi)
            expected.append(
                (
                    resource,
                    bits(busy),
                    bits(max(0.0, union - busy)),
                    bits(busy / span if span > 0 else 0.0),
                )
            )
        expected.sort(key=lambda row: float.fromhex(row[1]), reverse=True)
        assert [
            (row.resource, bits(row.busy_s), bits(row.stall_s), bits(row.utilization))
            for row in breakdown.resources
        ] == expected

    result = IterationResult(
        schedule=None, server=None, trace=trace, stage_windows=stage_windows, remaining_ssds=0
    )
    iteration_time = max(hi for _lo, hi in windows)
    if iteration_time > 0:
        assert bits(result.gpu_busy_fraction) == bits(
            reference_busy(intervals, "gpu0", 0.0, iteration_time) / iteration_time
        )
