"""A bandwidth sag changes a rate; it never counts as busy time.

A sag used to be recorded as one zero-amount interval spanning the whole
window on the sagged lane, overlapping the real transfers there.  Busy
time sums the clipped intervals of a lane, so the sagged resource came
out busy for longer than the stage itself (119% of a 13B forward on
``pcie_m2g0``, 199% of the backward on ``ssd``) and attribution named
it as the binding resource.  The sag is now two zero-length ticks.
"""

from __future__ import annotations

import pytest

from repro.core import RatelPolicy, run_iteration
from repro.faults import BandwidthSag, FaultSchedule
from repro.hardware import RTX_4090, GiB, evaluation_server
from repro.models import llm, profile_model
from repro.obs.attribution import attribute

SERVER = evaluation_server(gpu=RTX_4090, main_memory_bytes=256 * GiB, n_ssds=6)


@pytest.fixture(scope="module")
def schedule():
    return RatelPolicy().compile(profile_model(llm("13B"), 32), SERVER)


@pytest.mark.parametrize("resource", ["pcie_m2g0", "ssd"])
class TestBandwidthSagAccounting:
    def _run(self, schedule, resource):
        sag = BandwidthSag(at=1.0, duration=60.0, factor=0.5, resource=resource)
        return run_iteration(SERVER, schedule, faults=FaultSchedule((sag,)))

    def test_busy_time_never_exceeds_the_stage(self, schedule, resource):
        result = self._run(schedule, resource)
        report = attribute(result.trace, result.stage_windows)
        for stage in report.stages:
            for usage in stage.resources:
                assert usage.busy_s <= stage.span_s * (1 + 1e-12), (
                    f"{usage.resource} busy {usage.busy_s:.2f} s in a "
                    f"{stage.span_s:.2f} s {stage.stage}"
                )

    def test_sag_is_two_zero_length_ticks(self, schedule, resource):
        result = self._run(schedule, resource)
        ticks = [i for i in result.trace.intervals if i.label == "fault_bw_sag"]
        assert [(i.resource, i.start, i.end) for i in ticks] == [
            (resource, 1.0, 1.0),
            (resource, 61.0, 61.0),
        ]

    def test_sag_still_slows_the_iteration(self, schedule, resource):
        healthy = run_iteration(SERVER, schedule).iteration_time
        assert self._run(schedule, resource).iteration_time > healthy
