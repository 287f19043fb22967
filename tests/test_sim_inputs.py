"""Non-finite times, amounts and rates fail with a typed one-line error.

Every comparison with NaN is false, so range checks written as
``x < 0`` let NaN through: a NaN timeout fired at once, a NaN transfer
turned a channel's byte total into NaN, and a NaN sag left an interval
starting at NaN in an otherwise finite iteration.  Infinite delays and
durations would never end.  Each input below must raise instead.
"""

from __future__ import annotations

import math

import pytest

from repro.faults import BandwidthSag, FaultScheduleError, LatencyStall, SSDDropout
from repro.hardware import evaluation_server
from repro.sim import Machine, RateChannel, SimulationError, Simulator, Trace

NAN = math.nan
INF = math.inf


def _channel() -> RateChannel:
    return RateChannel(Simulator(), "link", 1.0, Trace())


def _ssd():
    return Machine(evaluation_server()).ssd


CASES = {
    "timeout-nan": (SimulationError, lambda: Simulator().timeout(NAN)),
    "timeout-inf": (SimulationError, lambda: Simulator().timeout(INF)),
    "channel-rate-nan": (ValueError, lambda: RateChannel(Simulator(), "link", NAN, Trace())),
    "channel-rate-inf": (ValueError, lambda: RateChannel(Simulator(), "link", INF, Trace())),
    "write-rate-nan": (
        ValueError, lambda: RateChannel(Simulator(), "link", 1.0, Trace(), write_rate=NAN)
    ),
    "derate-nan": (ValueError, lambda: _channel().derate(NAN)),
    "use-nan": (ValueError, lambda: _channel().use(NAN)),
    "use-inf": (ValueError, lambda: _channel().use(INF)),
    "use-efficiency-nan": (ValueError, lambda: _channel().use(1.0, efficiency=NAN)),
    "ssd-read-nan": (ValueError, lambda: _ssd().use(NAN)),
    "ssd-write-inf": (ValueError, lambda: _ssd().use(INF, write=True)),
    "ssd-derate-nan": (ValueError, lambda: _ssd().derate(NAN)),
    "hold-inf": (SimulationError, lambda: _channel().hold(INF)),
    "record-start-nan": (ValueError, lambda: Trace().record("r", "l", NAN, 0.0, 0.0)),
    "record-end-nan": (ValueError, lambda: Trace().record("r", "l", 0.0, NAN, 0.0)),
    "record-end-inf": (ValueError, lambda: Trace().record("r", "l", 0.0, INF, 0.0)),
    "dropout-at-nan": (FaultScheduleError, lambda: SSDDropout(at=NAN)),
    "dropout-at-inf": (FaultScheduleError, lambda: SSDDropout(at=INF)),
    "sag-nan": (FaultScheduleError, lambda: BandwidthSag(at=NAN, duration=NAN, factor=0.5)),
    "sag-duration-nan": (FaultScheduleError, lambda: BandwidthSag(at=1.0, duration=NAN, factor=0.5)),
    "sag-duration-inf": (FaultScheduleError, lambda: BandwidthSag(at=1.0, duration=INF, factor=0.5)),
    "stall-duration-inf": (FaultScheduleError, lambda: LatencyStall(at=1.0, duration=INF)),
    "stall-at-nan": (FaultScheduleError, lambda: LatencyStall(at=NAN, duration=1.0)),
}


class TestNonFiniteInputs:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_one_line_typed_error(self, case):
        error, build = CASES[case]
        with pytest.raises(error) as info:
            build()
        assert "\n" not in str(info.value)

    def test_rejected_transfer_leaves_totals_untouched(self):
        machine = Machine(evaluation_server())
        with pytest.raises(ValueError):
            machine.ssd.use(NAN)
        assert machine.trace.moved("ssd") == 0.0


class TestGrantTimeErrors:
    """Rates are read when a request is granted, so some errors wait for it."""

    def test_zero_rate_channel_raises_at_grant(self):
        sim = Simulator()
        channel = RateChannel(sim, "link", 0.0, Trace())

        def sender():
            yield channel.use(1.0)

        sim.process(sender())
        with pytest.raises(RuntimeError, match="no working device"):
            sim.run()

    def test_finite_amount_over_a_tiny_rate_never_ends(self):
        sim = Simulator()
        channel = RateChannel(sim, "link", 1.0, Trace())
        channel.derate(1e-300)

        def sender():
            yield channel.use(1e10)

        sim.process(sender())
        with pytest.raises(SimulationError) as info:
            sim.run()
        assert "\n" not in str(info.value)
