"""Tests for the discrete-event simulation kernel and resources."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hardware import EVALUATION_SERVER, GB
from repro.sim import Machine, RateChannel, SimulationError, Simulator, Trace
from repro.sim.resources import Semaphore


class TestKernel:
    def test_timeout_advances_clock(self):
        sim = Simulator()

        def job():
            yield sim.timeout(2.5)
            return "done"

        proc = sim.process(job())
        sim.run()
        assert sim.now == pytest.approx(2.5)
        assert proc.value == "done"

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_processes_wait_on_each_other(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return 41

        def parent():
            value = yield sim.process(child())
            return value + 1

        proc = sim.process(parent())
        sim.run()
        assert proc.value == 42

    def test_all_of_waits_for_slowest(self):
        sim = Simulator()

        def job(delay, value):
            yield sim.timeout(delay)
            return value

        def barrier():
            values = yield sim.all_of([sim.process(job(1, "a")), sim.process(job(3, "b"))])
            return values

        proc = sim.process(barrier())
        sim.run()
        assert sim.now == pytest.approx(3.0)
        assert proc.value == ["a", "b"]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_yielding_non_event_rejected(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_empty_all_of_triggers_immediately(self):
        sim = Simulator()

        def job():
            yield sim.all_of([])
            return "ok"

        proc = sim.process(job())
        sim.run()
        assert proc.value == "ok"
        assert sim.now == 0.0

    def test_determinism(self):
        def build():
            sim = Simulator()
            log = []

            def worker(name, delay):
                yield sim.timeout(delay)
                log.append((sim.now, name))

            for i in range(10):
                sim.process(worker(f"w{i}", (i * 7) % 3))
            sim.run()
            return log

        assert build() == build()


class TestExclusiveResource:
    """A one-permit semaphore is a FIFO mutex."""

    def test_fifo_ordering(self):
        sim = Simulator()
        resource = Semaphore(sim, 1)
        order = []

        def worker(name, hold):
            grant = resource.acquire()
            yield grant
            order.append(name)
            yield sim.timeout(hold)
            resource.release()

        for i in range(4):
            sim.process(worker(f"w{i}", 1.0))
        sim.run()
        assert order == ["w0", "w1", "w2", "w3"]
        assert sim.now == pytest.approx(4.0)

    def test_release_when_idle_raises(self):
        sim = Simulator()
        resource = Semaphore(sim, 1)
        with pytest.raises(RuntimeError):
            resource.release()


class TestSemaphore:
    def test_bounds_concurrency(self):
        sim = Simulator()
        sem = Semaphore(sim, 2)
        active = []
        peak = []

        def worker():
            yield sem.acquire()
            active.append(1)
            peak.append(len(active))
            yield sim.timeout(1.0)
            active.pop()
            sem.release()

        for _ in range(6):
            sim.process(worker())
        sim.run()
        assert max(peak) == 2
        assert sim.now == pytest.approx(3.0)

    def test_rejects_zero_permits(self):
        with pytest.raises(ValueError):
            Semaphore(Simulator(), 0)


def _served(channel: RateChannel, amount: float, **kwargs) -> float:
    """Seconds one ``use`` of ``amount`` takes on an idle channel."""

    def sender():
        yield channel.use(amount, **kwargs)

    channel.sim.process(sender())
    return channel.sim.run()


class TestRateChannel:
    def test_service_time(self):
        sim = Simulator()
        channel = RateChannel(sim, "link", 10 * GB, Trace())
        assert _served(channel, 20 * GB) == pytest.approx(2.0)

    def test_efficiency_slows_transfer(self):
        sim = Simulator()
        channel = RateChannel(sim, "link", 10 * GB, Trace())
        assert _served(channel, 10 * GB, efficiency=0.5) == pytest.approx(2.0)

    def test_efficiency_out_of_range_rejected(self):
        channel = RateChannel(Simulator(), "link", 1.0, Trace())
        with pytest.raises(ValueError):
            _served(channel, 1.0, efficiency=0.0)
        with pytest.raises(ValueError):
            _served(channel, 1.0, efficiency=1.5)

    def test_negative_amount_rejected(self):
        channel = RateChannel(Simulator(), "link", 1.0, Trace())
        with pytest.raises(ValueError):
            _served(channel, -1.0)

    def test_serializes_transfers(self):
        sim = Simulator()
        trace = Trace()
        channel = RateChannel(sim, "link", 1 * GB, trace)

        def sender(nbytes):
            yield channel.use(nbytes, "x")

        sim.process(sender(1 * GB))
        sim.process(sender(2 * GB))
        sim.run()
        assert sim.now == pytest.approx(3.0)
        assert trace.moved("link") == pytest.approx(3 * GB)
        assert trace.busy_time("link") == pytest.approx(3.0)

    @given(st.lists(st.floats(min_value=0, max_value=5 * GB), min_size=1, max_size=8))
    def test_total_time_is_sum_of_services(self, sizes):
        sim = Simulator()
        channel = RateChannel(sim, "link", 1 * GB, Trace())

        def sender(nbytes):
            yield channel.use(nbytes)

        for nbytes in sizes:
            sim.process(sender(nbytes))
        sim.run()
        assert sim.now == pytest.approx(sum(sizes) / GB)


class TestChannelQueue:
    """What a channel's own FIFO queue keeps of the lane it replaced."""

    def test_zero_amount_behind_a_busy_lane_is_fifo_and_instant(self):
        sim = Simulator()
        trace = Trace()
        channel = RateChannel(sim, "link", 1 * GB, trace)
        ends = {}

        def sender(name, nbytes):
            ends[name] = yield channel.use(nbytes, name)

        sim.process(sender("big", 2 * GB))
        sim.process(sender("empty", 0.0))
        sim.process(sender("small", 1 * GB))
        sim.run()
        assert [i.label for i in trace.intervals] == ["big", "empty", "small"]
        assert ends == {"big": 2.0, "empty": 2.0, "small": 3.0}
        empty = trace.intervals[1]
        assert (empty.start, empty.end, empty.duration) == (2.0, 2.0, 0.0)

    def test_queued_request_priced_at_the_rate_in_force_when_granted(self):
        sim = Simulator()
        trace = Trace()
        channel = RateChannel(sim, "link", 1 * GB, trace)

        def sender(nbytes):
            yield channel.use(nbytes)

        def sag():
            yield sim.timeout(0.5)  # while the second request waits
            channel.derate(0.5)

        sim.process(sender(1 * GB))
        sim.process(sender(1 * GB))
        sim.process(sag())
        sim.run()
        first, second = trace.intervals
        assert (first.start, first.end) == (0.0, 1.0)  # granted before the sag
        assert (second.start, second.end) == (1.0, 3.0)

    def test_queued_ssd_request_priced_after_a_dropout(self):
        server = EVALUATION_SERVER.with_ssds(6)
        machine = Machine(server)

        def reader():
            yield machine.ssd.use(32 * GB, "first")
            machine.fail_ssds(5)  # ends at 1.0 s; the queued read is granted next

        def waiter():
            yield machine.ssd.use(server.with_ssds(1).ssd_read_bw, "second")

        machine.sim.process(reader())
        machine.sim.process(waiter())
        machine.run()
        first, second = machine.trace.intervals
        assert first.end == pytest.approx(1.0)
        assert second.duration == pytest.approx(1.0)

    def test_hold_returns_its_start_time(self):
        sim = Simulator()
        channel = RateChannel(sim, "link", 1 * GB, Trace())
        starts = []

        def sender():
            yield channel.use(2 * GB)

        def staller():
            starts.append((yield channel.hold(0.5)))
            starts.append(sim.now)

        sim.process(sender())
        sim.process(staller())
        sim.run()
        assert starts == [2.0, 2.5]

    def test_use_event_joins_all_of(self):
        sim = Simulator()
        trace = Trace()
        m2g = RateChannel(sim, "m2g", 1 * GB, trace)
        g2m = RateChannel(sim, "g2m", 1 * GB, trace)

        def both():
            return (yield sim.all_of([m2g.use(1 * GB, "in"), g2m.use(3 * GB, "out")]))

        proc = sim.process(both())
        sim.run()
        assert proc.value == [1.0, 3.0]
        assert sim.now == 3.0
        assert sorted(i.label for i in trace.intervals) == ["in", "out"]


class TestMachine:
    def test_channels_built_from_spec(self):
        machine = Machine(EVALUATION_SERVER)
        assert len(machine.gpus) == 1
        assert machine.gpus[0].rate == EVALUATION_SERVER.gpu.peak_fp16_flops
        assert machine.pcie_m2g[0].rate == pytest.approx(21 * GB)
        assert machine.ssd.rate == pytest.approx(32 * GB)

    def test_ssd_simplex_serializes_read_and_write(self):
        # Six drives: reads at the 32 GB/s platform cap, writes at 21 GB/s.
        machine = Machine(EVALUATION_SERVER.with_ssds(6))

        def reader():
            yield machine.ssd.use(32 * GB, "ssd_read")

        def writer():
            yield machine.ssd.use(21 * GB, "ssd_write", write=True)

        machine.sim.process(reader())
        machine.sim.process(writer())
        machine.run()
        assert machine.now == pytest.approx(2.0)
        assert machine.trace.moved("ssd", label_prefix="ssd_read") == pytest.approx(32 * GB)
        assert machine.trace.moved("ssd", label_prefix="ssd_write") == pytest.approx(21 * GB)

    def test_duplex_pcie_directions_run_concurrently(self):
        machine = Machine(EVALUATION_SERVER)

        def down():
            yield machine.pcie_m2g[0].use(21 * GB)

        def up():
            yield machine.pcie_g2m[0].use(21 * GB)

        machine.sim.process(down())
        machine.sim.process(up())
        machine.run()
        assert machine.now == pytest.approx(1.0)

    def test_rejects_non_server(self):
        with pytest.raises(TypeError):
            Machine("not a server")

    def test_ssd_on_empty_array_rejected(self):
        machine = Machine(EVALUATION_SERVER.with_ssds(0))

        def reader():
            yield machine.ssd.use(1.0)

        machine.sim.process(reader())
        with pytest.raises(RuntimeError):
            machine.run()


class TestTrace:
    def test_busy_time_clips_to_window(self):
        trace = Trace()
        trace.record("gpu", "k", 1.0, 5.0, 100.0)
        assert trace.busy_time("gpu") == pytest.approx(4.0)
        assert trace.busy_time("gpu", 2.0, 3.0) == pytest.approx(1.0)
        assert trace.busy_time("gpu", 6.0, 9.0) == 0.0

    def test_utilization(self):
        trace = Trace()
        trace.record("ssd", "x", 0.0, 2.0, 10.0)
        assert trace.utilization("ssd", 0.0, 4.0) == pytest.approx(0.5)
        assert trace.utilization("ssd", 0.0, 0.0) == 0.0

    def test_moved_prorates_partial_overlap(self):
        trace = Trace()
        trace.record("link", "t", 0.0, 4.0, 8 * GB)
        assert trace.moved("link") == pytest.approx(8 * GB)
        assert trace.moved("link", 0.0, 2.0) == pytest.approx(4 * GB)

    def test_moved_filters_by_label_prefix(self):
        trace = Trace()
        trace.record("link", "grad_b0", 0.0, 1.0, 1.0)
        trace.record("link", "act_b0", 1.0, 2.0, 2.0)
        assert trace.moved("link", label_prefix="grad") == pytest.approx(1.0)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            Trace().record("r", "l", 2.0, 1.0, 0.0)

    def test_resources_listing(self):
        trace = Trace()
        trace.record("b", "l", 0, 1, 0)
        trace.record("a", "l", 0, 1, 0)
        assert trace.resources() == ["a", "b"]
