"""The kernel against its oracle: same dispatches, same intervals.

``tests/des_oracle`` is a verbatim copy of the discrete-event kernel
before its dispatch path was tightened.  Hypothesis builds random
process graphs — channels moving random amounts (zero included) at
random efficiencies, SSD reads and writes on the array's one lane,
zero-delay hops, ``AllOf`` fan-outs, semaphores, a mutex, latency
stalls on every lane, signals and processes with several waiters, and
mid-run ``derate`` calls — and runs each on the oracle and on
:mod:`repro.sim`.  Both must dispatch the same callbacks in the same
``(time, seq)`` order, record the same intervals and end at the same
time, bit for bit.

The two kernels name the mutex, the SSD directions and the stall
differently, so each step goes through the kernel's own API: the oracle
takes an ``ExclusiveResource``, ``ssd.read``/``ssd.write`` and the
lock-based stall body the fault schedule ran, the kernel a one-permit
``Semaphore``, ``ssd.use`` and ``RateChannel.hold``.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.hardware import evaluation_server
from repro.sim import engine, resources

from .des_oracle import engine as oracle_engine, resources as oracle_resources


def _kernel_ssd(machine, service, label, efficiency, write):
    ssd = machine.ssd
    base = ssd.base_write_rate if write else ssd.base_rate
    return ssd.use(service * (base * ssd.degrade_factor), label, efficiency, write=write)


def _oracle_ssd(machine, service, label, efficiency, write):
    ssd = machine.ssd
    if write:
        return ssd.write(service * ssd.write_bw, label, efficiency)
    return ssd.read(service * ssd.read_bw, label, efficiency)


def _kernel_stall(machine, channel, name, duration):
    start = yield from channel.hold(duration)
    machine.trace.record(name, "fault_stall", start, machine.sim.now, 0.0)


def _oracle_stall(machine, channel, name, duration):
    # The fault schedule's latency stall as it held a channel's lock.
    lock = channel.lock
    grant = lock.request()
    yield grant
    start = machine.sim.now
    yield machine.sim.timeout(duration)
    machine.trace.record(name, "fault_stall", start, machine.sim.now, 0.0)
    lock.release()


def _oracle_mutex(sim):
    mutex = oracle_resources.ExclusiveResource(sim, "mutex")
    return SimpleNamespace(acquire=mutex.request, release=mutex.release)


KERNEL = SimpleNamespace(
    engine=engine,
    resources=resources,
    mutex=lambda sim: resources.Semaphore(sim, 1),
    ssd=_kernel_ssd,
    stall=_kernel_stall,
)
ORACLE = SimpleNamespace(
    engine=oracle_engine,
    resources=oracle_resources,
    mutex=_oracle_mutex,
    ssd=_oracle_ssd,
    stall=_oracle_stall,
)

CHANNELS = ("gpu0", "pcie_m2g0", "pcie_g2m0", "cpu_adam", "ssd_read", "ssd_write")
#: Six drives: the array reads at the 32 GB/s platform cap but writes at
#: 21 GB/s, so a write priced at the read rate shows.
SERVER = evaluation_server().with_ssds(6)

#: A request's size, in seconds at the channel's rate when it is issued.
SERVICE = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))
DELAY = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.0, 2.0))
#: Efficiencies and derate factors that are not powers of two, so a
#: reassociated rate product would change the durations' low bits.
EFFICIENCY = st.sampled_from([1.0, 0.8, 0.35])
FACTOR = st.sampled_from([0.3, 0.5, 0.7, 1.5, 4.0])
N_SIGNALS = 2
N_PROCESSES = 5

LEAF = st.one_of(
    st.tuples(st.just("use"), st.integers(0, len(CHANNELS) - 1), SERVICE, EFFICIENCY),
    st.tuples(st.just("hop"), DELAY),
)
STEP = st.one_of(
    LEAF,
    st.tuples(st.just("all"), st.lists(st.lists(LEAF, max_size=3), max_size=3)),
    st.tuples(st.just("sem"), st.integers(0, 1), DELAY),
    st.tuples(st.just("lock"), DELAY),
    st.tuples(st.just("stall"), st.integers(0, len(CHANNELS) - 2), DELAY),
    st.tuples(st.just("derate"), st.integers(0, len(CHANNELS) - 2), FACTOR),
    st.tuples(st.just("signal"), st.integers(0, N_SIGNALS - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_SIGNALS - 1)),
    st.tuples(st.just("join"), st.integers(0, N_PROCESSES - 1)),
)
PROGRAM = st.lists(
    st.tuples(DELAY, st.lists(STEP, max_size=6)), min_size=1, max_size=N_PROCESSES
)


def run_program(kernel, program) -> tuple[list, list, str]:
    """Run ``program`` on ``kernel``: (dispatches, intervals, end time).

    Every dispatch is logged as ``(time, kind, owner, arg)``, with owner
    and arg numbered by first appearance, so two kernels that run the
    same callbacks in the same order produce equal logs.
    """
    machine = kernel.resources.Machine(SERVER)
    sim = machine.sim
    semaphores = [kernel.resources.Semaphore(sim, permits) for permits in (1, 2)]
    mutex = kernel.mutex(sim)
    signals = [sim.event() for _ in range(N_SIGNALS)]
    processes: list = []
    lanes = {
        "gpu0": machine.gpus[0],
        "pcie_m2g0": machine.pcie_m2g[0],
        "pcie_g2m0": machine.pcie_g2m[0],
        "cpu_adam": machine.cpu_adam,
    }
    log: list[tuple] = []
    numbers: dict[object, int] = {}

    def number(obj) -> int | None:
        if not isinstance(obj, kernel.engine.Event):
            return None
        return numbers.setdefault(obj, len(numbers))

    def hook(callback, arg):
        owner = number(getattr(callback, "__self__", None))
        log.append((sim.now.hex(), kernel.engine.event_kind(callback), owner, number(arg)))
        callback(arg)

    def lane(index):
        name = CHANNELS[index]
        return ("ssd", machine.ssd) if name.startswith("ssd") else (name, lanes[name])

    def leaf(step):
        if step[0] == "hop":
            yield sim.timeout(step[1])
            return
        _kind, index, service, efficiency = step
        name = CHANNELS[index]
        if name.startswith("ssd"):
            yield from kernel.ssd(machine, service, name, efficiency, name == "ssd_write")
        else:
            channel = lanes[name]
            yield from channel.use(service * channel.rate, name, efficiency)

    def spawn(leaves):
        def child():
            for step in leaves:
                yield from leaf(step)

        return sim.process(child())

    def process(start, steps):
        yield sim.timeout(start)
        for step in steps:
            kind = step[0]
            if kind in ("use", "hop"):
                yield from leaf(step)
            elif kind == "all":
                yield sim.all_of([spawn(leaves) for leaves in step[1]])
            elif kind == "sem":
                yield semaphores[step[1]].acquire()
                yield sim.timeout(step[2])
                semaphores[step[1]].release()
            elif kind == "lock":
                yield mutex.acquire()
                yield sim.timeout(step[1])
                mutex.release()
            elif kind == "stall":
                name, channel = lane(step[1])
                yield from kernel.stall(machine, channel, name, step[2])
            elif kind == "derate":
                lane(step[1])[1].derate(step[2])
            elif kind == "signal":
                if not signals[step[1]].triggered:
                    signals[step[1]].succeed(step[1])
            elif kind == "wait":
                yield signals[step[1]]
            elif step[1] < len(processes):  # join: wait for another process to end
                yield processes[step[1]]

    previous = kernel.engine.set_event_hook(hook)
    try:
        for start, steps in program:
            processes.append(sim.process(process(start, steps)))
        end = sim.run()
    finally:
        kernel.engine.set_event_hook(previous)
    intervals = [
        (i.resource, i.label, i.start.hex(), i.end.hex(), float(i.amount).hex())
        for i in machine.trace.intervals
    ]
    return log, intervals, end.hex()


@settings(max_examples=150, deadline=None)
@given(program=PROGRAM)
def test_kernel_dispatches_like_the_oracle(program):
    want = run_program(ORACLE, program)
    got = run_program(KERNEL, program)
    assert got[0] == want[0], "dispatch sequence differs"
    assert got[1] == want[1], "recorded intervals differ"
    assert got[2] == want[2], "end time differs"


def test_oracle_sees_a_rich_graph():
    """The property's graphs do exercise every kernel path."""
    program = [
        (0.0, [("use", 0, 0.0, 1.0), ("all", [[("hop", 0.0)], [("use", 4, 1.0, 0.8)]]), ("signal", 0)]),
        (0.5, [("use", 1, 2.0, 0.35), ("stall", 4, 0.25), ("sem", 0, 0.5), ("wait", 0)]),
        (0.0, [("derate", 1, 0.7), ("lock", 1.0), ("use", 5, 1.5, 1.0), ("sem", 0, 0.0)]),
        (0.0, [("wait", 0), ("join", 0), ("use", 1, 0.5, 0.8)]),
        (0.25, [("join", 0), ("wait", 0), ("hop", 0.0)]),
    ]
    log, intervals, end = run_program(KERNEL, program)
    kinds = {kind for _time, kind, _owner, _arg in log}
    assert kinds == {"Process", "Timeout", "AllOf"}
    assert {interval[0] for interval in intervals} == {"gpu0", "pcie_m2g0", "ssd"}
    assert "fault_stall" in {interval[1] for interval in intervals}
    assert (log, intervals, end) == run_program(ORACLE, program)
