"""The kernel against its oracle: same dispatches, same intervals.

``tests/des_oracle`` is a verbatim copy of the discrete-event kernel
before its dispatch path was tightened.  Hypothesis builds random
process graphs — channels moving random amounts (zero included) at
random efficiencies, SSD reads and writes on the array's one lane,
zero-delay hops, ``AllOf`` fan-outs, semaphores, a mutex, latency
stalls on every lane, signals and processes with several waiters, and
mid-run ``derate`` calls — and runs each on the oracle and on
:mod:`repro.sim`.  Both must record the same intervals and end at the
same time, bit for bit, and dispatch the same callbacks in the same
``(time, seq)`` order, apart from the ones the kernel runs in place.

The oracle serves a transfer in three dispatches: the lane grant
resumes the requester, which prices the request and waits on a
``Timeout``; the timeout fires; the requester resumes, records the
interval and releases the lane.  The kernel's channel does the same in
its own three steps (``start``, ``complete``, ``finish``), so both logs
name a transfer's dispatches by step, channel and requesting process.
The kernel runs a dispatch in place, skipping the heap and the event
hook, only when it would have been the next one popped.  In the
oracle's log such a dispatch is *marked*, not dropped, by the rule the
kernel follows:

* a process resume popped right after a resume of the same process:
  the process yielded an event that had already triggered, and nothing
  else was due;
* a transfer's ``finish`` popped right after its ``complete``.

The marked entries are left out of the comparison and every other entry
must match.

The two kernels name the mutex, the transfers and the stall
differently, so each step goes through the kernel's own API: the oracle
takes an ``ExclusiveResource``, the ``use`` sub-generator,
``ssd.read``/``ssd.write`` and the lock-based stall body the fault
schedule ran, the kernel a one-permit ``Semaphore`` and the events that
``use`` and ``RateChannel.hold`` return.
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
    yield ssd.use(service * (base * ssd.degrade_factor), label, efficiency, write=write)


def _oracle_ssd(machine, service, label, efficiency, write):
    ssd = machine.ssd
    if write:
        return ssd.write(service * ssd.write_bw, label, efficiency)
    return ssd.read(service * ssd.read_bw, label, efficiency)


def _kernel_stall(machine, channel, name, duration):
    start = yield channel.hold(duration)
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


def _kernel_use(channel, amount, label, efficiency):
    yield channel.use(amount, label, efficiency)


def _oracle_use(channel, amount, label, efficiency):
    return channel.use(amount, label, efficiency)


KERNEL = SimpleNamespace(
    engine=engine,
    resources=resources,
    mutex=lambda sim: resources.Semaphore(sim, 1),
    use=_kernel_use,
    ssd=_kernel_ssd,
    stall=_kernel_stall,
)
ORACLE = SimpleNamespace(
    engine=oracle_engine,
    resources=oracle_resources,
    mutex=_oracle_mutex,
    use=_oracle_use,
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

    Every dispatch is logged as ``(marked, (time, kind, owner, arg))``.
    A transfer's dispatches read ``(time, step, channel, requester)``;
    owners, args and requesters are numbered by first appearance among
    the unmarked entries, so two kernels that run the same callbacks in
    the same order produce equal logs once the marked entries are gone.
    Only the oracle marks entries.
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
    raw: list[tuple] = []
    hook = (_oracle_hook if kernel is ORACLE else _kernel_hook)(machine, raw)

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
            yield from kernel.use(channel, service * channel.rate, name, efficiency)

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
    return _numbered(kernel.engine.Event, raw), intervals, end.hex()


def _numbered(event_type, raw: list[tuple]) -> list[tuple]:
    """Number the Event objects of the unmarked entries by first appearance."""
    numbers: dict[object, int] = {}

    def number(obj) -> int | None:
        if not isinstance(obj, event_type):
            return None
        return numbers.setdefault(obj, len(numbers))

    log = []
    for marked, (time, tag, first, second) in raw:
        if marked:
            log.append((True, (time, tag)))
        elif tag in _STEPS:  # first is the channel's name, second the requester
            log.append((False, (time, tag, first, number(second))))
        else:  # first is the callback's owner, second its argument
            log.append((False, (time, tag, number(first), number(second))))
    return log


_STEPS = ("start", "complete", "finish")


def _kernel_hook(machine, raw: list):
    """Log each kernel dispatch; a channel step names its requester."""
    sim = machine.sim

    def hook(callback, arg):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, resources.RateChannel):
            (wake,) = arg._callbacks  # the one process waiting on the request
            entry = (callback.__name__.lstrip("_"), owner.name, wake.__self__)
        else:
            entry = (engine.event_kind(callback), owner, arg)
        raw.append((False, (sim.now.hex(), *entry)))
        callback(arg)

    return hook


def _oracle_hook(machine, raw: list):
    """Log each oracle dispatch, naming transfer steps and marking skips.

    A lane grant is tagged when a channel's lock hands it out, and the
    transfer's ``Timeout`` when the granted requester creates it before
    releasing the lane (a zero-amount transfer releases without one).
    """
    sim = machine.sim
    grants: dict[object, str] = {}
    timeouts: dict[object, tuple[str, object]] = {}
    granted: list = []  # the (channel, requester) whose grant is running
    previous: list = [None]

    channels = [machine.gpus[0], machine.pcie_m2g[0], machine.pcie_g2m[0], machine.cpu_adam]
    for channel in [*channels, machine.ssd]:
        lock = channel.lock

        def request(request=lock.request, name=channel.name):
            grant = request()
            grants[grant] = name
            return grant

        def release(release=lock.release):
            granted.clear()
            release()

        lock.request, lock.release = request, release

    def timeout(delay, make=sim.timeout):
        event = make(delay)
        if granted:
            timeouts[event] = granted.pop()
        return event

    sim.timeout = timeout

    def hook(callback, arg):
        owner = getattr(callback, "__self__", None)
        before = previous[0]
        previous[0] = callback
        if arg in grants:
            granted[:] = [(grants[arg], owner)]
            entry = ("start", grants[arg], owner)
        elif owner in timeouts:
            entry = ("complete", *timeouts[owner])
        elif arg in timeouts:
            entry = ("finish", *timeouts[arg])
        else:
            entry = (oracle_engine.event_kind(callback), owner, arg)
        # The kernel's skips, as the module docstring states them.
        resumes_again = isinstance(owner, oracle_engine.Process) and before == callback
        finishes_at_once = arg in timeouts and before == getattr(arg, "_fire", None)
        raw.append((resumes_again or finishes_at_once, (sim.now.hex(), *entry)))
        try:
            callback(arg)
        finally:
            granted.clear()

    return hook


def compare(program) -> None:
    """Kernel and oracle agree on ``program``: intervals, end, unmarked dispatches."""
    want = run_program(ORACLE, program)
    got = run_program(KERNEL, program)
    assert got[1] == want[1], "recorded intervals differ"
    assert got[2] == want[2], "end time differs"
    assert [entry for _, entry in got[0]] == [
        entry for marked, entry in want[0] if not marked
    ], "dispatch sequence differs"


@settings(max_examples=150, deadline=None)
@given(program=PROGRAM)
def test_kernel_dispatches_like_the_oracle(program):
    compare(program)


def test_oracle_sees_a_rich_graph():
    """The property's graphs do exercise every kernel path."""
    program = [
        (0.0, [("use", 0, 0.0, 1.0), ("all", [[("hop", 0.0)], [("use", 4, 1.0, 0.8)]]), ("signal", 0)]),
        (0.5, [("use", 1, 2.0, 0.35), ("stall", 4, 0.25), ("sem", 0, 0.5), ("wait", 0)]),
        (0.0, [("derate", 1, 0.7), ("lock", 1.0), ("use", 5, 1.5, 1.0), ("sem", 0, 0.0)]),
        (0.0, [("wait", 0), ("join", 0), ("use", 1, 0.5, 0.8)]),
        (0.25, [("join", 0), ("wait", 0), ("hop", 0.0)]),
        # Two transfers ending together: the first one's finish waits its turn.
        (0.0, [("use", 2, 1.0, 1.0)]),
        (0.0, [("use", 3, 1.0, 1.0)]),
    ]
    log, intervals, _end = run_program(KERNEL, program)
    assert {entry[1] for _, entry in log} == {
        "Process", "Timeout", "AllOf", "start", "complete", "finish"
    }
    assert {interval[0] for interval in intervals} == {
        "gpu0", "pcie_m2g0", "pcie_g2m0", "cpu_adam", "ssd"
    }
    assert "fault_stall" in {interval[1] for interval in intervals}
    oracle_log = run_program(ORACLE, program)[0]
    # Both rules skip: a grant or a triggered event resumes its process in
    # place, and a completion runs its requester in place.
    assert {entry[1] for marked, entry in oracle_log if marked} == {"Process", "start", "finish"}
    compare(program)


#: A process whose first steps are already due at ``now``: three empty
#: ``all`` steps (each yields an event that has triggered), then a
#: request for ``gpu0``.
RIVAL = (1.0, [("all", []), ("all", []), ("all", []), ("use", 0, 0.5, 1.0)])
#: A delay that rounds away at ``now == 1.0``: ``1.0 + TINY == 1.0``.
TINY = 1e-17

#: Programs that pin the same-time order, by name.  On the first two, a
#: kernel that always keeps a process running while its yielded event
#: has triggered (SimPy's rule) leaves the oracle's order: in the first
#: it records ``pcie_m2g0`` before ``gpu0``; in the second two requests
#: race for ``gpu0`` at time 0, and the one made after an empty ``all``
#: would take the lane first and end at 0 instead of 1.  On the other
#: four, a step due at ``now`` (a zero-delay timeout, a zero-amount
#: transfer, a timeout or a transfer whose ``now + d`` rounds to ``now``
#: for a tiny ``d > 0``) meets callbacks already due at ``now``, and the
#: process then races ``RIVAL`` for ``gpu0``.  In order, the process
#: wins; a kernel that schedules the step on its heap again, rather than
#: behind what is due, lets ``RIVAL`` run on in place and take ``gpu0``
#: first.
ORDER_TRAPS = {
    "continue_after_empty_all": [
        (0.0, [("all", []), ("use", 1, 0.0, 1.0)]),
        (0.0, [("use", 0, 0.0, 1.0)]),
    ],
    "continue_past_a_signal": [
        (0.0, [("wait", 0), ("use", 0, 1.0, 1.0)]),
        (0.0, [("signal", 0), ("all", []), ("use", 0, 0.0, 1.0)]),
    ],
    "zero_delay_timeout": [(1.0, [("hop", 0.0), ("use", 0, 1.0, 1.0)]), RIVAL],
    "zero_amount_transfer": [(1.0, [("use", 1, 0.0, 1.0), ("use", 0, 1.0, 1.0)]), RIVAL],
    "timeout_rounding_to_now": [(1.0, [("hop", TINY), ("use", 0, 1.0, 1.0)]), RIVAL],
    "transfer_rounding_to_now": [(1.0, [("use", 1, TINY, 1.0), ("use", 0, 1.0, 1.0)]), RIVAL],
}


def test_same_time_work_keeps_the_oracle_order():
    for trap, program in sorted(ORDER_TRAPS.items()):
        try:
            compare(program)
        except AssertionError as error:
            raise AssertionError(f"{trap}: {error}") from error
