"""The circuit breaker's state machine (repro.serve.breaker).

The hypothesis properties pin the two contracts the service leans on:
the breaker **never serves while open** (before the cooldown elapses),
and it **always recovers** — from any reachable state, a cooled-down
breaker plus enough successful probes is closed again.  The clock is
injected, so simulated time drives every schedule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_breaker(clock, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("cooldown_s", 10.0)
    return CircuitBreaker(clock=clock, **kwargs)


class TestBreakerBasics:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_cooldown_admits_a_probe_then_success_closes(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.cooldown_remaining() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()
        # One probe in flight: concurrent callers are refused.
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure("probe crashed")
        assert breaker.state == "open"
        assert breaker.cooldown_remaining() == pytest.approx(10.0)

    def test_transitions_are_recorded_in_order(self):
        clock = FakeClock()
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, clock=clock,
            on_transition=seen.append,
        )
        breaker.record_failure("boom")
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        states = [t.to_state for t in breaker.transitions]
        assert states == ["open", "half_open", "closed"]
        assert seen == breaker.transitions
        assert "boom" in breaker.transitions[0].reason

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_s": -1.0},
            {"success_threshold": 0},
        ],
    )
    def test_malformed_breakers_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


OPS = st.lists(
    st.one_of(
        st.just("fail"),
        st.just("ok"),
        st.floats(min_value=0.0, max_value=30.0),  # clock advance
    ),
    max_size=40,
)


def drive(breaker, clock, ops):
    """Apply a random op sequence, pairing every admit with a record."""
    for op in ops:
        if isinstance(op, float):
            clock.advance(op)
        elif breaker.allow():
            if op == "fail":
                breaker.record_failure()
            else:
                breaker.record_success()


class TestBreakerProperties:
    @given(ops=OPS, threshold=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_never_serves_while_open(self, ops, threshold):
        clock = FakeClock()
        breaker = make_breaker(clock, failure_threshold=threshold)
        drive(breaker, clock, ops)
        # Whatever state the ops reached: while the cooldown is still
        # running the breaker must refuse every caller.
        if breaker.state == "open":
            assert breaker.cooldown_remaining() > 0
            assert not breaker.allow()
            clock.advance(breaker.cooldown_remaining() * 0.5)
            if breaker.state == "open":
                assert not breaker.allow()

    @given(
        ops=OPS,
        threshold=st.integers(min_value=1, max_value=4),
        successes=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_recovers_after_cooldown_and_probes(
        self, ops, threshold, successes
    ):
        clock = FakeClock()
        breaker = make_breaker(
            clock, failure_threshold=threshold, success_threshold=successes
        )
        drive(breaker, clock, ops)
        clock.advance(breaker.cooldown_s + 1.0)
        for _ in range(successes):
            if breaker.state == "closed":
                break
            assert breaker.allow(), "cooled-down breaker refused its probe"
            breaker.record_success()
        assert breaker.state == "closed"

    @given(ops=OPS)
    @settings(max_examples=200, deadline=None)
    def test_transition_log_alternates_legally(self, ops):
        clock = FakeClock()
        breaker = make_breaker(clock)
        drive(breaker, clock, ops)
        breaker.state  # force a final tick
        legal = {
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "open"),
            ("half_open", "closed"),
        }
        previous = "closed"
        for transition in breaker.transitions:
            assert transition.from_state == previous
            assert (transition.from_state, transition.to_state) in legal
            previous = transition.to_state
