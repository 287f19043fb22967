"""The answer-degradation ladder (repro.serve.ladder).

The contract the hypothesis property pins: within one overload episode
the fidelity floor never moves back up — every answer in an episode is
served at or below (in fidelity) the episode's running floor, and only
a reset (episode end) restores exact answers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import RUNGS, DegradationLadder, rung_index, rung_name
from repro.serve.ladder import HISTORY_LEN


class TestRungNames:
    def test_round_trip(self):
        for index, name in enumerate(RUNGS):
            assert rung_index(name) == index
            assert rung_name(index) == name

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="unknown rung"):
            rung_index("vibes")
        with pytest.raises(ValueError, match="out of range"):
            rung_name(len(RUNGS))


class TestLadderBasics:
    def test_resolve_clamps_to_the_floor(self):
        ladder = DegradationLadder()
        assert ladder.resolve(rung_index("exact")) == rung_index("exact")
        ladder.escalate(rung_index("analytic"))
        assert ladder.resolve(rung_index("exact")) == rung_index("analytic")
        assert ladder.resolve(rung_index("unavailable")) == rung_index("unavailable")

    def test_escalate_never_lowers(self):
        ladder = DegradationLadder()
        ladder.escalate(rung_index("analytic"))
        assert ladder.escalate(rung_index("neighbor")) == rung_index("analytic")
        assert ladder.floor == rung_index("analytic")

    def test_reset_ends_the_episode(self):
        ladder = DegradationLadder()
        assert not ladder.reset()  # nothing to clear
        ladder.escalate(rung_index("neighbor"))
        assert ladder.degraded
        assert ladder.reset()
        assert ladder.floor == rung_index("exact")
        assert ladder.episode == 1

    def test_out_of_range_escalation_rejected(self):
        with pytest.raises(ValueError):
            DegradationLadder().escalate(len(RUNGS))

    def test_history_keeps_only_the_newest_answers(self):
        ladder = DegradationLadder()
        for _ in range(HISTORY_LEN):
            ladder.resolve(rung_index("exact"))
        ladder.escalate(rung_index("analytic"))
        for _ in range(HISTORY_LEN):
            ladder.resolve(rung_index("exact"))
        analytic = rung_index("analytic")
        assert len(ladder.history) == HISTORY_LEN
        assert set(ladder.history) == {(0, analytic, analytic)}


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("resolve"), st.integers(0, len(RUNGS) - 1)),
        st.tuples(st.just("escalate"), st.integers(0, len(RUNGS) - 1)),
        st.tuples(st.just("reset"), st.just(0)),
    ),
    max_size=60,
)


class TestLadderMonotonicity:
    @given(ops=OPS)
    @settings(max_examples=300, deadline=None)
    def test_floor_is_monotone_within_an_episode(self, ops):
        ladder = DegradationLadder()
        for op, rung in ops:
            if op == "resolve":
                ladder.resolve(rung)
            elif op == "escalate":
                ladder.escalate(rung)
            else:
                ladder.reset()
        last_floor: dict[int, int] = {}
        for episode, served, floor in ladder.history:
            # Served fidelity is never better than the episode floor.
            assert served >= floor
            # The floor never decreases while the episode lasts.
            if episode in last_floor:
                assert floor >= last_floor[episode]
            last_floor[episode] = floor
        # Episodes are entered in order, each starting back at exact.
        episodes = [episode for episode, _, _ in ladder.history]
        assert episodes == sorted(episodes)
        first_floor: dict[int, int] = {}
        for episode, _, floor in ladder.history:
            first_floor.setdefault(episode, floor)
