"""The scoped self-profiler (:mod:`repro.obs.profile`).

Attribution on a real cold sweep, the two flamegraph exports (speedscope
JSON and collapsed stacks), the event-loop hot-spot counters, and the
scope's safety contract: no nesting, hook restored whatever happens.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import RatelPolicy
from repro.hardware import evaluation_server
from repro.models import llm
from repro.obs.profile import EventLoopStats, ProfileError, profile
from repro.runner import Sweep
from repro.sim import engine


@pytest.fixture(scope="module")
def cold_sweep_report():
    """Profile one genuinely cold 13B/b32 evaluation (plan + full sim)."""
    with profile() as report:
        outcome = Sweep().evaluate(
            RatelPolicy(), llm("13B"), 32, evaluation_server(), detail=True
        )
    assert outcome.feasible
    return report


class TestAttribution:
    def test_attributes_most_of_wall_time(self, cold_sweep_report):
        # The acceptance bar: >= 90% of the cold sweep's wall time lands
        # on named functions (cProfile covers everything but the tiny
        # slices between enable and the first call event).
        assert cold_sweep_report.attributed_fraction() >= 0.90

    def test_event_loop_in_top_frames(self, cold_sweep_report):
        labels = [stat.label for stat in cold_sweep_report.top(15)]
        assert any("sim.engine:run" in label for label in labels), labels

    def test_top_sorted_by_own_time(self, cold_sweep_report):
        top = cold_sweep_report.top(10)
        assert all(a.own_s >= b.own_s for a, b in zip(top, top[1:]))

    def test_render_mentions_the_headline(self, cold_sweep_report):
        text = cold_sweep_report.render()
        assert "attributed" in text
        assert "sim event loop" in text


class TestEventCounters:
    def test_counts_real_event_types(self, cold_sweep_report):
        stats = cold_sweep_report.event_stats
        assert stats.total_events > 0
        # The engine's three workhorse event types all fire in a full
        # simulation; their busy time is the loop's hot-spot ranking.
        assert "Process" in stats.counts
        assert "Timeout" in stats.counts
        top = stats.top(3)
        assert len(top) == 3
        assert all(a[2] >= b[2] for a, b in zip(top, top[1:]))

    def test_events_false_skips_the_hook(self):
        with profile(events=False) as report:
            Sweep().evaluate(RatelPolicy(), llm("6B"), 8, evaluation_server())
        assert report.event_stats.total_events == 0
        assert report.wall_s > 0

    def test_dispatch_counts_and_times(self):
        stats = EventLoopStats()

        class Fake:
            def fire(self, arg):
                pass

        stats.dispatch(Fake().fire, None)
        stats.dispatch(Fake().fire, None)
        assert stats.counts == {"Fake": 2}
        assert stats.busy_s["Fake"] >= 0


class TestExports:
    def test_speedscope_document_shape(self, cold_sweep_report):
        doc = cold_sweep_report.to_speedscope("test")
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        prof = doc["profiles"][0]
        assert prof["type"] == "sampled"
        assert len(prof["samples"]) == len(prof["weights"])
        n_frames = len(doc["shared"]["frames"])
        assert all(0 <= i < n_frames for stack in prof["samples"] for i in stack)
        assert prof["endValue"] == pytest.approx(sum(prof["weights"]))

    def test_speedscope_writes_loadable_json(self, cold_sweep_report, tmp_path):
        path = str(tmp_path / "p.speedscope.json")
        cold_sweep_report.write_speedscope(path)
        doc = json.loads(Path(path).read_text())
        assert doc["profiles"][0]["samples"]

    def test_collapsed_stacks_fold(self, cold_sweep_report, tmp_path):
        path = str(tmp_path / "p.folded.txt")
        cold_sweep_report.write_collapsed(path)
        lines = Path(path).read_text().splitlines()
        assert lines
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames and int(weight) >= 1

    def test_stacks_are_rooted_chains(self, cold_sweep_report):
        # Every stack ends at its own function (leaf) and the leaf label
        # matches a known function.
        labels = {stat.label for stat in cold_sweep_report.functions}
        for frames, weight in cold_sweep_report.stacks[:50]:
            assert frames[-1] in labels
            assert weight > 0


class TestScopeSafety:
    def test_nested_scope_raises(self):
        with profile(events=False):
            with pytest.raises(ProfileError):
                with profile(events=False):
                    pass

    def test_nested_failure_does_not_wedge_the_guard(self):
        # After the nested attempt above, a fresh scope must still work.
        with profile(events=False) as report:
            sum(range(100))
        assert report.wall_s >= 0

    def test_event_hook_restored_after_scope(self):
        sentinel_calls = []

        def sentinel(callback, arg):
            sentinel_calls.append(callback)
            callback(arg)

        previous = engine.set_event_hook(sentinel)
        try:
            with profile():
                pass
            assert engine._event_hook is sentinel
        finally:
            engine.set_event_hook(previous)

    def test_event_hook_restored_on_error(self):
        assert engine._event_hook is None
        with pytest.raises(RuntimeError):
            with profile():
                raise RuntimeError("boom")
        assert engine._event_hook is None
