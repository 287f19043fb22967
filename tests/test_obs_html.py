"""Tests for the self-contained HTML run report (:mod:`repro.obs.html`)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.report import ExperimentResult
from repro.core import RatelPolicy
from repro.hardware import EVALUATION_SERVER
from repro.models import llm
from repro.obs.html import (
    lane_class,
    render_run_report,
    timeline_svg,
    write_run_report,
)
from repro.obs.ledger import entry_from_outcome
from repro.runner import Sweep


@pytest.fixture(scope="module")
def outcome():
    return Sweep().evaluate(
        RatelPolicy(), llm("13B"), 8, EVALUATION_SERVER, detail=True
    )


@pytest.fixture(scope="module")
def html(outcome):
    entries = [entry_from_outcome(outcome, server=EVALUATION_SERVER)]
    table = ExperimentResult(
        experiment="sweep", title="demo grid", columns=["model", "tokens/s"]
    )
    table.add_row("13B", 594.0)
    return render_run_report(
        title="Ratel / 13B batch 8",
        subtitle="RTX 4090",
        outcome=outcome,
        entries=entries,
        tables=[table],
    )


class TestSelfContained:
    def test_no_network_or_cdn_references(self, html):
        # The only absolute URL allowed is the SVG xmlns identifier.
        urls = set(re.findall(r"https?://[^\"' <>]+", html))
        assert urls <= {"http://www.w3.org/2000/svg"}

    def test_no_javascript(self, html):
        assert "<script" not in html.lower()

    def test_single_complete_document(self, html):
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")

    def test_dark_mode_styles_included(self, html):
        assert "prefers-color-scheme: dark" in html


class TestReportContent:
    def test_title_and_subtitle(self, html):
        assert "Ratel / 13B batch 8" in html
        assert "RTX 4090" in html

    def test_timeline_svg_with_lanes_and_stages(self, html):
        assert "<svg" in html
        for lane in ("gpu0", "ssd", "cpu_adam"):
            assert lane in html
        assert "forward" in html and "backward" in html

    def test_utilization_bars(self, html):
        assert "bar-fill" in html
        assert "busy" in html

    def test_planned_vs_actual_table(self, html):
        assert "Planned vs actual" in html
        assert "drift" in html

    def test_ledger_history_section(self, html):
        assert "Run ledger" in html
        assert "evaluate:Ratel/13B/b8@" in html

    def test_grid_tables_embedded(self, html):
        assert "demo grid" in html

    def test_headline_stat_tiles(self, html):
        assert "iteration time" in html
        assert "tokens per s" in html


class TestTimelineSvg:
    def test_intervals_carry_tooltips(self, outcome):
        result = outcome.require_result()
        svg = timeline_svg(result.trace, result.stage_windows)
        assert "<title>" in svg
        assert svg.count("<rect") > 50

    def test_empty_trace_degrades(self):
        from repro.sim import Trace

        rendered = timeline_svg(Trace(), {})
        assert "empty trace" in rendered  # graceful note, no crash


class TestLaneClass:
    @pytest.mark.parametrize(
        ("lane", "cls"),
        [
            ("gpu0", "c1"),
            ("pcie_m2g0", "c2"),
            ("pcie_g2m1", "c3"),
            ("ssd", "c4"),
            ("cpu_adam", "c5"),
            ("rt_step", "c7"),
            ("mystery", "c6"),
        ],
    )
    def test_stable_palette_assignment(self, lane, cls):
        assert lane_class(lane) == cls


class TestWriteRunReport:
    def test_writes_file(self, tmp_path, outcome):
        path = str(tmp_path / "report.html")
        write_run_report(path, title="t", outcome=outcome)
        text = Path(path).read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text

    def test_report_without_outcome(self, tmp_path):
        # A ledger-only report (no fresh simulation) still renders.
        html = render_run_report(title="history only")
        assert "history only" in html
        assert "<script" not in html
