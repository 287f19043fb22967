"""``python -m repro report`` end to end: every claim holds, the file is current.

EXPERIMENTS.md pairs each paper number or shape with the measured one
and a verdict.  This builds the report once, on a fresh in-memory sweep,
fails on any claim marked ``[DEVIATES]`` (naming its section and text),
and requires the committed file to match the regenerated one byte for
byte, so a change that moves a reported number must also regenerate it.
"""

from __future__ import annotations

import difflib
from pathlib import Path

from repro.experiments.report_writer import write_report
from repro.runner import sweep
from repro.runner.sweep import Sweep

COMMITTED = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def _deviations(text: str) -> list[str]:
    """``section: paper / measured`` for every claim that does not hold."""
    found = []
    section = ""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if line.startswith("## "):
            section = line[3:]
        elif line.endswith("[DEVIATES]"):
            found.append(f"{section}: {lines[index - 1].strip()} / {line.strip()}")
    return found


def test_report_claims_hold_and_match_the_committed_file(tmp_path, monkeypatch):
    monkeypatch.setattr(sweep, "_default_sweep", Sweep())
    output = tmp_path / "EXPERIMENTS.md"
    text = write_report(str(output))

    deviations = _deviations(text)
    assert not deviations, "claims that do not hold:\n" + "\n".join(deviations)

    built, committed = output.read_bytes(), COMMITTED.read_bytes()
    if built != committed:
        diff = difflib.unified_diff(
            committed.decode().splitlines(),
            built.decode().splitlines(),
            "EXPERIMENTS.md (committed)",
            "EXPERIMENTS.md (regenerated)",
            lineterm="",
            n=1,
        )
        raise AssertionError(
            "EXPERIMENTS.md is stale; regenerate it with `python -m repro report`:\n"
            + "\n".join(list(diff)[:40])
        )
