"""The append path of :class:`repro.util.jsonl.JsonlFile`."""

from __future__ import annotations

import json

import pytest

from repro.util.jsonl import JsonlFile

RECORDS = [
    {"rec": "checkpoint", "t": 3.0, "job_id": "job-000", "node": "box-4090", "iterations": 3},
    {"b": [1, 2.5, None, True, "tab\tand é"], "a": {"z": -0.0, "y": 1e300, "x": 0.1}},
    {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"), "empty": {}},
    {},
]


@pytest.mark.parametrize("keep_open", [False, True])
def test_each_line_is_json_dumps_with_sorted_keys(tmp_path, keep_open):
    path = tmp_path / "log.jsonl"
    log = JsonlFile(str(path), keep_open=keep_open)
    for record in RECORDS:
        log.append(record)
    expected = "".join(json.dumps(record, sort_keys=True) + "\n" for record in RECORDS)
    assert path.read_bytes() == expected.encode("utf-8")  # each append reached the file
    log.close()
    assert path.read_bytes() == expected.encode("utf-8")

