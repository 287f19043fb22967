"""Shared helpers for the benchmark harness.

Each ``bench_fig*.py`` regenerates one of the paper's tables/figures via
``pytest-benchmark`` (timing the whole experiment) and emits the rendered
rows both to stdout (run with ``-s`` to see them) and to
``benchmarks/results/<experiment>.txt`` for EXPERIMENTS.md.

Every bench module additionally gets a machine-readable
``benchmarks/results/BENCH_<name>.json``: an autouse fixture wall-clocks
each test and the session-finish hook merges the ``_s`` timings through
:func:`write_bench_json` — the single writer all explicit payloads
(``bench_runner``/``bench_obs``/``bench_faults``) also route through, so
``diff_bench.py`` has one uniform corpus to gate on.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import runner
from repro.analysis.report import ExperimentResult

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Wall-clock per test, ``{module name: {test name: seconds}}``, flushed
#: to ``BENCH_<module>.json`` at session finish.
_WALL_TIMES: dict[str, dict[str, float]] = {}


def _merge(existing: dict, payload: dict) -> dict:
    """``existing`` with every key ``payload`` names replaced whole.

    The ``tests`` wall-time map is the exception: it merges test by
    test, because each test adds its own entry.
    """
    merged = dict(existing)
    for key, value in payload.items():
        if key == "tests" and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return merged


def write_bench_json(name: str, payload: dict) -> str:
    """Merge ``payload`` into ``benchmarks/results/BENCH_<name>.json``.

    A key the payload names is replaced, nested sections included, so a
    number the bench no longer measures cannot survive inside a section
    it rewrites.  Keys the payload does not mention survive (so a ``-m
    bench_smoke`` subset run does not erase the full run's numbers, the
    wall-time hook does not erase a module's explicit payload, and
    hand-kept ``before`` blocks stay).  Returns the path written.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    existing: dict = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                existing = loaded
        except (json.JSONDecodeError, OSError):
            pass
    with open(path, "w") as handle:
        json.dump(_merge(existing, payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture(autouse=True)
def _bench_wall_time(request):
    """Record each bench test's wall time for ``BENCH_<module>.json``."""
    started = time.perf_counter()
    yield
    module = request.node.module.__name__
    if not module.startswith("bench_"):
        return
    name = module[len("bench_"):]
    test = request.node.name.replace("[", "_").replace("]", "")
    _WALL_TIMES.setdefault(name, {})[f"{test}_s"] = time.perf_counter() - started


def pytest_sessionfinish(session):
    for name, timings in _WALL_TIMES.items():
        write_bench_json(name, {"tests": timings})


@pytest.fixture(autouse=True)
def fresh_runner():
    """Drop the shared sweep around each benchmark.

    The experiment harnesses memoize through :func:`repro.runner.default_sweep`;
    a warm cache from a previous benchmark would turn a timing run into a
    cache-lookup run.
    """
    runner.reset()
    yield
    runner.reset()


@pytest.fixture
def emit():
    """Print an ExperimentResult (or a list of them) and persist it."""

    def _emit(outcome) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        results = [outcome] if isinstance(outcome, ExperimentResult) else list(outcome)
        for result in results:
            text = result.render()
            print("\n" + text)
            path = os.path.join(RESULTS_DIR, f"{result.experiment}.txt")
            with open(path, "w") as handle:
                handle.write(text + "\n")

    return _emit


def run_once(benchmark, fn):
    """Benchmark an experiment with a single timed round.

    The experiments are deterministic simulations; one round measures the
    full regeneration cost without repeating multi-second sweeps.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
