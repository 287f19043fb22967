"""The repository's benchmark: four seeded workloads timed in host-normalised time.

Run one workload with ``python3 perfbench/run.py`` (see its docstring),
the run-to-run spread with ``python3 perfbench/spread.py``, and the
self-tests with ``python3 -m pytest perfbench/tests -q``.
"""
