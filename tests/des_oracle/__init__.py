"""The discrete-event kernel before its event-loop rewrite, kept as an oracle.

``engine.py``, ``resources.py`` and ``trace.py`` are verbatim copies of
``repro.sim``'s modules as they stood before the dispatch path was
tightened.  ``tests/test_sim_oracle.py`` runs random process graphs on
this copy and on ``repro.sim`` and requires the same dispatch sequence,
the same intervals and the same end time.  Nothing outside the tests
imports it.
"""
