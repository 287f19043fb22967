"""Algorithm 1 before it became one array pass, kept as an oracle.

``profile.py``, ``iteration_model.py`` and ``activation_swap.py`` are
verbatim copies of ``repro.models.profile``, ``repro.core.iteration_model``
and ``repro.core.activation_swap`` as they stood when the planner still
called ``iteration_time`` once per segment, over a stable sort of every
block's segments.  Only their imports differ: the copies import each other
and take the unchanged modules (configs, footprints, layers, the hardware
profile) from ``repro``.  ``tests/test_plan_oracle.py`` plans generated
models on this copy and on ``repro`` and requires the same plans, bit for
bit.  Nothing outside the tests imports it.
"""
