"""The traced run: spans around each layer's public entry points.

Every wrapper is installed from this file, at the name the caller looks
up (``repro.core.ratel.plan_activation_swapping`` is the name Ratel's
planner calls, ``repro.core.policy.run_iteration`` the one
``OffloadPolicy.simulate`` calls), and removed again when the run ends.
DES events are counted through the public ``repro.sim.set_event_hook``.
A target that no longer exists marks its layer ``missing`` instead of
failing the run.

Spans (name, start, end, parent span, op index) stay in memory and are
written out when the run ends.  A layer's self time is its span time
minus the part its child spans cover; every span is scaled by its op's
normalisation factor, so per-layer times are normalised like the ops.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from .layers import METRICS


def _a_g2m(tracer: "Tracer", args: tuple, plan: Any, state: Any) -> None:
    tracer.counters["planner.a_g2m"] += plan.a_g2m


def _simulated(tracer: "Tracer", args: tuple, result: Any, state: Any) -> None:
    tracer.counters["sim.simulated_s"] += result.iteration_time


def _stats_before(args: tuple) -> tuple[int, int]:
    stats = args[0].stats
    return stats.hits, stats.misses


def _stats_after(tracer: "Tracer", args: tuple, result: Any, state: tuple[int, int]) -> None:
    stats = args[0].stats
    tracer.counters["runner.hits"] += stats.hits - state[0]
    tracer.counters["runner.misses"] += stats.misses - state[1]


def _size_before(args: tuple) -> int:
    path = args[0].path
    return os.path.getsize(path) if os.path.exists(path) else 0


def _size_after(tracer: "Tracer", args: tuple, result: Any, state: int) -> None:
    tracer.counters["jsonl.bytes"] += os.path.getsize(args[0].path) - state


def _repaired(tracer: "Tracer", args: tuple, removed: int, state: Any) -> None:
    tracer.counters["jsonl.repaired_bytes"] += removed


#: (span name, module, qualified attribute, before hook, after hook).  A span
#: named ``layer.entry`` belongs to ``layer`` (``fleet.oracle.outcome`` to
#: ``fleet.oracle``, whose self time is kept apart from the fleet's own).
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("models.recompute_flops_for", "repro.models.profile", "ModelProfile.recompute_flops_for", None, None),
    ("models.segments_by_benefit", "repro.models.profile", "ModelProfile.segments_by_benefit", None, None),
    ("planner.plan", "repro.core.ratel", "plan_activation_swapping", None, _a_g2m),
    ("planner.iteration_time", "repro.core.iteration_model", "IterationTimeModel.iteration_time", None, None),
    ("capacity.max_trainable", "repro.runner.sweep", "max_trainable_params", None, None),
    ("capacity.max_batch", "repro.runner.sweep", "max_batch_size", None, None),
    ("capacity.feasible", "repro.core.policy", "OffloadPolicy.feasible", None, None),
    ("sim.run_iteration", "repro.core.policy", "run_iteration", None, _simulated),
    ("sim.run_iteration", "repro.baselines.megatron", "run_iteration", None, _simulated),
    ("attribution.collect_metrics", "repro.core.policy", "collect_metrics", None, None),
    ("runner.run_point", "repro.runner.sweep", "Sweep.run_point", _stats_before, _stats_after),
    ("runner.key", "repro.runner.sweep", "SweepPoint.key", None, None),
    ("fleet.submit", "repro.fleet.cluster", "Fleet.submit", None, None),
    ("fleet.run_until", "repro.fleet.cluster", "Fleet.run_until", None, None),
    ("fleet.drain", "repro.fleet.cluster", "Fleet.drain", None, None),
    ("fleet.recover", "repro.fleet.cluster", "Fleet.recover", None, None),
    ("fleet.oracle.outcome", "repro.fleet.oracle", "CostOracle.outcome", None, None),
    ("fleet.oracle.needs", "repro.fleet.oracle", "CostOracle.needs", None, None),
    ("jsonl.append", "repro.util.jsonl", "JsonlFile.append", _size_before, _size_after),
    ("jsonl.repair", "repro.fleet.journal", "FleetJournal.repair", None, _repaired),
    ("jsonl.fold", "repro.fleet.journal", "FleetJournal.fold", None, None),
    ("runtime.train_step", "repro.runtime.offload", "RatelRuntime.train_step", None, None),
    ("runtime.block_forward", "repro.runtime.modules", "TransformerBlock.forward", None, None),
    ("runtime.storage_move", "repro.runtime.storage", "StorageManager.move", None, None),
    ("runtime.adam_step", "repro.runtime.optim", "CPUAdam.step_param", None, None),
)

#: Metric-table layer of each tracer layer (the oracle is part of ``fleet``).
_REPORTED_LAYER = {"fleet.oracle": "fleet"}


class Tracer:
    """In-memory spans and counters, recorded only while an op runs."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self._stack: list[int] = []
        self.op: int | None = None
        self.scales: dict[int, float] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.events = 0
        self.missing: set[str] = set()
        self._installed: list[tuple[Any, str, Any, bool]] = []
        self._previous_hook: Any = None
        self._hook_installed = False

    # -- recording ---------------------------------------------------------------

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name`` whenever it runs inside an op."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.op is None:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if after is not None:
                after(self, args, result, state)
            return result

        return wrapper

    def begin_op(self, index: int) -> None:
        self.op = index

    def end_op(self, scale: float) -> None:
        self.scales[self.op] = scale
        self.op = None

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a missing one marks its layer ``missing``."""
        for name, module, qualname, before, after in TARGETS:
            try:
                owner, attr = _resolve(module, qualname)
            except (ImportError, AttributeError):
                layer = layer_of(name)
                self.missing.add(_REPORTED_LAYER.get(layer, layer))
                continue
            self._patch(owner, attr, name, before, after)
        try:
            policy = importlib.import_module("repro.core.policy")
            importlib.import_module("repro.baselines")
            base = policy.OffloadPolicy
        except (ImportError, AttributeError):
            self.missing.add("compile")
        else:
            compilers = [cls for cls in _subclasses(base) if "compile" in vars(cls)]
            if not compilers:
                self.missing.add("compile")
            for cls in compilers:
                self._patch(cls, "compile", f"compile.{cls.__name__}", None, None)
        try:
            sim = importlib.import_module("repro.sim")
            set_event_hook = sim.set_event_hook
        except (ImportError, AttributeError):
            self.missing.add("sim")
        else:
            self._previous_hook = set_event_hook(self._count_event)
            self._hook_installed = True

    def _count_event(self, callback: Callable[[Any], None], arg: Any) -> None:
        if self.op is not None:
            self.events += 1
        callback(arg)

    def _patch(self, owner: Any, attr: str, name: str, before, after) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self.wrap(name, original.__func__, before, after))
        else:
            wrapped = self.wrap(name, original, before, after)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every wrapped target and the previous event hook."""
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()
        if self._hook_installed:
            importlib.import_module("repro.sim").set_event_hook(self._previous_hook)
            self._hook_installed = False

    # -- analysis ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Normalised inclusive seconds per span name, self seconds per layer, counts."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(spans):
            scale = self.scales.get(op, 1.0)
            inclusive[name] += (end - start) * scale
            own[layer_of(name)] += (end - start - covered[index]) * scale
            counts[name] += 1
        return inclusive, own, counts

    def under(self, index: int, prefix: str) -> bool:
        """Whether span ``index`` has an ancestor whose name starts with ``prefix``."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefix):
                return True
            parent = self.spans[parent][3]
        return False


def layer_of(span: str) -> str:
    """The layer a span belongs to: its name up to the last dot."""
    return span.rsplit(".", 1)[0]


def _resolve(module: str, qualname: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the target is gone
    return owner, attr


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))


def layer_metrics(
    tracer: Tracer,
    n_ops: int,
    digests: dict[str, float],
    host: dict[str, float],
) -> dict[str, tuple[float, bool]]:
    """Every per-layer metric as ``name -> (value, missing)``.

    ``digests`` are the workload's per-run output totals; ``host`` holds
    the untraced pass's audit figures and the tracing overhead.
    """
    inclusive, own, counts = tracer.totals()
    spans = tracer.spans
    ms = 1e3 / n_ops

    def count(name: str) -> float:
        return counts.get(name, 0.0) / n_ops

    def span_ms(name: str) -> float:
        return inclusive.get(name, 0.0) * ms

    outer_compile = [
        i for i, span in enumerate(spans)
        if span[0].startswith("compile.") and not tracer.under(i, "compile.")
    ]
    steps = sum(
        1 for span in spans
        if span[0] == "planner.iteration_time" and span[3] >= 0 and spans[span[3]][0] == "planner.plan"
    )
    recompute = [
        i for i, span in enumerate(spans)
        if span[0] == "runtime.block_forward" and not tracer.under(i, "runtime.forward")
    ]

    def scaled(indices: list[int]) -> float:
        return sum((spans[i][2] - spans[i][1]) * tracer.scales.get(spans[i][4], 1.0) for i in indices)

    sim_self_s = own.get("sim", 0.0)
    points = counts.get("runner.run_point", 0.0)
    hits = tracer.counters.get("runner.hits", 0.0)
    values = {
        "models.recompute_calls": count("models.recompute_flops_for"),
        "models.sort_calls": count("models.segments_by_benefit"),
        "models.self_ms": own.get("models", 0.0) * ms,
        "planner.calls": count("planner.plan"),
        "planner.steps": steps / n_ops,
        "planner.self_ms": own.get("planner", 0.0) * ms,
        "planner.a_g2m_gb": tracer.counters.get("planner.a_g2m", 0.0) / 1e9 / n_ops,
        "capacity.probes": count("capacity.feasible"),
        "capacity.self_ms": own.get("capacity", 0.0) * ms,
        "compile.calls": len(outer_compile) / n_ops,
        "compile.ms": scaled(outer_compile) * ms,
        "sim.runs": count("sim.run_iteration"),
        "sim.events": tracer.events / n_ops,
        "sim.self_ms": sim_self_s * ms,
        "sim.events_per_s": tracer.events / sim_self_s if sim_self_s > 0 else 0.0,
        "sim.simulated_s": tracer.counters.get("sim.simulated_s", 0.0) / n_ops,
        "attribution.ms": span_ms("attribution.collect_metrics"),
        "runner.points": points / n_ops,
        "runner.hits": hits / n_ops,
        "runner.misses": tracer.counters.get("runner.misses", 0.0) / n_ops,
        "runner.hit_ratio": hits / points if points else 0.0,
        "runner.key_ms": span_ms("runner.key"),
        "fleet.self_ms": own.get("fleet", 0.0) * ms,
        "fleet.events": digests.get("fleet.events", 0.0) / n_ops,
        "fleet.oracle_calls": count("fleet.oracle.outcome"),
        "fleet.oracle_ms": span_ms("fleet.oracle.outcome") + span_ms("fleet.oracle.needs"),
        "fleet.needs_calls": count("fleet.oracle.needs"),
        "fleet.recover_ms": span_ms("fleet.recover"),
        "fleet.requeued": digests.get("fleet.requeued", 0.0) / n_ops,
        "fleet.quarantines": digests.get("fleet.quarantines", 0.0) / n_ops,
        "fleet.lost_iterations": digests.get("fleet.lost_iterations", 0.0) / n_ops,
        "jsonl.appends": count("jsonl.append"),
        "jsonl.bytes": tracer.counters.get("jsonl.bytes", 0.0) / n_ops,
        "jsonl.append_ms": span_ms("jsonl.append"),
        "jsonl.fold_ms": span_ms("jsonl.fold"),
        "jsonl.repaired_bytes": tracer.counters.get("jsonl.repaired_bytes", 0.0) / n_ops,
        "runtime.forward_ms": span_ms("runtime.forward"),
        "runtime.backward_ms": span_ms("runtime.train_step") - span_ms("runtime.forward"),
        "runtime.recompute_blocks": len(recompute) / n_ops,
        "runtime.recompute_ms": scaled(recompute) * ms,
        "runtime.storage_moves": count("runtime.storage_move"),
        "runtime.storage_ms": span_ms("runtime.storage_move"),
        "runtime.adam_updates": count("runtime.adam_step"),
        "runtime.adam_ms": span_ms("runtime.adam_step"),
        **{
            f"runtime.bytes_{link}": digests.get(f"runtime.bytes_{link}", 0.0) / n_ops
            for link in ("gpu_host", "host_gpu", "host_nvme", "nvme_host")
        },
        **host,
    }
    return {
        metric.name: (0.0, True) if metric.layer in tracer.missing else (values[metric.name], False)
        for metric in METRICS
    }
