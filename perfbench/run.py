"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_whatif --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times the op
list untraced, then again with every layer's entry points wrapped, and
prints the per-layer metrics (spans go to ``.perfbench_run/``).  The
last line of standard output is the result object; the line before it
is a report with the op count, the raw (un-normalised) figures, the
tail percentile where the run supports one, and the output digests.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(workload, ops: list, tracer=None):
    """Time every op once; returns the op log, failures and digest totals."""
    from perfbench.harness import OpLog, time_op

    log, failed, digests = OpLog(), 0, {}
    for index, op in enumerate(ops):
        prepared = workload.prepare(op)
        gc.collect()  # each op pays for its own garbage, none left by the previous op
        if tracer is not None:
            tracer.begin_op(index)
        try:
            result, timing = time_op(workload.run, prepared)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            traceback.print_exc()
            failed += 1
            if tracer is not None:
                tracer.op = None
            continue
        if tracer is not None:
            tracer.end_op(timing.scale)
        log.add(timing, workload.check(op, prepared, result))
        for key, value in workload.digest(op, prepared, result).items():
            digests[key] = digests.get(key, 0.0) + value
    return log, failed, digests


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import normalise, probe

    before = probe()
    from perfbench import workloads

    import_s = normalise(time.perf_counter() - started - before, before, probe())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # The crash drill's torn-tail repair logs a warning per drill by design.
    logging.getLogger("repro").setLevel(logging.ERROR)

    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    workload = workloads.WORKLOADS[args.workload](workdir / "state")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = probe()
            start = time.perf_counter()
            ops = workload.make_ops(args.seed, args.seconds)
            workload.setup(args.seed)
            raw = time.perf_counter() - start
            setups.append(normalise(raw, before, probe()))
        setup_s = import_s + statistics.median(setups)

        log, failed, digests = run_pass(workload, ops)
        if log.n == 0:
            print("perfbench: every op failed", file=sys.stderr)
            return 1
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": len(ops),
            "op_p90_ms": log.p90_ms() or f"not reported: {log.n} ops leave fewer than 10 beyond a p90",
            "ops_per_s": log.ops_per_s(),
            "raw_ops_per_s": log.raw_ops_per_s(),
            "calib_ms": log.calib_ms(),
            "digests": digests,
        }
        correct = failed == 0 and all(log.ok)
        if args.trace:
            metrics, traced_ok, report["self_share"] = traced(workload, ops, args, log, digests)
            correct = correct and traced_ok
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": log.ops_per_s(), "unit": "1/s"},
                "op_p50_ms": {"value": log.p50_ms(), "unit": "ms"},
                "ok_frac": {"value": log.ok_frac(), "unit": "fraction"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }
    finally:
        workload.close()
        tempfile.tempdir = None
        _remove_empty(workdir)
    print("perfbench report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed + log.ok.count(False),
        "metrics": metrics,
    }))
    return 0


def traced(workload, ops, args, untraced, digests):
    """Re-run the op list with every layer wrapped.

    Returns the per-layer metrics, whether every answer and digest held,
    and each layer's self time as a share of the traced op time.
    """
    from perfbench.layers import METRICS
    from perfbench.tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        workload.setup(args.seed)  # rebuild state that captured unwrapped entry points
        log, failed, traced_digests = run_pass(workload, ops, tracer)
    finally:
        tracer.uninstall()
        workload.tracer = None
    tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    host = {
        "host.calib_ms": untraced.calib_ms(),
        "host.raw_ops_per_s": untraced.raw_ops_per_s(),
        "trace.overhead_frac": 1 - log.ops_per_s() / untraced.ops_per_s(),
    }
    values = layer_metrics(tracer, len(ops), traced_digests, host)
    op_s = sum(t.norm_s for t in log.timings)
    shares = {layer: own / op_s for layer, own in sorted(tracer.totals()[1].items())}
    units = {m.name: m.unit for m in METRICS}
    metrics = {}
    for name, (value, missing) in values.items():
        # A layer whose entry points are gone reports "missing", not a failure.
        metrics[name] = {"value": value, "unit": units[name], **({"missing": True} if missing else {})}
    ok = failed == 0 and all(log.ok) and traced_digests == digests
    if traced_digests != digests:
        print(f"perfbench: traced digests {traced_digests} differ from {digests}", file=sys.stderr)
    return metrics, ok, shares


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _remove_empty(workdir: Path) -> None:
    for path in (workdir, RUN_DIR):
        try:
            path.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
