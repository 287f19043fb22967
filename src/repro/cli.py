"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan``        — feasibility, Algorithm-1 plan and simulated iteration
  for a model/batch on a configurable server (the
  ``examples/plan_175b_on_4090.py`` flow, parameterised).
* ``maxsize``     — the max-trainable-size frontier per system (Fig. 6
  style) for one server configuration.
* ``sweep``       — evaluate a (system x model x batch) grid through the
  :mod:`repro.runner` orchestrator and print the tokens/s table.
* ``fleet``       — schedule a bursty trace of concurrent fine-tuning
  jobs across a heterogeneous simulated cluster (``repro.fleet``) and
  print the makespan / latency / utilization summary.
* ``experiments`` — run the paper's experiment harnesses by id
  (``fig1`` ... ``fig13``, or ``all``) and print the tables.
* ``trace``       — export one simulated Ratel iteration as a
  Chrome/Perfetto trace JSON (the Fig. 1 timeline, interactive).
* ``serve``       — run the hardened what-if planner service
  (``repro.serve``): a stdlib HTTP daemon answering capacity queries
  with admission control, a circuit breaker and a degradation ladder;
  ``--selftest`` runs the in-process chaos drill instead, prints the
  ``ext_serve`` tables and exits non-zero on any SLO violation.
* ``obs report``  — bottleneck attribution for one workload: the
  per-stage, per-resource busy/stall/idle table, the binding resource of
  each stage, and planned-vs-actual iteration time (``repro.obs``).
* ``obs diff``    — align two recorded runs (ledger JSONL entries or
  exported Chrome traces) and attribute the iteration-time delta to
  stages and resources (binding-resource flips called out).
* ``obs html``    — a dependency-free, self-contained HTML run report:
  timeline, per-stage utilization bars, planned-vs-actual, ledger
  history.  Opens standalone — no network, no CDN, no JavaScript.

Every evaluation routes through the shared :class:`repro.runner.Sweep`.
The execution knobs — ``--jobs`` (process-pool fan-out), ``--cache-dir``
(on-disk result reuse), ``--retries``/``--timeout`` (quarantine mode),
``--ledger`` (append-only JSONL run history) and ``--adapt`` (the
command's degradation drill) — are declared once in
:func:`repro.runner.options.run_options_parent` and inherited by
``sweep``, ``fleet``, ``experiments`` and ``obs report``, then read
through :class:`repro.runner.RunOptions`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import runner
from repro.analysis.report import ExperimentResult
from repro.fleet import SCHEDULERS
from repro.baselines import (
    ColossalAIPolicy,
    FlashNeuronPolicy,
    GreedySnakePolicy,
    ZenFlowPolicy,
    ZeroInfinityPolicy,
    ZeroOffloadPolicy,
    policy_for_mode,
)
from repro.core import RatelPolicy
from repro.hardware import GiB, RTX_3090, RTX_4080, RTX_4090, evaluation_server, fmt_bytes
from repro.models import LLM_PRESETS, llm
from repro.obs.attribution import attribute
from repro.obs.diff import diff_attributions, diff_entries
from repro.obs.html import write_run_report
from repro.obs.ledger import DEFAULT_LEDGER_PATH, LedgerError, RunLedger, load_ledger
from repro.runner import RunOptions, SweepPoint, run_options_parent
from repro.runner.options import ledger_arg
from repro.sim import events_to_trace, write_chrome_trace

_GPUS = {"4090": RTX_4090, "3090": RTX_3090, "4080": RTX_4080}

#: Systems addressable from the ``sweep`` command line.
_SYSTEMS = {
    "ratel": RatelPolicy,
    "ratel-naive": lambda: RatelPolicy("naive"),
    "ratel-zero": lambda: RatelPolicy("zero"),
    "zero-infinity": ZeroInfinityPolicy,
    "zero-offload": ZeroOffloadPolicy,
    "colossal-ai": ColossalAIPolicy,
    "flashneuron": FlashNeuronPolicy,
    "zenflow": ZenFlowPolicy,
    "greedysnake": GreedySnakePolicy,
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ratel (ICDE 2025) reproduction: planning, capacity and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan and simulate one workload")
    _server_args(plan)
    plan.add_argument("model", choices=sorted(LLM_PRESETS), help="Table IV model")
    plan.add_argument("batch", type=int, help="batch size")

    maxsize = sub.add_parser("maxsize", help="max trainable size per system")
    _server_args(maxsize)
    maxsize.add_argument("--batch", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="evaluate a grid through the runner",
        parents=[
            run_options_parent(
                adapt_help="also run each (model, batch) through the standard "
                "fault drill under the adaptive controller (stale vs "
                "replan-once vs adaptive postures)"
            )
        ],
    )
    _server_args(sweep)
    sweep.add_argument(
        "--models", nargs="+", default=["13B"],
        choices=sorted(LLM_PRESETS), help="Table IV models to sweep",
    )
    sweep.add_argument(
        "--batches", nargs="+", type=int, default=[8, 16, 32], help="batch sizes",
    )
    sweep.add_argument(
        "--systems", nargs="+", default=["ratel", "zero-infinity"],
        choices=sorted(_SYSTEMS), help="systems to compare",
    )

    fleet = sub.add_parser(
        "fleet",
        help="schedule a bursty fine-tuning trace across simulated servers",
        parents=[
            run_options_parent(
                adapt_help="inject the standard mid-trace node fault (drive "
                "loss + bandwidth sag on the 4090 box) and exercise the "
                "drift-to-rescheduling escalation path",
                journal_flags=True,
            )
        ],
    )
    fleet.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="sjf",
        help="fleet scheduling policy (default: sjf)",
    )
    fleet.add_argument(
        "--arrivals", type=int, default=24, metavar="N",
        help="number of jobs in the bursty arrival trace (default: 24)",
    )
    fleet.add_argument("--seed", type=int, default=7, help="trace RNG seed")
    fleet.add_argument(
        "--show-events", type=int, default=12, metavar="N",
        help="print the last N fleet events (default: 12; 0 = none)",
    )

    experiments = sub.add_parser(
        "experiments",
        help="run paper experiments",
        parents=[run_options_parent()],
    )
    experiments.add_argument(
        "ids", nargs="*", default=["all"],
        help="experiment ids (fig1, fig2, fig5-fig13) or 'all'",
    )

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    ledger_arg(report)

    trace = sub.add_parser("trace", help="export a Ratel iteration timeline")
    _server_args(trace)
    trace.add_argument("model", choices=sorted(LLM_PRESETS))
    trace.add_argument("batch", type=int)
    trace.add_argument("-o", "--output", default="iteration.json")

    serve = sub.add_parser(
        "serve", help="run the hardened what-if planner HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8787, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--rate", type=float, default=50.0,
        help="admission token-bucket refill rate, requests/s (default: 50)",
    )
    serve.add_argument(
        "--burst", type=float, default=16.0,
        help="admission token-bucket burst capacity (default: 16)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="simulation worker pool size (default: 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=8,
        help="in-flight requests beyond which the queue sheds 503 (default: 8)",
    )
    serve.add_argument(
        "--deadline", type=float, default=5.0, metavar="SECONDS",
        help="per-request deadline before the answer degrades (default: 5)",
    )
    serve.add_argument(
        "--cache-dir", default=".serve-cache",
        help="result cache directory, the format `sweep --cache-dir` writes "
        "(default: .serve-cache)",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write-ahead request journal (default: <cache-dir>/journal.jsonl)",
    )
    serve.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append serve decisions and breaker transitions to a run ledger",
    )
    serve.add_argument(
        "--selftest", action="store_true",
        help="run the chaos drill in-process and exit non-zero on SLO violations",
    )

    obs = sub.add_parser("obs", help="observability: attribution, metrics")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="per-stage busy/stall/idle bottleneck attribution",
        parents=[run_options_parent()],
    )
    _server_args(obs_report)
    obs_report.add_argument(
        "model", choices=sorted(LLM_PRESETS), nargs="?", default=None,
        help="Table IV model (omit with --trace-id)",
    )
    obs_report.add_argument(
        "batch", type=int, nargs="?", default=None,
        help="batch size (omit with --trace-id)",
    )
    obs_report.add_argument(
        "--system", choices=sorted(_SYSTEMS), default="ratel",
        help="system to attribute (default: ratel)",
    )
    obs_report.add_argument(
        "--trace-id", metavar="ID", default=None,
        help="instead of evaluating, print every ledger record of one "
        "causal trace (reads --ledger, default: the committed ledger)",
    )
    obs_report.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also export the iteration as a Chrome/Perfetto trace JSON",
    )
    obs_report.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the evaluation's sweep metrics as Prometheus text",
    )

    obs_diff = obs_sub.add_parser(
        "diff",
        help="attribute the iteration-time delta between two runs to "
        "stages and resources",
    )
    obs_diff.add_argument(
        "run_a", help="baseline: a ledger JSONL or an exported Chrome trace JSON",
    )
    obs_diff.add_argument(
        "run_b", help="candidate: a ledger JSONL or an exported Chrome trace JSON",
    )
    obs_diff.add_argument(
        "--label", default=None,
        help="restrict ledger lookup to entries with this label "
        "(default: each file's newest entry)",
    )
    obs_diff.add_argument(
        "--threshold-pct", type=float, default=10.0,
        help="regression threshold for --fail-on-regression (default: 10)",
    )
    obs_diff.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the machine-readable diff payload",
    )
    obs_diff.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero when the iteration slowed past the threshold",
    )

    obs_html = obs_sub.add_parser(
        "html", help="self-contained HTML run report (no network/CDN deps)"
    )
    _server_args(obs_html)
    obs_html.add_argument("model", choices=sorted(LLM_PRESETS), help="Table IV model")
    obs_html.add_argument("batch", type=int, help="batch size")
    obs_html.add_argument(
        "--system", choices=sorted(_SYSTEMS), default="ratel",
        help="system to report on (default: ratel)",
    )
    obs_html.add_argument("-o", "--output", default="run_report.html")
    obs_html.add_argument(
        "--history", type=int, default=20, metavar="N",
        help="embed the newest N ledger entries (default: 20)",
    )
    ledger_arg(obs_html, "read run history from")

    obs_profile = obs_sub.add_parser(
        "profile",
        help="profile the repo's own wall-clock: a cold sweep under "
        "cProfile + sim event-loop hot-spot counters",
    )
    _server_args(obs_profile)
    obs_profile.add_argument(
        "model", choices=sorted(LLM_PRESETS), nargs="?", default="13B",
        help="Table IV model to sweep (default: 13B)",
    )
    obs_profile.add_argument(
        "batch", type=int, nargs="?", default=32, help="batch size (default: 32)"
    )
    obs_profile.add_argument(
        "--system", choices=sorted(_SYSTEMS), default="ratel",
        help="system to profile (default: ratel)",
    )
    obs_profile.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the speedscope JSON profile here (open at speedscope.app)",
    )
    obs_profile.add_argument(
        "--collapsed", metavar="PATH", default=None,
        help="write collapsed (folded) stacks for flamegraph.pl-style tools",
    )
    obs_profile.add_argument(
        "--summary", metavar="PATH", default=None,
        help="also write the summary table to PATH",
    )
    obs_profile.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="functions to show in the summary table (default: 12)",
    )
    return parser


def _server_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gpu", choices=sorted(_GPUS), default="4090")
    parser.add_argument("--memory-gb", type=int, default=768, help="main memory (GiB)")
    parser.add_argument("--ssds", type=int, default=12)


def _server_from(args) -> "ServerSpec":  # noqa: F821
    return evaluation_server(
        gpu=_GPUS[args.gpu],
        main_memory_bytes=args.memory_gb * GiB,
        n_ssds=args.ssds,
    )


def cmd_plan(args, out) -> int:
    server = _server_from(args)
    outcome = runner.default_sweep().evaluate(
        RatelPolicy(), llm(args.model), args.batch, server, detail=True
    )
    if not outcome.feasible:
        print(f"{args.model} at batch {args.batch} does NOT fit: {outcome.reason}", file=out)
        return 1
    plan = outcome.plan
    print(
        f"{args.model} batch {args.batch} on {server.gpu.name} / "
        f"{args.memory_gb} GiB / {args.ssds} SSDs",
        file=out,
    )
    print(
        f"  plan: swap {fmt_bytes(plan.a_g2m)} "
        f"(main {fmt_bytes(plan.a_to_main)}, SSD {fmt_bytes(plan.a_to_ssd)}), "
        f"case {plan.case}",
        file=out,
    )
    print(outcome.require_result().summary(), file=out)
    return 0


def cmd_maxsize(args, out) -> int:
    server = _server_from(args)
    policies = (
        FlashNeuronPolicy(),
        ColossalAIPolicy(),
        ZeroInfinityPolicy(),
        ZeroOffloadPolicy(),
        RatelPolicy(),
    )
    print(
        f"max trainable size on {server.gpu.name} / {args.memory_gb} GiB / "
        f"{args.ssds} SSDs (batch {args.batch}):",
        file=out,
    )
    sweep = runner.default_sweep()
    sizes = sweep.run(
        [SweepPoint.max_trainable(policy, server, batch_size=args.batch) for policy in policies]
    )
    for policy, best in zip(policies, sizes):
        print(f"  {policy.name:15s} {best / 1e9:7.1f}B", file=out)
    return 0


def _system_policy(name: str, optimizer_mode: str | None):
    """Build one sweep policy; ``--optimizer-mode`` reshapes plain ratel.

    The stall-free variants are Ratel's own plan with a different
    optimizer leg, so the substitution applies only to the ``ratel``
    system — baselines keep their published designs.
    """
    if optimizer_mode and name == "ratel":
        return policy_for_mode(optimizer_mode)
    return _SYSTEMS[name]()


def cmd_sweep(args, out) -> int:
    opts = RunOptions.from_args(args)
    opts.apply()
    server = _server_from(args)
    policies = [_system_policy(name, opts.optimizer_mode) for name in args.systems]
    points = [
        SweepPoint.evaluate(policy, llm(model), batch, server)
        for model in args.models
        for batch in args.batches
        for policy in policies
    ]
    sweep = runner.default_sweep()
    outcomes = sweep.run(points)
    result = ExperimentResult(
        experiment="sweep",
        title=f"tokens/s on {server.gpu.name} / {args.memory_gb} GiB / {args.ssds} SSDs",
        columns=["model", "batch"] + [policy.name for policy in policies],
    )
    index = 0
    for model in args.models:
        for batch in args.batches:
            row = outcomes[index : index + len(policies)]
            index += len(policies)
            result.add_row(
                model,
                batch,
                *(o.tokens_per_s if o.feasible else float("nan") for o in row),
            )
    print(result.render(), file=out)
    if args.adapt:
        adapt_points = [
            SweepPoint.adaptive(RatelPolicy(), llm(model), batch, server)
            for model in args.models
            for batch in args.batches
        ]
        adapt_outcomes = sweep.run(adapt_points)
        points += adapt_points
        outcomes += adapt_outcomes
        adapt = ExperimentResult(
            experiment="sweep-adapt",
            title="standard fault drill: ms/token by posture (lower is better)",
            columns=["model", "batch", "stale", "adaptive", "oracle", "swaps"],
        )
        for point, o in zip(adapt_points, adapt_outcomes):
            if runner.is_failure(o) or not o.feasible:
                adapt.add_row(
                    point.config.name, point.batch_size,
                    float("nan"), float("nan"), float("nan"), 0,
                )
                continue
            adapt.add_row(
                point.config.name,
                point.batch_size,
                o.metrics["stale_s_per_token"] * 1e3,
                o.metrics["adaptive_s_per_token"] * 1e3,
                o.metrics["oracle_s_per_token"] * 1e3,
                o.metrics["plan_swaps"],
            )
        print(file=out)
        print(adapt.render(), file=out)
    stats = sweep.stats
    quarantined = sum(1 for o in outcomes if runner.is_failure(o))
    line = f"{len(points)} points: {stats.hits} cache hits, {stats.misses} computed"
    if quarantined:
        line += f", {quarantined} quarantined"
    print(line, file=out)
    if quarantined:
        for o in outcomes:
            if runner.is_failure(o):
                print(f"  quarantined {o.label}: {o}", file=out)
    return 0


def cmd_fleet(args, out) -> int:
    from repro.fleet import run_bursty_drill

    opts = RunOptions.from_args(args)
    opts.apply()
    if opts.resume:
        outcome = _fleet_resume(args, opts, out)
        if isinstance(outcome, int):
            return outcome
    else:
        outcome = run_bursty_drill(
            args.scheduler,
            n_jobs=args.arrivals,
            seed=args.seed,
            ledger=opts.ledger,
            degrade=opts.adapt,
            optimizer_mode=opts.optimizer_mode,
            journal=opts.journal,
        )
    metrics = outcome.metrics
    print(
        f"fleet: {outcome.scheduler} over {metrics['jobs']} jobs on "
        f"{outcome.n_nodes} nodes "
        f"({metrics['completed']} completed, {metrics['rejected']} rejected)",
        file=out,
    )
    print(
        f"  makespan {metrics['makespan_s']:.0f} s | "
        f"P99 latency {metrics['p99_latency_s']:.0f} s | "
        f"P50 {metrics['p50_latency_s']:.0f} s | "
        f"utilization {metrics['utilization']:.0%}",
        file=out,
    )
    print(
        f"  preemptions={metrics['preemptions']} migrations={metrics['migrations']} "
        f"requeues={metrics['requeues']} degradations={metrics['degradations']}",
        file=out,
    )
    if metrics["deadlines_total"]:
        print(
            f"  deadlines met: {metrics['deadlines_met']}/{metrics['deadlines_total']}",
            file=out,
        )
    if args.show_events:
        for event in outcome.events[-args.show_events :]:
            print(f"  {event}", file=out)
    if opts.ledger:
        print(f"recorded fleet decisions to {opts.ledger}", file=out)
    if opts.journal:
        print(f"journaled scheduler transitions to {opts.journal}", file=out)
    return 0


def _fleet_resume(args, opts, out):
    """Recover a crashed fleet run from its journal and drain it.

    Returns the drained :class:`~repro.fleet.FleetOutcome`, or the exit
    code ``2`` (after a one-line ``error:`` message) when the journal is
    missing, empty, or wholly torn.
    """
    from repro.fleet import Fleet, FleetJournal, standard_fleet_nodes

    if not opts.journal:
        print("error: --resume requires --journal PATH", file=out)
        return 2
    if not os.path.exists(opts.journal):
        print(f"error: journal {opts.journal} does not exist", file=out)
        return 2
    journal = FleetJournal(opts.journal)
    repaired = journal.repair()
    if not journal.records():
        print(
            f"error: journal {opts.journal} holds no parseable records "
            "(empty or wholly torn)",
            file=out,
        )
        return 2
    fleet = Fleet.recover(
        journal,
        standard_fleet_nodes(opts.optimizer_mode),
        args.scheduler,
        ledger=opts.ledger,
    )
    requeued = len(fleet._queue)
    terminal = sum(1 for job_id in fleet._jobs if fleet.result(job_id) is not None)
    tail = f" (repaired {repaired} torn bytes)" if repaired else ""
    print(
        f"resumed from {opts.journal}: {terminal} jobs already terminal, "
        f"{requeued} requeued at their last checkpoint{tail}",
        file=out,
    )
    return fleet.drain()


def cmd_experiments(args, out) -> int:
    from repro import experiments as exp

    RunOptions.from_args(args).apply()
    ids = set(args.ids)
    run_all = "all" in ids
    ran = 0
    for module in exp.ALL_MODULES:
        # Address a module by its short id ("fig6") or, where several
        # share a prefix ("ext_*"), by its full name ("ext_overlap").
        name = module.__name__.split(".")[-1]
        module_id = name.split("_")[0]
        if not run_all and module_id not in ids and name not in ids:
            continue
        outcome = module.run()
        results = [outcome] if isinstance(outcome, ExperimentResult) else outcome
        for result in results:
            print(result.render(), file=out)
            print(file=out)
        ran += 1
    if ran == 0:
        known = sorted(
            {module.__name__.split(".")[-1].split("_")[0] for module in exp.ALL_MODULES}
            | {module.__name__.split(".")[-1] for module in exp.ALL_MODULES}
        )
        print(f"no experiment matched {sorted(ids)}; known ids: {known}", file=out)
        return 1
    return 0


def cmd_report(args, out) -> int:
    from repro.experiments.report_writer import write_report

    write_report(args.output, ledger=args.ledger)
    print(f"wrote {args.output}", file=out)
    if args.ledger:
        print(f"appended computed evaluations to {args.ledger}", file=out)
    return 0


def cmd_trace(args, out) -> int:
    server = _server_from(args)
    outcome = runner.default_sweep().evaluate(
        RatelPolicy(), llm(args.model), args.batch, server, detail=True
    )
    result = outcome.require_result()
    write_chrome_trace(result.trace, args.output, stage_windows=result.stage_windows)
    print(
        f"wrote {args.output}: {len(result.trace.intervals)} events over "
        f"{result.iteration_time:.1f} s (open in chrome://tracing or Perfetto)",
        file=out,
    )
    return 0


def cmd_serve(args, out) -> int:
    import tempfile

    from repro.serve import PlannerService, ServiceConfig, make_server, run_chaos_drill

    if args.selftest:
        from repro.experiments import ext_serve

        with tempfile.TemporaryDirectory(prefix="repro-serve-selftest-") as root:
            report = run_chaos_drill(root)
        for table in ext_serve.tables(report):
            print(table.render(), file=out)
            print(file=out)
        return 1 if report.violations else 0

    config = ServiceConfig(
        rate=args.rate,
        burst=args.burst,
        workers=args.workers,
        max_queue=args.max_queue,
        deadline_s=args.deadline,
        cache_dir=args.cache_dir,
        journal_path=args.journal or os.path.join(args.cache_dir, "journal.jsonl"),
        ledger_path=args.ledger,
    )
    service = PlannerService(config)
    replayed = service.recover()
    if replayed:
        print(f"recovered {replayed} orphaned request(s) from the journal", file=out)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"planner service on http://{host}:{port} "
        f"(POST /v1/whatif, GET /healthz /v1/stats /metrics)",
        file=out,
    )
    from repro.serve import run_daemon

    run_daemon(server)
    return 0


def cmd_obs(args, out) -> int:
    handlers = {
        "report": cmd_obs_report,
        "diff": cmd_obs_diff,
        "html": cmd_obs_html,
        "profile": cmd_obs_profile,
    }
    return handlers[args.obs_command](args, out)


def _report_trace_id(args, out) -> int:
    """``obs report --trace-id``: every ledger record of one causal trace."""
    path = args.ledger or DEFAULT_LEDGER_PATH
    try:
        entries = load_ledger(path).entries()
    except (OSError, LedgerError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    if not entries:
        print(
            f"error: ledger {path!r} is empty; record runs with "
            "--ledger (sweep/serve/fleet) before filtering by trace",
            file=out,
        )
        return 2
    matches = [e for e in entries if e.trace_id == args.trace_id]
    if not matches:
        print(
            f"error: no entries with trace_id {args.trace_id!r} in {path!r} "
            f"({len(entries)} entries scanned)",
            file=out,
        )
        return 1
    print(f"trace {args.trace_id}: {len(matches)} ledger record(s) in {path}", file=out)
    for entry in matches:
        request_id = entry.metrics.get("request_id", "")
        extra = f" request_id={request_id}" if request_id else ""
        print(
            f"  [{entry.kind:8s}] {entry.label}  source={entry.source or '-'}"
            f"{extra}",
            file=out,
        )
    return 0


def cmd_obs_report(args, out) -> int:
    if args.trace_id is not None:
        return _report_trace_id(args, out)
    if args.model is None or args.batch is None:
        print("error: model and batch are required (unless using --trace-id)", file=out)
        return 2
    # The handler records to --ledger itself (below, cache hits included),
    # so the runner must not also auto-append the evaluation.
    opts = RunOptions.from_args(args)
    opts.apply(attach_ledger=False)
    server = _server_from(args)
    policy = _system_policy(args.system, opts.optimizer_mode)
    sweep = runner.default_sweep()
    outcome = sweep.evaluate(policy, llm(args.model), args.batch, server, detail=True)
    if not outcome.feasible:
        print(
            f"{policy.name}: {args.model} at batch {args.batch} does NOT fit: "
            f"{outcome.reason}",
            file=out,
        )
        return 1
    report = outcome.attribution()
    print(
        f"bottleneck attribution: {policy.name} / {args.model} batch {args.batch} "
        f"on {server.gpu.name} / {args.memory_gb} GiB / {args.ssds} SSDs",
        file=out,
    )
    print(report.render(), file=out)
    if args.trace:
        result = outcome.require_result()
        write_chrome_trace(result.trace, args.trace, stage_windows=result.stage_windows)
        print(f"wrote {args.trace} ({len(result.trace.intervals)} events)", file=out)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(sweep.metrics().to_prometheus())
        print(f"wrote {args.metrics}", file=out)
    if args.ledger:
        point = SweepPoint.evaluate(policy, llm(args.model), args.batch, server)
        ledger = RunLedger(args.ledger)
        ledger.record(
            outcome,
            label=point.label(),
            config_key=point.key(),
            server=server,
            source="cli",
        )
        print(f"recorded to {args.ledger} ({len(ledger)} entries)", file=out)
    return 0


def _load_diff_side(path: str, label_filter: str | None):
    """Load one ``obs diff`` operand: ``(entry, attribution, label)``.

    A file whose whole body parses as a JSON object with ``traceEvents``
    is an exported Chrome trace (``entry`` comes back ``None``); anything
    else is treated as a ledger JSONL, resolved to its newest entry
    (optionally restricted to ``label_filter``).
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise LedgerError(
            f"{path}: {exc.strerror or exc}; pass a run ledger JSONL "
            "(written via --ledger) or an exported Chrome trace"
        ) from exc
    except ValueError:  # multi-line JSONL: not a single JSON document
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        trace, windows = events_to_trace(payload["traceEvents"])
        if not windows:
            raise LedgerError(
                f"{path}: trace has no stage windows; export it via "
                "'repro trace' or 'repro obs report --trace'"
            )
        return None, attribute(trace, windows), os.path.basename(path)
    entry = load_ledger(path).last(label_filter)
    if entry is None:
        wanted = f" labelled {label_filter!r}" if label_filter else ""
        raise LedgerError(
            f"{path}: no ledger entry{wanted}; record runs with "
            "--ledger (sweep/serve/fleet) before diffing"
        )
    return entry, entry.attribution(), entry.label


def cmd_obs_diff(args, out) -> int:
    try:
        entry_a, report_a, label_a = _load_diff_side(args.run_a, args.label)
        entry_b, report_b, label_b = _load_diff_side(args.run_b, args.label)
    except (OSError, LedgerError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    if entry_a is not None and entry_b is not None:
        diff = diff_entries(entry_a, entry_b)
    elif report_a is not None and report_b is not None:
        diff = diff_attributions(report_a, report_b, label_a=label_a, label_b=label_b)
    else:
        missing = args.run_a if report_a is None else args.run_b
        print(f"error: {missing}: no attribution table to diff", file=out)
        return 2
    print(diff.render(), file=out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(diff.to_payload(), handle, indent=2)
        print(f"wrote {args.json}", file=out)
    if args.fail_on_regression and diff.regressed(args.threshold_pct):
        print(
            f"FAIL: iteration time regressed beyond {args.threshold_pct:g}% "
            f"({diff.iteration_a:.2f} s -> {diff.iteration_b:.2f} s)",
            file=out,
        )
        return 1
    return 0


def cmd_obs_html(args, out) -> int:
    server = _server_from(args)
    policy = _SYSTEMS[args.system]()
    outcome = runner.default_sweep().evaluate(
        policy, llm(args.model), args.batch, server, detail=True
    )
    if not outcome.feasible:
        print(
            f"{policy.name}: {args.model} at batch {args.batch} does NOT fit: "
            f"{outcome.reason}",
            file=out,
        )
        return 1
    entries = []
    if args.ledger:
        try:
            entries = load_ledger(args.ledger).entries()[-args.history :]
        except (OSError, LedgerError):
            print(f"note: no readable ledger at {args.ledger}; history omitted", file=out)
    write_run_report(
        args.output,
        title=f"{policy.name} / {args.model} batch {args.batch}",
        subtitle=(
            f"{server.gpu.name} · {args.memory_gb} GiB main memory · "
            f"{args.ssds} SSDs"
        ),
        outcome=outcome,
        entries=entries,
    )
    print(f"wrote {args.output} (self-contained; open in any browser)", file=out)
    return 0


def cmd_obs_profile(args, out) -> int:
    from repro.obs.profile import profile as profile_scope

    server = _server_from(args)
    policy = _SYSTEMS[args.system]()
    # A fresh, cacheless sweep: the profile must cover the genuinely cold
    # path (plan + full simulation), not a cache hit.
    sweep = runner.Sweep()
    with profile_scope() as report:
        outcome = sweep.evaluate(policy, llm(args.model), args.batch, server, detail=True)
    if not outcome.feasible:
        print(
            f"{policy.name}: {args.model} at batch {args.batch} does NOT fit: "
            f"{outcome.reason}",
            file=out,
        )
        return 1
    title = (
        f"cold sweep profile: {policy.name} / {args.model} batch {args.batch} "
        f"on {server.gpu.name} / {args.memory_gb} GiB / {args.ssds} SSDs"
    )
    print(title, file=out)
    print(report.render(args.top), file=out)
    if args.output:
        report.write_speedscope(args.output, name=title)
        print(f"wrote {args.output} (speedscope JSON; open at speedscope.app)", file=out)
    if args.collapsed:
        report.write_collapsed(args.collapsed)
        print(f"wrote {args.collapsed} (collapsed stacks)", file=out)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as handle:
            handle.write(title + "\n\n" + report.render(args.top) + "\n")
        print(f"wrote {args.summary}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "plan": cmd_plan,
        "maxsize": cmd_maxsize,
        "sweep": cmd_sweep,
        "fleet": cmd_fleet,
        "experiments": cmd_experiments,
        "report": cmd_report,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "obs": cmd_obs,
    }
    return handlers[args.command](args, out)
