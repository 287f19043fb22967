"""Shared runner flags: one dataclass, one argparse parent parser.

Every CLI command that evaluates through the shared
:func:`~repro.runner.default_sweep` takes the same execution knobs —
``--jobs``, ``--cache-dir``, ``--retries``, ``--timeout``, ``--ledger``
and (where the command has a fault drill) ``--adapt``.  They used to be
re-declared per subcommand; now :func:`run_options_parent` builds the
one parent parser they all inherit, and :class:`RunOptions` is the typed
bag the handlers read instead of poking ``getattr(args, ...)``:

    opts = RunOptions.from_args(args)
    opts.apply()          # retarget the shared default sweep

``sweep``, ``fleet``, ``experiments`` and ``obs report`` all share this
parent, so flag names, metavars and help text cannot drift apart.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields

from repro.obs.ledger import DEFAULT_LEDGER_PATH


@dataclass
class RunOptions:
    """The consolidated execution options of one CLI invocation.

    ``None`` means "flag not given, keep the sweep's current setting";
    :meth:`apply` is a no-op when every runner knob is ``None``.
    """

    #: Fan cold points across this many worker processes (serial when None).
    jobs: int | None = None
    #: Persist results under this directory and reuse them on re-runs.
    cache_dir: str | None = None
    #: Recompute a failing point this many times, then quarantine it.
    retries: int | None = None
    #: Per-point wall-clock budget in seconds (needs a process pool).
    timeout: float | None = None
    #: Append computed evaluations to this JSONL run ledger.
    ledger: str | None = None
    #: Run the command's degradation drill (sweep postures, fleet faults).
    adapt: bool = False
    #: Stall-free optimizer engine mode (``sync``/``async``/``overlap``);
    #: ``None`` keeps synchronous Ratel.  Ratel-family policies in
    #: sweeps/fleet swap to the matching sim policy.
    optimizer_mode: str | None = None
    #: Write-ahead journal every fleet scheduler transition to this path.
    journal: str | None = None
    #: Recover a crashed fleet run from ``--journal`` instead of starting
    #: a fresh drill.
    resume: bool = False

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunOptions":
        """Collect the shared flags off a parsed namespace (missing = default)."""
        values = {}
        for field in fields(cls):
            values[field.name] = getattr(args, field.name, field.default)
        return cls(**values)

    def apply(self, *, attach_ledger: bool = True) -> None:
        """Point the shared default sweep at the requested executor/cache.

        Passing ``--retries`` or ``--timeout`` also switches the sweep to
        quarantine mode: one bad point yields a structured failure in its
        result slot instead of killing the whole run.  Commands that
        record to the ledger themselves (``obs report``) pass
        ``attach_ledger=False`` so evaluations are not double-logged.
        """
        from repro import runner

        ledger = self.ledger if attach_ledger else None
        knobs = (self.jobs, self.cache_dir, self.retries, self.timeout, ledger)
        if all(value is None for value in knobs):
            return
        runner.configure(
            executor="process" if self.jobs else "serial",
            max_workers=self.jobs,
            cache_dir=self.cache_dir,
            retries=self.retries or 0,
            timeout=self.timeout,
            on_error=(
                "quarantine"
                if (self.retries is not None or self.timeout is not None)
                else "raise"
            ),
            ledger=ledger,
        )


def ledger_arg(
    parser: argparse._ActionsContainer, verb: str = "append evaluations to"
) -> None:
    """Add the ``--ledger [PATH]`` flag to a parser or argument group;
    ``verb`` says what the command does with the ledger."""
    parser.add_argument(
        "--ledger", metavar="PATH", nargs="?", const=DEFAULT_LEDGER_PATH, default=None,
        help=f"{verb} a JSONL run ledger (default path: {DEFAULT_LEDGER_PATH})",
    )


def run_options_parent(
    *,
    adapt_help: str | None = None,
    journal_flags: bool = False,
) -> argparse.ArgumentParser:
    """The parent parser carrying the shared runner flags.

    Subcommands inherit it via ``add_parser(..., parents=[...])``;
    ``adapt_help`` adds the command's ``--adapt`` drill flag with
    command-specific help (omitted when the command has no drill), and
    ``journal_flags`` adds the crash-safety pair ``--journal``/
    ``--resume`` for commands with recoverable long-running state
    (currently ``fleet``).
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("runner options")
    group.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan grid points across N worker processes (default: serial)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist results under DIR (e.g. .repro_cache/) and reuse on re-runs",
    )
    group.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry a failing point N times (with backoff), then quarantine it "
        "instead of aborting the sweep",
    )
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock budget; points past it are quarantined "
        "(needs --jobs: only pool workers can be abandoned)",
    )
    ledger_arg(group)
    group.add_argument(
        "--optimizer-mode", dest="optimizer_mode", default=None,
        choices=("sync", "async", "overlap"),
        help="stall-free optimizer engine: sync (paper), async (ZenFlow "
        "bounded staleness) or overlap (GreedySnake step-overlap)",
    )
    if adapt_help is not None:
        group.add_argument("--adapt", action="store_true", help=adapt_help)
    if journal_flags:
        group.add_argument(
            "--journal", metavar="PATH", default=None,
            help="write-ahead journal every scheduler transition to PATH "
            "(JSONL); the run becomes recoverable after a coordinator crash",
        )
        group.add_argument(
            "--resume", action="store_true",
            help="recover the fleet from --journal (repairing a torn tail) "
            "and drain the requeued jobs instead of starting a new drill",
        )
    return parent
