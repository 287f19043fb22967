"""Fig. 9 + Table V: effect of the holistic activation management.

* Fig. 9a — throughput of five activation strategies fine-tuning the 70B
  model with 128/256/512 GB of main memory.  All strategies share Ratel's
  model-state handling (states on SSD, active CPU optimizer); only the
  activation decisions differ: ZeRO's static inter-block plan, Capuchin,
  G10's migrate-everything, Checkmate's budget-filling MILP plan, and
  Ratel's holistic Algorithm 1.
* Table V — the batch size each strategy adopts (largest feasible, capped
  at 32 as in the paper).
* Fig. 9b — iteration time vs swapped-activation amount for the 13B model
  at batches 24/36/48/60, with Algorithm 1's predicted optimum starred.

Paper anchors: Ratel+CM fails at 128 GB; Ratel+G10 and Ratel keep batch
32 everywhere; Ratel wins at equal batch; the bs=24 curve is
transfer-dominated with its optimum hugging the floor (the paper's
case-1 shape) while bs=36/48/60 dip then rise with the optimum shifting
right (case 3).
"""

from __future__ import annotations

from repro.analysis.report import ExperimentResult
from repro.baselines import CapuchinPolicy, CheckmatePolicy, G10ActivationPolicy
from repro.core import (
    IterationTimeModel,
    RatelPolicy,
    plan_activation_swapping,
    sweep_iteration_time,
)
from repro.core.policy import SplitPolicy
from repro.hardware import GB, GiB, evaluation_server
from repro.models import llm, profile_model

from .common import FAILED, default_sweep, evaluate_point

MEMORY_SWEEP_GB = (128, 256, 512)
BATCH_CAP = 32


class ZeroActivationPolicy(SplitPolicy):
    """"Ratel+ZeRO(act)": the static inter-block plan on Ratel's engine.

    This is Fig. 9a's "Ratel+ZeRO" bar (called Ratel+DS in Table V):
    boundaries swap to main memory, everything else is recomputed, while
    the model states keep Ratel's active offloading.
    """

    name = "Ratel+ZeRO(act)"

    def supported_on(self, server) -> bool:
        return server.n_ssds >= 1

    def activation_split(self, profile, server) -> tuple[float, float, float]:
        boundaries = profile.inter_block_bytes
        return boundaries, 0.0, profile.recompute_flops_for(boundaries)


STRATEGIES = (
    ZeroActivationPolicy(),
    CapuchinPolicy(),
    G10ActivationPolicy(),
    CheckmatePolicy(),
    RatelPolicy(),
)


def run_fig9a() -> tuple[ExperimentResult, ExperimentResult]:
    """Fig. 9a throughput plus the Table V adopted batch sizes."""
    config = llm("70B")
    throughput = ExperimentResult(
        experiment="fig9a",
        title="70B throughput (token/s) of activation strategies vs main memory",
        columns=["main_GB"] + [policy.name for policy in STRATEGIES],
    )
    batches = ExperimentResult(
        experiment="tableV",
        title="Batch size adopted by each activation strategy (cap 32)",
        columns=["main_GB"] + [policy.name for policy in STRATEGIES],
    )
    sweep = default_sweep()
    for mem_gb in MEMORY_SWEEP_GB:
        server = evaluation_server(main_memory_bytes=mem_gb * GiB)
        tput_row: list = [mem_gb]
        batch_row: list = [mem_gb]
        for policy in STRATEGIES:
            batch = sweep.max_batch(policy, config, server, cap=BATCH_CAP)
            if batch == 0:
                tput_row.append(FAILED)
                batch_row.append("Failed")
                continue
            outcome = evaluate_point(policy, config, batch, server)
            tput_row.append(outcome.tokens_per_s)
            batch_row.append(batch)
        throughput.add_row(*tput_row)
        batches.add_row(*batch_row)
    throughput.note("paper: main-memory-bound strategies degrade at 128 GB; Ratel steady")
    batches.note("paper Table V: Ratel+CM 'Failed' at 128 GB; G10/Ratel keep batch 32")
    return throughput, batches


def run_fig9b(mem_gb: int = 128, n_points: int = 17) -> ExperimentResult:
    """Iteration time vs swapped activation size, 13B model.

    Run on the 128 GB configuration, where main memory saturates early
    enough to expose all three §IV-D cases.
    """
    server = evaluation_server(main_memory_bytes=mem_gb * GiB)
    ratel = RatelPolicy()
    result = ExperimentResult(
        experiment="fig9b",
        title=f"Iteration time (s) vs swapped activations (GB), 13B, {mem_gb} GB DRAM",
        columns=["swapped_GB", "bsz=24", "bsz=36", "bsz=48", "bsz=60"],
    )
    sweeps = {}
    optima = {}
    for batch in (24, 36, 48, 60):
        profile = profile_model(llm("13B"), batch)
        model = IterationTimeModel(profile, ratel.hardware_profile(profile, server))
        sweeps[batch] = sweep_iteration_time(model, n_points)
        plan = plan_activation_swapping(model)
        optima[batch] = (plan.a_g2m / GB, plan.t_iter, plan.case.name)
    # Sample on a common relative grid so rows align across batches.
    for i in range(n_points):
        row = [sweeps[24][i][0] / GB]
        for batch in (24, 36, 48, 60):
            row.append(sweeps[batch][i][1])
        result.add_row(*row)
    for batch, (a_gb, t_iter, case) in optima.items():
        result.note(
            f"bsz={batch}: predicted optimum A*={a_gb:.0f} GB, T={t_iter:.1f} s ({case})"
        )
    result.note("swapped_GB column shows the bsz=24 grid; rows align proportionally")
    return result


def run() -> list[ExperimentResult]:
    """Fig. 9a, Table V and Fig. 9b."""
    fig9a, table_v = run_fig9a()
    return [fig9a, table_v, run_fig9b()]
