"""Cross-validation of the analytic model against the simulator.

The planning stack (Algorithm 1) decides using the closed-form Eqs. 1-5;
the engine then executes the chosen schedule event by event.  If the two
disagreed badly, the planner would pick the wrong swap amounts.  This
module sweeps workloads and quantifies the agreement — the reproduction's
internal consistency check, run as a bench and asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import ExperimentResult
from repro.hardware.spec import ServerSpec
from repro.models.config import LLM_PRESETS
from repro.models.profile import profile_model

from .iteration_model import IterationTimeModel
from .ratel import RatelPolicy


@dataclass(frozen=True)
class AgreementPoint:
    """Analytic vs simulated iteration time for one workload."""

    model: str
    batch_size: int
    analytic_s: float
    simulated_s: float

    @property
    def relative_error(self) -> float:
        """(simulated - analytic) / simulated."""
        return (self.simulated_s - self.analytic_s) / self.simulated_s


def sweep_agreement(
    server: ServerSpec,
    *,
    models: tuple[str, ...] = ("6B", "13B", "30B", "70B"),
    batches: tuple[int, ...] = (8, 16, 32),
) -> list[AgreementPoint]:
    """Analytic vs DES iteration times over a model x batch grid."""
    policy = RatelPolicy()
    points = []
    for name in models:
        config = LLM_PRESETS[name]
        for batch in batches:
            profile = profile_model(config, batch)
            if not policy.feasible(profile, server):
                continue
            plan = policy.plan(profile, server)
            analytic = plan.t_iter
            simulated = policy.simulate(profile, server).iteration_time
            points.append(AgreementPoint(name, batch, analytic, simulated))
    return points


@dataclass(frozen=True)
class StarQuality:
    """How close Algorithm 1's predicted optimum is to the engine's best."""

    batch_size: int
    predicted_a_g2m: float
    predicted_time: float
    best_simulated_time: float
    simulated_time_at_prediction: float

    @property
    def regret(self) -> float:
        """Relative excess time of the predicted point over the engine's
        best sampled point (0 = the star is optimal under execution)."""
        return (
            self.simulated_time_at_prediction - self.best_simulated_time
        ) / self.best_simulated_time


def star_quality(
    server: ServerSpec,
    *,
    model_name: str = "13B",
    batches: tuple[int, ...] = (24, 36, 48),
    n_samples: int = 7,
) -> list[StarQuality]:
    """The paper's Fig. 9b claim, quantified against the engine.

    For each batch size, Algorithm 1 predicts A*; the engine then
    executes schedules across the A_G2M range (including A*) and we
    measure how much iteration time the prediction leaves on the table.
    """
    from .engine import run_iteration

    policy = RatelPolicy()
    results = []
    for batch in batches:
        profile = profile_model(LLM_PRESETS[model_name], batch)
        hardware = policy.hardware_profile(profile, server)
        model = IterationTimeModel(profile, hardware)
        plan_a = policy.plan(profile, server).a_g2m

        def simulate_at(a_g2m: float) -> float:
            spill = model.a_to_ssd(a_g2m)
            schedule = policy.schedule_for(
                profile, a_g2m - spill, spill, profile.recompute_flops_for(a_g2m)
            )
            return run_iteration(server, schedule).iteration_time

        lo = profile.inter_block_bytes
        hi = profile.activation_bytes_total
        sampled = {
            lo + (hi - lo) * i / (n_samples - 1): None for i in range(n_samples)
        }
        times = {a: simulate_at(a) for a in sampled}
        at_prediction = simulate_at(plan_a)
        best = min(min(times.values()), at_prediction)
        results.append(
            StarQuality(
                batch_size=batch,
                predicted_a_g2m=plan_a,
                predicted_time=model.iteration_time(plan_a),
                best_simulated_time=best,
                simulated_time_at_prediction=at_prediction,
            )
        )
    return results


def run_star_quality_report(server: ServerSpec) -> ExperimentResult:
    """Render the star-quality check (bench target)."""
    points = star_quality(server)
    result = ExperimentResult(
        experiment="validation_stars",
        title="Algorithm 1's predicted optimum vs engine-sampled best (13B)",
        columns=["batch", "A*_GB", "T_at_star_s", "best_sampled_s", "regret_%"],
    )
    for point in points:
        result.add_row(
            point.batch_size,
            point.predicted_a_g2m / 1e9,
            point.simulated_time_at_prediction,
            point.best_simulated_time,
            100 * point.regret,
        )
    worst = max(point.regret for point in points)
    result.note(
        f"worst regret {100 * worst:.1f}% — the paper's 'nearly optimal "
        "predictions' (Fig. 9b stars), checked against execution"
    )
    return result


def run_agreement_report(server: ServerSpec) -> ExperimentResult:
    """Render the agreement sweep as a table (bench target)."""
    points = sweep_agreement(server)
    result = ExperimentResult(
        experiment="validation_agreement",
        title="Analytic Eq. 1-5 vs discrete-event engine: iteration time",
        columns=["model", "batch", "analytic_s", "simulated_s", "error_%"],
    )
    for point in points:
        result.add_row(
            point.model,
            point.batch_size,
            point.analytic_s,
            point.simulated_s,
            100 * point.relative_error,
        )
    worst = max(abs(point.relative_error) for point in points)
    result.note(
        f"worst disagreement {100 * worst:.1f}% — pipeline fill/drain and FIFO "
        "interleaving, which the closed form ignores"
    )
    return result
