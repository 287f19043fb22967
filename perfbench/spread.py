"""Run-to-run spread of the benchmark: several seeds, raw beside normalised.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload cold_whatif --seeds 1 2 3 4 5 --seconds 15

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile of the runs (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the
median.  The un-normalised op rate (``raw_ops_per_s``) is printed beside
the normalised one, so the effect of the host normalisation is visible.
A seed given twice must repeat its output digests exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("perfbench report "))
    return report, json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", help="also write the runs and spreads to this JSON file")
    args = parser.parse_args(argv)

    runs, digests, ok = [], {}, True
    for seed in args.seeds:
        report, result = run_once(args.workload, seed, args.seconds, 0)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["raw_ops_per_s"] = report["raw_ops_per_s"]
        values["calib_ms"] = report["calib_ms"]
        runs.append({"seed": seed, "ops": report["ops"], "correct": result["correct"], **values})
        print(json.dumps(runs[-1]), flush=True)
        ok = ok and result["correct"]
        if seed in digests and digests[seed] != report["digests"]:
            print(f"seed {seed}: digests differ between runs", file=sys.stderr)
            ok = False
        digests[seed] = report["digests"]

    summary = {}
    if len(runs) >= 2:
        for name in (k for k in runs[0] if k not in ("seed", "ops", "correct")):
            values = [run[name] for run in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values)}
            print(f"{name:>16}: median {summary[name]['median']:.6g}  spread {summary[name]['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs, "spread": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
