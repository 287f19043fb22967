"""Golden Algorithm 1 plans: every Ratel variant, bit for bit.

``tests/golden/ratel_plans.json`` pins 684 plans: the eight Table IV LLM
presets, the six Table VI DiT presets and five synthetic LLM sizes, at
batches 1, 8 and 32, on three servers, for the four Ratel variants.  The
grid reaches all three §IV-D cases.  Floats are stored with
``float.hex`` so the comparison is exact, and ``a_g2m`` also records its
Python type: a PCIE_BOUND plan returns the ``A_interBlock`` floor itself,
which is an ``int``.

Planner optimisations must leave every record unchanged.  Regenerate the
file only for a deliberate change of plans::

    PYTHONPATH=src python tests/test_plan_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import RatelPolicy
from repro.hardware import RTX_3090, RTX_4080, RTX_4090, GiB, evaluation_server
from repro.models import DIT_PRESETS, LLM_PRESETS, profile_model, synthetic_llm

GOLDEN = Path(__file__).parent / "golden" / "ratel_plans.json"

BATCHES = (1, 8, 32)
VARIANTS = ("optimized", "naive", "zero", "cpuact")
SYNTHETIC_BILLIONS = (0.3, 2, 50, 300, 700)


def _configs() -> list[tuple[str, object]]:
    configs: list[tuple[str, object]] = [(f"llm-{n}", c) for n, c in LLM_PRESETS.items()]
    configs += [(f"dit-{n}", c) for n, c in DIT_PRESETS.items()]
    configs += [(f"synthetic-{b}B", synthetic_llm(b * 1e9)) for b in SYNTHETIC_BILLIONS]
    return configs


def _servers() -> list[tuple[str, object]]:
    return [
        ("4090-768GiB-12ssd", evaluation_server(gpu=RTX_4090, main_memory_bytes=768 * GiB, n_ssds=12)),
        ("3090-256GiB-6ssd", evaluation_server(gpu=RTX_3090, main_memory_bytes=256 * GiB, n_ssds=6)),
        ("4080-128GiB-1ssd", evaluation_server(gpu=RTX_4080, main_memory_bytes=128 * GiB, n_ssds=1)),
    ]


def _hex(value: float) -> str:
    return float(value).hex()


def plan_records() -> list[dict]:
    """One record per plan of the grid, floats in exact hex form."""
    records = []
    for variant in VARIANTS:
        policy = RatelPolicy(variant)
        for config_name, config in _configs():
            for batch in BATCHES:
                profile = profile_model(config, batch)
                for server_name, server in _servers():
                    plan = policy.plan(profile, server)
                    records.append(
                        {
                            "variant": variant,
                            "config": config_name,
                            "batch": batch,
                            "server": server_name,
                            "a_g2m": [type(plan.a_g2m).__name__, _hex(plan.a_g2m)],
                            "case": plan.case.name,
                            "swapped": list(plan.swapped),
                            "total": _hex(plan.estimate.total),
                            "recompute_flops": _hex(plan.estimate.recompute_flops),
                        }
                    )
    return records


def test_plans_match_golden_exactly():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {record["case"] for record in golden} == {"PCIE_BOUND", "GPU_BOUND", "INTERIOR"}
    assert {record["a_g2m"][0] for record in golden} == {"int", "float"}
    current = plan_records()
    assert len(current) == len(golden)
    mismatched = [(want, got) for want, got in zip(golden, current) if want != got]
    assert not mismatched, f"{len(mismatched)} plans changed; first: {mismatched[0]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        handle.write(",\n".join(json.dumps(r, sort_keys=True) for r in plan_records()))
        handle.write("\n]\n")
    print(f"wrote {GOLDEN}")
