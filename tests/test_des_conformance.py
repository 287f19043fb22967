"""The DES moves what the accounting says: bytes per channel, closed form.

For generated LLM and DiT configs on generated servers, every policy
family is compiled and simulated, and the bytes each channel carries are
compared with totals derived only from the model profile (Table II's
per-parameter state sizes) and the policy's activation plan (Eq. 3's
main-memory-first split of ``A_G2M``).  Per iteration, with ``P``
parameters and ``A`` swapped activation bytes of which ``A_ssd``
overflow to the SSD array:

* ``pcie_m2g0`` carries the fp16 parameters twice (forward and
  backward), every swapped activation back, and for a GPU-side
  optimizer the states it reads (P32 + OS32);
* ``pcie_g2m0`` carries every swapped activation out, the fp16
  gradients, and for a GPU-side optimizer the states it writes back
  (P32 + OS32 + P16);
* the SSD array reads the fp16 parameters twice when the states rest
  there, the spilled activations, and the optimizer's P32 + OS32; it
  writes the spilled activations and P32 + OS32 + P16;
* ``cpu_adam`` updates every parameter the CPU optimizer owns (all of
  them, except the slice ZenFlow updates on the GPU).

Both sides are summed with :func:`math.fsum` and must agree to 1e-12
relative; a family the accounting leaves at zero must carry nothing.
"""

from __future__ import annotations

import math
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.baselines import (
    FlashNeuronPolicy,
    G10ActivationPolicy,
    G10Policy,
    GreedySnakePolicy,
    ZenFlowPolicy,
    ZeroInfinityPolicy,
    ZeroOffloadPolicy,
)
from repro.core import RatelPolicy
from repro.core.schedule import OptimizerMode, StatesLocation
from repro.hardware import GB, RTX_3090, RTX_4080, RTX_4090, GiB, evaluation_server

from .test_benefit_order import dit_configs, fresh_profile, llm_configs

POLICIES = (
    *(RatelPolicy(variant) for variant in ("optimized", "naive", "zero", "cpuact")),
    ZeroInfinityPolicy(),
    ZeroOffloadPolicy(),
    FlashNeuronPolicy(),
    G10Policy(assume_gpudirect=True),
    G10ActivationPolicy(),
    ZenFlowPolicy(),
    GreedySnakePolicy(),
)

#: The channels and SSD label families the accounting prices.
SSD_FAMILIES = (
    "fwd_p16_ssd", "bwd_p16_ssd", "act_back_ssd", "opt_read", "act_spill", "opt_write"
)


def planned_split(policy, profile, server) -> tuple[float, float]:
    """``(A_G2M, A_ssd)``: the swapped bytes and their SSD overflow.

    For the Ratel family ``A_G2M`` is Algorithm 1's and the overflow is
    Eq. 3, ``max(0, A_G2M - MEM_avail_M)``; every other system's plan is
    its fixed activation split.
    """
    if isinstance(policy, RatelPolicy):
        a_g2m = policy.plan(profile, server).a_g2m
        budget = policy.hardware_profile(profile, server).mem_avail_main
        return a_g2m, max(0.0, a_g2m - budget)
    to_main, to_ssd, _ = policy.activation_split(profile, server)
    return to_main + to_ssd, to_ssd


def expected_traffic(policy, profile, server) -> dict[str, float]:
    """Per-iteration totals from Table II and the activation plan."""
    states = profile.states
    a_g2m, a_ssd = planned_split(policy, profile, server)
    offloaded = policy.states_location is not StatesLocation.GPU
    on_ssd = policy.states_location is StatesLocation.SSD
    gpu_optimizer = policy.optimizer_mode is OptimizerMode.DEFERRED_GPU
    cpu_share = 1.0 - policy.critical_frac
    p16 = states.p16 if offloaded else 0.0
    state_read = states.optimizer_read if offloaded else 0.0
    state_write = states.optimizer_write if offloaded else 0.0
    if not gpu_optimizer:
        state_read *= cpu_share
        state_write *= cpu_share
    return {
        "ssd/fwd_p16_ssd": p16 if on_ssd else 0.0,
        "ssd/bwd_p16_ssd": p16 if on_ssd else 0.0,
        "ssd/act_back_ssd": a_ssd,
        "ssd/act_spill": a_ssd,
        "ssd/opt_read": state_read if on_ssd else 0.0,
        "ssd/opt_write": state_write if on_ssd else 0.0,
        "pcie_m2g0": math.fsum([p16, p16, a_g2m, state_read if gpu_optimizer else 0.0]),
        "pcie_g2m0": math.fsum(
            [a_g2m, states.g16 if offloaded else 0.0, state_write if gpu_optimizer else 0.0]
        ),
        "cpu_adam": 0.0 if gpu_optimizer or not offloaded else cpu_share * profile.n_params,
    }


def simulated_traffic(trace) -> dict[str, float]:
    """The same totals read off the trace, SSD traffic by label family."""
    amounts: dict[str, list[float]] = defaultdict(list)
    for interval in trace.intervals:
        if interval.resource == "ssd":
            family = interval.label.rsplit("_b", 1)[0]
            assert family in SSD_FAMILIES, interval.label
            amounts[f"ssd/{family}"].append(interval.amount)
        elif interval.resource in ("pcie_m2g0", "pcie_g2m0", "cpu_adam"):
            amounts[interval.resource].append(interval.amount)
    return {key: math.fsum(values) for key, values in amounts.items()}


def assert_conforms(policy, profile, server) -> None:
    result = policy.simulate(profile, server, check=False)
    got = simulated_traffic(result.trace)
    for key, want in expected_traffic(policy, profile, server).items():
        value = got.pop(key, 0.0)
        assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0), (
            f"{policy.name}: {key} moved {value!r}, accounting says {want!r}"
        )
    assert not got, f"{policy.name}: unaccounted traffic {got}"


@given(
    config=st.one_of(llm_configs, dit_configs),
    batch=st.integers(1, 64),
    gpu=st.sampled_from([RTX_4090, RTX_3090, RTX_4080]),
    dram=st.integers(64, 1024),
    n_ssds=st.integers(0, 16),
)
@settings(max_examples=100, deadline=None)
def test_channel_bytes_match_the_accounting(config, batch, gpu, dram, n_ssds):
    profile = fresh_profile(config, batch)
    server = evaluation_server(gpu=gpu, main_memory_bytes=dram * GB, n_ssds=n_ssds)
    for policy in POLICIES:
        if policy.supported_on(server):
            assert_conforms(policy, profile, server)


def test_accounting_sees_every_family():
    """On a preset where every leg moves, no expected total is zero."""
    from repro.models import llm, profile_model

    profile = profile_model(llm("13B"), 64)
    server = evaluation_server(main_memory_bytes=128 * GiB, n_ssds=6)
    ratel = expected_traffic(RatelPolicy(), profile, server)
    assert all(value > 0 for value in ratel.values()), ratel
    g10 = expected_traffic(G10Policy(assume_gpudirect=True), profile, server)
    assert g10["cpu_adam"] == 0.0 and g10["pcie_m2g0"] > ratel["pcie_m2g0"]
    for policy in (RatelPolicy(), G10Policy(assume_gpudirect=True), FlashNeuronPolicy()):
        assert_conforms(policy, profile, server)
