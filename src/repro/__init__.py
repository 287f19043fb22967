"""Reproduction of *Ratel: Optimizing Holistic Data Movement to
Fine-tune 100B Model on a Consumer GPU* (ICDE 2025).

Layout:

* :mod:`repro.hardware`    — device/server specs (Table III/VII presets).
* :mod:`repro.sim`         — the discrete-event simulation substrate.
* :mod:`repro.models`      — model accounting (Table IV/VI presets,
  per-layer FLOPs/activations, Table II footprints).
* :mod:`repro.core`        — Ratel itself: profiling, the Eq. 1-8
  iteration-time model, Algorithm 1, active gradient offloading,
  capacity planning, the iteration engine, multi-GPU.
* :mod:`repro.baselines`   — ZeRO-Infinity/-Offload, Colossal-AI,
  FlashNeuron, G10, Capuchin, Checkmate, Megatron-LM, Fast-DiT.
* :mod:`repro.runtime`     — a functional NumPy training runtime with
  real tiered storage, checkpoint/offload hooks, out-of-core CPU Adam
  and the paper's Fig.-4 API.
* :mod:`repro.runner`      — sweep orchestration: content-keyed result
  caching (memory LRU + on-disk JSON), parallel fan-out, progress hooks;
  the single evaluation entry point for experiments/benchmarks/CLI.
* :mod:`repro.experiments` — one harness per paper table/figure.
* :mod:`repro.analysis`    — cost-effectiveness + result rendering.
* :mod:`repro.fleet`       — multi-tenant scheduling of concurrent
  fine-tuning jobs across a heterogeneous simulated cluster.
"""

from repro.core import RatelPolicy
from repro.runtime import RatelOptimizer, ratel_hook, ratel_init

__version__ = "1.0.0"

__all__ = ["RatelPolicy", "RatelOptimizer", "ratel_hook", "ratel_init", "__version__"]
