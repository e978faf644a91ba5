"""Baseline KV-cache policies, baseline hardware systems and rival accelerators.

* :mod:`repro.baselines.eviction` -- StreamingLLM, H2O and random-eviction
  cache policies (the algorithmic baselines of Table 2).
* :mod:`repro.baselines.quant_kv` -- KIVI-style and QuaRot-style quantized
  KV caches (the quantization baselines of Tables 2 and 6).
* :mod:`repro.baselines.systems` -- the hardware baseline systems of
  Figure 13 (Original+SRAM, Original+eDRAM, AEP+SRAM, AERP+SRAM,
  Kelle+eDRAM).
* :mod:`repro.baselines.accelerators` -- analytical models of the rival edge
  LLM accelerators of Figure 14 (Jetson Orin, LLM.npu, DynaX, COMET).
"""

from repro.baselines.eviction import H2OCache, RandomEvictionCache, StreamingLLMCache
from repro.baselines.quant_kv import QuantizedKVCache
from repro.baselines.systems import (
    SystemConfig,
    build_aep_sram,
    build_aerp_sram,
    build_kelle_edram,
    build_original_edram,
    build_original_sram,
    baseline_suite,
)
from repro.baselines.accelerators import (
    RIVAL_ACCELERATORS,
    RivalAcceleratorModel,
    jetson_orin,
    llm_npu,
    dynax,
    comet,
)

__all__ = [
    "StreamingLLMCache",
    "H2OCache",
    "RandomEvictionCache",
    "QuantizedKVCache",
    "SystemConfig",
    "build_original_sram",
    "build_original_edram",
    "build_aep_sram",
    "build_aerp_sram",
    "build_kelle_edram",
    "baseline_suite",
    "RivalAcceleratorModel",
    "RIVAL_ACCELERATORS",
    "jetson_orin",
    "llm_npu",
    "dynax",
    "comet",
]
