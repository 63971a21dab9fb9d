"""DLRM workload models (Sections 1, 6.2).

* :mod:`repro.models.dlrm` — parametric DLRM graph construction
  (bottom MLP, embedding bags, interaction, top MLP) over the compiler
  IR, with analytical size/complexity accounting;
* :mod:`repro.models.configs` — the Table IV model zoo (LC1, LC2, MC1,
  MC2, HC), solved to hit the published size (GB) and complexity
  (GFLOPs/batch) targets;
* :mod:`repro.models.trends` — the growth models behind Figures 1-2.
"""

from repro.models.dlrm import DLRMConfig, build_dlrm_graph, model_flops, model_size_bytes
from repro.models.configs import MODEL_ZOO, TABLE_IV_TARGETS

__all__ = [
    "DLRMConfig",
    "MODEL_ZOO",
    "TABLE_IV_TARGETS",
    "build_dlrm_graph",
    "model_flops",
    "model_size_bytes",
]
