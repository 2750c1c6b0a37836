"""Read-disturbance mitigation mechanisms and their evaluator.

The paper's future work (Section 6) asks how existing mitigation
mechanisms must change for the combined RowHammer+RowPress pattern.  This
package implements the three canonical mechanisms the literature
evaluates -- in-DRAM TRR (sampling-based target-row-refresh), PARA
(probabilistic adjacent-row activation) and Graphene (Misra-Gries
counters) -- as observers of the simulated command stream, plus an
evaluator that measures whether a pattern defeats a configured mechanism
and what parameter the mechanism needs to stay safe as ``tAggON`` grows.
"""

from repro.mitigations.base import Mitigation
from repro.mitigations.trr import TrrSampler
from repro.mitigations.para import Para
from repro.mitigations.graphene import Graphene
from repro.mitigations.timeaware import (
    PressWeightedGraphene,
    PressWeightedPara,
    press_charge,
)
from repro.mitigations.evaluator import (
    GRAPHENE_SEARCH_CAP,
    CriticalParameter,
    MitigationEvaluator,
    ProtectionResult,
)
from repro.mitigations.campaign import (
    EVAL_CHIP_PROFILES,
    MITIGATION_KINDS,
    MITIGATION_T_VALUES,
    MitigationCampaign,
    MitigationPoint,
    MitigationResults,
    MitigationWorkerSpec,
    build_eval_chip,
)

__all__ = [
    "Mitigation",
    "TrrSampler",
    "Para",
    "Graphene",
    "PressWeightedPara",
    "PressWeightedGraphene",
    "press_charge",
    "MitigationEvaluator",
    "ProtectionResult",
    "CriticalParameter",
    "GRAPHENE_SEARCH_CAP",
    "EVAL_CHIP_PROFILES",
    "MITIGATION_KINDS",
    "MITIGATION_T_VALUES",
    "MitigationCampaign",
    "MitigationPoint",
    "MitigationResults",
    "MitigationWorkerSpec",
    "build_eval_chip",
]
