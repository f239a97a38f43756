"""Continuous subgraph matching baselines, adapted to TCSM.

All eight systems share the stream/pinned-delta substrate in
:mod:`repro.baselines.csm.stream`; each contributes the candidate-index
mechanism the original paper is known for.  See DESIGN.md §3 for the
fidelity notes per system.
"""

from .calig import CaLiGMatcher
from .graphflow import GraphflowMatcher
from .iedyn import IEDynMatcher
from .newsp import NewSPMatcher
from .rapidflow import RapidFlowMatcher
from .sjtree import SJTreeMatcher
from .stream import CSMMatcherBase
from .symbi import SymBiMatcher
from .turboflux import TurboFluxMatcher

__all__ = [
    "CSMMatcherBase",
    "CaLiGMatcher",
    "GraphflowMatcher",
    "IEDynMatcher",
    "NewSPMatcher",
    "RapidFlowMatcher",
    "SJTreeMatcher",
    "SymBiMatcher",
    "TurboFluxMatcher",
]
