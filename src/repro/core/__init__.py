"""Aladdin core: the paper's primary contribution.

* :mod:`~repro.core.weights` — priority weight derivation (Equations 3–5);
* :mod:`~repro.core.blacklist` — the nonlinear set-based capacity
  function expressing anti-affinity (Equations 7–8);
* :mod:`~repro.core.network_builder` — the layered
  ``source → T → A → G → R → N → sink`` flow network (Section III.A);
* :mod:`~repro.core.search` — the optimised maximum-flow search with
  isomorphism limiting and depth limiting (Algorithm 1, Section IV.A);
* :mod:`~repro.core.machindex` — the incrementally maintained
  packed-first machine ordering shared by both engines;
* :mod:`~repro.core.batchkernel` — the batched block placement kernel
  (one vectorized sweep per application block);
* :mod:`~repro.core.migration` — priority-aware preemption and
  migration (Section III.B, Fig. 3 and Fig. 7): the per-round
  :class:`~repro.core.migration.RescuePlanner` front;
* :mod:`~repro.core.rescuekernel` — the rescue strategies themselves,
  planned on the machine index and a resident ledger;
* :mod:`~repro.core.validate` — the shared Equation 7–9 placement
  validator and the Fig. 9 quality metrics both engines are held to;
* :mod:`~repro.core.scheduler` — :class:`AladdinScheduler`, the
  end-to-end scheduler, and the lifecycle both engines share.
"""

from repro.core.config import AladdinConfig
from repro.core.weights import derive_priority_weights, weighted_flow_value
from repro.core.batchkernel import block_plan
from repro.core.blacklist import BlacklistFunction
from repro.core.machindex import MachineIndex
from repro.core.network_builder import LayeredNetwork, build_layered_network
from repro.core.scheduler import AladdinScheduler
from repro.core.search import FlowPathSearch
from repro.core.validate import (
    QUALITY_TOLERANCE,
    PlacementInvalidError,
    QualityMetrics,
    ValidationReport,
    measure_quality,
    quality_gaps,
    validate_state,
)


__all__ = [
    "AladdinConfig",
    "derive_priority_weights",
    "weighted_flow_value",
    "BlacklistFunction",
    "MachineIndex",
    "block_plan",
    "LayeredNetwork",
    "build_layered_network",
    "AladdinScheduler",
    "FlowPathSearch",
    "QUALITY_TOLERANCE",
    "PlacementInvalidError",
    "QualityMetrics",
    "ValidationReport",
    "measure_quality",
    "quality_gaps",
    "validate_state",
]
