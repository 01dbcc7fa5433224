"""Online fault recovery: mid-assay checkpointing, incremental
re-synthesis of the not-yet-started suffix, and closed-loop detection.

This package composes the prior subsystems into the paper's actual
story — a chip that keeps executing after a cell dies mid-run:

* :class:`OnlineRecoveryEngine` — checkpoint the live state, warm-start
  re-place the pending modules around the frozen in-flight ones,
  re-route only the suffix epochs against the new fault mask, and
  resume the simulator; :data:`RECOVERY_RUNGS` names its
  graceful-degradation levels (suffix re-route only / re-place +
  re-route / escalated warm-restart re-synthesis).
* :class:`ClosedLoopController` — detection-driven recovery: faults
  become visible only through imperfect probe campaigns
  (:mod:`repro.testing`), confirmed detections climb the rung ladder,
  missed faults fall to the stuck-droplet watchdog, and an ``oracle``
  mode keeps the perfect-knowledge reference path.
* Recovery sweeps over (assay x fault arrival x fault site) grids run
  on the campaign engine
  (:func:`repro.workload.campaign.recovery_sweep_preset`).
* :class:`~repro.sim.engine.SimCheckpoint` — the simulator-level live
  snapshot (re-exported from :mod:`repro.sim.engine`).
"""

from repro.recovery.closedloop import (
    DETECTION_MODES,
    ClosedLoopController,
    ClosedLoopOutcome,
    Detection,
    LadderStep,
)
from repro.recovery.engine import (
    FAULT_TARGETS,
    RECOVERY_RUNGS,
    FaultAvoidanceCost,
    OnlineRecoveryEngine,
    RecoveryOutcome,
    pick_fault_cell,
)
from repro.sim.engine import SimCheckpoint

__all__ = [
    "DETECTION_MODES",
    "FAULT_TARGETS",
    "RECOVERY_RUNGS",
    "ClosedLoopController",
    "ClosedLoopOutcome",
    "Detection",
    "FaultAvoidanceCost",
    "LadderStep",
    "OnlineRecoveryEngine",
    "RecoveryOutcome",
    "SimCheckpoint",
    "pick_fault_cell",
]
