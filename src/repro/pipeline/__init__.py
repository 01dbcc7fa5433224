"""Staged synthesis pipeline and portfolio search.

The paper's top-down flow — behavioral model, architectural-level
synthesis, geometry-level synthesis, routing, verification — lives here
in pieces:

* :mod:`repro.pipeline.context` — the shared, picklable
  :class:`SynthesisContext` every stage reads and writes.
* :mod:`repro.pipeline.stages` — the bind / schedule / place / route /
  verify-by-sim stages.
* :mod:`repro.pipeline.pipeline` — the fixed-order, timed stage run
  and :func:`build_default_pipeline`, its one assembler.
* :mod:`repro.pipeline.portfolio` — best-of-N seeded instances in
  parallel on the supervised pool (:class:`repro.exec.SupervisedPool`),
  deterministic winner selection.

:class:`repro.synthesis.flow.SynthesisFlow` remains the one-call
facade; it assembles and runs exactly this pipeline.
"""

from repro.pipeline.context import SynthesisContext, normalize_faulty_cells
from repro.pipeline.pipeline import build_default_pipeline
from repro.pipeline.portfolio import (
    OBJECTIVES,
    InstanceOutcome,
    PortfolioResult,
    PortfolioSpec,
    instance_seeds,
    objective_value,
    run_portfolio,
)
from repro.pipeline.stages import (
    BindStage,
    PlaceStage,
    RouteStage,
    ScheduleStage,
    SimVerifyStage,
)

__all__ = [
    "BindStage",
    "InstanceOutcome",
    "OBJECTIVES",
    "PlaceStage",
    "PortfolioResult",
    "PortfolioSpec",
    "RouteStage",
    "ScheduleStage",
    "SimVerifyStage",
    "SynthesisContext",
    "build_default_pipeline",
    "instance_seeds",
    "normalize_faulty_cells",
    "objective_value",
    "run_portfolio",
]
