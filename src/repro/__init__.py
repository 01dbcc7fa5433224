"""repro — fault-tolerant, dynamically-reconfigurable DMFB CAD.

A production-quality reproduction of Su & Chakrabarty, "Design of
Fault-Tolerant and Dynamically-Reconfigurable Microfluidic Biochips"
(DATE 2005): simulated-annealing module placement for digital
microfluidic biochips with area and fault tolerance as placement
criteria, plus the full substrate stack (assay modeling, architectural
synthesis, maximal-empty-rectangle fault analysis, partial
reconfiguration, on-line testing, and a droplet-level simulator).

Quickstart::

    from repro import (
        build_pcr_mixing_graph, PCR_BINDING, SynthesisFlow, TwoStagePlacer
    )

    flow = SynthesisFlow(placer=TwoStagePlacer(beta=30, seed=7))
    result = flow.run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)
    print(result.summary())
"""

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.assay.protocols.dilution import build_serial_dilution_graph
from repro.assay.protocols.glucose import build_multiplexed_diagnostics_graph
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.assay.synthetic import build_mix_tree
from repro.exec import CampaignJournal, SupervisedPool, TaskOutcome, load_journal
from repro.fault.fti import FTIReport, compute_fti
from repro.fault.tolerance import ToleranceAnalyzer
from repro.fault.reconfigure import PartialReconfigurer, ReconfigurationPlan
from repro.geometry import Box, Interval, Point, Rect
from repro.modules.kinds import ModuleKind
from repro.modules.library import ModuleLibrary, standard_library
from repro.modules.module import ModuleSpec
from repro.pipeline import (
    Pipeline,
    PortfolioResult,
    PortfolioSpec,
    SynthesisContext,
    build_default_pipeline,
    run_portfolio,
)
from repro.recovery import (
    ClosedLoopController,
    OnlineRecoveryEngine,
    RecoveryOutcome,
    SimCheckpoint,
)
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.cost import AreaCost, FaultAwareCost
from repro.placement.greedy import GreedyPlacer
from repro.placement.chip import Chip
from repro.placement.model import PlacedModule, Placement
from repro.placement.sa_placer import PlacementResult, SimulatedAnnealingPlacer
from repro.placement.transport import TransportAwareCost
from repro.placement.two_stage import TwoStagePlacer, TwoStageResult
from repro.routing import (
    Net,
    PrioritizedRouter,
    RoutedNet,
    RoutingEpoch,
    RoutingPlan,
    RoutingSynthesizer,
    TimeGrid,
)
from repro.sim.engine import BiochipSimulator, SimulationReport
from repro.synthesis.binder import Binding, ResourceBinder
from repro.synthesis.flow import SynthesisFlow, SynthesisResult
from repro.synthesis.schedule import Schedule
from repro.synthesis.scheduler import list_schedule
from repro.util.errors import (
    BindingError,
    ExecutionError,
    JournalError,
    KernelBuildError,
    PipelineError,
    PlacementError,
    ReconfigurationError,
    ReproError,
    RoutingError,
    ScheduleError,
    SimulationError,
    UsageError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.workload.campaign import CampaignConfig, CampaignRunner

__version__ = "1.0.0"

__all__ = [
    "AnnealingParams",
    "AreaCost",
    "BiochipSimulator",
    "Binding",
    "BindingError",
    "Box",
    "CampaignConfig",
    "CampaignJournal",
    "CampaignRunner",
    "ClosedLoopController",
    "ExecutionError",
    "FTIReport",
    "FaultAwareCost",
    "GreedyPlacer",
    "Interval",
    "JournalError",
    "KernelBuildError",
    "ModuleKind",
    "ModuleLibrary",
    "ModuleSpec",
    "Net",
    "OnlineRecoveryEngine",
    "Operation",
    "OperationType",
    "PCR_BINDING",
    "PartialReconfigurer",
    "Pipeline",
    "PipelineError",
    "Chip",
    "PlacedModule",
    "Placement",
    "PlacementError",
    "PlacementResult",
    "Point",
    "PortfolioResult",
    "PortfolioSpec",
    "PrioritizedRouter",
    "ReconfigurationError",
    "ReconfigurationPlan",
    "RecoveryOutcome",
    "Rect",
    "ReproError",
    "ResourceBinder",
    "RoutedNet",
    "RoutingEpoch",
    "RoutingError",
    "RoutingPlan",
    "RoutingSynthesizer",
    "Schedule",
    "ScheduleError",
    "SequencingGraph",
    "SimCheckpoint",
    "SimulatedAnnealing",
    "SimulatedAnnealingPlacer",
    "SimulationError",
    "SimulationReport",
    "SupervisedPool",
    "SynthesisContext",
    "SynthesisFlow",
    "SynthesisResult",
    "TaskOutcome",
    "TimeGrid",
    "ToleranceAnalyzer",
    "TransportAwareCost",
    "TwoStagePlacer",
    "TwoStageResult",
    "UsageError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "build_default_pipeline",
    "build_mix_tree",
    "build_multiplexed_diagnostics_graph",
    "build_pcr_mixing_graph",
    "build_serial_dilution_graph",
    "compute_fti",
    "list_schedule",
    "load_journal",
    "run_portfolio",
    "standard_library",
]
