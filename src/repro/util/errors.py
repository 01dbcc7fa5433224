"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ScheduleError(ReproError):
    """Raised when a bioassay cannot be scheduled (cycle, infeasible cap, ...)."""


class BindingError(ReproError):
    """Raised when an operation cannot be bound to a module specification."""


class PlacementError(ReproError):
    """Raised when a placement is infeasible or violates the core area."""


class CrossCheckError(PlacementError):
    """Raised when the incremental delta-cost path and the full
    recompute disagree about a placement move (cross-check mode)."""


class ReconfigurationError(ReproError):
    """Raised when partial reconfiguration cannot relocate a faulty module."""


class RoutingError(ReproError):
    """Raised when the droplet router cannot find a constraint-satisfying path."""


class KernelBuildError(ReproError):
    """Raised when the compiled kernels (:mod:`repro.kernels`) cannot be
    built or loaded: no C compiler, a failed compile or link, or a
    library that does not load. The message names the command and its
    stderr."""


class SimulationError(ReproError):
    """Raised when the discrete-time biochip simulator reaches an invalid state."""


class PipelineError(ReproError):
    """Raised when a synthesis pipeline is misassembled or a stage's
    prerequisites are missing from the context."""


class RecoveryError(ReproError):
    """Raised when the online fault-recovery engine is misused (e.g. a
    fault injected outside the assay's lifetime, or recovery requested
    without the products it needs), or when checkpoint data is
    corrupted, truncated, or inconsistent with the run it claims to
    snapshot."""


class ExecutionError(ReproError):
    """Base class for failures of the supervised execution layer
    (:mod:`repro.exec`) itself, as opposed to failures of the work it
    runs."""


class WorkerTimeoutError(ExecutionError):
    """Raised (or recorded as a ``timeout`` outcome) when a task
    overruns its per-task deadline on every allowed attempt."""


class WorkerCrashError(ExecutionError):
    """Raised (or recorded as a ``crashed`` outcome) when a worker
    process died — or kept raising non-library exceptions — on every
    allowed attempt of a task."""


class JournalError(ExecutionError):
    """Raised when a campaign journal cannot be read: unreadable file,
    or corruption anywhere except the final (kill-interrupted) line."""


class UsageError(ReproError):
    """Raised by the CLI for invalid flag combinations or unknown
    names — mapped to exit code 2, like argparse's own errors."""
