"""Fault taxonomy: seeded, deterministic fault arrival processes.

The paper (and the seed repo's :class:`~repro.fault.injection.FaultInjector`)
models a single *permanent* stuck-at cell drawn uniformly at random. Real
electrode arrays fail in richer ways — the testing literature the paper
builds on ([13]/[14]) distinguishes catastrophic from parametric faults,
and follow-up work on yield enhancement treats clustered defects and
electrode degradation explicitly. This module makes that taxonomy
first-class:

=================  ==========================================================
process            physical story
=================  ==========================================================
permanent          dielectric breakdown: the electrode is dead for good
transient          droplet-residue contamination that clears after a fixed
                   self-recovery interval (evaporation / flushing)
intermittent       a marginal electrode that fails and recovers on a duty
                   cycle (thermal cycling, loose contact)
wearout            actuation-count-dependent degradation: cells actuated most
                   often fail first (charge trapping in the dielectric)
cluster            spatially-correlated multi-cell defects (a scratch or a
                   contaminated region), all failing together
=================  ==========================================================

Every process is a :class:`FaultProcess` whose :meth:`~FaultProcess.events`
draws a finite, time-sorted stream of :class:`FaultEvent` records from an
explicit :class:`random.Random`. Determinism is a hard contract: the same
seed yields the bit-identical event stream (a Hypothesis property test pins
this), which is what makes closed-loop recovery campaigns reproducible for
any ``--jobs``.

Cells are in **placement coordinates** (1-based, ``(1, 1)`` .. ``(width,
height)``) — the same convention as the design-time defect patterns of
:func:`defect_cells`, which are exactly the degenerate
:class:`PermanentStuckAt` case (see :meth:`PermanentStuckAt.from_cells`).
Simulator callers translate to simulator coordinates via
``BiochipSimulator.sim_cell``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.geometry import Point
from repro.util.errors import RecoveryError
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # placement/routing import fault's cost hooks; avoid cycles
    from repro.placement.model import Placement
    from repro.routing.plan import RoutingPlan

#: Event kinds: a cell stops working / resumes working.
FAIL = "fail"
CLEAR = "clear"
_KINDS = (FAIL, CLEAR)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One timed change in a cell's health.

    ``kind == "fail"`` marks the cell faulty from ``time_s`` on;
    ``kind == "clear"`` marks it healthy again (only transient and
    intermittent processes emit clears). ``cause`` names the generating
    process for traces and benchmark aggregation.
    """

    time_s: float
    cell: Point
    kind: str = FAIL
    cause: str = "permanent"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"fault event kind must be one of {_KINDS}, got {self.kind!r}")
        if self.time_s < 0:
            raise ValueError(f"fault event time must be >= 0, got {self.time_s}")

    def to_dict(self) -> dict:
        return {
            "time_s": round(self.time_s, 6),
            "cell": [self.cell.x, self.cell.y],
            "kind": self.kind,
            "cause": self.cause,
        }

    @classmethod
    def from_dict(cls, data: dict) -> FaultEvent:
        return cls(
            time_s=float(data["time_s"]),
            cell=Point(*data["cell"]),
            kind=data.get("kind", FAIL),
            cause=data.get("cause", "permanent"),
        )


class FaultProcess:
    """Base class: a seeded generator of timed fault events on an array.

    Subclasses implement :meth:`_sample`, drawing from the supplied
    :class:`random.Random` only (never the global RNG). Callers use
    :meth:`realize`, which validates the stream invariants every consumer
    relies on:

    * events are sorted by time (stable within a tie);
    * every cell lies inside the ``width x height`` array;
    * a ``clear`` is only emitted for a cell that is currently failed,
      and a ``fail`` only for a cell that is currently healthy (no
      double-fail / double-clear).
    """

    name = "process"

    def __init__(self, width: int, height: int, horizon_s: float) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        self.width = width
        self.height = height
        self.horizon_s = float(horizon_s)

    # -- subclass hook -------------------------------------------------
    def _sample(self, rng: random.Random) -> list[FaultEvent]:
        raise NotImplementedError

    # -- public API ----------------------------------------------------
    def events(self, rng: random.Random) -> tuple[FaultEvent, ...]:
        """Draw one realization from *rng* (mutates *rng*'s state)."""
        drawn = sorted(self._sample(rng), key=lambda e: e.time_s)
        self._validate(drawn)
        return tuple(drawn)

    def realize(self, seed: int | random.Random | None) -> tuple[FaultEvent, ...]:
        """Draw one realization from a fresh RNG seeded with *seed*."""
        return self.events(ensure_rng(seed))

    def _validate(self, events: Sequence[FaultEvent]) -> None:
        failed: set[Point] = set()
        for event in events:
            if not (1 <= event.cell.x <= self.width and 1 <= event.cell.y <= self.height):
                raise ValueError(
                    f"{self.name} fault process emitted {event.cell} outside "
                    f"the {self.width}x{self.height} array"
                )
            if event.kind == FAIL:
                if event.cell in failed:
                    raise ValueError(f"{self.name}: double fail on {event.cell}")
                failed.add(event.cell)
            else:
                if event.cell not in failed:
                    raise ValueError(f"{self.name}: clear of healthy cell {event.cell}")
                failed.discard(event.cell)

    def _random_cell(self, rng: random.Random, taken: set[Point]) -> Point:
        """Uniform healthy-cell draw (rejection on *taken*)."""
        if len(taken) >= self.width * self.height:
            raise ValueError("no healthy cells left to fail")
        while True:
            cell = Point(rng.randint(1, self.width), rng.randint(1, self.height))
            if cell not in taken:
                return cell

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.width}x{self.height}, "
            f"horizon={self.horizon_s:.3g}s)"
        )


class PermanentStuckAt(FaultProcess):
    """Explicit timed permanent faults — the degenerate, deterministic case.

    This is the bridge from the existing fault plumbing: a resolved
    defect pattern (:func:`defect_cells`: cells, no times) or the
    CLI's paired ``--cell``/``--fault-time`` flags become a
    ``PermanentStuckAt`` whose :meth:`events` ignores the RNG entirely.
    """

    name = "permanent"

    def __init__(
        self,
        width: int,
        height: int,
        horizon_s: float,
        arrivals: Iterable[tuple[float, Point | tuple[int, int]]],
    ) -> None:
        super().__init__(width, height, horizon_s)
        self.arrivals = tuple((float(t), Point(*c)) for t, c in arrivals)

    @classmethod
    def from_cells(
        cls,
        cells: Iterable[Point | tuple[int, int]],
        width: int,
        height: int,
        horizon_s: float,
        time_s: float = 0.0,
    ) -> PermanentStuckAt:
        """Lift an untimed cell set (e.g. a resolved defect pattern) to
        a process with every fault arriving at *time_s*."""
        return cls(width, height, horizon_s, [(time_s, Point(*c)) for c in cells])

    def _sample(self, rng: random.Random) -> list[FaultEvent]:
        return [FaultEvent(t, c, FAIL, self.name) for t, c in self.arrivals]


class RandomPermanentFaults(FaultProcess):
    """*count* permanent faults at uniform arrival times on distinct cells.

    Pass *weight_fn* to bias cell choice (shared convention with
    :class:`~repro.fault.injection.FaultInjector`).
    """

    name = "random-permanent"

    def __init__(
        self,
        width: int,
        height: int,
        horizon_s: float,
        count: int = 1,
        weight_fn: Callable[[Point], float] | None = None,
    ) -> None:
        super().__init__(width, height, horizon_s)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if count > width * height:
            raise ValueError(f"count {count} exceeds the {width * height}-cell array")
        self.count = count
        self.weight_fn = weight_fn

    def _draw_cell(self, rng: random.Random, taken: set[Point]) -> Point:
        if self.weight_fn is None:
            return self._random_cell(rng, taken)
        cells = [
            Point(x, y)
            for y in range(1, self.height + 1)
            for x in range(1, self.width + 1)
            if Point(x, y) not in taken
        ]
        weights = [self.weight_fn(p) for p in cells]
        if min(weights) < 0:
            raise ValueError("failure weights must be non-negative")
        if sum(weights) <= 0:
            return self._random_cell(rng, taken)
        return rng.choices(cells, weights=weights, k=1)[0]

    def _sample(self, rng: random.Random) -> list[FaultEvent]:
        taken: set[Point] = set()
        out = []
        for _ in range(self.count):
            cell = self._draw_cell(rng, taken)
            taken.add(cell)
            out.append(FaultEvent(rng.uniform(0.0, self.horizon_s), cell, FAIL, self.name))
        return out


class TransientFaults(FaultProcess):
    """Self-clearing faults: fail at a uniform arrival, clear *duration_s*
    later (residue contamination that evaporates or is flushed)."""

    name = "transient"

    def __init__(
        self,
        width: int,
        height: int,
        horizon_s: float,
        count: int = 1,
        duration_s: float | None = None,
    ) -> None:
        super().__init__(width, height, horizon_s)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = count
        self.duration_s = float(duration_s) if duration_s is not None else 0.15 * self.horizon_s
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")

    def _sample(self, rng: random.Random) -> list[FaultEvent]:
        taken: set[Point] = set()
        out = []
        for _ in range(self.count):
            cell = self._random_cell(rng, taken)
            taken.add(cell)
            start = rng.uniform(0.0, self.horizon_s)
            out.append(FaultEvent(start, cell, FAIL, self.name))
            out.append(FaultEvent(start + self.duration_s, cell, CLEAR, self.name))
        return out


class IntermittentFault(FaultProcess):
    """A duty-cycled marginal electrode: from a uniform onset, the cell
    alternates failed (``duty`` of each period) and healthy until the
    horizon."""

    name = "intermittent"

    def __init__(
        self,
        width: int,
        height: int,
        horizon_s: float,
        period_s: float | None = None,
        duty: float = 0.5,
        count: int = 1,
    ) -> None:
        super().__init__(width, height, horizon_s)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        self.count = count
        self.duty = duty
        self.period_s = float(period_s) if period_s is not None else 0.25 * self.horizon_s
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")

    def _sample(self, rng: random.Random) -> list[FaultEvent]:
        taken: set[Point] = set()
        out = []
        for _ in range(self.count):
            cell = self._random_cell(rng, taken)
            taken.add(cell)
            # Onset in the first half so at least one full cycle lands
            # inside the horizon for default parameters.
            onset = rng.uniform(0.0, 0.5 * self.horizon_s)
            t = onset
            while t < self.horizon_s:
                out.append(FaultEvent(t, cell, FAIL, self.name))
                out.append(FaultEvent(t + self.duty * self.period_s, cell, CLEAR, self.name))
                t += self.period_s
        return out


class WearOutProcess(FaultProcess):
    """Actuation-count-dependent wear-out.

    Each candidate cell's hazard rate is proportional to its actuation
    count (Laplace-smoothed so unactuated cells can still fail); failure
    times are exponential draws scaled so a cell with *average* wear has
    its median failure around ``0.35 * horizon_s / hazard_scale``. Draws
    landing beyond the horizon mean the cell never fails during the
    assay — with few actuations and a small *hazard_scale* an empty
    realization is the common (and correct) outcome.
    """

    name = "wearout"

    def __init__(
        self,
        width: int,
        height: int,
        horizon_s: float,
        actuation_counts: Mapping[Point, int] | None = None,
        hazard_scale: float = 1.0,
        count: int = 1,
    ) -> None:
        super().__init__(width, height, horizon_s)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if hazard_scale <= 0:
            raise ValueError(f"hazard_scale must be > 0, got {hazard_scale}")
        self.count = count
        self.hazard_scale = hazard_scale
        self.actuation_counts = dict(actuation_counts or {})

    def _weight(self, cell: Point) -> float:
        return 1.0 + float(self.actuation_counts.get(cell, 0))

    def _sample(self, rng: random.Random) -> list[FaultEvent]:
        cells = [
            Point(x, y)
            for y in range(1, self.height + 1)
            for x in range(1, self.width + 1)
        ]
        mean_weight = sum(self._weight(c) for c in cells) / len(cells)
        taken: set[Point] = set()
        out = []
        for _ in range(min(self.count, len(cells))):
            candidates = [c for c in cells if c not in taken]
            weights = [self._weight(c) for c in candidates]
            cell = rng.choices(candidates, weights=weights, k=1)[0]
            taken.add(cell)
            rate = self.hazard_scale * self._weight(cell) / mean_weight
            u = rng.random()
            t = 0.5 * self.horizon_s * (-math.log(max(1e-12, 1.0 - u))) / rate
            if t < self.horizon_s:
                out.append(FaultEvent(t, cell, FAIL, self.name))
        return out


class ClusteredFaults(FaultProcess):
    """Spatially-correlated multi-cell defects: a uniform seed cell plus
    up to ``cluster_size - 1`` neighbours within Chebyshev *radius*, all
    failing together at one uniform arrival time."""

    name = "cluster"

    def __init__(
        self,
        width: int,
        height: int,
        horizon_s: float,
        cluster_size: int = 3,
        radius: int = 1,
        clusters: int = 1,
    ) -> None:
        super().__init__(width, height, horizon_s)
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        if clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {clusters}")
        self.cluster_size = cluster_size
        self.radius = radius
        self.clusters = clusters

    def _sample(self, rng: random.Random) -> list[FaultEvent]:
        taken: set[Point] = set()
        out = []
        for _ in range(self.clusters):
            seed_cell = self._random_cell(rng, taken)
            arrival = rng.uniform(0.0, self.horizon_s)
            neighbourhood = sorted(
                Point(x, y)
                for x in range(seed_cell.x - self.radius, seed_cell.x + self.radius + 1)
                for y in range(seed_cell.y - self.radius, seed_cell.y + self.radius + 1)
                if 1 <= x <= self.width and 1 <= y <= self.height
                and Point(x, y) != seed_cell and Point(x, y) not in taken
            )
            extras = rng.sample(
                neighbourhood, min(self.cluster_size - 1, len(neighbourhood))
            )
            for cell in (seed_cell, *extras):
                taken.add(cell)
                out.append(FaultEvent(arrival, cell, FAIL, self.name))
        return out


#: CLI / sweep registry: model name -> process builder. Builders take the
#: array dims and time horizon plus per-model keyword overrides.
FAULT_MODELS: dict[str, Callable[..., FaultProcess]] = {
    "permanent": RandomPermanentFaults,
    "transient": TransientFaults,
    "intermittent": IntermittentFault,
    "wearout": WearOutProcess,
    "cluster": ClusteredFaults,
}


#: Design-time defect patterns: electrodes known dead before the assay
#: runs, placed relative to the final array (see :func:`defect_cells`).
DEFECT_PATTERNS = ("none", "center", "corner", "pair", "cluster")


def defect_cells(pattern: str, width: int, height: int) -> tuple[Point, ...]:
    """The dead cells of a named defect pattern on a ``width x height``
    placed array: ``none``; one cell at the ``center`` or the origin
    ``corner``; the ``pair`` of both; or a ``cluster`` burst realized
    from :class:`ClusteredFaults` under a fixed seed, so it lands on
    the same cells for a given array size in every process."""
    center = Point((width + 1) // 2, (height + 1) // 2)
    corner = Point(1, 1)
    if pattern == "none":
        return ()
    if pattern == "center":
        return (center,)
    if pattern == "corner":
        return (corner,)
    if pattern == "pair":
        return (corner, center) if corner != center else (center,)
    if pattern == "cluster":
        process = ClusteredFaults(width, height, horizon_s=1.0)
        return tuple({e.cell: None for e in process.realize(2005) if e.kind == FAIL})
    raise ValueError(
        f"unknown fault pattern {pattern!r}; choose from {DEFECT_PATTERNS}"
    )


def scenario_events(
    model: str,
    cell: Point,
    fault_time: float,
    makespan: float,
    width: int,
    height: int,
    rng,
) -> tuple[FaultEvent, ...]:
    """Realize one scenario's fault timeline, pinned for comparability.

    Every model anchors its (first) fault at the scenario's arrival
    instant and target cell, so success rates and latencies are
    comparable across models — the *process* differs, not the grid:
    ``permanent`` is the degenerate single fail, ``transient``
    self-clears after 15% of the makespan, ``intermittent``
    duty-cycles with a 20%-makespan period until the horizon,
    ``wearout`` is a permanent fail whose cause records the hazard
    mechanism, and ``cluster`` additionally kills up to two random
    Chebyshev-adjacent neighbors at the same instant.
    """
    def mk(t: float, kind: str, cause: str) -> FaultEvent:
        return FaultEvent(time_s=t, cell=cell, kind=kind, cause=cause)
    if model == "permanent":
        return (mk(fault_time, FAIL, "permanent"),)
    if model == "wearout":
        return (mk(fault_time, FAIL, "wearout"),)
    if model == "transient":
        clear = fault_time + 0.15 * makespan
        events = [mk(fault_time, FAIL, "transient")]
        if clear < makespan:
            events.append(mk(clear, CLEAR, "transient"))
        return tuple(events)
    if model == "intermittent":
        period = max(0.2 * makespan, 1e-9)
        events, t, kind = [], fault_time, FAIL
        while t < makespan:
            events.append(mk(t, kind, "intermittent"))
            t += period / 2.0
            kind = CLEAR if kind == FAIL else FAIL
        return tuple(events) or (mk(fault_time, FAIL, "intermittent"),)
    if model == "cluster":
        neighborhood = sorted(
            Point(x, y)
            for x in range(max(1, cell.x - 1), min(width, cell.x + 1) + 1)
            for y in range(max(1, cell.y - 1), min(height, cell.y + 1) + 1)
            if (x, y) != (cell.x, cell.y)
        )
        extras = (
            rng.sample(neighborhood, min(2, len(neighborhood)))
            if neighborhood
            else []
        )
        cells = [cell] + sorted(extras)
        return tuple(
            FaultEvent(time_s=fault_time, cell=c, kind=FAIL, cause="cluster")
            for c in cells
        )
    raise RecoveryError(
        f"unknown fault model {model!r}; choose from {sorted(FAULT_MODELS)}"
    )


def build_fault_process(
    name: str, width: int, height: int, horizon_s: float, **overrides
) -> FaultProcess:
    """Build a registered fault process; raise ``ValueError`` on an
    unknown name (the CLI maps this to a usage error)."""
    try:
        builder = FAULT_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_MODELS))
        raise ValueError(f"unknown fault model {name!r} (choose from: {known})") from None
    return builder(width, height, horizon_s, **overrides)


def actuation_counts(
    placement: Placement,
    routing_plan: RoutingPlan | None = None,
) -> dict[Point, int]:
    """Per-cell actuation counts, the wear-out hazard's driving data.

    Two contributions, both in placement coordinates:

    * **module dwell** — every cell of a placed module's footprint is
      held actuated for the operation's duration, counted at one
      actuation per second (the paper's electrodes cycle at ~Hz order;
      the proxy only needs to be *relatively* correct across cells);
    * **transport** — every trajectory cell of every routed net is one
      actuation (waits hold the electrode on, so they count too).
    """
    counts: dict[Point, int] = {}
    for module in placement:
        dwell = max(1, round(module.stop - module.start))
        for cell in module.footprint.cells():
            p = Point(cell.x, cell.y)
            counts[p] = counts.get(p, 0) + dwell
    if routing_plan is not None:
        margin = routing_plan.margin
        for net in routing_plan.nets:
            for cell in net.cells:
                p = cell.translated(-margin, -margin)
                counts[p] = counts.get(p, 0) + 1
    return counts


def wearout_weight_fn(
    counts: Mapping[Point, int], baseline: float = 1.0
) -> Callable[[Point], float]:
    """Lift actuation counts into a :class:`FaultInjector` *weight_fn* —
    the non-uniform failure model the injector's docstring promised once
    degradation data existed. *baseline* keeps unactuated cells failable."""
    if baseline < 0:
        raise ValueError(f"baseline must be >= 0, got {baseline}")
    return lambda p: baseline + float(counts.get(p, 0))
