"""The fault layer: the timed fault events every scenario runs.

The paper models a single *permanent* cell, drawn uniformly at random;
the FTI is the probability that such a fault is survivable (Section
5.2). Every entry point — ``repro recover``, campaign grids (so
``batch`` and ``recover --sweep`` too) and the fault-model benchmark —
realizes its faults through :func:`scenario_events`, by way of
:func:`repro.recovery.engine.fault_timeline`, which picks the target
cell first. It pins five variants of that model to one arrival instant
and target cell so their outcomes stay comparable:

=================  ==========================================================
model              timeline (``t`` = arrival, ``M`` = nominal makespan)
=================  ==========================================================
permanent          one fail at ``t``
transient          a fail at ``t``, cleared at ``t + 0.15 M`` when that is
                   still before ``M``
intermittent       fail / clear alternating every ``0.1 M`` from ``t``
                   until ``M``; a lone fail when ``t >= M``
wearout            one fail at ``t`` whose cause reads ``"wearout"``
cluster            the target plus up to two random Chebyshev-adjacent
                   neighbours, all failing at ``t``
=================  ==========================================================

:func:`defect_cells` names the design-time defect patterns: electrodes
dead before the assay starts, which the nominal plan routes around.

Cells are in **placement coordinates** (1-based, ``(1, 1)`` .. ``(width,
height)``). Simulator callers translate to simulator coordinates via
``BiochipSimulator.sim_cell``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.geometry import Point
from repro.util.errors import RecoveryError

#: Event kinds: a cell stops working / resumes working.
FAIL = "fail"
CLEAR = "clear"
_KINDS = (FAIL, CLEAR)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One timed change in a cell's health.

    ``kind == "fail"`` marks the cell faulty from ``time_s`` on;
    ``kind == "clear"`` marks it healthy again (only the transient and
    intermittent models emit clears). ``cause`` names the generating
    model for traces and benchmark aggregation.
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


#: The fault models :func:`scenario_events` realizes.
FAULT_MODELS = ("permanent", "transient", "intermittent", "wearout", "cluster")


#: Design-time defect patterns: electrodes known dead before the assay
#: runs, placed relative to the final array (see :func:`defect_cells`).
DEFECT_PATTERNS = ("none", "center", "corner", "pair", "cluster")


def _ring(cell: Point, width: int, height: int) -> list[Point]:
    """The in-bounds Chebyshev-1 neighbours of *cell*, sorted."""
    return sorted(
        Point(x, y)
        for x in range(max(1, cell.x - 1), min(width, cell.x + 1) + 1)
        for y in range(max(1, cell.y - 1), min(height, cell.y + 1) + 1)
        if (x, y) != (cell.x, cell.y)
    )


def defect_cells(pattern: str, width: int, height: int) -> tuple[Point, ...]:
    """The dead cells of a named defect pattern on a ``width x height``
    placed array: ``none``; one cell at the ``center`` or the origin
    ``corner``; the ``pair`` of both; or a ``cluster`` burst drawn from
    a fixed seed, so it lands on the same cells for a given array size
    in every worker."""
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
        rng = random.Random(2005)
        seed_cell = Point(rng.randint(1, width), rng.randint(1, height))
        rng.uniform(0.0, 1.0)  # the burst's arrival: drawn, unused
        ring = _ring(seed_cell, width, height)
        return (seed_cell, *rng.sample(ring, min(2, len(ring))))
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
    comparable across models — the *timeline* differs, not the grid:
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
        ring = _ring(cell, width, height)
        cells = [cell] + sorted(rng.sample(ring, min(2, len(ring))))
        return tuple(
            FaultEvent(time_s=fault_time, cell=c, kind=FAIL, cause="cluster")
            for c in cells
        )
    raise RecoveryError(
        f"unknown fault model {model!r}; choose from {sorted(FAULT_MODELS)}"
    )
