"""Routing-plan data model: nets, routed trajectories, verification.

A *net* is one droplet-transport request of the synthesized assay: move
the product of a producer operation from its parking cell to an input
cell of a consumer module. The prioritized router turns nets into
:class:`RoutedNet` trajectories — per-timestep positions including
wait-in-place steps — grouped into :class:`RoutingEpoch` batches (all
nets released at one schedule instant, routed concurrently). The
:class:`RoutingPlan` bundles the epochs and *proves* the result safe:
:meth:`RoutingPlan.verify` re-checks every constraint from scratch,
independent of the router that produced the plan. The proof runs in
C (``route_verify`` in ``_route.c``) whenever the compiled kernels load;
its Python form is the oracle, and runs on a reported violation to
write the error.

Fluidic-constraint conventions (Su/Chakrabarty/Pamula):

* two unrelated droplets must never be within one cell of each other
  (Chebyshev distance >= 2), at the same timestep *and* across
  consecutive timesteps (the dynamic constraint);
* droplets feeding the *same* consumer are allowed to close in on each
  other once both are inside that consumer's footprint — merging is the
  operation's first phase;
* shares split from the *same* producer may coexist inside the
  producer's footprint — the split happens there.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import dataclass
from functools import cached_property

from repro.geometry import Point, Rect
from repro.placement import compiled
from repro.util.errors import RoutingError
from repro.util.tables import format_table


def chebyshev(a: Point, b: Point) -> int:
    """Chebyshev (L-infinity) distance; the fluidic constraint requires >= 2."""
    return max(abs(a.x - b.x), abs(a.y - b.y))


@dataclass(frozen=True)
class Net:
    """One routing request: move a droplet from *source* to *goal*."""

    net_id: str
    source: Point
    goal: Point
    #: Operation whose product this droplet is (split zone), if any.
    producer: str | None = None
    #: Operation that will consume this droplet (merge zone), if any.
    consumer: str | None = None
    #: Schedule criticality; larger routes first.
    priority: float = 0.0

    @property
    def manhattan(self) -> int:
        """Lower bound on route length (moves)."""
        return self.source.manhattan_distance(self.goal)

    @property
    def exempt_ops(self) -> frozenset[str]:
        """Module owners whose footprints this net may enter."""
        return frozenset(o for o in (self.producer, self.consumer) if o is not None)

    def __str__(self) -> str:
        return f"{self.net_id}: {self.source}->{self.goal}"


@dataclass(frozen=True)
class RoutedNet:
    """A net with its time-annotated trajectory.

    ``cells[i]`` is the droplet's position at epoch-local step ``i``
    (every droplet of an epoch departs at its step 0); consecutive
    entries are either equal (a wait-in-place step) or 4-adjacent (one
    electrode actuation).
    """

    net: Net
    cells: tuple[Point, ...]

    @property
    def latency(self) -> int:
        """Steps from release to arrival (moves + waits): the epoch-local
        step at which the droplet reaches its goal."""
        return len(self.cells) - 1

    @cached_property
    def moves(self) -> int:
        """Actuation steps (cell-to-cell moves, waits excluded)."""
        return sum(1 for a, b in zip(self.cells, self.cells[1:]) if a != b)

    @property
    def waits(self) -> int:
        """Wait-in-place steps spent yielding to other traffic."""
        return self.latency - self.moves

    def position_at(self, step: int) -> Point:
        """Droplet position at epoch-local *step* (clamped to lifetime:
        at the source before departure, parked at the goal after
        arrival)."""
        i = min(max(step, 0), len(self.cells) - 1)
        return self.cells[i]

    @cached_property
    def bounds(self) -> tuple[int, int, int, int]:
        """Bounding box ``(min_x, min_y, max_x, max_y)`` over every cell
        the droplet ever occupies — the verifier's pair prefilter."""
        xs = [p.x for p in self.cells]
        ys = [p.y for p in self.cells]
        return (min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True)
class RoutingEpoch:
    """All nets released at one schedule instant, routed concurrently.

    Epochs are sequential — droplets of different epochs never coexist —
    so each epoch carries its own obstacle context: the module
    footprints active at that instant, known faulty cells, and parked
    product droplets not participating in this epoch.
    """

    #: Schedule instant (seconds) whose transports this epoch realizes.
    time_s: float
    #: Global step at which this epoch's step 0 occurs.
    step_offset: int
    nets: tuple[RoutedNet, ...]
    failed: tuple[Net, ...] = ()
    #: Active module obstacles: (footprint, owner op id).
    modules: tuple[tuple[Rect, str], ...] = ()
    #: Merge/split exemption zones: (op id, footprint) for every
    #: producer/consumer of this epoch's nets.
    regions: tuple[tuple[str, Rect], ...] = ()
    faulty: frozenset[Point] = frozenset()
    parked: frozenset[Point] = frozenset()

    @property
    def makespan_steps(self) -> int:
        """Last arrival step (0 when the epoch routed nothing)."""
        return max((rn.latency for rn in self.nets), default=0)

    @cached_property
    def _region_map(self) -> dict[str, list[Rect]]:
        out: dict[str, list[Rect]] = {}
        for op_id, rect in self.regions:
            out.setdefault(op_id, []).append(rect)
        return out

    def in_region(self, op_id: str | None, cell: Point) -> bool:
        """True if *cell* lies inside any of op's registered zones."""
        if op_id is None:
            return False
        return any(
            r.contains_point(cell) for r in self._region_map.get(op_id, ())
        )

    @cached_property
    def _record(self) -> array:
        """This epoch as ``route_verify`` reads it (layout in ``_route.c``),
        op ids interned per epoch. Packed once: a recovered plan re-proves
        its kept prefix epochs from the same records."""
        ids: dict[str | None, int] = {None: -1}

        def op(name: str | None) -> int:
            return ids.setdefault(name, len(ids) - 1)

        head = [len(self.nets), len(self.failed), len(self.modules),
                len(self.regions), len(self.faulty), len(self.parked)]
        first = 0
        for rn in self.nets:
            net = rn.net
            head += (*net.source, *net.goal, op(net.producer), op(net.consumer),
                     first, len(rn.cells))
            first += len(rn.cells)
        for net in self.failed:
            head += (*net.source, op(net.producer), op(net.consumer))
        for rect, owner in self.modules:
            head += (rect.x, rect.y, rect.x2, rect.y2, op(owner))
        for op_id, rect in self.regions:
            head += (op(op_id), rect.x, rect.y, rect.x2, rect.y2)
        for p in (*self.faulty, *self.parked):
            head += p
        for rn in self.nets:
            for p in rn.cells:
                head += p
        return array("i", head)


@dataclass(frozen=True)
class RoutingPlan:
    """A complete, verifiable routing of one synthesized assay."""

    width: int
    height: int
    epochs: tuple[RoutingEpoch, ...]
    #: Boundary-lane width the synthesizer padded around the core area;
    #: plan coordinates are placement coordinates shifted by this much.
    margin: int = 0

    # -- aggregation ---------------------------------------------------------

    @property
    def nets(self) -> list[RoutedNet]:
        """All routed nets, epoch order."""
        return [rn for epoch in self.epochs for rn in epoch.nets]

    @property
    def failed(self) -> list[Net]:
        """Nets the router could not realize."""
        return [net for epoch in self.epochs for net in epoch.failed]

    @property
    def routed_count(self) -> int:
        return sum(len(e.nets) for e in self.epochs)

    @property
    def failed_count(self) -> int:
        return sum(len(e.failed) for e in self.epochs)

    @property
    def routability(self) -> float:
        """Fraction of nets routed (1.0 for an empty plan)."""
        total = self.routed_count + self.failed_count
        return 1.0 if total == 0 else self.routed_count / total

    @property
    def makespan_steps(self) -> int:
        """Total routing steps with epochs laid end to end."""
        return sum(e.makespan_steps for e in self.epochs)

    @property
    def total_route_steps(self) -> int:
        """Total actuation steps (moves) over all nets."""
        return sum(rn.moves for rn in self.nets)

    @property
    def total_wait_steps(self) -> int:
        """Total wait-in-place steps over all nets."""
        return sum(rn.waits for rn in self.nets)

    @property
    def max_net_latency(self) -> int:
        """Worst single-net release-to-arrival latency, in steps."""
        return max((rn.latency for rn in self.nets), default=0)

    @cached_property
    def _by_edge(self) -> dict[tuple[str | None, str | None], RoutedNet]:
        # First epoch wins on key collisions: a dependency edge routes
        # once, but a producer holding across several epochs emits one
        # (producer, None) hold net per epoch, and replay wants the
        # parking spot modeled right after the producer finishes.
        out: dict[tuple[str | None, str | None], RoutedNet] = {}
        for rn in self.nets:
            out.setdefault((rn.net.producer, rn.net.consumer), rn)
        return out

    def net_for(self, producer: str | None, consumer: str | None) -> RoutedNet | None:
        """The routed net realizing dependency edge producer -> consumer."""
        return self._by_edge.get((producer, consumer))

    # -- verification --------------------------------------------------------

    def verify(self) -> None:
        """Prove the plan conflict-free; raise :class:`RoutingError` if not.

        Checked per epoch, from scratch (independent of the router):

        * trajectory sanity — in bounds, endpoints match the net,
          consecutive positions equal or 4-adjacent;
        * no droplet on a faulty cell, within one cell of a parked
          droplet, or on an active module footprint it does not own;
        * no two droplets within one cell of each other at any step,
          nor across consecutive steps (dynamic constraint), except
          inside a shared merge/split zone;
        * failed nets' droplets are not forgotten — each strands at its
          source for the whole epoch and every routed trajectory must
          keep its distance from it.

        The compiled kernel proves the plan in one pass when it loads; the
        Python proof below runs when it does not, or when it reports a
        violation, and so writes every error message.
        """
        kernel = compiled.route_kernel()
        if kernel is not None and self._proved_by(kernel):
            return
        for epoch in self.epochs:
            module_cells: dict[Point, set[str]] = {}
            for rect, owner in epoch.modules:
                for cell in rect.cells():
                    module_cells.setdefault(cell, set()).add(owner)
            for rn in epoch.nets:
                self._verify_trajectory(epoch, rn, module_cells)
            # A failed net's droplet sits at its source all epoch; its
            # own position is not a routing decision (no trajectory
            # checks), but routed traffic must still avoid it.
            stranded = [RoutedNet(net, (net.source,)) for net in epoch.failed]
            nets = list(epoch.nets)
            for i, a in enumerate(nets):
                for b in nets[i + 1 :]:
                    self._verify_pair(epoch, a, b)
                for s in stranded:
                    self._verify_pair(epoch, a, s)

    def _proved_by(self, kernel) -> bool:
        """Whether the compiled ``route_verify`` proves every epoch."""
        records = [epoch._record for epoch in self.epochs]
        table = (ctypes.c_void_p * len(records))(
            *(record.buffer_info()[0] for record in records)
        )
        return kernel.route_verify(self.width, self.height, len(records), table) == 0

    def _verify_trajectory(
        self,
        epoch: RoutingEpoch,
        rn: RoutedNet,
        module_cells: dict[Point, set[str]],
    ) -> None:
        net = rn.net
        if not rn.cells:
            raise RoutingError(f"net {net.net_id}: empty trajectory")
        if rn.cells[0] != net.source or rn.cells[-1] != net.goal:
            raise RoutingError(
                f"net {net.net_id}: trajectory endpoints {rn.cells[0]}->{rn.cells[-1]} "
                f"do not match net {net.source}->{net.goal}"
            )
        exempt = net.exempt_ops
        for step, p in enumerate(rn.cells):
            if not (1 <= p.x <= self.width and 1 <= p.y <= self.height):
                raise RoutingError(
                    f"net {net.net_id}: {p} at step {step} is outside the "
                    f"{self.width}x{self.height} array"
                )
            if step > 0 and rn.cells[step - 1].manhattan_distance(p) > 1:
                raise RoutingError(
                    f"net {net.net_id}: jump {rn.cells[step - 1]} -> {p} at step {step}"
                )
            if p in epoch.faulty:
                raise RoutingError(
                    f"net {net.net_id}: crosses faulty cell {p} at step {step}"
                )
            owners = module_cells.get(p)
            if owners and not owners <= exempt:
                culprit = sorted(owners - exempt)[0]
                raise RoutingError(
                    f"net {net.net_id}: on active module {culprit!r} footprint "
                    f"at {p}, step {step}"
                )
            if p == net.source:
                # The droplet's own parking spot is grandfathered: it
                # may pre-date a neighboring parked droplet, and routing
                # can only move it away from there.
                continue
            for q in epoch.parked:
                if chebyshev(p, q) <= 1:
                    raise RoutingError(
                        f"net {net.net_id}: within one cell of parked droplet "
                        f"{q} at {p}, step {step}"
                    )

    def _verify_pair(self, epoch: RoutingEpoch, a: RoutedNet, b: RoutedNet) -> None:
        # Lifetime bounding boxes further than one cell apart can never
        # violate the fluidic constraint at any pair of steps — skip the
        # per-step scan for the (common) far-apart pairs.
        ax1, ay1, ax2, ay2 = a.bounds
        bx1, by1, bx2, by2 = b.bounds
        if (
            bx1 - ax2 > 1 or ax1 - bx2 > 1 or by1 - ay2 > 1 or ay1 - by2 > 1
        ):
            return
        last = max(a.latency, b.latency)
        for t in range(last + 1):
            pa, pb = a.position_at(t), b.position_at(t)
            # Same-step static constraint plus the cross-step dynamic
            # constraint (droplet moving next to where the other just was).
            for qa, qb in ((pa, pb), (a.position_at(t + 1), pb), (pa, b.position_at(t + 1))):
                if chebyshev(qa, qb) > 1:
                    continue
                if self._merge_exempt(epoch, a.net, b.net, qa, qb):
                    continue
                if self._split_parking_exempt(a.net, b.net, qa, qb):
                    continue
                raise RoutingError(
                    f"nets {a.net.net_id} and {b.net.net_id} violate the "
                    f"fluidic constraint near step {t}: {qa} vs {qb}"
                )

    @staticmethod
    def _split_parking_exempt(a: Net, b: Net, pa: Point, pb: Point) -> bool:
        """Grandfather the departure transient of two products that were
        *parked adjacent* (a placement artifact: neighboring functional
        centers). While both droplets are still within one cell of their
        own parking spots, their mutual proximity pre-dates routing and
        cannot be routed away — it ends the moment both have left.
        Co-location (distance 0) is never excused: adjacent parking
        explains closeness, not two droplets in one cell."""
        return (
            chebyshev(pa, pb) >= 1
            and chebyshev(a.source, b.source) <= 1
            and chebyshev(pa, a.source) <= 1
            and chebyshev(pb, b.source) <= 1
        )

    @staticmethod
    def _merge_exempt(epoch: RoutingEpoch, a: Net, b: Net, pa: Point, pb: Point) -> bool:
        if a.consumer is not None and a.consumer == b.consumer:
            if epoch.in_region(a.consumer, pa) and epoch.in_region(a.consumer, pb):
                return True
        if a.producer is not None and a.producer == b.producer:
            if epoch.in_region(a.producer, pa) and epoch.in_region(a.producer, pb):
                return True
        return False

    # -- reporting -----------------------------------------------------------

    def table_text(self) -> str:
        """Per-net table: edge, epoch, moves, waits, latency."""
        rows = []
        for epoch in self.epochs:
            for rn in epoch.nets:
                rows.append(
                    (
                        rn.net.net_id,
                        f"t={epoch.time_s:g}s",
                        f"{rn.net.source}->{rn.net.goal}",
                        rn.moves,
                        rn.waits,
                        rn.latency,
                    )
                )
            for net in epoch.failed:
                rows.append(
                    (net.net_id, f"t={epoch.time_s:g}s", f"{net.source}->{net.goal}",
                     "-", "-", "UNROUTED")
                )
        return format_table(
            ("net", "epoch", "route", "moves", "waits", "latency"), rows
        )

    def to_dict(self) -> dict:
        """JSON-safe plan summary: aggregates plus per-net accounting.

        Trajectories are omitted on purpose — batch output wants the
        metrics, not megabytes of per-step coordinates; the plan object
        itself remains the source of truth for replay.
        """
        return {
            "array": [self.width, self.height],
            "margin": self.margin,
            "epochs": len(self.epochs),
            "routed_count": self.routed_count,
            "failed_count": self.failed_count,
            "routability": self.routability,
            "makespan_steps": self.makespan_steps,
            "total_route_steps": self.total_route_steps,
            "total_wait_steps": self.total_wait_steps,
            "max_net_latency": self.max_net_latency,
            "nets": [
                {
                    "net_id": rn.net.net_id,
                    "epoch_time_s": epoch.time_s,
                    "source": [rn.net.source.x, rn.net.source.y],
                    "goal": [rn.net.goal.x, rn.net.goal.y],
                    "moves": rn.moves,
                    "waits": rn.waits,
                    "latency": rn.latency,
                }
                for epoch in self.epochs
                for rn in epoch.nets
            ],
            "failed_nets": [net.net_id for net in self.failed],
        }

    def summary(self) -> str:
        """One-line account used by the synthesis-flow report."""
        return (
            f"{self.routed_count} nets in {len(self.epochs)} epochs, "
            f"{self.total_route_steps} route steps "
            f"(+{self.total_wait_steps} waits), "
            f"max latency {self.max_net_latency} steps, "
            f"routability {self.routability:.0%}"
        )

    def __str__(self) -> str:
        return f"RoutingPlan({self.summary()})"
