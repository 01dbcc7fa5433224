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
C (``route_verify`` in ``_route.c``), which reports the first violation
it finds; Python only writes that violation's message. The test suite
keeps the Python proof as its oracle (``tests/oracles/routing.py``).

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

from repro import kernels
from repro.geometry import Point, Rect
from repro.util.errors import RoutingError
from repro.util.tables import format_table


#: ``route_verify``'s violation kinds (``_route.c``), in check order;
#: the last is any step pairing of two droplets.
_EMPTY, _ENDPOINTS, _OFF_ARRAY, _JUMP, _FAULTY, _MODULE, _PARKED, _PAIR = range(1, 9)


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
          droplet (except at its own source), or on an active module
          footprint it does not own;
        * no two droplets within one cell of each other at any step,
          nor across consecutive steps (dynamic constraint), except
          both inside a shared merge/split zone, or two products still
          leaving adjacent parking spots;
        * failed nets' droplets are not forgotten — each strands at its
          source for the whole epoch and every routed trajectory must
          keep its distance from it.

        ``route_verify`` checks every epoch in one pass and reports the
        first violation: trajectories before pairs, each in net order,
        each trajectory's steps in order, a pair's steps in order.
        """
        records = [epoch._record for epoch in self.epochs]
        table = (ctypes.c_void_p * len(records))(
            *(record.buffer_info()[0] for record in records)
        )
        found = array("q", bytes(8 * 6))
        status = kernels.load().route_verify(
            self.width, self.height, len(records), table, found.buffer_info()[0]
        )
        if status < 0:
            raise MemoryError("cannot allocate the plan proof's tables")
        if status:
            raise RoutingError(self._violation(*found))

    def _violation(
        self, epoch_k: int, kind: int, i: int, j: int, step: int, pairing: int
    ) -> str:
        """The message of ``route_verify``'s violation record."""
        epoch = self.epochs[epoch_k]
        rn = epoch.nets[i]
        net = rn.net
        if kind == _PAIR:
            if j < len(epoch.nets):
                other = epoch.nets[j]
            else:  # a failed net, stranded at its source
                stranded = epoch.failed[j - len(epoch.nets)]
                other = RoutedNet(stranded, (stranded.source,))
            qa = rn.position_at(step + (pairing == 1))
            qb = other.position_at(step + (pairing == 2))
            return (
                f"nets {net.net_id} and {other.net.net_id} violate the "
                f"fluidic constraint near step {step}: {qa} vs {qb}"
            )
        if kind == _EMPTY:
            return f"net {net.net_id}: empty trajectory"
        if kind == _ENDPOINTS:
            return (
                f"net {net.net_id}: trajectory endpoints {rn.cells[0]}->{rn.cells[-1]} "
                f"do not match net {net.source}->{net.goal}"
            )
        p = rn.cells[step]
        if kind == _OFF_ARRAY:
            return (
                f"net {net.net_id}: {p} at step {step} is outside the "
                f"{self.width}x{self.height} array"
            )
        if kind == _JUMP:
            return f"net {net.net_id}: jump {rn.cells[step - 1]} -> {p} at step {step}"
        if kind == _FAULTY:
            return f"net {net.net_id}: crosses faulty cell {p} at step {step}"
        if kind == _MODULE:
            culprit = min(
                owner for rect, owner in epoch.modules
                if rect.contains_point(p) and owner not in net.exempt_ops
            )
            return (
                f"net {net.net_id}: on active module {culprit!r} footprint "
                f"at {p}, step {step}"
            )
        q = next(q for q in epoch.parked if chebyshev(p, q) <= 1)
        return (
            f"net {net.net_id}: within one cell of parked droplet "
            f"{q} at {p}, step {step}"
        )

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
