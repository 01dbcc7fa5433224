"""Incremental delta-cost evaluation for the placement annealers.

The paper's annealer (Figure 3) runs ``Na x Nm`` Metropolis proposals
per temperature round, and a naive transcription pays full price for
each one: an O(n^2) pairwise overlap recomputation, a bounding-box
rebuild, and a whole-placement copy per proposal. This module exploits
the key structural fact of the modified-2D formulation — module time
spans are **fixed by the schedule** — to make a single-module move,
rotate, or pair interchange cost O(time-neighbors) to delta-evaluate
and O(1) amortized to apply:

* **Flat per-index state.** Module ``i`` (the placement's insertion
  order) lives in parallel int lists ``x1/y1/x2/y2/rot``; its
  footprint dims per orientation and its square flag sit in static
  lists beside them. No :class:`~repro.placement.model.PlacedModule`
  or :class:`~repro.geometry.Rect` is built per proposal or per
  accepted move.
* **Static time-neighbor lists.** Whether two modules can ever conflict
  is decided by their (schedule-fixed) time spans. The evaluator
  precomputes, once, the ``(index, dt)`` list of time-overlapping
  partners of every module (``dt`` is the shared duration); a move
  only re-examines those partners.
* **Edge histograms.** The bounding box is maintained with four
  histograms counting the modules at each x1/x2/y1/y2 footprint edge
  coordinate; a candidate box after a move is found by stepping past
  at most the moved modules' own edges, without touching the other n-1
  modules.
* **Running sums.** The total overlap volume, an *integer* count of
  conflicting pairs (the exact feasibility gate — immune to float
  drift), and the integer corner-pull sum are maintained under apply;
  :meth:`IncrementalCostEvaluator.resync` rebuilds them from scratch on
  a fixed cadence so float error cannot accumulate across millions of
  applies.
* **A lazy placement view.** :attr:`IncrementalCostEvaluator.placement`
  is brought up to date from the index records only when something
  reads it (an FTI memo miss, a cross-check, the end of an anneal).

A move is a plain tuple: ``(i, x, y, rot)`` displaces and/or rotates
module ``i`` to origin ``(x, y)``; ``(i, x, y, rot, j, x2, y2, rot2)``
updates two modules at once (a pair interchange). The cost classes in
:mod:`repro.placement.cost` combine the evaluator's component deltas
into their own objective deltas; for the area cost,
:meth:`IncrementalCostEvaluator.bind_round` runs drawing, pricing,
deciding and applying as one compiled loop (``_anneal.c``) that builds
no move tuple at all.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro import kernels
from repro.placement.cost import OVERLAP_WEIGHT
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import P_ROTATE
from repro.util.errors import CrossCheckError, PlacementError

if TYPE_CHECKING:
    from repro.placement.moves import MoveGenerator

__all__ = [
    "CrossCheckError",  # re-exported; the class lives in repro.util.errors
    "IncrementalCostEvaluator",
]


def _address(buffer: array) -> int:
    """The address of *buffer*'s first item, for a C pointer field."""
    return buffer.buffer_info()[0]


def _counts(values: list[int], size: int) -> list[int]:
    """Histogram of *values* over ``range(size)``."""
    out = [0] * size
    for v in values:
        out[v] += 1
    return out


def _min_after(cnt: list[int], v: int, r1: int | None, r2: int | None, best: int) -> int:
    """Minimum of the edge histogram *cnt* (whose minimum is *v*) with one
    edge each at *r1* and *r2* taken out and edges of minimum *best* put
    in, without mutating anything. Some edge must remain below *best* or
    the scan stops at *best*; callers with no unmoved module skip it."""
    while v < best:
        c = cnt[v]
        if c:
            if v == r1:
                c -= 1
            if v == r2:
                c -= 1
            if c:
                return v
        v += 1
    return best


def _max_after(cnt: list[int], v: int, r1: int | None, r2: int | None, best: int) -> int:
    """Mirror of :func:`_min_after` for the maximum edge."""
    while v > best:
        c = cnt[v]
        if c:
            if v == r1:
                c -= 1
            if v == r2:
                c -= 1
            if c:
                return v
        v -= 1
    return best


class IncrementalCostEvaluator:
    """Maintains O(1)-queryable cost components of a mutating placement.

    The evaluator *owns* the placement it is given: :meth:`apply`
    mutates the index records, edge histograms and running sums in
    lock-step, and :attr:`placement` (the same object that was passed
    in) is brought up to date from the records whenever it is read —
    not before, so callers read it through the evaluator.
    :meth:`components` is pure — it prices a move without touching any
    state, caching the evaluation so an immediately following
    :meth:`apply` of the same move is free.

    Invariants (see DESIGN.md for the full argument):

    * time-neighbor lists and per-pair shared durations are computed
      once in ``__init__`` and never change — the schedule fixes them;
    * ``conflict_pairs`` is an exact integer, so the feasibility gate
      (``overlap > 0``) used by the fault-aware cost can never be
      corrupted by float drift;
    * every ``resync_every`` applies, the float ``overlap_total`` is
      rebuilt from scratch, bounding accumulated error to the round-off
      of at most ``resync_every`` additions.
    """

    def __init__(self, placement: Placement, resync_every: int = 2048) -> None:
        if len(placement) == 0:
            raise PlacementError("cannot evaluate an empty placement")
        if resync_every < 1:
            raise ValueError(f"resync_every must be >= 1, got {resync_every}")
        self._placement = placement
        #: Per-cost data bound to this evaluator's indices, keyed by
        #: the cost object (a cost's extra terms, built once per anneal).
        self.bound: dict = {}
        #: True while :attr:`placement` lags behind the index records.
        self._stale = False
        self.resync_every = resync_every
        self.core_width = placement.core_width
        self.core_height = placement.core_height
        pitch = placement.pitch_mm
        self._pitch2 = pitch * pitch

        modules = placement.modules()
        #: Op id of every index, in the placement's insertion order.
        self.ops = [pm.op_id for pm in modules]
        self.index = {op: i for i, op in enumerate(self.ops)}
        self._sig_order = sorted(range(len(self.ops)), key=self.ops.__getitem__)

        #: Scratch space for cost-side memoization (FTI by signature).
        self.memo = {}
        self.specs = [pm.spec for pm in modules]
        self.spans = [(pm.start, pm.stop) for pm in modules]
        #: Per index: footprint ``(w, h)`` indexed by orientation.
        self.dims = [(s.dims(False), s.dims(True)) for s in self.specs]
        self.square = [s.is_square for s in self.specs]
        # Static time-overlap structure: fixed by the schedule forever.
        n = len(modules)
        self.nbrs = [[] for _ in range(n)]
        self._pair_dt = {}
        for a in range(n):
            a_start, a_stop = self.spans[a]
            for b in range(a + 1, n):
                b_start, b_stop = self.spans[b]
                dt = min(a_stop, b_stop) - max(a_start, b_start)
                if dt > 0:
                    self.nbrs[a].append((b, dt))
                    self.nbrs[b].append((a, dt))
                    self._pair_dt[a, b] = dt
                    self._pair_dt[b, a] = dt

        self.x1 = [pm.x for pm in modules]
        self.y1 = [pm.y for pm in modules]
        self.rot = [pm.rotated for pm in modules]
        dims = self.dims
        self.x2 = [x + dims[i][r][0] - 1 for i, (x, r) in enumerate(zip(self.x1, self.rot))]
        self.y2 = [y + dims[i][r][1] - 1 for i, (y, r) in enumerate(zip(self.y1, self.rot))]
        # Edge histograms (count of modules per edge coordinate) and the
        # bounding box they define.
        size_x = max(self.core_width, *self.x2) + 2
        size_y = max(self.core_height, *self.y2) + 2
        self._cx1 = _counts(self.x1, size_x)
        self._cx2 = _counts(self.x2, size_x)
        self._cy1 = _counts(self.y1, size_y)
        self._cy2 = _counts(self.y2, size_y)
        self._bx1, self._by1 = min(self.x1), min(self.y1)
        self._bx2, self._by2 = max(self.x2), max(self.y2)

        # The last priced move: (move, components, new per-update records).
        self._pend_move: tuple | None = None
        self._pend_comp: tuple = ()
        self._pend_new: tuple = ()
        self._sig: tuple | None = None
        self._applies_since_resync = 0
        self.overlap_total = 0.0
        self.conflict_pairs = 0
        self.pull_sum = 0
        self._rebuild_sums()
        self._price = self._bind_components()

    # -- the placement view ----------------------------------------------------------

    @property
    def placement(self) -> Placement:
        """The owned placement, brought up to date with the records."""
        if self._stale:
            modules = self._placement._modules
            x1, y1, rot = self.x1, self.y1, self.rot
            for i, op in enumerate(self.ops):
                pm = modules[op]
                if pm.x != x1[i] or pm.y != y1[i] or pm.rotated != rot[i]:
                    modules[op] = self._placed(i, x1[i], y1[i], rot[i])
            self._stale = False
        return self._placement

    def _placed(self, i: int, x: int, y: int, rotated: bool) -> PlacedModule:
        start, stop = self.spans[i]
        return PlacedModule(
            op_id=self.ops[i], spec=self.specs[i], x=x, y=y,
            start=start, stop=stop, rotated=rotated,
        )

    def snapshot(self) -> tuple[list[int], list[int], list[bool]]:
        """A copy of the origin/orientation records (the best-state
        snapshot of an anneal); :meth:`placement_of` materializes it."""
        return self.x1[:], self.y1[:], self.rot[:]

    def placement_of(self, snapshot: tuple[list[int], list[int], list[bool]]) -> Placement:
        """A fresh :class:`Placement` holding a :meth:`snapshot`."""
        x1, y1, rot = snapshot
        out = Placement(
            self.core_width, self.core_height, pitch_mm=self._placement.pitch_mm
        )
        for i, op in enumerate(self.ops):
            out._modules[op] = self._placed(i, x1[i], y1[i], rot[i])
        return out

    # -- component queries --------------------------------------------------------

    @property
    def area_cells(self) -> int:
        """Bounding-array area in cells (exact, from the edge histograms)."""
        return (self._bx2 - self._bx1 + 1) * (self._by2 - self._by1 + 1)

    @property
    def area_mm2(self) -> float:
        """Bounding-array area in mm^2 at the placement's pitch."""
        return self.area_cells * self._pitch2

    @property
    def is_feasible(self) -> bool:
        """Exact feasibility — gated by the integer conflict counter."""
        return self.conflict_pairs == 0

    def bounding_box(self) -> tuple[int, int, int, int]:
        """Current ``(x1, y1, x2, y2)`` of the bounding array."""
        return self._bx1, self._by1, self._bx2, self._by2

    def signature(self) -> tuple:
        """Translation-normalized identity of the current configuration.

        Two placements that differ only by a rigid translation have the
        same signature (and the same FTI), which is what makes this a
        good memoization key for the fault-aware cost. Cached between
        applies — the LTSA loop asks for it on every feasible proposal.
        """
        if self._sig is None:
            self._sig = self._signature_of(
                self.x1, self.y1, self.rot, self._bx1, self._by1
            )
        return self._sig

    def _signature_of(self, x1, y1, rot, dx: int, dy: int) -> tuple:
        ops = self.ops
        return tuple(
            (ops[i], x1[i] - dx, y1[i] - dy, rot[i]) for i in self._sig_order
        )

    def candidate_signature(self, move: tuple) -> tuple:
        """The signature the placement would have after *move*."""
        self.components(move)
        new = self._pend_new
        x1, y1, rot = self.x1[:], self.y1[:], self.rot[:]
        # The moved modules' current edges leave the histograms (one or
        # two of them; None pads the single-module case).
        old_x = [x1[r[0]] for r in new] + [None]
        old_y = [y1[r[0]] for r in new] + [None]
        dx = min(r[1] for r in new)
        dy = min(r[2] for r in new)
        if len(new) < len(self.ops):
            dx = _min_after(self._cx1, self._bx1, old_x[0], old_x[1], dx)
            dy = _min_after(self._cy1, self._by1, old_y[0], old_y[1], dy)
        for i, nx1, ny1, _nx2, _ny2, r in new:
            x1[i], y1[i], rot[i] = nx1, ny1, r
        return self._signature_of(x1, y1, rot, dx, dy)

    def candidate_placement(self, move: tuple) -> Placement:
        """A fresh :class:`Placement` with *move* applied (for FTI runs)."""
        out = self.placement.copy()
        for k in range(0, len(move), 4):
            i, x, y, rotated = move[k:k + 4]
            out.replace(out.get(self.ops[i]).moved_to(x, y, rotated=rotated))
        return out

    # -- delta evaluation ---------------------------------------------------------

    def components(self, move: tuple) -> tuple[float, float, int, int]:
        """Price *move* in O(time-neighbors) without mutating anything.

        Returns ``(d_area_mm2, d_overlap, d_pull, d_conflict_pairs)``:
        the change in bounding-array area, in overlap volume, in the
        integer corner-pull sum (x2 + y2 over modules), and in the
        integer number of space-and-time conflicting pairs. The cost
        classes weigh these into an objective delta.
        """
        if move is self._pend_move:
            return self._pend_comp
        return self._price(move)

    def _bind_components(self) -> Callable[[tuple], tuple[float, float, int, int]]:
        """Build the pricing closure behind :meth:`components`. The
        records it captures are mutated in place and never rebound; the
        bounding box is read from the instance on every call.
        The compiled round (:meth:`bind_round`) repeats this pricing in
        C: a change here is a change there."""
        X1, Y1, X2, Y2 = self.x1, self.y1, self.x2, self.y2
        cx1, cy1, cx2, cy2 = self._cx1, self._cy1, self._cx2, self._cy2
        dims = self.dims
        nbrs = self.nbrs
        pair_dt = self._pair_dt
        pitch2 = self._pitch2
        alone = len(X1) == 1
        # A pair interchange with no third module moves every edge.
        others = len(X1) > 2

        def pair(move: tuple) -> tuple[float, float, int, int]:
            """Two modules updated at once (a pair interchange)."""
            if len(move) != 8:
                raise ValueError(
                    f"a move is (i, x, y, rot) or two of those, got {len(move)} fields"
                )
            a, ax1, ay1, ra, b, bx1, by1, rb = move
            if a == b:
                raise PlacementError(f"move updates op {self.ops[a]!r} twice")
            wa, ha = dims[a][ra]
            wb, hb = dims[b][rb]
            ax2 = ax1 + wa - 1
            ay2 = ay1 + ha - 1
            bx2 = bx1 + wb - 1
            by2 = by1 + hb - 1
            new = ((a, ax1, ay1, ax2, ay2, ra), (b, bx1, by1, bx2, by2, rb))

            d_overlap = 0.0
            d_pairs = 0
            d_pull = 0
            for i, nx1, ny1, nx2, ny2, _r in new:
                ox1 = X1[i]
                oy1 = Y1[i]
                ox2 = X2[i]
                oy2 = Y2[i]
                d_pull += nx2 + ny2 - ox2 - oy2
                for j, dt in nbrs[i]:
                    if j == a or j == b:
                        continue  # the moved pair is handled once, below
                    qx1 = X1[j]
                    qy1 = Y1[j]
                    qx2 = X2[j]
                    qy2 = Y2[j]
                    # old contribution
                    ox = (ox2 if ox2 < qx2 else qx2) - (ox1 if ox1 > qx1 else qx1) + 1
                    if ox > 0:
                        oy = (oy2 if oy2 < qy2 else qy2) - (oy1 if oy1 > qy1 else qy1) + 1
                        if oy > 0:
                            d_overlap -= ox * oy * dt
                            d_pairs -= 1
                    # new contribution
                    ox = (nx2 if nx2 < qx2 else qx2) - (nx1 if nx1 > qx1 else qx1) + 1
                    if ox > 0:
                        oy = (ny2 if ny2 < qy2 else qy2) - (ny1 if ny1 > qy1 else qy1) + 1
                        if oy > 0:
                            d_overlap += ox * oy * dt
                            d_pairs += 1

            ox1a = X1[a]
            oy1a = Y1[a]
            ox2a = X2[a]
            oy2a = Y2[a]
            ox1b = X1[b]
            oy1b = Y1[b]
            ox2b = X2[b]
            oy2b = Y2[b]
            # The pair itself, if the two modules share time.
            dt = pair_dt.get((a, b))
            if dt is not None:
                ox = (ox2a if ox2a < ox2b else ox2b) - (ox1a if ox1a > ox1b else ox1b) + 1
                oy = (oy2a if oy2a < oy2b else oy2b) - (oy1a if oy1a > oy1b else oy1b) + 1
                if ox > 0 and oy > 0:
                    d_overlap -= ox * oy * dt
                    d_pairs -= 1
                ox = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1) + 1
                oy = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1) + 1
                if ox > 0 and oy > 0:
                    d_overlap += ox * oy * dt
                    d_pairs += 1

            # Candidate bounding box via the edge histograms: a box edge
            # neither moved module sits on stays put (unless the moved
            # pair reaches past it); otherwise it may recede.
            nx1 = ax1 if ax1 < bx1 else bx1
            ny1 = ay1 if ay1 < by1 else by1
            nx2 = ax2 if ax2 > bx2 else bx2
            ny2 = ay2 if ay2 > by2 else by2
            area_cells = (self._bx2 - self._bx1 + 1) * (self._by2 - self._by1 + 1)
            if others:
                v = self._bx1
                if v == ox1a or v == ox1b:
                    nx1 = _min_after(cx1, v, ox1a, ox1b, nx1)
                elif v < nx1:
                    nx1 = v
                v = self._by1
                if v == oy1a or v == oy1b:
                    ny1 = _min_after(cy1, v, oy1a, oy1b, ny1)
                elif v < ny1:
                    ny1 = v
                v = self._bx2
                if v == ox2a or v == ox2b:
                    nx2 = _max_after(cx2, v, ox2a, ox2b, nx2)
                elif v > nx2:
                    nx2 = v
                v = self._by2
                if v == oy2a or v == oy2b:
                    ny2 = _max_after(cy2, v, oy2a, oy2b, ny2)
                elif v > ny2:
                    ny2 = v
            comp = (
                (nx2 - nx1 + 1) * (ny2 - ny1 + 1) * pitch2 - area_cells * pitch2,
                d_overlap,
                d_pull,
                d_pairs,
            )
            self._pend_move = move
            self._pend_comp = comp
            self._pend_new = new
            return comp

        def components(move: tuple) -> tuple[float, float, int, int]:
            if len(move) != 4:
                return pair(move)
            # Specialized hot path: one module displaced and/or rotated.
            i, nx1, ny1, r = move
            w, h = dims[i][r]
            nx2 = nx1 + w - 1
            ny2 = ny1 + h - 1
            ox1 = X1[i]
            oy1 = Y1[i]
            ox2 = X2[i]
            oy2 = Y2[i]

            d_overlap = 0.0
            d_pairs = 0
            for j, dt in nbrs[i]:
                bx1 = X1[j]
                by1 = Y1[j]
                bx2 = X2[j]
                by2 = Y2[j]
                ox = (ox2 if ox2 < bx2 else bx2) - (ox1 if ox1 > bx1 else bx1) + 1
                if ox > 0:
                    oy = (oy2 if oy2 < by2 else by2) - (oy1 if oy1 > by1 else by1) + 1
                    if oy > 0:
                        d_overlap -= ox * oy * dt
                        d_pairs -= 1
                ox = (nx2 if nx2 < bx2 else bx2) - (nx1 if nx1 > bx1 else bx1) + 1
                if ox > 0:
                    oy = (ny2 if ny2 < by2 else by2) - (ny1 if ny1 > by1 else by1) + 1
                    if oy > 0:
                        d_overlap += ox * oy * dt
                        d_pairs += 1

            # Bounding-box peek: only an edge this module alone defines
            # can recede (to the next edge in its histogram).
            bx1 = self._bx1
            by1 = self._by1
            bx2 = self._bx2
            by2 = self._by2
            area_cells = (bx2 - bx1 + 1) * (by2 - by1 + 1)
            if ox1 == bx1 and cx1[bx1] == 1:
                bx1 = nx1 if alone else _min_after(cx1, bx1, ox1, None, nx1)
            elif nx1 < bx1:
                bx1 = nx1
            if oy1 == by1 and cy1[by1] == 1:
                by1 = ny1 if alone else _min_after(cy1, by1, oy1, None, ny1)
            elif ny1 < by1:
                by1 = ny1
            if ox2 == bx2 and cx2[bx2] == 1:
                bx2 = nx2 if alone else _max_after(cx2, bx2, ox2, None, nx2)
            elif nx2 > bx2:
                bx2 = nx2
            if oy2 == by2 and cy2[by2] == 1:
                by2 = ny2 if alone else _max_after(cy2, by2, oy2, None, ny2)
            elif ny2 > by2:
                by2 = ny2
            comp = (
                (bx2 - bx1 + 1) * (by2 - by1 + 1) * pitch2 - area_cells * pitch2,
                d_overlap,
                nx2 + ny2 - ox2 - oy2,
                d_pairs,
            )
            self._pend_move = move
            self._pend_comp = comp
            self._pend_new = ((i, nx1, ny1, nx2, ny2, r),)
            return comp

        return components

    # -- the compiled Metropolis round ---------------------------------------------

    def bind_round(
        self,
        mover: MoveGenerator,
        alpha: float,
        pull_weight: float,
        accept_rng: random.Random,
    ) -> Callable[[int, float, int, float, float], tuple[int, int, float, bool]] | None:
        """The area cost's Metropolis round, compiled; ``None`` when a
        generator is not exactly ``random.Random``.

        ``run(span, temperature, count, current, best)`` runs up to
        *count* steps. Each draws a move as *mover*'s kernel would,
        displacing within ``span`` cells; prices it as ``alpha *
        d_area_mm2 + OVERLAP_WEIGHT * d_overlap`` (plus ``pull_weight *
        d_pull`` when that weight is set); accepts it when ``delta < 0
        or accept_rng.random() < exp(-delta / temperature)``; applies an
        accepted move in place and adds its delta to *current*. It
        returns ``(steps, accepted, current, improved)``, stopping early
        (``improved``) when an accepted move leaves *current* below
        *best*. Every ``resync_every`` applies it runs :meth:`resync`,
        as :meth:`apply` does.

        The C kernel (``_anneal.c``) makes the move kernel's draws from
        the generators' own MT19937 states and the float operations of
        :meth:`components` and ``AreaCost.delta`` in their order, so the
        round is the generic ``propose -> delta -> apply`` body's round
        bit for bit. Each time the kernel returns, the index records,
        edge histograms, box, running sums and generator states are
        copied back: the Python lists and generators stay canonical.

        ``None`` when either generator is not exactly ``random.Random``
        (a subclass may draw differently). A kernel that cannot be built
        raises :class:`~repro.util.errors.KernelBuildError`.

        The kernel indexes the edge histograms by the drawn coordinates
        without a bounds check. They stay in ``[1, core]`` because every
        record starts in the core (:class:`Placement` and :meth:`apply`
        refuse anything else) and a drawn origin is clamped to its
        orientation's in-core limit.
        """
        (
            cands, kn, kn1, pool_branch, lim, fits,
            move_rng, p_single, single_only,
        ) = mover.draws(self.ops, self.dims, self.core_width, self.core_height)
        if type(move_rng) is not random.Random or type(accept_rng) is not random.Random:
            return None
        kernel = kernels.load().anneal_round
        starts, nbr_idx, nbr_dt = [0], [], []
        for nbrs in self.nbrs:
            for j, dt in nbrs:
                nbr_idx.append(j)
                nbr_dt.append(dt)
            starts.append(len(nbr_idx))
        arrays = (
            array("q", cands),
            array("q", [v for per in self.dims for wh in per for v in wh]),
            array("q", [v for per in lim for m in per for v in m]),
            array("B", [f for per in fits for f in per]),
            array("B", self.square),
            array("q", starts),
            array("q", nbr_idx or [0]),
            array("d", nbr_dt or [0.0]),
        )
        static = kernels.RoundStatic(
            len(cands), _address(arrays[0]), kn, kn1,
            pool_branch, single_only, len(self.ops) == 1, len(self.ops) > 2,
            p_single, P_ROTATE, alpha, OVERLAP_WEIGHT, pull_weight, self._pitch2,
            *map(_address, arrays[1:]), self.resync_every,
        )
        # The structure points into the arrays: it keeps them alive.
        static.arrays = arrays
        records = (self.x1, self.y1, self.x2, self.y2)
        hists = (self._cx1, self._cy1, self._cx2, self._cy2)
        R = self.rot
        streams = (move_rng,) if move_rng is accept_rng else (move_rng, accept_rng)
        state = kernels.RoundState()
        current_c = ctypes.c_double()
        accepted_c = ctypes.c_int64()
        args = (ctypes.byref(static), ctypes.byref(state))

        def load_sums() -> None:
            state.overlap_total = self.overlap_total
            state.conflict_pairs = self.conflict_pairs
            state.pull_sum = self.pull_sum
            state.applies_since_resync = self._applies_since_resync

        def run(
            span: int, temperature: float, count: int, current: float, best: float
        ) -> tuple[int, int, float, bool]:
            c_records = [array("q", v) for v in records]
            c_rot = array("B", R)
            c_hists = [array("q", h) for h in hists]
            saved = [rng.getstate() for rng in streams]
            c_mts = [array("I", s[1]) for s in saved]
            (state.x1, state.y1, state.x2, state.y2, state.rot,
             state.cx1, state.cy1, state.cx2, state.cy2) = map(
                _address, (*c_records, c_rot, *c_hists)
            )
            state.move_rng = _address(c_mts[0])
            state.accept_rng = _address(c_mts[-1])
            state.bx1, state.by1 = self._bx1, self._by1
            state.bx2, state.by2 = self._bx2, self._by2
            load_sums()
            current_c.value = current
            steps = accepted = 0
            while True:
                steps += kernel(
                    *args, span, temperature, count - steps,
                    current_c, best, accepted_c,
                )
                accepted += accepted_c.value
                for out, c in zip(records, c_records):
                    out[:] = c
                R[:] = map(bool, c_rot)
                for out, c in zip(hists, c_hists):
                    out[:] = c
                self._bx1, self._by1 = state.bx1, state.by1
                self._bx2, self._by2 = state.bx2, state.by2
                self.overlap_total = state.overlap_total
                self.conflict_pairs = state.conflict_pairs
                self.pull_sum = state.pull_sum
                self._applies_since_resync = state.applies_since_resync
                for rng, (version, _, gauss), mt in zip(streams, saved, c_mts):
                    rng.setstate((version, tuple(mt), gauss))
                if accepted:
                    self._pend_move = None
                    self._sig = None
                    self._stale = True
                if self._applies_since_resync >= self.resync_every:
                    self.resync()
                    load_sums()
                if state.improved or steps == count:
                    return steps, accepted, current_c.value, bool(state.improved)

        return run

    # -- state transitions --------------------------------------------------------

    def apply(self, move: tuple) -> tuple:
        """Commit *move*; returns the inverse move (for exact revert).
        The compiled round (:meth:`bind_round`) repeats these writes."""
        if move is not self._pend_move:
            self.components(move)
        new = self._pend_new
        core_w, core_h = self.core_width, self.core_height
        for i, x1, y1, x2, y2, _r in new:
            if x1 < 1 or y1 < 1 or x2 > core_w or y2 > core_h:
                self._pend_move = None
                raise PlacementError(
                    f"move puts op {self.ops[i]!r} at ({x1},{y1})..({x2},{y2}), "
                    f"outside the {core_w}x{core_h} core area"
                )
        X1, Y1, X2, Y2, R = self.x1, self.y1, self.x2, self.y2, self.rot
        i = move[0]
        if len(move) == 4:
            inverse = (i, X1[i], Y1[i], R[i])
        else:
            j = move[4]
            inverse = (i, X1[i], Y1[i], R[i], j, X1[j], Y1[j], R[j])
        cx1, cy1, cx2, cy2 = self._cx1, self._cy1, self._cx2, self._cy2
        bx1, by1, bx2, by2 = self._bx1, self._by1, self._bx2, self._by2
        for i, x1, y1, x2, y2, r in new:
            # Shift each changed edge to its new histogram bin.
            old = X1[i]
            if old != x1:
                cx1[old] -= 1
                cx1[x1] += 1
                X1[i] = x1
                if x1 < bx1:
                    bx1 = x1
            old = Y1[i]
            if old != y1:
                cy1[old] -= 1
                cy1[y1] += 1
                Y1[i] = y1
                if y1 < by1:
                    by1 = y1
            old = X2[i]
            if old != x2:
                cx2[old] -= 1
                cx2[x2] += 1
                X2[i] = x2
                if x2 > bx2:
                    bx2 = x2
            old = Y2[i]
            if old != y2:
                cy2[old] -= 1
                cy2[y2] += 1
                Y2[i] = y2
                if y2 > by2:
                    by2 = y2
            R[i] = r
        # A box edge whose last module left recedes to the next edge.
        while not cx1[bx1]:
            bx1 += 1
        while not cy1[by1]:
            by1 += 1
        while not cx2[bx2]:
            bx2 -= 1
        while not cy2[by2]:
            by2 -= 1
        self._bx1, self._by1, self._bx2, self._by2 = bx1, by1, bx2, by2
        comp = self._pend_comp
        self.overlap_total += comp[1]
        self.conflict_pairs += comp[3]
        self.pull_sum += comp[2]
        self._pend_move = None
        self._sig = None
        self._stale = True
        self._applies_since_resync += 1
        if self._applies_since_resync >= self.resync_every:
            self.resync()
        return inverse

    def resync(self) -> float:
        """Rebuild the running sums from scratch; returns the float drift
        that had accumulated in ``overlap_total`` (diagnostics)."""
        before = self.overlap_total
        self._rebuild_sums()
        self._applies_since_resync = 0
        return abs(before - self.overlap_total)

    def _rebuild_sums(self) -> None:
        X1, Y1, X2, Y2 = self.x1, self.y1, self.x2, self.y2
        total = 0.0
        pairs = 0
        for a, nbrs in enumerate(self.nbrs):
            ax1, ay1, ax2, ay2 = X1[a], Y1[a], X2[a], Y2[a]
            for b, dt in nbrs:
                if b < a:
                    continue  # each pair once, at its lower index
                ox = min(ax2, X2[b]) - max(ax1, X1[b]) + 1
                if ox <= 0:
                    continue
                oy = min(ay2, Y2[b]) - max(ay1, Y1[b]) + 1
                if oy <= 0:
                    continue
                total += ox * oy * dt
                pairs += 1
        self.overlap_total = total
        self.conflict_pairs = pairs
        self.pull_sum = sum(X2) + sum(Y2)
