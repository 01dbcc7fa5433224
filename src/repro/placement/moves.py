"""The annealer's generation functions (paper Section 4(b)).

New placements are generated four ways:

(i)   a randomly selected module is displaced to a random location;
(ii)  a module is displaced *and* its orientation is changed;
(iii) a random pair of modules is interchanged;
(iv)  a pair is interchanged with at least one orientation change.

Single-module moves (i/ii) are drawn with probability ``p`` and pair
moves (iii/iv) with ``1 - p``; the effective ratio is experimentally
determined (paper), defaulting to 0.8 here. Displacements respect the
controlling window and all moves keep footprints inside the core area.

Proposals are plain move tuples over module indices (see
:mod:`repro.placement.incremental`): :meth:`MoveGenerator.bind` returns
the proposal kernel the annealer calls once per proposal.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection

from repro.placement.window import ControllingWindow
from repro.util.rng import ensure_rng


class MoveGenerator:
    """Proposes neighbor placements for the annealer."""

    def __init__(
        self,
        window: ControllingWindow,
        p_single: float = 0.8,
        p_rotate: float = 0.5,
        single_only: bool = False,
        seed: int | random.Random | None = None,
        movable: Collection[str] | None = None,
    ) -> None:
        if not 0.0 <= p_single <= 1.0:
            raise ValueError(f"p_single must be in [0, 1], got {p_single}")
        if not 0.0 <= p_rotate <= 1.0:
            raise ValueError(f"p_rotate must be in [0, 1], got {p_rotate}")
        self.window = window
        self.p_single = p_single
        self.p_rotate = p_rotate
        #: LTSA mode (paper Section 6.1): pair interchanges disabled.
        self.single_only = single_only
        #: When set, only these op ids are ever touched by a move — the
        #: online-recovery warm restart anneals the not-yet-started
        #: modules around frozen in-flight ones. ``None`` (default)
        #: leaves every module movable and consumes the RNG stream
        #: identically to the historical generator.
        self.movable = None if movable is None else frozenset(movable)
        self._rng = ensure_rng(seed)

    # -- public API -----------------------------------------------------------------

    def bind(self, evaluator) -> Callable[[int], tuple]:
        """The proposal kernel over *evaluator*'s live index records.

        ``propose(span)`` returns a move tuple one step away from the
        evaluator's current state, displacing within ``span`` cells
        (the controlling window's span at the round's temperature).
        The candidate list — the movable modules' indices, in the
        placement's order — is built here, once.
        """
        return self._kernel(
            evaluator.ops, evaluator.x1, evaluator.y1, evaluator.rot,
            evaluator.dims, evaluator.square,
            evaluator.core_width, evaluator.core_height,
        )

    # -- the kernel -----------------------------------------------------------------------

    def _kernel(self, ops, x1, y1, rot, dims, square, core_w, core_h):
        """Build ``next_move(span) -> move`` over the given index records.

        The draws are those of the four generation functions written
        with the ``random.Random`` conveniences, draw for draw:
        ``choice(seq)`` is ``randrange(len(seq))``, ``randint(a, b)`` is
        ``a + randrange(b - a + 1)``, and ``sample(seq, 2)`` is
        ``sample(range(len(seq)), 2)`` matched by position.
        """
        movable = self.movable
        cands = [i for i, op in enumerate(ops) if movable is None or op in movable]
        if not cands:
            raise ValueError("cannot propose moves: no movable modules")
        n = len(cands)
        pool = range(n)
        # Largest in-core origin per index and orientation (the clamp's
        # upper bounds); an orientation fits when both are >= 1.
        lim = [
            ((core_w - w0 + 1, core_h - h0 + 1), (core_w - w1 + 1, core_h - h1 + 1))
            for (w0, h0), (w1, h1) in dims
        ]
        fits = [
            (mx0 >= 1 and my0 >= 1, mx1 >= 1 and my1 >= 1)
            for (mx0, my0), (mx1, my1) in lim
        ]
        rng = self._rng
        random = rng.random
        randrange = rng.randrange
        sample = rng.sample
        p_single = self.p_single
        p_rotate = self.p_rotate
        single_only = self.single_only or n < 2

        def next_move(span: int) -> tuple:
            if single_only or random() < p_single:
                # Generation functions (i) and (ii): displace, maybe re-orient.
                i = cands[randrange(n)]
                r = rot[i]
                if not square[i] and random() < p_rotate and fits[i][not r]:
                    r = not r  # type (ii)
                mx, my = lim[i][r]
                width = span + span + 1
                v = x1[i] - span + randrange(width)
                nx = v if v < mx else mx
                if nx < 1:
                    nx = 1
                v = y1[i] - span + randrange(width)
                ny = v if v < my else my
                if ny < 1:
                    ny = 1
                return (i, nx, ny, r)
            # Generation functions (iii) and (iv): swap two modules' origins.
            pa, pb = sample(pool, 2)
            a = cands[pa]
            b = cands[pb]
            ra = rot[a]
            rb = rot[b]
            if random() < p_rotate:
                # Type (iv): at least one of the pair changes orientation.
                if random() < 0.5:
                    if not square[a] and fits[a][not ra]:
                        ra = not ra
                elif not square[b] and fits[b][not rb]:
                    rb = not rb
            # Swap origins; clamp each so the (possibly rotated)
            # footprint stays inside the core area.
            mx, my = lim[a][ra]
            v = x1[b]
            ax = v if v < mx else mx
            if ax < 1:
                ax = 1
            v = y1[b]
            ay = v if v < my else my
            if ay < 1:
                ay = 1
            mx, my = lim[b][rb]
            v = x1[a]
            bx = v if v < mx else mx
            if bx < 1:
                bx = 1
            v = y1[a]
            by = v if v < my else my
            if by < 1:
                by = 1
            return (a, ax, ay, ra, b, bx, by, rb)

        return next_move
