"""Row-major bitboards for placement and replay geometry.

Seating a module, relocating it off a faulty cell and scoring its
relocatability all ask the same question of one time slice of the
array: at which origins does a ``w x h`` window miss every obstacle? A
:class:`Bitboard` answers it with whole-array integer operations. A
``width x height`` array is one Python int, bit ``y * (width + 1) + x``
for cell ``(x, y)`` in 1-based paper coordinates. Column 0 of every
row and the whole of row 0 are padding and never set, so a shift by one
column cannot carry a cell into the next row's cells. A rectangle is a
row run times a comb with one bit per covered row. The origins of the
``w x h`` windows inside a free mask are that mask eroded by ``w``
column shifts and ``h`` row shifts. Seating takes the lowest set bit,
the bottom-left origin; relocation takes the set bit nearest the
module's old origin.

The replay's ad-hoc droplet transports ask the other question a time
slice answers: how many moves from one cell to another through the
free cells? :meth:`Bitboard.steps` answers it with a breadth-first
wave over the whole board at once.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.geometry import Rect


def _erode(bits: int, n: int, step: int) -> int:
    """AND of ``bits >> (k * step)`` for ``k`` in ``0..n-1``, by doubling."""
    span = 1
    while span < n:
        d = min(span, n - span)
        bits &= bits >> (d * step)
        span += d
    return bits


class Bitboard:
    """One array's cell-index arithmetic; the boards are plain ints."""

    __slots__ = ("width", "height", "inside", "stride", "_comb")

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.stride = stride = width + 1
        #: One bit at column 0 of rows ``0..height``.
        self._comb = ((1 << ((height + 1) * stride)) - 1) // ((1 << stride) - 1)
        #: Every cell of the array.
        self.inside = self.rect(1, 1, width, height)

    def rect(self, x1: int, y1: int, x2: int, y2: int) -> int:
        """Bits of the in-array cells of ``[x1, x2] x [y1, y2]``."""
        x1, x2 = max(x1, 1), min(x2, self.width)
        y1, y2 = max(y1, 1), min(y2, self.height)
        if x1 > x2 or y1 > y2:
            return 0
        s = self.stride
        rows = self._comb & ((1 << ((y2 + 1) * s)) - (1 << (y1 * s)))
        return rows * ((1 << (x2 + 1)) - (1 << x1))

    def cover(self, rects: Iterable[Rect]) -> int:
        """Bits of the in-array cells of every rectangle in *rects*."""
        bits = 0
        for r in rects:
            bits |= self.rect(r.x, r.y, r.x2, r.y2)
        return bits

    def origins(self, free: int, w: int, h: int) -> int:
        """Origins of the ``w x h`` windows lying wholly in *free*.

        A window that crosses the right edge meets the padding column,
        and one that crosses the top meets bits above the array; both
        are zero in any mask built from :meth:`rect` and :attr:`inside`.
        """
        return _erode(_erode(free, w, 1), h, self.stride)

    def cell(self, bit: int) -> tuple[int, int]:
        """``(x, y)`` of bit index *bit*."""
        y, x = divmod(bit, self.stride)
        return x, y

    def nearest(self, bits: int, x0: int, y0: int) -> tuple[int, int]:
        """``(x, y)`` of the set bit of non-zero *bits* nearest ``(x0, y0)``.

        Distance is Manhattan; among equals the lowest row wins, then the
        leftmost column. Within one row only two bits can be nearest: the
        first at or right of column *x0* and the last left of it, so the
        search is one pass over the rows.
        """
        s = self.stride
        row_mask = (1 << s) - 1
        split = max(x0, 0)
        left_mask = (1 << split) - 1
        best = None
        lo, hi = self.row_span(bits)
        for y in range(lo, hi + 1):
            row = (bits >> (y * s)) & row_mask
            left, right = row & left_mask, row >> split
            cols = []
            if left:
                cols.append(left.bit_length() - 1)
            if right:
                cols.append(split + (right & -right).bit_length() - 1)
            for x in cols:
                key = (abs(x - x0) + abs(y - y0), y, x)
                if best is None or key < best:
                    best = key
        return best[2], best[1]

    def row_span(self, bits: int) -> tuple[int, int]:
        """Lowest and highest row holding a set bit of non-zero *bits*."""
        s = self.stride
        return ((bits & -bits).bit_length() - 1) // s, (bits.bit_length() - 1) // s

    def column_span(self, bits: int) -> tuple[int, int]:
        """Lowest and highest column holding a set bit of non-zero *bits*."""
        s = self.stride
        n = self.height + 1
        while n > 1:  # fold the upper rows onto the lower ones
            half = (n + 1) // 2
            bits = (bits | (bits >> (half * s))) & ((1 << (half * s)) - 1)
            n = half
        return (bits & -bits).bit_length() - 1, bits.bit_length() - 1

    def steps(self, source: int, target: int, free: int) -> int | None:
        """Moves from the one-bit *source* to the one-bit *target*
        through the cells of *free*, or None when no path exists.

        Each wave shifts the frontier by one column (``+-1``) and one
        row (``+-stride``) and masks it with the free cells not yet
        reached. The padding is never free, so no shift wraps between
        rows, and unit moves make the wave count the shortest path
        length. *target* must lie in *free*; *source* need not.
        """
        if source == target:
            return 0
        s = self.stride
        front = source
        free &= ~source
        depth = 0
        while front:
            depth += 1
            front = ((front << 1) | (front >> 1) | (front << s) | (front >> s)) & free
            if front & target:
                return depth
            free ^= front
        return None
