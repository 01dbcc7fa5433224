"""Row-major bitboards for placement-time geometry.

Seating a module and scoring its relocatability both ask the same
question of one time slice of the array: at which origins does a
``w x h`` window miss every obstacle? A :class:`Bitboard` answers it
with whole-array integer operations. A ``width x height`` array is one
Python int, bit ``y * (width + 1) + x`` for cell ``(x, y)`` in 1-based
paper coordinates. Column 0 of every row and the whole of row 0 are
padding and never set, so a shift by one column cannot carry a cell
into the next row's cells. A rectangle is a row run times a comb with
one bit per covered row. The origins of the ``w x h`` windows inside a
free mask are that mask eroded by ``w`` column shifts and ``h`` row
shifts, and the lowest set bit is the bottom-left one, row by row.
"""

from __future__ import annotations


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
