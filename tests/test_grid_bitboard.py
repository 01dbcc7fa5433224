"""Unit tests for the row-major bitboard, the one grid representation.

Seating, the FTI and relocation all read the array through
:class:`repro.grid.bitboard.Bitboard`; these tests pin its layout and
each query against a per-cell set of ``(x, y)`` pairs.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.grid.bitboard import Bitboard
from repro.modules.library import MIXER_2X2
from repro.placement.model import PlacedModule, Placement


def cells(board: Bitboard, bits: int) -> set[tuple[int, int]]:
    """The ``(x, y)`` cells whose bits are set in *bits*."""
    out = set()
    while bits:
        low = bits & -bits
        out.add(board.cell(low.bit_length() - 1))
        bits ^= low
    return out


def array_cells(w: int, h: int) -> set[tuple[int, int]]:
    return {(x, y) for x in range(1, w + 1) for y in range(1, h + 1)}


rects = st.builds(
    Rect,
    x=st.integers(-2, 9),
    y=st.integers(-2, 9),
    width=st.integers(1, 4),
    height=st.integers(1, 4),
)


class TestLayout:
    def test_inside_is_every_cell(self):
        board = Bitboard(4, 3)
        assert cells(board, board.inside) == array_cells(4, 3)
        assert board.inside.bit_count() == 12

    def test_row_zero_and_column_zero_are_padding(self):
        board = Bitboard(3, 2)
        assert board.cell(0) == (0, 0)
        assert board.cell(board.stride) == (0, 1)
        assert board.cell(board.stride + 1) == (1, 1)  # bottom-left cell
        assert not board.inside & ((1 << board.stride) - 1)

    def test_rect_marks_cells(self):
        board = Bitboard(5, 5)
        bits = board.rect(2, 2, 3, 4)
        assert cells(board, bits) == {(x, y) for x in (2, 3) for y in (2, 3, 4)}

    def test_rect_clips_to_array(self):
        board = Bitboard(3, 3)
        assert cells(board, board.rect(3, 3, 7, 7)) == {(3, 3)}

    def test_rect_fully_outside_is_empty(self):
        board = Bitboard(3, 3)
        assert board.rect(10, 10, 11, 11) == 0
        assert board.rect(-3, 1, 0, 3) == 0


class TestQueries:
    @given(st.lists(rects, max_size=5))
    def test_cover_is_the_union_of_in_array_cells(self, rs):
        board = Bitboard(8, 7)
        expected = set()
        for r in rs:
            expected |= {(p.x, p.y) for p in r.cells()}
        assert cells(board, board.cover(rs)) == expected & array_cells(8, 7)

    @given(
        st.integers(1, 9), st.integers(1, 9), st.lists(rects, max_size=4),
        st.integers(1, 4), st.integers(1, 4),
    )
    def test_origins_are_the_windows_that_fit(self, w, h, rs, ww, wh):
        board = Bitboard(w, h)
        free = board.inside & ~board.cover(rs)
        free_cells = cells(board, free)
        expected = {
            (x, y)
            for x, y in array_cells(w, h)
            if all(
                (x + dx, y + dy) in free_cells
                for dx in range(ww)
                for dy in range(wh)
            )
        }
        assert cells(board, board.origins(free, ww, wh)) == expected

    @given(
        st.integers(1, 9), st.integers(1, 9), st.lists(rects, max_size=4),
        st.integers(-1, 10), st.integers(-1, 10),
    )
    def test_nearest_is_manhattan_then_row_then_column(self, w, h, rs, x0, y0):
        board = Bitboard(w, h)
        free = board.inside & ~board.cover(rs)
        if not free:
            return
        best = min(
            (abs(x - x0) + abs(y - y0), y, x) for x, y in cells(board, free)
        )
        assert board.nearest(free, x0, y0) == (best[2], best[1])

    def test_nearest_breaks_a_tie_by_lowest_row(self):
        board = Bitboard(5, 5)
        bits = board.rect(3, 1, 3, 1) | board.rect(1, 3, 1, 3)
        assert board.nearest(bits, 1, 1) == (3, 1)

    @given(st.integers(1, 9), st.integers(1, 9), st.lists(rects, min_size=1, max_size=4))
    def test_row_and_column_spans(self, w, h, rs):
        board = Bitboard(w, h)
        bits = board.cover(rs)
        if not bits:
            return
        xs = [x for x, _ in cells(board, bits)]
        ys = [y for _, y in cells(board, bits)]
        assert board.row_span(bits) == (min(ys), max(ys))
        assert board.column_span(bits) == (min(xs), max(xs))

    def test_cover_of_the_modules_active_at_an_instant(self):
        placement = Placement(20, 20)
        for op, x, start, stop in (("a", 1, 0, 10), ("b", 6, 5, 15)):
            placement.add(
                PlacedModule(
                    op_id=op, spec=MIXER_2X2, x=x, y=1, start=start, stop=stop
                )
            )
        board = Bitboard(20, 20)
        active = placement.active_at(0)
        used = cells(board, board.cover(m.footprint for m in active))
        assert (1, 1) in used
        assert (6, 1) not in used  # b not active yet
        a_cells = placement.get("a").footprint.cells()
        assert used == {(c.x, c.y) for c in a_cells}
