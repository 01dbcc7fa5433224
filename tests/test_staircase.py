"""Unit tests for the staircase data structure of the MER oracle."""

import copy

from oracles import Staircase


def collect(staircase: Staircase, heights: list[int]) -> list[tuple[int, int, int]]:
    """Feed a histogram through the staircase, returning emitted spans."""
    emitted = []
    for col, h in enumerate(heights):
        staircase.advance(col, h, lambda s, e, hh: emitted.append((s, e, hh)))
    staircase.finish_row(len(heights), lambda s, e, hh: emitted.append((s, e, hh)))
    return emitted


def steps(staircase: Staircase) -> list[tuple[int, int]]:
    """The ``(start, height)`` steps, bottom (widest) first, as a copy
    of *staircase* flushes them (a flush pops the tallest first)."""
    flushed = []
    copy.deepcopy(staircase).finish_row(
        0, lambda s, e, hh: flushed.append((s, hh))
    )
    return flushed[::-1]


class TestStaircase:
    def test_starts_empty(self):
        s = Staircase()
        assert len(s) == 0
        assert steps(s) == []

    def test_rising_heights_stack_steps(self):
        s = Staircase()
        s.advance(0, 1, lambda *a: None)
        s.advance(1, 3, lambda *a: None)
        assert steps(s) == [(0, 1), (1, 3)]

    def test_equal_height_merges(self):
        s = Staircase()
        s.advance(0, 2, lambda *a: None)
        s.advance(1, 2, lambda *a: None)
        assert len(s) == 1
        assert steps(s) == [(0, 2)]

    def test_zero_height_never_pushed(self):
        s = Staircase()
        s.advance(0, 0, lambda *a: None)
        assert len(s) == 0

    def test_drop_emits_popped_step(self):
        emitted = collect(Staircase(), [3, 1])
        # Step (0, 3) pops at col 1; step height 1 spans both columns.
        assert (0, 0, 3) in emitted
        assert (0, 1, 1) in emitted

    def test_flat_histogram_emits_once(self):
        emitted = collect(Staircase(), [2, 2, 2])
        assert emitted == [(0, 2, 2)]

    def test_valley_histogram(self):
        emitted = collect(Staircase(), [3, 1, 3])
        assert (0, 0, 3) in emitted
        assert (2, 2, 3) in emitted
        assert (0, 2, 1) in emitted
        assert len(emitted) == 3

    def test_pop_derived_step_keeps_leftmost_start(self):
        # heights [3, 9, 5]: popping (1,9) at col 2 starts the height-5
        # step at column 1, not 2.
        emitted = collect(Staircase(), [3, 9, 5])
        assert (1, 2, 5) in emitted

    def test_staircase_invariant_heights_increase(self):
        s = Staircase()
        for col, h in enumerate([1, 5, 3, 7, 7, 2]):
            s.advance(col, h, lambda *a: None)
            heights = [h for _, h in steps(s)]
            assert heights == sorted(heights)
            assert len(set(heights)) == len(heights)

    def test_finish_row_clears(self):
        s = Staircase()
        s.advance(0, 4, lambda *a: None)
        s.finish_row(1, lambda *a: None)
        assert len(s) == 0

    def test_clear(self):
        s = Staircase()
        s.advance(0, 4, lambda *a: None)
        s.clear()
        assert steps(s) == []
