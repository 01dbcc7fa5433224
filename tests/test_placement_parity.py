"""Bitboard seating and delta-sweep core sizing against their oracles.

``first_feasible_position`` erodes one free-cell bitboard per
orientation and takes the lowest set bit; the oracle builds one
candidate module per origin and tests it against every obstacle.
``default_core_side`` sweeps start/stop deltas; the oracle re-sums the
demand at every start instant. Both pairs must agree exactly on drawn
inputs: thin and square arrays, either start orientation, square and
non-square specs, obstacles partly off the core or time-disjoint from
the module, and cores too small to seat it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_default_core_side, reference_first_feasible_position

from repro.modules.kinds import ModuleKind
from repro.modules.library import MIXER_2X2, MIXER_LINEAR_1X4, STORAGE_1X1
from repro.modules.module import ModuleSpec
from repro.placement.legalize import first_feasible_position
from repro.placement.model import PlacedModule
from repro.placement.sa_placer import default_core_side


def spec(w: int, h: int) -> ModuleSpec:
    """A ``w x h`` footprint (w, h >= 3): a ``(w-2) x (h-2)`` functional
    region in its one-cell segregation ring."""
    return ModuleSpec(f"det-{w}x{h}", ModuleKind.DETECTOR, w - 2, h - 2, 5.0)


specs = st.one_of(
    st.sampled_from([MIXER_2X2, MIXER_LINEAR_1X4, STORAGE_1X1]),
    st.builds(spec, st.integers(3, 8), st.integers(3, 8)),
)
# Arrays as thin as the thinnest footprint, three cells.
arrays = st.one_of(
    st.tuples(st.just(3), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(3)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)


def module(op, spec, x=1, y=1, slot=0, rotated=False):
    """Spans of length 10 starting every 5 s: slots 0 and 1 overlap, and
    slot 2 starts as slot 0 stops."""
    return PlacedModule(
        op_id=op, spec=spec, x=x, y=y, start=5.0 * slot, stop=5.0 * slot + 10.0,
        rotated=rotated,
    )


@st.composite
def seating_queries(draw):
    width, height = draw(arrays)
    pm = module("m", draw(specs), slot=draw(st.integers(0, 1)), rotated=draw(st.booleans()))
    obstacles = [
        module(
            draw(st.sampled_from(["m", f"o{i}"])),
            draw(specs),
            x=draw(st.integers(-2, width + 2)),
            y=draw(st.integers(-2, height + 2)),
            slot=draw(st.integers(0, 3)),
            rotated=draw(st.booleans()),
        )
        for i in range(draw(st.integers(0, 12)))
    ]
    return obstacles, pm, width, height, draw(st.booleans())


class TestFirstFeasiblePositionParity:
    @given(query=seating_queries())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_origin_scan(self, query):
        obstacles, pm, width, height, allow_rotation = query
        got = first_feasible_position(obstacles, pm, width, height, allow_rotation)
        want = reference_first_feasible_position(
            obstacles, pm, width, height, allow_rotation
        )
        assert got == want

    def test_no_fit_returns_none(self):
        wall = module("o", spec(5, 5), x=1, y=1)
        for pm, width, height, allow_rotation in (
            (module("m", spec(4, 3)), 3, 8, False),  # too wide for a column
            (module("m", spec(3, 4)), 8, 3, False),  # too tall for a row
            (module("m", spec(4, 4)), 8, 3, True),  # too tall either way
            (module("m", spec(4, 4)), 5, 5, True),  # the wall fills the core
            (module("m", MIXER_LINEAR_1X4), 5, 5, True),  # fits neither way
        ):
            obstacles = [wall] if width == height else []
            args = (obstacles, pm, width, height, allow_rotation)
            assert first_feasible_position(*args) is None
            assert reference_first_feasible_position(*args) is None
            if width != height and not allow_rotation:
                assert first_feasible_position(obstacles, pm, width, height, True)

    def test_native_orientation_wins_a_shared_origin(self):
        for rotated in (False, True):
            pm = module("m", spec(5, 3), rotated=rotated)
            seated = first_feasible_position([], pm, 5, 5, allow_rotation=True)
            assert (seated.x, seated.y, seated.rotated) == (1, 1, rotated)

    def test_lower_row_beats_native_orientation(self):
        # Native 3x5 cannot stand in the 4-row core; transposed 5x3 can.
        pm = module("m", spec(3, 5))
        seated = first_feasible_position([], pm, 8, 4, allow_rotation=True)
        assert (seated.x, seated.y, seated.rotated) == (1, 1, True)
        assert seated == reference_first_feasible_position([], pm, 8, 4, True)

    def test_right_edge_does_not_wrap_to_the_next_row(self):
        # Free cells at the end of rows 1-3 and the start of rows 2-4 are
        # not a window: the padding column between rows must block the
        # origin (6, 1), which would wrap into column 1.
        blocker = module("o", spec(3, 3), x=3, y=1)
        pm = module("m", spec(3, 3))
        got = first_feasible_position([blocker], pm, 7, 6)
        assert got == reference_first_feasible_position([blocker], pm, 7, 6)
        assert (got.x, got.y) == (1, 4)


@st.composite
def module_sets(draw):
    # Starts and stops on a coarse grid, so spans share instants and
    # meet back to back (one's stop is another's start).
    out = []
    for i in range(draw(st.integers(1, 30))):
        start = draw(st.integers(0, 12))
        stop = start + draw(st.integers(1, 6))
        out.append(
            PlacedModule(
                op_id=f"m{i}", spec=draw(specs), x=1, y=1,
                start=float(start), stop=float(stop), rotated=draw(st.booleans()),
            )
        )
    return out


class TestDefaultCoreSideParity:
    @given(modules=module_sets())
    @settings(max_examples=300, deadline=None)
    @example(
        modules=[
            module("a", spec(6, 6), slot=0),  # [0, 10)
            module("b", spec(6, 6), slot=2),  # [10, 20): back to back with a
        ],
    )
    def test_matches_the_per_instant_sum(self, modules):
        assert default_core_side(modules) == reference_default_core_side(modules)

    def test_back_to_back_spans_do_not_stack(self):
        a = module("a", spec(6, 6), slot=0)  # [0, 10)
        b = module("b", spec(6, 6), slot=2)  # [10, 20)
        assert default_core_side([a, b]) == 9  # ceil(sqrt(2 * 36))
        c = module("c", spec(6, 6), slot=1)  # [5, 15) overlaps both
        assert default_core_side([a, b, c]) == 12  # ceil(sqrt(2 * 72))
