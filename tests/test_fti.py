"""Tests for the fault tolerance index.

The bitboard FTI is property-tested for exact agreement with the three
reference oracles (the paper's per-cell MER procedure, a pure-Python
brute force and summed-area-table counting) — the whole per-module
analysis, not just the covered set — on randomized placements and on
every bundled assay's placement; and FTI is checked against first
principles on hand-built configurations.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import reference_fti
from oracles.fti import METHODS

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.fault.fti import compute_fti
from repro.geometry import Point
from repro.modules.kinds import ModuleKind
from repro.modules.library import MIXER_2X2, MIXER_LINEAR_1X4, STORAGE_1X1
from repro.modules.module import ModuleSpec
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, ScheduleStage
from repro.placement.annealer import AnnealingParams
from repro.placement.model import PlacedModule, Placement
from repro.placement.sa_placer import SimulatedAnnealingPlacer


def pm(op, spec=MIXER_2X2, x=1, y=1, start=0.0, stop=10.0, rotated=False):
    return PlacedModule(op_id=op, spec=spec, x=x, y=y, start=start, stop=stop, rotated=rotated)


class TestFTIBasics:
    def test_empty_array_fully_covered(self):
        p = Placement(6, 6)
        p.add(pm("a", spec=STORAGE_1X1, x=1, y=1))
        report = compute_fti(p, width=6, height=6)
        # A 3x3 storage module on a 6x6 array can always relocate.
        assert report.fti == 1.0

    def test_fti_bounds(self, sa_result):
        report = compute_fti(sa_result.placement)
        assert 0.0 <= report.fti <= 1.0

    def test_fti_zero_when_module_fills_array(self):
        p = Placement(4, 4)
        p.add(pm("a", x=1, y=1))  # 4x4 module on a 4x4 array
        report = compute_fti(p)
        # No spare cells at all: every cell is used and immovable.
        assert report.fti == 0.0
        assert report.fault_tolerance_number == 0

    def test_unused_cells_always_covered(self):
        p = Placement(8, 4)
        p.add(pm("a", x=1, y=1))
        report = compute_fti(p, width=8, height=4)
        for x in range(5, 9):
            for y in range(1, 5):
                assert report.is_covered((x, y))

    def test_relocatable_module_covers_its_cells(self):
        p = Placement(8, 8)
        p.add(pm("a", x=1, y=1))
        # 8x8 array, one 4x4 module: a 4x4 empty region always remains.
        report = compute_fti(p, width=8, height=8)
        assert report.fti == 1.0
        assert report.per_module["a"].fully_relocatable

    def test_exact_spare_region_minus_fault(self):
        # 4x8 array, 4x4 module at left; spare 4x4 at right. Faulting a
        # module cell leaves the right 4x4 free -> covered. Faulting a
        # spare cell is trivially covered. FTI = 1.
        p = Placement(8, 4)
        p.add(pm("a", x=1, y=1))
        report = compute_fti(p, width=8, height=4)
        assert report.fti == 1.0

    def test_fault_in_unavoidable_column_not_covered(self):
        # 7x4 array: 4x4 module at x1-4, spare strip x5-7 (3 wide). The
        # module can shift right reusing its own cells, so faults in
        # columns 1-3 are covered — but EVERY 4-wide window contains
        # column 4, so its four cells are unavoidable.
        p = Placement(7, 4)
        p.add(pm("a", x=1, y=1))
        report = compute_fti(p, width=7, height=4)
        stuck = {Point(4, y) for y in range(1, 5)}
        assert report.uncovered == frozenset(stuck)
        assert report.fti == pytest.approx(24 / 28)

    def test_reuse_of_own_cells_allowed(self):
        # The module's own (non-faulty) cells count as free space for the
        # relocation target — paper: module "temporarily removed".
        p = Placement(5, 4)
        p.add(pm("a", x=1, y=1))  # 4x4 in a 5x4 array: one spare column
        report = compute_fti(p, width=5, height=4)
        # Fault at (1, 1): module can shift right one column, reusing
        # cells (2..4, *) and the spare column 5.
        assert report.is_covered((1, 1))
        # Fault in the middle column 3: any 4x4 region must contain it.
        assert not report.is_covered((3, 2))

    def test_concurrent_modules_block_relocation(self):
        p = Placement(8, 4)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=5, y=1, start=5, stop=12))  # occupies the spare
        report = compute_fti(p, width=8, height=4)
        # Neither module can relocate: the other blocks the only space.
        assert not report.per_module["a"].fully_relocatable
        assert not report.per_module["b"].fully_relocatable

    def test_time_disjoint_modules_free_each_other(self):
        p = Placement(8, 4)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=5, y=1, start=10, stop=20))
        report = compute_fti(p, width=8, height=4)
        # b is NOT an obstacle for a (disjoint spans) and vice versa.
        assert report.fti == 1.0

    def test_rotation_enables_coverage(self):
        # 3x6 module on a 6x7 array: spare band is 6 wide x 1 tall plus
        # 3x7... construct: module (6 wide, 3 tall) at y=1; array 6x7;
        # free region 6x4: fits the module only unrotated (6x3) - fine;
        # with rotation also 3x6 fits? 6x4 cannot host 3x6. Use explicit check.
        p = Placement(6, 7)
        p.add(pm("a", spec=MIXER_LINEAR_1X4, x=1, y=1))
        with_rot = compute_fti(p, width=6, height=7, allow_rotation=True)
        without = compute_fti(p, width=6, height=7, allow_rotation=False)
        assert with_rot.fti >= without.fti

    def test_explicit_dims_must_contain_placement(self):
        p = Placement(10, 10)
        p.add(pm("a", x=5, y=5))
        with pytest.raises(ValueError):
            compute_fti(p, width=4, height=4)

    def test_report_accessors(self, sa_result):
        report = compute_fti(sa_result.placement)
        assert report.cell_count == report.width * report.height
        assert len(report.covered) + len(report.uncovered) == report.cell_count
        assert report.fault_tolerance_number == len(report.covered)
        assert "FTI" in str(report)


class TestPaperNumbers:
    def test_min_area_placement_has_low_fti(self, sa_result):
        """Paper Section 6.1: the min-area placement has FTI ~0.127 —
        compact placements are fragile. Our SA finds a different 63-cell
        packing, so we assert the *shape*: FTI well below 0.5."""
        report = compute_fti(sa_result.placement)
        assert report.fti < 0.5

    def test_denominator_is_bounding_array(self, sa_result):
        report = compute_fti(sa_result.placement)
        w, h = sa_result.placement.array_dims()
        assert report.cell_count == w * h


def assert_matches_references(placement, width=None, height=None):
    """``compute_fti`` equals every reference oracle report for report:
    covered cells, and per module the feasible-position count and the
    relocatable and stuck cells."""
    fast = compute_fti(placement, width=width, height=height)
    for method in METHODS:
        reference = reference_fti(placement, method, width=width, height=height)
        assert (fast.width, fast.height) == (reference.width, reference.height)
        assert fast.covered == reference.covered, method
        assert fast.per_module == reference.per_module, method


class TestMethodEquivalence:
    """The production FTI and every reference algorithm agree exactly."""

    specs = st.one_of(
        st.sampled_from([MIXER_2X2, MIXER_LINEAR_1X4, STORAGE_1X1]),
        st.builds(
            lambda w, h: ModuleSpec(f"det-{w}x{h}", ModuleKind.DETECTOR, w, h, 5.0),
            st.integers(1, 5),
            st.integers(1, 5),
        ),
    )

    @given(
        array=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        data=st.lists(
            st.tuples(
                specs,
                st.integers(1, 40),      # x
                st.integers(1, 40),      # y
                st.integers(0, 2),       # start slot
                st.booleans(),           # rotated
            ),
            min_size=1,
            max_size=12,
        ),
        explicit=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_methods_agree(self, array, data, explicit):
        """Non-square arrays up to 40 a side, up to 12 modules, analysed
        on the bounding array or on the whole (larger) array."""
        width, height = array
        p = Placement(width, height)
        for i, (spec, x, y, slot, rotated) in enumerate(data):
            w, h = spec.dims(rotated)
            if w > width or h > height:
                continue
            candidate = PlacedModule(
                op_id=f"m{i}", spec=spec,
                x=min(x, width - w + 1), y=min(y, height - h + 1),
                start=slot * 10.0, stop=slot * 10.0 + 10.0, rotated=rotated,
            )
            if all(not candidate.conflicts(other) for other in p):
                p.add(candidate)
        assume(len(p))
        if explicit:
            assert_matches_references(p, width=width, height=height)
        else:
            assert_matches_references(p)

    def test_methods_agree_on_pcr(self, sa_result):
        assert_matches_references(sa_result.placement)

    @pytest.mark.parametrize("assay", sorted(BUNDLED_ASSAYS))
    def test_methods_agree_on_bundled_assay(self, assay):
        graph, binding = BUNDLED_ASSAYS[assay]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage().run(context)
        placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=3)
        result = placer.place(context.schedule, context.binding)
        assert_matches_references(result.placement)


