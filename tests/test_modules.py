"""Unit tests for module specs and the standard library (Table 1)."""

import pytest

from repro.geometry import Rect
from repro.modules.kinds import ModuleKind
from repro.modules.library import (
    MIXER_2X2,
    MIXER_2X3,
    MIXER_2X4,
    MIXER_LINEAR_1X4,
    ModuleLibrary,
    standard_library,
)
from repro.modules.module import ModuleSpec


class TestModuleSpecGeometry:
    def test_segregation_ring_adds_two(self):
        # Table 1: 2x2 functional -> 4x4 cells.
        assert MIXER_2X2.footprint_width == 4
        assert MIXER_2X2.footprint_height == 4

    def test_linear_mixer_footprint(self):
        # Table 1: 4-electrode linear array -> 3x6 cells.
        assert sorted((MIXER_LINEAR_1X4.footprint_width, MIXER_LINEAR_1X4.footprint_height)) == [3, 6]

    def test_2x3_mixer_footprint(self):
        assert sorted((MIXER_2X3.footprint_width, MIXER_2X3.footprint_height)) == [4, 5]

    def test_2x4_mixer_footprint(self):
        assert sorted((MIXER_2X4.footprint_width, MIXER_2X4.footprint_height)) == [4, 6]

    def test_footprint_area(self):
        assert MIXER_2X2.footprint_area == 16
        assert MIXER_2X4.footprint_area == 24

    def test_is_square(self):
        assert MIXER_2X2.is_square
        assert not MIXER_LINEAR_1X4.is_square

    def test_footprint_at(self):
        assert MIXER_2X2.footprint_at(3, 4) == Rect(3, 4, 4, 4)

    def test_footprint_at_rotated(self):
        fp = MIXER_LINEAR_1X4.footprint_at(1, 1, rotated=True)
        assert (fp.width, fp.height) == (3, 6)

    def test_functional_inside_footprint(self):
        fp = MIXER_2X3.footprint_at(2, 2)
        fr = MIXER_2X3.functional_at(2, 2)
        assert set(fr.cells()) <= set(fp.cells())
        assert fr == fp.inset(1)

    def test_dims_rotation(self):
        w, h = MIXER_LINEAR_1X4.dims()
        assert MIXER_LINEAR_1X4.dims(rotated=True) == (h, w)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModuleSpec("bad", ModuleKind.MIXER, 0, 2, 5.0)
        with pytest.raises(ValueError):
            ModuleSpec("bad", ModuleKind.MIXER, 2, 2, 0.0)


class TestMixingTimes:
    """Table 1 mixing times (from Paik et al. [18])."""

    def test_paper_durations(self):
        assert MIXER_2X2.duration_s == 10.0
        assert MIXER_LINEAR_1X4.duration_s == 5.0
        assert MIXER_2X3.duration_s == 6.0
        assert MIXER_2X4.duration_s == 3.0

    def test_bigger_mixers_are_faster(self):
        # The Paik et al. trend the paper's binding exploits.
        assert MIXER_2X4.duration_s < MIXER_2X3.duration_s < MIXER_2X2.duration_s


class TestModuleLibrary:
    def test_standard_library_contents(self):
        lib = standard_library()
        for name in ("mixer-2x2", "mixer-linear-1x4", "mixer-2x3", "mixer-2x4",
                     "storage-1x1", "detector-1x1"):
            assert name in lib

    def test_get_unknown_raises_with_candidates(self):
        lib = standard_library()
        with pytest.raises(KeyError, match="mixer-2x2"):
            lib.get("nonexistent")

    def test_duplicate_name_rejected(self):
        lib = standard_library()
        with pytest.raises(ValueError):
            lib.add(MIXER_2X2)

    def test_by_kind_sorted_fastest_first(self):
        lib = standard_library()
        mixers = lib.by_kind(ModuleKind.MIXER)
        assert [m.duration_s for m in mixers] == sorted(m.duration_s for m in mixers)

    def test_fastest_mixer(self):
        assert standard_library().fastest(ModuleKind.MIXER).name == "mixer-2x4"

    def test_smallest_mixer(self):
        assert standard_library().smallest(ModuleKind.MIXER).name == "mixer-2x2"

    def test_fastest_missing_kind(self):
        with pytest.raises(KeyError):
            ModuleLibrary().fastest(ModuleKind.MIXER)

    def test_len_and_iter(self):
        lib = standard_library()
        assert len(lib) == len(list(lib))
