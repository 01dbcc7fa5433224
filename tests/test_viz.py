"""Tests for ASCII and SVG rendering."""

import xml.etree.ElementTree as ET

from repro.assay.protocols.pcr import build_pcr_mixing_graph
from repro.fault.fti import compute_fti
from repro.modules.library import MIXER_2X2
from repro.placement.model import PlacedModule, Placement
from repro.viz import ascii_art
from repro.viz.ascii_art import render_fti_map, render_gantt, render_placement
from repro.viz.svg import (
    graph_to_svg,
    placement_to_svg,
    save_svg,
    schedule_to_svg,
)


def small_placement() -> Placement:
    p = Placement(10, 10)
    p.add(PlacedModule("A1", MIXER_2X2, x=1, y=1, start=0, stop=10))
    p.add(PlacedModule("B2", MIXER_2X2, x=1, y=1, start=10, stop=20))
    p.add(PlacedModule("C3", MIXER_2X2, x=5, y=1, start=0, stop=10))
    return p


class TestAsciiPlacement:
    def test_merged_view_marks_reuse(self):
        art = render_placement(small_placement())
        assert "*" in art  # A1/B2 share cells across time
        assert "reused" in art

    def test_time_cut_shows_only_active(self):
        art = render_placement(small_placement(), at_time=15, legend=False)
        # Only B2 is active at t=15; its letter is B (second added).
        assert "B" in art
        assert "A" not in art.replace("A1", "")  # no A cells drawn

    def test_legend_lists_modules(self):
        art = render_placement(small_placement())
        for op in ("A1", "B2", "C3"):
            assert op in art

    def test_dimensions_match_bounding_array(self, sa_result):
        art = render_placement(sa_result.placement, legend=False)
        w, h = sa_result.placement.array_dims()
        assert len(art.splitlines()) == h + 1  # rows + x-axis line

    def test_core_view(self):
        art = render_placement(small_placement(), use_core=True, legend=False)
        assert len(art.splitlines()) == 11


class TestAsciiGantt:
    def test_gantt_contains_all_ops(self, pcr):
        chart = render_gantt(pcr.schedule)
        for op in ("M1", "M7"):
            assert op in chart

    def test_gantt_bar_lengths_scale(self, pcr, monkeypatch):
        monkeypatch.setattr(ascii_art, "GANTT_WIDTH", 38)  # 2 cols per second
        chart = render_gantt(pcr.schedule)
        rows = {line.split("|")[0].strip(): line for line in chart.splitlines()[2:]}
        assert rows["M1"].count("#") == 2 * rows["M2"].count("#")  # 10 s vs 5 s


class TestAsciiFtiMap:
    def test_map_reflects_report(self, sa_result):
        report = compute_fti(sa_result.placement)
        art = render_fti_map(report)
        assert art.count("+") % report.width in range(report.width)
        total_marks = art.count("+") + art.count("x")
        assert total_marks == report.cell_count
        assert f"{report.fti:.4f}" in art


class TestSvg:
    def test_placement_svg_is_valid_xml(self, sa_result):
        svg = placement_to_svg(sa_result.placement, title="min-area")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "min-area" in svg

    def test_placement_svg_labels_modules(self, sa_result):
        svg = placement_to_svg(sa_result.placement)
        for pm in sa_result.placement:
            assert pm.op_id in svg

    def test_schedule_svg(self, pcr):
        svg = schedule_to_svg(pcr.schedule)
        ET.fromstring(svg)
        assert "M7" in svg

    def test_graph_svg(self):
        svg = graph_to_svg(build_pcr_mixing_graph())
        ET.fromstring(svg)
        for op in ("M1", "M4", "M7"):
            assert op in svg
        assert "mix" in svg

    def test_save_svg(self, tmp_path, pcr):
        out = save_svg(schedule_to_svg(pcr.schedule), tmp_path / "sub" / "fig6.svg")
        assert out.exists()
        assert out.read_text().startswith("<svg")

