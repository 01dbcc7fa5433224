"""Visualization: ASCII renderings and dependency-free SVG export.

The paper's Figures 2, 4, 6, 7 and 8 are placement maps, schedules and
reconfiguration illustrations; these renderers regenerate them from
live objects. ASCII output drops into terminals, logs, and docstring
examples; the SVG writer produces standalone files for reports
(matplotlib is deliberately not a dependency).
"""

from repro.viz.ascii_art import (
    render_fti_map,
    render_gantt,
    render_placement,
)
from repro.viz.svg import (
    fti_to_svg,
    graph_to_svg,
    placement_to_svg,
    save_svg,
    schedule_to_svg,
)

__all__ = [
    "fti_to_svg",
    "graph_to_svg",
    "placement_to_svg",
    "render_fti_map",
    "render_gantt",
    "render_placement",
    "save_svg",
    "schedule_to_svg",
]
