"""Terminal renderings of placements, schedules, and FTI maps.

Conventions: the grid prints with row 1 at the *bottom* (paper
coordinates); each module is lettered by placement order; ``.`` is a
free cell; in the merged (whole-assay) view, ``*`` marks a cell reused
by several time-disjoint modules — the visible signature of dynamic
reconfigurability.
"""

from __future__ import annotations

import string

from repro.fault.fti import FTIReport
from repro.placement.model import Placement
from repro.synthesis.schedule import Schedule


def _module_letters(placement: Placement) -> dict[str, str]:
    alphabet = string.ascii_uppercase + string.ascii_lowercase + string.digits
    letters = {}
    for i, pm in enumerate(placement):
        letters[pm.op_id] = alphabet[i % len(alphabet)]
    return letters


def render_placement(
    placement: Placement,
    at_time: float | None = None,
    legend: bool = True,
    use_core: bool = False,
) -> str:
    """Render a placement as an ASCII grid.

    With *at_time*, only modules active at that instant are drawn (one
    cut of paper Figure 2); otherwise the merged view shows every
    module, with ``*`` where time-disjoint modules share cells. By
    default the grid is the bounding array; *use_core* draws the whole
    core area instead.
    """
    if use_core:
        width, height = placement.core_width, placement.core_height
        draw = placement
    else:
        draw = placement.normalized()
        width, height = draw.array_dims()
    letters = _module_letters(draw)
    grid = [["." for _ in range(width)] for _ in range(height)]
    shown = draw.active_at(at_time) if at_time is not None else list(draw)
    for pm in shown:
        ch = letters[pm.op_id]
        for p in pm.footprint.cells():
            if not (1 <= p.x <= width and 1 <= p.y <= height):
                continue
            cur = grid[p.y - 1][p.x - 1]
            grid[p.y - 1][p.x - 1] = ch if cur == "." else "*"
    lines = []
    for y in range(height, 0, -1):
        lines.append(f"{y:3d} " + " ".join(grid[y - 1]))
    lines.append("    " + " ".join(f"{x % 10}" for x in range(1, width + 1)))
    if legend:
        lines.append("")
        for pm in shown:
            lines.append(
                f"  {letters[pm.op_id]} = {pm.op_id} ({pm.spec.name}, "
                f"[{pm.start:g}, {pm.stop:g}) s)"
            )
        if at_time is None and len(draw) > 1:
            lines.append("  * = cells reused by time-disjoint modules")
    return "\n".join(lines)


#: Columns of a Gantt chart's time axis.
GANTT_WIDTH = 60


def render_gantt(schedule: Schedule) -> str:
    """Render a schedule as an ASCII Gantt chart (paper Figure 6), its
    time axis ``GANTT_WIDTH`` columns wide."""
    width = GANTT_WIDTH
    makespan = schedule.makespan
    if makespan <= 0:
        return "(empty schedule)"
    label_w = max((len(op) for op, _ in schedule.items()), default=2) + 1
    scale = width / makespan
    lines = [
        f"{'op'.ljust(label_w)}|0{' ' * (width - len(f'{makespan:g}') - 1)}{makespan:g}s"
    ]
    lines.append("-" * (label_w + width + 1))
    for op_id, iv in schedule.items():
        start_col = int(round(iv.start * scale))
        stop_col = max(start_col + 1, int(round(iv.stop * scale)))
        bar = " " * start_col + "#" * (stop_col - start_col)
        lines.append(f"{op_id.ljust(label_w)}|{bar[:width]}")
    return "\n".join(lines)


def render_fti_map(report: FTIReport) -> str:
    """Render C-coveredness: ``+`` covered, ``x`` uncovered.

    The paper's FTI is simply the density of ``+`` in this map.
    """
    lines = []
    for y in range(report.height, 0, -1):
        row = []
        for x in range(1, report.width + 1):
            row.append("+" if report.is_covered((x, y)) else "x")
        lines.append(f"{y:3d} " + " ".join(row))
    lines.append("    " + " ".join(f"{x % 10}" for x in range(1, report.width + 1)))
    lines.append(
        f"FTI = {report.fti:.4f} "
        f"({report.fault_tolerance_number}/{report.cell_count} C-covered)"
    )
    return "\n".join(lines)
