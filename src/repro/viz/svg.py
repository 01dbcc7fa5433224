"""Standalone SVG export (no plotting dependencies).

Each function returns an SVG document as a string; :func:`save_svg`
writes it to disk. Geometry follows the paper's convention — cell
(1, 1) renders at the bottom-left.
"""

from __future__ import annotations

from pathlib import Path

from repro.assay.graph import SequencingGraph
from repro.placement.model import Placement
from repro.synthesis.schedule import Schedule

#: Side of one array cell in placement maps, pixels.
_CELL_PX = 26

#: Qualitative palette (ColorBrewer Set3-ish), cycled over modules.
PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
    "#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd",
)


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}" '
        f'font-family="monospace">'
    )
    return "\n".join([head, *body, "</svg>"])


def save_svg(svg: str, path: str | Path) -> Path:
    """Write an SVG string to *path* (creating parent directories)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg, encoding="utf-8")
    return out


def placement_to_svg(
    placement: Placement,
    title: str | None = None,
) -> str:
    """Draw a placement map (paper Figures 7/8 style).

    Modules render as colored footprints with a darker functional
    region and their op id centered.
    """
    draw = placement.normalized()
    width, height = draw.array_dims()
    cell_px = _CELL_PX
    pad = 30
    w_px = width * cell_px + 2 * pad
    h_px = height * cell_px + 2 * pad + (20 if title else 0)
    top = pad + (20 if title else 0)

    def cx(x: int) -> float:
        return pad + (x - 1) * cell_px

    def cy(y: int) -> float:
        # Flip: paper row 1 at the bottom.
        return top + (height - y) * cell_px

    body = []
    if title:
        body.append(f'<text x="{pad}" y="20" font-size="14">{_esc(title)}</text>')
    # Cell lattice.
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            body.append(
                f'<rect x="{cx(x):g}" y="{cy(y):g}" width="{cell_px}" '
                f'height="{cell_px}" fill="white" stroke="#cccccc"/>'
            )
    for i, pm in enumerate(draw):
        color = PALETTE[i % len(PALETTE)]
        fp = pm.footprint
        body.append(
            f'<rect x="{cx(fp.x):g}" y="{cy(fp.y2):g}" '
            f'width="{fp.width * cell_px}" height="{fp.height * cell_px}" '
            f'fill="{color}" fill-opacity="0.75" stroke="#333333"/>'
        )
        fr = pm.functional_region
        body.append(
            f'<rect x="{cx(fr.x):g}" y="{cy(fr.y2):g}" '
            f'width="{fr.width * cell_px}" height="{fr.height * cell_px}" '
            f'fill="{color}" stroke="#333333" stroke-dasharray="3,2"/>'
        )
        label_x = cx(fp.x) + fp.width * cell_px / 2
        label_y = cy(fp.y2) + fp.height * cell_px / 2 + 4
        body.append(
            f'<text x="{label_x:g}" y="{label_y:g}" font-size="12" '
            f'text-anchor="middle">{_esc(pm.op_id)} '
            f'[{pm.start:g},{pm.stop:g})</text>'
        )
    return _svg_document(w_px, h_px, body)


def schedule_to_svg(schedule: Schedule) -> str:
    """Draw a Gantt chart of module usage (paper Figure 6 style)."""
    items = schedule.items()
    px_per_second = 20.0
    row_px = 24
    label_px = 90
    pad = 16
    width = label_px + schedule.makespan * px_per_second + 2 * pad
    height = pad * 2 + row_px * (len(items) + 1)
    body = []
    # Time axis.
    axis_y = pad + row_px * len(items) + 12
    for t in range(int(schedule.makespan) + 1):
        x = label_px + t * px_per_second
        body.append(
            f'<line x1="{x:g}" y1="{pad}" x2="{x:g}" y2="{axis_y - 8}" '
            f'stroke="#eeeeee"/>'
        )
        if t % 5 == 0:
            body.append(
                f'<text x="{x:g}" y="{axis_y}" font-size="10" '
                f'text-anchor="middle">{t}s</text>'
            )
    for i, (op_id, iv) in enumerate(items):
        y = pad + i * row_px
        color = PALETTE[i % len(PALETTE)]
        body.append(
            f'<text x="{label_px - 6}" y="{y + row_px * 0.65:g}" font-size="11" '
            f'text-anchor="end">{_esc(op_id)}</text>'
        )
        x0 = label_px + iv.start * px_per_second
        w = iv.duration * px_per_second
        body.append(
            f'<rect x="{x0:g}" y="{y + 3:g}" width="{w:g}" height="{row_px - 6}" '
            f'fill="{color}" stroke="#333333"/>'
        )
    return _svg_document(width, height, body)


def graph_to_svg(graph: SequencingGraph) -> str:
    """Draw a sequencing graph layered by depth (paper Figure 5 style)."""
    node_w, node_h = 92, 34
    levels = graph.levels()
    by_level: dict[int, list[str]] = {}
    for op_id, lvl in levels.items():
        by_level.setdefault(lvl, []).append(op_id)
    for ops in by_level.values():
        ops.sort()
    n_levels = max(by_level, default=0) + 1
    widest = max((len(ops) for ops in by_level.values()), default=1)
    pad = 24
    h_gap, v_gap = 26, 44
    width = pad * 2 + widest * (node_w + h_gap)
    height = pad * 2 + n_levels * (node_h + v_gap)

    centers: dict[str, tuple[float, float]] = {}
    for lvl, ops in sorted(by_level.items()):
        row_w = len(ops) * node_w + (len(ops) - 1) * h_gap
        x0 = (width - row_w) / 2
        y = pad + lvl * (node_h + v_gap)
        for i, op_id in enumerate(ops):
            x = x0 + i * (node_w + h_gap)
            centers[op_id] = (x + node_w / 2, y + node_h / 2)

    body = []
    for u, v in graph.edges():
        ux, uy = centers[u]
        vx, vy = centers[v]
        body.append(
            f'<line x1="{ux:g}" y1="{uy + node_h / 2:g}" x2="{vx:g}" '
            f'y2="{vy - node_h / 2:g}" stroke="#555555" marker-end="url(#arrow)"/>'
        )
    for i, (op_id, (cx_, cy_)) in enumerate(sorted(centers.items())):
        color = PALETTE[i % len(PALETTE)]
        op = graph.operation(op_id)
        body.append(
            f'<rect x="{cx_ - node_w / 2:g}" y="{cy_ - node_h / 2:g}" '
            f'width="{node_w}" height="{node_h}" rx="8" fill="{color}" '
            f'stroke="#333333"/>'
        )
        body.append(
            f'<text x="{cx_:g}" y="{cy_ - 2:g}" font-size="11" '
            f'text-anchor="middle">{_esc(op_id)}</text>'
        )
        body.append(
            f'<text x="{cx_:g}" y="{cy_ + 11:g}" font-size="9" '
            f'text-anchor="middle">{_esc(op.type.value)}</text>'
        )
    defs = (
        '<defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="7" '
        'refY="3" orient="auto"><path d="M0,0 L7,3 L0,6 z" fill="#555555"/>'
        "</marker></defs>"
    )
    return _svg_document(width, height, [defs, *body])
