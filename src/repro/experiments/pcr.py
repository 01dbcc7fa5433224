"""The PCR case study: Table 1 (binding) and Figure 6 (schedule).

This module assembles the exact experimental setup of the paper's
Section 6 — the seven-mix sequencing graph, the Table 1 binding, and a
resource-constrained schedule consistent with the paper's placement
results — and regenerates both tables' rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.assay.graph import SequencingGraph
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.experiments import paper_constants as paper
from repro.synthesis.binder import Binding, ResourceBinder
from repro.synthesis.schedule import Schedule
from repro.synthesis.scheduler import integerized, list_schedule
from repro.util.tables import format_table

#: Concurrency cap used for the case-study schedule. The paper's own
#: Figure 6 is not recoverable from the text, but its 63-cell placement
#: bounds concurrent demand at 63 cells, which rules out running all
#: four leaf mixes at once (72 cells); capping at three concurrent
#: modules (54 peak cells) reproduces a schedule consistent with every
#: number the paper reports.
MAX_CONCURRENT_MODULES = 3

#: Cell budget mirroring the paper's 63-cell array.
CELL_CAPACITY = 63


@dataclass(frozen=True)
class PCRCaseStudy:
    """Everything downstream experiments need about the PCR workload."""

    graph: SequencingGraph
    binding: Binding
    schedule: Schedule

    @property
    def footprints(self) -> dict[str, int]:
        """Op id -> footprint area in cells."""
        return {op: spec.footprint_area for op, spec in self.binding.items()}

    @property
    def makespan(self) -> float:
        """Assay completion time, seconds."""
        return self.schedule.makespan

    @property
    def peak_cell_demand(self) -> int:
        """Maximum concurrent cell usage (array-area lower bound)."""
        return self.schedule.peak_cell_demand(self.footprints)

    def table1_rows(self) -> list[tuple[str, str, str, str]]:
        """Regenerate Table 1: operation, hardware, module cells, time."""
        rows = []
        for op_id, spec in self.binding.items():
            rows.append(
                (
                    op_id,
                    spec.hardware,
                    f"{spec.footprint_width}x{spec.footprint_height} cells",
                    f"{self.binding.duration_for(op_id):g}s",
                )
            )
        return rows

    def table1_text(self) -> str:
        """Table 1 rendered like the paper's."""
        return format_table(
            ("Operation", "Hardware", "Module", "Mixing time"),
            self.table1_rows(),
            title="Table 1: Resource binding in PCR",
        )


@lru_cache(maxsize=1)
def _cached_case_study() -> PCRCaseStudy:
    graph = build_pcr_mixing_graph()
    binding = ResourceBinder().bind(graph, explicit=PCR_BINDING)
    footprints = {op: spec.footprint_area for op, spec in binding.items()}
    schedule = integerized(
        list_schedule(
            graph,
            binding.durations(),
            max_concurrent_ops=MAX_CONCURRENT_MODULES,
            cell_capacity=CELL_CAPACITY,
            footprints=footprints,
        )
    )
    return PCRCaseStudy(graph=graph, binding=binding, schedule=schedule)


def pcr_case_study() -> PCRCaseStudy:
    """The paper's case study setup (cached — it is pure)."""
    return _cached_case_study()


def verify_table1() -> list[str]:
    """Check our module library against every Table 1 row.

    Returns a list of mismatch descriptions (empty == exact match).
    """
    study = pcr_case_study()
    problems = []
    for op_id, (hardware, (w, h), secs) in paper.TABLE1.items():
        spec = study.binding.spec_for(op_id)
        ours = tuple(sorted((spec.footprint_width, spec.footprint_height)))
        theirs = tuple(sorted((w, h)))
        if ours != theirs:
            problems.append(
                f"{op_id}: footprint {ours} != paper {theirs}"
            )
        if spec.hardware != hardware:
            problems.append(f"{op_id}: hardware {spec.hardware!r} != {hardware!r}")
        if study.binding.duration_for(op_id) != secs:
            problems.append(
                f"{op_id}: duration {study.binding.duration_for(op_id)} != {secs}"
            )
    return problems
