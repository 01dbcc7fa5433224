"""Figure 6 — the schedule of module usage.

Times resource-constrained list scheduling on the PCR graph and
regenerates the Gantt chart. The paper's own figure is not recoverable
from the text, so the assertions pin the *consistency conditions* it
must satisfy: makespan equal to the 19 s critical path and concurrent
cell demand within the paper's 63-cell array.
"""

from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.experiments.pcr import (
    CELL_CAPACITY,
    MAX_CONCURRENT_MODULES,
    pcr_case_study,
)
from repro.synthesis.binder import ResourceBinder
from repro.synthesis.scheduler import list_schedule
from repro.viz.ascii_art import render_gantt


def test_fig6_schedule(benchmark, report):
    graph = build_pcr_mixing_graph()
    binding = ResourceBinder().bind(graph, explicit=PCR_BINDING)
    durations = binding.durations()
    footprints = binding.footprints()

    schedule = benchmark(
        list_schedule,
        graph,
        durations,
        MAX_CONCURRENT_MODULES,
        CELL_CAPACITY,
        footprints,
    )

    assert schedule.makespan == 19.0
    assert schedule.peak_cell_demand(footprints) <= 63
    schedule.validate_precedence(graph)

    study = pcr_case_study()
    lines = [
        render_gantt(study.schedule),
        "",
        f"makespan: {study.makespan:g} s (= critical path; the concurrency "
        "cap costs nothing on PCR)",
        f"peak concurrent cell demand: {study.peak_cell_demand} cells "
        "(fits the paper's 63-cell array)",
    ]
    report("Figure 6: schedule of module usage", "\n".join(lines))
