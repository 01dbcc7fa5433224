"""Golden replay reports.

Every replay below is pinned by a sha256 digest over
``(report.to_dict(), report.events, report.realized,
report.position_log, report.failure_reason)``. The parity suites compare
the production replay with ``oracles.SteppedSimulator``, but that oracle
subclasses the production driver (dispatch, parking policy, fault
realization), so a change there moves both sides together; these pins
catch it.

The designs are the five bundled assays and the four ``synth-n100``
end-to-end specs, synthesized and routed under the fast preset at
placer seed 2 (``max_parked=2`` for the generated specs, as the CLI
runs ``gen:``), each replayed against its routing plan. A bundled assay
is replayed fault-free, with a permanent fault on a module cell at half
the makespan, and with a transient fault that fails at 0.3 and clears
at 0.6 of the makespan; a generated spec is replayed fault-free. One
more design, ``gen:mix-tree:n=64:seed=1`` at placer seed 7, pins a
failed replay's text (ROADMAP item 1: it finds no droplet path); a
failed report times no finish, so its ``realized_makespan_s`` and
``delay_s`` are ``None``.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay, is_generator_spec
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow

SYNTH_N100 = tuple(
    f"gen:{family}:n=100:seed=250"
    for family in ("mix-tree", "diamond", "dilution-ladder", "panel")
)

#: A routed design whose fault-free replay fails today.
FAILING = "gen:mix-tree:n=64:seed=1"

#: (design, case) -> (completed, planned transports, report digest)
PINS = {
    ('dilution', 'nominal'): (True, 2, '94d97a73a2127333d382d4c4abb28afbecfade9a02e4f179b13bc02cc6083b25'),
    ('dilution', 'module-fault'): (True, 2, '54b68780acc527fd2269d93084c684ca6e61b08aced6ef1f81b26ff7252941f1'),
    ('dilution', 'transient'): (True, 0, '24a8d48f195e677661122fce53be553a9787047b8ea946aebe36190fae0b34d0'),
    ('ivd', 'nominal'): (True, 3, 'd336c180fcccdc8b645f4904a48b9d126f32743af6be958adf3aed7f06437e67'),
    ('ivd', 'module-fault'): (True, 0, '41011cf07b9e750edeb8f31e38110eb977facd9c7d44e9869ddca0ae5afac0b9'),
    ('ivd', 'transient'): (True, 1, 'd4100455cbaf91a714fa9a5427c0c45abcd12bad22e5ca32a371b8609b4544ac'),
    ('pcr', 'nominal'): (True, 5, '81e3145713bbdda8f4285f9d241dbdbfdb771ce6bb60e5a994cf5b23b0a1a054'),
    ('pcr', 'module-fault'): (True, 1, '71edc017b5a80dcb3f0b52d91336ac3de31ca81baca7c245be3b1c19df511d6d'),
    ('pcr', 'transient'): (True, 0, 'd2edb508df9794258316399373ac3fef425302ed5fe0ab0e175ea34eaab3c7a4'),
    ('tree16', 'nominal'): (True, 7, 'abe040ba301013fb1380178fdc78b6a8eda7319531e62ef7afc711d69703026d'),
    ('tree16', 'module-fault'): (True, 0, 'bcbc08047025b712bc41a0b7df31511455f8f3b091ed21c58d2e432f2263f45e'),
    ('tree16', 'transient'): (True, 3, '09862cf21469ea4f42754eb46eecd949456a14c4f9b4109e7ec106655bb7b119'),
    ('tree8', 'nominal'): (True, 13, '29c850799a2500ad487a0479c59efda3305192e4ec0012c9b00d90421a4435c1'),
    ('tree8', 'module-fault'): (True, 3, 'd4410741bd5caebed8fb79c89491fab1459c2959e57572a598f32e97f639a396'),
    ('tree8', 'transient'): (True, 0, '6f217ba19c69cf328356cba9a2684d0294d762f9e05760f1e1e8618f150724c6'),
    ('gen:mix-tree:n=100:seed=250', 'nominal'): (True, 47, '659cc4b69498d4e3c7751a766a895d80fa57142ff8d766fff2199dac8dfa81e7'),
    ('gen:diamond:n=100:seed=250', 'nominal'): (True, 76, '2ea789e091fadd629c00fe3a605d04c4bad742c95317ad39e46c704c47b9450c'),
    ('gen:dilution-ladder:n=100:seed=250', 'nominal'): (True, 29, 'eea3f7d7d4a3ac9622bfae90562e31b68fa5e2f06beab63416f05240a22ebd62'),
    ('gen:panel:n=100:seed=250', 'nominal'): (True, 41, '753aefdbd72ab8ae69b8ce140167286c5296970fcb245e20cf09b178d0fa4ceb'),
    ('gen:mix-tree:n=64:seed=1', 'nominal'): (False, 16, '666ca6b9e5943197d7659660a2c2da575db66a39e00d0793c1fc0147db73380e'),
}


@lru_cache(maxsize=None)
def simulator(design: str) -> BiochipSimulator:
    graph, binding = build_assay(design)
    result = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(
            params=AnnealingParams.fast(), seed=7 if design == FAILING else 2
        ),
        max_parked=2 if is_generator_spec(design) else None,
        route=True,
    ).run(graph, explicit_binding=binding)
    return BiochipSimulator(
        result.graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        result.chip,
        routing_plan=result.routing_plan,
    )


def _pending_cell(sim: BiochipSimulator, t: float):
    """A cell of the first module (by op id) still pending at *t*."""
    pending = sorted(
        pm.op_id for pm in sim.placement if sim.schedule.interval(pm.op_id).start > t
    )
    return sim.module_cell(pending[0] if pending else min(pm.op_id for pm in sim.placement))


def faults_for(sim: BiochipSimulator, case: str) -> list[tuple]:
    makespan = sim.schedule.makespan
    if case == "nominal":
        return []
    if case == "module-fault":
        t = 0.5 * makespan
        return [(t, _pending_cell(sim, t))]
    cell = _pending_cell(sim, 0.3 * makespan)
    return [(0.3 * makespan, cell, "fail"), (0.6 * makespan, cell, "clear")]


def report_digest(report) -> str:
    """sha256 over everything a report observes."""
    observed = (
        report.to_dict(),
        report.events,
        report.realized,
        report.position_log,
        report.failure_reason,
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


CASES = (
    *(
        (assay, case)
        for assay in sorted(BUNDLED_ASSAYS)
        for case in ("nominal", "module-fault", "transient")
    ),
    *((spec, "nominal") for spec in SYNTH_N100),
    (FAILING, "nominal"),
)


@pytest.mark.parametrize(("design", "case"), CASES)
def test_replay_is_pinned(design, case):
    sim = simulator(design)
    report = sim.run(faults=faults_for(sim, case))
    got = (report.completed, report.planned_transports, report_digest(report))
    assert got == PINS[design, case]
