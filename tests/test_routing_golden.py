"""Golden routing plans.

Every plan below is pinned by a digest over each epoch's release
instant, step offset, routed trajectories (net, start step, cells),
failed nets, active modules, exemption regions, faulty cells and parked
droplets. ``TestPlanIdentity`` compares the production synthesizer with
``ReferenceSynthesizer``, but that oracle subclasses the production
epoch builder (nets, holds, parking, index), so a change there moves
both sides together; these pins catch it.

The designs are the four ``synth-n100`` end-to-end specs, an n=120
mix-tree whose plan has failed nets (so negotiation and the
failed-net bookkeeping are on the pinned path), and the five bundled
assays, all under the fast preset and ``max_parked=2``. Each design is
pinned fault-free, with 10% of its street cells faulty (which sends
product parking and plug evacuation through their relocation searches),
and as the recovery engine's suffix re-route: the same faulty cells,
only the epochs released at or after the median operation start,
numbered from step 100.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.fault.injection import sample_street_faults
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.routing import RoutingSynthesizer

SYNTH_N100 = tuple(
    f"gen:{family}:n=100:seed=250"
    for family in ("mix-tree", "diamond", "dilution-ladder", "panel")
)

#: (design, mode) -> (routed, failed, epochs, plan digest)
PINS = {
    ("gen:mix-tree:n=100:seed=250", "clean"): (99, 0, 65, "7a6e84c0696aff5182e5e91d653338bc7a3b0d2064a1134d57712f8bb6521eee"),
    ("gen:mix-tree:n=100:seed=250", "faulted"): (99, 0, 65, "3f743a047a4b79d4c034b833caf8812a95b6b3627939972c35052f968e29f318"),
    ("gen:mix-tree:n=100:seed=250", "suffix"): (54, 0, 33, "f6abffe0c9fb8126e98407254c255d574eb3ab8069c5400f80bd7504cc554469"),
    ("gen:diamond:n=100:seed=250", "clean"): (127, 0, 92, "efd1d5f137bacb1d8075dcccb2c06acea3c748e010c3a304dffe04545c5d6ecc"),
    ("gen:diamond:n=100:seed=250", "faulted"): (127, 0, 92, "3056f975095cf3fe7a7f9dc0b67e37220100362defa99c0f07e2aa51db5c064b"),
    ("gen:diamond:n=100:seed=250", "suffix"): (63, 0, 47, "7b11c6356b378c382d479fa5e5be0e93f0e87618357d9582172de5edd454ccec"),
    ("gen:dilution-ladder:n=100:seed=250", "clean"): (86, 0, 78, "79f7fddf4c84ec956c0a5ccdd58fb1de772b21fb4368172cabdd15428761ebfb"),
    ("gen:dilution-ladder:n=100:seed=250", "faulted"): (86, 0, 78, "536c0e9b13dfc21950a38b15ff356aff4a5078eba5ebadc0c3c38602a0edd8df"),
    ("gen:dilution-ladder:n=100:seed=250", "suffix"): (41, 0, 41, "4573c41d0a1bb15bf949b8649d392803e3737cdf28b6f90d73eaa62fcf0de05a"),
    ("gen:panel:n=100:seed=250", "clean"): (50, 0, 40, "ae246ab897b056cb48f7d835901e73396099e55b9b0a94fadb6f3a6fb6c92a70"),
    ("gen:panel:n=100:seed=250", "faulted"): (50, 0, 40, "896a661aab81869e0e702f068daf9f566ac2749d117f282ee4ad65d791c4d3c6"),
    ("gen:panel:n=100:seed=250", "suffix"): (26, 0, 21, "5d57be47914893330c14b65b78a2deafa4f1eed301563438280d68b9c3925797"),
    ("gen:mix-tree:n=120:seed=1", "clean"): (115, 4, 71, "8b715c5dad1d10404f1e13651750b433bac3af73aadb0ff7a89a3cc57c167679"),
    ("gen:mix-tree:n=120:seed=1", "faulted"): (119, 0, 71, "190866c6f431dbbe745bb6566d552462cf90955fe8f80f9e16262c802326ceea"),
    ("gen:mix-tree:n=120:seed=1", "suffix"): (66, 0, 36, "ae4d9a12581debb7f2a1a7f16b29c4aaffc263de9b17291159cb3000a13fe022"),
    ("dilution", "clean"): (7, 0, 4, "7d8b9f1e527eb247b1a7e40dc61cc5fa8a09350e06fc51c3cab0b92596e17080"),
    ("dilution", "faulted"): (7, 0, 4, "e978f90b83d6198a0243b98e3049e1f41f69594d895cbf62c34ff5a877b85119"),
    ("dilution", "suffix"): (5, 0, 3, "c1d929e500ed402ab91b0c6c40a6554dda24b8e8b66760cd2e79ea0a6cb548cd"),
    ("ivd", "clean"): (4, 0, 3, "e45b8cdf9f0943fa848a4f164616dcc353d61d2971da68191ad0103c631e9b46"),
    ("ivd", "faulted"): (4, 0, 3, "8cf5616c4bdc8373051828a2fe30e868f82b3804eaef532e252c5c9b7ad18b9c"),
    ("ivd", "suffix"): (2, 0, 2, "51305f8380f90a929ccb356b5bc85f4c58c0116926099ba82d2d8f8663df7537"),
    ("pcr", "clean"): (6, 0, 3, "eb563acc3537773fa3bf483682dfad12c21265f85cc4188fa4ec428d6162a747"),
    ("pcr", "faulted"): (6, 0, 3, "18d61a1522889b9001280a861d13cce1253a975766b3c20b90dcfb6483f8deba"),
    ("pcr", "suffix"): (6, 0, 3, "b50e78058805fde3f273daa5e813643b63814c1268cc3ed66ac7b9b73fa51a38"),
    ("tree16", "clean"): (30, 0, 11, "a15091f71cadfc7793c92a9b357e94e138118426173e581cf59ac2ce20b10ace"),
    ("tree16", "faulted"): (30, 0, 11, "38feb4aee49166fbe7cdd17d866ae9683e9c8f522d990e1bbbe2f18a8cabb2b9"),
    ("tree16", "suffix"): (12, 0, 6, "9cdd522245acdec1dcb51c61db033793339eb3b234519ef5144a3f066ced153a"),
    ("tree8", "clean"): (14, 0, 7, "872e903f513b3ff937a33d79636a6ee714f22006d4ffae49735aabe984a68657"),
    ("tree8", "faulted"): (14, 0, 7, "e86c70ab3858ab46a5b93a57b3228e16d21de4ff6d291f7fdd85736ee80e7030"),
    ("tree8", "suffix"): (10, 0, 5, "e06fdc3f80aaab4eb65c093073b97e5f28fcdcc945c367d37d6e3b0b2b68f6ed"),
}


def _placed(spec: str):
    graph, binding = build_assay(spec)
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(max_parked=2).run(context)
    PlaceStage(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2),
        compute_fti_report=False,
    ).run(context)
    return graph, context.schedule, context.placement_result.placement, context.chip


def _net(net) -> tuple:
    return (
        net.net_id, tuple(net.source), tuple(net.goal),
        net.producer, net.consumer, net.priority,
    )


def _rect(rect) -> tuple:
    return (rect.x, rect.y, rect.width, rect.height)


def plan_digest(plan) -> str:
    """sha256 over every epoch's full content, in plan order."""
    rows = [
        (
            epoch.time_s,
            epoch.step_offset,
            tuple(
                (_net(rn.net), rn.start_step, tuple(tuple(c) for c in rn.cells))
                for rn in epoch.nets
            ),
            tuple(_net(n) for n in epoch.failed),
            tuple((_rect(r), owner) for r, owner in epoch.modules),
            tuple((op, _rect(r)) for op, r in epoch.regions),
            tuple(sorted(tuple(c) for c in epoch.faulty)),
            tuple(sorted(tuple(c) for c in epoch.parked)),
        )
        for epoch in plan.epochs
    ]
    return hashlib.sha256(repr((plan.width, plan.height, plan.margin, rows)).encode()).hexdigest()


DESIGNS = (*SYNTH_N100, "gen:mix-tree:n=120:seed=1", *sorted(BUNDLED_ASSAYS))


def synthesize(design: str, mode: str):
    graph, schedule, placement, chip = _placed(design)
    if mode == "clean":
        return RoutingSynthesizer().synthesize(graph, schedule, placement, chip)
    faults = sample_street_faults(placement, chip, 1, rate=0.10)
    if mode == "faulted":
        return RoutingSynthesizer().synthesize(graph, schedule, placement, chip, faults)
    starts = sorted({schedule.start(op) for op in schedule.op_ids()})
    return RoutingSynthesizer().synthesize(
        graph, schedule, placement, chip, faults,
        after_time=starts[len(starts) // 2], step_offset=100,
    )


@pytest.mark.parametrize("mode", ["clean", "faulted", "suffix"])
@pytest.mark.parametrize("design", DESIGNS)
def test_plan_is_pinned(design, mode):
    plan = synthesize(design, mode)
    got = (plan.routed_count, plan.failed_count, len(plan.epochs), plan_digest(plan))
    assert got == PINS[design, mode]
