"""Golden constructive placements and FTI reports.

Every case below is pinned by a sha256 digest. The parity suites hold
``first_feasible_position`` and ``compute_fti`` to reference engines on
drawn inputs; these pins hold the whole placement-time pipeline, on the
designs the end-to-end benchmark runs, to fixed outputs.

The designs are the five bundled assays, the four ``synth-n100`` specs
and campaign-grid's four ``n=50`` generated designs, bound and scheduled
as the flow does (``max_parked=2`` for generated specs, as the CLI runs
``gen:``).

* Constructive seating: ``constructive_initial_placement`` at
  ``default_core_side`` and at two tighter square cores. A digest covers
  every seated module's origin and orientation, or the
  ``PlacementError`` text when a core is too small.
* FTI: the fast-preset SA placement of each design (placer seed 2 for
  bundled and ``n=50`` designs; both of ``synth-n100``'s synthesis
  seeds), analysed on its bounding array with and without rotation, and
  the constructive placement analysed on its whole core. A digest
  covers the array, the covered set and, per module, the feasible
  position count and the stuck and relocatable cells.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay, is_generator_spec
from repro.fault.fti import compute_fti
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
from repro.placement.annealer import AnnealingParams
from repro.placement.greedy import build_placed_modules
from repro.placement.initial import constructive_initial_placement
from repro.placement.sa_placer import SimulatedAnnealingPlacer, default_core_side
from repro.util.errors import PlacementError

SYNTH_N100 = tuple(
    f"gen:{family}:n=100:seed=250"
    for family in ("mix-tree", "diamond", "dilution-ladder", "panel")
)
CAMPAIGN_N50 = (
    "gen:mix-tree:n=50:seed=50",
    "gen:panel:n=50:seed=50",
    "gen:diamond:n=50:seed=50",
    "gen:dilution-ladder:n=50:seed=50",
)
DESIGNS = (*sorted(BUNDLED_ASSAYS), *SYNTH_N100, *CAMPAIGN_N50)


def synthesis_seed(rep: int, spec: str) -> int:
    """``synth-n100``'s pinned synthesis seeds (e2ebench's ``derive``)."""
    digest = hashlib.sha256(f"synth-n100|{rep}|{spec}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def placer_seeds(design: str) -> tuple[int, ...]:
    if design in SYNTH_N100:
        return (synthesis_seed(0, design), synthesis_seed(1, design))
    return (2,)


@lru_cache(maxsize=None)
def synthesized(design: str, seed: int) -> SynthesisContext:
    """Bound, scheduled and (fast preset) placed, without routing."""
    graph, binding = build_assay(design)
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(max_parked=2 if is_generator_spec(design) else None).run(context)
    PlaceStage(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=seed),
        compute_fti_report=False,
    ).run(context)
    return context


def modules_of(design: str):
    context = synthesized(design, placer_seeds(design)[0])
    return build_placed_modules(context.schedule, context.binding)


def core_sides(design: str) -> tuple[int, int, int]:
    """``default_core_side`` and two tighter square cores."""
    side = default_core_side(modules_of(design))
    return side, side - 1, (side * 3) // 4


def _digest(observed) -> str:
    return hashlib.sha256(repr(observed).encode()).hexdigest()


def seating(design: str, side: int) -> tuple[bool, str]:
    """(seated?, digest) of the constructive start on a square core."""
    try:
        placement = constructive_initial_placement(modules_of(design), side, side)
    except PlacementError as exc:
        return False, _digest(str(exc))
    return True, _digest([(pm.op_id, pm.x, pm.y, pm.rotated) for pm in placement])


def fti_digest(report) -> str:
    return _digest(
        (
            report.width,
            report.height,
            sorted(report.covered),
            [
                (
                    op_id,
                    m.feasible_positions,
                    sorted(m.stuck_cells),
                    sorted(m.relocatable_cells),
                )
                for op_id, m in report.per_module.items()
            ],
        )
    )


def fti_case(design: str, seed: int, case: str):
    if case == "core":
        side = default_core_side(modules_of(design))
        placement = constructive_initial_placement(modules_of(design), side, side)
        return compute_fti(placement, width=side, height=side)
    placement = synthesized(design, seed).placement_result.placement
    return compute_fti(placement, allow_rotation=case == "sa")


SEATING_CASES = tuple((design, which) for design in DESIGNS for which in range(3))
FTI_CASES = (
    *(
        (design, seed, case)
        for design in DESIGNS
        for seed in placer_seeds(design)
        for case in ("sa", "sa-fixed")
    ),
    *((design, placer_seeds(design)[0], "core") for design in DESIGNS),
)

#: (design, core index) -> (core side, seated?, digest)
SEATING_PINS = {
    ('dilution', 0): (8, True, '5e747168c4552034f855b96639079c1852e73554ef87d86a59d7c0075623b556'),
    ('dilution', 1): (7, True, '5e747168c4552034f855b96639079c1852e73554ef87d86a59d7c0075623b556'),
    ('dilution', 2): (6, False, 'd15146dded0e2b3da5666c17fa3f04eeff58e69504c96ca03ffc50eb4e4e11ee'),
    ('ivd', 0): (11, True, 'c0af12532619adfb3d5c84c64ec2f510047548774a2c16a849a53f31195a2547'),
    ('ivd', 1): (10, True, '6043e47476403daf957c830584200da24f52b3aff6305884330fc2791ad798c4'),
    ('ivd', 2): (8, False, 'af7660f361fb06038b0fc616b18d5974f6e109aca835861482e962f2865c1bdd'),
    ('pcr', 0): (11, True, '50869936267c5430a671e2206bf0c0f791d96eeaa4234eb090a6f16cbec05eac'),
    ('pcr', 1): (10, True, '92df80de7b2966e8bf4970a5ab779ace7518abf21dac01e0acc9af9afa3dadf7'),
    ('pcr', 2): (8, True, '771e10c4b62b9efcbf91350c105c156a023a1468008c0c1473afa4f0f16031af'),
    ('tree16', 0): (12, True, 'cd4688ef5221f3ea5a20f6db6bccbfefd6ac34cfa5658cce6cd41b8789d05369'),
    ('tree16', 1): (11, True, '76aebe95786c0f5b669d39fe0ac4847506d7c73dc143b92d50192251b098bfc7'),
    ('tree16', 2): (9, False, '1ab3e9201858ef6bea92d67796adebdb2328dcfc775e473b9e5f405939726869'),
    ('tree8', 0): (12, True, 'c8d11e6017c176c4a48226b98b775562fe73b89b2c3a6d47d847faa5b582dce1'),
    ('tree8', 1): (11, True, '3df59d9afad2d8469b46dc114cbce53b818e0234cf10433d57f3f4f846712b1e'),
    ('tree8', 2): (9, False, 'dfe8621ef31337c6b960d992e8c6613b5c476801915e12892cf98581dcba9b19'),
    ('gen:mix-tree:n=100:seed=250', 0): (12, True, 'e0e2460f9be63fe8405747e470be2e1a2320e48c897c7ccef4d72f86f65d50ec'),
    ('gen:mix-tree:n=100:seed=250', 1): (11, True, 'fb918206833093d3d3b3c17ce70faf33e77cbbe402e03eb6ec9c322fa7a7e827'),
    ('gen:mix-tree:n=100:seed=250', 2): (9, False, 'e053a505d33c15d18998ef96e50fb158bff9ed04896dc0821ec371f6d5deda0b'),
    ('gen:diamond:n=100:seed=250', 0): (10, True, 'd8c3dc40363776b4daffdbec8bba36ac49f8df2f13c21112dca6de3824796a09'),
    ('gen:diamond:n=100:seed=250', 1): (9, True, '436af2c99bad3f4edf2d56a57c4bed955f0b634a8624cfe0d832806de22a1bc6'),
    ('gen:diamond:n=100:seed=250', 2): (7, False, '8fe1675a987eaec39e2468ba45abb9594c723dbcc8cd53ef4013696aa192bb3e'),
    ('gen:dilution-ladder:n=100:seed=250', 0): (10, True, '8f31bb2253505568b50819120be2495988a48118f34584022cc67a20c60b1a3f'),
    ('gen:dilution-ladder:n=100:seed=250', 1): (9, True, '8f31bb2253505568b50819120be2495988a48118f34584022cc67a20c60b1a3f'),
    ('gen:dilution-ladder:n=100:seed=250', 2): (7, False, '7fd72f8e81a2833926ece5076647c0e11a98b7a62c846060a37c248845b7f061'),
    ('gen:panel:n=100:seed=250', 0): (11, True, '05b53f7769e6f497ec786c35cc40432650cbe0a67a74cec9416bba473e692ed6'),
    ('gen:panel:n=100:seed=250', 1): (10, True, 'afcaa2fdbde4536b24ae160cb6c4f764026d4c3eb071bfbca835e87f76456144'),
    ('gen:panel:n=100:seed=250', 2): (8, False, 'ac06b7ad410b33f23dde39dba44fd6af35e239a4a9ca6d2dcbe6b9283faec2db'),
    ('gen:mix-tree:n=50:seed=50', 0): (12, True, '567904d74aff10a46a398fc863520f7defe326668891a25169395f3e44d2003f'),
    ('gen:mix-tree:n=50:seed=50', 1): (11, True, '94b04e9ae6d235c1dee31eba4a30cd6fb3b8fe82b593a8bf2d1afd872eef733a'),
    ('gen:mix-tree:n=50:seed=50', 2): (9, False, '66359b44bd10af72140d2300ac5aee79f8c5c9a83f05b0672aaeb540d619af93'),
    ('gen:panel:n=50:seed=50', 0): (11, True, '6fa853257adda9c5c57e49ece381b3755bee705d05791c0a1688718de0581ff4'),
    ('gen:panel:n=50:seed=50', 1): (10, True, '1a4c5917a84d83d51353503b1815ab60228839a08a7a763f28267e0a722834dd'),
    ('gen:panel:n=50:seed=50', 2): (8, False, '122a4c5feca19ed303702e56842555606f6816532580ad964996342da9b543d5'),
    ('gen:diamond:n=50:seed=50', 0): (10, True, '7177fe7a7a34204a6370b05d0e7845e3096c4939485683b43738959b4de81146'),
    ('gen:diamond:n=50:seed=50', 1): (9, True, '6d79163b5066ca50aa5930d0525e8beaf8aeccb935fb7b431cc8289dc75e0121'),
    ('gen:diamond:n=50:seed=50', 2): (7, False, '88a4dfe53b089ff775a183900f4d988d71bb7f7507ea20dd1585d778de643394'),
    ('gen:dilution-ladder:n=50:seed=50', 0): (10, True, 'c000ab50f431429c7f734757c7c125e52cb309ca1a5dff28f5afb0a52bbfe05e'),
    ('gen:dilution-ladder:n=50:seed=50', 1): (9, True, 'c000ab50f431429c7f734757c7c125e52cb309ca1a5dff28f5afb0a52bbfe05e'),
    ('gen:dilution-ladder:n=50:seed=50', 2): (7, False, '8b1a6219ff8cddb9feb6910888b40510d63f02267ca6c80c3bbeca83e117c196'),
}

#: (design, placer seed, case) -> (FTI k, digest)
FTI_PINS = {
    ('dilution', 2, 'sa'): (6, 'e9d1e8b7ac02b6f1fe5ba9d77884ba5d07c94176de0b655fb36f7a71cb263fd7'),
    ('dilution', 2, 'sa-fixed'): (6, 'e9d1e8b7ac02b6f1fe5ba9d77884ba5d07c94176de0b655fb36f7a71cb263fd7'),
    ('ivd', 2, 'sa'): (6, '421b67b7963565f89c742c6bb34393d29d00c54a022499dfb418bfcc9311076b'),
    ('ivd', 2, 'sa-fixed'): (2, '87efce21fbdaa7b91acb83b124bbe9b55b55b5ec981ef5ac2d155b4d40dfe3ad'),
    ('pcr', 2, 'sa'): (18, 'b9b40b2fd6c11c9d50a9af3947f2aa03be97ed4554934a9536bc06ec2f36b087'),
    ('pcr', 2, 'sa-fixed'): (7, 'e82c070713f347055ddc98d6e25f944d0ee56b61ad2c09334ecb1f677b086745'),
    ('tree16', 2, 'sa'): (20, 'e2c0d7bc2d81ed60dc371f6c1aa809b1152dad34173afdfe51e1851c3f16817a'),
    ('tree16', 2, 'sa-fixed'): (18, '281ae5b99c166ef0bc3c4c641f9323dbb8d3c26828c1475c8b33e9613f04274f'),
    ('tree8', 2, 'sa'): (20, '434210a55432ce2550919c7396565fb0c81c7e9e079d85903180436d1d1debda'),
    ('tree8', 2, 'sa-fixed'): (16, '22d90ac41ba3a06d51d3d90c8425ed3375bc28de3c4178914096ff8839d8fd53'),
    ('gen:mix-tree:n=100:seed=250', 1129178217283907344, 'sa'): (11, 'e41198ec385430ca7c65110654839184f8832f856cfb40b44778df49ae770272'),
    ('gen:mix-tree:n=100:seed=250', 1129178217283907344, 'sa-fixed'): (11, 'c854652f2dc1cacc5f8c4cbfc5904a972cbf29f6b78fb50be08ae87c5f00304f'),
    ('gen:mix-tree:n=100:seed=250', 1462009260437251647, 'sa'): (11, 'e41198ec385430ca7c65110654839184f8832f856cfb40b44778df49ae770272'),
    ('gen:mix-tree:n=100:seed=250', 1462009260437251647, 'sa-fixed'): (11, 'c854652f2dc1cacc5f8c4cbfc5904a972cbf29f6b78fb50be08ae87c5f00304f'),
    ('gen:diamond:n=100:seed=250', 7908914931263190837, 'sa'): (54, '8b03886377c4d9b757ce114fe5fc075ebf4caf83efe0a8fe71e9b5dbd72726f0'),
    ('gen:diamond:n=100:seed=250', 7908914931263190837, 'sa-fixed'): (35, '78505718df99b7abc5e855a01f48030afcd2b1d1df4d4b67762014be66dc8ca6'),
    ('gen:diamond:n=100:seed=250', 3777676167755223856, 'sa'): (54, '8b03886377c4d9b757ce114fe5fc075ebf4caf83efe0a8fe71e9b5dbd72726f0'),
    ('gen:diamond:n=100:seed=250', 3777676167755223856, 'sa-fixed'): (35, '78505718df99b7abc5e855a01f48030afcd2b1d1df4d4b67762014be66dc8ca6'),
    ('gen:dilution-ladder:n=100:seed=250', 1506264408096669937, 'sa'): (4, 'c6b1287a6ef64b970f307648cc4c229d1ab910ec748ec4b408f1732a88e1349a'),
    ('gen:dilution-ladder:n=100:seed=250', 1506264408096669937, 'sa-fixed'): (4, 'c6b1287a6ef64b970f307648cc4c229d1ab910ec748ec4b408f1732a88e1349a'),
    ('gen:dilution-ladder:n=100:seed=250', 7189890582479561216, 'sa'): (4, 'c6b1287a6ef64b970f307648cc4c229d1ab910ec748ec4b408f1732a88e1349a'),
    ('gen:dilution-ladder:n=100:seed=250', 7189890582479561216, 'sa-fixed'): (4, 'c6b1287a6ef64b970f307648cc4c229d1ab910ec748ec4b408f1732a88e1349a'),
    ('gen:panel:n=100:seed=250', 6353083155689732232, 'sa'): (99, 'f04ce7f13bc0d13f761396dcc463e268ac359623271d2b9bf556665bfdc3e5ad'),
    ('gen:panel:n=100:seed=250', 6353083155689732232, 'sa-fixed'): (85, 'b90ece461cbbbb1c22201f888c347702a845f3fd387f4a45fc6a050da57b980a'),
    ('gen:panel:n=100:seed=250', 2663110491169863984, 'sa'): (99, 'f04ce7f13bc0d13f761396dcc463e268ac359623271d2b9bf556665bfdc3e5ad'),
    ('gen:panel:n=100:seed=250', 2663110491169863984, 'sa-fixed'): (85, 'b90ece461cbbbb1c22201f888c347702a845f3fd387f4a45fc6a050da57b980a'),
    ('gen:mix-tree:n=50:seed=50', 2, 'sa'): (31, 'dddadc50b3307cc22899ca8d66af0201a01bea2181fcaab5e8edb5e73b06d08d'),
    ('gen:mix-tree:n=50:seed=50', 2, 'sa-fixed'): (31, '672011e84ba63d4200ed821afd8e56c96a0ca11613f66724b130a01f0e9c8700'),
    ('gen:panel:n=50:seed=50', 2, 'sa'): (76, 'a241b89c52dee242504d7edbbc1cffc31b30c71eb151fb3faca10b251ebf7a12'),
    ('gen:panel:n=50:seed=50', 2, 'sa-fixed'): (62, 'b9b0f11832027e60058c7cd382264bb78a8a1bf8147880498784e13bd8930b63'),
    ('gen:diamond:n=50:seed=50', 2, 'sa'): (67, '3cd704ffc42941fe32d993d364285be4a2facfca2c8bd3c4b37afa8d18a55f5c'),
    ('gen:diamond:n=50:seed=50', 2, 'sa-fixed'): (53, '78817a41433faddfd239abc56fe6c7b6b0cbe653e9f32525e5055c7b9b63f13c'),
    ('gen:dilution-ladder:n=50:seed=50', 2, 'sa'): (64, '234006e80da2cdcfdbb84b01af42bbfa23badc316022e6fecbf2d582a798777d'),
    ('gen:dilution-ladder:n=50:seed=50', 2, 'sa-fixed'): (64, '234006e80da2cdcfdbb84b01af42bbfa23badc316022e6fecbf2d582a798777d'),
    ('dilution', 2, 'core'): (64, 'b703932f213a09717c616cecd54ff9d1af0be14db412bf4d8f33529beafeb2a3'),
    ('ivd', 2, 'core'): (121, 'f504973225c0922b1c336c997efab4edce7ec9c776245d3e50747d3f96120842'),
    ('pcr', 2, 'core'): (121, 'a93c50909f7db74a9f33d14110345be2105b273950d993af09afc6a36bd5e11f'),
    ('tree16', 2, 'core'): (144, '0f4e50f989483f6ad0d2f329b046ed65eec921e37494dea20722759132c011cf'),
    ('tree8', 2, 'core'): (144, '29cefc2329a01b133e4b9e5f7cdeb95f0d291e50a6d83ecc1bc9e5beb4e98662'),
    ('gen:mix-tree:n=100:seed=250', 1129178217283907344, 'core'): (144, '739d4a20fe6dc393ae969fdd7f5c3197ad27a0d7f8c131659beec3724f2a69ca'),
    ('gen:diamond:n=100:seed=250', 7908914931263190837, 'core'): (100, 'a489db9ceb8124c2e42239f4a6b96a26f0c94b490f19b255cdd2841c5cfeb8e1'),
    ('gen:dilution-ladder:n=100:seed=250', 1506264408096669937, 'core'): (68, 'aaa365b9e4e23e7377498840ec69fd90b9b5fad369f3100aac7216fc29915eaf'),
    ('gen:panel:n=100:seed=250', 6353083155689732232, 'core'): (121, '8bc7780ed2cdfcb7cc9cef81515a02eb03af56b12b676ccf881ff459873f317b'),
    ('gen:mix-tree:n=50:seed=50', 2, 'core'): (144, '57b08ba0207b36954c2d4d83ac307ce251865e271f0b7141e8cffd3257a7d24f'),
    ('gen:panel:n=50:seed=50', 2, 'core'): (121, '7dd2e40b1c1cb160f23d2f506b533fd4e0ddda2305f5fa8c69fb339b8a78a0c4'),
    ('gen:diamond:n=50:seed=50', 2, 'core'): (100, '18cf8021e3bd15006a4fa4b2988bce61f338751fe13580f81879ab433e08ebd4'),
    ('gen:dilution-ladder:n=50:seed=50', 2, 'core'): (100, 'd7c1126fba7b6efc52d48de3daada34df7f5307549e3faeb8bd0e2009e4a8f9a'),
}


@pytest.mark.parametrize(("design", "which"), SEATING_CASES)
def test_constructive_seating_is_pinned(design, which):
    side = core_sides(design)[which]
    assert (side, *seating(design, side)) == SEATING_PINS[design, which]


@pytest.mark.parametrize(("design", "seed", "case"), FTI_CASES)
def test_fti_report_is_pinned(design, seed, case):
    report = fti_case(design, seed, case)
    got = (report.fault_tolerance_number, fti_digest(report))
    assert got == FTI_PINS[design, seed, case]
