"""Golden annealing trajectories.

Every anneal below is pinned by its best placement's ``(op, x, y,
rot)`` rows (as a digest), its integer counters, its stop reason and
its best cost rounded to 9 decimals. A change to the annealing kernel
that moves the trajectory at all — a different random draw, a
reordered float sum, a different best snapshot — changes a pin, even
when the incremental and full-recompute paths move together (which
``test_matches_full_path_exactly`` cannot see).

The cases cover every cost the incremental engine prices: the
fault-oblivious placer (``AreaCost``) on four generated families, the
two-stage placer's LTSA stage (``FaultAwareCost``), the transport-aware
cost, and two consecutive replace-rung recovery anneals on one engine
(``FaultAvoidanceCost`` over a ``movable`` subset, each from its own
checkpoint). Further ``AreaCost`` cases reach the branches the
generated families do not: best-state snapshots (``improvements > 0``
under the balanced schedule), and one- and two-module placements (a
move that is the whole placement, and a pair interchange with no third
module).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.assay.catalog import build_assay
from repro.modules.library import MIXER_2X3, MIXER_2X4
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, ScheduleStage
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.model import PlacedModule
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.transport import TransportAwareCost
from repro.placement.two_stage import TwoStagePlacer
from repro.recovery import OnlineRecoveryEngine
from repro.recovery.engine import pick_fault_cell
from repro.synthesis.flow import SynthesisFlow

GEN_FAMILIES = ("mix-tree", "diamond", "dilution-ladder", "panel")


def _scheduled(spec: str, max_parked: int | None = None):
    graph, binding = build_assay(spec)
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(max_parked=max_parked).run(context)
    return graph, context.schedule, context.binding


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _pin(best, stats) -> dict:
    rows = sorted((pm.op_id, pm.x, pm.y, bool(pm.rotated)) for pm in best)
    history = [tuple(round(v, 9) for v in entry) for entry in stats.history]
    return {
        "rows": _digest(rows),
        "history": _digest(history) if history else None,
        "evaluations": stats.evaluations,
        "acceptances": stats.acceptances,
        "improvements": stats.improvements,
        "stop_reason": stats.stop_reason,
        "best_cost": round(stats.best_cost, 9),
    }


def _capture(monkeypatch) -> list[dict]:
    """Record the pin of every incremental anneal run from here on."""
    pins: list[dict] = []
    original = SimulatedAnnealing.optimize_incremental

    def recording(self, *args, **kwargs):
        best, stats = original(self, *args, **kwargs)
        pins.append(_pin(best, stats))
        return best, stats

    monkeypatch.setattr(SimulatedAnnealing, "optimize_incremental", recording)
    return pins


def run_case(name: str, monkeypatch) -> list[dict]:
    """Run one golden case; returns the pins of its anneals, in order."""
    pins = _capture(monkeypatch)
    fast = AnnealingParams.fast()
    if name.startswith("gen:"):
        _, schedule, binding = _scheduled(name, max_parked=2)
        SimulatedAnnealingPlacer(params=fast, seed=3).place(schedule, binding)
    elif name.startswith("balanced:"):
        _, schedule, binding = _scheduled(name.removeprefix("balanced:"))
        SimulatedAnnealingPlacer(
            params=AnnealingParams.balanced(), seed=3
        ).place(schedule, binding)
    elif name in ("one-module", "two-module"):
        # Two non-square modules that share four seconds of time.
        modules = [
            PlacedModule(op_id="a", spec=MIXER_2X3, x=1, y=1, start=0.0, stop=10.0),
            PlacedModule(op_id="b", spec=MIXER_2X4, x=1, y=1, start=6.0, stop=14.0),
        ]
        count = 1 if name == "one-module" else 2
        SimulatedAnnealingPlacer(params=fast, seed=3).place_modules(modules[:count])
    elif name == "ltsa-pcr":
        _, schedule, binding = _scheduled("pcr")
        TwoStagePlacer(
            beta=30.0, stage1_params=fast,
            stage2_params=AnnealingParams(
                initial_temp=30.0, cooling=0.8, iterations_per_module=25,
                freeze_rounds=2, window_gamma=0.4,
            ),
            seed=7,
        ).place(schedule, binding)
    elif name == "transport-pcr":
        graph, schedule, binding = _scheduled("pcr")
        SimulatedAnnealingPlacer(
            params=fast, cost=TransportAwareCost(graph), seed=5
        ).place(schedule, binding)
    elif name == "recovery-pcr":
        graph, binding = build_assay("pcr")
        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(params=fast, seed=7), route=True
        )
        routed = flow.run(graph, explicit_binding=binding)
        pins.clear()  # keep only the recovery anneals
        engine = OnlineRecoveryEngine(annealing=fast)
        for fraction, seed in ((0.4, 3), (0.6, 11)):
            t = fraction * routed.schedule.makespan
            ck = engine.checkpoint_of(routed, t)
            cell = pick_fault_cell(routed, ck, "pending-module", rng=seed)
            engine.recover(routed, [cell], t, seed=seed, rung="replace")
    else:  # pragma: no cover - a typo in the table below
        raise KeyError(name)
    return pins


#: Computed before the flat-array kernel landed; they must never move.
PINS = {
    "gen:mix-tree:n=40:seed=250": [
        {"rows": "83a34efeac564f53", "history": "04fda2cd6e41e0b2",
         "evaluations": 43200, "acceptances": 23903,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 220.35},
    ],
    "gen:diamond:n=40:seed=250": [
        {"rows": "06deb07f5b6005d3", "history": "875efd03ea7893e7",
         "evaluations": 40000, "acceptances": 27208,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 178.75},
    ],
    "gen:dilution-ladder:n=40:seed=250": [
        {"rows": "54d7f429aa559fc8", "history": "a1d8fccba4950a36",
         "evaluations": 40000, "acceptances": 24692,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 163.5},
    ],
    "gen:panel:n=40:seed=250": [
        {"rows": "2f5fd0d72389c513", "history": "07e6ea6f66cb282c",
         "evaluations": 43200, "acceptances": 26273,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 219.4},
    ],
    "balanced:pcr": [
        {"rows": "9149a59a5e0705ce", "history": "7710bf7090116c8a",
         "evaluations": 36120, "acceptances": 18370,
         "improvements": 2, "stop_reason": "window-frozen",
         "best_cost": 146.55},
    ],
    "balanced:tree16": [
        {"rows": "b8a6098a49e46d5a", "history": "cd18f37367dfae22",
         "evaluations": 167400, "acceptances": 90567,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 235.55},
    ],
    "one-module": [
        {"rows": "ef93d530126ca596", "history": "fec9528c5d526274",
         "evaluations": 840, "acceptances": 838,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 45.45},
    ],
    "two-module": [
        {"rows": "07f654db2fdee683", "history": "89b6c1918ccc180f",
         "evaluations": 2000, "acceptances": 825,
         "improvements": 4, "stop_reason": "window-frozen",
         "best_cost": 109.15},
    ],
    "ltsa-pcr": [
        {"rows": "bab4163e026e6d30", "history": "646fa40844b2562c",
         "evaluations": 7560, "acceptances": 3142,
         "improvements": 10, "stop_reason": "window-frozen",
         "best_cost": 149.2},
        {"rows": "ce367748907b9e3a", "history": "f86d0c26c6aaba19",
         "evaluations": 2800, "acceptances": 868,
         "improvements": 3, "stop_reason": "window-frozen",
         "best_cost": 129.3},
    ],
    "transport-pcr": [
        {"rows": "674a9cbcd9af4fa1", "history": "657e0eb9256918f4",
         "evaluations": 7560, "acceptances": 3160,
         "improvements": 10, "stop_reason": "window-frozen",
         "best_cost": 151.8},
    ],
    "recovery-pcr": [
        {"rows": "7da31bbe03739d2e", "history": None,
         "evaluations": 2000, "acceptances": 1335,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 2001.0},
        {"rows": "222f886577dcd01f", "history": None,
         "evaluations": 1000, "acceptances": 616,
         "improvements": 0, "stop_reason": "window-frozen",
         "best_cost": 2000.0},
    ],
}


@pytest.mark.parametrize("name", list(PINS))
def test_trajectory_is_pinned(name, monkeypatch):
    assert run_case(name, monkeypatch) == PINS[name]
