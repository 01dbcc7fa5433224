"""The benchmark's three workloads, one per kind of user.

Each workload builds its inputs in its constructor (the set-up the
``setup_s`` metric times; recover-paper defers its slow nominal
syntheses to the untimed start of :meth:`measure`), then
:meth:`measure` runs a closed loop with
a single caller: the next operation starts when the previous one
returns.  Every operation is timed on its own, its outputs are checked,
and failures are counted by kind instead of raised.  After each
operation, outside its timing, the host probe times its reference
kernel (``hostspeed.py``).

Seeds: every random choice hashes the workload seed with the name of
what it seeds (:func:`derive`).  What the seed drives differs per
workload, and is pinned where a free choice would make the figures
unsteady (see each class and NOTES.md).  The pinned corpus constants
come in two sets: the main one, and a hold-out one (``--holdout``) that
checks a result is not tuned to one constant.
"""

from __future__ import annotations

import filecmp
import hashlib
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.assay import catalog
from repro.fault.models import CLEAR, FAIL, FaultEvent
from repro.geometry import Point
from repro.pipeline.context import SynthesisContext
from repro.pipeline.pipeline import build_default_pipeline
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery import ClosedLoopController, OnlineRecoveryEngine
from repro.recovery.engine import pick_fault_cell
from repro.synthesis.flow import SynthesisFlow
from repro.testing.chaos import ChaosPolicy
from repro.testing.detector import CapacitiveSensor
from repro.util.errors import RoutingError
from repro.workload.campaign import CampaignConfig, CampaignRunner, validate_log

from hostspeed import HostProbe, ParallelProbe
from tracing import Tracer, install_layer_spans

#: The lossy sensor of the recovery and campaign workloads.
SENSOR_FPR = 0.02
SENSOR_FNR = 0.05


def derive(*parts) -> int:
    """A 63-bit seed from hashing *parts*."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Outcome:
    """What one measured phase timed, counted and checked."""

    #: Times the reference kernel after every operation.
    probe: HostProbe | ParallelProbe
    #: Wall seconds of each timed operation, in run order.
    op_s: list[float] = field(default_factory=list)
    #: The same at nominal host speed (:meth:`HostProbe.scaled`).
    scaled_s: list[float] = field(default_factory=list)
    #: Wall seconds of the timed operations together (probe passes excluded).
    measured_s: float = 0.0
    #: Wall seconds of the part the tracer recorded (traced runs only).
    traced_s: float = 0.0
    failed: int = 0
    #: Failure kinds (exception type or outcome reason) -> count.
    failures: Counter = field(default_factory=Counter)
    #: Output checks that did not hold; any entry fails the run.
    violations: list[str] = field(default_factory=list)
    #: Operations attempted: designs or scenarios.
    attempted: int = 0
    area_cells: float = 0.0
    fti: list[float] = field(default_factory=list)
    nets_routed: int = 0
    nets_total: int = 0
    completed: int = 0
    penalties_s: list[float] = field(default_factory=list)
    #: Per-layer values only the workload can compute.
    layers: dict[str, float] = field(default_factory=dict)

    def record(self, op_s: float) -> None:
        """Keep one operation's wall time and its time at nominal host
        speed (:meth:`HostProbe.scaled` runs the probe after it)."""
        self.op_s.append(op_s)
        self.scaled_s.append(self.probe.scaled(op_s))

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] += 1


def _check_plan(plan, what: str, out: Outcome) -> None:
    """A fully routed plan must pass the independent verifier."""
    if plan is None or plan.failed_count:
        return
    try:
        plan.verify()
    except RoutingError as exc:
        out.violations.append(f"{what}: routing plan fails verify(): {exc}")


# -- synth-n100 ----------------------------------------------------------------


class SynthN100:
    """A designer turning assay specs into placed, routed, replay-verified
    chips.  Four n=100 generator families whose fault-free replay
    completes today, each synthesized under two pinned synthesis seeds:
    eight designs of about 3 s.  The anneal dominates, route and
    schedule follow.  No fault, no recovery rung, no pool: the workload
    that bypasses them.

    Why n=100 and not n=250: an n=250 design takes 8-10 s, and the
    host's speed changes within seconds, so the reference passes around
    such a design do not tell the speed it ran at (``hostspeed.py``);
    scaled n=250 times still spread by 0.17 over five runs.

    The specs (``seed=250``) and the synthesis seeds are corpus
    constants: the synthesis seed sets a design's anneal trajectory, and
    so its time.  The workload seed shuffles the order of the eight
    designs."""

    SPECS = tuple(
        f"gen:{family}:n=100:seed=250"
        for family in ("mix-tree", "diamond", "dilution-ladder", "panel")
    )
    SEEDS_PER_SPEC = 2

    def __init__(self, seed: int, scale: int, holdout: bool, out_dir: str) -> None:
        corpus = ("synth-n100", "holdout") if holdout else ("synth-n100",)
        self.tasks = [
            (spec, derive(*corpus, rep, spec))
            for rep in range(scale * self.SEEDS_PER_SPEC)
            for spec in self.SPECS
        ]
        random.Random(derive(seed, "synth-n100", "order")).shuffle(self.tasks)

    def measure(self, probe: HostProbe, tracer: Tracer | None = None) -> Outcome:
        if tracer is not None:
            install_layer_spans(tracer)
        out = Outcome(probe)
        results = []
        for spec, seed in self.tasks:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = self.synthesize(spec, seed)
            except Exception as exc:  # counted by type, never raised
                out.record(time.perf_counter() - t0)
                out.fail(type(exc).__name__)
                continue
            out.record(time.perf_counter() - t0)
            results.append((spec, result))
        out.measured_s = out.traced_s = sum(out.op_s)
        if tracer is not None:
            tracer.uninstall()
        for spec, result in results:
            self.check(spec, result, out)
        return out

    @staticmethod
    def synthesize(spec: str, seed: int):
        """spec string -> bound, scheduled, placed, routed, replayed design
        (the fast preset and ``max_parked=2``, as the CLI runs ``gen:``)."""
        graph, binding = catalog.build_assay(spec)
        pipeline = build_default_pipeline(
            placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=seed),
            seed=seed, max_parked=2, route=True, verify=True,
        )
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        pipeline.run(context)
        return context.result()

    @staticmethod
    def check(spec: str, result, out: Outcome) -> None:
        plan, report = result.routing_plan, result.sim_report
        _check_plan(plan, spec, out)
        if result.area_cells <= 0 or not 0.0 <= result.fti <= 1.0:
            out.violations.append(f"{spec}: area {result.area_cells}, FTI {result.fti}")
        out.area_cells += result.area_cells
        out.fti.append(result.fti)
        out.nets_routed += plan.routed_count
        out.nets_total += plan.routed_count + plan.failed_count
        if report.completed:
            out.completed += 1
        else:
            out.fail(f"replay: {report.failure_reason.split(' Point')[0]}")


# -- recover-paper ---------------------------------------------------------------

FAULT_MODELS = ("permanent", "intermittent", "transient", "cluster")
ARRIVALS = (0.45, 0.65)


def fault_timeline(model: str, cell: Point, time_s: float, makespan: float,
                   width: int, height: int, rng: random.Random) -> tuple[FaultEvent, ...]:
    """One fault process anchored at *cell* and *time_s*: a permanent
    fail; a transient that clears after 15% of the makespan; an
    intermittent that flips every 10% of the makespan; or a cluster
    that also kills up to two Chebyshev neighbours."""
    if model == "permanent":
        return (FaultEvent(time_s, cell, FAIL, model),)
    if model == "transient":
        clear = time_s + 0.15 * makespan
        events = [FaultEvent(time_s, cell, FAIL, model)]
        if clear < makespan:
            events.append(FaultEvent(clear, cell, CLEAR, model))
        return tuple(events)
    if model == "intermittent":
        events, t, kind = [], time_s, FAIL
        while t < makespan:
            events.append(FaultEvent(t, cell, kind, model))
            t += 0.1 * makespan
            kind = CLEAR if kind == FAIL else FAIL
        return tuple(events)
    if model == "cluster":
        around = sorted(
            Point(x, y)
            for x in range(max(1, cell.x - 1), min(width, cell.x + 1) + 1)
            for y in range(max(1, cell.y - 1), min(height, cell.y + 1) + 1)
            if (x, y) != (cell.x, cell.y)
        )
        cells = [cell, *sorted(rng.sample(around, min(2, len(around))))]
        return tuple(FaultEvent(time_s, c, FAIL, model) for c in cells)
    raise ValueError(f"unknown fault model {model!r}")


@dataclass(frozen=True)
class Scenario:
    key: str
    design: str
    events: tuple[FaultEvent, ...]
    run_seed: int


class RecoverPaper:
    """An online controller re-synthesizing around a newly sensed dead
    electrode and still finishing the assay.  The five bundled assays
    are synthesized (library-default balanced preset, pinned seeds) and
    the fault sites picked before the timed loop, which then runs the
    closed loop (probe campaigns, the reroute/replace/resynth ladder,
    the verdict replay) once per scenario.  The ladder is the hot path;
    no generator, no pool.

    Every scenario input is pinned by a corpus constant: the designs,
    the fault site and the closed loop's own seed (the sensor's misreads
    and the recovery anneals).  A seed-chosen site swung the median
    scenario time by 4x between seeds, since the site decides which rung
    runs, and a seed-driven closed loop aborted a scenario in some runs.
    The workload seed shuffles the order of the assays and of the
    scenarios within each assay, which changes what the engine's caches
    hold, never an outcome.

    The nominal syntheses (about 10 s) are not part of the set-up: a
    set-up is repeated in fresh processes to time it steadily, and they
    are too slow to repeat.  They run untimed at the start of
    :meth:`measure`."""

    DESIGNS = tuple(catalog.BUNDLED_ASSAYS)

    def __init__(self, seed: int, scale: int, holdout: bool, out_dir: str) -> None:
        #: Salt of every corpus constant.
        self.corpus = ("recover-paper", "holdout") if holdout else ("recover-paper",)
        self.engine = OnlineRecoveryEngine()
        self.controller = ClosedLoopController(
            engine=self.engine,
            sensor=CapacitiveSensor(false_positive_rate=SENSOR_FPR,
                                    false_negative_rate=SENSOR_FNR),
        )
        order = random.Random(derive(seed, "recover-paper", "order"))
        names = list(self.DESIGNS)
        order.shuffle(names)
        #: Per scenario, in run order: (key, design, model, arrival, closed-loop seed).
        self.plan: list[tuple[str, str, str, float, int]] = []
        for name in names:
            group = [
                (key, name, model, arrival, derive(*self.corpus, "closed-loop", rep, key))
                for model in FAULT_MODELS
                for arrival in ARRIVALS
                for key in (f"{name}|{model}|{arrival}",)
                for rep in range(scale)
            ]
            order.shuffle(group)
            self.plan.extend(group)
        self.designs = {}
        self.scenarios: list[Scenario] = []

    def prepare(self) -> None:
        """Synthesize the designs and place each scenario's fault."""
        for name in self.DESIGNS:
            graph, binding = catalog.build_assay(name)
            design_seed = derive(*self.corpus, "design", name)
            flow = SynthesisFlow(
                placer=SimulatedAnnealingPlacer(seed=design_seed), seed=design_seed,
                route=True,
            )
            self.designs[name] = flow.run(graph, explicit_binding=binding)
        for key, name, model, arrival, run_seed in self.plan:
            result = self.designs[name]
            width, height = result.placement_result.placement.array_dims()
            makespan = result.makespan
            rng = random.Random(derive(*self.corpus, "site", key))
            fault_time = arrival * makespan
            checkpoint = self.engine.checkpoint_of(result, fault_time)
            cell = pick_fault_cell(result, checkpoint, "pending-module", rng=rng)
            events = fault_timeline(model, cell, fault_time, makespan, width, height, rng)
            self.scenarios.append(
                Scenario(key=key, design=name, events=events, run_seed=run_seed))

    def measure(self, probe: HostProbe, tracer: Tracer | None = None) -> Outcome:
        self.prepare()
        out = Outcome(probe)
        for name, result in self.designs.items():
            _check_plan(result.routing_plan, f"{name} (nominal)", out)
            out.area_cells += result.area_cells
            out.fti.append(result.fti)
            out.nets_routed += result.routing_plan.routed_count
            out.nets_total += result.routing_plan.routed_count + result.routing_plan.failed_count
        if tracer is not None:
            install_layer_spans(tracer)
        outcomes = []
        for sc in self.scenarios:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = self.controller.run(
                    self.designs[sc.design], sc.events, seed=sc.run_seed,
                    mode="closed-loop",
                )
            except Exception as exc:  # counted by type, never raised
                out.record(time.perf_counter() - t0)
                out.fail(type(exc).__name__)
                continue
            out.record(time.perf_counter() - t0)
            outcomes.append((sc, outcome))
        out.measured_s = out.traced_s = sum(out.op_s)
        if tracer is not None:
            tracer.uninstall()
        for sc, outcome in outcomes:
            self.check(sc, outcome, out)
        return out

    @staticmethod
    def check(sc: Scenario, outcome, out: Outcome) -> None:
        verdict = outcome.verdict
        if outcome.completed != bool(verdict is not None and verdict.completed):
            out.violations.append(f"{sc.key}: completion disagrees with the verdict replay")
        for i, recovery in enumerate(outcome.recoveries):
            if recovery.recovered:
                _check_plan(recovery.routing_plan, f"{sc.key} (recovery {i})", out)
        if outcome.completed:
            out.completed += 1
            out.penalties_s.append(outcome.makespan_penalty_s)
        else:
            out.fail(f"closed loop: {'aborted' if outcome.aborted else 'incomplete'}")


# -- campaign-grid -------------------------------------------------------------


class CampaignGrid:
    """A sweep user running declared grids through ``CampaignRunner`` at
    ``jobs=2`` with a journal: the only workload through the supervised
    pool and the JSONL log, with many short units so per-unit and
    per-campaign fixed costs (worker start, evaluator warm-up) count.
    A run is two passes over four campaigns, each of a bundled assay and
    an n=50 generator family (one unit per worker), each design crossed
    with four fault models.  tree16 is left to recover-paper: alone it
    would be one unit, which the pool runs in this process, not in a
    worker.  A campaign of all bundled or all generated designs took
    7-9 s, and the host's speed changes within seconds, so the reference
    passes around such a campaign did not tell the speed it ran at
    (``hostspeed.py``).

    The campaign seed is pinned: the records derive every draw from it
    and the scenario key, and a free campaign seed moved the grid's wall
    time by 2x between seeds.  The pairs of designs are fixed too, since
    a campaign lasts as long as its slower unit.  The workload seed
    shuffles the order of the campaigns in each pass and of the fault
    models within each, which changes the log order, never a record's
    content.

    The campaigns keep both cores busy in worker processes, so they are
    scaled to nominal host speed by passes on both cores at once
    (:class:`ParallelProbe`), not by the passes of this process.

    The timed passes run in worker processes, so their routing plans are
    verified only in the traced run, which repeats every campaign at
    ``jobs=1`` in this process."""

    CAMPAIGN_SEED = 3
    HOLDOUT_CAMPAIGN_SEED = 5
    JOBS = 2
    CAMPAIGNS = (
        ("pcr", "gen:mix-tree:n=50:seed=50"),
        ("dilution", "gen:panel:n=50:seed=50"),
        ("ivd", "gen:diamond:n=50:seed=50"),
        ("tree8", "gen:dilution-ladder:n=50:seed=50"),
    )
    #: Passes over the campaigns per run, so that each campaign's time
    #: is sampled twice.
    PASSES = 2
    MODELS = ("none", "permanent", "intermittent", "cluster")

    def __init__(self, seed: int, scale: int, holdout: bool, out_dir: str) -> None:
        self.out_dir = out_dir
        campaign_seed = self.HOLDOUT_CAMPAIGN_SEED if holdout else self.CAMPAIGN_SEED
        #: (tag, config, first pass over these designs)
        self.passes = []
        for rep in range(scale * self.PASSES):
            rng = random.Random(derive(seed, "campaign-grid", rep))
            order = list(range(len(self.CAMPAIGNS)))
            rng.shuffle(order)
            for i in order:
                models = list(self.MODELS)
                rng.shuffle(models)
                config = CampaignConfig.from_dict({
                    "campaign": {"name": f"campaign-grid-{i}",
                                 "seed": campaign_seed, "max_parked": 2,
                                 "fast": True},
                    "grid": [{
                        "generators": list(self.CAMPAIGNS[i]),
                        "fault_models": models,
                        "sensors": [f"fpr={SENSOR_FPR},fnr={SENSOR_FNR}"],
                    }],
                }, source="campaign-grid")
                self.passes.append((f"seed{seed}-{i}-{rep}", config, rep == 0))

    def _paths(self, tag: str) -> tuple[str, str]:
        log = os.path.join(self.out_dir, f"campaign-{tag}.jsonl")
        journal = log + ".journal"
        for path in (log, journal):
            if os.path.exists(path):
                os.remove(path)
        return log, journal

    def _run(self, tag: str, config: CampaignConfig, jobs: int):
        log, journal = self._paths(tag)
        report = CampaignRunner(config).run(
            log, jobs=jobs, chaos=ChaosPolicy.none(), journal_path=journal,
        )
        return log, report

    def measure(self, probe: HostProbe, tracer: Tracer | None = None) -> Outcome:
        parallel = ParallelProbe(self.JOBS)  # before the pool starts threads
        try:
            out = Outcome(parallel)
            runs = self._timed(out)
        finally:
            parallel.close()
        out.measured_s = sum(out.op_s)
        if tracer is not None:
            self._traced_serial([run for run in runs if run[2]], tracer, out)
        for tag, config, first, log, report, _ in runs:
            self.check(tag, config, log, report, out, designs=first)
        return out

    def _timed(self, out: Outcome) -> list:
        """Both passes at jobs=2, the probe running before the first
        campaign and after each."""
        out.probe.after(0.0)
        runs = []
        for tag, config, first in self.passes:
            t0 = time.perf_counter()
            try:
                log, report = self._run(tag, config, self.JOBS)
            except Exception as exc:  # counted by type, never raised
                out.record(time.perf_counter() - t0)
                declared = len(config.expand())
                out.attempted += declared
                out.failed += declared
                out.failures[type(exc).__name__] += declared
                continue
            out.record(time.perf_counter() - t0)
            runs.append((tag, config, first, log, report, out.op_s[-1]))
        return runs

    def _traced_serial(self, runs, tracer: Tracer, out: Outcome) -> None:
        """Rerun the first pass's campaigns at jobs=1 under the tracer, so
        every span stays in this process; each log must equal its jobs=2
        log byte for byte, and every fully routed plan (nominal or
        recovered) must verify."""
        install_layer_spans(tracer)
        t0 = time.perf_counter()
        for tag, config, _, log, _, _ in runs:
            try:
                serial_log, _ = self._run(tag + "-serial", config, 1)
            except Exception as exc:  # counted by type, never raised
                serial_log = None
                out.fail(type(exc).__name__)
            if serial_log is None or not filecmp.cmp(log, serial_log, shallow=False):
                out.violations.append(f"{tag}: jobs=1 log differs from the jobs={self.JOBS} log")
        out.traced_s = time.perf_counter() - t0
        tracer.uninstall()
        for i, plan in enumerate(tracer.plans):
            _check_plan(plan, f"campaign plan {i}", out)
        serial_s = sum(
            span[2] - span[1] for span in tracer.spans if span[0] == "exec.pool"
        )
        pool_wall_s = sum(run[5] for run in runs)
        out.layers["exec.parallel_efficiency"] = serial_s / (self.JOBS * pool_wall_s)

    @staticmethod
    def check(tag: str, config: CampaignConfig, log: str, report, out: Outcome,
              designs: bool) -> None:
        """Validate one campaign; *designs* adds its synthesized units to
        the design-quality sums (a repeated pass synthesizes the same
        units)."""
        problems = validate_log(log)
        if problems:
            out.violations.append(f"{tag}: campaign log invalid: {problems[0]}")
        declared = len(config.expand())
        if len(report.records) != declared:
            out.violations.append(f"{tag}: {declared - len(report.records)} scenarios lost")
        units = {}
        for rec in report.records:
            out.attempted += 1
            if rec.synthesis is not None:
                units.setdefault(rec.spec, rec.synthesis)
            if not rec.ok:
                out.fail(f"scenario {rec.status}: {(rec.error or '').split(':')[0]}")
            elif not rec.completed:
                out.fail(f"closed loop: {(rec.recovery.get('reason') or '').split(' Point')[0]}")
            else:
                out.completed += 1
                if rec.fault_model != "none":
                    out.penalties_s.append(rec.recovery["makespan_penalty_s"])
        for spec, synthesis in sorted(units.items()) if designs else ():
            out.area_cells += synthesis["area_cells"]
            out.fti.append(synthesis["fti"])
            out.nets_routed += synthesis["nets_routed"]
            out.nets_total += synthesis["nets_routed"] + synthesis["nets_failed"]


WORKLOADS = {
    "synth-n100": SynthN100,
    "recover-paper": RecoverPaper,
    "campaign-grid": CampaignGrid,
}
