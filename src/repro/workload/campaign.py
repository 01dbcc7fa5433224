"""Declarative campaign sweeps: one config, one structured JSONL log.

A campaign config (TOML or JSON) declares a grid of
(generator specs x array sizes x design-time defect patterns x fault
models x fault arrivals x fault sites x sensor fidelities).
:class:`CampaignConfig` expands it — purely
deterministically — into seeded :class:`CampaignScenario`\\ s, and
:class:`CampaignRunner` fans them out on the supervised pool, one task
per scenario, with journal/resume crash-safety. A worker keeps the unit
it synthesized for the unit's next scenarios, and the pool hands a free
worker more of its own unit's scenarios before it starts or shares
another unit (``SupervisedPool.map``'s ``groups``). This is the repo's
one scenario engine: ``repro batch`` and ``repro recover --sweep`` are
preset grids (:func:`batch_preset`, :func:`recovery_sweep_preset`) over
it.

The product is an append-only JSONL log with a versioned record
schema: one ``campaign-meta`` line, then exactly one ``campaign-record``
line per declared scenario, **in grid order**, each carrying a terminal
status — no scenario is ever silently lost, including those whose
worker crashed or overran its deadline. Records contain no wall-clock
or host-dependent fields and every random draw is derived by hashing
the campaign seed with the scenario key, so the record stream is
byte-identical for any ``--jobs`` and for any resume split.

Seed-derivation contract (the reason records are jobs-invariant):

* synthesis seed   = ``sha256(campaign_seed | "synthesis" | unit key)``
  where the unit key is ``spec|array`` — shared by every scenario of
  that unit, so a worker's one synthesized prefix serves every fault
  suffix of that unit it runs;
* scenario seed    = ``sha256(campaign_seed | "scenario" | scenario key)``
  — drives fault placement, fault-process realization, and sensor
  noise, independent of expansion order, worker assignment, or which
  scenarios a resume skips.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.exec import (
    STATUS_OK,
    STATUS_RETRIED_OK,
    CampaignJournal,
    NullJournal,
    SupervisedPool,
    load_journal,
)
from repro.testing.detector import CapacitiveSensor
from repro.util.errors import ReproError, UsageError
from repro.util.tables import format_table

if TYPE_CHECKING:
    from repro.recovery import ClosedLoopController
    from repro.synthesis.flow import SynthesisResult

#: Version of the per-scenario record schema. Consumers must ignore
#: unknown fields (additions bump nothing); renames/removals bump this.
RECORD_SCHEMA_VERSION = 1
#: ``kind`` of per-scenario lines in the campaign log.
RECORD_KIND = "campaign-record"
#: ``kind`` of the log's single header line.
META_KIND = "campaign-meta"
#: ``kind`` under which decided scenarios land in a --journal file.
CAMPAIGN_JOURNAL_KIND = "campaign-scenario"

#: The simulation driver every scenario replays on. Scenario keys and
#: records still carry it (the ``|event`` key part and the ``engine``
#: record field), so derived seeds and v1 log bytes stay stable.
SIM_ENGINE = "event"

#: Terminal statuses a log record may carry. ``retried-then-ok``
#: normalizes to ``ok`` on the way into the log: retry counts are
#: supervision telemetry (they vary under injected chaos), not scenario
#: results, and the log must stay byte-identical across schedules.
RECORD_STATUSES = ("ok", "infeasible", "timeout", "crashed")


def derive_seed(*parts: str) -> int:
    """A 63-bit seed from hashing *parts* (the derivation contract)."""
    digest = hashlib.sha256("\x1f".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# -- config ------------------------------------------------------------------


def array_key(array: tuple[int, int] | None) -> str:
    return "auto" if array is None else f"{array[0]}x{array[1]}"


def parse_array(raw: str) -> tuple[int, int] | None:
    """``"auto"`` or ``"WxH"`` with positive integer dimensions."""
    if raw == "auto":
        return None
    w, sep, h = raw.partition("x")
    try:
        if not sep:
            raise ValueError
        dims = (int(w), int(h))
    except ValueError:
        raise UsageError(
            f"bad array size {raw!r}: expected 'auto' or 'WxH' (e.g. '12x12')"
        ) from None
    if dims[0] < 1 or dims[1] < 1:
        raise UsageError(f"array dimensions must be positive, got {raw!r}")
    return dims


#: The fault site scenarios aim at unless a grid declares ``fault_sites``.
DEFAULT_SITE = "pending-module"


@dataclass(frozen=True)
class CampaignScenario:
    """One fully-specified point of the expanded grid."""

    spec: str  # protocol name or canonical gen: spec
    array: tuple[int, int] | None
    fault_model: str  # "none" or a FAULT_MODELS name
    sensor: CapacitiveSensor
    index: int  # position in grid order (== log order)
    #: Design-time defect pattern (a DEFECT_PATTERNS name): dead from
    #: t=0, routed around by the design, known to the controller.
    defects: str = "none"
    #: Fault arrival as a fraction of the makespan; ``None`` draws it
    #: uniformly from [0.3, 0.7) with the scenario seed.
    arrival: float | None = None
    #: Where the fault lands (a FAULT_TARGETS kind).
    site: str = DEFAULT_SITE

    @property
    def key(self) -> str:
        """The scenario's stable journal/log/seed identity. Dimensions
        left at their defaults add nothing, so a grid that declares
        none of them keeps the keys (and seeds) it always had."""
        parts = [self.spec, array_key(self.array), self.fault_model,
                 self.sensor.key, SIM_ENGINE]
        if self.defects != "none":
            parts.append(f"defects={self.defects}")
        if self.arrival is not None:
            parts.append(f"at={self.arrival:g}")
        if self.site != DEFAULT_SITE:
            parts.append(f"site={self.site}")
        return "|".join(parts)

    @property
    def unit_key(self) -> str:
        """Identity of the shared synthesis prefix (``spec|array``)."""
        return f"{self.spec}|{array_key(self.array)}"


def _require(table: Mapping, key: str, kind: type, where: str):
    value = table.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise UsageError(
            f"campaign config: {where}.{key} must be a {kind.__name__}, "
            f"got {value!r}"
        )
    return value


def _str_list(table: Mapping, key: str, where: str, default: list | None) -> list:
    if key not in table:
        if default is None:
            raise UsageError(f"campaign config: {where} needs a {key!r} list")
        return default
    value = table[key]
    if (not isinstance(value, list) or not value
            or not all(isinstance(v, str) for v in value)):
        raise UsageError(
            f"campaign config: {where}.{key} must be a non-empty list of "
            f"strings, got {value!r}"
        )
    return value


@dataclass
class CampaignConfig:
    """A validated campaign declaration."""

    name: str
    seed: int = 0
    #: Synthesis knobs shared by every scenario.
    max_concurrent: int = 3
    max_parked: int | None = 2
    fast: bool = True
    #: Raw grid blocks; each expands as a full cross product.
    grids: list[dict] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: Mapping, source: str = "<config>") -> CampaignConfig:
        if not isinstance(data, Mapping):
            raise UsageError(f"campaign config {source}: top level must be a table")
        campaign = data.get("campaign", {})
        if not isinstance(campaign, Mapping):
            raise UsageError(f"campaign config {source}: [campaign] must be a table")
        name = _require(campaign, "name", str, "[campaign]") if "name" in campaign \
            else os.path.splitext(os.path.basename(source))[0]
        seed = _require(campaign, "seed", int, "[campaign]") if "seed" in campaign else 0
        max_concurrent = (
            _require(campaign, "max_concurrent", int, "[campaign]")
            if "max_concurrent" in campaign else 3
        )
        raw_parked = campaign.get("max_parked", 2)
        if raw_parked is not None and (isinstance(raw_parked, bool)
                                       or not isinstance(raw_parked, int)):
            raise UsageError(
                f"campaign config: [campaign].max_parked must be an int or "
                f"absent, got {raw_parked!r}"
            )
        # A zero cap deadlocks the list scheduler in every worker; say
        # so at load time instead of logging every scenario infeasible.
        for key, value in (("max_concurrent", max_concurrent),
                           ("max_parked", raw_parked)):
            if value is not None and value < 1:
                raise UsageError(
                    f"campaign config: [campaign].{key} must be >= 1, "
                    f"got {value}"
                )
        fast = campaign.get("fast", True)
        if not isinstance(fast, bool):
            raise UsageError(
                f"campaign config: [campaign].fast must be a boolean, got {fast!r}"
            )
        grids = data.get("grid", [])
        if isinstance(grids, Mapping):  # a single [grid] table
            grids = [grids]
        if not isinstance(grids, list) or not grids:
            raise UsageError(
                f"campaign config {source}: needs at least one [[grid]] block"
            )
        config = cls(
            name=name, seed=seed, max_concurrent=max_concurrent,
            max_parked=raw_parked, fast=fast, grids=[dict(g) for g in grids],
        )
        config.expand()  # validate eagerly: a bad grid fails at load time
        return config

    @classmethod
    def load(cls, path: str | os.PathLike) -> CampaignConfig:
        """Load a ``.toml`` or ``.json`` campaign declaration."""
        path = os.fspath(path)
        if not os.path.exists(path):
            raise UsageError(f"campaign config not found: {path}")
        try:
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            else:
                import tomllib

                with open(path, "rb") as fh:
                    data = tomllib.load(fh)
        except (json.JSONDecodeError, ValueError) as exc:
            # tomllib.TOMLDecodeError subclasses ValueError
            raise UsageError(f"cannot parse campaign config {path}: {exc}") from None
        return cls.from_dict(data, source=path)

    def expand(self) -> list[CampaignScenario]:
        """The full deterministic scenario list, in grid order."""
        from repro.assay.catalog import BUNDLED_ASSAYS, is_generator_spec
        from repro.fault.models import DEFECT_PATTERNS, FAULT_MODELS
        from repro.recovery.engine import FAULT_TARGETS
        from repro.workload.generator import GeneratorSpec

        scenarios: list[CampaignScenario] = []
        seen: dict[str, int] = {}
        for i, grid in enumerate(self.grids):
            where = f"[[grid]] #{i + 1}"
            specs = []
            for raw in _str_list(grid, "generators", where, None):
                if is_generator_spec(raw):
                    try:
                        specs.append(GeneratorSpec.parse(raw).canonical())
                    except ValueError as exc:
                        raise UsageError(f"{where}: {exc}") from None
                elif raw in BUNDLED_ASSAYS:
                    specs.append(raw)
                else:
                    raise UsageError(
                        f"{where}: unknown protocol {raw!r}; choose a bundled "
                        f"assay {sorted(BUNDLED_ASSAYS)} or a gen: spec"
                    )
            arrays = [parse_array(a) for a in _str_list(grid, "arrays", where, ["auto"])]
            models = _str_list(grid, "fault_models", where, ["none"])
            for m in models:
                if m != "none" and m not in FAULT_MODELS:
                    raise UsageError(
                        f"{where}: unknown fault model {m!r}; choose 'none' "
                        f"or one of {sorted(FAULT_MODELS)}"
                    )
            sensors = [
                CapacitiveSensor.parse(s)
                for s in _str_list(grid, "sensors", where, ["ideal"])
            ]
            defects = _str_list(grid, "defects", where, ["none"])
            for d in defects:
                if d not in DEFECT_PATTERNS:
                    raise UsageError(
                        f"{where}: unknown fault pattern {d!r} in defects; "
                        f"choose from {DEFECT_PATTERNS}"
                    )
            sites = _str_list(grid, "fault_sites", where, [DEFAULT_SITE])
            for site in sites:
                if site not in FAULT_TARGETS:
                    raise UsageError(
                        f"{where}: unknown fault site {site!r}; "
                        f"choose from {FAULT_TARGETS}"
                    )
            arrivals = grid.get("arrivals", [None])
            if "arrivals" in grid and (
                not isinstance(arrivals, list) or not arrivals
                or not all(isinstance(a, (int, float))
                           and not isinstance(a, bool) and 0 <= a < 1
                           for a in arrivals)
            ):
                raise UsageError(
                    f"{where}.arrivals must be a non-empty list of makespan "
                    f"fractions in [0, 1), got {arrivals!r}"
                )
            unknown = set(grid) - {
                "generators", "arrays", "defects", "fault_models", "arrivals",
                "fault_sites", "sensors",
            }
            if unknown:
                raise UsageError(
                    f"{where}: unknown key(s) {sorted(unknown)}"
                )
            for spec, array, defect, model, arrival, site, sensor in \
                    itertools.product(specs, arrays, defects, models, arrivals,
                                      sites, sensors):
                sc = CampaignScenario(
                    spec=spec, array=array, fault_model=model, sensor=sensor,
                    index=len(scenarios), defects=defect,
                    arrival=None if arrival is None else float(arrival),
                    site=site,
                )
                if sc.key in seen:
                    raise UsageError(
                        f"{where}: scenario {sc.key!r} already "
                        f"declared by [[grid]] #{seen[sc.key] + 1}"
                    )
                seen[sc.key] = i
                scenarios.append(sc)
        return scenarios


def _preset(name: str, grid: dict, *, seed: int, fast: bool,
            max_concurrent: int, max_parked: int | None) -> CampaignConfig:
    return CampaignConfig.from_dict({
        "campaign": {"name": name, "seed": seed, "fast": fast,
                     "max_concurrent": max_concurrent,
                     "max_parked": max_parked},
        "grid": [grid],
    }, source=name)


def batch_preset(
    protocols, defects=("none", "center"), *, seed: int = 7,
    fast: bool = True, max_concurrent: int = 3,
    max_parked: int | None = None,
) -> CampaignConfig:
    """The ``repro batch`` grid: (assay x design-time defect pattern).

    Each assay is synthesized once and routed once per defect pattern;
    the fault-free closed loop then replays every design against its
    defects, which are dead from t=0."""
    return _preset("batch", {
        "generators": list(protocols), "defects": list(defects),
    }, seed=seed, fast=fast, max_concurrent=max_concurrent,
        max_parked=max_parked)


def recovery_sweep_preset(
    protocols, arrivals=(0.25, 0.5, 0.75),
    sites=("pending-module", "street"), fault_model: str = "permanent",
    sensor: str = "ideal", *, seed: int = 7, fast: bool = True,
    max_concurrent: int = 3, max_parked: int | None = None,
) -> CampaignConfig:
    """The ``repro recover --sweep`` grid: (assay x fault arrival x
    fault site) under one fault model and one sensor spec string (see
    :meth:`CapacitiveSensor.parse`). With the ideal sensor the closed
    loop short-circuits to oracle detection."""
    return _preset("recovery-sweep", {
        "generators": list(protocols), "fault_models": [fault_model],
        "arrivals": list(arrivals), "fault_sites": list(sites),
        "sensors": [sensor],
    }, seed=seed, fast=fast, max_concurrent=max_concurrent,
        max_parked=max_parked)


# -- records -----------------------------------------------------------------


@dataclass
class CampaignRecord:
    """One scenario's log line. Deterministic: no wall-clock fields."""

    key: str
    index: int
    spec: str
    family: str | None  # generator family; None for bundled assays
    n: int | None  # requested module budget; None for bundled assays
    array: str  # "auto" or "WxH"
    fault_model: str
    sensor: dict
    engine: str
    seed: int
    status: str
    error: str | None = None
    #: Synthesis metrics (None when synthesis itself failed).
    synthesis: dict | None = None
    #: Closed-loop execution metrics (None when the scenario never ran).
    recovery: dict | None = None
    #: Optional grid dimensions; written only when they differ from the
    #: defaults, so grids that never declare them keep their bytes.
    defects: str = "none"
    arrival: float | None = None
    site: str = DEFAULT_SITE

    def to_dict(self) -> dict:
        out = {
            "v": RECORD_SCHEMA_VERSION,
            "kind": RECORD_KIND,
            "key": self.key,
            "index": self.index,
            "spec": self.spec,
            "family": self.family,
            "n": self.n,
            "array": self.array,
            "fault_model": self.fault_model,
            "sensor": self.sensor,
            "engine": self.engine,
            "seed": self.seed,
            "status": self.status,
            "error": self.error,
            "synthesis": self.synthesis,
            "recovery": self.recovery,
        }
        for name, default in _OPTIONAL_FIELDS.items():
            if getattr(self, name) != default:
                out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> CampaignRecord:
        return cls(
            **{f: data.get(f) for f in _RECORD_FIELD_TYPES},
            **{f: data.get(f, d) for f, d in _OPTIONAL_FIELDS.items()},
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def completed(self) -> bool:
        """The closed loop replayed the assay to completion."""
        return bool(self.recovery and self.recovery.get("completed"))


_RECORD_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "key": (str,),
    "index": (int,),
    "spec": (str,),
    "family": (str, type(None)),
    "n": (int, type(None)),
    "array": (str,),
    "fault_model": (str,),
    "sensor": (dict,),
    "engine": (str,),
    "seed": (int,),
    "status": (str,),
    "error": (str, type(None)),
    "synthesis": (dict, type(None)),
    "recovery": (dict, type(None)),
}
#: Optional record fields and their defaults (absent = default).
_OPTIONAL_FIELDS = {"defects": "none", "arrival": None, "site": DEFAULT_SITE}
_OPTIONAL_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "defects": (str,),
    "arrival": (float, int),
    "site": (str,),
}


# -- the execution unit (module level: must pickle into pool workers) --------


@dataclass(frozen=True)
class _UnitSpec:
    """One (spec, array) synthesis: the prefix its scenarios share."""

    spec: str
    array: tuple[int, int] | None
    synth_seed: int
    max_concurrent: int
    max_parked: int | None
    fast: bool

    @property
    def key(self) -> str:
        return f"{self.spec}|{array_key(self.array)}"

    def record(
        self, sc: CampaignScenario, seed: int, **kwargs
    ) -> CampaignRecord:
        """*sc*'s log record, with *kwargs* as its outcome fields."""
        family, n = _spec_meta(self.spec)
        return CampaignRecord(
            key=sc.key, index=sc.index, spec=self.spec, family=family, n=n,
            array=array_key(self.array), fault_model=sc.fault_model,
            sensor=sc.sensor.to_dict(), engine=SIM_ENGINE, seed=seed,
            defects=sc.defects, arrival=sc.arrival, site=sc.site, **kwargs,
        )


@dataclass(frozen=True)
class _ScenarioTask:
    """One pool task: a scenario of *unit* and its derived seed."""

    unit: _UnitSpec
    scenario: CampaignScenario
    seed: int


def _spec_meta(spec: str) -> tuple[str | None, int | None]:
    """(family, n) for a gen: spec; (None, None) for bundled names."""
    from repro.assay.catalog import is_generator_spec
    from repro.workload.generator import GeneratorSpec

    if not is_generator_spec(spec):
        return None, None
    parsed = GeneratorSpec.parse(spec)
    return parsed.family, parsed.n


def _synthesis_summary(result: SynthesisResult) -> dict:
    plan = result.routing_plan
    placement = result.placement_result
    width, height = placement.placement.array_dims()
    return {
        "modules": len(placement.placement),
        "makespan_s": result.schedule.makespan,
        "width": width,
        "height": height,
        "area_cells": result.area_cells,
        "fti": result.fti,
        "routability": plan.routability if plan is not None else None,
        "nets_routed": plan.routed_count if plan is not None else None,
        "nets_failed": plan.failed_count if plan is not None else None,
    }


def _recovery_summary(outcome) -> dict:
    return {
        "completed": outcome.completed,
        "aborted": outcome.aborted,
        "reason": outcome.reason,
        "final_rung": outcome.final_rung,
        "detections": len(outcome.detections),
        "false_alarms": len(outcome.false_alarms),
        "recoveries": len(outcome.recoveries),
        "probes_run": outcome.probes_run,
        "watchdog_rounds": outcome.watchdog_rounds,
        "nominal_makespan_s": outcome.nominal_makespan_s,
        "realized_makespan_s": outcome.realized_makespan_s,
        "makespan_penalty_s": outcome.makespan_penalty_s,
    }


class _Unit:
    """A unit synthesized in this process, and what its scenarios share.

    The unit is synthesized once; each defect pattern's design is routed
    on first use (the fault-free design is the flow's own). One
    recovery engine serves every scenario: its simulator cache keeps
    each design the scenarios start from, so each design's nominal
    replay runs once for all its scenarios, whatever their order, and a
    `none` scenario's verdict reads that same report. One controller
    per distinct sensor shares its probe walks across them. Replays and
    walks are pure functions of their inputs, so each record is what a
    fresh engine and controller would give."""

    def __init__(self, spec: _UnitSpec) -> None:
        from repro.assay.catalog import build_assay
        from repro.placement.annealer import AnnealingParams
        from repro.placement.sa_placer import SimulatedAnnealingPlacer
        from repro.recovery import OnlineRecoveryEngine
        from repro.synthesis.flow import SynthesisFlow

        self.spec = spec
        #: The synthesis error every scenario reports, if synthesis failed.
        self.error: str | None = None
        params = AnnealingParams.fast() if spec.fast else AnnealingParams.balanced()
        core_w, core_h = spec.array if spec.array else (None, None)
        try:
            self.graph, binding = build_assay(spec.spec)
            self.flow = SynthesisFlow(
                placer=SimulatedAnnealingPlacer(
                    params=params, core_width=core_w, core_height=core_h,
                    seed=spec.synth_seed,
                ),
                max_concurrent_ops=spec.max_concurrent,
                max_parked=spec.max_parked,
                seed=spec.synth_seed,
                route=True,
            )
            self.result = self.flow.run(self.graph, explicit_binding=binding)
        except ReproError as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            return
        # defect pattern -> (its design, its dead cells, its summary)
        self.designs = {
            "none": (self.result, (), _synthesis_summary(self.result))
        }
        self.engine = OnlineRecoveryEngine(annealing=params if spec.fast else None)
        self.controllers: dict[CapacitiveSensor, ClosedLoopController] = {}

    def run(self, sc: CampaignScenario, seed: int) -> CampaignRecord:
        """*sc*'s record, from its scenario *seed*."""
        from repro.fault.models import defect_cells
        from repro.recovery import ClosedLoopController, fault_timeline
        from repro.util.rng import ensure_rng

        if self.error is not None:
            return self.spec.record(sc, seed, status="infeasible", error=self.error)
        result = self.result
        rng = ensure_rng(seed)
        controller = self.controllers.get(sc.sensor)
        if controller is None:
            controller = self.controllers[sc.sensor] = ClosedLoopController(
                engine=self.engine, sensor=sc.sensor
            )
        synthesis = self.designs["none"][2]
        try:
            if sc.defects not in self.designs:
                width, height = result.placement_result.placement.array_dims()
                cells = defect_cells(sc.defects, width, height)
                plan = self.flow.routing_synthesizer.synthesize(
                    self.graph, result.schedule, result.placement_result.placement,
                    result.chip, faulty_cells=cells,
                )
                design = replace(result, routing_plan=plan)
                self.designs[sc.defects] = (
                    design, cells, _synthesis_summary(design)
                )
            design, cells, synthesis = self.designs[sc.defects]
            if sc.fault_model == "none":
                events: tuple = ()
            else:
                arrival = (
                    rng.uniform(0.3, 0.7) if sc.arrival is None
                    else sc.arrival
                )
                events = fault_timeline(
                    self.engine, design, sc.fault_model,
                    arrival * result.schedule.makespan, sc.site, rng,
                    known_faults=cells,
                )
            outcome = controller.run(
                design, events, seed=seed, mode="closed-loop",
                known_faults=cells,
            )
        except ReproError as exc:
            return self.spec.record(
                sc, seed, status="infeasible",
                error=f"{type(exc).__name__}: {exc}", synthesis=synthesis,
            )
        return self.spec.record(
            sc, seed, status="ok", synthesis=synthesis,
            recovery=_recovery_summary(outcome),
        )


#: The unit this process ran last. A pool worker keeps it between tasks,
#: so it synthesizes a unit once however many of its scenarios it runs.
#: It is module state because a worker receives only the task function
#: and one task's payload; whatever outlives a task lives in the process.
_held: _Unit | None = None


def _run_scenario(task: _ScenarioTask) -> CampaignRecord:
    """One scenario's record, on this process's held unit: the first
    scenario of another unit drops the held one and synthesizes its
    own. A record is a pure function of (unit, scenario seed), so which
    process runs a scenario, and after which others, never shows."""
    global _held
    if _held is None or _held.spec != task.unit:
        _held = None  # free the old unit before building the new one
        _held = _Unit(task.unit)
    return _held.run(task.scenario, task.seed)


def _drop_unit() -> None:
    """Release the held unit (the ``jobs=1`` and degraded paths hold it
    in the caller's process)."""
    global _held
    _held = None


# -- the runner --------------------------------------------------------------


@dataclass
class CampaignReport:
    """Campaign-level accounting over the deterministic record list."""

    name: str
    seed: int
    jobs: int
    log_path: str | None
    wall_s: float = 0.0
    resumed: int = 0
    records: list[CampaignRecord] = field(default_factory=list)

    @property
    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def completed_count(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def mean_routability(self) -> float | None:
        vals = [
            r.synthesis["routability"] for r in self.records
            if r.synthesis and r.synthesis.get("routability") is not None
        ]
        return sum(vals) / len(vals) if vals else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "jobs": self.jobs,
            "log_path": self.log_path,
            "wall_s": self.wall_s,
            "resumed": self.resumed,
            "scenario_count": len(self.records),
            "status_counts": self.status_counts,
            "ok_count": self.ok_count,
            "completed_count": self.completed_count,
            "mean_routability": self.mean_routability,
            "records": [r.to_dict() for r in self.records],
        }

    def table_text(self) -> str:
        """Per-(spec, array) rollup."""
        groups: dict[tuple[str, str], list[CampaignRecord]] = {}
        for r in self.records:
            groups.setdefault((r.spec, r.array), []).append(r)
        rows = []
        for (spec, array), recs in groups.items():
            routability = [
                r.synthesis["routability"] for r in recs
                if r.synthesis and r.synthesis.get("routability") is not None
            ]
            rows.append((
                spec, array, len(recs),
                sum(1 for r in recs if r.ok),
                sum(1 for r in recs if r.completed),
                f"{sum(routability) / len(routability):.0%}" if routability else "-",
            ))
        return format_table(
            ("spec", "array", "scenarios", "ok", "completed", "routability"),
            rows,
        )

    def scenario_table(self) -> str:
        """One row per scenario: its key and closed-loop outcome."""
        rows = []
        for r in self.records:
            rec = r.recovery or {}
            synthesis = r.synthesis or {}
            if not r.ok:
                outcome = f"FAILED {r.status} ({r.error})"
            elif r.completed:
                outcome = "completed"
            else:
                outcome = f"FAILED ({rec.get('reason')})"
            routability = synthesis.get("routability")
            rows.append((
                r.key, outcome, rec.get("final_rung") or "-",
                "-" if rec.get("makespan_penalty_s") is None
                else f"{rec['makespan_penalty_s']:g}",
                synthesis.get("area_cells", "-"),
                "-" if routability is None else f"{routability:.0%}",
            ))
        return format_table(
            ("scenario", "outcome", "rung", "penalty s", "cells",
             "routability"),
            rows,
        )

    def summary(self) -> str:
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(self.status_counts.items())
        )
        mean = self.mean_routability
        return (
            f"campaign '{self.name}': {len(self.records)} scenarios "
            f"({counts}); {self.completed_count} completed closed-loop; "
            f"mean routability "
            f"{'-' if mean is None else format(mean, '.1%')}; "
            f"{self.resumed} resumed; wall {self.wall_s:.1f}s -> {self.log_path}"
        )


class CampaignRunner:
    """Expand a config and execute it under supervision."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config

    def _tasks(
        self, scenarios: list[CampaignScenario], done: Mapping[str, dict]
    ) -> tuple[list[_ScenarioTask], list[CampaignRecord]]:
        """One task per scenario not in *done*, grouped by synthesis
        unit (units in order of first appearance in grid order, each
        unit's scenarios in grid order), plus the resumed records."""
        seed = str(self.config.seed)
        resumed: list[CampaignRecord] = []
        grouped: dict[str, list[_ScenarioTask]] = {}
        units: dict[str, _UnitSpec] = {}
        for sc in scenarios:
            if sc.key in done:
                resumed.append(CampaignRecord.from_dict(done[sc.key]))
                continue
            unit = units.get(sc.unit_key)
            if unit is None:
                unit = units[sc.unit_key] = _UnitSpec(
                    spec=sc.spec, array=sc.array,
                    synth_seed=derive_seed(seed, "synthesis", sc.unit_key),
                    max_concurrent=self.config.max_concurrent,
                    max_parked=self.config.max_parked,
                    fast=self.config.fast,
                )
            grouped.setdefault(sc.unit_key, []).append(_ScenarioTask(
                unit, sc, derive_seed(seed, "scenario", sc.key)
            ))
        return [t for tasks in grouped.values() for t in tasks], resumed

    def run(
        self,
        log_path: str | os.PathLike | None,
        jobs: int = 1,
        *,
        task_timeout: float | None = None,
        max_retries: int = 2,
        chaos=None,
        journal_path: str | os.PathLike | None = None,
        resume_from: str | os.PathLike | None = None,
    ) -> CampaignReport:
        """Execute the campaign, streaming the log to *log_path* (``None``
        keeps the records in the returned report only).

        Each scenario is one pool task, labelled with its unit's key
        as its dispatch group, so a worker synthesizes a unit once for
        all the unit's scenarios it runs (see :func:`_run_scenario`).

        *journal_path* / *resume_from* carry crash-safety: every
        **decided** scenario (terminal ok or infeasible) is journaled as
        it finishes; a resume skips decided scenarios and re-runs
        crashed/timed-out ones. The log file itself is rewritten from
        scratch each run — it is the deterministic product, the journal
        is the incremental state.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        t0 = time.perf_counter()
        scenarios = self.config.expand()
        done = load_journal(resume_from, kind=CAMPAIGN_JOURNAL_KIND) \
            if resume_from else {}
        tasks, resumed = self._tasks(scenarios, done)

        by_key: dict[str, CampaignRecord] = {r.key: r for r in resumed}
        meta = {
            "v": RECORD_SCHEMA_VERSION,
            "kind": META_KIND,
            "name": self.config.name,
            "seed": self.config.seed,
            "scenario_count": len(scenarios),
        }

        with contextlib.ExitStack() as stack:
            # The log is truncated to its header up front, so a killed
            # run never leaves a stale log that still validates.
            fh = None
            if log_path is not None:
                fh = stack.enter_context(open(log_path, "w", encoding="utf-8"))
                fh.write(json.dumps(meta, sort_keys=True) + "\n")
                fh.flush()
            journal = stack.enter_context(
                CampaignJournal(journal_path) if journal_path else NullJournal()
            )

            def on_outcome(out) -> None:
                if out.ok:
                    rec = out.value
                    # Decided scenarios only: a crashed/timed-out
                    # scenario is retried on resume instead.
                    journal.append(CAMPAIGN_JOURNAL_KIND, rec.key, rec.to_dict())
                else:
                    task = tasks[out.index]
                    rec = task.unit.record(
                        task.scenario, task.seed, status=out.status,
                        error=out.error,
                    )
                by_key[rec.key] = rec

            if tasks:
                pool = SupervisedPool(
                    jobs=jobs,
                    task_timeout=task_timeout,
                    max_retries=max_retries,
                    chaos=chaos,
                )
                try:
                    pool.map(
                        _run_scenario, tasks,
                        keys=[t.scenario.key for t in tasks],
                        on_outcome=on_outcome,
                        groups=[t.unit.key for t in tasks],
                    )
                finally:
                    _drop_unit()

            # Assemble the final grid-order stream. Every declared
            # scenario must be present with a terminal status — the
            # zero-silently-lost invariant.
            records = []
            for sc in scenarios:
                rec = by_key.get(sc.key)
                assert rec is not None, f"scenario lost without record: {sc.key}"
                if rec.status == STATUS_RETRIED_OK:
                    rec.status = STATUS_OK
                if rec.status not in RECORD_STATUSES:
                    rec.status = "crashed"
                records.append(rec)
            if fh is not None:
                for rec in records:
                    fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

        return CampaignReport(
            name=self.config.name,
            seed=self.config.seed,
            jobs=jobs,
            log_path=None if log_path is None else os.fspath(log_path),
            wall_s=time.perf_counter() - t0,
            resumed=len(resumed),
            records=records,
        )


# -- log validation ----------------------------------------------------------


def validate_log(path: str | os.PathLike) -> list[str]:
    """Validate every line of a campaign log against the record schema
    and the grid-order contract: the i-th record carries ``index`` i.

    Returns a list of human-readable problems (empty = valid). A
    missing file raises :class:`UsageError` — that is a usage mistake,
    not invalid data.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise UsageError(f"campaign log not found: {path}")
    errors: list[str] = []
    seen: dict[str, int] = {}
    meta: dict | None = None
    n_records = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                errors.append(f"line {lineno}: blank line")
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: not JSON ({exc})")
                continue
            if not isinstance(entry, dict):
                errors.append(f"line {lineno}: not a JSON object")
                continue
            if entry.get("v") != RECORD_SCHEMA_VERSION:
                errors.append(
                    f"line {lineno}: schema version {entry.get('v')!r}, "
                    f"expected {RECORD_SCHEMA_VERSION}"
                )
                continue
            kind = entry.get("kind")
            if kind == META_KIND:
                if lineno != 1:
                    errors.append(f"line {lineno}: stray meta line")
                meta = entry
                continue
            if kind != RECORD_KIND:
                errors.append(f"line {lineno}: unknown kind {kind!r}")
                continue
            for fname, types in (*_RECORD_FIELD_TYPES.items(),
                                 *_OPTIONAL_FIELD_TYPES.items()):
                if fname not in entry:
                    if fname in _RECORD_FIELD_TYPES:
                        errors.append(f"line {lineno}: missing field {fname!r}")
                elif not isinstance(entry[fname], types) or (
                    isinstance(entry[fname], bool) and bool not in types
                ):
                    errors.append(
                        f"line {lineno}: field {fname!r} has "
                        f"{type(entry[fname]).__name__}, expected "
                        f"{'/'.join(t.__name__ for t in types)}"
                    )
            index = entry.get("index")
            if isinstance(index, int) and index != n_records:
                errors.append(
                    f"line {lineno}: index {index} out of grid order "
                    f"(record #{n_records} must carry index {n_records})"
                )
            n_records += 1
            status = entry.get("status")
            if isinstance(status, str) and status not in RECORD_STATUSES:
                errors.append(
                    f"line {lineno}: status {status!r} not in {RECORD_STATUSES}"
                )
            key = entry.get("key")
            if isinstance(key, str):
                if key in seen:
                    errors.append(
                        f"line {lineno}: duplicate key {key!r} "
                        f"(first at line {seen[key]})"
                    )
                seen[key] = lineno
    if meta is None:
        errors.append("line 1: missing campaign-meta header")
    elif isinstance(meta.get("scenario_count"), int) \
            and meta["scenario_count"] != n_records:
        errors.append(
            f"meta declares {meta['scenario_count']} scenarios, "
            f"log carries {n_records} records (lost scenarios?)"
        )
    return errors
