"""Span recording from outside the program, for the traced benchmark run.

The program itself carries no spans yet, so the traced run wraps the
public entry point of each layer (a class method or module function of
``repro``) with a recorder.  A span is ``[name, start, end, parent,
counters, hook_s]``; spans stay in memory and are written once, as
JSONL, when the run ends.  Self time is a span's duration minus the
time its direct child spans cover, so a layer's figure never
double-counts the layers it calls.  ``hook_s`` is the time the
recorder spent after the call returned, reading counters off its
result: it is charged to the tracer, not to the parent span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

#: Recovery rungs as the metric names carry them: the ``rung`` values
#: ``OnlineRecoveryEngine.recover`` takes, in ladder order.
RUNGS = ("reroute", "replace", "resynth")

#: Exact counters: identical across runs of one seed (timings are not).
EXACT_COUNTERS = (
    "placement.proposals",
    "placement.accepted",
    "routing.nets_routed",
    "routing.nets_failed",
    "sim.transports",
    "sim.planned_transports",
    "sim.adhoc_transports",
    *(f"recovery.{rung}_calls" for rung in RUNGS),
    "testing.probe_runs",
    "exec.failed_tasks",
    "trace.spans",
)


class Tracer:
    """Wraps layer entry points and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Routing plans the traced calls produced, for the output checks.
        self.plans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        *name* is a span name or ``name(args, kwargs)`` returning one.
        *on_result(counters, result)* copies
        exact counts off the call's return value into the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrapper(original, name, on_result)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrapper(self, original, name, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1, {}, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(span[4], result)
                span[5] = clock() - span[2]
            return result

        return wrapper

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children
        and the recorder's time on their results."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, hook_s in self.spans:
            if parent >= 0:
                out[parent] -= end - start + hook_s
        return out

    def hook_s(self) -> float:
        """The recorder's time reading results, summed over all spans."""
        return sum(span[5] for span in self.spans)

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Per span name: (self seconds, inclusive seconds, calls, summed
        counters)."""
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, attrs, _ = span
            self_s[name] += own
            incl_s[name] += end - start
            calls[name] += 1
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    counters[name][key] += value
        return self_s, incl_s, calls, counters

    def write_jsonl(self, path: str, origin: float) -> None:
        """Write every span once, times relative to *origin*."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9),
                    "parent": parent,
                    **attrs,
                }, sort_keys=True) + "\n")


def span_cost_s(samples: int = 20_000) -> float:
    """The wrapper's own cost per span: one wrapped call minus one bare
    call, each the median of five timed batches."""

    class Probe:
        def call(self, value):
            return value

    probe = Probe()
    tracer = Tracer()

    def batch() -> float:
        call = probe.call
        start = time.perf_counter()
        for i in range(samples):
            call(i)
        return time.perf_counter() - start

    bare = sorted(batch() for _ in range(5))[2]
    tracer.wrap(Probe, "call", "probe")
    wrapped = sorted(batch() for _ in range(5))[2]
    tracer.uninstall()
    return max(wrapped - bare, 0.0) / samples


# -- the layer table ----------------------------------------------------------


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public call of every layer the benchmark reports."""
    from repro.assay import catalog
    from repro.exec.supervised import SupervisedPool
    from repro.fault.reconfigure import PartialReconfigurer
    from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
    from repro.placement.annealer import SimulatedAnnealing
    from repro.recovery.closedloop import ClosedLoopController
    from repro.recovery.engine import OnlineRecoveryEngine
    from repro.routing.synthesis import RoutingSynthesizer
    from repro.sim.engine import BiochipSimulator
    from repro.synthesis.flow import SynthesisFlow
    from repro.testing.localize import FaultLocalizer
    from repro.workload.campaign import CampaignRunner

    def anneal_counts(counters, result) -> None:
        _, stats = result
        counters["proposals"] = stats.evaluations
        counters["accepted"] = stats.acceptances

    def route_counts(counters, plan) -> None:
        counters["routed"] = plan.routed_count
        counters["failed"] = plan.failed_count

    def replay_counts(counters, report) -> None:
        moves = sum(
            1 for e in report.events
            if e.kind == "transport" and e.detail.startswith("droplet ")
        )
        counters["transports"] = moves
        counters["planned"] = report.planned_transports

    def rung_name(args, kwargs) -> str:
        rung = kwargs.get("rung", args[7] if len(args) > 7 else "replace")
        return f"recovery.{rung}"

    def rung_counts(counters, outcome) -> None:
        counters["ok"] = int(outcome.recovered)

    def closed_loop_counts(counters, outcome) -> None:
        counters["probe_runs"] = outcome.probes_run
        tracer.plans.extend(r.routing_plan for r in outcome.recoveries if r.recovered)

    def keep_plan(counters, result) -> None:
        tracer.plans.append(result.routing_plan)

    def pool_counts(counters, outcomes) -> None:
        counters["failed_tasks"] = sum(1 for o in outcomes if not o.ok)

    def generate_name(args, kwargs):
        spec = args[0] if args else kwargs.get("name", "")
        return "workload.generate" if catalog.is_generator_spec(spec) else "assay.bundled"

    tracer.wrap(catalog, "build_assay", generate_name)
    tracer.wrap(SynthesisFlow, "run", "synthesis.flow", keep_plan)
    tracer.wrap(BindStage, "run", "synthesis.bind")
    tracer.wrap(ScheduleStage, "run", "synthesis.schedule")
    tracer.wrap(PlaceStage, "run", "fault.place")
    tracer.wrap(SimulatedAnnealing, "optimize_incremental", "placement.anneal", anneal_counts)
    tracer.wrap(PartialReconfigurer, "find_target", "fault.mer")
    tracer.wrap(RoutingSynthesizer, "synthesize", "routing.route", route_counts)
    tracer.wrap(BiochipSimulator, "run", "sim.replay", replay_counts)
    tracer.wrap(BiochipSimulator, "checkpoint", "sim.checkpoint")
    tracer.wrap(OnlineRecoveryEngine, "recover", rung_name, rung_counts)
    tracer.wrap(ClosedLoopController, "run", "recovery.closed_loop", closed_loop_counts)
    tracer.wrap(FaultLocalizer, "localize", "testing.probe")
    tracer.wrap(SupervisedPool, "map", "exec.pool", pool_counts)
    tracer.wrap(CampaignRunner, "run", "workload.campaign")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, span_cost: float) -> dict[str, float]:
    """Every per-layer value derivable from the recorded spans
    (``exec.parallel_efficiency`` is the campaign workload's to fill).
    The tracer's overhead is its wrapper cost per span times the spans,
    plus the measured time its hooks spent reading results."""
    self_s, incl_s, calls, counters = tracer.totals()
    anneal = counters["placement.anneal"]
    route = counters["routing.route"]
    replay = counters["sim.replay"]
    out = {
        "workload.generate_s": self_s["workload.generate"],
        "synthesis.bind_s": self_s["synthesis.bind"],
        "synthesis.schedule_s": self_s["synthesis.schedule"],
        "placement.anneal_s": self_s["placement.anneal"],
        "placement.proposals": anneal["proposals"],
        "placement.accepted": anneal["accepted"],
        "placement.proposals_per_s": _ratio(anneal["proposals"], incl_s["placement.anneal"]),
        "placement.accept_ratio": _ratio(anneal["accepted"], anneal["proposals"]),
        "fault.place_other_s": self_s["fault.place"],
        "fault.mer_s": self_s["fault.mer"],
        "routing.route_s": self_s["routing.route"],
        "routing.nets_routed": route["routed"],
        "routing.nets_failed": route["failed"],
        "routing.nets_per_s": _ratio(route["routed"] + route["failed"], incl_s["routing.route"]),
        "sim.replay_s": self_s["sim.replay"],
        "sim.checkpoint_s": self_s["sim.checkpoint"],
        "sim.transports": replay["transports"],
        "sim.planned_transports": replay["planned"],
        "sim.adhoc_transports": replay["transports"] - replay["planned"],
        "sim.planned_share": _ratio(replay["planned"], replay["transports"]),
        "recovery.closed_loop_self_s": self_s["recovery.closed_loop"],
        "testing.probe_s": self_s["testing.probe"],
        "testing.probe_runs": counters["recovery.closed_loop"]["probe_runs"],
        "exec.pool_s": self_s["exec.pool"],
        "exec.parallel_efficiency": 0.0,
        "exec.failed_tasks": counters["exec.pool"]["failed_tasks"],
        "workload.campaign_self_s": self_s["workload.campaign"],
        "trace.spans": len(tracer.spans),
        "trace.traced_s": traced_s,
        "trace.hook_s": tracer.hook_s(),
        "trace.overhead_pct": 100.0 * _ratio(
            len(tracer.spans) * span_cost + tracer.hook_s(), traced_s),
    }
    for rung in RUNGS:
        name = f"recovery.{rung}"
        out[f"{name}_s"] = self_s[name]
        out[f"{name}_total_s"] = incl_s[name]
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_ok_ratio"] = _ratio(counters[name]["ok"], calls[name])
    return out
