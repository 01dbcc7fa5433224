"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the library's day-to-day uses without writing code:

* ``flow`` — synthesize a built-in protocol end to end and print the
  schedule, placement, and FTI analysis.
* ``place`` — run just bind -> schedule -> place and report the
  annealer's throughput (proposals/sec); ``--profile`` prints the
  top-20 cumulative profile entries so perf work starts from data.
* ``route`` — synthesize with the concurrent droplet-routing stage and
  print the verified per-net routing plan.
* ``simulate`` — droplet-level replay of a synthesized assay (faults
  realized first, then every operation in realized order), reporting
  wall time and events/sec.
* ``portfolio`` — best-of-N seeded pipeline instances (in parallel with
  ``--jobs``), winner selected by ``--objective``.
* ``batch`` — the (assay x design-time defect pattern) preset grid of
  the campaign engine; ``--json`` emits the machine-readable report.
* ``recover`` — inject mid-assay faults of a ``--fault-model`` and
  recover online on the closed loop's rung ladder: detect each fault
  (from ground truth, or through the noisy-sensor probe loop under
  ``--closed-loop``), checkpoint the live state, then re-route,
  relocate, re-place or re-synthesize the suffix, cheapest rung first,
  and resume; ``--sweep`` runs the (assay x fault arrival x fault site)
  preset grid of the campaign engine instead.
* ``campaign`` — run a declarative scenario grid from a TOML/JSON
  config into a structured JSONL log.
* ``sweep`` — the Table 2 beta sweep.
* ``experiments`` — the full paper-vs-measured report.
* ``explore`` — architectural design-space exploration (binding
  strategy x concurrency cap frontier).

Exit codes are distinct and scriptable:

* ``0`` — success (every scenario/instance ok).
* ``2`` — usage error (bad flags or flag combinations; also what
  argparse itself exits with).
* ``3`` — infeasible: the toolchain decided the problem has no
  solution (synthesis/routing/verification/recovery failure).
* ``4`` — a worker exceeded its ``--task-timeout`` deadline and the
  retry budget.
* ``5`` — a worker process crashed and the retry budget is exhausted.

Parallel commands (``portfolio``, ``batch``, ``recover``, ``campaign``)
run on the supervised execution layer (:mod:`repro.exec`):
``--task-timeout`` and ``--max-retries`` bound each task, and the
campaign-engine commands (``campaign``, ``batch``, ``recover --sweep``)
support crash-safe ``--journal`` files and ``--resume``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import __version__
from repro.assay.catalog import BUNDLED_ASSAYS as PROTOCOLS
from repro.assay.catalog import build_assay, is_generator_spec
from repro.exec import (
    STATUS_CRASHED,
    STATUS_INFEASIBLE,
    STATUS_OK,
    STATUS_RETRIED_OK,
    STATUS_TIMEOUT,
)
from repro.fault.models import FAULT_MODELS
from repro.placement.annealer import AnnealingParams
from repro.util.errors import (
    ReproError,
    UsageError,
    WorkerCrashError,
    WorkerTimeoutError,
)

#: Documented exit statuses (see the module docstring).
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 4
EXIT_CRASHED = 5


class CliExit(SystemExit):
    """A ``SystemExit`` whose ``str()`` is the message, not the code.

    ``raise SystemExit("msg")`` exits with status 1 and prints to
    stderr; ``raise SystemExit(2)`` exits silently. This carries both:
    ``.code`` is the numeric status, ``str(exc)`` stays the message (so
    tests can ``pytest.raises(SystemExit, match=...)``).
    """

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int = EXIT_USAGE) -> CliExit:
    """Print *message* to stderr and build the typed exit to raise."""
    print(message, file=sys.stderr)
    return CliExit(message, code)


def _exit_code(statuses) -> int:
    """Map scenario statuses to the command's exit code (worst wins)."""
    statuses = set(statuses)
    if STATUS_CRASHED in statuses:
        return EXIT_CRASHED
    if STATUS_TIMEOUT in statuses:
        return EXIT_TIMEOUT
    if statuses - {STATUS_OK, STATUS_RETRIED_OK}:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _params(fast: bool) -> AnnealingParams:
    return AnnealingParams.fast() if fast else AnnealingParams.balanced()


def _max_parked(args: argparse.Namespace, *protocols: str) -> int | None:
    """Storage-pressure bound for the list scheduler.

    Generated workloads default to 2: wide random graphs otherwise park
    product droplets into routing obstacles (DESIGN.md, drain chains).
    Bundled assays keep their unbounded golden schedules. An explicit
    ``--max-parked`` wins either way.
    """
    if getattr(args, "max_parked", None) is not None:
        return args.max_parked
    names = protocols or (getattr(args, "protocol", None) or "",)
    return 2 if any(is_generator_spec(n) for n in names) else None


def _check_on_array(flag: str, cells, chip) -> None:
    """Reject *flag* cells (placement coordinates) that miss *chip*:
    the placed array plus the routing boundary lane."""
    xs, ys = chip.extent
    for x, y in cells:
        if x not in xs or y not in ys:
            raise UsageError(
                f"{flag} {x} {y} is off the simulated array, which spans "
                f"x {xs[0]}..{xs[-1]} and y {ys[0]}..{ys[-1]} (the "
                f"{chip.width}x{chip.height} chip: the placed array plus "
                f"its {chip.margin}-cell boundary lane)"
            )


def cmd_flow(args: argparse.Namespace) -> int:
    from repro.synthesis.flow import SynthesisFlow
    from repro.viz.ascii_art import render_fti_map, render_gantt, render_placement

    graph, binding = build_assay(args.protocol)
    flow = SynthesisFlow(
        placer=_placer(args),
        max_concurrent_ops=args.max_concurrent,
        max_parked=_max_parked(args),
    )
    result = flow.run(graph, explicit_binding=binding)

    print(render_gantt(result.schedule))
    print()
    print(render_placement(result.placement_result.placement))
    print()
    if result.fti_report is not None:
        print(render_fti_map(result.fti_report))
        print()
    print(result.summary())
    return 0


def _placer(args: argparse.Namespace):
    from repro.placement.sa_placer import SimulatedAnnealingPlacer
    from repro.placement.two_stage import TwoStagePlacer

    if getattr(args, "beta", None) is not None:
        return TwoStagePlacer(
            beta=args.beta, stage1_params=_params(args.fast), seed=args.seed
        )
    return SimulatedAnnealingPlacer(params=_params(args.fast), seed=args.seed)


def _profiled(enabled: bool, fn):
    """Run *fn* (optionally under cProfile, printing the top-20 entries).

    Profile output goes to stderr so ``--profile --json`` still emits a
    parseable JSON document on stdout.
    """
    if not enabled:
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.strip_dirs().sort_stats("cumulative").print_stats(20)
    return result


def cmd_place(args: argparse.Namespace) -> int:
    from repro.pipeline.context import SynthesisContext
    from repro.pipeline.stages import BindStage, ScheduleStage
    from repro.viz.ascii_art import render_placement

    graph, binding = build_assay(args.protocol)
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(
        max_concurrent_ops=args.max_concurrent, max_parked=_max_parked(args)
    ).run(context)
    placer = _placer(args)

    placed = _profiled(
        args.profile, lambda: placer.place(context.schedule, context.binding)
    )
    # TwoStagePlacer returns a TwoStageResult; report its final stage.
    result = placed.stage2 if hasattr(placed, "stage2") else placed
    print(render_placement(result.placement))
    print()
    w, h = result.array_dims
    stats = result.stats
    print(f"placement: {w}x{h} = {result.area_cells} cells "
          f"({result.area_mm2:.2f} mm^2), {stats.stop_reason}")
    # The rate is over the anneal loop alone, so the line prints the
    # anneal's seconds; construction, repair and normalization are only
    # in the total.
    print(f"annealer: {stats.evaluations} proposals in "
          f"{result.anneal_s:.3f} s = {result.proposals_per_s:,.0f} proposals/s, "
          f"acceptance {stats.acceptance_ratio:.1%}")
    print(f"placer: {result.runtime_s:.3f} s total")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    from repro.synthesis.flow import SynthesisFlow
    from repro.util.errors import RoutingError

    graph, binding = build_assay(args.protocol)
    flow = SynthesisFlow(
        placer=_placer(args),
        max_concurrent_ops=args.max_concurrent,
        max_parked=_max_parked(args),
        route=True,
    )
    result = _profiled(
        args.profile,
        lambda: flow.run(
            graph,
            explicit_binding=binding,
            faulty_cells=[tuple(f) for f in args.faulty or ()],
        ),
    )
    _check_on_array("--faulty", args.faulty or (), result.chip)
    plan = result.routing_plan
    print(plan.table_text())
    print()
    try:
        plan.verify()
        print("verification: conflict-free "
              "(fluidic spacing, module footprints, faulty cells)")
    except RoutingError as exc:
        print(f"verification FAILED: {exc}")
        return EXIT_INFEASIBLE
    print()
    print(result.summary())
    route_s = result.stage_timings.get("route", 0.0)
    throughput = plan.routed_count / route_s if route_s > 0 else float("inf")
    print()
    print(f"router: {plan.routed_count} nets in {route_s:.3f} s = "
          f"{throughput:,.0f} nets/s")
    if plan.failed_count:
        # The routed subset verified, but the plan is incomplete — make
        # that visible to scripts gating on this command's exit status.
        print(
            f"WARNING: {plan.failed_count} net(s) UNROUTED; the simulator "
            "will route those droplets on its own (bitboard BFS) instead"
        )
        return EXIT_INFEASIBLE
    return EXIT_OK


def _paired_faults(args: argparse.Namespace) -> list[tuple[float, tuple[int, int] | None]]:
    """Normalize repeatable ``--cell``/``--fault-time`` into ordered
    ``(arrival fraction, cell-or-None)`` pairs.

    Both flags repeat; when both are given they must pair up
    one-to-one (the i-th ``--cell`` fails at the i-th ``--fault-time``).
    A lone axis broadcasts the default for the other: cells without
    times all fail at fraction 0.5, times without cells each aim at an
    auto-picked module cell (``None`` here, resolved by the command).
    """
    times = list(args.fault_time or ())
    cells = [tuple(c) for c in (args.cell or ())]
    if times and cells and len(times) != len(cells):
        raise UsageError(
            f"--cell/--fault-time must pair up one-to-one: got "
            f"{len(cells)} --cell but {len(times)} --fault-time "
            "(repeat the flags in matching pairs)"
        )
    for t in times:
        if not 0.0 <= t < 1.0:
            raise UsageError(f"--fault-time must be in [0, 1), got {t}")
    if not times and not cells:
        return []
    n = max(len(times), len(cells))
    return [
        (times[i] if times else 0.5, cells[i] if cells else None)
        for i in range(n)
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    import time

    from repro.sim.engine import BiochipSimulator, replay_events
    from repro.synthesis.flow import SynthesisFlow

    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    pairs = _paired_faults(args)
    graph, binding = build_assay(args.protocol)
    flow = SynthesisFlow(
        placer=_placer(args),
        max_concurrent_ops=args.max_concurrent,
        max_parked=_max_parked(args),
        route=True,
    )
    result = flow.run(graph, explicit_binding=binding)
    _check_on_array(
        "--cell", [c for _, c in pairs if c is not None], result.chip
    )
    sim = BiochipSimulator(
        result.graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        result.chip,
        routing_plan=result.routing_plan,
    )

    faults: list[tuple[float, tuple[int, int]]] = []
    for fraction, raw_cell in pairs:
        fault_t = fraction * result.schedule.makespan
        if raw_cell is not None:
            cell = result.chip.cell(raw_cell)
        else:
            # Aim at the first module still pending at the fault instant
            # (deterministic, and actually exercises reconfiguration).
            pending = sorted(
                pm.op_id
                for pm in sim.placement
                if sim.schedule.interval(pm.op_id).start > fault_t
            )
            target = pending[0] if pending else sorted(
                pm.op_id for pm in sim.placement
            )[0]
            cell = sim.module_cell(target)
        faults.append((fault_t, cell))

    report = _profiled(args.profile, lambda: sim.run(faults=faults))
    best = float("inf")
    for _ in range(args.reps):
        t0 = time.perf_counter()
        report = sim.run(faults=faults)
        best = min(best, time.perf_counter() - t0)
    events = replay_events(faults, report)
    if args.json:
        print(
            json.dumps(
                {
                    "report": report.to_dict(),
                    "wall_ms": best * 1000,
                    "events_per_s": events / best,
                },
                indent=2,
            )
        )
    else:
        print(report.summary())
        print()
        print(
            f"replay: best of {args.reps} runs "
            f"{best * 1000:.2f} ms = {events / best:,.0f} events/s"
        )
    return EXIT_OK if report.completed else EXIT_INFEASIBLE


def cmd_portfolio(args: argparse.Namespace) -> int:
    from repro.pipeline import PortfolioSpec, run_portfolio
    from repro.util.tables import format_table

    graph, binding = build_assay(args.protocol)
    spec = PortfolioSpec(
        graph=graph,
        explicit_binding=binding,
        annealing=_params(args.fast),
        beta=args.beta,
        max_concurrent_ops=args.max_concurrent,
        max_parked=_max_parked(args),
        route=args.route,
    )
    if args.profile and args.jobs > 1:
        print(
            "portfolio: --profile instruments only the parent process; "
            "with --jobs > 1 the annealing work happens in pool workers "
            "and will not appear in the profile (use --jobs 1)",
            file=sys.stderr,
        )
    result = _profiled(
        args.profile,
        lambda: run_portfolio(
            spec, n=args.n, seed=args.seed, objective=args.objective,
            jobs=args.jobs, task_timeout=args.task_timeout,
            max_retries=args.max_retries,
        ),
    )
    code = _exit_code(f["status"] for f in result.failures)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return code
    print(
        format_table(
            ("instance", "seed", args.objective, "makespan", "cells", "FTI"),
            result.table_rows(),
        )
    )
    print()
    print(
        f"winner: instance {result.winner_index} "
        f"({args.objective} {result.winner.objective_value:g}, "
        f"best of {len(result.outcomes)}, jobs={result.jobs}, "
        f"{result.wall_s:.1f} s wall)"
    )
    for f in result.failures:
        print(f"FAILED {f['key']}: {f['status']} ({f['error']})")
    print()
    print(result.winner_result.summary())
    return code


def _run_preset(args: argparse.Namespace, config, outcome: str) -> int:
    """Run a preset campaign grid (``batch``, ``recover --sweep``).

    A scenario whose closed loop ran but did not complete counts as
    infeasible; lost-worker statuses pass through unchanged.
    """
    from repro.workload.campaign import CampaignRunner

    report = CampaignRunner(config).run(
        None,
        jobs=args.jobs,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        journal_path=args.journal,
        resume_from=args.resume,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.scenario_table())
        print()
        print(
            f"{report.completed_count}/{len(report.records)} scenarios "
            f"{outcome} (jobs={report.jobs}, {report.wall_s:.1f} s wall)"
        )
    return _exit_code(
        STATUS_INFEASIBLE if r.ok and not r.completed else r.status
        for r in report.records
    )


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.workload.campaign import batch_preset

    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if not protocols:
        raise UsageError("batch needs at least one assay")
    faults = [f.strip() for f in args.faults.split(",") if f.strip()]
    config = batch_preset(
        protocols,
        faults,
        seed=args.seed,
        fast=args.fast,
        max_concurrent=args.max_concurrent,
        max_parked=_max_parked(args, *protocols),
    )
    return _run_preset(args, config, "ok")


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.workload.campaign import CampaignConfig, CampaignRunner, validate_log

    if args.validate is not None:
        problems = validate_log(args.validate)
        if problems:
            for p in problems:
                print(f"{args.validate}: {p}")
            print(f"{args.validate}: INVALID ({len(problems)} problem(s))")
            return EXIT_INFEASIBLE
        print(f"{args.validate}: valid campaign log")
        return EXIT_OK
    if args.config is None:
        raise UsageError("a campaign config file is required (or --validate LOG)")
    config = CampaignConfig.load(args.config)
    runner = CampaignRunner(config)
    report = runner.run(
        args.log,
        jobs=args.jobs,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        journal_path=args.journal,
        resume_from=args.resume,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.table_text())
        print()
        print(report.summary())
    return _exit_code(r.status for r in report.records)


def _recovery_timeline(outcome) -> str:
    """Before/after ASCII timeline of one recovery: the nominal run, the
    fault instant, and the recovered run with its re-synthesized tail."""
    width = 50
    nominal = outcome.nominal_makespan_s
    realized = outcome.recovered_makespan_s
    scale = width / (max(realized or 0.0, nominal) or 1.0)

    def bar(upto: float, fill: str) -> str:
        return fill * max(0, round(upto * scale))

    fault_at = round(outcome.fault_time_s * scale)
    nominal_bar = bar(nominal, "=")
    before = nominal_bar[:fault_at] + "x" + nominal_bar[fault_at + 1 :]
    prefix = bar(outcome.fault_time_s, "=")
    # A recovery whose replay never finished has no tail to draw.
    tail_len = 0 if realized is None else max(0, round(realized * scale) - len(prefix) - 1)
    after = prefix + "x" + "~" * tail_len
    return "\n".join(
        [
            f"  nominal   |{before}| {nominal:g} s",
            f"  recovered |{after}| {'-' if realized is None else f'{realized:g} s'}  "
            f"(x = fault at t={outcome.fault_time_s:g} s, ~ = re-synthesized tail)",
        ]
    )


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.recovery import (
        FAULT_TARGETS,
        ClosedLoopController,
        OnlineRecoveryEngine,
        fault_timeline,
    )
    from repro.synthesis.flow import SynthesisFlow
    from repro.testing.detector import CapacitiveSensor
    from repro.util.rng import ensure_rng

    protocols = sorted(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    if args.target is not None and args.target not in FAULT_TARGETS:
        raise UsageError(
            f"unknown --target {args.target!r}; choose from {FAULT_TARGETS}"
        )
    # A fraction >= 1 checkpoints after the assay finished: nothing
    # is pending, so "recovery" would succeed vacuously (validated
    # inside _paired_faults).
    pairs = _paired_faults(args)
    if not args.sweep and (args.journal or args.resume):
        raise UsageError(
            "--journal/--resume journal the Monte-Carlo grid and "
            "need --sweep"
        )
    if (
        args.sensor_fpr or args.sensor_fnr or args.sensor_latency
    ) and not args.closed_loop:
        raise UsageError(
            "--sensor-fpr/--sensor-fnr/--sensor-latency model the "
            "imperfect sensing channel and need --closed-loop "
            "(oracle detection never consults the sensor)"
        )
    sensor = CapacitiveSensor.parse({
        "fpr": args.sensor_fpr, "fnr": args.sensor_fnr,
        "latency": args.sensor_latency,
    })

    if args.sweep:
        from repro.workload.campaign import recovery_sweep_preset

        if args.cell:
            raise UsageError(
                "--cell pins explicit faults; it cannot be "
                "combined with --sweep (use --target/--fault-time to "
                "narrow the grid instead)"
            )
        config = recovery_sweep_preset(
            protocols,
            arrivals=[f for f, _ in pairs] or (0.25, 0.5, 0.75),
            sites=(
                (args.target,) if args.target is not None
                else ("pending-module", "street")
            ),
            fault_model=args.fault_model,
            sensor=sensor.key,
            seed=args.seed,
            fast=args.fast,
            max_concurrent=args.max_concurrent,
            max_parked=_max_parked(args, *protocols),
        )
        return _run_preset(args, config, "recovered")

    # Every fault, one or many, of any model, runs the rung ladder:
    # detected by the noisy-sensor probe loop under --closed-loop, from
    # ground truth otherwise. Each --cell/--fault-time pair anchors one
    # --fault-model timeline (its cell auto-picked by --target when no
    # cell is pinned).
    target = args.target if args.target is not None else "pending-module"
    mode = "closed-loop" if args.closed_loop else "oracle"
    engine = OnlineRecoveryEngine(
        annealing=(
            AnnealingParams.fast() if args.fast
            else AnnealingParams.low_temperature()
        ),
    )
    controller = ClosedLoopController(engine=engine, sensor=sensor)
    outcomes = {}
    exit_code = EXIT_OK
    for name in protocols:
        graph, binding = build_assay(name)
        flow = SynthesisFlow(
            placer=_placer(args),
            max_concurrent_ops=args.max_concurrent,
            max_parked=_max_parked(args, name),
            route=True,
        )
        try:
            result = flow.run(graph, explicit_binding=binding)
            _check_on_array(
                "--cell", [c for _, c in pairs if c is not None], result.chip
            )
            rng = ensure_rng(args.seed)
            events = []
            for fraction, cell in pairs or [(0.5, None)]:
                events.extend(fault_timeline(
                    engine, result, args.fault_model,
                    fraction * result.schedule.makespan,
                    target if cell is None else cell, rng,
                ))
            out = controller.run(result, tuple(sorted(events)), seed=args.seed, mode=mode)
        except UsageError:
            raise
        except ReproError as exc:
            print(f"{name}: closed-loop run errored: {type(exc).__name__}: {exc}")
            exit_code = EXIT_INFEASIBLE
            continue
        outcomes[name] = out
        if not args.json:
            print(f"--- {name} ---")
            for recovery in out.recoveries:
                print(_recovery_timeline(recovery))
                rungs = " -> ".join(
                    f"{s.rung} {'ok' if s.succeeded else 'FAILED'}"
                    for s in recovery.ladder_trace
                )
                print(f"  ladder: {rungs or recovery.rung}")
            print(out.summary())
            print()
        if not out.completed:
            exit_code = EXIT_INFEASIBLE
    if args.json:
        print(json.dumps({n: o.to_dict() for n, o in outcomes.items()}, indent=2))
    elif outcomes:
        done = sum(1 for o in outcomes.values() if o.completed)
        print(f"{done}/{len(outcomes)} assays completed closed-loop [{mode}]")
    return exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import run_beta_sweep

    sweep = run_beta_sweep(seed=args.seed, stage1_params=_params(args.fast))
    print(sweep.table_text())
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all_experiments

    report = run_all_experiments(seed=args.seed, fast=args.fast, jobs=args.jobs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from repro.synthesis.architect import ArchitecturalExplorer

    graph, _ = build_assay(args.protocol)
    explorer = ArchitecturalExplorer(params=_params(args.fast), seed=args.seed)
    result = explorer.explore(graph)
    print(result.table_text())
    print()
    print("pareto front (makespan / area / FTI):")
    for p in result.pareto_front:
        print(
            f"  {p.strategy:<9} cap={p.max_concurrent_ops}: "
            f"{p.makespan_s:g} s, {p.area_cells} cells, FTI {p.fti:.3f}"
        )
    return 0


def _add_supervision_args(p: argparse.ArgumentParser) -> None:
    """Supervised-execution knobs shared by the parallel commands."""
    scenarios = p.prog.endswith(("batch", "recover", "campaign"))
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-scenario deadline, which on a worker's first scenario "
            "of a synthesis unit also covers that unit's synthesis"
            if scenarios else "per-task deadline"
        ) + "; a hung worker is killed and the task retried (exit 4 "
            "once retries are exhausted)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per task for crashed or deadline-killed "
             "workers (exit 5 once a crashed task exhausts it)",
    )
    if scenarios:
        p.add_argument(
            "--journal", type=str, default=None, metavar="FILE",
            help="append every completed scenario to this crash-safe "
                 "JSONL journal (one fsynced record per scenario)",
        )
        p.add_argument(
            "--resume", type=str, default=None, metavar="FILE",
            help="skip scenarios already recorded in this journal; the "
                 "resumed report is bit-identical to an uninterrupted run",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant DMFB CAD (Su & Chakrabarty, DATE 2005)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flow = sub.add_parser("flow", help="synthesize a protocol end to end")
    flow.set_defaults(func=cmd_flow)

    place = sub.add_parser(
        "place",
        help="bind + schedule + place only, reporting annealer throughput",
    )
    place.set_defaults(func=cmd_place)

    route = sub.add_parser(
        "route", help="synthesize with the concurrent droplet-routing stage"
    )
    route.add_argument(
        "--faulty", action="append", nargs=2, type=int, metavar=("X", "Y"),
        help="known-defective cell the routing plan must avoid (repeatable)",
    )
    route.set_defaults(func=cmd_route)

    simulate = sub.add_parser(
        "simulate",
        help="droplet-level replay of a synthesized assay",
    )
    simulate.add_argument(
        "--fault-time", action="append", type=float, default=None,
        metavar="FRACTION",
        help="inject a fault at this fraction of the nominal makespan "
             "(aimed at the first still-pending module unless --cell); "
             "repeatable, pairing up one-to-one with repeated --cell",
    )
    simulate.add_argument(
        "--cell", action="append", nargs=2, type=int, metavar=("X", "Y"),
        default=None,
        help="explicit fault cell in placement coordinates "
             "(implies a fault at --fault-time, default 0.5); repeatable, "
             "pairing up one-to-one with repeated --fault-time",
    )
    simulate.add_argument(
        "--reps", type=int, default=3,
        help="timing repetitions, >= 1 (wall time reports the best)",
    )
    simulate.add_argument(
        "--json", action="store_true",
        help="emit the run report and timing as JSON",
    )
    simulate.set_defaults(func=cmd_simulate)

    portfolio = sub.add_parser(
        "portfolio",
        help="best-of-N seeded pipeline instances, in parallel with --jobs",
    )
    portfolio.add_argument("-n", type=int, default=4, help="portfolio size")
    portfolio.add_argument(
        "--objective", choices=("area", "makespan", "fti", "route-steps"),
        default="area", help="winner-selection objective",
    )
    portfolio.add_argument(
        "--route", action=argparse.BooleanOptionalAction, default=False,
        help="include the droplet-routing stage in every instance",
    )
    portfolio.set_defaults(func=cmd_portfolio)

    batch = sub.add_parser(
        "batch",
        help="campaign preset: (assay x design-time defect pattern) grid",
    )
    batch.add_argument(
        "--protocols", type=str, default="pcr,dilution,ivd",
        help="comma-separated protocol names to sweep",
    )
    batch.add_argument(
        "--faults", type=str, default="none,center",
        help="comma-separated design-time defect patterns "
             "(none, center, corner, pair, cluster); each is routed "
             "around and replayed dead from t=0",
    )
    batch.add_argument("--max-concurrent", type=int, default=3)
    batch.add_argument(
        "--max-parked", type=int, default=None,
        help="bound finished-but-unconsumed product droplets during "
             "scheduling (default: 2 for gen: workloads, unbounded "
             "for bundled assays)",
    )
    batch.set_defaults(func=cmd_batch)

    for p in (flow, place, route, simulate, portfolio):
        p.add_argument(
            "--protocol", default="pcr", metavar="NAME",
            help=f"bundled assay ({'/'.join(sorted(PROTOCOLS))}) or generator "
                 "spec like gen:panel:n=64:seed=1",
        )
        p.add_argument("--beta", type=float, default=None,
                       help="enable the fault-aware two-stage placer at this beta")
        p.add_argument("--max-concurrent", type=int, default=3)
        p.add_argument(
            "--max-parked", type=int, default=None,
            help="bound finished-but-unconsumed product droplets during "
             "scheduling (default: 2 for gen: workloads, unbounded "
             "for bundled assays)",
        )

    for p in (place, route, simulate, portfolio):
        p.add_argument(
            "--profile", action="store_true",
            help="run under cProfile and print the top-20 cumulative entries "
                 "to stderr (portfolio: profiles the parent process only — "
                 "use --jobs 1 for meaningful numbers)",
        )

    for p in (portfolio, batch):
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (1 = in-process serial execution)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="emit the machine-readable report as JSON",
        )
    for p in (portfolio, batch):
        _add_supervision_args(p)

    campaign = sub.add_parser(
        "campaign",
        help="run a declarative scenario campaign from a TOML/JSON config, "
             "writing one structured JSONL record per scenario",
    )
    campaign.add_argument(
        "config", nargs="?", default=None, metavar="CONFIG",
        help="campaign declaration (.toml or .json); see "
             "examples/campaigns/",
    )
    campaign.add_argument(
        "--log", type=str, default="campaign.jsonl", metavar="FILE",
        help="output JSONL log (one meta line + one record per scenario, "
             "in grid order; byte-identical for any --jobs)",
    )
    campaign.add_argument(
        "--validate", type=str, default=None, metavar="LOG",
        help="validate an existing campaign log against the record schema "
             "instead of running (exit 0 valid / 3 invalid)",
    )
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process serial execution)",
    )
    campaign.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report as JSON",
    )
    _add_supervision_args(campaign)
    campaign.set_defaults(func=cmd_campaign)

    recover = sub.add_parser(
        "recover",
        help="inject a mid-assay fault and recover online "
             "(checkpoint + incremental re-synthesis + resume)",
    )
    recover.add_argument(
        "--protocol", default="all", metavar="NAME",
        help="assay to recover: bundled name, generator spec, or 'all' "
             "for every bundled assay (the default)",
    )
    recover.add_argument(
        "--fault-time", action="append", type=float, default=None,
        metavar="FRACTION",
        help="fault arrival as a fraction of the nominal makespan [0, 1) "
             "(default 0.5; repeatable, pairing up one-to-one with repeated "
             "--cell; with --sweep, narrows the arrival grid)",
    )
    recover.add_argument(
        "--target", type=str, default=None,
        help="fault-cell kind: pending-module, in-flight-module, center, "
             "street (default pending-module; with --sweep, narrows the "
             "fault-site grid)",
    )
    recover.add_argument(
        "--cell", action="append", nargs=2, type=int, metavar=("X", "Y"),
        default=None,
        help="explicit fault cell in placement coordinates (overrides "
             "--target); repeatable, pairing up one-to-one with repeated "
             "--fault-time",
    )
    recover.add_argument(
        "--fault-model", choices=sorted(FAULT_MODELS), default="permanent",
        help="fault timeline realized at each --cell/--fault-time pair: "
             "permanent stuck-at, transient self-clearing, intermittent "
             "duty-cycled, wear-out, or a spatially-clustered burst",
    )
    recover.add_argument(
        "--closed-loop", action="store_true",
        help="detect faults through the imperfect on-chip sensing channel "
             "(probe campaigns + localization) instead of the "
             "perfect-knowledge oracle path",
    )
    recover.add_argument(
        "--sensor-fpr", type=float, default=0.0, metavar="P",
        help="per-read sensor false-positive rate (needs --closed-loop)",
    )
    recover.add_argument(
        "--sensor-fnr", type=float, default=0.0, metavar="P",
        help="per-read sensor false-negative rate (needs --closed-loop)",
    )
    recover.add_argument(
        "--sensor-latency", type=float, default=0.0, metavar="SECONDS",
        help="sensor readout latency per probe step (needs --closed-loop)",
    )
    recover.add_argument(
        "--sweep", action="store_true",
        help="run the recovery sweep preset campaign "
             "(assay x fault arrival x fault site) instead of one demo fault",
    )
    recover.add_argument("--max-concurrent", type=int, default=3)
    recover.add_argument(
        "--max-parked", type=int, default=None,
        help="bound finished-but-unconsumed product droplets during "
             "scheduling (default: 2 for gen: workloads, unbounded "
             "for bundled assays)",
    )
    recover.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --sweep (1 = serial)",
    )
    recover.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report as JSON",
    )
    _add_supervision_args(recover)
    recover.set_defaults(func=cmd_recover)

    sweep = sub.add_parser("sweep", help="Table 2 beta sweep")
    sweep.set_defaults(func=cmd_sweep)

    exps = sub.add_parser("experiments", help="full paper-vs-measured report")
    exps.add_argument("--out", type=str, default=None)
    exps.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the fault-scenario grid",
    )
    exps.set_defaults(func=cmd_experiments)

    explore = sub.add_parser("explore", help="binding/concurrency design space")
    explore.add_argument(
        "--protocol", default="pcr", metavar="NAME",
        help="bundled assay name or generator spec",
    )
    explore.set_defaults(func=cmd_explore)

    for p in (
        flow, place, route, simulate, portfolio, batch, recover, sweep, exps,
        explore,
    ):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--fast",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="use the small annealing preset (default; "
                 "--no-fast selects the larger, slower preset)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; every command shares one error handler.

    Commands raise the :class:`~repro.util.errors.ReproError` hierarchy
    freely; the mapping to documented exit codes (module docstring)
    happens exactly once, here.
    """
    args = build_parser().parse_args(argv)
    try:
        resume = getattr(args, "resume", None)
        if resume is not None and not Path(resume).is_file():
            raise UsageError(f"--resume journal not found: {resume}")
        # A zero cap deadlocks the list scheduler: a flag error, caught
        # before any synthesis runs.
        for flag in ("max_concurrent", "max_parked"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise UsageError(
                    f"--{flag.replace('_', '-')} must be >= 1, got {value}"
                )
        return args.func(args)
    except UsageError as exc:
        raise _fail(f"{args.command}: {exc}", EXIT_USAGE) from None
    except WorkerTimeoutError as exc:
        raise _fail(f"{args.command}: {exc}", EXIT_TIMEOUT) from None
    except WorkerCrashError as exc:
        raise _fail(f"{args.command}: {exc}", EXIT_CRASHED) from None
    except ReproError as exc:
        raise _fail(f"{args.command}: {exc}", EXIT_INFEASIBLE) from None
    except ValueError as exc:
        raise _fail(f"{args.command}: {exc}", EXIT_USAGE) from None


if __name__ == "__main__":
    sys.exit(main())
