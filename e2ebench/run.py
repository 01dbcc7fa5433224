"""End-to-end benchmark of the repro DMFB design flow.

Run from the repository root:

    python3 e2ebench/run.py --workload synth-n100 --seed 1 --seconds 30 --trace 0

Workloads: ``synth-n100`` (spec -> verified design), ``recover-paper``
(closed-loop recovery) and ``campaign-grid`` (campaign fan-out); see
``workloads.py`` and NOTES.md.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones and writes the spans to
``e2ebench/out/``; the metric names, units and directions are read from
``BENCHMARK.json``.  End-to-end timings are stated at a nominal host
speed measured by ``hostspeed.py``.  ``--holdout`` swaps the pinned
corpus constants for the hold-out ones.  A human-readable report goes first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when the run measured
and every output check held, 1 when a check failed, 2 when the program
under test or ``BENCHMARK.json`` cannot be found.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Work is sized for a run of this many seconds on a 2-core host.
NOMINAL_SECONDS = 30

#: Set-ups per run: this process's own plus fresh ones in child
#: processes; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth-n100", "recover-paper", "campaign-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="measured time to size the work for (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="use the hold-out corpus constants")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def repeat_setups(args, own_s: float) -> list[float]:
    """This process's set-up time plus ``SETUP_REPEATS - 1`` fresh ones,
    each a child process that runs the same imports and input building
    and exits; the children run one at a time."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    if args.holdout:
        command.append("--holdout")
    times = [own_s]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=120, check=True)
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest finished
    child (a pool worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(out, setup_s: float, rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics.  The operation timings are stated at the
    nominal host's speed (``hostspeed.py``); the set-up (imports and file
    reads, which the reference kernel does not track) stays raw."""
    op_s = out.scaled_s
    q1, q2, q3 = statistics.quantiles(op_s, n=4, method="inclusive") \
        if len(op_s) > 1 else (op_s[0],) * 3
    return {
        "setup_s": setup_s,
        "op_ms_p50": 1000.0 * q2,
        "op_ms_p75": 1000.0 * q3,
        "ops_per_s": out.attempted / sum(op_s),
        "completed_frac": out.completed / out.attempted,
        "area_cells": out.area_cells,
        "fti_mean": statistics.fmean(out.fti),
        "routability": out.nets_routed / out.nets_total,
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e2ebench: no program under test at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    try:
        e2e_units, layer_units = declared_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"e2ebench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from hostspeed import HostProbe
    from tracing import Tracer, layer_metrics, span_cost_s
    from workloads import WORKLOADS

    scale = max(1, round(args.seconds / NOMINAL_SECONDS))
    workload = WORKLOADS[args.workload](args.seed, scale, args.holdout, OUT_DIR)
    own_setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)

    probe = HostProbe()
    probe.after(0.0)  # the passes before the first operation
    tracer = Tracer() if args.trace else None
    out = workload.measure(probe, tracer)
    rss_mb = peak_rss_mb()  # before the set-up repeats add children

    print(f"workload {args.workload} seed {args.seed}"
          f"{' (hold-out corpus)' if args.holdout else ''}: {out.attempted} operations, "
          f"{len(out.op_s)} timed, {out.failed} failed, "
          f"measured {out.measured_s:.2f} s")
    print(f"  host: reference pass {1000 * out.probe.pass_s():.1f} ms (median of "
          f"{len(out.probe.passes)}), slowdown factor {out.probe.factor():.3f}; "
          f"op p50 {1000 * statistics.median(out.op_s):.1f} ms raw, "
          f"{1000 * statistics.median(out.scaled_s):.1f} ms scaled")
    for kind, count in sorted(out.failures.items()):
        print(f"  failed: {count} x {kind}")

    if tracer is None:
        setups = repeat_setups(args, own_setup_s)
        print(f"  set-up seconds {', '.join(f'{s:.3f}' for s in setups)}")
        metrics = end_to_end(out, statistics.median(setups), rss_mb)
        units = e2e_units
    else:
        metrics = layer_metrics(tracer, out.traced_s, span_cost_s())
        metrics.update(out.layers)
        metrics["host.pass_ms"] = 1000.0 * out.probe.pass_s()
        metrics["recovery.makespan_penalty_s"] = statistics.fmean(out.penalties_s or [0.0])
        units = layer_units
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans, T0)
        print(f"  {len(tracer.spans)} spans -> {os.path.relpath(spans, ROOT)}")
    if set(metrics) != set(units):
        out.violations.append(
            f"computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
    for problem in out.violations:
        print(f"  CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '?')}")

    print(json.dumps({
        "correct": not out.violations,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name in units
        },
    }))
    return 0 if not out.violations else 1


if __name__ == "__main__":
    sys.exit(main())
