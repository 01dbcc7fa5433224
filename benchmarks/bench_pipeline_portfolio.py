"""Portfolio-executor benchmark: serial best-of-N vs process-parallel.

Not a paper artifact — the proof for the ``repro.pipeline`` portfolio
executor. A best-of-N portfolio over seeded pipeline instances must

1. select the *identical* winner (and identical per-instance
   objectives) for any worker count — determinism is non-negotiable;
2. on a multi-core host, beat the serial best-of-N baseline by >= 1.5x
   wall-clock once enough workers are available.

The speedup bar is only asserted when the host actually has >= 2 cores
(a single-core container cannot express process parallelism); the
measured numbers are reported either way.

Local-only: CI does not run this file, because the bar does not hold
on a shared 2-core host. There each instance anneals for a few tens of
milliseconds, so process start-up and pickling weigh on every parallel
run, and a faster annealer makes them weigh more. Five runs per commit
on a shared 2-core Linux host (CPython 3.11.7), best speedup over
``jobs`` per assay: 0.69-1.98x before the annealer's fused Metropolis
step (pcr 0.69-1.66x, ivd 1.52-1.98x, dilution 1.40-1.76x) and
1.16-1.78x after it (pcr 1.32-1.61x, ivd 1.33-1.78x, dilution
1.16-1.78x). Four of the five runs before and three of the five after
missed the bar on at least one assay. Run it on a host with idle cores
to check the bar.
"""

from __future__ import annotations

import os

import pytest

from repro.pipeline import run_portfolio
from repro.util.tables import format_table

PORTFOLIO_N = 8
JOB_COUNTS = (2, 4)
SPEEDUP_BAR = 1.5

_rows: list[tuple] = []


def _usable_cores() -> int:
    if hasattr(os, "process_cpu_count"):
        return os.process_cpu_count() or 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_json_records: dict[str, dict] = {}


@pytest.mark.parametrize("assay", ["pcr", "ivd", "dilution"])
def test_portfolio_parallel_speedup(
    benchmark, report, bench_json, make_portfolio_spec, assay
):
    spec = make_portfolio_spec(assay, route=True)

    def serial():
        return run_portfolio(spec, n=PORTFOLIO_N, seed=7, objective="area", jobs=1)

    baseline = benchmark.pedantic(serial, rounds=1, iterations=1)

    parallel = {
        jobs: run_portfolio(spec, n=PORTFOLIO_N, seed=7, objective="area", jobs=jobs)
        for jobs in JOB_COUNTS
    }

    # Determinism: identical winner and per-instance objectives at any
    # worker count, and the selected objective is never worse.
    for jobs, result in parallel.items():
        assert result.winner_index == baseline.winner_index, (
            f"{assay}: jobs={jobs} picked instance {result.winner_index}, "
            f"serial picked {baseline.winner_index}"
        )
        assert [o.objective_value for o in result.outcomes] == [
            o.objective_value for o in baseline.outcomes
        ], f"{assay}: jobs={jobs} produced different instance objectives"
        assert (
            result.winner.objective_value <= baseline.winner.objective_value
        ), f"{assay}: jobs={jobs} selected a worse objective"

    speedups = {jobs: baseline.wall_s / r.wall_s for jobs, r in parallel.items()}
    best = max(speedups.values())
    cores = _usable_cores()
    _rows.append(
        (
            assay,
            PORTFOLIO_N,
            f"{baseline.winner.objective_value:g}",
            f"{baseline.wall_s:.2f}",
            *(f"{parallel[j].wall_s:.2f} ({speedups[j]:.2f}x)" for j in JOB_COUNTS),
        )
    )

    _json_records[assay] = {
        "n": PORTFOLIO_N,
        "best_area": baseline.winner.objective_value,
        "serial_wall_s": baseline.wall_s,
        "parallel": {
            str(j): {"wall_s": parallel[j].wall_s, "speedup": speedups[j]}
            for j in JOB_COUNTS
        },
        "usable_cores": cores,
    }
    # Rewritten per test (the writer merges sections), so a partial or
    # interrupted run still leaves the assays that did complete.
    bench_json("portfolio_parallel", dict(_json_records))

    if len(_rows) == 3:
        report(
            f"Portfolio executor: serial vs parallel best-of-{PORTFOLIO_N} "
            f"({cores} usable core(s))",
            format_table(
                ("assay", "N", "best area", "serial s",
                 *(f"jobs={j}" for j in JOB_COUNTS)),
                list(_rows),
            ),
        )

    if cores < 2:
        pytest.skip(
            f"host exposes {cores} usable core(s); the >= {SPEEDUP_BAR}x "
            f"speedup bar needs real parallelism (measured best {best:.2f}x)"
        )
    assert best >= SPEEDUP_BAR, (
        f"{assay}: best parallel speedup {best:.2f}x over serial best-of-"
        f"{PORTFOLIO_N} is below the {SPEEDUP_BAR}x bar on {cores} cores"
    )
