"""Summarize several benchmark runs: median, quartiles and spread.

    python3 e2ebench/spread.py [--exact] out1.txt out2.txt ...

Each file holds the standard output of one ``run.py`` run (its last
line is the result object).  The spread is the distance between the
first and third quartile as a share of the median, the figure a
metric's bound in BENCHMARK.json is compared with.  With ``--exact``
(for traced runs of one seed) the exact counters must agree across the
runs; any that differ are listed and the exit code is 1.
"""

import json
import statistics
import sys

from tracing import EXACT_COUNTERS


def main(args) -> int:
    exact = args[:1] == ["--exact"]
    paths = args[1:] if exact else args
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.loads(fh.read().strip().splitlines()[-1]))
    print(f"{len(runs)} runs; attempted {[r['attempted'] for r in runs]}, "
          f"failed {[r['failed'] for r in runs]}, all correct: {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:32s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:6.3f}")
    differing = [
        name for name in EXACT_COUNTERS
        if exact and name in runs[0]["metrics"]
        and len({r["metrics"][name]["value"] for r in runs}) > 1
    ]
    for name in differing:
        print(f"  exact counter differs across runs: {name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
