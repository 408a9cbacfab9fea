"""Self-test: accuracy repeats bit for bit across two runs of one seed.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seed 7] [--seconds 4]

Runs every workload twice with the same seed and fails unless
``error_km_p50`` and ``containment_pct`` are identical, every run is
correct and no answer failed.
"""

from __future__ import annotations

import argparse
import sys

from spread import invoke

EXACT = ("error_km_p50", "containment_pct")
WORKLOADS = ("cluster_warm", "serve_churn")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    problems = []
    for workload in WORKLOADS:
        first, second = (invoke(workload, args.seed, args.seconds) for _ in range(2))
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                problems.append(f"{workload}: correct={run['correct']} failed={run['failed']}")
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:13s} {name:16s} {a!r} vs {b!r}: {status}", flush=True)
            if a != b:
                problems.append(f"{workload}: {name} {a!r} != {b!r}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
