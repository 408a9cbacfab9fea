"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 10 --out perfbench/SPREAD.json

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A bound
in ``BENCHMARK.json`` should sit well above its metric's spread.  It exits
with code 1 when a run is incorrect or failed an answer, or when any
spread, ``setup_s``'s included, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in a fresh process; returns its result line."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2]) if len(lines) > 1 else {}
    return result


def spread(values: list[float]) -> dict:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, dict] = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = invoke(workload, seed, args.seconds)
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            metrics = result["metrics"]
            refs = result["env"].get("env", {}).get("host_ref_loop_ms") or [0.0]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"throughput={metrics['throughput_per_s']['value']:.3f} "
                  f"p50={metrics['latency_p50_ms']['value']:.2f} "
                  f"ref_loop_ms={statistics.median(refs):.2f}", flush=True)
        report[workload] = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            row = spread(values)
            row["bound"] = bound
            report[workload][name] = row
            if row["spread"] > bound:
                ok = False
                flag = "  <-- ABOVE BOUND"
            elif row["spread"] > bound / 3:
                flag = "  <-- above bound/3"
            else:
                flag = ""
            print(f"  {name:18s} median {row['median']:12.4f}  spread {row['spread']:.4f}"
                  f"  (bound {bound}){flag}", flush=True)
        # The machine's own speed over the same runs, for comparison.
        row = spread([statistics.median(run["env"]["env"]["host_ref_loop_ms"]) for run in runs])
        report[workload]["host.ref_loop_ms"] = row
        print(f"  {'host.ref_loop_ms':18s} median {row['median']:12.4f}  spread {row['spread']:.4f}",
              flush=True)
    if args.out is not None:
        env = runs[-1]["env"].get("env", {}) if runs else {}
        payload = {
            "seconds": args.seconds,
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "environment": {k: env.get(k) for k in ("nproc", "numpy", "blas", "kernel_backend", "jitted")},
            "workloads": report,
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
