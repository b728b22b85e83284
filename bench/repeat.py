"""Run the benchmark once per seed and summarise the spread of each metric.

    python3 bench/repeat.py --workloads gallery sweep certify \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 20] [--out FILE]

For every workload and metric it prints the median of the runs, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
``--out`` writes the same summary as JSON; bench/baseline.json was made
this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """The end-to-end result line of one run, with its ``env`` and
    ``digest`` lines added."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        key = line.split(" ", 1)[0]
        if key in ("env", "digest", "note", "failure:"):
            result.setdefault(key.rstrip(":"), []).append(line)
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds)
                   for seed in args.seeds]
        metrics = {}
        for name in results[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            print(f"{workload:8s} {name:42s} median={stats['median']:<12.6g} "
                  f"spread={stats['spread']:.4f}"
                  + (f" bound={bound}" if bound is not None else ""), flush=True)
        for r in results:
            for line in r.get("failure", []):
                print(line, flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "env": results[0]["env"][0],
            "digests": [r["digest"][0].split()[2] for r in results],
            "notes": [line for r in results for line in r.get("note", [])],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        print(f"{workload:8s} correct={summary[workload]['correct']} "
              f"failed={summary[workload]['failed']}/{summary[workload]['attempted']}",
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
