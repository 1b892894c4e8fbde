"""Run the benchmark several times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/stability.py --workload campaign --runs 10 \\
        [--first-seed 1] [--trace 0] [--out runs.json]

Runs ``BENCHMARK.json``'s command once per seed (``first-seed``,
``first-seed + 1``, ...) for its ``run_seconds``, then prints for every
metric the median, the quartile spread (Q3 - Q1) / median and, for an
end-to-end metric, that spread as a share of the metric's bound.  A
benchmark is steady when every spread but ``setup_s``'s stays below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from figures import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every run's result and detail "
                             "lines here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results: List[Dict] = []
    for k in range(args.runs):
        seed = args.first_seed + k
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(spec["run_seconds"]), "--trace",
             str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2])["detail"]
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1))

    steady = all(r["correct"] for r in results)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        spread = quartile_spread(values) if median(values) else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"  {spread / bound:5.2f} of bound {bound:g}"
            if name != "setup_s" and spread >= bound / 3:
                verdict += "  UNSTEADY"
                steady = False
        print(f"{name:<34} median {median(values):<12.6g} "
              f"spread {spread:7.4f}{verdict}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
