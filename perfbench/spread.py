"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), the figure each end-to-end bound in
``BENCHMARK.json`` is compared with.  Every run's result line is appended
to ``perfbench/out/spread.jsonl``.
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


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, as 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                    "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            with log.open("a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "trace": args.trace, **result}) + "\n")
        share = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}, "
              f"(failed, attempted) {sorted(share)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:<36} median {median:<12.6g} spread {spread:7.4f}{note}"
                  f"  values {' '.join(f'{v:.4g}' for v in values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
