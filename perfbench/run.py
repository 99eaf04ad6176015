"""rkhstest benchmark: Monte Carlo throughput and CLI test latency.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload series_size_mc --seed 1 --seconds 20 --trace 0

Each run starts ``workload.py`` in a fresh process, which imports rkhstest
from ``src``, writes the workload's inputs and runs whole rounds of the
workload until the window closes.  This script then checks the outputs
(``checks.py``) and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is traced in one process and the metrics are per layer.  The
environment of the run is printed on the line before the result, and the
whole record is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workload import CLI, SECTION, WORKLOADS, cli_data  # noqa: E402

SETUP_SAMPLES = 5  # processes whose set-up is timed; setup_s is their median
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
MEAN_P_REPLICATES = 64  # the first 64 replicates of a series_size_mc run


def launch(args: list[str], timeout: float) -> None:
    """Run workload.py to its end, in its own process group."""
    argv = [sys.executable, str(HERE / "workload.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        # also ends the worker processes of a Monte Carlo pool
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.stderr.write(out + err)
        raise SystemExit(f"workload process exited with code {proc.returncode}")


def mc_checks(workload: str, record: dict) -> dict:
    rounds = record["rounds"]
    p = [v for r in rounds for v in r["p_values"]]
    naive = [v for r in rounds for v in r["naive_p_values"]]
    out = {
        "no_failed_replicate": (sum(r["errors"] for r in rounds) == 0,
                                [m for r in rounds for m in r["error_messages"]][:3]),
        "p_values_in_unit_interval": (all(0.0 < v <= 1.0 for v in p + naive), len(p)),
    }
    if workload == "series_size_mc":
        # corrected p-values are uniform under the null: mean 1/2, sd
        # 1/sqrt(12).  A fixed count keeps the check from depending on how
        # many rounds the machine fits in the window.
        head = p[:MEAN_P_REPLICATES]
        se = 1.0 / math.sqrt(12.0 * len(head))
        mean = statistics.fmean(head)
        out["mean_p_value_near_half"] = (abs(mean - 0.5) <= checks.Z_LIMIT * se,
                                         {"mean": mean, "se": se, "replicates": len(head)})
        out["numpy_recomputation"] = checks.series_recomputation(record["reference"])
    else:
        power = sum(v <= 0.05 for v in p) / len(p)
        out["corrected_power_at_least_0.95"] = (power >= 0.95, power)
        out["numpy_recomputation"] = checks.section_recomputation(
            record["reference"], SECTION["instrument_count"])
    return out


def cli_checks(record: dict, work: Path) -> dict:
    rounds = record["rounds"]
    runs = sorted((work / "runs").iterdir(), key=lambda p: int(p.name))
    digests = {checks.digest(d) for d in runs}
    result = checks.load_json(runs[0] / "test_result.json")
    out = {
        "exit_codes_zero": (all(r["exit_code"] == 0 for r in rounds), len(rounds)),
        "reruns_byte_identical": (len(digests) == 1 and len(runs) == len(rounds), len(runs)),
    }
    draws = result["config"]["n_draws"]
    for key, stat, spectrum in (("p_value", "statistic", "spectrum"),
                                ("naive_p_value", "naive_statistic", "naive_spectrum")):
        exact = checks.imhof_tail(result[spectrum], result[stat])
        out[f"{key}_matches_imhof"] = checks.monte_carlo_agrees(result[key], exact, draws)
    x, y = cli_data(record["seed"])
    out["statistic_from_fit_model"] = checks.cli_recomputation(
        result, checks.load_json(record["model"]), x, y, CLI["lengthscale"], CLI["r"])
    return out


def end_to_end(record: dict, setup_samples: list[float]) -> dict:
    rounds = [r for r in record["rounds"] if r["seconds"] is not None]
    ops = sum(r["ops"] for r in rounds)
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "replicates_per_s": {"value": ops / sum(r["seconds"] for r in rounds), "unit": "1/s"},
        "test_s": {"value": statistics.median(r["seconds"] / r["ops"] for r in rounds),
                   "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(record: dict, work: Path) -> dict:
    trace = checks.load_json(work / "spans.json")
    traced = [r for r in record["rounds"] if r["traced"]]
    plain = [r for r in record["rounds"] if not r["traced"] and r["seconds"] is not None]
    ops = sum(r["ops"] for r in traced)
    metrics = tracer.layer_metrics(trace["spans"], trace["counts"], ops)
    traced_op = sum(r["seconds"] for r in traced) / ops
    plain_op = sum(r["seconds"] for r in plain) / sum(r["ops"] for r in plain)
    metrics["trace.op_s"] = (traced_op, "s")
    metrics["trace.untraced_op_s"] = (plain_op, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_op / plain_op - 1.0), "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    launch([*common, "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--work", str(work / "run")], CHILD_TIMEOUT_S)
    record = checks.load_json(work / "run" / "record.json")

    if args.workload == "cli_gram_test":
        results = cli_checks(record, work / "run")
    else:
        results = mc_checks(args.workload, record)
    correct = all(ok for ok, _ in results.values())

    if args.trace:
        metrics = per_layer(record, work / "run")
    else:
        samples = [record["setup_s"]]
        for i in range(1, SETUP_SAMPLES):
            setup_dir = work / f"setup{i}"
            launch([*common, "--seconds", "0", "--work", str(setup_dir), "--setup-only"],
                   SETUP_TIMEOUT_S)
            samples.append(checks.load_json(setup_dir / "setup.json")["setup_s"])
        metrics = end_to_end(record, samples)
        metrics["setup_s"]["samples"] = samples

    attempted = sum(r["ops"] for r in record["rounds"])
    failed = sum(r["failed"] for r in record["rounds"])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": record["environment"],
        "rounds": len(record["rounds"]), "checks": results, "metrics": metrics,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
    for name, (ok, detail) in results.items():
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    for metric in metrics.values():
        metric.pop("samples", None)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
