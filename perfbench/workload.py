"""One benchmark run of rkhstest, in its own process.

``run.py`` starts this script once per run and reads the JSON record it
writes.  The script imports rkhstest from the checkout's ``src`` directory,
writes the workload's inputs, runs whole rounds of the workload's operation
until the measuring window closes, and records what the independent checks
in ``checks.py`` need.  With ``--setup-only`` it stops after the inputs are
written, which gives ``run.py`` further samples of the set-up time.

The set-up clock starts at ``--t0``, a ``time.monotonic()`` reading taken by
the parent just before it started this process, so interpreter start-up is
part of the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Workload definitions.  ``batch`` is the number of replicates one call of
# run_monte_carlo makes; a run repeats whole batches.
SERIES = {
    "design": "Lin3", "null": "Lin3", "n": 100, "k": 10, "pair_corr": 0.75,
    "corr_shape": "equi", "snr": 1.0, "iterations": 500,
    "step_rule": "line_search", "null_draws": 10_000,
    "instrument_count": None, "n_jobs": 2, "batch": 8,
}
SECTION = {
    "design": "Bivariate", "null": "BivLinAll", "n": 1000, "k": 2,
    "pair_corr": 0.0, "corr_shape": "geometric", "snr": 0.2,
    "iterations": 500, "step_rule": "line_search", "null_draws": 10_000,
    "instrument_count": 200, "n_jobs": 1, "batch": 4,
}
CLI = {
    "n": 1000, "lengthscale": 1.0, "noise_sd": 0.5, "iterations": 200,
    "r": 100, "null_draws": 10_000,
}
MC_WORKLOADS = {"series_size_mc": SERIES, "section_power_mc": SECTION}
WORKLOADS = ("series_size_mc", "section_power_mc", "cli_gram_test")


def import_rkhstest():
    """Import rkhstest from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rkhstest" / "__init__.py").is_file():
        raise SystemExit(f"rkhstest sources not found under {src}")
    sys.path.insert(0, str(src))
    import rkhstest  # noqa: F401  (the import is part of the set-up time)
    import rkhstest.cli
    import rkhstest.simulation

    if Path(rkhstest.__file__).resolve().parent != (src / "rkhstest").resolve():
        raise SystemExit(f"imported rkhstest from {rkhstest.__file__}, not {src}")
    return rkhstest


# ---------------------------------------------------------------- inputs


def mc_config(rkhstest, spec: dict, seed: int, batch: int):
    """The study of one batch; its replicates draw from master seed
    seed * 100000 + batch, so no two batches of a run share data."""
    sim = rkhstest.simulation
    return sim.McConfig(
        dgp=sim.DgpSpec(
            spec["design"], spec["n"], spec["k"], spec["pair_corr"],
            spec["corr_shape"], spec["snr"],
        ),
        null_hypothesis=spec["null"],
        replicates=spec["batch"],
        sizes=(0.05,),
        master_seed=seed * 100_000 + batch,
        null_draws=spec["null_draws"],
        instrument_count=spec["instrument_count"],
        iterations=spec["iterations"],
        step_rule=spec["step_rule"],
    )


def cli_data(seed: int):
    """The cli_gram_test dataset: y additive in x1 and x2, so the null holds."""
    import numpy as np

    rng = np.random.default_rng([seed, 3])
    n = CLI["n"]
    x = rng.uniform(-2.0, 2.0, (n, 3))
    y = np.sin(1.5 * x[:, 0]) + 0.25 * x[:, 1] ** 2 + CLI["noise_sd"] * rng.standard_normal(n)
    return x, y


def write_cli_inputs(work: Path, seed: int) -> Path:
    x, y = cli_data(seed)
    csv_path = work / "data.csv"
    rows = "\n".join(f"{a!r},{b!r},{c!r},{d!r}" for a, (b, c, d) in zip(y.tolist(), x.tolist()))
    csv_path.write_text("y,x1,x2,x3\n" + rows + "\n")
    ls = CLI["lengthscale"]
    config = work / "test.yaml"
    config.write_text(
        f"""seed: {seed}
loss: rescaled_square
data: {{path: {json.dumps(str(csv_path))}}}
kernels:
  r0:
    kind: sum
    terms:
      - {{kind: gaussian_rbf, lengthscale: {ls}, coords: [0]}}
      - {{kind: gaussian_rbf, lengthscale: {ls}, coords: [1]}}
  r1: {{kind: gaussian_rbf, lengthscale: {ls}, coords: [2]}}
fit: {{solver: greedy, iterations: {CLI['iterations']}}}
test:
  instrument_mode: kernel_sections_normalized
  r: {CLI['r']}
  null_draws: {CLI['null_draws']}
"""
    )
    return config


def setup(workload: str, seed: int, work: Path):
    """Import rkhstest and write the workload's inputs."""
    rkhstest = import_rkhstest()
    if workload == "cli_gram_test":
        inputs = write_cli_inputs(work, seed)
    else:
        inputs = mc_config(rkhstest, MC_WORKLOADS[workload], seed, 0)
    return rkhstest, inputs


# ---------------------------------------------------------------- rounds


def run_batch(rkhstest, workload: str, inputs, index: int, work: Path, n_jobs: int):
    """One round of the workload's operation; returns (ops, failed, outcome)."""
    if workload == "cli_gram_test":
        out = work / "runs" / str(index)
        with contextlib.redirect_stdout(io.StringIO()):
            code = rkhstest.cli.main(["test", "--config", str(inputs), "--out", str(out)])
        return 1, int(code != 0), {"exit_code": code}
    config = inputs if index == 0 else replace(inputs, master_seed=inputs.master_seed + index)
    table = rkhstest.simulation.run_monte_carlo(config, n_jobs=n_jobs)
    return config.replicates, table.errors, {
        "p_values": table.p_values.tolist(),
        "naive_p_values": table.naive_p_values.tolist(),
        "errors": table.errors,
        "error_messages": table.error_messages,
    }


def workers(workload: str) -> int:
    return MC_WORKLOADS[workload]["n_jobs"] if workload in MC_WORKLOADS else 1


def timed_rounds(rkhstest, workload, inputs, work, seconds, n_jobs, tracer=None):
    """A warm-up round, then whole rounds until ``seconds`` have passed.

    The warm-up round (index 0) fills lazy imports and first-call caches,
    which a user pays once per study, not once per replicate; it is checked
    and counted as attempted but not timed.  Without a tracer every later
    round is timed.  With one, rounds alternate between untraced and traced
    so that both see the same machine state, and a run ends on a whole pair.
    """
    ops, failed, outcome = run_batch(rkhstest, workload, inputs, 0, work, n_jobs)
    rounds = [{"ops": ops, "failed": failed, "seconds": None, "traced": False, **outcome}]
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.begin_op(index)
        start = time.perf_counter()
        ops, failed, outcome = run_batch(rkhstest, workload, inputs, index, work, n_jobs)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.end_op()
        rounds.append({"ops": ops, "failed": failed, "seconds": elapsed,
                       "traced": traced, **outcome})
        index += 1
        if time.perf_counter() >= deadline and (tracer is None or index % 2 == 1):
            return rounds


# ------------------------------------------------ checks that need rkhstest


def series_reference_case(rkhstest, seed: int) -> dict:
    """run_test on a dataset drawn by this benchmark (not by rkhstest)."""
    import numpy as np

    spec = SERIES
    rng = np.random.default_rng([seed, 1])
    n, k, corr = spec["n"], spec["k"], spec["pair_corr"]
    cov = np.full((k, k), corr) + (1.0 - corr) * np.eye(k)
    x = np.clip(rng.standard_normal((n, k)) @ np.linalg.cholesky(cov).T, -2.0, 2.0)
    mu = x[:, :3].mean(axis=1)
    y = mu + math.sqrt(np.var(mu) / spec["snr"]) * rng.standard_normal(n)
    plan = rkhstest.simulation.null_kernel_for(spec["null"], k=k)
    fit = rkhstest.estimators.FitConfig(
        budget=10.0 * float(np.std(y)), norm_kind="lk", solver="greedy",
        iterations=spec["iterations"], step_rule=spec["step_rule"],
    )
    result = rkhstest.inference.run_test(
        x, y, plan, rkhstest.losses.rescaled_square_loss(), fit,
        n_draws=spec["null_draws"], rng=seed,
    )
    return {"x": x.tolist(), "y": y.tolist(), "statistic": result.statistic,
            "spectrum": result.spectrum.tolist(), "proj_rho": result.proj_rho}


def section_reference_case(rkhstest, seed: int) -> dict:
    import numpy as np

    spec = SECTION
    rng = np.random.default_rng([seed, 2])
    n = spec["n"]
    x = np.clip(rng.standard_normal((n, 2)), -2.0, 2.0)
    x1, x2 = x[:, 0], x[:, 1]
    mu = 0.5 * x1 + 1.5 * x2 - 4.0 * x2**2 + 3.0 * x2**3
    mu = mu * math.sqrt(spec["snr"] / np.var(mu))
    y = mu + rng.standard_normal(n)
    plan = rkhstest.simulation.null_kernel_for(spec["null"], k=2)
    fit = rkhstest.estimators.FitConfig(
        budget=10.0 * float(np.std(y)), norm_kind="lk", solver="ridge_closed_form",
    )
    result = rkhstest.inference.run_test(
        x, y, plan, rkhstest.losses.rescaled_square_loss(), fit,
        n_draws=spec["null_draws"], rng=seed,
        instrument_count=spec["instrument_count"],
    )
    return {"x": x.tolist(), "y": y.tolist(), "budget": fit.budget,
            "statistic": result.statistic, "spectrum": result.spectrum.tolist(),
            "proj_rho": result.proj_rho}


def cli_fit_model(rkhstest, config: Path, work: Path) -> str:
    out = work / "fit"
    with contextlib.redirect_stdout(io.StringIO()):
        code = rkhstest.cli.main(["fit", "--config", str(config), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"rkhstest fit exited with {code}")
    return str(out / "model.json")


# ---------------------------------------------------------------- environment


def blas_info() -> dict:
    """The BLAS library numpy loaded and the thread count it runs with."""
    import ctypes

    import numpy as np

    env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    info = {"library": None, "version": None, "threads": None,
            "env": {k: os.environ[k] for k in env if k in os.environ}}
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    # numpy wheels ship OpenBLAS next to the package; this loads the copy
    # numpy already loaded, so the count is the one numpy runs with
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["threads_from"] = f"{lib.name}:{symbol}"
                return info
    return info


def environment(n_jobs: int) -> dict:
    import numpy as np
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "workers": n_jobs,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest ended child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports kilobytes


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    rkhstest, inputs = setup(args.workload, args.seed, work)
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s}
    if args.setup_only:
        (work / "setup.json").write_text(json.dumps(record))
        return 0

    tracer = None
    n_jobs = workers(args.workload)
    if args.trace:
        from tracer import Tracer  # the benchmark's own module, next to this file

        tracer = Tracer()
        tracer.install(rkhstest)
        n_jobs = 1  # the traced run is a single process
    rounds = timed_rounds(rkhstest, args.workload, inputs, work, args.seconds, n_jobs, tracer)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(work / "spans.json")

    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(n_jobs),
        "rounds": rounds, "peak_rss_mb": peak_rss_mb(),
    })
    if args.workload == "series_size_mc":
        record["reference"] = series_reference_case(rkhstest, args.seed)
    elif args.workload == "section_power_mc":
        record["reference"] = section_reference_case(rkhstest, args.seed)
    else:
        record["config"] = str(inputs)
        record["model"] = cli_fit_model(rkhstest, inputs, work)
    (work / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
