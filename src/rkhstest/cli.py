"""Command-line entry points: ``fit``, ``test`` and ``simulate``.

Runs are driven by a nested YAML config (strictly validated: unknown keys
are fatal) with a handful of flags that override file values.  Every run
writes its fully resolved configuration next to the results so outputs can
be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .estimators import AdditiveModel, FitConfig, GreedyTrace, _fit_by_solver
from .inference import (
    _SERIES_BASIS,
    HypothesisPlan,
    SectionInstrumentPlan,
    SeriesInstrumentPlan,
    TestResult,
    run_test,
)
from .kernels import _check_count, _check_real, kernel_from_config
from .losses import LOSS_NAMES, loss_by_name
from .simulation import DgpSpec, McConfig, RejectionTable, _check_fit_settings, run_monte_carlo

__all__ = [
    "RunConfig",
    "Dataset",
    "parse_config",
    "ingest_csv",
    "emit_results",
    "main",
]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


@dataclass(frozen=True)
class FitSettings:
    budget: float | None = None
    budget_multiplier: float = 10.0
    norm: str = "lk"
    solver: str = "greedy"
    iterations: int = 500
    step_rule: str = "line_search"


@dataclass(frozen=True)
class TestSettings:
    instrument_mode: str = "series_features"
    r: int | None = None
    features: tuple = ()
    proj_rho: float | None = None
    null_draws: int = 10000


@dataclass(frozen=True)
class DataSettings:
    path: str | None = None
    response: str | None = None
    covariates: tuple | None = None


@dataclass(frozen=True)
class SimulateSettings:
    design: str = "Lin3"
    null: str = "Lin3"
    n: int = 100
    k: int = 10
    pair_corr: float = 0.0
    corr_shape: str = "geometric"
    snr: float = 1.0
    replicates: int = 100
    sizes: tuple = (0.10, 0.05)
    truncation: str = "clip"
    instrument_count: int | None = None
    null_draws: int = 10000
    proj_rho: float | None = None
    iterations: int = 500
    step_rule: str = "line_search"
    budget_multiplier: float = 10.0


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int | None = None
    out: str = "results"
    threads: int = 1
    loss: str = "rescaled_square"
    kernels: dict = field(default_factory=dict)
    fit: FitSettings = field(default_factory=FitSettings)
    test: TestSettings = field(default_factory=TestSettings)
    data: DataSettings = field(default_factory=DataSettings)
    simulate: SimulateSettings = field(default_factory=SimulateSettings)


def _coerce_section(cls, mapping: dict, prefix: str):
    allowed = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key is None:
            key = "null"  # YAML reads a bare `null:` key as None
        if key not in allowed:
            raise ConfigError(f"unknown config key {prefix}{key!r}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return cls(**kwargs)


def parse_config(text: str | None = None, *, overrides: dict | None = None, command: str | None = None) -> RunConfig:
    """Build a validated RunConfig from YAML text plus flag overrides.

    Unknown keys anywhere in the document are fatal, naming the offending
    key, so typos cannot silently fall back to defaults.  A ``simulate``
    run's study is built here, so every setting it rejects (its design,
    null, data-generating settings and sizes included) fails before any
    replicate runs.
    """
    raw: dict = {}
    if text is not None:
        loaded = yaml.safe_load(text)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        raw = loaded
    top_keys = {f.name for f in fields(RunConfig)}
    for key in raw:
        if key not in top_keys:
            raise ConfigError(f"unknown config key {key!r}")

    cfg_command = raw.get("command")
    if command is not None and cfg_command is not None and command != cfg_command:
        raise ConfigError(
            f"config names command {cfg_command!r} but {command!r} was invoked"
        )
    final_command = command or cfg_command
    if final_command not in ("fit", "test", "simulate"):
        raise ConfigError("exactly one command of fit/test/simulate is required")

    kernels = raw.get("kernels", {}) or {}
    if not isinstance(kernels, dict):
        raise ConfigError("'kernels' must be a mapping with keys r0/r1")
    for key in kernels:
        if key not in ("r0", "r1"):
            raise ConfigError(f"unknown config key kernels.{key!r}")

    config = RunConfig(
        command=final_command,
        seed=raw.get("seed"),
        out=str(raw.get("out", "results")),
        threads=raw.get("threads", 1),
        loss=str(raw.get("loss", "rescaled_square")),
        kernels=kernels,
        fit=_coerce_section(FitSettings, raw.get("fit", {}) or {}, "fit."),
        test=_coerce_section(TestSettings, raw.get("test", {}) or {}, "test."),
        data=_coerce_section(DataSettings, raw.get("data", {}) or {}, "data."),
        simulate=_coerce_section(SimulateSettings, raw.get("simulate", {}) or {}, "simulate."),
    )
    if overrides:
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.loss not in LOSS_NAMES:
        raise ConfigError(f"unknown loss {config.loss!r}; expected one of {LOSS_NAMES}")
    if config.command == "simulate":
        if config.seed is None:
            raise ConfigError("simulate mode requires an explicit seed")
        sim = config.simulate
        for key in ("n", "k", "replicates", "null_draws"):
            _check_count(getattr(sim, key), f"simulate.{key}")
        if sim.instrument_count is not None:
            _check_count(sim.instrument_count, "simulate.instrument_count")
        if sim.proj_rho is not None:
            _check_real(sim.proj_rho, "simulate.proj_rho")
        _check_fit_settings(sim, "simulate.")
        _study(config)
    if config.command in ("fit", "test"):
        if config.data.path is None:
            raise ConfigError(f"{config.command} mode requires data.path")
        if not Path(config.data.path).exists():
            raise ConfigError(f"data file {config.data.path!r} does not exist")
    if config.command == "test" and "r0" not in config.kernels:
        raise ConfigError("test mode needs kernels.r0 (the null-space kernel)")
    if config.command == "fit" and "r0" not in config.kernels:
        raise ConfigError("fit mode needs kernels.r0 (the model kernel)")
    mode = config.test.instrument_mode
    if mode not in ("series_features", "kernel_sections_normalized"):
        raise ConfigError(f"unknown instrument mode {mode!r}")
    if mode == "series_features" and config.test.r is not None:
        raise ConfigError("test.r counts kernel sections; series_features mode takes test.features")
    if mode == "kernel_sections_normalized" and config.test.features:
        raise ConfigError(
            "test.features lists series features; kernel_sections_normalized mode takes test.r"
        )
    if config.command == "test" and mode != "series_features" and "r1" not in config.kernels:
        raise ConfigError(f"instrument mode {mode!r} needs kernels.r1")
    if config.test.r is not None:
        _check_count(config.test.r, "test.r")
    _check_count(config.test.null_draws, "test.null_draws")
    if config.test.proj_rho is not None:
        _check_real(config.test.proj_rho, "test.proj_rho")
    _expand_feature_ranges(config.test.features)
    _check_count(config.threads, "threads")
    _check_fit_settings(config.fit, "fit.")
    for key, allowed in (("norm", ("lk", "hk")), ("solver", ("greedy", "ridge_closed_form"))):
        if (value := getattr(config.fit, key)) not in allowed:
            raise ConfigError(f"fit.{key} must be one of {allowed}, got {value!r}")
    if not ((budget := config.fit.budget) is None or (type(budget) in (int, float) and 0 < budget < np.inf)):
        raise ConfigError(f"fit.budget must be null or finite and positive, got {budget!r}")


def resolved_config_yaml(config: RunConfig) -> str:
    """Echo the fully resolved config as YAML (round-trips via parse_config)."""
    payload = asdict(config)

    def _plain(value):
        if isinstance(value, tuple):
            return [_plain(v) for v in value]
        if isinstance(value, dict):
            return {k: _plain(v) for k, v in value.items()}
        return value

    return yaml.safe_dump(_plain(payload), sort_keys=True)


@dataclass
class Dataset:
    """Numeric regression dataset read from CSV."""

    y: np.ndarray
    x: np.ndarray
    response_name: str
    covariate_names: tuple[str, ...]


def ingest_csv(path, response: str | None = None, covariates=None) -> Dataset:
    """Read a rectangular numeric CSV with a header row.

    The response defaults to the first column and the covariates to all
    remaining columns.  Rows with missing/NaN cells are fatal and reported
    by row number.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(row)} cells, expected {len(header)})"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric cell {cell!r} in column "
                        f"{name!r} at line {lineno}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    bad = np.where(~np.isfinite(data).all(axis=1))[0]
    if bad.size:
        listed = ", ".join(str(i + 2) for i in bad[:10])
        raise ValueError(f"{path}: rows with missing values at lines {listed}")

    response = response or header[0]
    if response not in header:
        raise ValueError(f"{path}: response column {response!r} not found")
    if covariates is None:
        covariates = tuple(h for h in header if h != response)
    else:
        covariates = tuple(covariates)
        for name in covariates:
            if name not in header:
                raise ValueError(f"{path}: covariate column {name!r} not found")
    return Dataset(
        y=data[:, header.index(response)],
        x=data[:, [header.index(c) for c in covariates]],
        response_name=response,
        covariate_names=covariates,
    )


def _model_record(model: AdditiveModel) -> dict:
    record = {
        "norm_hk": model.norm_hk,
        "norm_lk": model.norm_lk,
        "ridge_rho": model.ridge_rho,
        "budget": model.budget,
        "budget_binding": model.budget_binding,
        "representation": model.representation,
    }
    if model.representation == "representer":
        record["coeffs"] = [float(a) for a in model.coeffs[0]]
        record["anchors"] = [[float(v) for v in row] for row in model.anchors]
        return record
    # series: one row of V_t feature coefficients per term; representer_greedy:
    # one row of T term weights per anchor
    rows = model.coeffs if model.representation == "series" else np.column_stack(model.coeffs)
    record["coeffs"] = [[float(v) for v in row] for row in rows]
    record["norm_kind"] = model.norm_kind
    record["trace"] = {f.name: getattr(model.trace, f.name).tolist() for f in fields(GreedyTrace)}
    return record


def _test_result_csv(result: TestResult) -> str:
    floats = (result.statistic, result.p_value, result.naive_statistic, result.naive_p_value)
    row = [*map(repr, floats), str(result.r_count), repr(result.proj_rho)]
    return "statistic,p_value,naive_statistic,naive_p_value,r,proj_rho\n" + ",".join(row) + "\n"


def emit_results(result, out_dir, config: RunConfig | None = None) -> list[Path]:
    """Write a result to files (CSV, aligned text and structured record).

    Output is byte-stable given identical inputs; the resolved config echo
    is written alongside when provided.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name: str, text: str):
        target = out / name
        target.write_text(text)
        written.append(target)

    if isinstance(result, RejectionTable):
        _write("rejections.csv", result.to_csv())
        _write("rejections.txt", result.to_text())
    elif isinstance(result, TestResult):
        _write("test_result.csv", _test_result_csv(result))
        _write("test_result.txt", result.to_text())
        _write(
            "test_result.json",
            json.dumps(result.to_record(), indent=2, sort_keys=True) + "\n",
        )
    elif isinstance(result, AdditiveModel):
        _write(
            "model.json",
            json.dumps(_model_record(result), indent=2, sort_keys=True) + "\n",
        )
    else:
        raise TypeError(f"cannot emit result of type {type(result).__name__}")
    if config is not None:
        _write("config.yaml", resolved_config_yaml(config))
    return written


def _build_fit_config(config: RunConfig, y: np.ndarray) -> FitConfig:
    settings = config.fit
    budget = settings.budget
    if budget is None:
        budget = settings.budget_multiplier * float(np.std(y))
    return FitConfig(
        budget=budget,
        norm_kind=settings.norm,
        solver=settings.solver,
        iterations=settings.iterations,
        step_rule=settings.step_rule,
    )


def _expand_feature_ranges(ranges) -> tuple[tuple[int, int], ...]:
    """The (coord, order) pairs of the ``test.features`` ranges [coord, lo, hi]."""
    if not isinstance(ranges, tuple):
        raise ConfigError(f"test.features must be a list of [coord, lo, hi] ranges, got {ranges!r}")
    top = _SERIES_BASIS.n_terms
    pairs = []
    for item in ranges:
        ints = isinstance(item, tuple) and len(item) == 3 and all(type(v) is int for v in item)
        if not ints or item[0] < 0 or not 1 <= item[1] <= item[2] <= top:
            shown = list(item) if isinstance(item, tuple) else item
            raise ConfigError(f"test.features entry {shown!r} must be [coord, lo, hi], integers "
                              f"with coord >= 0 and 1 <= lo <= hi <= {top}")
        coord, lo, hi = item
        pairs.extend((coord, v) for v in range(lo, hi + 1))
    return tuple(pairs)


def _plan_from_config(config: RunConfig) -> HypothesisPlan:
    r0 = kernel_from_config(config.kernels["r0"])
    r1 = kernel_from_config(config.kernels["r1"]) if "r1" in config.kernels else None
    settings = config.test
    if settings.instrument_mode == "series_features":
        if not settings.features:
            raise ConfigError("series_features mode needs test.features ranges")
        instruments = SeriesInstrumentPlan(test_pairs=_expand_feature_ranges(settings.features))
    else:
        instruments = SectionInstrumentPlan(count=settings.r)
    return HypothesisPlan(name="config", r0=r0, r1=r1, instruments=instruments)


def _run_fit(config: RunConfig) -> list[Path]:
    data = ingest_csv(config.data.path, config.data.response, config.data.covariates)
    loss = loss_by_name(config.loss)
    fit_config = _build_fit_config(config, data.y)
    kernel = kernel_from_config(config.kernels["r0"])
    model = _fit_by_solver(kernel, data.x, data.y, loss, fit_config)
    return emit_results(model, config.out, config)


def _run_test(config: RunConfig) -> list[Path]:
    data = ingest_csv(config.data.path, config.data.response, config.data.covariates)
    loss = loss_by_name(config.loss)
    fit_config = _build_fit_config(config, data.y)
    plan = _plan_from_config(config)
    result = run_test(
        data.x,
        data.y,
        plan,
        loss,
        fit_config,
        proj_rho=config.test.proj_rho,
        n_draws=config.test.null_draws,
        rng=config.seed if config.seed is not None else 0,
    )
    return emit_results(result, config.out, config)


def _study(config: RunConfig) -> McConfig:
    """The Monte Carlo study of a simulate config."""
    sim = config.simulate
    k = 2 if sim.design == "Bivariate" else sim.k
    return McConfig(
        dgp=DgpSpec(
            design=sim.design,
            n=sim.n,
            n_covariates=k,
            pair_corr=sim.pair_corr,
            corr_shape=sim.corr_shape,
            snr=sim.snr,
            truncation=sim.truncation,
        ),
        null_hypothesis=sim.null,
        replicates=sim.replicates,
        sizes=sim.sizes,
        master_seed=config.seed,
        proj_rho=sim.proj_rho,
        null_draws=sim.null_draws,
        instrument_count=sim.instrument_count,
        iterations=sim.iterations,
        step_rule=sim.step_rule,
        budget_multiplier=sim.budget_multiplier,
    )


def _run_simulate(config: RunConfig) -> list[Path]:
    table = run_monte_carlo(_study(config), n_jobs=config.threads)
    return emit_results(table, config.out, config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhstest",
        description=(
            "Constrained additive-model estimation in RKHS and specification "
            "tests with nuisance-orthogonalized instruments"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("fit", "fit a constrained model to a CSV dataset"),
        ("test", "run a specification test on a CSV dataset"),
        ("simulate", "run a Monte Carlo size/power study"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed (overrides config)")
        p.add_argument("--replicates", type=int, help="simulate: replicate count")
        p.add_argument("--threads", type=int, help="simulate: worker processes")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(
            None if args.config is None else Path(args.config).read_text(),
            command=args.command,
            overrides={"out": args.out, "seed": args.seed, "threads": args.threads},
        )
        if args.replicates is not None:
            config = replace(
                config, simulate=replace(config.simulate, replicates=args.replicates)
            )
            _validate(config)
        runner = {"fit": _run_fit, "test": _run_test, "simulate": _run_simulate}
        written = runner[config.command](config)
        for path in written:
            print(path)
        return 0
    except Exception as exc:  # noqa: BLE001 - single machine-parsable error line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
