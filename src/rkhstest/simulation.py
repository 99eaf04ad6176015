"""Data-generating processes and Monte Carlo size/power studies.

Covariates are correlated truncated Gaussians on [-2, 2]; responses follow
one of four regression designs with noise scaled to a target signal-to-noise
ratio.  ``run_monte_carlo`` replays a hypothesis test over independent
replicates (each with its own seeded stream) and tabulates rejection
frequencies for the corrected and uncorrected statistics.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .estimators import FitConfig
from .inference import (
    HypothesisPlan,
    SectionInstrumentPlan,
    SeriesInstrumentPlan,
    run_test,
)
from .kernels import (
    CompositeKernel,
    ConstantKernel,
    GaussianRBF,
    LinearKernel,
    polynomial_series,
)
from .losses import rescaled_square_loss

__all__ = [
    "DESIGNS",
    "HYPOTHESES",
    "DgpSpec",
    "McConfig",
    "RejectionRow",
    "RejectionTable",
    "gen_covariates",
    "gen_response",
    "null_kernel_for",
    "run_monte_carlo",
    "REJECTION_CSV_HEADER",
]

DESIGNS = ("Lin3", "LinAll", "NonLinear", "Bivariate")
HYPOTHESES = ("Lin1", "Lin2", "Lin3", "LinAll", "LinPoly", "Lin1NonLin", "BivLinAll")

_TRUNC = 2.0
# series designs: monomials 1.._SERIES_TERMS with polynomial_series' weights v^(-2.2)
_SERIES_TERMS = 10


def _correlation_matrix(k: int, pair_corr: float, shape: str) -> np.ndarray:
    if not -1.0 < pair_corr < 1.0:
        raise ValueError("pair correlation must lie in (-1, 1)")
    if shape == "geometric":
        idx = np.arange(k)
        return pair_corr ** np.abs(idx[:, None] - idx[None, :])
    if shape == "equi":
        if k > 1 and pair_corr < -1.0 / (k - 1):
            raise ValueError(
                f"equicorrelation {pair_corr} is not positive semi-definite "
                f"for K={k} (needs >= {-1.0 / (k - 1):.4f})"
            )
        return np.full((k, k), pair_corr) + (1.0 - pair_corr) * np.eye(k)
    raise ValueError(f"unknown correlation shape {shape!r}")


def gen_covariates(
    n: int,
    k: int,
    pair_corr: float,
    corr_shape: str = "geometric",
    rng=None,
    truncation: str = "clip",
) -> np.ndarray:
    """Correlated standard normal covariates truncated to [-2, 2].

    ``truncation='clip'`` sets exceedances to the boundary; ``'resample'``
    redraws offending rows until all coordinates fall inside the box.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    corr = _correlation_matrix(k, pair_corr, corr_shape)
    chol = np.linalg.cholesky(corr + 1e-14 * np.eye(k))
    x = rng.standard_normal((n, k)) @ chol.T
    if truncation == "clip":
        return np.clip(x, -_TRUNC, _TRUNC)
    if truncation == "resample":
        bad = np.any(np.abs(x) > _TRUNC, axis=1)
        while np.any(bad):
            x[bad] = rng.standard_normal((int(bad.sum()), k)) @ chol.T
            bad = np.any(np.abs(x) > _TRUNC, axis=1)
        return x
    raise ValueError(f"unknown truncation mode {truncation!r}")


def _mu_values(x: np.ndarray, design: str, rng) -> np.ndarray:
    n, k = x.shape
    if design == "Lin3":
        if k < 3:
            raise ValueError("Lin3 needs at least 3 covariates")
        return x[:, :3] @ np.full(3, 1.0 / 3.0)
    if design == "LinAll":
        return x @ np.full(k, 1.0 / k)
    if design == "NonLinear":
        if k < 4:
            raise ValueError("NonLinear needs at least 4 covariates")
        orders = np.arange(1, 10)
        coeffs = rng.uniform(-20.0 / orders, 20.0 / orders)
        half = x[:, 3] / 2.0
        return x[:, 0] + np.polyval(np.append(coeffs[::-1], 0.0), half)
    if design == "Bivariate":
        if k != 2:
            raise ValueError("Bivariate needs exactly 2 covariates")
        x1, x2 = x[:, 0], x[:, 1]
        return 0.5 * x1 + 1.5 * x2 - 4.0 * x2**2 + 3.0 * x2**3
    raise ValueError(f"unknown design {design!r}; expected one of {DESIGNS}")


def gen_response(
    x: np.ndarray, design: str, snr: float, rng=None
) -> tuple[np.ndarray, float, np.ndarray]:
    """Response y = mu(X) + eps with sample Var(mu)/Var(eps) = snr exactly.

    For the Bivariate design the noise is standard normal and the signal is
    rescaled instead; either way the per-replicate ratio of the sample
    signal variance to the noise variance equals ``snr``.  Returns
    (y, noise_sd, mu_values).
    """
    if snr <= 0:
        raise ValueError("signal-to-noise ratio must be positive")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    x = np.asarray(x, dtype=float)
    mu = _mu_values(x, design, rng)
    var_mu = float(np.var(mu))
    if var_mu <= 0:
        raise ValueError(f"degenerate design {design}: zero-variance signal")
    if design == "Bivariate":
        noise_sd = 1.0
        mu = mu * math.sqrt(snr / var_mu)
    else:
        noise_sd = math.sqrt(var_mu / snr)
    y = mu + noise_sd * rng.standard_normal(x.shape[0])
    return y, noise_sd, mu


def _lin_j_plan(name: str, j: int, k: int) -> HypothesisPlan:
    base = polynomial_series(_SERIES_TERMS)
    r0 = CompositeKernel(tuple((LinearKernel(), (c,)) for c in range(j)))
    r1_terms = tuple((base, (c,)) for c in range(k))
    # the alternative space is the full additive polynomial space minus the
    # linear span of the first j coordinates: higher orders there, all
    # orders elsewhere
    test_pairs = tuple(
        (c, v)
        for c in range(k)
        for v in range(2 if c < j else 1, _SERIES_TERMS + 1)
    )
    return HypothesisPlan(
        name=name,
        r0=r0,
        r1=CompositeKernel(r1_terms),
        instruments=SeriesInstrumentPlan(kernel=base, test_pairs=test_pairs),
    )


def _lin_poly_plan(k: int) -> HypothesisPlan:
    base = polynomial_series(_SERIES_TERMS)
    r0 = CompositeKernel(
        ((LinearKernel(), (0,)),)
        + tuple((base, (c,)) for c in range(1, k))
    )
    test_pairs = tuple((0, v) for v in range(2, _SERIES_TERMS + 1))
    return HypothesisPlan(
        name="LinPoly",
        r0=r0,
        r1=CompositeKernel(((base, (0,)),)),
        instruments=SeriesInstrumentPlan(kernel=base, test_pairs=test_pairs),
    )


def _bivariate_plans(name: str) -> HypothesisPlan:
    # the printed Gaussian factors of these kernels carry a positive sign in
    # places, which is not positive semi-definite; the negative-sign form is
    # used throughout and echoed in run configs
    rbf = lambda coords: (GaussianRBF(lengthscale=0.75, scale=0.5), coords)
    linear_part = (
        (ConstantKernel(0.5), None),
        (LinearKernel(0.5), (0, 1)),
    )
    if name == "Lin1NonLin":
        terms = linear_part + (rbf((1,)),)
        r1 = CompositeKernel((rbf((0,)),))
    else:  # BivLinAll
        terms = linear_part
        r1 = CompositeKernel((rbf((0, 1)),))
    return HypothesisPlan(
        name=name,
        r0=CompositeKernel(terms),
        r1=r1,
        instruments=SectionInstrumentPlan(count=None),
    )


def null_kernel_for(hypothesis: str, k: int = 10) -> HypothesisPlan:
    """Hypothesis registry: null and alternative kernels and instruments.

    Lin1/Lin2/Lin3/LinAll restrict the model to a linear function of the
    first 1/2/3/K covariates against the additive polynomial alternative;
    LinPoly keeps the first coordinate linear with the others unrestricted;
    Lin1NonLin and BivLinAll are the bivariate designs tested through
    normalized kernel sections.  Every plan projects off span(r0).
    """
    if hypothesis in ("Lin1", "Lin2", "Lin3", "LinAll"):
        j = {"Lin1": 1, "Lin2": 2, "Lin3": 3, "LinAll": k}[hypothesis]
        return _lin_j_plan(hypothesis, j, k)
    if hypothesis == "LinPoly":
        return _lin_poly_plan(k)
    if hypothesis in ("Lin1NonLin", "BivLinAll"):
        return _bivariate_plans(hypothesis)
    raise ValueError(
        f"unknown hypothesis {hypothesis!r}; expected one of {HYPOTHESES}"
    )


@dataclass(frozen=True)
class DgpSpec:
    """One data-generating configuration."""

    design: str
    n: int
    n_covariates: int = 10
    pair_corr: float = 0.0
    corr_shape: str = "geometric"
    snr: float = 1.0
    truncation: str = "clip"

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}")
        if self.n < 1:
            raise ValueError("sample size must be positive")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo study configuration."""

    dgp: DgpSpec
    null_hypothesis: str
    replicates: int
    sizes: tuple[float, ...] = (0.10, 0.05)
    master_seed: int = 0
    proj_rho: float | None = None  # None applies the default decay rule
    covariance: str = "product_form"
    null_draws: int = 10_000
    instrument_count: int | None = None
    iterations: int = 500
    step_rule: str = "line_search"
    budget_multiplier: float = 10.0
    solver: str = "auto"  # auto: greedy for series designs, ridge for section designs

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.null_hypothesis not in HYPOTHESES:
            raise ValueError(f"unknown hypothesis {self.null_hypothesis!r}")
        if self.solver not in ("auto", "greedy", "ridge"):
            raise ValueError("solver must be auto, greedy or ridge")
        if not all(0.0 < s < 1.0 for s in self.sizes):
            raise ValueError("nominal sizes must lie in (0, 1)")
        object.__setattr__(self, "sizes", tuple(float(s) for s in self.sizes))


REJECTION_CSV_HEADER = (
    "design,null,n,rho,snr,size,freq_no_pi,freq_pi,mc_se,replicates"
)


@dataclass(frozen=True)
class RejectionRow:
    design: str
    null: str
    n: int
    rho: float
    snr: float
    size: float
    freq_no_pi: float
    freq_pi: float
    mc_se: float
    replicates: int


@dataclass
class RejectionTable:
    """Rejection frequencies per nominal size, plus run bookkeeping.

    The per-replicate arrays hold, in replicate order, the corrected and
    uncorrected p-values and the restricted-fit diagnostics of
    :class:`~rkhstest.inference.TestResult` for every replicate that ran;
    failed replicates are absent from them and counted in ``errors``.
    """

    rows: list[RejectionRow]
    errors: int = 0
    error_messages: list[str] = field(default_factory=list)
    p_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    naive_p_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    budget_binding: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    residual_null_scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_csv(self) -> str:
        lines = [REJECTION_CSV_HEADER]
        for row in self.rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in astuple(row)))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (
            f"{'design':<10}{'null':<11}{'n':>6}{'rho':>6}{'snr':>6}"
            f"{'size':>7}{'No-Pi':>8}{'Pi':>8}{'mc se':>8}{'reps':>7}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.design:<10}{r.null:<11}{r.n:>6}{r.rho:>6.2f}{r.snr:>6.2f}"
                f"{r.size:>7.2f}{r.freq_no_pi:>8.3f}{r.freq_pi:>8.3f}"
                f"{r.mc_se:>8.3f}{r.replicates:>7}"
            )
        if self.errors:
            lines.append(f"failed replicates: {self.errors}")
        return "\n".join(lines) + "\n"


def _replicate_outcome(config: McConfig, rep: int) -> tuple[float, float, bool, float]:
    """(p-value, naive p-value, budget binding, residual null score) of one
    seeded replicate."""
    dgp = config.dgp
    rng = np.random.default_rng([config.master_seed, rep])
    x = gen_covariates(
        dgp.n,
        dgp.n_covariates,
        dgp.pair_corr,
        dgp.corr_shape,
        rng,
        dgp.truncation,
    )
    y, _, _ = gen_response(x, dgp.design, dgp.snr, rng)
    plan = null_kernel_for(config.null_hypothesis, k=dgp.n_covariates)
    budget = config.budget_multiplier * float(np.std(y))
    if config.solver == "auto":
        # restricted fits are greedy for the series designs and closed-form
        # ridge for the section (bivariate) designs
        use_greedy = isinstance(plan.instruments, SeriesInstrumentPlan)
    else:
        use_greedy = config.solver == "greedy"
    fit_config = FitConfig(
        budget=budget,
        norm_kind="lk",
        solver="greedy" if use_greedy else "ridge_closed_form",
        iterations=config.iterations,
        step_rule=config.step_rule,
    )
    result = run_test(
        x,
        y,
        plan,
        rescaled_square_loss(),
        fit_config,
        proj_rho=config.proj_rho,
        covariance=config.covariance,
        n_draws=config.null_draws,
        rng=rng,
        instrument_count=config.instrument_count,
    )
    return (
        result.p_value,
        result.naive_p_value,
        result.budget_binding,
        result.residual_null_score,
    )


def _replicate_safe(args):
    config, rep = args
    try:
        return rep, _replicate_outcome(config, rep), None
    except Exception as exc:  # noqa: BLE001 - replicate failures are tallied
        return rep, None, f"replicate {rep}: {type(exc).__name__}: {exc}"


def _openblas_thread_controls() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(library name, get, set) thread-count functions of each bundled OpenBLAS.

    The numpy and scipy wheels each bundle their own OpenBLAS: numpy's runs
    ``np.linalg`` and matmul, scipy's runs ``scipy.linalg``.  Opening an
    already loaded library by its path returns that library, so the
    functions act on the copies the process computes with.  Empty when the
    packages bundle none (a system or vendor BLAS).
    """
    controls = []
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((lib.name, get, put))
                    break
    return controls


def _blas_thread_counts() -> dict[str, int]:
    """Thread count of each bundled OpenBLAS, by library name."""
    return {name: int(get()) for name, get, _ in _openblas_thread_controls()}


def _one_blas_thread() -> None:
    """Pool initializer: one BLAS thread per worker, so n_jobs workers run
    n_jobs threads rather than n_jobs times the default."""
    for _, _, put in _openblas_thread_controls():
        put(1)


def run_monte_carlo(config: McConfig, n_jobs: int = 1) -> RejectionTable:
    """Run the study and tabulate rejection frequencies per nominal size.

    Replicate r draws all randomness from a stream keyed by
    (master_seed, r), so the table is identical however the replicates are
    scheduled.  Failed replicates are counted and reported, never silently
    dropped.  Pool workers run one BLAS thread each; the serial path keeps
    the process's BLAS threads.
    """
    jobs = [(config, rep) for rep in range(config.replicates)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs, initializer=_one_blas_thread) as pool:
            outcomes = list(pool.map(_replicate_safe, jobs, chunksize=1))
    else:
        outcomes = [_replicate_safe(job) for job in jobs]
    outcomes.sort(key=lambda item: item[0])

    messages = [err for _, _, err in outcomes if err is not None]
    done = [outcome for _, outcome, err in outcomes if err is None]
    good = len(done)
    if good == 0:
        raise RuntimeError(
            "all replicates failed; first error: "
            + (messages[0] if messages else "unknown")
        )
    pi, no_pi, binding, scores = (np.asarray(col) for col in zip(*done))
    rows = []
    for size in config.sizes:
        freq_pi = float(np.mean(pi <= size))
        freq_no_pi = float(np.mean(no_pi <= size))
        rows.append(
            RejectionRow(
                design=config.dgp.design,
                null=config.null_hypothesis,
                n=config.dgp.n,
                rho=config.dgp.pair_corr,
                snr=config.dgp.snr,
                size=size,
                freq_no_pi=freq_no_pi,
                freq_pi=freq_pi,
                mc_se=math.sqrt(freq_pi * (1.0 - freq_pi) / good),
                replicates=good,
            )
        )
    return RejectionTable(
        rows=rows,
        errors=len(messages),
        error_messages=messages[:20],
        p_values=pi,
        naive_p_values=no_pi,
        budget_binding=binding,
        residual_null_scores=scores,
    )
