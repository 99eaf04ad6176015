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
import numbers
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .estimators import FitConfig, _check_schedule
from .inference import (
    HypothesisPlan,
    SectionInstrumentPlan,
    SeriesInstrumentPlan,
    _SERIES_BASIS,
    _monte_carlo_se,
    run_test,
)
from .kernels import CompositeKernel, ConstantKernel, GaussianRBF, LinearKernel
from .kernels import _check_count, _check_real
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

# design -> (fewest, most) covariates its mean function reads
_DESIGN_COVARIATES = {
    "Lin3": (3, math.inf), "LinAll": (1, math.inf), "NonLinear": (4, math.inf), "Bivariate": (2, 2)
}
DESIGNS = tuple(_DESIGN_COVARIATES)
HYPOTHESES = ("Lin1", "Lin2", "Lin3", "LinAll", "LinPoly", "Lin1NonLin", "BivLinAll")

_TRUNC = 2.0
_TRUNCATIONS = ("clip", "resample")


def _correlation_matrix(k: int, pair_corr: float, shape: str) -> np.ndarray:
    if not (isinstance(pair_corr, numbers.Real) and -1.0 < pair_corr < 1.0):
        raise ValueError(f"pair_corr must lie in (-1, 1), got {pair_corr!r}")
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
    raise ValueError(f"unknown corr_shape {shape!r}; expected 'geometric' or 'equi'")


def _check_truncation(mode: str) -> None:
    if mode not in _TRUNCATIONS:
        raise ValueError(f"unknown truncation {mode!r}; expected one of {_TRUNCATIONS}")


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
    _check_truncation(truncation)
    rng = np.random.default_rng(rng)
    corr = _correlation_matrix(k, pair_corr, corr_shape)
    chol = np.linalg.cholesky(corr + 1e-14 * np.eye(k))
    x = rng.standard_normal((n, k)) @ chol.T
    if truncation == "clip":
        return np.clip(x, -_TRUNC, _TRUNC)
    bad = np.any(np.abs(x) > _TRUNC, axis=1)
    while np.any(bad):
        x[bad] = rng.standard_normal((int(bad.sum()), k)) @ chol.T
        bad = np.any(np.abs(x) > _TRUNC, axis=1)
    return x


def _check_covariates(design: str, k) -> None:
    """Reject a covariate count ``k`` that the design's mean function cannot use."""
    if design not in DESIGNS:
        raise ValueError(f"unknown design {design!r}; expected one of {DESIGNS}")
    _check_count(k, "n_covariates")
    fewest, most = _DESIGN_COVARIATES[design]
    if not fewest <= k <= most:
        bound = "exactly" if fewest == most else "at least"
        raise ValueError(f"{design} needs {bound} {fewest} covariates, got {k}")


def _mu_values(x: np.ndarray, design: str, rng) -> np.ndarray:
    n, k = x.shape
    _check_covariates(design, k)
    if design == "Lin3":
        return x[:, :3] @ np.full(3, 1.0 / 3.0)
    if design == "LinAll":
        return x @ np.full(k, 1.0 / k)
    if design == "NonLinear":
        orders = np.arange(1, 10)
        coeffs = rng.uniform(-20.0 / orders, 20.0 / orders)
        half = x[:, 3] / 2.0
        return x[:, 0] + np.polyval(np.append(coeffs[::-1], 0.0), half)
    x1, x2 = x[:, 0], x[:, 1]  # Bivariate
    return 0.5 * x1 + 1.5 * x2 - 4.0 * x2**2 + 3.0 * x2**3


def gen_response(
    x: np.ndarray, design: str, snr: float, rng=None
) -> tuple[np.ndarray, float, np.ndarray]:
    """Response y = mu(X) + eps with sample Var(mu)/Var(eps) = snr exactly.

    For the Bivariate design the noise is standard normal and the signal is
    rescaled instead; either way the per-replicate ratio of the sample
    signal variance to the noise variance equals ``snr``.  Returns
    (y, noise_sd, mu_values).
    """
    _check_real(snr, "snr", positive=True)
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


def _series_plan(name: str, j: int, t: int, k: int) -> HypothesisPlan:
    """r0 linear in coordinates 0..j-1 and the series basis on t..k-1; the
    alternative r1 is the series basis on the tested coordinates 0..t-1."""
    r0 = CompositeKernel(
        tuple((LinearKernel(), (c,)) for c in range(j))
        + tuple((_SERIES_BASIS, (c,)) for c in range(t, k))
    )
    # the alternative space is the additive polynomial space on the tested
    # coordinates minus the linear span of the first j coordinates: higher
    # orders there, all orders elsewhere
    test_pairs = tuple(
        (c, v)
        for c in range(t)
        for v in range(2 if c < j else 1, _SERIES_BASIS.n_terms + 1)
    )
    return HypothesisPlan(
        name=name,
        r0=r0,
        r1=CompositeKernel(tuple((_SERIES_BASIS, (c,)) for c in range(t))),
        instruments=SeriesInstrumentPlan(test_pairs=test_pairs),
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
        return _series_plan(hypothesis, j, k, k)
    if hypothesis == "LinPoly":
        return _series_plan(hypothesis, 1, 1, k)
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
        _check_covariates(self.design, self.n_covariates)
        _check_count(self.n, "n")
        _correlation_matrix(self.n_covariates, self.pair_corr, self.corr_shape)
        _check_real(self.snr, "snr", positive=True)
        _check_truncation(self.truncation)


def _check_fit_settings(settings, prefix: str = "") -> None:
    """Reject a step rule, iteration count or budget multiplier that no fit can
    use; ``settings`` is a study's config or the CLI's fit or simulate section."""
    _check_schedule(settings, prefix)
    _check_real(settings.budget_multiplier, f"{prefix}budget_multiplier", positive=True)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo study configuration."""

    dgp: DgpSpec
    null_hypothesis: str
    replicates: int
    sizes: tuple[float, ...] = (0.10, 0.05)
    master_seed: int = 0
    # None: n times n^(-0.4), or the ridge fit's own multiplier on a section null
    proj_rho: float | None = None
    null_draws: int = 10_000
    instrument_count: int | None = None
    iterations: int = 500
    step_rule: str = "line_search"
    budget_multiplier: float = 10.0
    solver: str = "auto"  # auto: greedy for series designs, ridge for section designs

    def __post_init__(self):
        _check_count(self.replicates, "replicates")
        if self.null_hypothesis not in HYPOTHESES:
            raise ValueError(
                f"unknown hypothesis {self.null_hypothesis!r}; expected one of {HYPOTHESES}")
        if self.solver not in ("auto", "greedy", "ridge"):
            raise ValueError("solver must be auto, greedy or ridge")
        _check_fit_settings(self)
        k = self.dgp.n_covariates
        plan = null_kernel_for(self.null_hypothesis, k)
        reach = max(max(sel) for kern in (plan.r0, plan.r1) for _, sel in kern.terms if sel)
        if reach >= k:
            raise ValueError(
                f"null {self.null_hypothesis} needs at least {reach + 1} covariates, got {k}"
            )
        series = isinstance(plan.instruments, SeriesInstrumentPlan)
        if series and self.instrument_count is not None:
            raise ValueError(
                f"instrument_count counts kernel sections; {self.null_hypothesis} tests series"
            )
        if self.instrument_count is not None:
            _check_count(self.instrument_count, "the instrument count")
        _check_count(self.null_draws, "null_draws")
        if self.proj_rho is not None:
            _check_real(self.proj_rho, "projection penalty")
        if not isinstance(self.sizes, (tuple, list)):
            raise ValueError(f"sizes must be a list of nominal sizes, got {self.sizes!r}")
        for size in self.sizes:
            _check_real(size, "nominal size")
        if not all(0.0 < s < 1.0 for s in self.sizes):
            raise ValueError("nominal sizes must lie in (0, 1)")
        object.__setattr__(self, "sizes", tuple(float(s) for s in self.sizes))


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


REJECTION_CSV_HEADER = ",".join(f.name for f in fields(RejectionRow))


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
        return _replicate_outcome(config, rep), None
    except Exception as exc:  # noqa: BLE001 - replicate failures are tallied
        return None, f"replicate {rep}: {type(exc).__name__}: {exc}"


def _openblas_thread_controls() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(library name, get, set) thread-count functions of numpy's bundled OpenBLAS.

    rkhstest imports no scipy and computes only with numpy's BLAS
    (``np.linalg`` and matmul), so it maps no OpenBLAS but numpy's.  Opening
    an already loaded library by its path returns that library, so the
    functions act on the copy the process holds.  Empty when numpy bundles
    none (a system or vendor BLAS).
    """
    controls = []
    libs = Path(np.__file__).parent.parent / "numpy.libs"
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


@contextmanager
def _one_blas_thread_in_parent():
    """Set numpy's OpenBLAS to one thread inside the block, then restore each
    saved count, also when the block raises.

    A worker forked inside the block inherits the count of 1, so it never
    starts an OpenBLAS thread of its own.
    """
    controls = _openblas_thread_controls()
    saved = [get() for _, get, _ in controls]
    try:
        for _, _, put in controls:
            put(1)
        yield
    finally:
        for (_, _, put), count in zip(controls, saved):
            put(count)


def _one_blas_thread() -> None:
    """Pool initializer: one BLAS thread per worker, so n_jobs workers run
    n_jobs threads rather than n_jobs times the default.

    A forked worker already inherits a count of 1 and is left alone: setting
    it again would restart OpenBLAS's thread pool in the child, whose idle
    thread then spins on a core.  Only a worker started by spawn or
    forkserver, which loads OpenBLAS at its default count, is set here.
    """
    for _, get, put in _openblas_thread_controls():
        if get() != 1:
            put(1)


def run_monte_carlo(config: McConfig, n_jobs: int = 1) -> RejectionTable:
    """Run the study and tabulate rejection frequencies per nominal size.

    Replicate r draws all randomness from a stream keyed by
    (master_seed, r), so the table is identical however the replicates are
    scheduled.  Failed replicates are counted and reported, never silently
    dropped.  With ``n_jobs > 1`` the parent sets numpy's OpenBLAS to one
    thread while the pool lives, so forked workers inherit that count, and
    restores its counts when the pool is done or raises; meanwhile any other
    thread of the parent runs BLAS on one thread too.  The serial path does
    the same while it runs when the null kernel r0 has a feature map: its
    SVDs gain nothing from BLAS threads, and no idle OpenBLAS thread is left
    spinning on the core each test's helper thread draws the uncorrected
    null on.  A Gram-only r0 keeps the process's BLAS threads for its
    n x n ``eigh``.
    """
    jobs = [(config, rep) for rep in range(config.replicates)]
    if n_jobs > 1:
        with _one_blas_thread_in_parent(), ProcessPoolExecutor(
            max_workers=n_jobs, initializer=_one_blas_thread
        ) as pool:
            outcomes = list(pool.map(_replicate_safe, jobs, chunksize=1))
    else:
        k = config.dgp.n_covariates
        r0 = null_kernel_for(config.null_hypothesis, k).r0
        feature_map = r0.feature_matrix(np.zeros((1, k))) is not None
        with _one_blas_thread_in_parent() if feature_map else nullcontext():
            outcomes = [_replicate_safe(job) for job in jobs]
    # pool.map, like the loop, returns the replicates in order
    messages = [err for _, err in outcomes if err is not None]
    done = [outcome for outcome, err in outcomes if err is None]
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
                mc_se=_monte_carlo_se(freq_pi, good),
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
