"""Specification testing with nuisance-orthogonalized instruments.

The pipeline fits the restricted model, forms generalized residuals, builds
instrument columns from the alternative space, projects them to be (nearly)
orthogonal to the null space, and compares the quadratic moment statistic
against a simulated weighted chi-square null whose weights are eigenvalues
of the estimated instrument covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
import scipy.linalg

from .estimators import _EIG_CUTOFF, FitConfig, _fit_by_solver, gram_eigen
from .kernels import Kernel, SeriesKernel, _as_sample
from .losses import LossSpec

__all__ = [
    "default_projection_rho",
    "build_instruments",
    "series_feature_columns",
    "project_instruments",
    "project_on_features",
    "orthogonality_defect",
    "residual_null_score",
    "test_statistic",
    "covariance_estimate",
    "simulate_null",
    "p_value",
    "SeriesInstrumentPlan",
    "SectionInstrumentPlan",
    "HypothesisPlan",
    "TestResult",
    "run_test",
    "SCALING_NOTE",
]

SCALING_NOTE = (
    "statistic = (1/R) sum_r (n^{-1/2} e0'h_r)^2; the covariance estimate "
    "matches this root-n moment normalization"
)


def default_projection_rho(n: int) -> float:
    """Default decay rule n^(-0.4) for the projection penalty.

    This is the penalty entering the n-normalized projection objective; the
    matrix-form solve (C0 + rho S^{-1})^{-1} uses the unnormalized objective,
    so pipelines applying this rule pass ``n * default_projection_rho(n)``.
    """
    return float(n) ** (-0.4)


def series_feature_columns(
    x: np.ndarray, kernel: SeriesKernel, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Instrument columns lambda_v phi_v(x^(k)) for (coord, order) pairs.

    Each column has unit RKHS norm in the additive space generated by the
    series kernel.  Orders are 1-based.
    """
    x = _as_sample(x, None)
    cache: dict[int, np.ndarray] = {}
    cols = []
    for coord, order in pairs:
        if coord not in cache:
            cache[coord] = kernel.feature_matrix(x[:, coord])
        if not 1 <= order <= kernel.n_terms:
            raise ValueError(f"series order {order} outside 1..{kernel.n_terms}")
        cols.append(cache[coord][:, order - 1])
    return np.column_stack(cols)


def build_instruments(
    x,
    *,
    kernel: Kernel,
    anchor_indices=None,
) -> np.ndarray:
    """Raw instrument matrix (n, R) of normalized kernel sections.

    Column j is C_R1(X_i, Z_j) / sqrt(C_R1(Z_j, Z_j)) for the sample points
    Z = X[anchor_indices] (default: all points).  Series-feature instruments
    come from :func:`series_feature_columns`.
    """
    x = _as_sample(x, None)
    n = x.shape[0]
    idx = np.arange(n) if anchor_indices is None else np.asarray(anchor_indices)
    z = x[idx]
    diag = np.array([kernel.eval(z[r], z[r]) for r in range(z.shape[0])])
    if np.any(diag <= 0):
        raise ValueError("cannot normalize a section with C(z, z) <= 0")
    return kernel.gram(x, z) / np.sqrt(diag)[None, :]


def _check_penalty(proj_rho: float) -> None:
    if proj_rho < 0:
        raise ValueError("projection penalty must be nonnegative")


def _check_projection(s_diag, proj_rho: float) -> np.ndarray:
    """The weights as an array, after the checks every projection route shares."""
    s_diag = np.asarray(s_diag, dtype=float)
    if np.any(s_diag <= 0):
        raise ValueError("projection weights must be positive")
    _check_penalty(proj_rho)
    return s_diag


def project_instruments(
    c0: np.ndarray, s_diag, raw: np.ndarray, proj_rho: float
) -> np.ndarray:
    """Residualize instruments on the null-space Gram columns.

    For each column c the coefficient b minimizes
    (c - C0 b)' S (c - C0 b) + rho b' C0 b, i.e. b = (C0 + rho S^{-1})^{-1} c
    for rho > 0; rho = 0 removes the S-weighted projection onto the column
    space of C0, so the projected column is S-orthogonal to that space.
    Returns the projected (n, R) matrix.
    """
    c0 = np.asarray(c0, dtype=float)
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    s_diag = _check_projection(s_diag, proj_rho)
    if proj_rho == 0.0:
        # S^{1/2} C0 S^{1/2} spans S^{1/2} col(C0) on the scale of C0
        root = np.sqrt(s_diag)[:, None]
        return raw - gram_eigen(root * c0 * root.T).smooth(root * raw, 0.0) / root
    system = c0 + proj_rho * np.diag(1.0 / s_diag)
    coeff = scipy.linalg.solve(system, raw, assume_a="pos")
    return raw - c0 @ coeff


def project_on_features(
    basis: np.ndarray, s_diag, raw: np.ndarray, proj_rho: float
) -> np.ndarray:
    """Residualize instruments on the columns of a feature matrix F.

    The penalty acts on the squared coefficients.  With F F' = C0 this is
    :func:`project_instruments` on C0: the coefficients solve
    (F'SF + rho I) b = F'S c, so F b = S^{-1/2} K (K + rho I)^{-1} S^{1/2} c
    with K = S^{1/2} C0 S^{1/2}.  The thin SVD of S^{1/2} F gives the
    eigenpairs of K, so every rho costs O(n p^2) in place of an n x n solve.
    Returns the projected (n, R) matrix.
    """
    basis = np.asarray(basis, dtype=float)
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    root = np.sqrt(_check_projection(s_diag, proj_rho))[:, None]
    return raw - gram_eigen(None, root * basis).smooth(root * raw, proj_rho) / root


def orthogonality_defect(span: np.ndarray, s_diag, projected: np.ndarray) -> float:
    """max_r |span' S h_r| / |h_r|, the in-sample orthogonality diagnostic."""
    span = np.asarray(span, dtype=float)
    projected = np.atleast_2d(np.asarray(projected, dtype=float))
    weighted = projected * np.asarray(s_diag, dtype=float)[:, None]
    cross = span.T @ weighted
    num = np.linalg.norm(cross, axis=0)
    den = np.linalg.norm(projected, axis=0)
    den = np.where(den > 0, den, 1.0)
    return float(np.max(num / den)) if num.size else 0.0


def residual_null_score(span: np.ndarray, s_diag, e0: np.ndarray) -> float:
    """sqrt(n) max_k |phi_k' S e0| / (|phi_k| |e0|) over the null-span columns.

    At an unconstrained least-squares restricted fit the residual is
    S-orthogonal to the null span and the score is 0; for a residual
    unrelated to the span each term is of order one, the noise standard
    deviation of a root-n moment.  The score therefore says how far the
    uncorrected moment sits from that least-squares identity.  Zero columns
    and an all-zero residual contribute 0.
    """
    span = np.atleast_2d(np.asarray(span, dtype=float))
    e0 = np.asarray(e0, dtype=float)
    e_norm = float(np.linalg.norm(e0))
    col_norms = np.linalg.norm(span, axis=0)
    live = col_norms > 0
    if e_norm == 0.0 or not np.any(live):
        return 0.0
    cross = np.abs(span.T @ (np.asarray(s_diag, dtype=float) * e0))
    cosines = cross[live] / col_norms[live]
    return math.sqrt(e0.shape[0]) * float(np.max(cosines)) / e_norm


def test_statistic(e0: np.ndarray, instruments: np.ndarray) -> float:
    """Quadratic moment statistic (1/R) sum_r (n^{-1/2} e0'h_r)^2."""
    h = np.atleast_2d(np.asarray(instruments, dtype=float))
    e0 = np.asarray(e0, dtype=float)
    n, r = h.shape
    s = h.T @ e0 / math.sqrt(n)
    return float(s @ s) / r


def covariance_estimate(
    e0: np.ndarray,
    instruments: np.ndarray,
    s_diag=None,
    variant: str = "product_form",
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated covariance of the moment vector and its scaled spectrum.

    product_form: (n^{-1} e0'e0) * (n^{-1} H'H), the homoskedastic score
    estimator; pointwise: n^{-1} H' diag(S) H with the supplied weights.
    Returns (Sigma, spectrum) where the spectrum holds the eigenvalues of
    Sigma / R in descending order, clipped at zero.
    """
    h = np.atleast_2d(np.asarray(instruments, dtype=float))
    e0 = np.asarray(e0, dtype=float)
    n, r = h.shape
    if variant == "product_form":
        sigma = (float(e0 @ e0) / n) * (h.T @ h / n)
    elif variant == "pointwise":
        if s_diag is None:
            raise ValueError("pointwise variant needs the second-derivative weights")
        s_diag = np.asarray(s_diag, dtype=float)
        sigma = h.T @ (h * s_diag[:, None]) / n
    else:
        raise ValueError(f"unknown covariance variant {variant!r}")
    sigma = (sigma + sigma.T) / 2.0
    spectrum = np.linalg.eigvalsh(sigma / r)[::-1]
    return sigma, np.clip(spectrum, 0.0, None)


def simulate_null(spectrum, n_draws: int, rng) -> np.ndarray:
    """Draws of sum_k omega_k N_k^2 with independent standard normals.

    Deterministic given the generator state (or integer seed).  Weights at
    or below the rank cutoff (1e-12 of the top weight) are pure rounding and
    get no normal, so they cannot shift which normals the other weights
    receive.
    """
    omega = np.asarray(spectrum, dtype=float)
    if np.any(omega < 0):
        raise ValueError("spectrum weights must be nonnegative")
    if n_draws < 1:
        raise ValueError("need at least one draw")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    active = omega[omega > _EIG_CUTOFF * omega.max(initial=0.0)]
    if active.size == 0:
        return np.zeros(n_draws)
    out = np.empty(n_draws)
    chunk = max(1, int(4_000_000 // max(active.size, 1)))
    for start in range(0, n_draws, chunk):
        stop = min(start + chunk, n_draws)
        z = rng.standard_normal((stop - start, active.size))
        out[start:stop] = (z * z) @ active
    return out


def p_value(statistic: float, null_draws) -> float:
    """Monte Carlo p-value with the add-one convention, always positive."""
    draws = np.asarray(null_draws, dtype=float)
    if draws.size == 0:
        raise ValueError("null draws must be non-empty")
    if math.isnan(statistic):
        raise ValueError("the statistic is NaN, so it has no p-value")
    return float(1 + np.count_nonzero(draws >= statistic)) / (draws.size + 1)


@dataclass(frozen=True)
class SeriesInstrumentPlan:
    """Instruments given by series-feature columns, residualized on span(r0)."""

    kernel: SeriesKernel
    test_pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SectionInstrumentPlan:
    """Instruments given by normalized kernel sections at sample points.

    The sections are those of C_R0 + C_R1 (the homogeneous-test-function
    construction, which is what makes the uncorrected comparison columns
    meaningful, since raw sections then carry the large null-space
    components the projection strips), residualized on span(r0).
    """

    count: int | None = None  # None: one section per sample point


@dataclass(frozen=True)
class HypothesisPlan:
    """Everything a test run needs.

    The null kernel r0 alone defines the restricted fit and the nuisance
    span the instruments are projected off.
    """

    name: str
    r0: Kernel
    r1: Kernel | None
    instruments: SeriesInstrumentPlan | SectionInstrumentPlan


def _monte_carlo_se(p: float, draws: int) -> float:
    """Standard error sqrt(p(1-p)/B) of a p-value from B null draws."""
    return math.sqrt(p * (1.0 - p) / draws)


def _evenly_spaced_indices(n: int, count: int) -> np.ndarray:
    if count >= n:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, count)).astype(int))


@dataclass
class TestResult:
    """Outcome of one specification test, with the uncorrected companion.

    ``budget_binding`` reports whether the restricted fit sits on its norm
    budget.  ``residual_null_score`` is :func:`residual_null_score` of the
    generalized residuals against the null span: r0's feature columns, or
    the columns of its Gram when r0 has no feature map.  A non-binding fit
    with a score near 0 has reached the least-squares identity, under
    which the uncorrected test is conservative rather than liberal.
    ``to_record`` adds the Monte Carlo standard error of each p-value.
    """

    statistic: float
    spectrum: np.ndarray
    null_draws: np.ndarray
    p_value: float
    r_count: int
    scaling_note: str
    naive_statistic: float
    naive_spectrum: np.ndarray
    naive_null_draws: np.ndarray
    naive_p_value: float
    proj_rho: float
    proj_rho_rule: str
    orthogonality: float | None
    budget_binding: bool
    residual_null_score: float
    config: dict

    def to_record(self) -> dict:
        """Every field but the null draws, arrays as lists, plus the SEs."""
        record = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                if f.name.endswith("null_draws"):
                    continue
                value = value.tolist()
            record[f.name] = value
        for prefix in ("", "naive_"):
            draws = getattr(self, f"{prefix}null_draws").size
            record[f"{prefix}p_value_se"] = _monte_carlo_se(record[f"{prefix}p_value"], draws)
        return record

    def to_text(self) -> str:
        top = ", ".join(f"{w:.6g}" for w in self.spectrum[:5])
        lines = [
            f"{'statistic':<18}{self.statistic:.10g}",
            f"{'p-value':<18}{self.p_value:.6g}",
            f"{'instruments R':<18}{self.r_count}",
            f"{'top eigenvalues':<18}{top}",
            f"{'naive statistic':<18}{self.naive_statistic:.10g}",
            f"{'naive p-value':<18}{self.naive_p_value:.6g}",
            f"{'projection rho':<18}{self.proj_rho:.10g} ({self.proj_rho_rule})",
            f"{'scaling':<18}{self.scaling_note}",
        ]
        return "\n".join(lines) + "\n"


def _project_on_null(model, s_diag, raw, rho):
    """The instruments projected off span(r0) as the restricted fit built it, and that
    span: the fit's feature columns, or its Gram when r0 has no feature map.

    Feature columns go through :func:`project_on_features`.  A Gram goes
    through the ridge fit's eigenbasis when S is constant, else through
    :func:`project_instruments`.
    """
    s_diag = _check_projection(s_diag, rho)
    if model.features is not None:
        return project_on_features(model.features, s_diag, raw, rho), model.features
    if model.eigen is not None and np.all(s_diag == s_diag[0]):
        # with S = s I the penalized residual is raw - C0 (C0 + rho/s I)^{-1} raw
        return raw - model.eigen.smooth(raw, rho / float(s_diag[0])), model.gram
    return project_instruments(model.gram, s_diag, raw, rho), model.gram


def run_test(
    x,
    y,
    plan: HypothesisPlan,
    loss: LossSpec,
    fit_config: FitConfig,
    *,
    proj_rho: float | None = None,
    covariance: str = "product_form",
    n_draws: int = 10_000,
    rng=0,
    instrument_count: int | None = None,
    diagnostics: bool = False,
) -> TestResult:
    """Full testing pipeline for one dataset.

    Fits the restricted model, builds and projects instruments, computes the
    statistic and its estimated spectrum, and simulates the weighted
    chi-square null.  ``proj_rho`` is the penalty of the matrix-form
    projection solve; None applies the default decay rule (n times
    n^(-0.4)).  The uncorrected statistic (raw instruments in both the
    moment and the covariance) is always computed alongside.
    """
    if proj_rho is not None:
        _check_penalty(proj_rho)
    spec = plan.instruments
    series = isinstance(spec, SeriesInstrumentPlan)
    if series and instrument_count is not None:
        raise ValueError("instrument_count counts kernel sections; a series plan tests test_pairs")
    count = len(spec.test_pairs) if series else instrument_count
    if count is None:
        count = spec.count
    if count is not None and count < 1:
        raise ValueError(f"the instrument count must be at least 1, got {count}")
    if not series and plan.r1 is None:
        raise ValueError("kernel sections need the alternative kernel r1; the plan's r1 is None")
    x = _as_sample(x, None)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    model = _fit_by_solver(plan.r0, x, y, loss, fit_config)
    e0 = np.asarray(loss.deriv(1, y, model.fitted), dtype=float)
    if loss.smooth:
        s_diag = np.broadcast_to(
            np.asarray(loss.deriv(2, y, model.fitted), dtype=float), (n,)
        ).copy()
    else:
        s_diag = np.ones(n)

    if proj_rho is None:
        if model.representation == "representer" and not series:
            # couple the projection ridge to the fit's realized multiplier so
            # the projection removes exactly the directions the restricted
            # fit absorbs; the matrix solve shares one rho in both places
            rho = model.ridge_rho
            rho_rule = "fit-coupled"
        else:
            rho = n * default_projection_rho(n)
            rho_rule = "n*n^(-0.4) default rule"
    else:
        rho = float(proj_rho)
        rho_rule = "explicit"

    if series:
        raw = series_feature_columns(x, spec.kernel, spec.test_pairs)
    else:
        idx = _evenly_spaced_indices(n, count) if count is not None else None
        raw = build_instruments(x, kernel=plan.r0 + plan.r1, anchor_indices=idx)
    projected, null_span = _project_on_null(model, s_diag, raw, rho)

    ortho = None
    if series or diagnostics:
        ortho = orthogonality_defect(null_span, s_diag, projected)

    statistic = test_statistic(e0, projected)
    _, spectrum = covariance_estimate(e0, projected, s_diag, covariance)
    naive_statistic = test_statistic(e0, raw)
    _, naive_spectrum = covariance_estimate(e0, raw, s_diag, covariance)

    stream_pi, stream_naive = rng.spawn(2)
    draws = simulate_null(spectrum, n_draws, stream_pi)
    naive_draws = simulate_null(naive_spectrum, n_draws, stream_naive)

    return TestResult(
        statistic=statistic,
        spectrum=spectrum,
        null_draws=draws,
        p_value=p_value(statistic, draws),
        r_count=raw.shape[1],
        scaling_note=SCALING_NOTE,
        naive_statistic=naive_statistic,
        naive_spectrum=naive_spectrum,
        naive_null_draws=naive_draws,
        naive_p_value=p_value(naive_statistic, naive_draws),
        proj_rho=rho,
        proj_rho_rule=rho_rule,
        orthogonality=ortho,
        budget_binding=model.budget_binding,
        residual_null_score=residual_null_score(null_span, s_diag, e0),
        config={
            "plan": plan.name,
            "loss": loss.kind,
            "solver": fit_config.solver,
            "budget": fit_config.budget,
            "iterations": fit_config.iterations,
            "step_rule": fit_config.step_rule,
            "covariance": covariance,
            "n_draws": n_draws,
            "n": n,
            "r_count": raw.shape[1],
        },
    )
