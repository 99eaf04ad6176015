"""Specification testing with nuisance-orthogonalized instruments.

The pipeline fits the restricted model, forms generalized residuals, builds
instrument columns from the alternative space, projects them to be (nearly)
orthogonal to the null space, and compares the quadratic moment statistic
against a simulated weighted chi-square null whose weights are eigenvalues
of the estimated instrument covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .estimators import (
    FitConfig,
    GreedyGramModel,
    RepresenterModel,
    _term_list,
    fit_constrained_ridge,
    greedy_fit,
)
from .kernels import Kernel, SeriesKernel, _require_finite, gram_matrix
from .losses import LossSpec

__all__ = [
    "default_projection_rho",
    "build_instruments",
    "series_feature_columns",
    "InstrumentSet",
    "project_instruments",
    "project_on_features",
    "orthogonality_defect",
    "residual_null_score",
    "generalized_residuals",
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

COVARIANCE_VARIANTS = ("product_form", "pointwise")


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
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
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
    mode: str,
    *,
    kernel: Kernel | None = None,
    anchors=None,
    anchor_indices=None,
    features: Sequence[tuple[int, int]] | None = None,
    series_kernel: SeriesKernel | None = None,
) -> np.ndarray:
    """Raw instrument matrix (n, R) for one of the three supported modes.

    gram_columns
        columns C_R1(X_i, X_j) at ``anchor_indices`` (default: all points).
    kernel_sections_normalized
        columns C_R1(X_i, z_r) / sqrt(C_R1(z_r, z_r)) at ``anchors`` points
        or ``anchor_indices`` into the sample.
    series_features
        scaled series features of ``series_kernel`` at (coord, order) pairs.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if mode == "series_features":
        if series_kernel is None or not features:
            raise ValueError("series_features mode needs series_kernel and features")
        return series_feature_columns(x, series_kernel, features)
    if kernel is None:
        raise ValueError(f"{mode} mode needs the alternative kernel")
    if mode == "gram_columns":
        idx = np.arange(n) if anchor_indices is None else np.asarray(anchor_indices)
        return kernel.gram(x, x[idx])
    if mode == "kernel_sections_normalized":
        if anchors is not None:
            z = np.asarray(anchors, dtype=float)
            if z.ndim == 1:
                z = z[:, None]
        else:
            idx = np.arange(n) if anchor_indices is None else np.asarray(anchor_indices)
            z = x[idx]
        diag = np.array([kernel.eval(z[r], z[r]) for r in range(z.shape[0])])
        if np.any(diag <= 0):
            raise ValueError("cannot normalize a section with C(z, z) <= 0")
        return kernel.gram(x, z) / np.sqrt(diag)[None, :]
    raise ValueError(f"unknown instrument mode {mode!r}")


@dataclass
class InstrumentSet:
    """Raw and nuisance-projected instrument columns."""

    raw: np.ndarray
    projected: np.ndarray
    proj_rho: float
    mode: str

    @property
    def count(self) -> int:
        return self.raw.shape[1]


def _weighted_least_squares(design, s_diag, targets):
    """Min-norm solution of the S-weighted least squares problem."""
    root = np.sqrt(s_diag)
    coeff, *_ = scipy.linalg.lstsq(design * root[:, None], targets * root[:, None])
    return coeff


def project_instruments(
    c0: np.ndarray, s_diag, raw: np.ndarray, proj_rho: float, *, mode: str = "gram_columns"
) -> InstrumentSet:
    """Residualize instruments on the null-space Gram columns.

    For each column c the coefficient b minimizes
    (c - C0 b)' S (c - C0 b) + rho b' C0 b, i.e. b = (C0 + rho S^{-1})^{-1} c
    for rho > 0; rho = 0 uses the weighted pseudo-inverse solve, making the
    projected column exactly S-orthogonal to the column space of C0.
    """
    c0 = np.asarray(c0, dtype=float)
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    s_diag = np.asarray(s_diag, dtype=float)
    if np.any(s_diag <= 0):
        raise ValueError("projection weights must be positive")
    if proj_rho < 0:
        raise ValueError("projection penalty must be nonnegative")
    if proj_rho == 0.0:
        coeff = _weighted_least_squares(c0, s_diag, raw)
    else:
        system = c0 + proj_rho * np.diag(1.0 / s_diag)
        coeff = scipy.linalg.solve(system, raw, assume_a="pos")
    projected = raw - c0 @ coeff
    return InstrumentSet(raw=raw, projected=projected, proj_rho=float(proj_rho), mode=mode)


def project_on_features(
    basis: np.ndarray, s_diag, raw: np.ndarray, proj_rho: float, *, mode: str = "series_features"
) -> InstrumentSet:
    """Residualize instruments on a span of unit-norm feature columns.

    The penalty acts on the squared coefficients (the RKHS norm of the
    fitted combination when the basis functions are unit-norm and mutually
    orthogonal, as series features of distinct coordinates/orders are).
    """
    basis = np.asarray(basis, dtype=float)
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    s_diag = np.asarray(s_diag, dtype=float)
    if np.any(s_diag <= 0):
        raise ValueError("projection weights must be positive")
    if proj_rho < 0:
        raise ValueError("projection penalty must be nonnegative")
    if proj_rho == 0.0:
        coeff = _weighted_least_squares(basis, s_diag, raw)
    else:
        weighted = basis * s_diag[:, None]
        system = basis.T @ weighted + proj_rho * np.eye(basis.shape[1])
        coeff = scipy.linalg.solve(system, weighted.T @ raw, assume_a="pos")
    projected = raw - basis @ coeff
    return InstrumentSet(raw=raw, projected=projected, proj_rho=float(proj_rho), mode=mode)


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


def generalized_residuals(model, x, y, loss: LossSpec) -> np.ndarray:
    """First-derivative scores at the fitted values, entrywise."""
    fitted = model.predict(x)
    return np.asarray(loss.deriv(1, y, fitted), dtype=float)


def test_statistic(e0: np.ndarray, instruments) -> float:
    """Quadratic moment statistic (1/R) sum_r (n^{-1/2} e0'h_r)^2."""
    h = instruments.projected if isinstance(instruments, InstrumentSet) else instruments
    h = np.atleast_2d(np.asarray(h, dtype=float))
    e0 = np.asarray(e0, dtype=float)
    n, r = h.shape
    s = h.T @ e0 / math.sqrt(n)
    return float(s @ s) / r


def covariance_estimate(
    e0: np.ndarray,
    instruments,
    s_diag=None,
    variant: str = "product_form",
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated covariance of the moment vector and its scaled spectrum.

    product_form: (n^{-1} e0'e0) * (n^{-1} H'H), the homoskedastic score
    estimator; pointwise: n^{-1} H' diag(S) H with the supplied weights.
    Returns (Sigma, spectrum) where the spectrum holds the eigenvalues of
    Sigma / R in descending order, clipped at zero.
    """
    h = instruments.projected if isinstance(instruments, InstrumentSet) else instruments
    h = np.atleast_2d(np.asarray(h, dtype=float))
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

    Deterministic given the generator state (or integer seed).
    """
    omega = np.asarray(spectrum, dtype=float)
    if np.any(omega < 0):
        raise ValueError("spectrum weights must be nonnegative")
    if n_draws < 1:
        raise ValueError("need at least one draw")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    active = omega[omega > 0]
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
    return float(1 + np.count_nonzero(draws >= statistic)) / (draws.size + 1)


@dataclass(frozen=True)
class SeriesInstrumentPlan:
    """Instruments and projection span given by series-feature columns."""

    kernel: SeriesKernel
    test_pairs: tuple[tuple[int, int], ...]
    projection_pairs: tuple[tuple[int, int], ...]
    mode: str = "series_features"


@dataclass(frozen=True)
class SectionInstrumentPlan:
    """Instruments given by (normalized) kernel sections at sample points.

    ``section_source`` picks the kernel whose sections are used: "combined"
    takes C_R0 + C_R1 (the homogeneous-test-function construction, which is
    what makes the uncorrected comparison columns meaningful, since raw
    sections then carry the large null-space components the projection
    strips), "alternative" takes C_R1 alone.
    """

    count: int | None = None  # None: one section per sample point
    normalized: bool = True
    projection: str = "gram"  # residualize on the null-kernel Gram columns
    section_source: str = "combined"

    @property
    def mode(self) -> str:
        return "kernel_sections_normalized" if self.normalized else "gram_columns"


@dataclass(frozen=True)
class HypothesisPlan:
    """Everything a test run needs: kernels, restricted fit, instruments."""

    name: str
    r0: Kernel
    r1: Kernel | None
    fit_terms: tuple | None  # greedy terms; None fits ridge on r0
    instruments: SeriesInstrumentPlan | SectionInstrumentPlan


def _evenly_spaced_indices(n: int, count: int) -> np.ndarray:
    if count >= n:
        return np.arange(n)
    return np.unique(np.round(np.linspace(0, n - 1, count)).astype(int))


@dataclass
class TestResult:
    """Outcome of one specification test, with the uncorrected companion.

    ``budget_binding`` reports whether the restricted fit sits on its norm
    budget.  ``residual_null_score`` is :func:`residual_null_score` of the
    generalized residuals against the null span (the projection basis for
    series plans, the columns of C0 for section plans).  A non-binding fit
    with a score near 0 has reached the least-squares identity, under
    which the uncorrected test is conservative rather than liberal.
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
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "r_count": self.r_count,
            "spectrum": [float(w) for w in self.spectrum],
            "naive_statistic": self.naive_statistic,
            "naive_p_value": self.naive_p_value,
            "naive_spectrum": [float(w) for w in self.naive_spectrum],
            "proj_rho": self.proj_rho,
            "proj_rho_rule": self.proj_rho_rule,
            "orthogonality": self.orthogonality,
            "budget_binding": self.budget_binding,
            "residual_null_score": self.residual_null_score,
            "scaling_note": self.scaling_note,
            "config": self.config,
        }

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


def _fit_restricted(x, y, plan: HypothesisPlan, loss, fit_config: FitConfig):
    if plan.fit_terms is not None and fit_config.solver == "greedy":
        model = greedy_fit(x, y, loss, plan.fit_terms, fit_config)
        fitted = model.fitted if isinstance(model, GreedyGramModel) else model.predict(x)
        return model, fitted
    model = fit_constrained_ridge(
        plan.r0, x, y, budget=fit_config.budget, rho=fit_config.ridge_rho
    )
    fitted = model.gram @ model.coeffs
    return model, fitted


def _project_gram(model, r0, x, s_diag, raw, rho, mode="gram_columns"):
    """Gram-mode projection, reusing the fit's Gram or eigendecomposition if we can."""
    if isinstance(model, RepresenterModel) and model.kernel is r0:
        c0 = model.gram
        s0 = float(s_diag[0])
        if np.all(s_diag == s0):
            # C0 (C0 + rho/s I)^{-1} = U diag(kappa * inv) U' in the cached
            # eigenbasis, thin or full, since C0 vanishes off a thin basis;
            # rho = 0 becomes the projection onto the column space
            eig = model.eigen
            kappa = np.maximum(eig.values, 0.0)
            if rho > 0:
                inv = 1.0 / (kappa + rho / s0)
            else:
                inv = np.where(eig.values > eig.cutoff, 1.0 / np.maximum(kappa, 1e-300), 0.0)
            projected = raw - eig.vectors @ ((kappa * inv)[:, None] * (eig.vectors.T @ raw))
            return InstrumentSet(
                raw=raw, projected=projected, proj_rho=float(rho), mode=mode
            ), c0
    elif isinstance(model, GreedyGramModel) and model.terms == _term_list(r0):
        c0 = _require_finite(model.gram)
    else:
        c0 = gram_matrix(r0, x)
    return project_instruments(c0, s_diag, raw, rho, mode=mode), c0


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
    known_weights=None,
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
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    model, fitted = _fit_restricted(x, y, plan, loss, fit_config)
    e0 = np.asarray(loss.deriv(1, y, fitted), dtype=float)
    if known_weights is not None:
        s_diag = np.broadcast_to(np.asarray(known_weights, dtype=float), (n,)).copy()
    elif loss.smooth:
        s_diag = np.broadcast_to(
            np.asarray(loss.deriv(2, y, fitted), dtype=float), (n,)
        ).copy()
    else:
        s_diag = np.ones(n)

    if proj_rho is None:
        if isinstance(model, RepresenterModel) and isinstance(
            plan.instruments, SectionInstrumentPlan
        ):
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

    spec = plan.instruments
    if isinstance(spec, SeriesInstrumentPlan):
        raw = series_feature_columns(x, spec.kernel, spec.test_pairs)
        basis = series_feature_columns(x, spec.kernel, spec.projection_pairs)
        instruments = project_on_features(basis, s_diag, raw, rho)
        null_span = basis
    else:
        count = instrument_count if instrument_count is not None else spec.count
        idx = _evenly_spaced_indices(n, count) if count is not None else None
        if spec.section_source == "combined" and plan.r1 is not None:
            section_kernel = plan.r0 + plan.r1
        else:
            section_kernel = plan.r1
        raw = build_instruments(
            x, spec.mode, kernel=section_kernel, anchor_indices=idx
        )
        instruments, null_span = _project_gram(
            model, plan.r0, x, s_diag, raw, rho, mode=spec.mode
        )

    ortho = None
    if isinstance(spec, SeriesInstrumentPlan) or diagnostics:
        ortho = orthogonality_defect(null_span, s_diag, instruments.projected)

    statistic = test_statistic(e0, instruments)
    _, spectrum = covariance_estimate(e0, instruments, s_diag, covariance)
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
        r_count=instruments.count,
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
            "r_count": instruments.count,
        },
    )
