"""Specification testing with nuisance-orthogonalized instruments.

The pipeline fits the restricted model, forms generalized residuals, builds
instrument columns from the alternative space, projects them to be (nearly)
orthogonal to the null space, and compares the quadratic moment statistic
against a simulated weighted chi-square null whose weights are eigenvalues
of the estimated instrument covariance.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .estimators import _EIG_CUTOFF, FitConfig, _fit_by_solver, gram_eigen
from .kernels import Kernel, _as_sample, _check_count, _check_finite, _check_real, polynomial_series
from .losses import LossSpec

__all__ = [
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


# the series basis of every series test: monomials u^1..u^10 with weights v^(-2.2)
_SERIES_BASIS = polynomial_series(10)


def series_feature_columns(x: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Instrument columns lambda_v phi_v(x^(k)) of the series basis for
    (coord, order) pairs.

    Each column has unit RKHS norm in the additive space generated by the
    series kernel.  Orders are 1-based.
    """
    x = _as_sample(x, None)
    cache: dict[int, np.ndarray] = {}
    cols = []
    for coord, order in pairs:
        if not 0 <= coord < x.shape[1]:
            raise ValueError(f"series coordinate {coord} outside 0..{x.shape[1] - 1}")
        if not 1 <= order <= _SERIES_BASIS.n_terms:
            raise ValueError(f"series order {order} outside 1..{_SERIES_BASIS.n_terms}")
        if coord not in cache:
            cache[coord] = _SERIES_BASIS.feature_matrix(x[:, coord])
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
    Z = X[anchor_indices] (default: all points).  C_R1(Z_j, Z_j) is read off
    the cross Gram, at row anchor_indices[j] of column j.  Series-feature
    instruments come from :func:`series_feature_columns`.
    """
    x = _as_sample(x, None)
    n = x.shape[0]
    idx = np.arange(n) if anchor_indices is None else np.asarray(anchor_indices)
    g = kernel.gram(x, x[idx])
    diag = g[idx, np.arange(idx.size)]
    if np.any(diag <= 0):
        raise ValueError("cannot normalize a section with C(z, z) <= 0")
    return g / np.sqrt(diag)


def _check_projection(s_diag, proj_rho: float) -> np.ndarray:
    """The weights as an array, after the checks every projection route shares."""
    s_diag = np.asarray(s_diag, dtype=float)
    if np.any(s_diag <= 0):
        raise ValueError("projection weights must be positive")
    _check_real(proj_rho, "projection penalty")
    return s_diag


def project_instruments(
    c0: np.ndarray, s_diag, raw: np.ndarray, proj_rho: float
) -> np.ndarray:
    """Residualize instruments on the null-space Gram columns.

    For each column c the coefficient b minimizes
    (c - C0 b)' S (c - C0 b) + rho b' C0 b, i.e. b = (C0 + rho S^{-1})^{-1} c
    for rho > 0; rho = 0 removes the S-weighted projection onto the column
    space of C0, so the projected column is S-orthogonal to that space.  At
    rho > 0 the map shrinks rather than projects, so it is not idempotent.
    Since (C0 + rho S^{-1}) b = c, the projected column c - C0 b equals
    rho S^{-1} b, so rho > 0 costs one n x n solve and no C0 product.
    ``c0`` must be positive semi-definite, as a Gram matrix is; only a
    negative diagonal entry, the O(n) symptom, is checked.
    Returns the projected (n, R) matrix.
    """
    c0 = np.asarray(c0, dtype=float)
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    s_diag = _check_projection(s_diag, proj_rho)
    _check_finite("c0", c0)
    _check_finite("raw", raw)
    if np.any(np.diagonal(c0) < 0):
        raise ValueError("c0 must be positive semi-definite; its diagonal has a negative entry")
    if proj_rho == 0.0:
        # S^{1/2} C0 S^{1/2} spans S^{1/2} col(C0) on the scale of C0
        root = np.sqrt(s_diag)[:, None]
        return raw - gram_eigen(root * c0 * root.T).smooth(root * raw, 0.0) / root
    penalty = proj_rho / s_diag
    system = c0.copy()
    system.flat[:: system.shape[0] + 1] += penalty
    return np.linalg.solve(system, raw) * penalty[:, None]


def project_on_features(
    basis: np.ndarray, s_diag, raw: np.ndarray, proj_rho: float
) -> np.ndarray:
    """Residualize instruments on the columns of a feature matrix F.

    The penalty acts on the squared coefficients.  With F F' = C0 this is
    :func:`project_instruments` on C0: the coefficients solve
    (F'SF + rho I) b = F'S c, so F b = S^{-1/2} K (K + rho I)^{-1} S^{1/2} c
    with K = S^{1/2} C0 S^{1/2}.  The thin SVD of S^{1/2} F gives the
    eigenpairs of K, so every rho costs O(n p^2) in place of an n x n solve,
    and S^{1/2} scales the n x p basis, never the n x R instruments.
    Returns the projected (n, R) matrix.
    """
    basis = np.asarray(basis, dtype=float)
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    root = np.sqrt(_check_projection(s_diag, proj_rho))[:, None]
    _check_finite("basis", basis)
    _check_finite("raw", raw)
    return raw - gram_eigen(None, root * basis).smooth(raw, proj_rho, root=root)


def _column_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def _max_column_ratio(num: np.ndarray, den_norms: np.ndarray) -> float:
    """max_r |num_r| / den_norms_r over the columns, a zero norm giving 0."""
    num = _column_norms(num)
    return float(np.max(num / np.where(den_norms > 0, den_norms, 1.0))) if num.size else 0.0


def orthogonality_defect(span: np.ndarray, s_diag, projected: np.ndarray) -> float:
    """max_r |span' S h_r| / |h_r|, the in-sample orthogonality diagnostic; S
    weights the (n, p) span, not the (n, R) instruments."""
    span = np.asarray(span, dtype=float) * np.asarray(s_diag, dtype=float)[:, None]
    projected = np.atleast_2d(np.asarray(projected, dtype=float))
    return _max_column_ratio(span.T @ projected, _column_norms(projected))


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


def covariance_estimate(e0: np.ndarray, instruments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimated covariance of the moment vector and its scaled spectrum.

    The product form (n^{-1} e0'e0) * (n^{-1} H'H), the homoskedastic score
    estimator.  Returns (Sigma, spectrum) where the spectrum holds the
    eigenvalues of Sigma / R in descending order, clipped at zero.
    """
    h = np.atleast_2d(np.asarray(instruments, dtype=float))
    e0 = np.asarray(e0, dtype=float)
    n, r = h.shape
    sigma = (float(e0 @ e0) / n) * (h.T @ h / n)
    sigma = (sigma + sigma.T) / 2.0
    spectrum = np.linalg.eigvalsh(sigma / r)[::-1]
    return sigma, np.clip(spectrum, 0.0, None)


# values in simulate_null's reused block of normals (256 KB of float64)
_NULL_BLOCK = 1 << 15


def simulate_null(spectrum, n_draws: int, rng) -> np.ndarray:
    """Draws of sum_k omega_k N_k^2 with independent standard normals.

    Deterministic given the generator state (or integer seed).  A
    ``Generator`` must be used by one thread at a time; the call releases
    the GIL while it draws, so simulations on separate generators can run
    on separate threads.  Weights at or below the rank cutoff (1e-12 of the
    top weight) are pure rounding and get no normal, so they cannot shift
    which normals the other weights receive.

    The normals fill one reused block of at most ``_NULL_BLOCK`` values,
    draw after draw in C order, so draw i takes the i-th run of k normals
    of the stream whatever the block size: the normals each weight gets are
    those of ``(z * z) @ active`` with z the full (n_draws, k) matrix.  Only
    the order in which a draw's k terms are summed differs from that BLAS
    product (by about 1e-15 relative); ``np.einsum`` sums them the same way
    whatever the BLAS kernel or thread count.
    """
    omega = np.asarray(spectrum, dtype=float)
    bad = np.flatnonzero(~np.isfinite(omega))
    if bad.size:
        raise ValueError(
            f"spectrum weights must be finite, got {omega.flat[bad].tolist()} at {bad.tolist()}"
        )
    if np.any(omega < 0):
        raise ValueError("spectrum weights must be nonnegative")
    _check_count(n_draws, "n_draws")
    rng = np.random.default_rng(rng)
    active = omega[omega > _EIG_CUTOFF * omega.max(initial=0.0)]
    if active.size == 0:
        return np.zeros(n_draws)
    out = np.empty(n_draws)
    block = np.empty((max(1, min(n_draws, _NULL_BLOCK // active.size)), active.size))
    for start in range(0, n_draws, block.shape[0]):
        stop = min(start + block.shape[0], n_draws)
        z = block[: stop - start]
        rng.standard_normal(out=z)
        np.square(z, out=z)
        np.einsum("ij,j->i", z, active, out=out[start:stop])
    return out


def _simulate_both(spectrum, naive_spectrum, n_draws: int, rng: np.random.Generator):
    """:func:`simulate_null` of the corrected and the uncorrected spectrum, on the
    two streams ``rng.spawn(2)`` gives, in that order.

    The uncorrected draws run on a helper thread while this one draws the
    corrected ones.  Each stream is used by one thread only, so the draws
    are those of drawing one null after the other.  An error of the helper
    is re-raised here after the join.
    """
    stream_pi, stream_naive = rng.spawn(2)
    with ThreadPoolExecutor(1, thread_name_prefix="rkhstest-naive-null") as helper:
        naive = helper.submit(simulate_null, naive_spectrum, n_draws, stream_naive)
        draws = simulate_null(spectrum, n_draws, stream_pi)
    return draws, naive.result()


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
    """Instruments given by the series-basis columns of ``test_pairs`` (see
    :func:`series_feature_columns`), residualized on span(r0)."""

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
    ``orthogonality`` is the projected instruments' :func:`orthogonality_defect`
    on that span, for every plan.  ``to_record`` adds the Monte Carlo
    standard error of each p-value.
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
    orthogonality: float
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
    """The instruments h projected off span(r0) as the restricted fit built it, that
    span (the fit's feature columns, or its Gram C0 when r0 has no feature
    map) and the :func:`orthogonality_defect` of h.

    Feature columns go through :func:`project_on_features`.  A Gram goes
    through the fit's eigenbasis when S is constant, else through
    :func:`project_instruments`; either way (C0 + rho S^{-1}) b = raw with
    h = rho S^{-1} b, so C0 S h = rho (raw - h) gives the defect in O(n R).
    At rho = 0 it reads exactly 0, where the direct product reads rounding.
    Projected instruments whose largest column norm is at most 1e-12 of the
    raw ones' are rounding, the instruments lying in the span: they are read
    as exactly 0, with defect 0.
    """
    s_diag = _check_projection(s_diag, rho)
    on_features = model.features is not None
    span = model.features if on_features else model.gram
    if on_features:
        projected = project_on_features(span, s_diag, raw, rho)
    elif model.eigen is not None and np.all(s_diag == s_diag[0]):
        projected = raw - model.eigen.smooth(raw, rho / float(s_diag[0]))  # S = s I
    else:
        projected = project_instruments(span, s_diag, raw, rho)
    norms = _column_norms(projected)
    if norms.max() <= _EIG_CUTOFF * _column_norms(raw).max():
        return np.zeros_like(projected), span, 0.0
    if on_features:  # orthogonality_defect, reusing the norms
        return projected, span, _max_column_ratio((span * s_diag[:, None]).T @ projected, norms)
    return projected, span, rho * _max_column_ratio(raw - projected, norms)


def run_test(
    x,
    y,
    plan: HypothesisPlan,
    loss: LossSpec,
    fit_config: FitConfig,
    *,
    proj_rho: float | None = None,
    n_draws: int = 10_000,
    rng=0,
    instrument_count: int | None = None,
) -> TestResult:
    """Full testing pipeline for one dataset.

    Fits the restricted model, builds and projects instruments, computes the
    statistic and its estimated spectrum, and simulates the weighted
    chi-square null.  A section count of n or more is clipped to n: every
    row is a section and ``r_count`` reads n.  ``proj_rho`` is the penalty
    of the matrix-form projection solve.  None applies n times n^(-0.4),
    except that a ridge fit on a section plan projects with the fit's own
    multiplier.  The uncorrected statistic (raw instruments in both the
    moment and the covariance) is always computed alongside.  Its null is
    drawn on a helper thread, concurrently with the corrected one; the two
    nulls come from separate streams of ``rng``, so every draw and p-value
    is that of drawing them one after the other.  A generalized residual e0
    with |e0| <= 1e-12 |L'(y, 0)|, an exact fit up to rounding, is read as
    0: the statistic is 0, both p-values 1 and the residual null score 0.
    Likewise, projected instruments whose largest column norm is at most
    1e-12 of the raw instruments' largest, as when a constant covariate puts
    every instrument in span(r0), are read as 0: the statistic, its spectrum
    and the orthogonality defect are 0 and the p-value is 1.
    """
    if proj_rho is not None:
        _check_real(proj_rho, "projection penalty")
    spec = plan.instruments
    series = isinstance(spec, SeriesInstrumentPlan)
    if series and instrument_count is not None:
        raise ValueError("instrument_count counts kernel sections; a series plan tests test_pairs")
    count = len(spec.test_pairs) if series else instrument_count
    if count is None:
        count = spec.count
    if count is not None:
        _check_count(count, "the instrument count")
    _check_count(n_draws, "n_draws")
    if not series and plan.r1 is None:
        raise ValueError("kernel sections need the alternative kernel r1; the plan's r1 is None")
    x = _as_sample(x, None)
    # series columns are built, so their pairs checked, before the fit
    raw = series_feature_columns(x, spec.test_pairs) if series else None
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    rng = np.random.default_rng(rng)

    model = _fit_by_solver(plan.r0, x, y, loss, fit_config)
    e0 = np.asarray(loss.deriv(1, y, model.fitted), dtype=float)
    if np.linalg.norm(e0) <= 1e-12 * np.linalg.norm(loss.deriv(1, y, np.zeros(n))):
        e0 = np.zeros(n)  # an exact fit: e0 is rounding, read as the 0 of y = 0
    s_diag = np.broadcast_to(loss.deriv(2, y, model.fitted), (n,)).astype(float)

    if proj_rho is not None:
        rho, rho_rule = float(proj_rho), "explicit"
    elif model.representation == "representer" and not series:
        # couple the projection ridge to the fit's realized multiplier so
        # the projection removes exactly the directions the restricted
        # fit absorbs; the matrix solve shares one rho in both places
        rho, rho_rule = model.ridge_rho, "fit-coupled"
    else:
        # n^(-0.4) penalizes the n-normalized objective; the matrix solve
        # takes the unnormalized one, so the penalty is n times the rule
        rho, rho_rule = n * float(n) ** (-0.4), "n*n^(-0.4) default rule"

    if not series:
        idx = _evenly_spaced_indices(n, count) if count is not None else None
        raw = build_instruments(x, kernel=plan.r0 + plan.r1, anchor_indices=idx)
    projected, null_span, ortho = _project_on_null(model, s_diag, raw, rho)

    statistic = test_statistic(e0, projected)
    _, spectrum = covariance_estimate(e0, projected)
    naive_statistic = test_statistic(e0, raw)
    _, naive_spectrum = covariance_estimate(e0, raw)

    draws, naive_draws = _simulate_both(spectrum, naive_spectrum, n_draws, rng)

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
            "covariance": "product_form",
            "n_draws": n_draws,
            "n": n,
            "r_count": raw.shape[1],
        },
    )
