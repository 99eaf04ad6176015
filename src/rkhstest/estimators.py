"""Constrained model fitting in additive RKHS.

Two solvers are provided:

* closed-form kernel ridge for the (rescaled) square loss, with the penalty
  chosen so the RKHS-norm budget binds exactly when the unconstrained
  solution exceeds it;
* a Frank-Wolfe greedy loop for general smooth losses under either the
  per-coordinate-sum norm ball (``lk``) or the joint-norm ball (``hk``).

Models are immutable after fitting and carry the Gram eigendecomposition
where one was computed, so downstream testing code can reuse it.  For a
kernel with a feature matrix F the decomposition is thin, taken from the SVD
of F, and the Gram vanishes on the complement of its basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .kernels import CompositeKernel, Kernel, SeriesKernel, gram_matrix
from .losses import LossSpec

__all__ = [
    "GramEigen",
    "gram_eigen",
    "fit_ridge",
    "solve_rho_for_budget",
    "budget_norm_sq",
    "RepresenterModel",
    "fit_constrained_ridge",
    "FitConfig",
    "GreedyTrace",
    "SeriesModel",
    "GreedyGramModel",
    "greedy_fit",
    "greedy_direction",
    "greedy_direction_series",
    "line_search",
]

_EIG_CUTOFF = 1e-12

# relative tolerance of the greedy budget_binding flag; loose because
# Frank-Wolfe iterates approach a boundary optimum only sublinearly
BINDING_RTOL = 0.05

STEP_RULES = ("line_search", "two_over_m_plus_two", "one_over_m")


@dataclass(frozen=True)
class GramEigen:
    """Eigendecomposition of a symmetric PSD Gram matrix.

    ``vectors`` has fewer columns than rows when the decomposition is thin;
    the Gram is then zero on the orthogonal complement of those columns.
    """

    values: np.ndarray  # ascending
    vectors: np.ndarray

    @property
    def cutoff(self) -> float:
        vmax = float(self.values[-1]) if self.values.size else 0.0
        return max(vmax, 0.0) * _EIG_CUTOFF

    @property
    def thin(self) -> bool:
        return self.vectors.shape[1] < self.vectors.shape[0]


def gram_eigen(gram: np.ndarray, features: np.ndarray | None = None) -> GramEigen:
    """Eigenpairs of ``gram``, or the thin ones of F F' from its features F.

    With F of shape (n, p) the SVD F = U diag(s) V' costs O(n p^2) in place
    of the O(n^3) ``eigh``: the values are s^2 and the vectors U.
    """
    if features is None:
        vals, vecs = scipy.linalg.eigh(gram)
        return GramEigen(values=vals, vectors=vecs)
    u, sv, _ = scipy.linalg.svd(features, full_matrices=False)
    return GramEigen(values=sv[::-1] ** 2, vectors=u[:, ::-1])


def fit_ridge(gram: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """Solve (C + rho I) a = y; at rho = 0 return the minimum-norm solution."""
    gram = np.asarray(gram, dtype=float)
    y = np.asarray(y, dtype=float)
    if rho < 0:
        raise ValueError("ridge penalty must be nonnegative")
    if rho == 0.0:
        a, *_ = scipy.linalg.lstsq(gram, y)
        return a
    n = gram.shape[0]
    return scipy.linalg.solve(gram + rho * np.eye(n), y, assume_a="pos")


def _ridge_from_eigen(eig: GramEigen, y: np.ndarray, rho: float) -> np.ndarray:
    c = eig.vectors.T @ y
    if rho == 0.0:
        inv = np.where(eig.values > eig.cutoff, 1.0 / np.maximum(eig.values, 1e-300), 0.0)
    else:
        inv = 1.0 / (np.maximum(eig.values, 0.0) + rho)
    a = eig.vectors @ (inv * c)
    if rho > 0.0 and eig.thin:
        # off a thin basis the Gram is zero, so (C + rho I)^{-1} acts as 1/rho
        a += (y - eig.vectors @ c) / rho
    return a


def budget_norm_sq(eig: GramEigen, y: np.ndarray, rho: float) -> float:
    """Value of a' C a for the ridge solution at penalty rho.

    In the eigenbasis this is sum_i (Q_i' y)^2 kappa_i / (kappa_i + rho)^2;
    eigenvalues below the rank cutoff are treated as exact zeros, matching
    the minimum-norm solution at rho = 0.
    """
    c2 = (eig.vectors.T @ np.asarray(y, dtype=float)) ** 2
    kappa = np.maximum(eig.values, 0.0)
    live = eig.values > eig.cutoff
    denom = (kappa + rho) ** 2
    terms = np.where(live, c2 * kappa / np.where(denom > 0, denom, 1.0), 0.0)
    return float(terms.sum())


def solve_rho_for_budget(
    gram: np.ndarray,
    y: np.ndarray,
    budget: float,
    *,
    eig: GramEigen | None = None,
) -> float:
    """Penalty rho at which the fitted RKHS norm equals the budget.

    Returns 0 when the unconstrained (minimum-norm) fit already satisfies
    a' C a <= budget^2; otherwise the unique positive root of the monotone
    budget equation, located by bracketing plus Brent's method.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if eig is None:
        eig = gram_eigen(np.asarray(gram, dtype=float))
    target = budget**2
    norm0 = budget_norm_sq(eig, y, 0.0)
    if norm0 <= target:
        return 0.0
    kmax = float(np.max(eig.values))
    hi = max(kmax * (norm0 / target - 1.0) + 1.0, 1.0)
    while budget_norm_sq(eig, y, hi) > target:
        hi *= 4.0
    return float(
        brentq(
            lambda r: budget_norm_sq(eig, y, r) - target,
            0.0,
            hi,
            xtol=1e-30,
            rtol=1e-14,
        )
    )


def _term_list(kernel_or_terms) -> tuple[tuple[Kernel, tuple[int, ...] | None], ...]:
    if isinstance(kernel_or_terms, CompositeKernel):
        return kernel_or_terms.terms
    if isinstance(kernel_or_terms, Kernel):
        return ((kernel_or_terms, None),)
    return tuple(
        (k, tuple(sel) if sel is not None else None) for k, sel in kernel_or_terms
    )


def _slice_cols(x: np.ndarray, sel) -> np.ndarray:
    return x if sel is None else x[:, list(sel)]


@dataclass
class RepresenterModel:
    """Kernel ridge fit in representer form, mu(x) = sum_i a_i C(X_i, x)."""

    kernel: Kernel
    anchors: np.ndarray
    coeffs: np.ndarray
    norm_hk: float
    norm_lk: float
    ridge_rho: float
    budget: float | None
    budget_binding: bool
    gram: np.ndarray = field(repr=False)
    eigen: GramEigen = field(repr=False)

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.anchors.shape[1]:
            raise ValueError(
                f"dimension mismatch: model expects {self.anchors.shape[1]} "
                f"columns, got {x.shape[1]}"
            )
        return self.kernel.gram(x, self.anchors) @ self.coeffs


def _representer_norms(kernel, x, a, gram) -> tuple[float, float]:
    norm_hk = math.sqrt(max(float(a @ (gram @ a)), 0.0))
    if isinstance(kernel, CompositeKernel) and len(kernel.terms) > 1:
        norm_lk = 0.0
        for term, sel in kernel.terms:
            cols = _slice_cols(x, sel)
            f_t = term.feature_matrix(cols)
            if f_t is None:
                norm_lk += math.sqrt(max(float(a @ (term.gram(cols) @ a)), 0.0))
            else:
                norm_lk += float(np.linalg.norm(f_t.T @ a))
    else:
        norm_lk = norm_hk
    return norm_hk, norm_lk


def fit_constrained_ridge(
    kernel: Kernel,
    x,
    y,
    *,
    budget: float | None = None,
    rho: float | None = None,
) -> RepresenterModel:
    """Square-loss kernel ridge under an RKHS-norm budget.

    Either ``budget`` (penalty solved so the norm constraint binds when
    needed) or a fixed ``rho`` must be given.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float)
    gram = gram_matrix(kernel, x)
    eig = gram_eigen(gram, kernel.feature_matrix(x))
    binding = False
    if rho is None:
        if budget is None:
            raise ValueError("either budget or rho is required")
        rho = solve_rho_for_budget(gram, y, budget, eig=eig)
        binding = rho > 0.0
    a = _ridge_from_eigen(eig, y, float(rho))
    norm_hk, norm_lk = _representer_norms(kernel, x, a, gram)
    return RepresenterModel(
        kernel=kernel,
        anchors=x,
        coeffs=a,
        norm_hk=norm_hk,
        norm_lk=norm_lk,
        ridge_rho=float(rho),
        budget=budget,
        budget_binding=binding,
        gram=gram,
        eigen=eig,
    )


@dataclass(frozen=True)
class FitConfig:
    """Settings shared by the ridge and greedy solvers."""

    budget: float
    norm_kind: str = "lk"
    solver: str = "greedy"
    iterations: int = 500
    step_rule: str = "line_search"
    line_search_tol: float = 1e-6
    rho_tol: float = 1e-12
    ridge_rho: float | None = None

    def __post_init__(self):
        if self.norm_kind not in ("lk", "hk"):
            raise ValueError("norm_kind must be 'lk' or 'hk'")
        if self.solver not in ("greedy", "ridge_closed_form"):
            raise ValueError("solver must be 'greedy' or 'ridge_closed_form'")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule must be one of {STEP_RULES}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not np.isfinite(self.budget) or self.budget <= 0:
            raise ValueError("budget must be finite and positive")


@dataclass
class GreedyTrace:
    """Per-iteration diagnostics of the greedy loop."""

    coords: np.ndarray
    steps: np.ndarray
    multipliers: np.ndarray
    objectives: np.ndarray
    norms: np.ndarray  # constraint norm (lk or hk per config) after each step
    # Frank-Wolfe duality gap of the iterate before each step,
    # <grad mean L(f), f - s> = -grad.delta / n; it bounds that iterate's
    # objective gap from above (Jaggi 2013)
    gaps: np.ndarray


def line_search(objective: Callable[[float], float], tol: float = 1e-6) -> float:
    """Golden-section search for a convex objective on [0, 1].

    The returned point is snapped to an endpoint whenever the endpoint does
    at least as well, so boundary minimizers come back as exactly 0 or 1.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = objective(c)
    fd = objective(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    mid = 0.5 * (a + b)
    candidates = (mid, 0.0, 1.0)
    values = [objective(t) for t in candidates]
    return candidates[int(np.argmin(values))]


def greedy_direction(grad: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-norm descent direction for one coordinate via its Gram matrix.

    Returns representer coefficients beta (direction f = sum_i beta_i
    C(X_i, .)) and the multiplier rho.  A vanishing gradient-kernel
    quadratic form yields (0, 1).
    """
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient vector must be finite")
    n = grad.shape[0]
    q = float(grad @ (gram @ grad)) / n**2
    if q <= 0.0:
        return np.zeros(n), 1.0
    rho = 0.5 * math.sqrt(q)
    beta = -grad / (2.0 * rho * n)
    return beta, rho


def greedy_direction_series(
    grad: np.ndarray, scaled_features: np.ndarray
) -> tuple[np.ndarray, float]:
    """Series-form direction (O(nV)): coefficients on the scaled features.

    ``scaled_features`` holds lambda_v phi_v(X_i) columns; the returned
    coefficient vector has unit Euclidean norm (= unit RKHS norm) unless the
    projected gradient vanishes, in which case (0, 1) is returned.
    """
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient vector must be finite")
    n = grad.shape[0]
    a = scaled_features.T @ grad / n
    q = float(a @ a)
    if q <= 0.0:
        return np.zeros(scaled_features.shape[1]), 1.0
    rho = 0.5 * math.sqrt(q)
    coeffs = -a / math.sqrt(q)
    return coeffs, rho


@dataclass
class SeriesModel:
    """Greedy fit stored as coefficients on scaled series features.

    ``coeffs[t]`` multiplies the unit-norm functions lambda_v phi_v applied
    to the coordinates selected by term t, so per-term RKHS norms are plain
    Euclidean norms of the coefficient blocks.  ``ridge_rho`` records the
    multiplier of the last iteration (it decays toward the stationarity
    multiplier as the loop converges).  ``budget_binding`` is true when the
    final constraint norm (lk or hk per ``norm_kind``) is at least
    (1 - BINDING_RTOL) * budget, with BINDING_RTOL = 0.05.  Frank-Wolfe
    iterates reach a boundary optimum only from inside: after 500
    line-search steps, LinAll fits at n=1000 whose least-squares lk norm
    exceeds the budget by 9 to 20 percent end at 0.957 to 0.970 of the
    budget.  Slow step rules, or a least-squares norm within a few percent
    of the budget, can still leave a binding fit flagged as slack.
    """

    terms: tuple[tuple[SeriesKernel, tuple[int, ...] | None], ...]
    coeffs: list[np.ndarray]
    budget: float
    norm_kind: str
    norm_hk: float
    norm_lk: float
    ridge_rho: float
    budget_binding: bool
    trace: GreedyTrace

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        out = np.zeros(x.shape[0])
        for (kernel, sel), d in zip(self.terms, self.coeffs):
            feats = kernel.feature_matrix(_slice_cols(x, sel))
            out += feats @ d
        return out


@dataclass
class GreedyGramModel:
    """Greedy fit stored as per-term representer coefficients.

    ``budget_binding`` follows the rule of :class:`SeriesModel`.  Like
    :class:`RepresenterModel`, the model carries the Gram it was fitted
    through: ``gram`` is the sum of the term Grams, equal to
    ``gram_matrix(CompositeKernel(terms), anchors)``, and ``fitted`` holds
    the in-sample fitted values, equal to ``predict(anchors)``.
    """

    terms: tuple[tuple[Kernel, tuple[int, ...] | None], ...]
    anchors: np.ndarray
    alpha: np.ndarray  # (n, T)
    budget: float
    norm_kind: str
    norm_hk: float
    norm_lk: float
    ridge_rho: float
    budget_binding: bool
    trace: GreedyTrace
    fitted: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        out = np.zeros(x.shape[0])
        for t, (kernel, sel) in enumerate(self.terms):
            cross = kernel.gram(_slice_cols(x, sel), _slice_cols(self.anchors, sel))
            out += cross @ self.alpha[:, t]
        return out


def _step_size(rule: str, m: int, objective_1d, tol: float) -> float:
    if rule == "line_search":
        return line_search(objective_1d, tol)
    if rule == "two_over_m_plus_two":
        return 2.0 / (m + 2.0)
    return 1.0 / m


def greedy_fit(x, y, loss: LossSpec, kernels, config: FitConfig):
    """Frank-Wolfe greedy estimation in the lk- or hk-norm ball.

    ``kernels`` is a composite kernel or a sequence of (kernel, selector)
    terms defining the additive components.  When every term is a series
    kernel the O(nV) feature path is used, otherwise the O(n^2) Gram path.
    """
    if not loss.smooth:
        raise ValueError(f"greedy fitting needs a smooth loss, got {loss.kind!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float)
    terms = _term_list(kernels)
    if all(isinstance(k, SeriesKernel) for k, _ in terms):
        return _greedy_fit_series(x, y, loss, terms, config)
    return _greedy_fit_gram(x, y, loss, terms, config)


def _constraint_norm(norm_kind: str, block_norms: np.ndarray) -> float:
    if norm_kind == "lk":
        return float(block_norms.sum())
    return float(np.sqrt((block_norms**2).sum()))


def _binds(config: FitConfig, block_norms: np.ndarray) -> bool:
    norm = _constraint_norm(config.norm_kind, block_norms)
    return norm >= (1.0 - BINDING_RTOL) * config.budget


def _greedy_fit_series(x, y, loss, terms, config) -> SeriesModel:
    n = x.shape[0]
    budget = config.budget
    blocks = []
    slices = []
    start = 0
    for kernel, sel in terms:
        cols = _slice_cols(x, sel)
        if cols.shape[1] != 1:
            raise ValueError("series greedy terms must select a single coordinate")
        f = kernel.feature_matrix(cols)
        blocks.append(f)
        slices.append(slice(start, start + f.shape[1]))
        start += f.shape[1]
    all_feats = np.hstack(blocks) if blocks else np.empty((n, 0))
    coeff = np.zeros(all_feats.shape[1])
    fitted = np.zeros(n)

    coords, steps, multipliers, objectives, norms, gaps = [], [], [], [], [], []
    for m in range(1, config.iterations + 1):
        grad = np.asarray(loss.deriv(1, y, fitted), dtype=float)
        a_all = all_feats.T @ grad / n
        if config.norm_kind == "hk":
            q = float(a_all @ a_all)
            if q <= 0.0:
                break
            rho = 0.5 * math.sqrt(q)
            direction = -a_all / math.sqrt(q)
            picked = -1
            cand = budget * (all_feats @ direction)
        else:
            rhos = np.array(
                [0.5 * np.linalg.norm(a_all[sl]) for sl in slices]
            )
            picked = int(np.argmax(rhos))
            rho = float(rhos[picked])
            if rho <= 0.0:
                break
            a_k = a_all[slices[picked]]
            direction = -a_k / np.linalg.norm(a_k)
            cand = budget * (blocks[picked] @ direction)

        delta = cand - fitted
        gaps.append(float(-(grad @ delta)) / n)
        tau = _step_size(
            config.step_rule,
            m,
            loss.segment_mean(y, fitted, delta),
            config.line_search_tol,
        )
        coeff *= 1.0 - tau
        if config.norm_kind == "hk":
            coeff += tau * budget * direction
        else:
            coeff[slices[picked]] += tau * budget * direction
        fitted = fitted + tau * delta

        block_norms = np.array([np.linalg.norm(coeff[sl]) for sl in slices])
        coords.append(picked)
        steps.append(tau)
        multipliers.append(rho)
        objectives.append(float(np.mean(loss.value(y, fitted))))
        norms.append(_constraint_norm(config.norm_kind, block_norms))

    block_norms = np.array([np.linalg.norm(coeff[sl]) for sl in slices])
    trace = GreedyTrace(
        coords=np.array(coords, dtype=int),
        steps=np.array(steps),
        multipliers=np.array(multipliers),
        objectives=np.array(objectives),
        norms=np.array(norms),
        gaps=np.array(gaps),
    )
    return SeriesModel(
        terms=terms,
        coeffs=[coeff[sl].copy() for sl in slices],
        budget=budget,
        norm_kind=config.norm_kind,
        norm_hk=float(np.sqrt((block_norms**2).sum())),
        norm_lk=float(block_norms.sum()),
        ridge_rho=float(multipliers[-1]) if multipliers else 0.0,
        budget_binding=_binds(config, block_norms),
        trace=trace,
    )


def _greedy_fit_gram(x, y, loss, terms, config) -> GreedyGramModel:
    n = x.shape[0]
    budget = config.budget
    grams = [gram_matrix(kernel, _slice_cols(x, sel)) for kernel, sel in terms]
    n_terms = len(terms)
    alpha = np.zeros((n, n_terms))
    # u[:, t] = G_t alpha[:, t], updated from the products G_t grad each
    # step already needs, so the trace norms cost O(n) per term
    u = np.zeros((n, n_terms))
    fitted = np.zeros(n)

    coords, steps, multipliers, objectives, norms, gaps = [], [], [], [], [], []
    for m in range(1, config.iterations + 1):
        grad = np.asarray(loss.deriv(1, y, fitted), dtype=float)
        w = [g @ grad for g in grams]
        if config.norm_kind == "hk":
            w_sum = np.sum(w, axis=0)
            q = float(grad @ w_sum) / n**2
            if q <= 0.0:
                break
            rho = 0.5 * math.sqrt(q)
            beta = -grad / (2.0 * rho * n)
            cand = budget * (w_sum * (-1.0 / (2.0 * rho * n)))
            picked = -1
        else:
            qs = np.array([float(grad @ wk) for wk in w]) / n**2
            rhos = 0.5 * np.sqrt(np.maximum(qs, 0.0))
            picked = int(np.argmax(rhos))
            rho = float(rhos[picked])
            if rho <= 0.0:
                break
            beta = -grad / (2.0 * rho * n)
            cand = budget * (w[picked] * (-1.0 / (2.0 * rho * n)))

        delta = cand - fitted
        gaps.append(float(-(grad @ delta)) / n)
        tau = _step_size(
            config.step_rule,
            m,
            loss.segment_mean(y, fitted, delta),
            config.line_search_tol,
        )
        alpha *= 1.0 - tau
        u *= 1.0 - tau
        u_step = tau * budget * (-1.0 / (2.0 * rho * n))
        if config.norm_kind == "hk":
            alpha += (tau * budget) * beta[:, None]
            for t in range(n_terms):
                u[:, t] += u_step * w[t]
        else:
            alpha[:, picked] += tau * budget * beta
            u[:, picked] += u_step * w[picked]
        fitted = fitted + tau * delta

        coords.append(picked)
        steps.append(tau)
        multipliers.append(rho)
        objectives.append(float(np.mean(loss.value(y, fitted))))
        block_norms = np.sqrt(np.maximum(np.einsum("it,it->t", alpha, u), 0.0))
        norms.append(_constraint_norm(config.norm_kind, block_norms))

    # the reported norms, and so model.json, use the exact quadratic forms
    products = [g @ alpha[:, t] for t, g in enumerate(grams)]
    block_norms = np.array(
        [
            math.sqrt(max(float(alpha[:, t] @ products[t]), 0.0))
            for t in range(n_terms)
        ]
    )
    # summed in term order, as predict and CompositeKernel.gram sum them
    in_sample = np.zeros(n)
    for product in products:
        in_sample += product
    gram = grams[0]
    for g in grams[1:]:
        gram += g
    trace = GreedyTrace(
        coords=np.array(coords, dtype=int),
        steps=np.array(steps),
        multipliers=np.array(multipliers),
        objectives=np.array(objectives),
        norms=np.array(norms),
        gaps=np.array(gaps),
    )
    return GreedyGramModel(
        terms=terms,
        anchors=x,
        alpha=alpha,
        budget=budget,
        norm_kind=config.norm_kind,
        norm_hk=float(np.sqrt((block_norms**2).sum())),
        norm_lk=float(block_norms.sum()),
        ridge_rho=float(multipliers[-1]) if multipliers else 0.0,
        budget_binding=_binds(config, block_norms),
        trace=trace,
        fitted=in_sample,
        gram=gram,
    )
