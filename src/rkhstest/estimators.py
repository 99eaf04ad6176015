"""Constrained model fitting in additive RKHS.

Two solvers are provided:

* closed-form kernel ridge for the (rescaled) square loss, with the penalty
  chosen so the RKHS-norm budget binds exactly when the unconstrained
  solution exceeds it;
* a Frank-Wolfe greedy loop for general smooth losses under either the
  per-coordinate-sum norm ball (``lk``) or the joint-norm ball (``hk``).

Both return an :class:`AdditiveModel`, which carries its in-sample fitted
values, the feature matrix or Gram that spans its terms and, for ridge, the
eigendecomposition, so downstream testing code can reuse them.  For a kernel
with a feature matrix F the decomposition is thin, taken from the SVD of F,
and no n x n Gram is built: the Gram vanishes off the thin basis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .kernels import CompositeKernel, Kernel, _as_sample, _select, gram_matrix
from .losses import LossSpec

__all__ = [
    "GramEigen",
    "gram_eigen",
    "fit_ridge",
    "solve_rho_for_budget",
    "budget_norm_sq",
    "AdditiveModel",
    "fit_constrained_ridge",
    "FitConfig",
    "GreedyTrace",
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

    def inverse(self, rho: float) -> np.ndarray:
        """1 / (kappa + rho) per eigenvalue; at rho = 0 the pseudo-inverse,
        which is zero at eigenvalues at or below the rank cutoff."""
        if rho == 0.0:
            return np.where(self.values > self.cutoff, 1.0 / np.maximum(self.values, 1e-300), 0.0)
        return 1.0 / (np.maximum(self.values, 0.0) + rho)

    def smooth(self, targets: np.ndarray, rho: float) -> np.ndarray:
        """C (C + rho I)^{-1} targets, for a vector or the columns of a matrix.

        That is U diag(kappa / (kappa + rho)) U' targets, thin or full, since C
        vanishes off a thin basis; at rho = 0 it is the projection onto the
        column space of C, with eigenvalues at or below the rank cutoff counted
        as zero.  For a ridge fit a it equals C a, the fitted values.
        """
        shrink = np.maximum(self.values, 0.0) * self.inverse(rho)
        coef = self.vectors.T @ targets
        if coef.ndim == 2:
            shrink = shrink[:, None]
        return self.vectors @ (shrink * coef)


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
    """Solve (C + rho I) a = y, minimum-norm at rho = 0, as fit_constrained_ridge does."""
    y = np.asarray(y, dtype=float)
    if rho < 0:
        raise ValueError("ridge penalty must be nonnegative")
    return _ridge_from_eigen(gram_eigen(gram), y, float(rho))


def _ridge_from_eigen(eig: GramEigen, y: np.ndarray, rho: float) -> np.ndarray:
    c = eig.vectors.T @ y
    a = eig.vectors @ (eig.inverse(rho) * c)
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
    gram: np.ndarray | None,
    y: np.ndarray,
    budget: float,
    *,
    eig: GramEigen | None = None,
) -> float:
    """Penalty rho at which the fitted RKHS norm equals the budget.

    Returns 0 when the unconstrained (minimum-norm) fit already satisfies
    a' C a <= budget^2; otherwise the unique positive root of the monotone
    budget equation, located by bracketing plus Brent's method.  ``gram`` is
    read only when ``eig`` is None.
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


def _finite_sample(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = _as_sample(x, None)
    y = np.asarray(y, dtype=float)
    for name, values in (("covariates x", x), ("response y", y)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite; found NaN or inf")
    return x, y


def _term_list(kernel_or_terms) -> tuple[tuple[Kernel, tuple[int, ...] | None], ...]:
    if isinstance(kernel_or_terms, CompositeKernel):
        return kernel_or_terms.terms
    if isinstance(kernel_or_terms, Kernel):
        return ((kernel_or_terms, None),)
    return tuple(
        (k, tuple(sel) if sel is not None else None) for k, sel in kernel_or_terms
    )


def _term_features(terms, x: np.ndarray) -> list[np.ndarray | None]:
    """Each term's feature matrix on its coordinates of x, None where it has none."""
    return [kernel.feature_matrix(_select(x, sel)) for kernel, sel in terms]


@dataclass
class GreedyTrace:
    """Per-iteration diagnostics of the greedy loop: the term each step moved
    (-1 when an hk step moves them all), the step size, the direction's
    multiplier and the objective after the step.  The constraint norms are
    the final iterate's, on the model."""

    coords: np.ndarray
    steps: np.ndarray
    multipliers: np.ndarray
    objectives: np.ndarray
    # Frank-Wolfe duality gap of the iterate before each step,
    # <grad mean L(f), f - s> = -grad.delta / n; it bounds that iterate's
    # objective gap from above (Jaggi 2013)
    gaps: np.ndarray


@dataclass
class AdditiveModel:
    """A fitted additive function mu = sum_t f_t with one coefficient block per term.

    ``representation`` says what the blocks in ``coeffs`` multiply:

    * ``"representer"`` (closed-form ridge): one term, the whole kernel C,
      with n representer weights a, so mu(x) = sum_i a_i C(X_i, x);
    * ``"series"`` (greedy, every term with a feature matrix F_t): block t
      holds the coefficients on the columns of F_t, so per-term RKHS norms
      are the Euclidean norms of the blocks;
    * ``"representer_greedy"`` (greedy through Gram matrices): block t holds
      n representer weights on term t's kernel.

    ``fitted`` holds the in-sample values, equal to ``predict(anchors)``
    (to rounding for ridge, whose fitted values are ``eigen.smooth(y, rho)``).
    ``gram`` is the summed Gram at the anchors, built only when some term has
    no feature map, and ``features`` otherwise the terms' stacked feature
    matrix: the span testing projects instruments off.  ``eigen`` is the ridge
    eigendecomposition, thin from the features when there are any, and
    ``trace`` the greedy diagnostics (None for ridge).

    A greedy fit's ``ridge_rho`` is its last iteration's multiplier, and it
    binds when its final lk or hk norm (per ``norm_kind``) is at least
    (1 - BINDING_RTOL) * budget.  Frank-Wolfe iterates reach a boundary
    optimum only from inside: after 500 line-search steps, LinAll fits at
    n=1000 whose least-squares lk norm exceeds the budget by 9 to 20 percent
    end at 0.957 to 0.970 of it.  Slow step rules, or a least-squares norm
    within a few percent of the budget, can leave a binding fit flagged slack.
    """

    representation: str
    terms: tuple[tuple[Kernel, tuple[int, ...] | None], ...]
    coeffs: tuple[np.ndarray, ...]
    budget: float | None
    norm_kind: str
    norm_hk: float
    norm_lk: float
    ridge_rho: float
    budget_binding: bool
    anchors: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)
    trace: GreedyTrace | None = None
    gram: np.ndarray | None = field(default=None, repr=False)
    features: np.ndarray | None = field(default=None, repr=False)
    eigen: GramEigen | None = field(default=None, repr=False)

    def predict(self, x) -> np.ndarray:
        x = _as_sample(x, None)
        if x.shape[1] != self.anchors.shape[1]:
            raise ValueError(
                f"dimension mismatch: model expects {self.anchors.shape[1]} "
                f"columns, got {x.shape[1]}"
            )
        out = np.zeros(x.shape[0])
        for (kernel, sel), block in zip(self.terms, self.coeffs):
            cols = _select(x, sel)
            if self.representation == "series":
                out += kernel.feature_matrix(cols) @ block
            else:
                out += kernel.gram(cols, _select(self.anchors, sel)) @ block
        return out


def _representer_norms(terms, feats, x, a, fitted) -> tuple[float, float]:
    norm_hk = math.sqrt(max(float(a @ fitted), 0.0))
    if len(terms) == 1:
        return norm_hk, norm_hk
    norm_lk = 0.0
    for (term, sel), f_t in zip(terms, feats):
        if f_t is None:
            norm_lk += math.sqrt(max(float(a @ (term.gram(_select(x, sel)) @ a)), 0.0))
        else:
            norm_lk += float(np.linalg.norm(f_t.T @ a))
    return norm_hk, norm_lk


def fit_constrained_ridge(
    kernel: Kernel,
    x,
    y,
    *,
    budget: float | None = None,
    rho: float | None = None,
) -> AdditiveModel:
    """Square-loss kernel ridge under an RKHS-norm budget.

    Either ``budget`` (penalty solved so the norm constraint binds when
    needed) or a fixed finite ``rho`` >= 0 must be given.
    """
    if rho is not None and not 0.0 <= rho < math.inf:
        raise ValueError(f"ridge penalty rho must be finite and nonnegative, got {rho!r}")
    x, y = _finite_sample(x, y)
    terms = _term_list(kernel)
    feats = _term_features(terms, x)
    features = np.hstack(feats) if feats and all(f is not None for f in feats) else None
    gram = gram_matrix(kernel, x) if features is None else None
    eig = gram_eigen(gram, features)
    binding = False
    if rho is None:
        if budget is None:
            raise ValueError("either budget or rho is required")
        rho = solve_rho_for_budget(gram, y, budget, eig=eig)
        binding = rho > 0.0
    a = _ridge_from_eigen(eig, y, float(rho))
    fitted = eig.smooth(y, float(rho))
    norm_hk, norm_lk = _representer_norms(terms, feats, x, a, fitted)
    return AdditiveModel(
        representation="representer",
        terms=((kernel, None),),
        coeffs=(a,),
        budget=budget,
        norm_kind="hk",
        norm_hk=norm_hk,
        norm_lk=norm_lk,
        ridge_rho=float(rho),
        budget_binding=binding,
        anchors=x,
        fitted=fitted,
        gram=gram,
        features=features,
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
        if not 0.0 < self.line_search_tol < math.inf:
            raise ValueError(
                f"line_search_tol must be finite and positive, got {self.line_search_tol!r}"
            )
        if self.ridge_rho is not None and not 0.0 <= self.ridge_rho < math.inf:
            raise ValueError(
                f"ridge_rho must be finite and nonnegative, got {self.ridge_rho!r}"
            )


def line_search(objective: Callable[[float], float], tol: float = 1e-6) -> float:
    """Golden-section search for a convex objective on [0, 1].

    The returned point is snapped to an endpoint whenever the endpoint does
    at least as well, so boundary minimizers come back as exactly 0 or 1.
    ``tol`` is the final bracket width and must be finite and positive.
    A comparison certified by the objective's ``order(p, q)`` (see
    :meth:`LossSpec.segment_mean`) evaluates nothing, any other both points,
    each once; every comparison and the result are those of direct evaluation.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"line search tolerance must be finite and positive, got {tol!r}")
    order, at = getattr(objective, "order", lambda p, q: None), functools.cache(objective)

    def no_worse(p: float, q: float) -> bool:
        sign = order(p, q)
        return at(p) <= at(q) if sign is None else sign < 0

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b, c, d = 0.0, 1.0, 1.0 - invphi, invphi
    while (b - a) > tol:
        if no_worse(c, d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    best = 0.5 * (a + b)
    for t in (0.0, 1.0):  # np.argmin's rule over (mid, 0, 1): the first minimum wins
        if not no_worse(best, t):
            best = t
    return best


def _unit_direction(v: np.ndarray, q: float, n: int = 1) -> tuple[np.ndarray, float]:
    """Unit-norm direction -v / (n sqrt(q)) and its multiplier sqrt(q) / 2.

    q > 0 is the gradient's squared dual norm: a'a for series coefficients
    a = F'grad / n (with n = 1), or grad'G grad / n^2 with v = grad.
    """
    root = math.sqrt(q)
    return -v / (root * n), 0.5 * root


def _largest(qs) -> int:
    """Index of the term with the largest multiplier sqrt(max(q_t, 0)) / 2."""
    return int(np.argmax(np.sqrt(np.maximum(qs, 0.0))))


class _FeatureBlocks:
    """Terms through their stacked feature matrices F_t, with one coefficient vector.

    A step costs the single stacked product F'grad over every term's
    features; the coefficient blocks are slices of the vector.  Every
    coefficient is a combination of rows of F', so each block's Euclidean
    norm is its term's RKHS norm.
    """

    representation = "series"

    def __init__(self, n, feats):
        self.n, self.feats, self.slices = n, feats, []
        start = 0
        for f in feats:
            self.slices.append(slice(start, start + f.shape[1]))
            start += f.shape[1]
        self.stacked = np.hstack(feats) if feats else np.empty((n, 0))
        self.coeff = np.zeros(start)

    def direction(self, grad, joint: bool):
        """(picked term or -1, multiplier, fitted values of the unit direction)."""
        a = self.stacked.T @ grad / self.n
        if joint:
            picked, self.target, feats = -1, slice(None), self.stacked
            q = float(a @ a)
        else:
            qs = [float(a[sl] @ a[sl]) for sl in self.slices]
            picked = _largest(qs)
            self.target, feats, q = self.slices[picked], self.feats[picked], qs[picked]
        if q <= 0.0:
            return None
        self.unit, rho = _unit_direction(a[self.target], q)
        return picked, rho, feats @ self.unit

    def step(self, tau: float, size: float):
        self.coeff *= 1.0 - tau
        self.coeff[self.target] += size * self.unit

    def finish(self):
        """(coefficient blocks, block norms, in-sample fitted values, stacked features)."""
        coeffs = tuple(self.coeff[sl].copy() for sl in self.slices)
        fitted = np.zeros(self.n)
        for f, c in zip(self.feats, coeffs):
            fitted += f @ c
        return coeffs, np.array([np.linalg.norm(c) for c in coeffs]), fitted, self.stacked


class _GramBlocks:
    """Terms through their n x n Grams G_t, with representer weights per term.

    A step costs one product G_t grad per term.
    """

    representation = "representer_greedy"

    def __init__(self, n, grams):
        self.n, self.grams = n, grams
        self.alpha = np.zeros((n, len(grams)))

    def direction(self, grad, joint: bool):
        """(picked term or -1, multiplier, fitted values of the unit direction)."""
        n = self.n
        products = [g @ grad for g in self.grams]
        if joint:
            self.picked, w = -1, np.sum(products, axis=0)
            q = float(grad @ w) / n**2
        else:
            qs = [float(grad @ wt) / n**2 for wt in products]
            self.picked = _largest(qs)
            w, q = products[self.picked], qs[self.picked]
        if q <= 0.0:
            return None
        self.beta, rho = _unit_direction(grad, q, n)
        return self.picked, rho, w * (-1.0 / (2.0 * rho * n))

    def step(self, tau: float, size: float):
        self.alpha *= 1.0 - tau
        targets = range(len(self.grams)) if self.picked < 0 else (self.picked,)
        for t in targets:
            self.alpha[:, t] += size * self.beta

    def finish(self):
        """(coefficient blocks, block norms, in-sample fitted values, Gram).

        The norms are the exact quadratic forms; fitted values and Grams are
        summed in term order, as ``predict`` and ``CompositeKernel.gram`` sum.
        """
        coeffs = tuple(self.alpha.T)
        products = [g @ c for g, c in zip(self.grams, coeffs)]
        norms = [math.sqrt(max(float(c @ p), 0.0)) for c, p in zip(coeffs, products)]
        fitted = np.zeros(self.n)
        for p in products:
            fitted += p
        gram = self.grams[0]
        for g in self.grams[1:]:
            gram += g
        return coeffs, np.array(norms), fitted, gram


def _one_term_direction(blocks_type, grad, span, attr: str) -> tuple[np.ndarray, float]:
    """(``attr`` of the blocks, multiplier) of the greedy loop's direction on the
    single term ``span``; (0, 1) when the gradient's dual norm vanishes."""
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient vector must be finite")
    blocks = blocks_type(grad.shape[0], [span])
    found = blocks.direction(grad, joint=True)
    if found is None:
        return np.zeros(span.shape[1]), 1.0
    return getattr(blocks, attr), found[1]


def greedy_direction(grad: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-norm descent direction for one coordinate via its Gram matrix.

    The Gram-path loop's direction: representer coefficients beta (direction
    f = sum_i beta_i C(X_i, .)) and the multiplier rho.  A vanishing
    gradient-kernel quadratic form yields (0, 1).
    """
    return _one_term_direction(_GramBlocks, grad, gram, "beta")


def greedy_direction_series(
    grad: np.ndarray, scaled_features: np.ndarray
) -> tuple[np.ndarray, float]:
    """Series-form direction (O(nV)): coefficients on the scaled features.

    The feature-path loop's direction on ``scaled_features``, columns
    lambda_v phi_v(X_i); the coefficient vector has unit Euclidean norm
    (= unit RKHS norm) unless the projected gradient vanishes, giving (0, 1).
    """
    return _one_term_direction(_FeatureBlocks, grad, scaled_features, "unit")


def _step_size(rule: str, m: int, objective_1d, tol: float) -> float:
    if rule == "line_search":
        return line_search(objective_1d, tol)
    if rule == "two_over_m_plus_two":
        return 2.0 / (m + 2.0)
    return 1.0 / m


def greedy_fit(x, y, loss: LossSpec, kernels, config: FitConfig) -> AdditiveModel:
    """Frank-Wolfe greedy estimation in the lk- or hk-norm ball.

    ``kernels`` is a composite kernel or a sequence of (kernel, selector)
    terms defining the additive components.  When every term has a feature
    matrix (n, V_t) the O(nV) feature path is used, otherwise the O(n^2)
    Gram path.
    """
    if not loss.smooth:
        raise ValueError(f"greedy fitting needs a smooth loss, got {loss.kind!r}")
    x, y = _finite_sample(x, y)
    terms = _term_list(kernels)
    n, budget = x.shape[0], config.budget
    feats = _term_features(terms, x)
    finite_rank = all(f is not None for f in feats)
    if finite_rank:
        blocks = _FeatureBlocks(n, feats)
    else:
        blocks = _GramBlocks(n, [gram_matrix(k, _select(x, sel)) for k, sel in terms])
    fitted = np.zeros(n)

    coords, steps, multipliers, objectives, gaps = [], [], [], [], []
    for m in range(1, config.iterations + 1):
        grad = np.asarray(loss.deriv(1, y, fitted), dtype=float)
        found = blocks.direction(grad, config.norm_kind == "hk")
        if found is None:
            break
        picked, rho, unit = found
        delta = budget * unit - fitted
        gaps.append(float(-(grad @ delta)) / n)
        segment = loss.segment_mean(y, fitted, delta)
        tau = _step_size(config.step_rule, m, segment, config.line_search_tol)
        blocks.step(tau, tau * budget)
        fitted = fitted + tau * delta

        coords.append(picked)
        steps.append(tau)
        multipliers.append(rho)
        objectives.append(float(np.mean(loss.value(y, fitted))))

    coeffs, block_norms, in_sample, span = blocks.finish()
    norm_hk = float(np.sqrt((block_norms**2).sum()))
    norm_lk = float(block_norms.sum())
    norm = norm_lk if config.norm_kind == "lk" else norm_hk
    return AdditiveModel(
        representation=blocks.representation,
        terms=terms,
        coeffs=coeffs,
        budget=budget,
        norm_kind=config.norm_kind,
        norm_hk=norm_hk,
        norm_lk=norm_lk,
        ridge_rho=float(multipliers[-1]) if multipliers else 0.0,
        budget_binding=norm >= (1.0 - BINDING_RTOL) * budget,
        anchors=x,
        fitted=in_sample,
        trace=GreedyTrace(
            coords=np.array(coords, dtype=int),
            steps=np.array(steps),
            multipliers=np.array(multipliers),
            objectives=np.array(objectives),
            gaps=np.array(gaps),
        ),
        gram=None if finite_rank else span,
        features=span if finite_rank else None,
    )


_RIDGE_LOSSES = ("square", "rescaled_square", "absolute")  # absolute: greedy cannot fit it


def _fit_by_solver(kernel, x, y, loss: LossSpec, config: FitConfig) -> AdditiveModel:
    """The model ``config.solver`` fits on ``kernel``: greedy or closed-form ridge."""
    if config.solver == "greedy":
        return greedy_fit(x, y, loss, kernel, config)
    if loss.kind not in _RIDGE_LOSSES:
        raise ValueError(f"the ridge_closed_form solver cannot fit the {loss.kind!r} loss")
    return fit_constrained_ridge(kernel, x, y, budget=config.budget, rho=config.ridge_rho)
