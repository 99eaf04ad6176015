"""Loss functions with pointwise derivatives up to third order.

Each loss is a pure, stateless :class:`LossSpec`; ``value`` and ``deriv``
broadcast over numpy arrays of responses and fitted values.  Derivatives are
taken in the fitted value t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LossSpec",
    "square_loss",
    "rescaled_square_loss",
    "poisson_loss",
    "logistic_loss",
    "duration_loss",
    "loss_by_name",
    "LOSS_NAMES",
]


@dataclass(frozen=True)
class LossSpec:
    """A smooth loss L(z, t) with analytic t-derivatives of orders 1 to 3."""

    kind: str
    _value: Callable
    _derivs: tuple[Callable, Callable, Callable]
    _check_y: Callable | None = None
    _square_scale: float | None = None  # κ when L = κ(y − t)²; only these fit by ridge

    def _validate(self, y):
        if self._check_y is not None:
            self._check_y(np.asarray(y))

    def value(self, y, t):
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("fitted value t must be finite")
        self._validate(y)
        return self._value(y, t)

    def segment_mean(self, y, start, delta) -> Callable[[float], float]:
        """The 1-D objective t -> mean L(y, start + t * delta) on [0, 1].

        The checks of :meth:`value` run once here, not once per evaluation:
        y's domain check, and finiteness of the segment's ends ``start`` and
        ``start + delta`` (every point between two finite ends is finite).
        Each evaluation returns exactly ``float(np.mean(self.value(...)))``,
        since ``np.mean`` is the same ``add.reduce`` and the same division.

        For L = κ(y − t)² it also has ``order(p, q)``, the sign of objective(p) −
        objective(q), or None when rounding could flip it.  Exactly, the mean is
        q(t) = k0 + t(k1 + t·k2) (r = y − start, k0 = κΣr²/n, k1 = −2κΣrδ/n,
        k2 = κΣδ²/n) and D = (p − q)(k1 + (p + q)k2).  Let u = 2⁻⁵³, m = |r| + |δ|,
        w = m + |start| + 2|δ| and t in [0, 1].  A computed residual is within u·w,
        its square within 2u·w(m + u·w); numpy's pairwise sum adds each term at most
        h = log2 n + 18 times; so an evaluation is within u((h + 2)q + E), where
        E = 2κΣw(m + u·w)/n ≥ 2(k0 + |k1| + k2), and dot products leave the computed
        D within (n + 6)u·E·|p − q|.  order needs |D| > B, twice the sum of these
        bounds at p and q (q from the computed k) plus 2⁻¹⁰⁶⁰ for underflow; the 2
        covers terms of order u².  Overflow makes B infinite: order says None.
        """
        y, start, delta = (np.asarray(a, dtype=float) for a in (y, start, delta))
        if not (np.isfinite(start).all() and np.isfinite(start + delta).all()):
            raise ValueError("fitted value t must be finite")
        self._validate(y)
        value, total = self._value, np.add.reduce
        n = np.broadcast(y, start, delta).size

        def objective(t: float) -> float:
            return float(total(value(y, start + t * delta), axis=None) / n)

        if self._square_scale is None:
            return objective
        kappa, u, r, s, d = self._square_scale, 2.0**-53, y - start, start, delta
        if not r.shape == s.shape == d.shape == (n,):
            r, s, d = (np.ravel(a) for a in np.broadcast_arrays(r, s, d))
        abs_d = np.abs(d)
        m = np.abs(r) + abs_d
        w = m + np.abs(s) + 2.0 * abs_d
        k0, k1, k2 = (kappa * float(a @ b) / n for a, b in ((r, r), (r, d), (d, d)))
        e = 2.0 * kappa * float(w @ (m + u * w)) / n
        per_level, per_gap = 2.0 * (math.log2(n) + 20.0) * u, 2.0 * (n + 6) * u * e
        floor, k1 = 4.0 * u * e + 2.0**-1060, -2.0 * k1

        def order(p: float, q: float) -> int | None:
            gap, both = p - q, p + q
            diff = gap * (k1 + both * k2)
            level = 2.0 * k0 + both * k1 + (p * p + q * q) * k2
            certain = abs(diff) > floor + per_level * level + per_gap * abs(gap)
            return (1 if diff > 0.0 else -1) if certain else None

        objective.order = order
        return objective

    def deriv(self, order: int, y, t):
        if order not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        self._validate(y)
        return self._derivs[order - 1](y, t)


def _square(kind: str, kappa: float) -> LossSpec:
    """L = kappa (y - t)^2, with derivatives 2 kappa (t - y), 2 kappa and 0."""
    return LossSpec(
        kind=kind,
        _value=lambda y, t: kappa * (y - t) ** 2,
        _derivs=(
            lambda y, t: 2.0 * kappa * (t - y),
            lambda y, t: np.full(np.broadcast(y, t).shape, 2.0 * kappa),
            lambda y, t: np.zeros(np.broadcast(y, t).shape),
        ),
        _square_scale=kappa,
    )


def square_loss() -> LossSpec:
    """L = (y - t)^2; second derivative is identically 2."""
    return _square("square", 1.0)


def rescaled_square_loss() -> LossSpec:
    """L = (y - t)^2 / 2, scaled so the second derivative is identically 1.

    With this scaling the generalized residual is -(y - t) and the projection
    weights are all one, which is the convention the simulation harness uses.
    """
    return _square("rescaled_square", 0.5)


def _check_poisson_y(y):
    if np.any(y < 0) or not np.all(np.isfinite(y)):
        raise ValueError("poisson_count loss needs nonnegative counts y")


def poisson_loss() -> LossSpec:
    """Poisson negative log-likelihood L = e^t - y t (up to a constant)."""
    return LossSpec(
        kind="poisson_count",
        _value=lambda y, t: np.exp(t) - y * t,
        _derivs=(
            lambda y, t: np.exp(t) - y,
            lambda y, t: np.exp(t) * np.ones(np.broadcast(y, t).shape),
            lambda y, t: np.exp(t) * np.ones(np.broadcast(y, t).shape),
        ),
        _check_y=_check_poisson_y,
    )


def _check_logistic_y(y):
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("logistic loss needs labels y in {-1, +1}")


def logistic_loss() -> LossSpec:
    """Binary classification loss L = ln(1 + e^{-y t}), y in {-1, +1}."""

    @np.errstate(over="ignore")  # e^{-u} overflows to inf for u < -709, and the sigmoid to 0
    def sigmoid(u):
        return 1.0 / (1.0 + np.exp(-u))

    def d1(y, t):
        return -y * sigmoid(-y * t)

    def d2(y, t):
        s = sigmoid(-y * t)
        return s * (1.0 - s) * np.ones(np.broadcast(y, t).shape)

    def d3(y, t):
        s = sigmoid(-y * t)
        return -y * s * (1.0 - s) * (1.0 - 2.0 * s)

    return LossSpec(
        kind="logistic",
        _value=lambda y, t: np.logaddexp(0.0, -y * t),
        _derivs=(d1, d2, d3),
        _check_y=_check_logistic_y,
    )


def _check_duration_y(y):
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise ValueError("duration_hazard loss needs positive durations y")


def duration_loss() -> LossSpec:
    """Duration negative log-likelihood L = y e^t - t, y > 0."""
    return LossSpec(
        kind="duration_hazard",
        _value=lambda y, t: y * np.exp(t) - t,
        _derivs=(
            lambda y, t: y * np.exp(t) - 1.0,
            lambda y, t: y * np.exp(t),
            lambda y, t: y * np.exp(t),
        ),
        _check_y=_check_duration_y,
    )


_FACTORIES = {
    "square": square_loss,
    "rescaled_square": rescaled_square_loss,
    "poisson_count": poisson_loss,
    "logistic": logistic_loss,
    "duration_hazard": duration_loss,
}

LOSS_NAMES = tuple(sorted(_FACTORIES))


def loss_by_name(name: str) -> LossSpec:
    """Look up a loss by its config name."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown loss {name!r}; expected one of {LOSS_NAMES}"
        ) from None
