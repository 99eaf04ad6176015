"""Loss functions with pointwise derivatives up to third order.

Each loss is a pure, stateless :class:`LossSpec`; ``value`` and ``deriv``
broadcast over numpy arrays of responses and fitted values.  Derivatives are
taken in the fitted value t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

__all__ = [
    "LossSpec",
    "square_loss",
    "rescaled_square_loss",
    "poisson_loss",
    "logistic_loss",
    "duration_loss",
    "absolute_loss",
    "loss_by_name",
    "LOSS_NAMES",
]


@dataclass(frozen=True)
class LossSpec:
    """A loss L(z, t) with analytic t-derivatives.

    ``smooth`` is False only for the absolute loss, whose first derivative
    follows the residual-sign convention 2*1{y - t >= 0} - 1 (so it is +1 at
    the kink and is the negative of the analytic derivative where L is
    differentiable; the test statistic is invariant to that global sign).
    """

    kind: str
    smooth: bool
    _value: Callable
    _derivs: tuple[Callable | None, Callable | None, Callable | None]
    _check_y: Callable | None = None

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
        """
        y = np.asarray(y, dtype=float)
        start = np.asarray(start, dtype=float)
        delta = np.asarray(delta, dtype=float)
        if not (np.all(np.isfinite(start)) and np.all(np.isfinite(start + delta))):
            raise ValueError("fitted value t must be finite")
        self._validate(y)
        value, total = self._value, np.add.reduce
        n = np.broadcast(y, start, delta).size

        def objective(t: float) -> float:
            return float(total(value(y, start + t * delta), axis=None) / n)

        return objective

    def deriv(self, order: int, y, t):
        if order not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        fn = self._derivs[order - 1]
        if fn is None:
            raise ValueError(
                f"order-{order} derivative unavailable for the {self.kind} loss "
                "(non-smooth; only the sign-convention first derivative exists)"
            )
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        self._validate(y)
        return fn(y, t)


def square_loss() -> LossSpec:
    """L = (y - t)^2; second derivative is identically 2."""
    return LossSpec(
        kind="square",
        smooth=True,
        _value=lambda y, t: (y - t) ** 2,
        _derivs=(
            lambda y, t: -2.0 * (y - t),
            lambda y, t: np.full(np.broadcast(y, t).shape, 2.0),
            lambda y, t: np.zeros(np.broadcast(y, t).shape),
        ),
    )


def rescaled_square_loss() -> LossSpec:
    """L = (y - t)^2 / 2, scaled so the second derivative is identically 1.

    With this scaling the generalized residual is -(y - t) and the projection
    weights are all one, which is the convention the simulation harness uses.
    """
    return LossSpec(
        kind="rescaled_square",
        smooth=True,
        _value=lambda y, t: 0.5 * (y - t) ** 2,
        _derivs=(
            lambda y, t: t - y,
            lambda y, t: np.ones(np.broadcast(y, t).shape),
            lambda y, t: np.zeros(np.broadcast(y, t).shape),
        ),
    )


def _check_poisson_y(y):
    if np.any(y < 0) or not np.all(np.isfinite(y)):
        raise ValueError("poisson_count loss needs nonnegative counts y")


def poisson_loss() -> LossSpec:
    """Poisson negative log-likelihood L = e^t - y t (up to a constant)."""
    return LossSpec(
        kind="poisson_count",
        smooth=True,
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

    def d1(y, t):
        return -y * expit(-y * t)

    def d2(y, t):
        s = expit(-y * t)
        return s * (1.0 - s) * np.ones(np.broadcast(y, t).shape)

    def d3(y, t):
        s = expit(-y * t)
        return -y * s * (1.0 - s) * (1.0 - 2.0 * s)

    return LossSpec(
        kind="logistic",
        smooth=True,
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
        smooth=True,
        _value=lambda y, t: y * np.exp(t) - t,
        _derivs=(
            lambda y, t: y * np.exp(t) - 1.0,
            lambda y, t: y * np.exp(t),
            lambda y, t: y * np.exp(t),
        ),
        _check_y=_check_duration_y,
    )


def absolute_loss() -> LossSpec:
    """Absolute loss L = |y - t|; only the first derivative is exposed."""
    return LossSpec(
        kind="absolute",
        smooth=False,
        _value=lambda y, t: np.abs(y - t),
        _derivs=(
            lambda y, t: 2.0 * (np.asarray(y - t) >= 0.0) - 1.0,
            None,
            None,
        ),
    )


_FACTORIES = {
    "square": square_loss,
    "rescaled_square": rescaled_square_loss,
    "poisson_count": poisson_loss,
    "poisson": poisson_loss,
    "logistic": logistic_loss,
    "duration_hazard": duration_loss,
    "duration": duration_loss,
    "absolute": absolute_loss,
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
