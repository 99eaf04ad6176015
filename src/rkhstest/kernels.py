"""Covariance kernels, Gram matrices and series-feature matrices.

Kernels are immutable after construction and evaluation is pure, so the same
object can be shared freely across threads.  Every kernel gives

* a cross Gram matrix over point sets (``gram``); a single value C(s, t) is
  ``gram`` on two 1-row samples,
* a feature matrix F with F F' = gram(x) (``feature_matrix``), or None when
  the kernel has infinite rank and so only a Gram.

A finite-rank kernel defines only ``feature_matrix``; the base class forms
its Gram as F(x) F(z)'.  A kernel with no feature map overrides ``gram``.

Points are real vectors; a sample is an ``(n, d)`` array.  The univariate
kernels (series and integrated Brownian) take one coordinate, as an ``(n,)``
or ``(n, 1)`` array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "ConstantKernel",
    "LinearKernel",
    "GaussianRBF",
    "SeriesKernel",
    "IntegratedBrownianKernel",
    "CompositeKernel",
    "additive_kernel",
    "polynomial_series",
    "gram_matrix",
    "kernel_from_config",
]


def _as_sample(x, dim: int | None) -> np.ndarray:
    """Coerce ``x`` to an (n, d) float array, validating the width."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[:, None]  # a column of scalar points
    if arr.ndim != 2:
        raise ValueError(f"points must form an (n, d) array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: kernel expects points of length {dim}, "
            f"got {arr.shape[1]}"
        )
    return arr


def _select(x: np.ndarray, sel) -> np.ndarray:
    """Coordinates ``sel`` of a sample (n, d); None selects all."""
    if sel is None:
        return x
    if max(sel) >= x.shape[1]:
        raise ValueError(
            f"dimension mismatch: selector {sel} needs {max(sel) + 1} "
            f"coordinates, got {x.shape[1]}"
        )
    return x[:, list(sel)]


class Kernel:
    """Base class for positive semi-definite covariance functions."""

    def __post_init__(self):
        # a kernel's scale enters feature maps as sqrt(scale); negative is not PSD
        if getattr(self, "scale", 0.0) < 0:
            raise ValueError(f"{type(self).__name__} scale must be nonnegative, got {self.scale}")

    def gram(self, x, z=None) -> np.ndarray:
        """Cross Gram matrix with entries C(x_i, z_j); z defaults to x.

        A new array each call, which the caller may modify in place.  This
        rule forms F(x) F(z)' from ``feature_matrix``; a kernel with no
        feature map overrides it.
        """
        fx = self.feature_matrix(x)
        if fx is None:
            raise NotImplementedError(f"{type(self).__name__} has no feature map and no gram")
        fz = fx if z is None else self.feature_matrix(z)
        if fx.shape[1] != fz.shape[1]:
            raise ValueError("dimension mismatch between point sets")
        return fx @ fz.T  # fx @ fx.T is a symmetric product, so gram(x) is exactly symmetric

    def feature_matrix(self, x) -> np.ndarray | None:
        """Matrix F with F F' = gram(x), or None: the kernel has only a Gram."""
        return None

    def __add__(self, other: "Kernel") -> "CompositeKernel":
        terms = []
        for k in (self, other):
            terms.extend(k.terms if isinstance(k, CompositeKernel) else [(k, None)])
        return CompositeKernel(tuple(terms))


@dataclass(frozen=True)
class ConstantKernel(Kernel):
    """C(s, t) = scale."""

    scale: float = 1.0

    def feature_matrix(self, x) -> np.ndarray:
        return np.full((_as_sample(x, None).shape[0], 1), math.sqrt(self.scale))


@dataclass(frozen=True)
class LinearKernel(Kernel):
    """C(s, t) = scale * <s, t>."""

    scale: float = 1.0

    def feature_matrix(self, x) -> np.ndarray:
        return math.sqrt(self.scale) * _as_sample(x, None)


@dataclass(frozen=True)
class GaussianRBF(Kernel):
    """C(s, t) = scale * exp{-sum_j (s_j - t_j)^2 / (2 a^2)} with lengthscale a.

    The rate form exp{-r * |s - t|^2} corresponds to a = 1 / sqrt(2 r).
    """

    lengthscale: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise ValueError("lengthscale must be positive")
        super().__post_init__()

    def gram(self, x, z=None) -> np.ndarray:
        x = _as_sample(x, None)
        z = x if z is None else _as_sample(z, None)
        if x.shape[1] != z.shape[1]:
            raise ValueError("dimension mismatch between point sets")
        # |x|^2 + |z|^2 - 2 x.z, then scale * exp(-0.5 d2 / a^2), each
        # operation in place so that at most two n-by-m buffers are live
        d2 = np.sum(x**2, axis=1)[:, None] + np.sum(z**2, axis=1)[None, :]
        cross = x @ z.T
        cross *= 2.0
        d2 -= cross
        del cross
        np.clip(d2, 0.0, None, out=d2)
        d2 *= -0.5
        d2 /= self.lengthscale**2
        np.exp(d2, out=d2)
        d2 *= self.scale
        return d2


@dataclass(frozen=True)
class SeriesKernel(Kernel):
    """Polynomial series kernel C(s, t) = sum_v w_v (s t)^v on one coordinate.

    ``weights`` holds the w_v = lambda_v^2, v = 1..V (positive, typically
    descending); feature v is the monomial u^v.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if any(w <= 0 for w in self.weights):
            raise ValueError("series weights must be positive")

    @property
    def n_terms(self) -> int:
        return len(self.weights)

    def feature_matrix(self, x) -> np.ndarray:
        """Scaled feature matrix with entries lambda_v phi_v(x_i), (n, V)."""
        values = _as_sample(x, 1)[:, 0]
        cols = [values**v for v in range(1, self.n_terms + 1)]
        phi = np.column_stack(cols) if cols else np.empty((values.shape[0], 0))
        return phi * np.sqrt(np.asarray(self.weights))


def polynomial_series(n_terms: int, decay: float = 2.2) -> SeriesKernel:
    """Series form of the polynomial kernel sum_v v^(-decay) (s t)^v."""
    return SeriesKernel(tuple(float(v) ** (-decay) for v in range(1, n_terms + 1)))


def _integrated_brownian(order: int, s, t):
    # with m = min(s, t), d = |t - s| and k = V - 1, the integral of
    # (m - u)^k (m + d - u)^k over [0, m] expands binomially into
    # sum_j C(k, j) d^(k-j) m^(k+j+1) / (k+j+1); every term is nonnegative
    m, d, k = np.minimum(s, t), np.abs(t - s), order - 1
    total = sum(
        math.comb(k, j) * d ** (k - j) * m ** (k + j + 1) / (k + j + 1)
        for j in range(k + 1)
    )
    return total / math.factorial(k) ** 2


@dataclass(frozen=True)
class IntegratedBrownianKernel(Kernel):
    """V-fold integrated Brownian motion covariance on [0, 1]: the integral over
    [0, 1] of G_V(s, u) G_V(t, u), G_V(r, u) = (r - u)^(V-1)/(V-1)! for u <= r, else 0."""

    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")

    def gram(self, x, z=None) -> np.ndarray:
        x = _as_sample(x, 1)
        z = x if z is None else _as_sample(z, 1)
        u, v = x[:, 0], z[:, 0]
        if np.any(u < 0) or np.any(u > 1) or np.any(v < 0) or np.any(v > 1):
            raise ValueError("points outside the kernel domain [0, 1]")
        return _integrated_brownian(self.order, u[:, None], v[None, :])


@dataclass(frozen=True)
class CompositeKernel(Kernel):
    """Sum of kernels applied to coordinate slices of the input points.

    ``terms`` is a sequence of (kernel, selector) pairs where the selector
    is a tuple of coordinate indices; ``None`` selects the full vector.
    """

    terms: tuple[tuple[Kernel, tuple[int, ...] | None], ...]

    def __post_init__(self):
        terms = tuple((k, None if sel is None else tuple(map(int, sel))) for k, sel in self.terms)
        object.__setattr__(self, "terms", terms)

    def gram(self, x, z=None) -> np.ndarray:
        return self.gram_and_terms(x, z)[0]

    def gram_and_terms(self, x, z=None, keep=()) -> tuple[np.ndarray, list]:
        """The Gram, and per term its Gram if its index is in ``keep`` (else None)."""
        x = _as_sample(x, None)
        z2 = x if z is None else _as_sample(z, None)
        total, kept = None, []
        for i, (kernel, sel) in enumerate(self.terms):
            g = kernel.gram(_select(x, sel), _select(z2, sel))
            kept.append(g if i in keep else None)
            if total is None:  # no separate buffer: the sum starts from the first Gram
                total = g.copy() if i in keep else g
            else:
                total += g
            del g  # so the next term's Gram is built with this one freed
        if total is None:
            total = np.zeros((x.shape[0], z2.shape[0]))
        return total, kept

    def feature_matrix(self, x) -> np.ndarray | None:
        """The terms' feature blocks side by side; None if a term has none."""
        x = _as_sample(x, None)
        blocks = [k.feature_matrix(_select(x, sel)) for k, sel in self.terms]
        if not blocks or any(b is None for b in blocks):
            return None
        return np.hstack(blocks)


def additive_kernel(base: Kernel, n_coords: int) -> CompositeKernel:
    """Additive kernel applying ``base`` to each of the first K coordinates."""
    return CompositeKernel(tuple((base, (k,)) for k in range(n_coords)))


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite; found NaN or inf")


def gram_matrix(kernel: Kernel, x) -> np.ndarray:
    """Gram matrix over a point sample; raises on non-finite entries."""
    g = kernel.gram(x)
    _check_finite("Gram", g)
    return g


# config kind -> (constructor, its config keys with their defaults, in argument
# order); each value is converted by the type of its default
_CONFIG_KINDS = {
    "constant": (ConstantKernel, {"scale": 1.0}),
    "linear": (LinearKernel, {"scale": 1.0}),
    "gaussian_rbf": (GaussianRBF, {"lengthscale": 1.0, "scale": 1.0}),
    "polynomial": (polynomial_series, {"degree": 10, "decay": 2.2}),
    "integrated_brownian": (IntegratedBrownianKernel, {"order": 1}),
}


def kernel_from_config(spec) -> Kernel:
    """Build a kernel from a nested config mapping.

    Supported kinds: constant, linear, gaussian_rbf, polynomial,
    integrated_brownian, and sum (a list of term specs).  Any term may carry
    ``coords``, a list of coordinate indices the kernel is applied to.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"kernel spec must be a mapping, got {type(spec)!r}")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind is None:
        raise ValueError("kernel spec is missing the 'kind' key")
    coords = spec.pop("coords", None)

    if kind == "sum":
        terms = spec.pop("terms", None)
        if spec:
            raise ValueError(f"unknown kernel config key {sorted(spec)[0]!r}")
        if not terms:
            raise ValueError("sum kernel needs a non-empty 'terms' list")
        kernel: Kernel = sum(map(kernel_from_config, terms), CompositeKernel(()))
    elif isinstance(kind, str) and kind in _CONFIG_KINDS:
        make, defaults = _CONFIG_KINDS[kind]
        kernel = make(*(type(d)(spec.pop(key, d)) for key, d in defaults.items()))
    else:
        raise ValueError(
            f"unknown kernel kind {kind!r}; expected one of {(*_CONFIG_KINDS, 'sum')}"
        )
    if spec:
        raise ValueError(f"unknown kernel config key {sorted(spec)[0]!r}")
    if coords is not None:
        kernel = CompositeKernel(((kernel, tuple(int(c) for c in coords)),))
    return kernel
