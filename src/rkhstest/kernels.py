"""Covariance kernels, Gram matrices and series-feature matrices.

Kernels are immutable after construction and evaluation is pure, so the same
object can be shared freely across threads.  Every kernel knows how to

* evaluate a single pair of points (``eval``),
* build a cross Gram matrix over point sets (``gram``),
* return a feature matrix F with F F' = gram(x) (``feature_matrix``), or
  None when the kernel has infinite rank and so only a Gram.

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
    "polynomial_weights",
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


def _as_point(x, dim: int | None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"a point must be a vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(
            f"dimension mismatch: kernel expects points of length {dim}, "
            f"got {arr.shape[0]}"
        )
    return arr


def _select(x: np.ndarray, sel) -> np.ndarray:
    """Coordinates ``sel`` of a point (d,) or of a sample (n, d); None selects all."""
    if sel is None:
        return x
    if max(sel) >= x.shape[-1]:
        raise ValueError(
            f"dimension mismatch: selector {sel} needs {max(sel) + 1} "
            f"coordinates, got {x.shape[-1]}"
        )
    return x[..., list(sel)]


class Kernel:
    """Base class for positive semi-definite covariance functions."""

    def __post_init__(self):
        # a kernel's scale enters feature maps as sqrt(scale); negative is not PSD
        if getattr(self, "scale", 0.0) < 0:
            raise ValueError(f"{type(self).__name__} scale must be nonnegative, got {self.scale}")

    def eval(self, s, t) -> float:
        """Evaluate C(s, t) for a single pair of points."""
        raise NotImplementedError

    def gram(self, x, z=None) -> np.ndarray:
        """Cross Gram matrix with entries C(x_i, z_j); z defaults to x."""
        raise NotImplementedError

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

    def eval(self, s, t) -> float:
        return float(self.scale)

    def gram(self, x, z=None) -> np.ndarray:
        x = _as_sample(x, None)
        z = x if z is None else _as_sample(z, None)
        return np.full((x.shape[0], z.shape[0]), float(self.scale))

    def feature_matrix(self, x) -> np.ndarray:
        return np.full((_as_sample(x, None).shape[0], 1), math.sqrt(self.scale))


@dataclass(frozen=True)
class LinearKernel(Kernel):
    """C(s, t) = scale * <s, t>."""

    scale: float = 1.0

    def eval(self, s, t) -> float:
        s = _as_point(s, None)
        t = _as_point(t, None)
        if s.shape != t.shape:
            raise ValueError("dimension mismatch between points")
        return float(self.scale * np.dot(s, t))

    def gram(self, x, z=None) -> np.ndarray:
        x = _as_sample(x, None)
        z = x if z is None else _as_sample(z, None)
        if x.shape[1] != z.shape[1]:
            raise ValueError("dimension mismatch between point sets")
        return self.scale * (x @ z.T)

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

    def eval(self, s, t) -> float:
        s = _as_point(s, None)
        t = _as_point(t, None)
        if s.shape != t.shape:
            raise ValueError("dimension mismatch between points")
        d2 = float(np.sum((s - t) ** 2))
        return self.scale * math.exp(-0.5 * d2 / self.lengthscale**2)

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

    def _phi(self, values: np.ndarray) -> np.ndarray:
        cols = [values**v for v in range(1, self.n_terms + 1)]
        return np.column_stack(cols) if cols else np.empty((values.shape[0], 0))

    def feature_matrix(self, x) -> np.ndarray:
        """Scaled feature matrix with entries lambda_v phi_v(x_i), (n, V)."""
        return self._phi(_as_sample(x, 1)[:, 0]) * np.sqrt(np.asarray(self.weights))

    def eval(self, s, t) -> float:
        s = _as_point(s, 1)
        t = _as_point(t, 1)
        w = np.asarray(self.weights)
        phis = self._phi(s)[0]
        phit = self._phi(t)[0]
        # phi(s)*phi(t) first keeps the evaluation symmetric bit-for-bit
        return float(np.dot(w, phis * phit))

    def gram(self, x, z=None) -> np.ndarray:
        fx = self.feature_matrix(x)
        fz = fx if z is None else self.feature_matrix(z)
        g = fx @ fz.T
        if z is None:
            g = (g + g.T) / 2.0
        return g


def polynomial_weights(n_terms: int, decay: float = 2.2) -> tuple[float, ...]:
    """Weights w_v = v^(-decay), v = 1..V."""
    return tuple(float(v) ** (-decay) for v in range(1, n_terms + 1))


def polynomial_series(n_terms: int, decay: float = 2.2) -> SeriesKernel:
    """Series form of the polynomial kernel sum_v v^(-decay) (s t)^v."""
    return SeriesKernel(polynomial_weights(n_terms, decay))


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

    def eval(self, s, t) -> float:
        s = float(_as_point(s, 1)[0])
        t = float(_as_point(t, 1)[0])
        for name, r in (("s", s), ("t", t)):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name}={r} outside the kernel domain [0, 1]")
        return float(_integrated_brownian(self.order, s, t))

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
        norm = []
        for kernel, sel in self.terms:
            if sel is not None:
                sel = tuple(int(i) for i in sel)
            norm.append((kernel, sel))
        object.__setattr__(self, "terms", tuple(norm))

    def eval(self, s, t) -> float:
        s = _as_point(s, None)
        t = _as_point(t, None)
        total = 0.0
        for kernel, sel in self.terms:
            total += kernel.eval(_select(s, sel), _select(t, sel))
        return total

    def gram(self, x, z=None) -> np.ndarray:
        x = _as_sample(x, None)
        z2 = x if z is None else _as_sample(z, None)
        total = np.zeros((x.shape[0], z2.shape[0]))
        for kernel, sel in self.terms:
            total += kernel.gram(_select(x, sel), _select(z2, sel))
        return total

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


def _require_finite(g: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite kernel value in Gram matrix (domain violation?)")
    return g


def gram_matrix(kernel: Kernel, x) -> np.ndarray:
    """Gram matrix over a point sample; raises on non-finite entries."""
    return _require_finite(kernel.gram(x))


_CONFIG_KINDS = (
    "constant",
    "linear",
    "gaussian_rbf",
    "polynomial",
    "integrated_brownian",
    "sum",
)


def kernel_from_config(spec) -> Kernel:
    """Build a kernel from a nested config mapping.

    Supported kinds: constant, linear, gaussian_rbf, polynomial,
    integrated_brownian, and sum (a list of term specs).  Any term may carry
    ``coords``, a list of coordinate indices the kernel is applied to.
    """
    if isinstance(spec, list):
        spec = {"kind": "sum", "terms": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"kernel spec must be a mapping or list, got {type(spec)!r}")
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
        parts = []
        for term in terms:
            built = kernel_from_config(term)
            if isinstance(built, CompositeKernel):
                parts.extend(built.terms)
            else:
                parts.append((built, None))
        kernel: Kernel = CompositeKernel(tuple(parts))
    elif kind == "constant":
        kernel = ConstantKernel(scale=float(spec.pop("scale", 1.0)))
    elif kind == "linear":
        kernel = LinearKernel(scale=float(spec.pop("scale", 1.0)))
    elif kind == "gaussian_rbf":
        kernel = GaussianRBF(
            lengthscale=float(spec.pop("lengthscale", 1.0)),
            scale=float(spec.pop("scale", 1.0)),
        )
    elif kind == "polynomial":
        if "weights" in spec:
            clash = sorted({"degree", "decay"} & set(spec))
            if clash:
                raise ValueError(
                    f"polynomial kernel takes 'weights' or {clash[0]!r}, not both"
                )
            weights = tuple(float(w) for w in spec.pop("weights"))
        else:
            weights = polynomial_weights(
                int(spec.pop("degree", 10)), float(spec.pop("decay", 2.2))
            )
        kernel = SeriesKernel(weights)
    elif kind == "integrated_brownian":
        kernel = IntegratedBrownianKernel(order=int(spec.pop("order", 1)))
    else:
        raise ValueError(
            f"unknown kernel kind {kind!r}; expected one of {_CONFIG_KINDS}"
        )
    if spec:
        raise ValueError(f"unknown kernel config key {sorted(spec)[0]!r}")
    if coords is not None:
        kernel = CompositeKernel(((kernel, tuple(int(c) for c in coords)),))
    return kernel
