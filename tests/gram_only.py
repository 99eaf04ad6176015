"""Test-local kernels with a Gram but no feature map.

``greedy_fit`` takes its Gram path, and ``fit_constrained_ridge`` its n x n
``eigh``, exactly when some term's ``feature_matrix`` is None, so these
kernels force those paths on terms the library would fit through features.
"""

from dataclasses import dataclass

import numpy as np

from rkhstest.kernels import Kernel, _as_sample


@dataclass(frozen=True)
class HornerPolynomial(Kernel):
    """C(s, t) = sum_v w_v (s t)^v on scalars, evaluated by Horner's scheme.

    The closed form the polynomial series kernels are checked against.
    """

    weights: tuple

    def _horner(self, p):
        acc = np.zeros_like(p)
        for w in reversed(self.weights):
            acc = (acc + w) * p
        return acc

    def eval(self, s, t) -> float:
        return float(self._horner(np.asarray(float(s) * float(t))))

    def gram(self, x, z=None) -> np.ndarray:
        x = _as_sample(x, 1)
        z = x if z is None else _as_sample(z, 1)
        return self._horner(x[:, 0][:, None] * z[:, 0][None, :])


@dataclass(frozen=True)
class GramOnly(Kernel):
    """``inner`` with its Gram and evaluation but without its feature map."""

    inner: Kernel

    def eval(self, s, t) -> float:
        return self.inner.eval(s, t)

    def gram(self, x, z=None) -> np.ndarray:
        return self.inner.gram(x, z)
