"""Covariance kernels: construction, composition, Gram matrices, features.

Walks through the kernel zoo, checks positive semi-definiteness on random
samples, and shows that the truncated series expansion of the polynomial
kernel reproduces its closed form exactly.  Finite-rank kernels return a
feature matrix F with F F' equal to their Gram; infinite-rank ones return
None.
"""

import numpy as np

from rkhstest import (
    CompositeKernel,
    ConstantKernel,
    GaussianRBF,
    IntegratedBrownianKernel,
    LinearKernel,
    PolynomialKernel,
    additive_kernel,
    gram_matrix,
    integrated_brownian_eval,
    polynomial_series,
    polynomial_weights,
)

rng = np.random.default_rng(11)

print("=== closed-form kernels ===")
rbf = GaussianRBF(lengthscale=0.75, scale=0.5)
lin = LinearKernel(1.0)
print(f"RBF(0.3, 0.9)    = {rbf.eval(0.3, 0.9):.6f}")
print(f"linear(0.5, 0.4) = {lin.eval(0.5, 0.4):.6f}")
print(f"Brownian-type H_1(0.3, 0.7) = {integrated_brownian_eval(1, 0.3, 0.7):.6f} (= min)")
print(f"Brownian-type H_2(1, 1)     = {integrated_brownian_eval(2, 1.0, 1.0):.6f} (= 1/3)")

print("\n=== series expansion vs closed form ===")
series = polynomial_series(10, decay=2.2)   # weights v^-2.2 on (s t)^v
closed = PolynomialKernel(polynomial_weights(10, 2.2))
s, t = 0.8, -1.3
print(f"series {series.eval(s, t):+.12f}  vs closed {closed.eval(s, t):+.12f}")

x = rng.uniform(-2, 2, (6, 1))
feats = series.feature_matrix(x)             # entries lambda_v phi_v(x_i)
gram_from_features = feats @ feats.T
print("max |F F' - Gram| =", np.abs(gram_from_features - closed.gram(x)).max())

print("\n=== additive composition and PSD ===")
additive = additive_kernel(series, 4)        # sum over four coordinates
sample = rng.uniform(-2, 2, (20, 4))
gram = gram_matrix(additive, sample)
eigvals = np.linalg.eigvalsh(gram)
print(f"additive Gram 20x20: min eig = {eigvals.min():.3e}, trace = {np.trace(gram):.3f}")
print("symmetric:", np.array_equal(gram, gram.T))

print("\n=== a null/alternative split ===")
# linear null on two coordinates vs a universal alternative on the pair
r0 = CompositeKernel(((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1))))
r1 = CompositeKernel(((GaussianRBF(0.75, 0.5), (0, 1)),))
pts = rng.uniform(-2, 2, (12, 2))
for name, kern in (("C_R0", r0), ("C_R1", r1), ("sum", r0 + r1)):
    g = gram_matrix(kern, pts)
    print(f"{name}: min eig / trace = {np.linalg.eigvalsh(g).min() / np.trace(g):+.2e}")
f0 = r0.feature_matrix(pts)                  # columns sqrt(0.5) * (1, s1, s2)
print(f"C_R0 feature map: {f0.shape[1]} columns, max |F F' - Gram| = "
      f"{np.abs(f0 @ f0.T - r0.gram(pts)).max():.1e}")
print("C_R1 feature map:", r1.feature_matrix(pts), "(infinite rank, Gram only)")
