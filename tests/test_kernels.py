"""Kernel evaluation, Gram construction and series features."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from gram_only import HornerPolynomial
from rkhstest.inference import build_instruments, series_feature_columns
from rkhstest.kernels import (
    CompositeKernel,
    ConstantKernel,
    GaussianRBF,
    IntegratedBrownianKernel,
    LinearKernel,
    SeriesKernel,
    additive_kernel,
    gram_matrix,
    kernel_from_config,
    polynomial_series,
    polynomial_weights,
)

RNG = np.random.default_rng(1234)

ALL_SCALAR_KERNELS = [
    LinearKernel(1.0),
    GaussianRBF(lengthscale=0.75, scale=0.5),
    HornerPolynomial(polynomial_weights(10, 2.2)),
    polynomial_series(10, 2.2),
    IntegratedBrownianKernel(order=1),
    IntegratedBrownianKernel(order=2),
]


class TestEval:
    def test_rbf_diagonal_is_one(self):
        k = GaussianRBF(lengthscale=1.0)
        s = np.array([0.3, -1.2])
        assert k.eval(s, s) == 1.0

    def test_linear_product(self):
        assert LinearKernel(1.0).eval(0.5, 0.4) == pytest.approx(0.20)

    def test_polynomial_partial_sum_at_one(self):
        # direct-summation oracle for sum_v v^-2.2 (s t)^v at s = t = 1
        oracle = sum(v**-2.2 * (1.0 * 1.0) ** v for v in range(1, 11))
        assert oracle == pytest.approx(1.4410028461622895, rel=1e-15)
        assert polynomial_series(10, 2.2).eval(1.0, 1.0) == pytest.approx(
            oracle, rel=1e-12
        )
        assert HornerPolynomial(polynomial_weights(10, 2.2)).eval(
            1.0, 1.0
        ) == pytest.approx(oracle, rel=1e-12)

    def test_dimension_mismatch(self):
        k = GaussianRBF()
        with pytest.raises(ValueError, match="dimension mismatch"):
            k.eval(np.array([1.0, 2.0]), np.array([1.0]))
        comp = CompositeKernel(((LinearKernel(), (2,)),))
        with pytest.raises(ValueError, match="dimension mismatch"):
            comp.eval(np.array([1.0]), np.array([1.0]))


class TestGram:
    def test_single_point(self):
        k = GaussianRBF(lengthscale=0.5)
        x = np.array([[0.7]])
        g = gram_matrix(k, x)
        assert g.shape == (1, 1)
        assert g[0, 0] == k.eval(x[0], x[0])

    def test_linear_outer_product(self):
        g = gram_matrix(LinearKernel(1.0), np.array([1.0, 2.0]))
        assert np.array_equal(g, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_rbf_matches_pairwise_eval(self):
        k = GaussianRBF(lengthscale=0.9, scale=1.3)
        x = RNG.uniform(-2, 2, (5, 3))
        g = gram_matrix(k, x)
        for i in range(5):
            for j in range(5):
                assert g[i, j] == pytest.approx(k.eval(x[i], x[j]), rel=1e-12)

    def test_nonfinite_entries_rejected(self):
        x = np.array([1e200, 1e200])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            gram_matrix(LinearKernel(1.0), x)

    @pytest.mark.parametrize("lengthscale", [0.3, 1.0, 2.7])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_rbf_in_place_gram_matches_expression(self, lengthscale, scale):
        # the in-place construction keeps the operations and their order of
        # scale * exp(-0.5 (|x|^2 + |z|^2 - 2 x.z) / a^2), so it compares with ==
        k = GaussianRBF(lengthscale=lengthscale, scale=scale)
        rng = np.random.default_rng(77)
        for d in (1, 3):
            x = rng.uniform(-2, 2, (40, d))
            z = rng.normal(size=(7, d))
            for other in (None, z):
                zz = x if other is None else other
                d2 = (
                    np.sum(x**2, axis=1)[:, None]
                    + np.sum(zz**2, axis=1)[None, :]
                    - 2.0 * (x @ zz.T)
                )
                np.clip(d2, 0.0, None, out=d2)
                expected = scale * np.exp(-0.5 * d2 / lengthscale**2)
                assert np.array_equal(k.gram(x, other), expected)

    @pytest.mark.parametrize("kernel", ALL_SCALAR_KERNELS)
    def test_psd_on_random_points(self, kernel):
        lo, hi = (0.0, 1.0) if isinstance(kernel, IntegratedBrownianKernel) else (-2, 2)
        x = RNG.uniform(lo, hi, (20, 1))
        g = gram_matrix(kernel, x)
        eigvals = np.linalg.eigvalsh(g)
        assert eigvals.min() >= -1e-8 * np.trace(g)

    @pytest.mark.parametrize("kernel", ALL_SCALAR_KERNELS)
    def test_bitexact_symmetry(self, kernel):
        lo, hi = (0.0, 1.0) if isinstance(kernel, IntegratedBrownianKernel) else (-2, 2)
        for _ in range(10):
            s, t = RNG.uniform(lo, hi, 2)
            assert kernel.eval(s, t) == kernel.eval(t, s)

    def test_composite_symmetry(self):
        k = CompositeKernel(
            (
                (ConstantKernel(0.5), None),
                (LinearKernel(0.5), (0, 1)),
                (GaussianRBF(0.75, 0.5), (1,)),
            )
        )
        for _ in range(10):
            s, t = RNG.uniform(-2, 2, (2, 2))
            assert k.eval(s, t) == k.eval(t, s)


class TestComposite:
    def test_gram_is_sum_of_terms(self):
        x = RNG.uniform(-2, 2, (12, 3))
        terms = (
            (LinearKernel(0.7), (0,)),
            (GaussianRBF(1.1), (1, 2)),
            (polynomial_series(5), (2,)),
        )
        comp = CompositeKernel(terms)
        total = sum(k.gram(x[:, list(sel)]) for k, sel in terms)
        assert np.allclose(comp.gram(x), total, rtol=1e-12, atol=0)

    def test_additive_diagonal_scaling(self):
        base = polynomial_series(6)
        k = additive_kernel(base, 4)
        point = np.full(4, 0.8)
        assert k.eval(point, point) == pytest.approx(
            4 * base.eval(0.8, 0.8), rel=1e-14
        )

    def test_add_operator_flattens(self):
        a = LinearKernel(1.0)
        b = GaussianRBF(1.0)
        k = a + b
        assert isinstance(k, CompositeKernel)
        assert len(k.terms) == 2


class TestSeries:
    def test_feature_matrix_single_term(self):
        k = polynomial_series(10, 2.2)
        f = k.feature_matrix(np.array([0.5]))
        assert f.shape == (1, 10)
        assert f[0, 0] == pytest.approx(np.sqrt(1.0) * 0.5)

    def test_gram_reconstruction_matches_closed_form(self):
        # dual route: scaled-feature outer product vs Horner evaluation
        x = RNG.uniform(-2, 2, (4, 1))
        series = polynomial_series(10, 2.2)
        closed = HornerPolynomial(polynomial_weights(10, 2.2))
        f = series.feature_matrix(x)
        assert np.allclose(f @ f.T, closed.gram(x), rtol=1e-10, atol=0)

    def test_series_equals_closed_form_eval(self):
        series = polynomial_series(10, 2.2)
        closed = HornerPolynomial(polynomial_weights(10, 2.2))
        for _ in range(20):
            s, t = RNG.uniform(-2, 2, 2)
            assert series.eval(s, t) == pytest.approx(
                closed.eval(s, t), rel=1e-12
            )

    def test_zero_point_gives_zero_row(self):
        f = polynomial_series(8).feature_matrix(np.array([0.0]))
        assert np.array_equal(f, np.zeros((1, 8)))

    def test_too_many_terms_rejected(self):
        with pytest.raises(ValueError, match="series order 6 outside 1..5"):
            series_feature_columns(np.array([[0.5]]), polynomial_series(5), [(0, 6)])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SeriesKernel(weights=(1.0, -0.1))

    def test_equal_weights_give_equal_kernels(self):
        configured = kernel_from_config({"kind": "polynomial", "degree": 10})
        assert polynomial_series(10) == polynomial_series(10)
        assert configured == polynomial_series(10)
        assert hash(configured) == hash(polynomial_series(10))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n_terms=st.integers(1, 12),
        decay=st.floats(0.5, 4.0),
        x=arrays(np.float64, st.integers(1, 20), elements=st.floats(-3.0, 3.0)),
    )
    def test_features_are_scaled_monomials_bit_for_bit(self, n_terms, decay, x):
        w = np.asarray(polynomial_weights(n_terms, decay))
        expected = np.column_stack([x**v for v in range(1, n_terms + 1)]) * np.sqrt(w)
        assert np.array_equal(polynomial_series(n_terms, decay).feature_matrix(x), expected)


class TestFeatureMatrix:
    @pytest.mark.parametrize(
        "kernel, width",
        [
            (ConstantKernel(0.5), 2),
            (LinearKernel(0.7), 3),
            (polynomial_series(10, 2.2), 1),
            (
                CompositeKernel(
                    (
                        (ConstantKernel(0.5), None),
                        (LinearKernel(0.5), (0, 1)),
                        (polynomial_series(6), (2,)),
                    )
                ),
                3,
            ),
        ],
        ids=["constant", "linear", "series", "composite"],
    )
    def test_outer_product_is_gram(self, kernel, width):
        x = RNG.uniform(-2, 2, (15, width))
        f = kernel.feature_matrix(x)
        g = kernel.gram(x)
        assert f.shape[0] == 15
        assert np.max(np.abs(f @ f.T - g)) <= 1e-12 * np.max(np.abs(g))

    def test_composite_stacks_term_blocks(self):
        x = RNG.uniform(-2, 2, (4, 2))
        k = CompositeKernel(((ConstantKernel(4.0), None), (LinearKernel(9.0), (1,))))
        assert np.array_equal(k.feature_matrix(x), np.column_stack([np.full(4, 2.0), 3.0 * x[:, 1]]))

    @pytest.mark.parametrize(
        "kernel",
        [
            GaussianRBF(0.75, 0.5),
            HornerPolynomial(polynomial_weights(10, 2.2)),
            IntegratedBrownianKernel(order=2),
            CompositeKernel(((LinearKernel(0.5), (0,)), (GaussianRBF(0.75, 0.5), (1,)))),
        ],
        ids=["rbf", "closed_polynomial", "integrated_brownian", "composite_with_rbf"],
    )
    def test_gram_only_kernels_return_none(self, kernel):
        width = 1 if isinstance(kernel, (HornerPolynomial, IntegratedBrownianKernel)) else 2
        assert kernel.feature_matrix(RNG.uniform(0, 1, (5, width))) is None


class TestScale:
    @pytest.mark.parametrize(
        "make",
        [ConstantKernel, LinearKernel, lambda scale: GaussianRBF(1.0, scale)],
        ids=["constant", "linear", "rbf"],
    )
    def test_negative_scale_rejected(self, make):
        with pytest.raises(ValueError, match="scale must be nonnegative"):
            make(-0.5)
        assert make(0.0).scale == 0.0

    def test_negative_scale_from_config(self):
        spec = [{"kind": "constant", "scale": 0.5}, {"kind": "linear", "scale": -1.0}]
        with pytest.raises(ValueError, match="LinearKernel scale must be nonnegative"):
            kernel_from_config(spec)


class TestIntegratedBrownian:
    def test_order_one_is_min(self):
        oracle, err = quad(
            lambda u: float(u < 0.3) * float(u < 0.7), 0.0, 1.0, epsabs=1e-12
        )
        assert err < 1e-10
        assert oracle == pytest.approx(0.3, abs=1e-10)
        assert IntegratedBrownianKernel(1).eval(0.3, 0.7) == pytest.approx(0.3, abs=1e-12)

    def test_zero_endpoint(self):
        assert IntegratedBrownianKernel(1).eval(0.0, 0.6) == 0.0

    def test_order_two_against_quadrature(self):
        def oracle(s, t):
            val, err = quad(
                lambda u: max(s - u, 0.0) * max(t - u, 0.0), 0.0, 1.0, epsabs=1e-12
            )
            assert err < 1e-10
            return val

        assert IntegratedBrownianKernel(2).eval(1.0, 1.0) == pytest.approx(
            oracle(1.0, 1.0), abs=1e-10
        )
        # frozen third-party values: 1/3 and 23/375 from symbolic integration
        assert IntegratedBrownianKernel(2).eval(1.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
        assert IntegratedBrownianKernel(2).eval(0.4, 0.9) == pytest.approx(
            23 / 375, abs=1e-12
        )

    def test_order_three_against_symbolic_values(self):
        # frozen values 1/20 and 31/6400 from symbolic integration
        assert IntegratedBrownianKernel(3).eval(1.0, 1.0) == pytest.approx(0.05, abs=1e-10)
        assert IntegratedBrownianKernel(3).eval(0.5, 0.8) == pytest.approx(
            0.00484375, abs=1e-10
        )

    def test_domain_enforced(self):
        with pytest.raises(ValueError, match="domain"):
            IntegratedBrownianKernel(1).eval(-0.1, 0.5)
        with pytest.raises(ValueError, match="domain"):
            IntegratedBrownianKernel(order=1).gram(np.array([0.5, 1.4]))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_closed_form_against_quadrature(self, order):
        fact = math.factorial(order - 1)

        def oracle(s, t):
            val, _ = quad(
                lambda u: (s - u) ** (order - 1) * (t - u) ** (order - 1) / fact**2,
                0.0, min(s, t), epsabs=1e-14, epsrel=1e-12,
            )
            return val

        pairs = [(0.0, 0.6), (1.0, 1.0), (0.5, 0.5), *RNG.uniform(0, 1, (8, 2))]
        for s, t in pairs:
            assert IntegratedBrownianKernel(order).eval(s, t) == pytest.approx(
                oracle(s, t), abs=1e-12
            )

    def test_gram_matches_scalar_eval(self):
        x = RNG.uniform(0, 1, (6, 1))
        for order in (1, 2, 3, 5):
            k = IntegratedBrownianKernel(order=order)
            g = k.gram(x)
            for i in range(6):
                for j in range(6):
                    assert g[i, j] == pytest.approx(
                        k.eval(x[i, 0], x[j, 0]), abs=1e-12
                    )


def test_normalized_section_has_unit_norm():
    for kernel, z in (
        (GaussianRBF(0.75, 0.5), np.array([0.4, -1.0])),
        (polynomial_series(10, 2.2), np.array([1.3])),
        (LinearKernel(2.0), np.array([0.7])),
    ):
        # h = C(., z) / sqrt(C(z, z)); reproduction gives |h|^2 = h(z) / sqrt(C(z, z))
        root = np.sqrt(kernel.eval(z, z))
        h_at_z = build_instruments(z[None, :], kernel=kernel, anchor_indices=[0])[0, 0]
        assert h_at_z / root == pytest.approx(1.0, abs=1e-12)
        # with features, h has the coefficient vector F(z) / sqrt(C(z, z))
        feats = kernel.feature_matrix(z[None, :])
        if feats is not None:
            assert np.linalg.norm(feats) / root == pytest.approx(1.0, abs=1e-12)


class TestConfig:
    def test_each_kind_builds(self):
        specs = [
            {"kind": "constant", "scale": 0.5},
            {"kind": "linear", "scale": 1.0, "coords": [0, 1]},
            {"kind": "gaussian_rbf", "lengthscale": 0.75, "scale": 0.5},
            {"kind": "polynomial", "degree": 10, "decay": 2.2},
            {"kind": "integrated_brownian", "order": 2},
        ]
        for spec in specs:
            kernel_from_config(spec)

    def test_sum_with_coords(self):
        spec = {
            "kind": "sum",
            "terms": [
                {"kind": "constant", "scale": 0.5},
                {"kind": "linear", "scale": 0.5, "coords": [0, 1]},
                {"kind": "gaussian_rbf", "lengthscale": 0.75, "scale": 0.5, "coords": [1]},
            ],
        }
        k = kernel_from_config(spec)
        assert isinstance(k, CompositeKernel)
        x = RNG.uniform(-2, 2, (5, 2))
        manual = CompositeKernel(
            (
                (ConstantKernel(0.5), None),
                (LinearKernel(0.5), (0, 1)),
                (GaussianRBF(0.75, 0.5), (1,)),
            )
        )
        assert np.allclose(k.gram(x), manual.gram(x), rtol=1e-14)

    def test_unknown_kind_and_keys(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            kernel_from_config({"kind": "matern"})
        with pytest.raises(ValueError, match="lengthscal"):
            kernel_from_config({"kind": "gaussian_rbf", "lengthscal": 1.0})
        with pytest.raises(ValueError, match="unknown kernel config key 'series'"):
            kernel_from_config({"kind": "polynomial", "degree": 4, "series": False})

    @pytest.mark.parametrize("key, value", [("degree", 4), ("decay", 2.2)])
    def test_polynomial_weights_exclude_degree_and_decay(self, key, value):
        spec = {"kind": "polynomial", "weights": [1.0, 0.5], key: value}
        with pytest.raises(ValueError, match=f"'weights' or '{key}', not both"):
            kernel_from_config(spec)
        spec.pop(key)
        assert kernel_from_config(spec).weights == (1.0, 0.5)
