"""Gram construction, single kernel values and series features."""

import math
import re
from dataclasses import dataclass

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
    Kernel,
    LinearKernel,
    SeriesKernel,
    additive_kernel,
    gram_matrix,
    kernel_from_config,
    polynomial_series,
)

RNG = np.random.default_rng(1234)

ALL_SCALAR_KERNELS = [
    LinearKernel(1.0),
    GaussianRBF(lengthscale=0.75, scale=0.5),
    HornerPolynomial(polynomial_series(10, 2.2).weights),
    polynomial_series(10, 2.2),
    IntegratedBrownianKernel(order=1),
    IntegratedBrownianKernel(order=2),
]


def value(kernel, s, t) -> float:
    """C(s, t) as the kernel's Gram on two 1-row samples."""
    row = lambda p: np.atleast_1d(np.asarray(p, dtype=float))[None, :]
    return kernel.gram(row(s), row(t))[0, 0]


# closed forms of the kernels, written from their definitions


def rbf_value(s, t, lengthscale, scale):
    d2 = float(np.sum((np.asarray(s, dtype=float) - np.asarray(t, dtype=float)) ** 2))
    return scale * math.exp(-0.5 * d2 / lengthscale**2)


def series_value(weights, s, t):
    return sum(w * (s * t) ** v for v, w in enumerate(weights, start=1))


def brownian_value(order, s, t):
    """The integral over [0, min(s, t)] of (s - u)^(V-1) (t - u)^(V-1) / ((V-1)!)^2."""
    fact = math.factorial(order - 1)
    val, _ = quad(
        lambda u: (s - u) ** (order - 1) * (t - u) ** (order - 1) / fact**2,
        0.0, min(s, t), epsabs=1e-14, epsrel=1e-12,
    )
    return val


class TestSingleValues:
    def test_rbf_diagonal_is_one(self):
        k = GaussianRBF(lengthscale=1.0)
        assert value(k, 0.3, 0.3) == rbf_value([0.3], [0.3], 1.0, 1.0) == 1.0
        # on two coordinates |s|^2 + |s|^2 - 2 s.s need not round to 0
        s = np.array([0.3, -1.2])
        assert rbf_value(s, s, 1.0, 1.0) == 1.0
        assert abs(value(k, s, s) - 1.0) <= np.finfo(float).eps

    def test_linear_product(self):
        assert value(LinearKernel(1.0), 0.5, 0.4) == pytest.approx(0.20)
        s, t = np.array([0.5, -1.5]), np.array([0.4, 2.0])
        assert value(LinearKernel(0.5), s, t) == pytest.approx(0.5 * float(s @ t), rel=1e-15)

    def test_polynomial_partial_sum_at_one(self):
        # direct-summation oracle for sum_v v^-2.2 (s t)^v at s = t = 1
        oracle = series_value(polynomial_series(10, 2.2).weights, 1.0, 1.0)
        assert oracle == pytest.approx(1.4410028461622895, rel=1e-15)
        assert value(polynomial_series(10, 2.2), 1.0, 1.0) == pytest.approx(oracle, rel=1e-12)
        assert value(HornerPolynomial(polynomial_series(10, 2.2).weights), 1.0, 1.0) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_dimension_mismatch(self):
        k = GaussianRBF()
        with pytest.raises(ValueError, match="dimension mismatch"):
            k.gram(np.array([[1.0, 2.0]]), np.array([[1.0]]))
        comp = CompositeKernel(((LinearKernel(), (2,)),))
        with pytest.raises(ValueError, match="dimension mismatch"):
            comp.gram(np.array([[1.0]]), np.array([[1.0]]))


class TestGram:
    def test_single_point(self):
        k = GaussianRBF(lengthscale=0.5)
        x = np.array([[0.7]])
        g = gram_matrix(k, x)
        assert g.shape == (1, 1)
        assert g[0, 0] == rbf_value(x[0], x[0], 0.5, 1.0) == 1.0

    def test_linear_outer_product(self):
        g = gram_matrix(LinearKernel(1.0), np.array([1.0, 2.0]))
        assert np.array_equal(g, np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_rbf_matches_pairwise_closed_form(self):
        k = GaussianRBF(lengthscale=0.9, scale=1.3)
        x = RNG.uniform(-2, 2, (5, 3))
        g = gram_matrix(k, x)
        for i in range(5):
            for j in range(5):
                assert g[i, j] == pytest.approx(rbf_value(x[i], x[j], 0.9, 1.3), rel=1e-12)

    def test_nonfinite_entries_rejected(self):
        x = np.array([1e200, 1e200])
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^Gram must be finite; found NaN or inf$"
        ):
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
        g = kernel.gram(RNG.uniform(lo, hi, (10, 1)))
        assert np.array_equal(g, g.T)

    def test_composite_symmetry(self):
        k = CompositeKernel(
            (
                (ConstantKernel(0.5), None),
                (LinearKernel(0.5), (0, 1)),
                (GaussianRBF(0.75, 0.5), (1,)),
            )
        )
        g = k.gram(RNG.uniform(-2, 2, (10, 2)))
        assert np.array_equal(g, g.T)


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

    def test_gram_and_terms_keeps_only_the_asked_terms(self):
        x = RNG.uniform(-2, 2, (9, 2))
        comp = CompositeKernel(((LinearKernel(0.7), (0,)), (GaussianRBF(1.1), (1,))))
        gram, kept = comp.gram_and_terms(x, keep={1})
        assert np.array_equal(gram, comp.gram(x))
        assert kept[0] is None
        assert np.array_equal(kept[1], GaussianRBF(1.1).gram(x[:, [1]], x[:, [1]]))
        # a kept first term is not the buffer the later terms are summed into
        gram, kept = comp.gram_and_terms(x, keep={0})
        assert np.array_equal(gram, comp.gram(x))
        assert np.array_equal(kept[0], LinearKernel(0.7).gram(x[:, [0]]))
        single = CompositeKernel(((GaussianRBF(1.1), None),))
        gram, [term] = single.gram_and_terms(x, keep={0})
        assert np.array_equal(gram, GaussianRBF(1.1).gram(x)) and np.array_equal(term, gram)
        assert not np.shares_memory(term, gram)
        assert single.gram_and_terms(x)[1] == [None]

    def test_additive_diagonal_scaling(self):
        base = polynomial_series(6)
        k = additive_kernel(base, 4)
        point = np.full(4, 0.8)
        assert value(k, point, point) == pytest.approx(
            4 * series_value(base.weights, 0.8, 0.8), rel=1e-14
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
        closed = HornerPolynomial(polynomial_series(10, 2.2).weights)
        f = series.feature_matrix(x)
        assert np.allclose(f @ f.T, closed.gram(x), rtol=1e-10, atol=0)

    def test_series_equals_closed_form_on_single_points(self):
        series = polynomial_series(10, 2.2)
        closed = HornerPolynomial(polynomial_series(10, 2.2).weights)
        for _ in range(20):
            s, t = RNG.uniform(-2, 2, 2)
            assert value(series, s, t) == pytest.approx(value(closed, s, t), rel=1e-12)
            assert value(series, s, t) == pytest.approx(
                series_value(series.weights, s, t), rel=1e-12
            )

    def test_zero_point_gives_zero_row(self):
        f = polynomial_series(8).feature_matrix(np.array([0.0]))
        assert np.array_equal(f, np.zeros((1, 8)))

    def test_too_many_terms_rejected(self):
        with pytest.raises(ValueError, match="series order 11 outside 1..10"):
            series_feature_columns(np.array([[0.5]]), [(0, 11)])

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
        w = np.asarray([float(v) ** (-decay) for v in range(1, n_terms + 1)])
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

    @pytest.mark.parametrize(
        "kernel", [ConstantKernel(0.5), LinearKernel(0.7), polynomial_series(6)],
        ids=["constant", "linear", "series"],
    )
    def test_finite_rank_gram_is_the_feature_product(self, kernel):
        # a finite-rank kernel defines only its feature map, and the base
        # class forms every Gram from it
        assert "gram" not in vars(type(kernel))
        width = 1 if isinstance(kernel, SeriesKernel) else 2
        x, z = RNG.uniform(-2, 2, (7, width)), RNG.uniform(-2, 2, (4, width))
        f = kernel.feature_matrix
        assert np.array_equal(kernel.gram(x, z), f(x) @ f(z).T)
        assert np.array_equal(kernel.gram(x), f(x) @ f(x).T)

    def test_feature_widths_must_agree(self):
        with pytest.raises(ValueError, match="^dimension mismatch between point sets$"):
            LinearKernel().gram(np.ones((3, 2)), np.ones((2, 3)))

    def test_kernel_with_neither_feature_map_nor_gram(self):
        @dataclass(frozen=True)
        class Bare(Kernel):
            pass

        with pytest.raises(NotImplementedError, match="^Bare has no feature map and no gram$"):
            Bare().gram(np.zeros((3, 1)))

    def test_composite_stacks_term_blocks(self):
        x = RNG.uniform(-2, 2, (4, 2))
        k = CompositeKernel(((ConstantKernel(4.0), None), (LinearKernel(9.0), (1,))))
        assert np.array_equal(k.feature_matrix(x), np.column_stack([np.full(4, 2.0), 3.0 * x[:, 1]]))

    @pytest.mark.parametrize(
        "kernel",
        [
            GaussianRBF(0.75, 0.5),
            HornerPolynomial(polynomial_series(10, 2.2).weights),
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
        spec = {
            "kind": "sum",
            "terms": [{"kind": "constant", "scale": 0.5}, {"kind": "linear", "scale": -1.0}],
        }
        with pytest.raises(ValueError, match="LinearKernel scale must be nonnegative"):
            kernel_from_config(spec)


class TestIntegratedBrownian:
    def test_order_one_is_min(self):
        oracle, err = quad(
            lambda u: float(u < 0.3) * float(u < 0.7), 0.0, 1.0, epsabs=1e-12
        )
        assert err < 1e-10
        assert oracle == pytest.approx(0.3, abs=1e-10)
        assert value(IntegratedBrownianKernel(1), 0.3, 0.7) == pytest.approx(0.3, abs=1e-12)

    def test_zero_endpoint(self):
        assert value(IntegratedBrownianKernel(1), 0.0, 0.6) == 0.0

    def test_order_two_against_quadrature(self):
        def oracle(s, t):
            val, err = quad(
                lambda u: max(s - u, 0.0) * max(t - u, 0.0), 0.0, 1.0, epsabs=1e-12
            )
            assert err < 1e-10
            return val

        k = IntegratedBrownianKernel(2)
        assert value(k, 1.0, 1.0) == pytest.approx(oracle(1.0, 1.0), abs=1e-10)
        # frozen third-party values: 1/3 and 23/375 from symbolic integration
        assert value(k, 1.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
        assert value(k, 0.4, 0.9) == pytest.approx(23 / 375, abs=1e-12)

    def test_order_three_against_symbolic_values(self):
        # frozen values 1/20 and 31/6400 from symbolic integration
        assert value(IntegratedBrownianKernel(3), 1.0, 1.0) == pytest.approx(0.05, abs=1e-10)
        assert value(IntegratedBrownianKernel(3), 0.5, 0.8) == pytest.approx(
            0.00484375, abs=1e-10
        )

    def test_domain_enforced(self):
        with pytest.raises(ValueError, match="domain"):
            value(IntegratedBrownianKernel(1), -0.1, 0.5)
        with pytest.raises(ValueError, match="domain"):
            value(IntegratedBrownianKernel(1), 0.5, 1.2)
        with pytest.raises(ValueError, match="domain"):
            IntegratedBrownianKernel(order=1).gram(np.array([0.5, 1.4]))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_closed_form_against_quadrature(self, order):
        pairs = [(0.0, 0.6), (1.0, 1.0), (0.5, 0.5), *RNG.uniform(0, 1, (8, 2))]
        for s, t in pairs:
            assert value(IntegratedBrownianKernel(order), s, t) == pytest.approx(
                brownian_value(order, s, t), abs=1e-12
            )

    def test_gram_matches_quadrature(self):
        x = RNG.uniform(0, 1, (6, 1))
        for order in (1, 2, 3, 5):
            g = IntegratedBrownianKernel(order=order).gram(x)
            for i in range(6):
                for j in range(6):
                    assert g[i, j] == pytest.approx(
                        brownian_value(order, x[i, 0], x[j, 0]), abs=1e-12
                    )


def test_normalized_section_has_unit_norm():
    for kernel, z, czz in (
        (GaussianRBF(0.75, 0.5), np.array([0.4, -1.0]), 0.5),
        (polynomial_series(10, 2.2), np.array([1.3]), series_value(polynomial_series(10).weights, 1.3, 1.3)),
        (LinearKernel(2.0), np.array([0.7]), 2.0 * 0.7**2),
    ):
        # h = C(., z) / sqrt(C(z, z)); reproduction gives |h|^2 = h(z) / sqrt(C(z, z))
        root = np.sqrt(czz)
        h_at_z = build_instruments(z[None, :], kernel=kernel, anchor_indices=[0])[0, 0]
        assert h_at_z / root == pytest.approx(1.0, abs=1e-12)
        # with features, h has the coefficient vector F(z) / sqrt(C(z, z))
        feats = kernel.feature_matrix(z[None, :])
        if feats is not None:
            assert np.linalg.norm(feats) / root == pytest.approx(1.0, abs=1e-12)


class TestConfig:
    @pytest.mark.parametrize(
        "spec, direct",
        [
            ({"kind": "constant"}, ConstantKernel(1.0)),
            ({"kind": "constant", "scale": 2}, ConstantKernel(2.0)),
            ({"kind": "linear"}, LinearKernel(1.0)),
            ({"kind": "linear", "scale": 2}, LinearKernel(2.0)),
            ({"kind": "gaussian_rbf"}, GaussianRBF(1.0, 1.0)),
            ({"kind": "gaussian_rbf", "lengthscale": 3, "scale": 2}, GaussianRBF(3.0, 2.0)),
            ({"kind": "polynomial"}, polynomial_series(10, 2.2)),
            ({"kind": "polynomial", "degree": 4.0, "decay": 3}, polynomial_series(4, 3.0)),
            ({"kind": "integrated_brownian"}, IntegratedBrownianKernel(1)),
            ({"kind": "integrated_brownian", "order": 2.0}, IntegratedBrownianKernel(2)),
            ({"kind": "linear", "scale": 1, "coords": [0, 1]},
             CompositeKernel(((LinearKernel(1.0), (0, 1)),))),
        ],
    )
    def test_each_kind_equals_its_constructor(self, spec, direct):
        # every value is converted by the type of its default, which == alone
        # would not show (2 == 2.0)
        built = kernel_from_config(spec)
        assert built == direct
        assert [type(v) for v in vars(built).values()] == [type(v) for v in vars(direct).values()]

    def test_bare_list_is_rejected(self):
        # a sum is spelled {kind: sum, terms: [...]}
        with pytest.raises(ValueError, match="^kernel spec must be a mapping, got <class 'list'>$"):
            kernel_from_config([{"kind": "linear"}, {"kind": "constant"}])

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
        expected = ("'constant', 'linear', 'gaussian_rbf', 'polynomial', "
                    "'integrated_brownian', 'sum'")
        with pytest.raises(ValueError, match=re.escape(
            f"unknown kernel kind 'matern'; expected one of ({expected})"
        )):
            kernel_from_config({"kind": "matern"})
        with pytest.raises(ValueError, match=re.escape("unknown kernel kind ['rbf']")):
            kernel_from_config({"kind": ["rbf"]})
        with pytest.raises(ValueError, match="lengthscal"):
            kernel_from_config({"kind": "gaussian_rbf", "lengthscal": 1.0})
        with pytest.raises(ValueError, match="unknown kernel config key 'series'"):
            kernel_from_config({"kind": "polynomial", "degree": 4, "series": False})

    def test_polynomial_weights_key_is_unknown(self):
        # degree and decay are the one spelling of the polynomial kernel
        spec = {"kind": "polynomial", "weights": [1.0, 0.5]}
        with pytest.raises(ValueError, match="^unknown kernel config key 'weights'$"):
            kernel_from_config(spec)
        spec = {"kind": "polynomial", "degree": 2, "decay": 1.0}
        assert kernel_from_config(spec).weights == (1.0, 0.5)
