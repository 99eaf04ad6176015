"""Instrument projection, the moment statistic and its simulated null."""

import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rkhstest import inference
from rkhstest.estimators import FitConfig, _fit_by_solver, fit_constrained_ridge, greedy_fit
from rkhstest.inference import (
    HypothesisPlan,
    SectionInstrumentPlan,
    SeriesInstrumentPlan,
    build_instruments,
    covariance_estimate,
    orthogonality_defect,
    p_value,
    project_instruments,
    project_on_features,
    residual_null_score,
    run_test,
    series_feature_columns,
    simulate_null,
)
from rkhstest.inference import _project_on_null
from rkhstest.inference import test_statistic as moment_statistic
from rkhstest.kernels import (
    CompositeKernel,
    ConstantKernel,
    GaussianRBF,
    IntegratedBrownianKernel,
    Kernel,
    LinearKernel,
    gram_matrix,
    polynomial_series,
)
from rkhstest.losses import (
    LOSS_NAMES,
    logistic_loss,
    loss_by_name,
    poisson_loss,
    rescaled_square_loss,
    square_loss,
)
from rkhstest.simulation import gen_covariates, gen_response, null_kernel_for

RNG = np.random.default_rng(99)


class TestResiduals:
    """The residual e0 = loss'(y, fitted) that run_test feeds the moment."""

    def test_perfect_fit_square(self):
        x = np.linspace(-1, 1, 5)[:, None]
        y = x[:, 0]
        e0 = np.asarray(square_loss().deriv(1, y, y), dtype=float)
        assert np.array_equal(e0, np.zeros(5))
        h = np.column_stack([np.ones(5), x[:, 0]])
        assert moment_statistic(e0, h) == 0.0
        assert residual_null_score(h, np.ones(5), e0) == 0.0

    def test_poisson_zero_score(self):
        e0 = np.asarray(poisson_loss().deriv(1, np.array([1.0]), np.zeros(1)), dtype=float)
        assert e0[0] == 0.0
        assert moment_statistic(e0, np.ones((1, 1))) == 0.0


class TestProjection:
    def test_column_in_span_annihilated(self):
        rng = np.random.default_rng(1)
        c0 = rng.normal(size=(6, 6))
        c0 = c0 @ c0.T
        col = c0 @ rng.normal(size=(6, 1))
        inst = project_instruments(c0, np.ones(6), col, 0.0)
        assert np.linalg.norm(inst) <= 1e-8 * np.linalg.norm(col)

    def test_orthogonal_column_untouched(self):
        v = np.array([1.0, 1.0, 0.0, 0.0])
        c0 = np.outer(v, v)
        col = np.array([[0.0], [0.0], [1.0], [-1.0]])
        inst = project_instruments(c0, np.ones(4), col, 0.0)
        assert np.allclose(inst, col, atol=1e-12)

    @pytest.mark.parametrize("rank", [4, 2])
    @pytest.mark.parametrize("rho", [1e-6, 0.1, 10.0])
    def test_penalized_first_order_conditions_oracle(self, rho, rank):
        # project_instruments returns rho S^{-1} b, never forming c - C0 b;
        # at rank 2 C0 is singular, S is not constant, and many b solve the
        # first-order system, all with one C0 b
        rng = np.random.default_rng(2)
        factor = rng.normal(size=(4, rank))
        c0 = factor @ factor.T + (0.5 * np.eye(4) if rank == 4 else 0.0)
        s = rng.uniform(0.5, 2.0, 4)
        col = rng.normal(size=(4, 1))
        inst = project_instruments(c0, s, col, rho)
        # independent route: stationarity of the penalized weighted loss,
        # (C0 S C0 + rho C0) b = C0 S c
        lhs = c0 @ np.diag(s) @ c0 + rho * c0
        rhs = c0 @ (s * col[:, 0])
        b = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        expected = col[:, 0] - c0 @ b
        # the oracle itself cancels to about 1e-8 relative at rho = 1e-6
        assert np.max(np.abs(inst[:, 0] - expected)) <= 1e-7 * np.max(np.abs(expected))

    def test_projection_never_increases_weighted_objective(self):
        rng = np.random.default_rng(3)
        c0 = rng.normal(size=(8, 8))
        c0 = c0 @ c0.T
        s = rng.uniform(0.5, 1.5, 8)
        raw = rng.normal(size=(8, 3))
        for rho in (0.0, 0.2, 5.0):
            inst = project_instruments(c0, s, raw, rho)
            for r in range(3):
                resid = inst[:, r]
                assert resid @ (s * resid) <= raw[:, r] @ (s * raw[:, r]) + 1e-10

    def test_orthogonality_defect_at_zero_rho(self):
        rng = np.random.default_rng(4)
        basis = rng.normal(size=(30, 3))
        raw = rng.normal(size=(30, 5)) + basis @ rng.normal(size=(3, 5))
        inst = project_on_features(basis, np.ones(30), raw, 0.0)
        assert orthogonality_defect(basis, np.ones(30), inst) <= 1e-8

    def test_gram_mode_orthogonality_at_zero_rho(self):
        rng = np.random.default_rng(5)
        c0 = rng.normal(size=(12, 4))
        c0 = c0 @ c0.T  # rank 4
        raw = rng.normal(size=(12, 3))
        inst = project_instruments(c0, np.ones(12), raw, 0.0)
        assert orthogonality_defect(c0, np.ones(12), inst) <= 1e-8

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            project_instruments(np.eye(2), np.ones(2), np.ones((2, 1)), -1.0)

    def test_weights_positive(self):
        with pytest.raises(ValueError, match="positive"):
            project_instruments(np.eye(2), np.array([1.0, 0.0]), np.ones((2, 1)), 0.1)

    @pytest.mark.parametrize("rho", [0.0, 0.1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["c0", "raw", "basis"])
    def test_nonfinite_input_names_the_argument(self, where, bad, rho):
        # numpy's solve, eigh and svd return NaN for such input instead of
        # raising; project_on_features used to return an all-NaN column
        span = np.eye(3) + 0.5
        raw = np.ones((3, 2))
        (raw if where == "raw" else span)[1, 1] = bad
        routes = {"c0": [project_instruments], "basis": [project_on_features]}
        for project in routes.get(where, [project_instruments, project_on_features]):
            with pytest.raises(ValueError, match=f"^{where} must be finite; found NaN or inf$"):
                project(span, np.ones(3), raw, rho)

    def test_negative_gram_diagonal_rejected(self):
        # not a Gram: the solve would return a finite but meaningless projection
        match = "^c0 must be positive semi-definite; its diagonal has a negative entry$"
        with pytest.raises(ValueError, match=match):
            project_instruments(np.diag([1.0, -0.5, 2.0]), np.ones(3), np.ones((3, 2)), 0.1)

    @pytest.mark.parametrize("solver", ["ridge_closed_form", "greedy"])
    def test_negative_rho_rejected_by_every_solver(self, solver):
        # the ridge fit projects through its cached eigenbasis, the greedy fit
        # through r0's features; both routes share one input check
        rng = np.random.default_rng(7)
        x = gen_covariates(200, 2, 0.0, "geometric", rng)
        y, _, _ = gen_response(x, "Bivariate", 1.0, rng)
        cfg = FitConfig(budget=10.0 * float(np.std(y)), solver=solver, iterations=50)
        with pytest.raises(ValueError, match="nonnegative"):
            run_test(
                x, y, null_kernel_for("BivLinAll", k=2), rescaled_square_loss(), cfg,
                proj_rho=-5.0, n_draws=200, instrument_count=50,
            )

    def test_negative_rho_rejected_before_the_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the penalty check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        x = np.random.default_rng(3).uniform(-2, 2, (30, 2))
        with pytest.raises(ValueError, match="projection penalty must be nonnegative"):
            run_test(
                x, x[:, 0], _toy_plan(), rescaled_square_loss(), FitConfig(budget=5.0),
                proj_rho=-1.0,
            )

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_routes_agree_on_random_null_kernels(self, data):
        # _project_on_null (the ridge fit's eigenbasis for a Gram, r0's feature
        # columns otherwise), project_on_features and the Gram solve are routes
        # to one penalized projection off span(r0)
        draw = data.draw
        n = draw(st.integers(20, 60), label="n")
        terms = []
        for kind in draw(st.lists(st.sampled_from(["constant", "linear", "series", "rbf"]),
                                  min_size=1, max_size=4), label="kinds"):
            scale = draw(st.floats(0.2, 3.0))
            if kind == "constant":
                terms.append((ConstantKernel(scale), None))
            elif kind == "linear":
                terms.append((LinearKernel(scale), draw(st.sampled_from([(0,), (1,), (0, 1)]))))
            elif kind == "series":
                series = polynomial_series(draw(st.integers(2, 4)), draw(st.floats(1.5, 3.0)))
                terms.append((series, (draw(st.integers(0, 1)),)))
            else:
                terms.append((GaussianRBF(draw(st.floats(0.5, 2.0)), scale), (0, 1)))
        r0 = CompositeKernel(tuple(terms))
        # at rho = 0 the projection off an RBF Gram's column space turns on which
        # rounding-level eigenvalues clear the rank cutoff, so a Gram gets rho > 0
        rhos = st.floats(1e-3, 10.0)
        if r0.feature_matrix(np.zeros((1, 2))) is not None:
            rhos = st.sampled_from([0.0]) | rhos
        rho = draw(rhos, label="rho")
        s_diag = np.full(n, draw(st.floats(0.2, 3.0), label="s"))
        varying = draw(st.booleans(), label="varying S")
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.uniform(-2, 2, (n, 2))
        y = x[:, 0] + rng.normal(size=n)
        raw = rng.normal(size=(n, draw(st.integers(1, 5), label="R")))
        if varying:
            # the eigenbasis route then hands over to the Gram solve
            s_diag = s_diag * rng.uniform(0.5, 2.0, n)
        model = fit_constrained_ridge(r0, x, y, budget=1.0)
        features = r0.feature_matrix(x)
        routes = {"null": lambda h: _project_on_null(model, s_diag, h, rho)[0]}
        if features is None:
            assert model.gram is not None and model.eigen is not None
            routes["gram"] = lambda h: project_instruments(model.gram, s_diag, h, rho)
        else:
            routes["features"] = lambda h: project_on_features(features, s_diag, h, rho)
            routes["gram"] = lambda h: project_instruments(features @ features.T, s_diag, h, rho)
        reference = routes["gram"](raw)
        for project in routes.values():
            once = project(raw)
            assert np.max(np.abs(once - reference)) <= 1e-10 * np.max(np.abs(raw))
            if rho == 0.0:
                assert np.max(np.abs(project(once) - once)) <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        route=st.sampled_from(["features", "eigenbasis", "gram_solve"]),
        n=st.integers(10, 50),
        r=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projecting_twice_at_rho_zero_changes_nothing(self, route, n, r, seed):
        # at rho = 0 each route is an S-weighted projection, so a second pass
        # moves the instruments by rounding only (about 3e-15 of them, 1e-12 allowed);
        # the eigenbasis route is the ridge fit's on a Gram-only r0 (S = s I)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, (n, 2))
        raw = rng.normal(size=(n, r))
        s_diag = rng.uniform(0.5, 2.0, n)
        if route == "features":
            r0 = CompositeKernel(((ConstantKernel(), None), (LinearKernel(), (1,)),
                                  (polynomial_series(4), (0,))))
            basis = r0.feature_matrix(x)
            project = lambda h: project_on_features(basis, s_diag, h, 0.0)
        elif route == "eigenbasis":
            model = fit_constrained_ridge(GaussianRBF(1.0), x, x[:, 0], budget=1.0)
            s_diag = np.full(n, s_diag[0])
            project = lambda h: _project_on_null(model, s_diag, h, 0.0)[0]
        else:
            c0 = gram_matrix(GaussianRBF(1.0), x)
            project = lambda h: project_instruments(c0, s_diag, h, 0.0)
        once = project(raw)
        assert np.max(np.abs(project(once) - once)) <= 1e-12 * np.max(np.abs(raw))


def _sum_kernel(name):
    """C_R0 + C_R1 of a bivariate hypothesis: the kernel its sections are built on."""
    plan = null_kernel_for(name)
    return plan.r0 + plan.r1


class TestBuildInstruments:
    def test_series_features_monomial_grid(self):
        x = RNG.uniform(-2, 2, (7, 3))
        pairs = [(0, 2), (2, 5)]
        cols = series_feature_columns(x, pairs)
        for j, (coord, v) in enumerate(pairs):
            assert np.allclose(cols[:, j], v**-1.1 * x[:, coord] ** v, rtol=1e-12)

    def test_normalized_section_with_unit_diagonal(self):
        k = LinearKernel(1.0)
        x = RNG.uniform(-2, 2, (6, 1))
        x[2, 0] = 1.0
        cols = build_instruments(x, kernel=k, anchor_indices=[2])
        assert np.allclose(cols[:, 0], x[:, 0], rtol=1e-12)

    def test_zero_diagonal_rejected(self):
        k = LinearKernel(1.0)
        with pytest.raises(ValueError, match="normalize"):
            build_instruments(np.array([[1.0], [0.0], [1.0]]), kernel=k, anchor_indices=[1])

    @pytest.mark.parametrize(
        "kernel, domain, diagonal",
        [
            (ConstantKernel(0.7), (-2.0, 2.0), lambda z: np.full(len(z), 0.7)),
            (LinearKernel(1.5), (-2.0, 2.0), lambda z: 1.5 * np.sum(z**2, axis=1)),
            (CompositeKernel(((GaussianRBF(0.6, 1.4), (1,)),)), (-2.0, 2.0), lambda z: np.full(len(z), 1.4)),
            (GaussianRBF(0.75, 0.5), (-2.0, 2.0), lambda z: np.full(len(z), 0.5)),
            (
                CompositeKernel(((polynomial_series(10, 2.2), (0,)),)),
                (-2.0, 2.0),
                lambda z: sum(v**-2.2 * z[:, 0] ** (2 * v) for v in range(1, 11)),
            ),
            # twice-integrated Brownian motion: C(z, z) = z^3 / 3 on [0, 1]
            (CompositeKernel(((IntegratedBrownianKernel(2), (1,)),)), (0.0, 1.0), lambda z: z[:, 1] ** 3 / 3),
            (_sum_kernel("Lin1NonLin"), (-2.0, 2.0), lambda z: 1.5 + 0.5 * np.sum(z**2, axis=1)),
            (_sum_kernel("BivLinAll"), (-2.0, 2.0), lambda z: 1.0 + 0.5 * np.sum(z**2, axis=1)),
        ],
        ids=["constant", "linear", "rbf_1d", "rbf_2d", "series", "brownian", "Lin1NonLin", "BivLinAll"],
    )
    def test_normalizer_read_off_the_gram_is_the_closed_form(self, kernel, domain, diagonal):
        # column j at its own anchor is C(z_j, z_j) / sqrt(C(z_j, z_j))
        x = np.random.default_rng(31).uniform(*domain, (30, 2))
        idx = np.array([17, 3, 29, 3, 0, 11, 8])
        h = build_instruments(x, kernel=kernel, anchor_indices=idx)
        want = diagonal(x[idx])
        np.testing.assert_allclose(h[idx, np.arange(idx.size)] ** 2, want, rtol=1e-14, atol=0)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Lin1NonLin", "BivLinAll"]),
        order=st.permutations(range(8)),
        seed=st.integers(0, 2**16),
    )
    def test_anchor_order_permutes_the_columns(self, name, order, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, (30, 2))
        idx = rng.choice(30, 8, replace=False)
        kernel = _sum_kernel(name)
        base = build_instruments(x, kernel=kernel, anchor_indices=idx)
        permuted = build_instruments(x, kernel=kernel, anchor_indices=idx[list(order)])
        np.testing.assert_allclose(permuted, base[:, list(order)], rtol=1e-14, atol=0)


class TestStatistic:
    def test_zero_residuals(self):
        h = RNG.normal(size=(6, 3))
        assert moment_statistic(np.zeros(6), h) == 0.0

    def test_all_ones_single_instrument(self):
        n = 9
        ones = np.ones(n)
        assert moment_statistic(ones, ones[:, None]) == pytest.approx(n, rel=1e-12)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(6)
        e0 = rng.normal(size=5)
        h = rng.normal(size=(5, 2))
        total = 0.0
        for r in range(2):
            acc = 0.0
            for i in range(5):
                acc += e0[i] * h[i, r]
            total += (acc / np.sqrt(5)) ** 2
        assert moment_statistic(e0, h) == pytest.approx(total / 2, rel=1e-12)

    def test_sign_invariance_exact(self):
        rng = np.random.default_rng(7)
        e0 = rng.normal(size=20)
        h = rng.normal(size=(20, 4))
        assert moment_statistic(e0, h) == moment_statistic(-e0, h)


class TestCovariance:
    def test_orthonormal_scaled_columns(self):
        n, r = 16, 4
        q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(n, r)))
        h = np.sqrt(n) * q
        sigma2 = 2.5
        e0 = np.full(n, np.sqrt(sigma2))
        sigma, spectrum = covariance_estimate(e0, h)
        assert np.allclose(sigma, sigma2 * np.eye(r), atol=1e-10)
        assert np.allclose(spectrum, np.full(r, sigma2 / r), atol=1e-10)

    def test_eigenvalues_match_cubic_oracle(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(20, 3))
        e0 = rng.normal(size=20)
        sigma, spectrum = covariance_estimate(e0, h)
        m = sigma / 3.0
        # roots of the characteristic polynomial, an independent route
        c2 = -np.trace(m)
        c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m))
        c0 = -np.linalg.det(m)
        roots = np.sort(np.roots([1.0, c2, c1, c0]).real)[::-1]
        assert np.allclose(spectrum, roots, rtol=1e-8)

    def test_spectrum_descending_nonnegative_and_trace(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(25, 6))
        e0 = rng.normal(size=25)
        sigma, spectrum = covariance_estimate(e0, h)
        assert np.all(np.diff(spectrum) <= 1e-12)
        assert np.all(spectrum >= 0)
        assert spectrum.sum() == pytest.approx(np.trace(sigma) / 6.0, rel=1e-8)


class TestSimulatedNull:
    def test_single_weight_mean(self):
        draws = simulate_null([1.0], 100_000, 123)
        assert abs(draws.mean() - 1.0) <= 3 * np.sqrt(2.0 / 100_000)

    def test_zero_spectrum(self):
        assert np.array_equal(simulate_null([0.0, 0.0], 50, 1), np.zeros(50))

    def test_half_half_matches_scaled_chi2(self):
        draws = simulate_null([0.5, 0.5], 100_000, 7)
        # 0.5 * chi^2_2: closed-form CDF oracle
        stat, pval = stats.kstest(draws, lambda x: stats.chi2.cdf(2 * x, df=2))
        assert pval > 0.01

    def test_mean_matches_weight_sum(self):
        omega = np.array([0.6, 0.25, 0.1, 0.05])
        draws = simulate_null(omega, 100_000, 11)
        tol = 3 * np.sqrt(2 * (omega**2).sum() / 100_000)
        assert abs(draws.mean() - omega.sum()) <= tol

    def test_deterministic_given_seed(self):
        a = simulate_null([0.3, 0.2], 1000, 42)
        b = simulate_null([0.3, 0.2], 1000, 42)
        assert np.array_equal(a, b)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_null([-0.1], 10, 0)

    def test_rounding_weights_leave_draws_bit_identical(self):
        # weights at 1e-17 of the top one are rounding noise in a spectrum;
        # they must not change which normals the real weights receive
        omega = np.array([0.9, 0.4, 0.1, 0.02])
        noisy = np.insert(omega, [1, 3, 4], 1e-17 * omega[0])
        assert np.array_equal(simulate_null(omega, 500, 5), simulate_null(noisy, 500, 5))

    def test_empty_spectrum(self):
        assert np.array_equal(simulate_null([], 20, 1), np.zeros(20))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # a NaN top weight made every weight inactive, so the draws were all
        # zero and any positive statistic read the smallest p-value, 1/(B+1)
        with pytest.raises(ValueError, match=r"finite, got \[(nan|inf)\] at \[1\]"):
            simulate_null([1.0, bad, 0.5], 5, 0)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_leaves_draws_bit_identical(self, monkeypatch, block):
        omega = np.random.default_rng(3).uniform(0.1, 1.0, 97)
        default = simulate_null(omega, 1000, 8)
        monkeypatch.setattr(inference, "_NULL_BLOCK", block)
        assert np.array_equal(simulate_null(omega, 1000, 8), default)

    @pytest.mark.parametrize(
        "k, draws", [(1, 50), (97, 1000), (inference._NULL_BLOCK + 3, 4)]
    )
    def test_draws_take_the_normals_in_row_order(self, k, draws):
        # the last case has more weights than a block holds: one row a block
        omega = np.random.default_rng(k).uniform(0.1, 1.0, k)
        z = np.random.default_rng(21).standard_normal((draws, k))
        np.testing.assert_allclose(
            simulate_null(omega, draws, 21), (z * z) @ omega, rtol=1e-13, atol=0
        )

    def test_memory_stays_at_one_block(self):
        tracemalloc.start()
        try:
            draws = simulate_null(np.linspace(1.0, 0.5, 200), 20_000, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= draws.nbytes + 2 * 2**20


class TestPValue:
    def test_statistic_below_all_draws(self):
        assert p_value(0.0, np.ones(99)) == 1.0

    def test_statistic_above_all_draws(self):
        assert p_value(2.0, np.ones(99)) == pytest.approx(1.0 / 100)

    def test_statistic_at_median(self):
        draws = np.arange(1, 102, dtype=float)
        assert p_value(51.0, draws) == pytest.approx(52.0 / 102)

    def test_zero_statistic_and_zero_draws(self):
        assert p_value(0.0, np.zeros(10)) == 1.0

    def test_empty_draws_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            p_value(1.0, np.array([]))

    def test_nan_statistic_rejected(self):
        # a NaN compares false with every draw, which would read as 1/(B+1)
        with pytest.raises(ValueError, match="NaN"):
            p_value(float("nan"), np.ones(99))


def test_synthetic_null_calibration_two_sample_ks():
    # scores independent of fixed instruments, projection disabled: the
    # statistic's law must match the simulated weighted chi-square law
    rng = np.random.default_rng(314)
    n, r = 100, 8
    h = rng.uniform(-1, 1, (n, r)) @ np.diag(rng.uniform(0.5, 2.0, r))
    omega = np.linalg.eigvalsh((h.T @ h) / n)[::-1] / r
    stats_obs = np.empty(2000)
    for i in range(2000):
        e0 = rng.standard_normal(n)
        stats_obs[i] = moment_statistic(e0, h)
    reference = simulate_null(np.clip(omega, 0, None), 4000, rng)
    _, pval = stats.ks_2samp(stats_obs, reference)
    assert pval > 0.01


def _toy_plan():
    return HypothesisPlan(
        name="toy",
        r0=CompositeKernel(((LinearKernel(1.0), (0,)),)),
        r1=None,
        instruments=SeriesInstrumentPlan(
            test_pairs=tuple((0, v) for v in range(2, 7)) + tuple((1, v) for v in range(1, 7)),
        ),
    )


class TestRunTest:
    def test_section_count_of_n_or_more_takes_every_row(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, (30, 2))
        y = 0.3 * x[:, 0] - 0.2 * x[:, 1] ** 2 + 0.5 * rng.standard_normal(30)
        plan = null_kernel_for("BivLinAll", k=2)
        cfg = FitConfig(budget=10.0, solver="ridge_closed_form")
        run = lambda count: run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=200,
                                     rng=3, instrument_count=count)
        every = run(None)
        for count in (30, 31, 100):
            res = run(count)
            assert res.r_count == res.config["r_count"] == 30
            assert res.statistic == every.statistic and res.p_value == every.p_value

    @pytest.mark.parametrize(
        "instruments, count, shown",
        [
            (SectionInstrumentPlan(count=0), None, 0),
            (SectionInstrumentPlan(), 0, 0),
            (SectionInstrumentPlan(count=5), -3, -3),
            (SeriesInstrumentPlan(test_pairs=()), None, 0),
        ],
    )
    def test_instrument_count_below_one_rejected_before_the_fit(
        self, monkeypatch, instruments, count, shown
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the instrument count check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        plan = replace(_toy_plan(), r1=LinearKernel(), instruments=instruments)
        x = np.random.default_rng(4).uniform(-2, 2, (30, 2))
        with pytest.raises(ValueError, match=f"instrument count must be at least 1, got {shown}$"):
            run_test(
                x, x[:, 0], plan, rescaled_square_loss(), FitConfig(budget=5.0),
                instrument_count=count,
            )

    @pytest.mark.parametrize(
        "instruments, count, message",
        [
            (SectionInstrumentPlan(count=2.5), None, "the instrument count must be an integer, got 2.5"),
            (SectionInstrumentPlan(), 2.5, "the instrument count must be an integer, got 2.5"),
            (SectionInstrumentPlan(), True, "the instrument count must be an integer, got True"),
        ],
    )
    def test_non_integer_instrument_count_rejected_before_the_fit(
        self, monkeypatch, instruments, count, message
    ):
        # 2.5 used to pass the count check and fail after the fit in np.linspace
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the instrument count check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        plan = replace(_toy_plan(), r1=LinearKernel(), instruments=instruments)
        x = np.random.default_rng(4).uniform(-2, 2, (30, 2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_test(
                x, x[:, 0], plan, rescaled_square_loss(), FitConfig(budget=5.0),
                instrument_count=count,
            )

    @pytest.mark.parametrize(
        "n_draws, message",
        [(0, "n_draws must be at least 1, got 0"), (1.5, "n_draws must be an integer, got 1.5")],
    )
    def test_unusable_draw_count_rejected_before_the_fit(self, monkeypatch, n_draws, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the draw count check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        x = np.random.default_rng(4).uniform(-2, 2, (30, 2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_test(
                x, x[:, 0], _toy_plan(), rescaled_square_loss(), FitConfig(budget=5.0),
                n_draws=n_draws,
            )

    def test_numpy_integer_counts_accepted(self):
        x = np.random.default_rng(4).uniform(-2, 2, (30, 2))
        plan = replace(_toy_plan(), r1=LinearKernel(), instruments=SectionInstrumentPlan())
        result = run_test(
            x, x[:, 0], plan, rescaled_square_loss(), FitConfig(budget=5.0),
            n_draws=np.int64(50), instrument_count=np.int32(4),
        )
        assert result.r_count == 4
        assert result.null_draws.shape == (50,)

    def test_section_plan_without_r1_rejected_before_the_fit(self, monkeypatch):
        fits = []
        fit = inference._fit_by_solver

        def spy(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(inference, "_fit_by_solver", spy)
        plan = replace(_toy_plan(), instruments=SectionInstrumentPlan(count=5))
        assert plan.r1 is None
        x = np.random.default_rng(4).uniform(-2, 2, (30, 2))
        with pytest.raises(ValueError, match="alternative kernel r1"):
            run_test(x, x[:, 0], plan, rescaled_square_loss(), FitConfig(budget=5.0))
        assert fits == []

    @pytest.mark.parametrize("count", [0, 5])
    @pytest.mark.parametrize("plan", [_toy_plan(), null_kernel_for("Lin3")], ids=["toy", "Lin3"])
    def test_instrument_count_with_a_series_plan_rejected_before_the_fit(
        self, monkeypatch, plan, count
    ):
        # a series plan tests the columns its test_pairs name; a count used to
        # be ignored, so instrument_count=0 ran all 97 of Lin3's columns
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the instrument count check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        x = np.random.default_rng(4).uniform(-2, 2, (30, 10))
        with pytest.raises(ValueError, match="instrument_count counts kernel sections"):
            run_test(
                x, x[:, 0], plan, rescaled_square_loss(), FitConfig(budget=5.0),
                instrument_count=count,
            )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-2, 2, (40, 2))
        y = 0.4 * x[:, 0] + 0.5 * rng.standard_normal(40)
        plan = _toy_plan()
        cfg = FitConfig(budget=5.0, iterations=100)
        a = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=500, rng=5)
        b = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=500, rng=5)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert np.array_equal(a.null_draws, b.null_draws)
        assert np.array_equal(a.spectrum, b.spectrum)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(order=st.permutations(range(len(_toy_plan().instruments.test_pairs))))
    def test_test_pair_order_leaves_statistic_and_spectrum(self, order):
        # the statistic averages the squared moments and the spectrum is that
        # of a covariance whose rows and columns the order only permutes
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, (40, 2))
        y = 0.4 * x[:, 0] + 0.5 * rng.standard_normal(40)
        plan = _toy_plan()
        pairs = plan.instruments.test_pairs
        shuffled = replace(
            plan, instruments=replace(plan.instruments, test_pairs=tuple(pairs[i] for i in order))
        )
        cfg = FitConfig(budget=5.0, iterations=100)
        a = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=10)
        b = run_test(x, y, shuffled, rescaled_square_loss(), cfg, n_draws=10)
        assert b.statistic == pytest.approx(a.statistic, rel=1e-12)
        np.testing.assert_allclose(b.spectrum, a.spectrum, rtol=1e-12, atol=1e-12 * a.spectrum[0])

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Lin1NonLin", "BivLinAll"]),
        solver=st.sampled_from(["ridge_closed_form", "greedy"]),
        order=st.permutations(range(8)),
    )
    def test_anchor_order_leaves_statistic_and_spectrum(self, name, solver, order):
        # permuting the anchors permutes the section columns, so the averaged
        # squared moments and the covariance spectrum stay put
        rng = np.random.default_rng(23)
        x = rng.uniform(-2, 2, (40, 2))
        y = 0.4 * x[:, 0] + np.sin(2.0 * x[:, 1]) + 0.3 * rng.standard_normal(40)
        cfg = FitConfig(budget=3.0, solver=solver, iterations=60)
        args = (x, y, null_kernel_for(name), rescaled_square_loss(), cfg)
        base = run_test(*args, n_draws=10, instrument_count=8)
        spaced = inference._evenly_spaced_indices
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "_evenly_spaced_indices", lambda n, c: spaced(n, c)[list(order)])
            permuted = run_test(*args, n_draws=10, instrument_count=8)
        assert permuted.statistic == pytest.approx(base.statistic, rel=1e-12)
        np.testing.assert_allclose(
            permuted.spectrum, base.spectrum, rtol=1e-12, atol=1e-12 * base.spectrum[0]
        )

    @settings(max_examples=16, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["BivLinAll", "Lin3"]),
        multiplier=st.sampled_from([0.3, 10.0]),
        c=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**16),
    )
    def test_scaling_y_and_budget_scales_statistic_and_spectrum(self, name, multiplier, c, seed):
        # under the rescaled square loss scaling y and the budget by c scales the
        # fit and the residuals by c and leaves the fit's penalty, the weights S,
        # the projection and the instruments as they were
        design, k, solver, count = {
            "BivLinAll": ("Bivariate", 2, "ridge_closed_form", 20),
            "Lin3": ("Lin3", 10, "greedy", None),
        }[name]
        rng = np.random.default_rng(seed)
        x = gen_covariates(60, k, 0.0, rng=rng)
        y, _, _ = gen_response(x, design, 1.0, rng)
        budget = multiplier * float(np.std(y))
        base, scaled = (
            run_test(
                x, scale * y, null_kernel_for(name, k=k), rescaled_square_loss(),
                FitConfig(budget=scale * budget, solver=solver, iterations=100),
                n_draws=200, rng=seed, instrument_count=count,
            )
            for scale in (1.0, c)
        )
        for attr in ("statistic", "naive_statistic"):
            assert getattr(scaled, attr) == pytest.approx(c**2 * getattr(base, attr), rel=1e-10)
        for attr in ("spectrum", "naive_spectrum"):
            want = c**2 * getattr(base, attr)
            got = getattr(scaled, attr)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * want[0])
        for attr in ("p_value", "naive_p_value"):
            assert abs(getattr(scaled, attr) - getattr(base, attr)) <= 1.0 / 201 + 1e-15

    def test_degenerate_exact_fit(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-2, 2, (30, 2))
        y = 0.7 * x[:, 0]  # exactly representable under the null kernel
        plan = _toy_plan()
        cfg = FitConfig(budget=50.0, iterations=400)
        res = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=200, rng=1)
        assert res.statistic <= 1e-10
        assert 0.0 < res.p_value <= 1.0

    def test_result_record_fields(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, (30, 2))
        y = 0.4 * x[:, 0] + 0.3 * rng.standard_normal(30)
        plan = _toy_plan()
        res = run_test(
            x, y, plan, rescaled_square_loss(), FitConfig(budget=5.0, iterations=50),
            n_draws=300, rng=2,
        )
        record = res.to_record()
        for key in (
            "statistic",
            "p_value",
            "p_value_se",
            "spectrum",
            "naive_statistic",
            "naive_p_value",
            "naive_p_value_se",
            "proj_rho",
            "budget_binding",
            "residual_null_score",
            "scaling_note",
            "config",
        ):
            assert key in record
        for p, se in ((res.p_value, "p_value_se"), (res.naive_p_value, "naive_p_value_se")):
            assert record[se] == pytest.approx(np.sqrt(p * (1 - p) / 300), rel=1e-12)
        assert res.r_count == 11
        assert res.statistic >= 0
        text = res.to_text()
        assert "statistic" in text and "p-value" in text and "eigenvalues" in text

    def test_residual_null_score_tracks_least_squares_identity(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-2, 2, (60, 2))
        y = 0.4 * x[:, 0] + 0.3 * rng.standard_normal(60)
        plan = _toy_plan()

        def run(budget):
            cfg = FitConfig(budget=budget, iterations=200)
            return run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=200, rng=3)

        converged = run(50.0)
        assert not converged.budget_binding
        assert converged.residual_null_score <= 0.01
        tight = run(0.05)
        assert tight.budget_binding
        assert tight.residual_null_score > 0.01

    def test_explicit_zero_rho_gives_orthogonal_instruments(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(-2, 2, (50, 2))
        y = 0.4 * x[:, 0] + 0.3 * rng.standard_normal(50)
        plan = _toy_plan()
        res = run_test(
            x, y, plan, rescaled_square_loss(), FitConfig(budget=5.0, iterations=80),
            proj_rho=0.0, n_draws=200, rng=3,
        )
        assert res.orthogonality <= 1e-8
        assert res.proj_rho_rule == "explicit"

    def test_slack_section_fit_projects_off_null_span(self):
        # a slack budget couples rho = 0 into the projection, which then runs
        # through the thin SVD of the fit's rank-3 feature matrix
        rng = np.random.default_rng(23)
        n = 80
        x = rng.uniform(-2, 2, (n, 2))
        y = 0.2 * x[:, 0] - 0.1 * x[:, 1] + 0.4 * rng.standard_normal(n)
        r0 = CompositeKernel(((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1))))
        model = fit_constrained_ridge(r0, x, y, budget=1e3)
        assert model.ridge_rho == 0.0 and model.eigen.thin
        sections = r0 + CompositeKernel(((GaussianRBF(0.75, 0.5), (0, 1)),))
        raw = build_instruments(x, kernel=sections, anchor_indices=np.arange(0, n, 4))
        ones = np.ones(n)
        once, _, defect = _project_on_null(model, ones, raw, 0.0)
        span = np.column_stack([ones, x])
        assert orthogonality_defect(span, ones, once) <= 1e-10
        assert defect <= 1e-10
        twice, _, _ = _project_on_null(model, ones, once, 0.0)
        assert np.max(np.abs(twice - once)) <= 1e-12

    def test_section_plan_full_pipeline(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-2, 2, (60, 2))
        y = 0.2 * x[:, 0] + 0.1 * x[:, 1] + 0.4 * rng.standard_normal(60)
        r0 = CompositeKernel(((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1))))
        plan = HypothesisPlan(
            name="sections",
            r0=r0,
            r1=CompositeKernel(((GaussianRBF(0.75, 0.5), (0, 1)),)),
            instruments=SectionInstrumentPlan(count=15),
        )
        res = run_test(
            x, y, plan, rescaled_square_loss(),
            FitConfig(budget=10.0, solver="ridge_closed_form"),
            n_draws=500, rng=4,
        )
        assert res.r_count == 15
        assert res.proj_rho_rule == "fit-coupled"
        assert 0 < res.p_value <= 1
        assert res.naive_statistic >= 0

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_ridge_solver_rejects_non_least_squares_losses(self, name):
        # closed-form ridge minimizes square loss; scores of another loss at
        # that fit would test the wrong restricted model.  It fits exactly the
        # losses L = κ(y − t)², whose line-search comparisons are certified.
        rng = np.random.default_rng(20)
        x = rng.uniform(-2, 2, (30, 2))
        y = rng.integers(0, 2, 30).astype(float)
        loss = loss_by_name(name)
        square = hasattr(loss.segment_mean(np.ones(3), np.zeros(3), np.ones(3)), "order")
        cfg = FitConfig(budget=5.0, solver="ridge_closed_form")
        if square:
            assert _fit_by_solver(_toy_plan().r0, x, y, loss, cfg).fitted.shape == (30,)
        else:
            with pytest.raises(ValueError, match=repr(loss.kind)):
                _fit_by_solver(_toy_plan().r0, x, y, loss, cfg)


def _rbf_gram_case():
    """A Gram-path test: three RBF null terms, an RBF alternative on x4."""
    rng = np.random.default_rng(31)
    n = 120
    x = rng.uniform(-2, 2, (n, 4))
    y = np.sin(1.5 * x[:, 0]) + 0.25 * x[:, 1] ** 2 - 0.3 * x[:, 2]
    y = y + 0.5 * rng.standard_normal(n)
    r0 = CompositeKernel(
        tuple((GaussianRBF(0.7 + 0.2 * c, 1.0 + 0.25 * c), (c,)) for c in range(3))
    )
    plan = HypothesisPlan(
        name="rbf",
        r0=r0,
        r1=CompositeKernel(((GaussianRBF(1.0), (3,)),)),
        instruments=SectionInstrumentPlan(count=30),
    )
    return x, y, plan, FitConfig(budget=5.0, iterations=80)


def _project_on_rebuilt_gram(model, s_diag, raw, rho):
    """Reference projection on a freshly built null Gram C0, whatever the fit, with
    the defect from the direct product."""
    c0 = gram_matrix(CompositeKernel(model.terms), model.anchors)
    projected = project_instruments(c0, s_diag, raw, rho)
    return projected, c0, orthogonality_defect(c0, s_diag, projected)


class TestGramPathReuse:
    """run_test reuses the greedy fit's fitted values and summed null Gram."""

    def test_matches_rebuilt_predictions_and_null_gram(self, monkeypatch):
        x, y, plan, cfg = _rbf_gram_case()
        loss = rescaled_square_loss()
        fast = run_test(x, y, plan, loss, cfg, n_draws=400, rng=8)

        def fit_and_predict(kernel, x, y, loss, fit_config):
            model = greedy_fit(x, y, loss, kernel, fit_config)
            return replace(model, fitted=model.predict(x))

        monkeypatch.setattr(inference, "_fit_by_solver", fit_and_predict)
        monkeypatch.setattr(inference, "_project_on_null", _project_on_rebuilt_gram)
        ref = run_test(x, y, plan, loss, cfg, n_draws=400, rng=8)
        assert fast.statistic == ref.statistic
        assert np.array_equal(fast.spectrum, ref.spectrum)
        assert fast.p_value == ref.p_value
        assert fast.naive_p_value == ref.naive_p_value
        assert fast.orthogonality == pytest.approx(ref.orthogonality, rel=1e-6)
        assert fast.residual_null_score == ref.residual_null_score

    def test_builds_one_square_gram_per_null_term(self, monkeypatch):
        x, y, plan, cfg = _rbf_gram_case()
        n = x.shape[0]
        square = []
        gram = GaussianRBF.gram

        def counting_gram(self, a, b=None):
            out = gram(self, a, b)
            if out.shape == (n, n):
                square.append(self)
            return out

        monkeypatch.setattr(GaussianRBF, "gram", counting_gram)
        run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=100, rng=1)
        assert square == [kernel for kernel, _ in plan.r0.terms]


def test_default_projection_rho_rule():
    # the rule n^(-0.4) penalizes the n-normalized objective; the matrix
    # solve takes the unnormalized one, so the penalty is n times the rule
    n = 40
    rng = np.random.default_rng(31)
    x = rng.uniform(-2, 2, (n, 2))
    y = 0.4 * x[:, 0] + 0.3 * rng.standard_normal(n)
    res = run_test(
        x, y, _toy_plan(), rescaled_square_loss(), FitConfig(budget=5.0, iterations=40),
        n_draws=100, rng=2,
    )
    assert res.proj_rho == n * float(n) ** (-0.4)
    assert res.proj_rho_rule == "n*n^(-0.4) default rule"


@pytest.mark.parametrize(
    "rho, message",
    [
        ("abc", "projection penalty must be a real number, got 'abc'"),
        (True, "projection penalty must be a real number, got True"),
        (-1, "projection penalty must be nonnegative and finite, got -1"),
        (float("nan"), "projection penalty must be nonnegative and finite, got nan"),
        (float("inf"), "projection penalty must be nonnegative and finite, got inf"),
    ],
)
def test_unusable_projection_penalty_rejected_before_the_fit(monkeypatch, rho, message):
    # NaN once failed after the fit in eigh; inf silently gave the
    # uncorrected test; True ran with a penalty of 1.0
    def no_fit(*args, **kwargs):
        raise AssertionError("the restricted fit ran before the penalty check")

    monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
    x = np.random.default_rng(3).uniform(-2, 2, (30, 2))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_test(x, x[:, 0], _toy_plan(), rescaled_square_loss(), FitConfig(budget=5.0),
                 proj_rho=rho)


@pytest.mark.parametrize(
    "pair, message",
    [
        ((5, 2), "series coordinate 5 outside 0..1"),
        ((-1, 2), "series coordinate -1 outside 0..1"),
        ((0, 11), "series order 11 outside 1..10"),
        ((0, 0), "series order 0 outside 1..10"),
    ],
)
def test_unusable_series_pair_rejected_before_the_fit(monkeypatch, pair, message):
    # coordinate 5 once failed after the fit, and -1 silently tested the last column
    def no_fit(*args, **kwargs):
        raise AssertionError("the restricted fit ran before the series pairs were checked")

    monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
    plan = replace(_toy_plan(), instruments=SeriesInstrumentPlan(test_pairs=((0, 2), pair)))
    x = np.random.default_rng(3).uniform(-2, 2, (30, 2))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_test(x, x[:, 0], plan, rescaled_square_loss(), FitConfig(budget=5.0))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        series_feature_columns(x, [pair])


class TestFeatureSpanProjection:
    """A finite-rank null kernel is projected off through its feature columns."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(37)
        n = 60
        x = rng.uniform(-2, 2, (n, 2))
        y = 0.3 * x[:, 0] - 0.2 * x[:, 1] + 0.4 * rng.standard_normal(n)
        plan = HypothesisPlan(
            name="greedy-sections",
            r0=CompositeKernel(((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1)))),
            r1=CompositeKernel(((GaussianRBF(0.75, 0.5), (0, 1)),)),
            instruments=SectionInstrumentPlan(count=15),
        )
        return x, y, plan, FitConfig(budget=5.0, iterations=60)

    @pytest.mark.parametrize("solver", ["greedy", "ridge_closed_form"])
    def test_section_fit_builds_no_square_gram(self, monkeypatch, solver):
        x, y, plan, cfg = self._case()
        cfg = replace(cfg, solver=solver)
        n = x.shape[0]
        square = []
        for cls in (ConstantKernel, LinearKernel):
            def counting_gram(self, a, b=None, _gram=cls.gram):
                out = _gram(self, a, b)
                if out.shape == (n, n):
                    square.append(self)
                return out

            monkeypatch.setattr(cls, "gram", counting_gram)
        res = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=100, rng=1)
        assert square == []
        assert 0 < res.p_value <= 1

    def test_matches_projection_on_the_null_gram(self, monkeypatch):
        x, y, plan, cfg = self._case()
        loss = rescaled_square_loss()
        fast = run_test(x, y, plan, loss, cfg, n_draws=200, rng=2)
        monkeypatch.setattr(inference, "_project_on_null", _project_on_rebuilt_gram)
        ref = run_test(x, y, plan, loss, cfg, n_draws=200, rng=2)
        assert fast.statistic == pytest.approx(ref.statistic, rel=1e-10)
        np.testing.assert_allclose(
            fast.spectrum, ref.spectrum, rtol=1e-10, atol=1e-10 * ref.spectrum[0]
        )


class TestNullSpanFromTheFit:
    """run_test projects off the span the restricted fit built, so it calls r0's
    feature maps and square Grams exactly as the fit alone does.  Calls made
    inside an open ``gram`` build that Gram (a finite-rank term's Gram is
    formed from its features), so only calls outside every Gram are counted."""

    @pytest.mark.parametrize("case", ["features", "gram"])
    @pytest.mark.parametrize("solver", ["greedy", "ridge_closed_form"])
    def test_asks_r0_for_nothing_beyond_the_fit(self, monkeypatch, case, solver):
        if case == "features":
            x, y, plan, cfg = TestFeatureSpanProjection._case()
        else:
            x, y, plan, cfg = _rbf_gram_case()
        cfg = replace(cfg, solver=solver)
        n = x.shape[0]
        calls, open_grams = [], [0]
        for cls in (Kernel, CompositeKernel, ConstantKernel, LinearKernel, GaussianRBF):
            for name in ("feature_matrix", "gram"):
                if name in vars(cls):
                    def spy(self, *args, _method=vars(cls)[name], _name=name, **kwargs):
                        outside = not open_grams[0]
                        open_grams[0] += _name == "gram"
                        try:
                            out = _method(self, *args, **kwargs)
                        finally:
                            open_grams[0] -= _name == "gram"
                        if outside and (_name == "feature_matrix" or out.shape == (n, n)):
                            calls.append((type(self).__name__, _name))
                        return out

                    monkeypatch.setattr(cls, name, spy)
        loss = rescaled_square_loss()
        inference._fit_by_solver(plan.r0, x, y, loss, cfg)
        fit_calls = list(calls)
        calls.clear()
        run_test(x, y, plan, loss, cfg, n_draws=100, rng=1)
        assert calls == fit_calls


def _concurrency_case(kind):
    """A series test on a linear null, or a section test on BivLinAll's r0 and r1."""
    rng = np.random.default_rng(23)
    x = rng.uniform(-2, 2, (60, 2))
    y = 0.3 * x[:, 0] - 0.2 * x[:, 1] ** 2 + 0.5 * rng.standard_normal(60)
    if kind == "series":
        return x, y, _toy_plan(), FitConfig(budget=5.0, iterations=100), None
    plan = null_kernel_for("BivLinAll", k=2)
    return x, y, plan, FitConfig(budget=10.0, solver="ridge_closed_form"), 20


class TestConcurrentNullDraws:
    """run_test draws the uncorrected null on a helper thread."""

    @pytest.mark.parametrize("kind", ["series", "section"])
    def test_helper_thread_gives_the_serial_draws(self, monkeypatch, kind):
        x, y, plan, cfg, count = _concurrency_case(kind)
        on_main = []
        real = inference.simulate_null

        def spy(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            return real(*args)

        monkeypatch.setattr(inference, "simulate_null", spy)
        result = run_test(
            x, y, plan, rescaled_square_loss(), cfg,
            n_draws=3000, rng=8, instrument_count=count,
        )
        assert sorted(on_main) == [False, True]
        # the draws of one null after the other on the two spawned streams
        stream_pi, stream_naive = np.random.default_rng(8).spawn(2)
        draws = real(result.spectrum, 3000, stream_pi)
        naive_draws = real(result.naive_spectrum, 3000, stream_naive)
        assert np.array_equal(result.null_draws, draws)
        assert np.array_equal(result.naive_null_draws, naive_draws)
        assert result.p_value == p_value(result.statistic, draws)
        assert result.naive_p_value == p_value(result.naive_statistic, naive_draws)

    def test_helper_error_reraised_after_the_join(self, monkeypatch):
        x, y, plan, cfg, _ = _concurrency_case("series")
        real = inference.simulate_null

        def failing_on_the_helper(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("the helper's draw failed")
            return real(*args)

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        monkeypatch.setattr(inference, "simulate_null", failing_on_the_helper)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="the helper's draw failed"):
            run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=500, rng=8)
        assert threading.active_count() == before
        assert unhandled == []


def _defect_case(route):
    """(x, y, plan, loss, fit config, proj_rho) of a run that reaches ``route``."""
    rng = np.random.default_rng(41)
    x = rng.uniform(-1, 1, (120, 2))
    y = np.sin(2 * x[:, 0]) + 0.5 * x[:, 1] + 0.3 * rng.standard_normal(120)
    ridge = FitConfig(budget=0.5, solver="ridge_closed_form")
    if route == "series":
        return x, y, _toy_plan(), rescaled_square_loss(), FitConfig(budget=5.0, iterations=60), None
    if route == "features":
        return x, y, null_kernel_for("BivLinAll", k=2), rescaled_square_loss(), ridge, None
    if route in ("eigen-square", "eigen-rescaled"):
        loss = square_loss() if route == "eigen-square" else rescaled_square_loss()
        return x, y, null_kernel_for("Lin1NonLin", k=2), loss, ridge, None
    if route == "logistic":
        plan = replace(null_kernel_for("Lin1NonLin", k=2), instruments=SectionInstrumentPlan(30))
        labels = np.where(y > 0, 1.0, -1.0)
        return x, labels, plan, logistic_loss(), FitConfig(5.0, iterations=40), None
    x, y, plan, cfg = _rbf_gram_case()
    return x, y, plan, rescaled_square_loss(), cfg, (0.0 if route == "solve-rho0" else None)


class TestOrthogonalityDefect:
    """Every run reports the defect of its own projection, on every route."""

    @pytest.mark.parametrize(
        "route, path",
        [("series", "features"), ("features", "features"), ("eigen-square", "eigen"),
         ("eigen-rescaled", "eigen"), ("solve", "solve"), ("logistic", "solve"),
         ("solve-rho0", "solve")],
    )
    def test_matches_the_direct_product(self, monkeypatch, route, path):
        x, y, plan, loss, cfg, rho = _defect_case(route)
        seen = {}

        def spy(model, s_diag, raw, rho):
            seen.update(model=model, s_diag=s_diag, out=_project_on_null(model, s_diag, raw, rho))
            return seen["out"]

        monkeypatch.setattr(inference, "_project_on_null", spy)
        res = run_test(x, y, plan, loss, cfg, proj_rho=rho, n_draws=200, rng=5)
        model, s_diag, (projected, span, defect) = seen["model"], seen["s_diag"], seen["out"]
        constant_s = np.all(s_diag == s_diag[0])
        taken = ("features" if model.features is not None
                 else "eigen" if model.eigen is not None and constant_s else "solve")
        assert taken == path
        assert constant_s == (route != "logistic")
        assert (res.proj_rho == 0.0) == (route == "solve-rho0")
        assert isinstance(res.orthogonality, float) and res.orthogonality == defect
        direct = orthogonality_defect(span, s_diag, projected)
        if res.proj_rho == 0.0:
            assert res.orthogonality == 0.0 and direct <= 1e-8
        else:
            assert res.orthogonality == pytest.approx(direct, rel=1e-6)
            assert res.orthogonality > 0.0

    def test_gram_identity_on_random_weights_and_penalties(self):
        # C0 S h = rho (raw - h) for the Gram solve whatever S and rho > 0
        rng = np.random.default_rng(43)
        x = rng.uniform(-2, 2, (40, 1))
        c0 = GaussianRBF(0.8).gram(x)
        raw = rng.standard_normal((40, 6))
        for rho in (1e-3, 1.0, 60.0):
            s_diag = rng.uniform(0.1, 3.0, 40)
            h = project_instruments(c0, s_diag, raw, rho)
            ratio = np.linalg.norm(raw - h, axis=0) / np.linalg.norm(h, axis=0)
            assert rho * ratio.max() == pytest.approx(orthogonality_defect(c0, s_diag, h), rel=1e-8)


def _exact_fit_case(seed):
    x = np.random.default_rng(seed).uniform(-1, 1, (50, 2))
    return x, 0.3 * x[:, 0] - 0.2 * x[:, 1] + 0.1


class TestExactFit:
    """A response in span(r0) leaves a rounding-level residual, read as 0."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rounding_residual_reads_as_zero(self, seed):
        # these seeds once gave naive p-values 0.001 to 0.137 and residual
        # null scores 3.3 to 6.9 from a residual of about 1e-17
        x, y = _exact_fit_case(seed)
        plan = null_kernel_for("BivLinAll", k=2)
        cfg = FitConfig(budget=10.0, solver="ridge_closed_form")
        res = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=1000, rng=seed)
        assert not res.budget_binding
        assert res.statistic == res.naive_statistic == 0.0
        assert res.p_value == res.naive_p_value == 1.0
        assert res.residual_null_score == 0.0
        assert not np.any(res.spectrum) and not np.any(res.naive_spectrum)

    @pytest.mark.parametrize("solver", ["greedy", "ridge_closed_form"])
    def test_matches_the_zero_response(self, solver):
        x, _ = _exact_fit_case(0)
        plan = null_kernel_for("BivLinAll", k=2)
        cfg = FitConfig(budget=10.0, iterations=50, solver=solver)
        res = run_test(x, np.zeros(50), plan, rescaled_square_loss(), cfg, n_draws=500, rng=1)
        assert res.statistic == 0.0 and res.p_value == res.naive_p_value == 1.0
        assert res.residual_null_score == 0.0

    def test_noise_above_the_threshold_is_kept(self):
        x, y = _exact_fit_case(0)
        y = y + 1e-9 * np.random.default_rng(1).standard_normal(50)
        plan = null_kernel_for("BivLinAll", k=2)
        cfg = FitConfig(budget=10.0, solver="ridge_closed_form")
        res = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=500, rng=1)
        assert res.statistic > 0.0 and res.residual_null_score > 0.0


class TestVanishingProjection:
    """Instruments that lie in span(r0) project to rounding, read as 0."""

    @pytest.mark.parametrize("seed", range(6))
    def test_constant_covariate_reads_as_zero(self, seed):
        # a constant x makes every section a multiple of r0's constant term;
        # these seeds once gave statistics of 1e-33 to 1e-30 and p-values
        # of 0.26 to 0.97
        y = np.random.default_rng(seed).standard_normal(40)
        plan = null_kernel_for("Lin1NonLin", k=2)
        cfg = FitConfig(budget=10.0, solver="ridge_closed_form")
        res = run_test(
            np.ones((40, 2)), y, plan, rescaled_square_loss(), cfg,
            instrument_count=10, n_draws=500, rng=0,
        )
        assert res.statistic == 0.0 and res.p_value == 1.0
        assert not np.any(res.spectrum) and res.orthogonality == 0.0

    def test_projection_above_the_threshold_is_kept(self):
        x = np.ones((40, 2))
        x[0, 1] = 1.0 + 1e-3
        y = np.random.default_rng(0).standard_normal(40)
        plan = null_kernel_for("Lin1NonLin", k=2)
        cfg = FitConfig(budget=10.0, solver="ridge_closed_form")
        res = run_test(x, y, plan, rescaled_square_loss(), cfg, instrument_count=10, n_draws=500, rng=0)
        assert res.statistic > 0.0 and np.any(res.spectrum)


def _permutation_case(kind, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, (n, 2))
    y = 0.3 * x[:, 0] - 0.2 * x[:, 1] ** 2 + 0.5 * rng.standard_normal(n)
    plan = _toy_plan() if kind == "series" else null_kernel_for("BivLinAll", k=2)
    return x, y, plan, rng.permutation(n)


class TestRowPermutation:
    """Reordering the sample's rows changes nothing but summation order."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["series", "section"]),
        solver=st.sampled_from(["ridge_closed_form", "greedy"]),
        n=st.integers(20, 60),
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([0.3, 3.0, 100.0]),
    )
    def test_statistic_spectrum_and_p_values(self, kind, solver, n, seed, budget):
        # the section plan has count None, so every row is an anchor and the
        # permutation also reorders the instruments.  The greedy case takes
        # the 1/m rule: its steps are fixed, so rounding cannot move a step
        # as it can move a line search's, which stops within 1e-6
        x, y, plan, perm = _permutation_case(kind, n, seed)
        cfg = FitConfig(budget=budget, solver=solver, iterations=100, step_rule="one_over_m")
        a = run_test(x, y, plan, rescaled_square_loss(), cfg, n_draws=500, rng=seed)
        b = run_test(x[perm], y[perm], plan, rescaled_square_loss(), cfg, n_draws=500, rng=seed)
        # rounding: 1e-9 of the largest weight, or of their sum for the
        # statistic, whose scale under the null is that sum
        for stat, spec in (("statistic", "spectrum"), ("naive_statistic", "naive_spectrum")):
            scale = getattr(a, spec)
            expected = pytest.approx(getattr(a, stat), rel=1e-9, abs=1e-9 * scale.sum())
            assert getattr(b, stat) == expected
            np.testing.assert_allclose(getattr(b, spec), scale, rtol=0, atol=1e-9 * scale[0])
        # the same normals feed the same weights, so only a draw within
        # rounding of the statistic could move a p-value
        assert a.p_value == b.p_value and a.naive_p_value == b.naive_p_value
