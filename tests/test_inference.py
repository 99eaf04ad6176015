"""Instrument projection, the moment statistic and its simulated null."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rkhstest import inference
from rkhstest.estimators import FitConfig, fit_constrained_ridge, greedy_fit
from rkhstest.inference import (
    HypothesisPlan,
    SectionInstrumentPlan,
    SeriesInstrumentPlan,
    build_instruments,
    covariance_estimate,
    default_projection_rho,
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
    Kernel,
    LinearKernel,
    gram_matrix,
    polynomial_series,
)
from rkhstest.losses import loss_by_name, poisson_loss, rescaled_square_loss, square_loss
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

    def test_penalized_first_order_conditions_oracle(self):
        rng = np.random.default_rng(2)
        c0 = rng.normal(size=(4, 4))
        c0 = c0 @ c0.T + 0.5 * np.eye(4)
        s = rng.uniform(0.5, 2.0, 4)
        col = rng.normal(size=(4, 1))
        rho = 0.1
        inst = project_instruments(c0, s, col, rho)
        # independent route: stationarity of the penalized weighted loss,
        # (C0 S C0 + rho C0) b = C0 S c
        lhs = c0 @ np.diag(s) @ c0 + rho * c0
        rhs = c0 @ (s * col[:, 0])
        b = np.linalg.solve(lhs, rhs)
        assert np.allclose(inst[:, 0], col[:, 0] - c0 @ b, atol=1e-8)

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
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.uniform(-2, 2, (n, 2))
        y = x[:, 0] + rng.normal(size=n)
        raw = rng.normal(size=(n, draw(st.integers(1, 5), label="R")))
        model = fit_constrained_ridge(r0, x, y, rho=1.0)
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


class TestBuildInstruments:
    def test_series_features_monomial_grid(self):
        x = RNG.uniform(-2, 2, (7, 3))
        base = polynomial_series(10, 2.2)
        pairs = [(0, 2), (2, 5)]
        cols = series_feature_columns(x, base, pairs)
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
        sigma, spectrum = covariance_estimate(e0, h, None, "product_form")
        assert np.allclose(sigma, sigma2 * np.eye(r), atol=1e-10)
        assert np.allclose(spectrum, np.full(r, sigma2 / r), atol=1e-10)

    def test_pointwise_equals_product_for_unit_weights(self):
        rng = np.random.default_rng(9)
        n = 12
        h = rng.normal(size=(n, 3))
        e0 = rng.normal(size=n)
        e0 *= np.sqrt(n) / np.linalg.norm(e0)  # e0'e0/n = 1
        s1, w1 = covariance_estimate(e0, h, np.ones(n), "pointwise")
        s2, w2 = covariance_estimate(e0, h, None, "product_form")
        assert np.allclose(s1, s2, rtol=1e-12)
        assert np.allclose(w1, w2, rtol=1e-12)

    def test_eigenvalues_match_cubic_oracle(self):
        rng = np.random.default_rng(10)
        h = rng.normal(size=(20, 3))
        e0 = rng.normal(size=20)
        sigma, spectrum = covariance_estimate(e0, h, None, "product_form")
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
        sigma, spectrum = covariance_estimate(e0, h, None, "product_form")
        assert np.all(np.diff(spectrum) <= 1e-12)
        assert np.all(spectrum >= 0)
        assert spectrum.sum() == pytest.approx(np.trace(sigma) / 6.0, rel=1e-8)

    def test_pointwise_requires_weights(self):
        with pytest.raises(ValueError, match="weights"):
            covariance_estimate(np.ones(3), np.ones((3, 1)), None, "pointwise")


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
    base = polynomial_series(6, 2.2)
    return HypothesisPlan(
        name="toy",
        r0=CompositeKernel(((LinearKernel(1.0), (0,)),)),
        r1=None,
        instruments=SeriesInstrumentPlan(
            kernel=base,
            test_pairs=tuple((0, v) for v in range(2, 7)) + tuple((1, v) for v in range(1, 7)),
        ),
    )


class TestRunTest:
    @pytest.mark.parametrize(
        "instruments, count, shown",
        [
            (SectionInstrumentPlan(count=0), None, 0),
            (SectionInstrumentPlan(), 0, 0),
            (SectionInstrumentPlan(count=5), -3, -3),
            (SeriesInstrumentPlan(kernel=polynomial_series(4), test_pairs=()), None, 0),
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
        assert res.orthogonality is not None and res.orthogonality <= 1e-8
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
        once, _ = _project_on_null(model, ones, raw, 0.0)
        span = np.column_stack([ones, x])
        assert orthogonality_defect(span, ones, once) <= 1e-10
        twice, _ = _project_on_null(model, ones, once, 0.0)
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
            n_draws=500, rng=4, diagnostics=True,
        )
        assert res.r_count == 15
        assert res.proj_rho_rule == "fit-coupled"
        assert 0 < res.p_value <= 1
        assert res.naive_statistic >= 0

    @pytest.mark.parametrize("name", ["logistic", "poisson_count", "duration_hazard"])
    def test_ridge_solver_rejects_non_least_squares_losses(self, name):
        # closed-form ridge minimizes square loss; scores of another loss at
        # that fit would test the wrong restricted model
        rng = np.random.default_rng(20)
        x = rng.uniform(-2, 2, (30, 2))
        y = rng.integers(0, 2, 30).astype(float)
        cfg = FitConfig(budget=5.0, solver="ridge_closed_form")
        with pytest.raises(ValueError, match=repr(name)):
            run_test(x, y, _toy_plan(), loss_by_name(name), cfg, n_draws=100)

    def test_ridge_solver_fits_the_absolute_loss(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, (30, 2))
        y = 0.4 * x[:, 0] + 0.3 * rng.standard_normal(30)
        cfg = FitConfig(budget=5.0, solver="ridge_closed_form")
        res = run_test(x, y, _toy_plan(), loss_by_name("absolute"), cfg, n_draws=100)
        assert 0 < res.p_value <= 1


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
    """Reference projection on a freshly built null Gram C0, whatever the fit."""
    c0 = gram_matrix(CompositeKernel(model.terms), model.anchors)
    return project_instruments(c0, s_diag, raw, rho), c0


class TestGramPathReuse:
    """run_test reuses the greedy fit's fitted values and summed null Gram."""

    def test_matches_rebuilt_predictions_and_null_gram(self, monkeypatch):
        x, y, plan, cfg = _rbf_gram_case()
        loss = rescaled_square_loss()
        fast = run_test(x, y, plan, loss, cfg, n_draws=400, rng=8, diagnostics=True)

        def fit_and_predict(kernel, x, y, loss, fit_config):
            model = greedy_fit(x, y, loss, kernel, fit_config)
            return replace(model, fitted=model.predict(x))

        monkeypatch.setattr(inference, "_fit_by_solver", fit_and_predict)
        monkeypatch.setattr(inference, "_project_on_null", _project_on_rebuilt_gram)
        ref = run_test(x, y, plan, loss, cfg, n_draws=400, rng=8, diagnostics=True)
        assert fast.statistic == ref.statistic
        assert np.array_equal(fast.spectrum, ref.spectrum)
        assert fast.p_value == ref.p_value
        assert fast.naive_p_value == ref.naive_p_value
        assert fast.orthogonality == ref.orthogonality
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
    assert default_projection_rho(100) == pytest.approx(100 ** -0.4)
    assert 1000 ** -0.5 < default_projection_rho(1000) < 1000 ** (-1.0 / 3.0)


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
        fast = run_test(x, y, plan, loss, cfg, n_draws=200, rng=2, diagnostics=True)
        monkeypatch.setattr(inference, "_project_on_null", _project_on_rebuilt_gram)
        ref = run_test(x, y, plan, loss, cfg, n_draws=200, rng=2, diagnostics=True)
        assert fast.statistic == pytest.approx(ref.statistic, rel=1e-10)
        np.testing.assert_allclose(
            fast.spectrum, ref.spectrum, rtol=1e-10, atol=1e-10 * ref.spectrum[0]
        )


class TestNullSpanFromTheFit:
    """run_test projects off the span the restricted fit built, so it calls r0's
    feature maps and square Grams exactly as the fit alone does."""

    @pytest.mark.parametrize("case", ["features", "gram"])
    @pytest.mark.parametrize("solver", ["greedy", "ridge_closed_form"])
    def test_asks_r0_for_nothing_beyond_the_fit(self, monkeypatch, case, solver):
        if case == "features":
            x, y, plan, cfg = TestFeatureSpanProjection._case()
        else:
            x, y, plan, cfg = _rbf_gram_case()
        cfg = replace(cfg, solver=solver)
        n = x.shape[0]
        calls = []
        for cls in (Kernel, CompositeKernel, ConstantKernel, LinearKernel, GaussianRBF):
            for name in ("feature_matrix", "gram"):
                if name in vars(cls):
                    def spy(self, *args, _method=vars(cls)[name], _name=name, **kwargs):
                        out = _method(self, *args, **kwargs)
                        if _name == "feature_matrix" or out.shape == (n, n):
                            calls.append((type(self).__name__, _name))
                        return out

                    monkeypatch.setattr(cls, name, spy)
        loss = rescaled_square_loss()
        inference._fit_by_solver(plan.r0, x, y, loss, cfg)
        fit_calls = list(calls)
        calls.clear()
        run_test(x, y, plan, loss, cfg, n_draws=100, rng=1)
        assert calls == fit_calls
