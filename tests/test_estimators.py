"""Ridge solves, the norm-budget equation and the greedy loop."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gram_only import GramOnly, HornerPolynomial
from rkhstest import estimators
from rkhstest.estimators import (
    BINDING_RTOL,
    FitConfig,
    GramEigen,
    _fit_by_solver,
    budget_norm_sq,
    fit_constrained_ridge,
    fit_ridge,
    gram_eigen,
    greedy_direction,
    greedy_direction_series,
    greedy_fit,
    line_search,
    solve_rho_for_budget,
)
from rkhstest.kernels import (
    CompositeKernel,
    ConstantKernel,
    GaussianRBF,
    Kernel,
    LinearKernel,
    additive_kernel,
    gram_matrix,
    polynomial_series,
)
from rkhstest.losses import (
    LossSpec,
    logistic_loss,
    poisson_loss,
    rescaled_square_loss,
    square_loss,
)
from rkhstest.simulation import gen_covariates, gen_response, null_kernel_for

RNG = np.random.default_rng(2024)


def random_psd(n, rng, jitter=0.0):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + jitter * np.eye(n)


class TestFitRidge:
    def test_identity_gram(self):
        a = fit_ridge(np.eye(2), np.array([2.0, 4.0]), 1.0)
        assert np.allclose(a, [1.0, 2.0], rtol=1e-14)

    def test_two_by_two_cramer_oracle(self):
        gram = np.array([[2.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 0.0])
        a = fit_ridge(gram, y, 0.5)
        # Cramer's rule on (C + 0.5 I) a = y
        det = 2.5 * 2.5 - 1.0
        assert np.allclose(a, [2.5 / det, -1.0 / det], rtol=1e-12)
        assert np.allclose(a, [0.47619047619047616, -0.19047619047619047])

    def test_huge_penalty_shrinks_to_zero(self):
        gram = random_psd(6, np.random.default_rng(1))
        y = np.random.default_rng(2).normal(size=6)
        a = fit_ridge(gram, y, 1e9)
        assert np.linalg.norm(a) <= 1e-8 * np.linalg.norm(y)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 12
            gram = random_psd(n, rng)
            y = rng.normal(size=n)
            rho = rng.uniform(0.01, 2.0)
            a = fit_ridge(gram, y, rho)
            resid = (gram + rho * np.eye(n)) @ a - y
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    @pytest.mark.parametrize(
        "rho, message",
        [
            (-1.0, "ridge penalty must be nonnegative and finite, got -1.0"),
            (float("nan"), "ridge penalty must be nonnegative and finite, got nan"),
            ("0.5", "ridge penalty must be a real number, got '0.5'"),
        ],
    )
    def test_unusable_penalty_rejected(self, rho, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_ridge(np.eye(2), np.array([2.0, 4.0]), rho)

    def test_zero_penalty_minimum_norm(self):
        # rank-1 gram: many solutions; lstsq must pick the smallest
        v = np.array([1.0, 2.0, 2.0])
        gram = np.outer(v, v)
        y = 3.0 * v
        a = fit_ridge(gram, y, 0.0)
        assert np.allclose(gram @ a, y, atol=1e-10)
        other = a + np.array([2.0, -1.0, 0.0])  # also solves (in range sense)
        assert np.linalg.norm(a) <= np.linalg.norm(other)

    @pytest.mark.parametrize(
        "budget, binding", [(0.5, True), (1e3, False)], ids=["binding", "slack"]
    )
    def test_is_the_solve_of_the_constrained_ridge_fit(self, budget, binding):
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, (25, 2))
        y = np.sin(x[:, 0]) + 0.2 * rng.standard_normal(25)
        kernel = GaussianRBF(0.8)
        model = fit_constrained_ridge(kernel, x, y, budget=budget)
        assert model.features is None
        assert model.budget_binding == binding == (model.ridge_rho > 0.0)
        assert np.array_equal(
            fit_ridge(gram_matrix(kernel, x), y, model.ridge_rho), model.coeffs[0]
        )


class TestBudget:
    def test_identity_closed_form(self):
        y = np.array([2.0, 2.0, 2.0, 2.0])  # norm 4
        rho = solve_rho_for_budget(np.eye(4), y, 2.0)
        assert rho == pytest.approx(1.0, rel=1e-10)

    def test_slack_budget_returns_zero(self):
        gram = random_psd(5, np.random.default_rng(3), jitter=0.5)
        y = np.random.default_rng(4).normal(size=5)
        assert solve_rho_for_budget(gram, y, 1e6) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.sampled_from([3, 2, 1]),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        spread=st.sampled_from([1.0, 1e-4, 1e-8]),
        fraction=st.sampled_from([1e-6, 1e-3, 0.5, 0.999]),
    )
    @example(seed=11, rank=3, scale=1.0, spread=1.0, fraction=0.5)
    @example(seed=11, rank=3, scale=1e8, spread=1e-8, fraction=0.999)
    def test_three_by_three_bisection_oracle(self, seed, rank, scale, spread, fraction):
        # three rows of full (rank 3, solved from the Gram) or thin features
        # with eigenvalues scale * spread^u, u in [0, 1], and budgets from 1e-6
        # of the slack norm to just below it
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :rank]
        feats = basis * np.sqrt(scale * spread ** rng.uniform(0.0, 1.0, rank))
        y = rng.normal(size=3) * 3.0
        gram = feats @ feats.T if rank == 3 else None
        eig = gram_eigen(gram, None if rank == 3 else feats)
        budget = fraction * np.sqrt(budget_norm_sq(eig, y, 0.0))
        rho = solve_rho_for_budget(gram, y, budget, eig=None if rank == 3 else eig)

        lo, hi = 0.0, 1.0
        while budget_norm_sq(eig, y, hi) > budget**2:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if budget_norm_sq(eig, y, mid) > budget**2:
                lo = mid
            else:
                hi = mid
        assert rho == pytest.approx(0.5 * (lo + hi), rel=1e-10)
        # a' C a = |(F'F + rho I)^{-1} F'y|^2 for C = F F', from the features alone
        coef = np.linalg.solve(feats.T @ feats + rho * np.eye(rank), feats.T @ y)
        assert float(coef @ coef) == pytest.approx(budget**2, rel=1e-6)
        if rank == 1:  # kappa c^2 / (kappa + rho)^2 = budget^2 in closed form
            kappa, c = eig.values[0], float(eig.vectors[:, 0] @ y)
            assert rho == pytest.approx(abs(c) * np.sqrt(kappa) / budget - kappa, rel=1e-10)

    def test_root_at_a_huge_eigenvalue_with_the_budget_one_ulp_inside(self):
        # at kappa ~ 5e16 with budget^2 one ulp below the slack norm, kappa + rho
        # rounds to a multiple of 8, so rho is set only to within a few units;
        # the root still meets the equation
        eig = GramEigen(values=np.array([4.75471976677484e16]), vectors=np.ones((1, 1)))
        y, budget = np.array([7.6651810229102875]), 3.515280239927363e-08
        assert budget_norm_sq(eig, y, 0.0) > budget**2
        rho = solve_rho_for_budget(None, y, budget, eig=eig)
        assert budget_norm_sq(eig, y, rho) == pytest.approx(budget**2, rel=1e-12)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_unusable_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be positive"):
            solve_rho_for_budget(np.eye(2), np.ones(2), budget)

    def test_budget_function_monotone(self):
        rng = np.random.default_rng(21)
        gram = random_psd(6, rng, jitter=0.1)
        y = rng.normal(size=6)
        eig = gram_eigen(gram)
        grid = np.linspace(0.0, 5.0, 40)
        values = [budget_norm_sq(eig, y, r) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_constrained_ridge_binding_flag(self):
        rng = np.random.default_rng(31)
        x = rng.uniform(-2, 2, (40, 2))
        y = x @ np.array([0.5, -0.3]) + 0.1 * rng.normal(size=40)
        kern = CompositeKernel(((LinearKernel(1.0), (0,)), (LinearKernel(1.0), (1,))))
        tight = fit_constrained_ridge(kern, x, y, budget=0.1)
        assert tight.budget_binding
        assert abs(tight.norm_hk - 0.1) <= 1e-6 * 0.1
        slack = fit_constrained_ridge(kern, x, y, budget=50.0)
        assert not slack.budget_binding and slack.ridge_rho == 0.0

    @pytest.mark.parametrize("path", ["series", "gram"])
    def test_greedy_binding_flag(self, path):
        rng = np.random.default_rng(31)
        x = rng.uniform(-2, 2, (40, 2))
        y = x @ np.array([0.5, -0.3]) + 0.1 * rng.normal(size=40)
        term = LinearKernel(1.0) if path == "series" else GramOnly(LinearKernel(1.0))
        terms = ((term, (0,)), (term, (1,)))
        cfg = lambda b: FitConfig(budget=b, iterations=200)
        tight = greedy_fit(x, y, square_loss(), terms, cfg(0.1))
        assert tight.representation == {"series": "series", "gram": "representer_greedy"}[path]
        assert tight.budget_binding
        assert abs(tight.norm_lk - 0.1) <= 1e-6 * 0.1
        slack = greedy_fit(x, y, square_loss(), terms, cfg(50.0))
        assert not slack.budget_binding and slack.norm_lk < 0.05 * 50.0


class TestFitValidation:
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"norm_kind": "l2"}, "norm_kind must be 'lk' or 'hk'"),
            ({"solver": "ridge"}, "solver must be 'greedy' or 'ridge_closed_form'"),
            ({"step_rule": "golden"},
             "step_rule must be one of ('line_search', 'two_over_m_plus_two', 'one_over_m'), "
             "got 'golden'"),
            ({"iterations": -1}, "iterations must be at least 0, got -1"),
            ({"iterations": 10.5}, "iterations must be an integer, got 10.5"),
            ({"iterations": True}, "iterations must be an integer, got True"),
            ({"budget": 0.0}, "budget must be finite and positive, got 0.0"),
            ({"budget": np.nan}, "budget must be finite and positive, got nan"),
            ({"budget": np.inf}, "budget must be finite and positive, got inf"),
            ({"budget": True}, "budget must be a real number, got True"),
            ({"budget": "1"}, "budget must be a real number, got '1'"),
            ({"budget": None}, "budget must be a real number, got None"),
        ],
        ids=["norm_kind", "solver", "step_rule", "iterations", "iterations_fraction",
             "iterations_bool", "budget_zero", "budget_nan", "budget_inf", "budget_bool",
             "budget_string", "budget_none"],
    )
    def test_unusable_fit_config_rejected(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FitConfig(**{"budget": 1.0, **setting})

    @pytest.mark.parametrize(
        "build",
        [
            lambda x, y: FitConfig(budget=1.0, ridge_rho=0.5),
            lambda x, y: FitConfig(budget=1.0, line_search_tol=1e-6),
            lambda x, y: fit_constrained_ridge(GaussianRBF(1.0), x, y, budget=1.0, rho=0.5),
            lambda x, y: fit_constrained_ridge(GaussianRBF(1.0), x, y),
        ],
        ids=["config_ridge_rho", "config_line_search_tol", "ridge_rho", "ridge_no_budget"],
    )
    def test_the_budget_is_the_only_ridge_setting(self, build):
        # a fixed penalty goes through fit_ridge; the line search's bracket width is fixed
        x = np.random.default_rng(7).uniform(-2, 2, (20, 1))
        with pytest.raises(TypeError):
            build(x, np.sin(x[:, 0]))

    @pytest.mark.parametrize("kernel", ["features", "rbf"])
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize(
        "config",
        [
            FitConfig(budget=1.0, iterations=20),
            FitConfig(budget=1.0, solver="ridge_closed_form"),
        ],
        ids=["greedy", "ridge_budget"],
    )
    def test_nonfinite_input_names_the_argument(self, config, where, kernel):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, (30, 2))
        y = 0.5 * x[:, 0] + 0.3 * rng.standard_normal(30)
        (x if where == "x" else y)[4, ...] = np.nan
        r0 = (
            CompositeKernel(((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1))))
            if kernel == "features"
            else CompositeKernel(_rbf_terms(2))
        )
        name = "covariates x" if where == "x" else "response y"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _fit_by_solver(r0, x, y, rescaled_square_loss(), config)

    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("fit", ["greedy", "ridge_budget"])
    def test_fitters_called_directly_reject_nonfinite_input(self, fit, where):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, (40, 2))
        y = 0.5 * x[:, 0] + 0.3 * rng.standard_normal(40)
        (x if where == "x" else y)[4, ...] = np.nan
        r0 = CompositeKernel(((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1))))
        name = "covariates x" if where == "x" else "response y"
        with pytest.raises(ValueError, match=f"{name} must be finite; found NaN or inf"):
            if fit == "greedy":
                greedy_fit(x, y, rescaled_square_loss(), r0, FitConfig(budget=1.0, iterations=20))
            else:
                fit_constrained_ridge(r0, x, y, budget=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("call", ["gram_eigen", "features", "fit_ridge", "solve_rho_for_budget"])
    def test_nonfinite_gram_or_features_named(self, call, bad):
        # numpy's eigh and svd return NaN for such input instead of raising
        rng = np.random.default_rng(3)
        gram = random_psd(5, rng, jitter=0.1)
        gram[1, 2] = gram[2, 1] = bad
        features = rng.normal(size=(5, 2))
        features[3, 1] = bad
        y = rng.normal(size=5)
        name = "features" if call == "features" else "Gram"
        with pytest.raises(ValueError, match=f"^{name} must be finite; found NaN or inf$"):
            if call == "gram_eigen":
                gram_eigen(gram)
            elif call == "features":
                gram_eigen(None, features)
            elif call == "fit_ridge":
                fit_ridge(gram, y, 0.5)
            else:
                solve_rho_for_budget(gram, y, 0.1)


class TestLineSearch:
    def test_quadratic_vertex_oracle(self):
        rng = np.random.default_rng(41)
        y = rng.normal(size=30)
        f_prev = rng.normal(size=30)
        cand = rng.normal(size=30)

        def objective(t):
            mix = (1 - t) * f_prev + t * cand
            return float(np.mean((y - mix) ** 2))

        diff = cand - f_prev
        vertex = float((y - f_prev) @ diff / (diff @ diff))
        oracle = min(max(vertex, 0.0), 1.0)
        tau = line_search(objective)
        assert objective(tau) <= objective(oracle) + 1e-10

    def test_flat_objective(self):
        tau = line_search(lambda t: 1.0)
        assert 0.0 <= tau <= 1.0

    def test_boundary_clipping(self):
        # minimizer at t* = 2 -> clipped to 1; at t* = -1 -> clipped to 0
        assert line_search(lambda t: (t - 2.0) ** 2) == 1.0
        assert line_search(lambda t: (t + 1.0) ** 2) == 0.0

    def test_certified_comparisons_leave_few_evaluations(self, monkeypatch):
        # criterion 5's instance; evaluating every point costs 34 a search, so
        # a certificate that stops deciding comparisons shows here.  Each
        # iteration records its objective through the segment, one evaluation
        # more, and never through LossSpec.value
        segment_mean, value = LossSpec.segment_mean, LossSpec.value
        searches, evaluations, value_calls = [], [], []

        def counted(self, y, start, delta):
            objective = segment_mean(self, y, start, delta)

            def direct(t):
                evaluations.append(t)
                return objective(t)

            direct.order = objective.order
            searches.append(direct)
            return direct

        monkeypatch.setattr(LossSpec, "segment_mean", counted)
        monkeypatch.setattr(LossSpec, "value", lambda *a: value_calls.append(1) or value(*a))
        rng = np.random.default_rng(515)
        x = rng.uniform(-2, 2, (200, 3))
        y = 0.6 * x[:, 0] - 0.4 * x[:, 1] ** 2 + 0.3 * np.sin(2 * x[:, 2])
        y = y + 0.4 * rng.standard_normal(200)
        terms = [(polynomial_series(10, 2.2), (c,)) for c in range(3)]
        cfg = FitConfig(budget=1.2, norm_kind="hk", iterations=500)
        greedy_fit(x, y, square_loss(), terms, cfg)
        assert len(searches) == 500
        assert len(evaluations) <= 4 * len(searches)
        assert len(value_calls) == 0


class TestDirections:
    def test_zero_gradient(self):
        gram = np.eye(3)
        beta, rho = greedy_direction(np.zeros(3), gram)
        assert rho == 1.0 and np.array_equal(beta, np.zeros(3))

    def test_cancellation_case(self):
        # X = (1, 1) under a linear kernel: gradient (1, -1) annihilates
        gram = np.ones((2, 2))
        beta, rho = greedy_direction(np.array([1.0, -1.0]), gram)
        assert rho == 1.0 and np.array_equal(beta, np.zeros(2))

    def test_multiplier_double_loop_oracle(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(-1, 1, 3)
        grad = rng.normal(size=3)
        weights = polynomial_series(4).weights
        gram = HornerPolynomial(weights).gram(x)
        beta, rho = greedy_direction(grad, gram)
        n = 3
        total = 0.0
        for i in range(n):
            for j in range(n):
                c_ij = sum(w * (x[i] * x[j]) ** v for v, w in enumerate(weights, start=1))
                total += (grad[i] / n) * (grad[j] / n) * c_ij
        assert rho == pytest.approx(0.5 * np.sqrt(total), rel=1e-12)
        # unit RKHS norm of the direction
        assert float(beta @ gram @ beta) == pytest.approx(1.0, rel=1e-8)

    def test_series_single_feature_sign(self):
        feats = np.array([[0.5], [1.0], [-0.2]])
        grad = np.array([1.0, 2.0, 0.3])
        coeffs, rho = greedy_direction_series(grad, feats)
        a1 = feats[:, 0] @ grad / 3.0
        assert coeffs[0] == pytest.approx(-np.sign(a1))
        assert np.linalg.norm(coeffs) == pytest.approx(1.0)

    def test_series_zero_features(self):
        coeffs, rho = greedy_direction_series(np.ones(4), np.zeros((4, 3)))
        assert rho == 1.0 and np.array_equal(coeffs, np.zeros(3))

    def test_series_matches_gram_path(self):
        rng = np.random.default_rng(61)
        x = rng.uniform(-2, 2, 20)
        grad = rng.normal(size=20)
        series = polynomial_series(10, 2.2)
        feats = series.feature_matrix(x)
        gram = series.gram(x)
        coeffs, rho_s = greedy_direction_series(grad, feats)
        beta, rho_g = greedy_direction(grad, gram)
        assert rho_s == pytest.approx(rho_g, rel=1e-10)
        grid = rng.uniform(-2, 2, 15)
        f_series = series.feature_matrix(grid) @ coeffs
        f_gram = series.gram(grid, x) @ beta
        assert np.allclose(f_series, f_gram, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("blocks", ["_GramBlocks", "_FeatureBlocks"])
    def test_public_directions_run_the_loops_direction(self, monkeypatch, blocks):
        # criterion 6 checks these two functions, so they must be the greedy
        # loop's own direction step, not a copy of its arithmetic
        cls = getattr(estimators, blocks)
        calls = []

        def spy(self, grad, joint, _direction=cls.direction):
            calls.append(joint)
            return _direction(self, grad, joint)

        monkeypatch.setattr(cls, "direction", spy)
        rng = np.random.default_rng(71)
        feats = rng.normal(size=(12, 3))
        if blocks == "_GramBlocks":
            beta, rho = greedy_direction(rng.normal(size=12), feats @ feats.T)
        else:
            beta, rho = greedy_direction_series(rng.normal(size=12), feats)
        assert calls == [True] and rho > 0.0

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        qs=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-1.0, -0.0, 0.0, 1.0, 1.0000000000000002, 4.0, 4.000000000000001]),
            min_size=1,
            max_size=12,
        )
    )
    @example(qs=[1.0, 1.0000000000000002])  # equal roots: the first wins
    @example(qs=[-0.0, 0.0, -1.0])
    def test_term_pick_is_the_first_largest_root(self, qs):
        assert estimators._largest(qs) == int(np.argmax(np.sqrt(np.maximum(qs, 0.0))))


class TestGreedyFit:
    def test_iterations_zero_returns_null_model(self):
        x = RNG.uniform(-2, 2, (10, 1))
        y = RNG.normal(size=10)
        cfg = FitConfig(budget=1.0, iterations=0)
        model = greedy_fit(x, y, rescaled_square_loss(), [(LinearKernel(), (0,))], cfg)
        assert np.array_equal(model.predict(x), np.zeros(10))

    def test_single_step_is_scaled_direction(self):
        x = RNG.uniform(-2, 2, (15, 2))
        y = RNG.normal(size=15)
        terms = [(LinearKernel(), (0,)), (LinearKernel(), (1,))]
        cfg = FitConfig(budget=2.5, iterations=1, step_rule="one_over_m")
        model = greedy_fit(x, y, rescaled_square_loss(), terms, cfg)
        grad = rescaled_square_loss().deriv(1, y, np.zeros(15))
        rhos, dirs = [], []
        for _, sel in terms:
            feats = LinearKernel().feature_matrix(x[:, sel[0]])
            coeffs, rho = greedy_direction_series(grad, feats)
            rhos.append(rho)
            dirs.append(feats @ coeffs)
        pick = int(np.argmax(rhos))
        assert np.allclose(model.predict(x), 2.5 * dirs[pick], rtol=1e-12)

    def test_matches_constrained_ridge_on_linear_data(self):
        rng = np.random.default_rng(71)
        x = rng.uniform(-2, 2, (60, 1))
        y = 0.8 * x[:, 0]
        kern = CompositeKernel(((LinearKernel(1.0), (0,)),))
        oracle = fit_constrained_ridge(kern, x, y, budget=2.0)
        cfg = FitConfig(budget=2.0, iterations=500, step_rule="line_search")
        model = greedy_fit(x, y, rescaled_square_loss(), [(LinearKernel(), (0,))], cfg)
        rms = np.sqrt(np.mean((model.predict(x) - oracle.predict(x)) ** 2))
        assert rms <= 1e-3

    def test_poisson_objective_and_one_over_m_rate(self):
        rng = np.random.default_rng(81)
        x = rng.uniform(-2, 2, (80, 2))
        mu = 0.3 * x[:, 0] - 0.2 * x[:, 1] ** 2
        y = rng.poisson(np.exp(mu)).astype(float)
        terms = [(polynomial_series(5), (k,)) for k in range(2)]
        loss = poisson_loss()
        ref = greedy_fit(x, y, loss, terms, FitConfig(budget=2.0, iterations=1200))
        optimum = ref.trace.objectives.min()

        run = greedy_fit(
            x, y, loss, terms, FitConfig(budget=2.0, iterations=600, step_rule="one_over_m")
        )
        objs = run.trace.objectives
        assert objs[-1] < objs[0]
        ms = np.arange(50, 601)
        eps = objs[ms - 1] - optimum
        scaled = eps * ms / np.log1p(ms)
        assert scaled.max() <= 4.0 * 2.0**2 * np.exp(2.0)  # B^2 sup d2L on |t|<=B

        ls = greedy_fit(x, y, loss, terms, FitConfig(budget=2.0, iterations=200))
        diffs = np.diff(ls.trace.objectives)
        assert np.all(diffs <= 1e-12)

    def test_lk_constraint_preserved_every_iteration(self):
        rng = np.random.default_rng(91)
        x = rng.uniform(-2, 2, (50, 3))
        y = rng.normal(size=50) + x[:, 0]
        terms = [(polynomial_series(6), (k,)) for k in range(3)]
        cfg = FitConfig(budget=0.8, iterations=120, norm_kind="lk")
        model = greedy_fit(x, y, rescaled_square_loss(), terms, cfg)
        norms, last = _replayed_iterates(x, y, rescaled_square_loss(), cfg, model)
        _assert_blocks_close(last, model.coeffs, 1e-12)
        assert len(norms) == 120 and max(norms) <= 0.8 * (1 + 1e-8)
        assert model.norm_lk <= 0.8 * (1 + 1e-8)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(101)
        x = rng.uniform(-2, 2, (40, 4))
        y = x @ np.array([0.3, -0.2, 0.1, 0.4]) + 0.2 * rng.normal(size=40)
        terms = [(polynomial_series(5), (k,)) for k in range(4)]
        model = greedy_fit(
            x, y, rescaled_square_loss(), terms, FitConfig(budget=1.5, iterations=150)
        )
        k = 4
        assert model.norm_hk <= model.norm_lk * (1 + 1e-12)
        assert model.norm_lk <= np.sqrt(k) * model.norm_hk * (1 + 1e-12)

    def test_series_and_gram_paths_agree(self):
        rng = np.random.default_rng(111)
        x = rng.uniform(-2, 2, (25, 2))
        y = rng.normal(size=25) + 0.5 * x[:, 0]
        cfg = FitConfig(budget=1.2, iterations=60, step_rule="two_over_m_plus_two")
        series_terms = [(polynomial_series(8, 2.2), (k,)) for k in range(2)]
        gram_terms = [(HornerPolynomial(polynomial_series(8, 2.2).weights), (k,)) for k in range(2)]
        loss = rescaled_square_loss()
        m_series = greedy_fit(x, y, loss, series_terms, cfg)
        m_gram = greedy_fit(x, y, loss, gram_terms, cfg)
        assert (m_series.representation, m_gram.representation) == ("series", "representer_greedy")
        assert np.array_equal(m_series.trace.coords, m_gram.trace.coords)
        grid = rng.uniform(-2, 2, (12, 2))
        assert np.allclose(m_series.predict(grid), m_gram.predict(grid), atol=1e-10)
        assert m_series.norm_lk == pytest.approx(m_gram.norm_lk, abs=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_feature_and_gram_paths_agree_on_random_terms(self, data):
        # greedy_fit picks the feature path whenever every term has a feature
        # matrix; wrapping the terms in GramOnly forces the Gram path on the
        # same problem, which must give the same fit up to rounding
        draw = data.draw
        n = draw(st.integers(5, 40), label="n")
        terms = []
        for kind in draw(st.lists(st.sampled_from(["constant", "linear", "series"]),
                                  min_size=1, max_size=4), label="kinds"):
            scale = draw(st.floats(0.2, 3.0))
            if kind == "constant":
                terms.append((ConstantKernel(scale), None))
            elif kind == "linear":
                terms.append((LinearKernel(scale), draw(st.sampled_from([(0,), (1,), (0, 1)]))))
            else:
                series = polynomial_series(draw(st.integers(1, 6)), draw(st.floats(1.5, 3.0)))
                terms.append((series, (draw(st.integers(0, 1)),)))
        cfg = FitConfig(
            budget=draw(st.floats(0.1, 5.0), label="budget"),
            norm_kind="hk",
            iterations=draw(st.integers(1, 40), label="iterations"),
            step_rule="two_over_m_plus_two",
        )
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.uniform(-2, 2, (n, 2))
        y = x[:, 0] - 0.5 * x[:, 1] ** 2 + rng.normal(size=n)
        loss = rescaled_square_loss()
        feat = greedy_fit(x, y, loss, terms, cfg)
        gram = greedy_fit(x, y, loss, [(GramOnly(k), sel) for k, sel in terms], cfg)
        assert (feat.representation, gram.representation) == ("series", "representer_greedy")
        assert np.array_equal(feat.trace.coords, gram.trace.coords)
        assert np.max(np.abs(feat.fitted - gram.fitted)) <= 1e-8 * np.max(np.abs(gram.fitted))
        assert feat.norm_hk == pytest.approx(gram.norm_hk, rel=1e-8)
        assert feat.norm_lk == pytest.approx(gram.norm_lk, rel=1e-8)

    def test_hk_mode_tracks_joint_ball(self):
        rng = np.random.default_rng(121)
        x = rng.uniform(-2, 2, (40, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=40)
        terms = [(polynomial_series(6), (k,)) for k in range(2)]
        cfg = FitConfig(budget=0.7, iterations=200, norm_kind="hk")
        model = greedy_fit(x, y, rescaled_square_loss(), terms, cfg)
        assert model.norm_hk <= 0.7 * (1 + 1e-8)
        norms, last = _replayed_iterates(x, y, rescaled_square_loss(), cfg, model)
        _assert_blocks_close(last, model.coeffs, 1e-12)
        assert len(norms) == 200 and max(norms) <= 0.7 * (1 + 1e-8)
        assert np.all(model.trace.coords == -1)

    def test_pinned_traces(self):
        # figures of the per-evaluation-checked line search; a cheaper step
        # evaluation must reproduce them bit for bit, so they compare with ==
        rng = np.random.default_rng(2024)
        x = rng.uniform(-2, 2, (80, 3))
        score = np.sin(x[:, 0]) + 0.5 * x[:, 1] + 0.5 * rng.standard_normal(80)
        y = np.where(score > 0, 1.0, -1.0)
        terms = [(polynomial_series(6), (c,)) for c in range(3)]
        series = greedy_fit(x, y, logistic_loss(), terms, FitConfig(budget=1.5, iterations=100))
        assert series.trace.objectives[-1] == 0.2593536027056832
        assert series.trace.steps.sum() == 3.405164946805968

        rng = np.random.default_rng(2025)
        x = rng.uniform(-2, 2, (60, 2))
        y = np.sin(1.5 * x[:, 0]) + 0.25 * x[:, 1] ** 2 + 0.3 * rng.standard_normal(60)
        terms = [(GaussianRBF(1.0), (c,)) for c in range(2)]
        cfg = FitConfig(budget=1.0, norm_kind="hk", iterations=60)
        gram = greedy_fit(x, y, square_loss(), terms, cfg)
        assert gram.trace.objectives[-1] == 0.23074515146453092
        assert gram.trace.steps.sum() == 23.3542713132973

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 200),
        budget=st.floats(0.1, 5.0),
        rule=st.sampled_from(["line_search", "one_over_m"]),
        iterations=st.integers(20, 120),
    )
    # criterion 5's instance: hk ball of radius 1.2, where the budget binds
    @example(seed=515, n=200, budget=1.2, rule="line_search", iterations=500)
    @example(seed=515, n=200, budget=1.2, rule="one_over_m", iterations=500)
    def test_duality_gap_bounds_objective_gap(self, seed, n, budget, rule, iterations):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, (n, 3))
        y = 0.6 * x[:, 0] - 0.4 * x[:, 1] ** 2 + 0.3 * np.sin(2 * x[:, 2])
        y = y + 0.4 * rng.standard_normal(n)
        oracle = fit_constrained_ridge(
            additive_kernel(polynomial_series(10, 2.2), 3), x, y, budget=budget
        )
        optimum = float(np.mean((y - oracle.fitted) ** 2))
        terms = [(polynomial_series(10, 2.2), (c,)) for c in range(3)]
        cfg = FitConfig(budget=budget, norm_kind="hk", iterations=iterations, step_rule=rule)
        trace = greedy_fit(x, y, square_loss(), terms, cfg).trace
        # gaps[m] belongs to the iterate after m steps; iterate 0 is f = 0
        before = np.concatenate(([float(np.mean(y**2))], trace.objectives[:-1]))
        assert trace.gaps.shape == trace.steps.shape
        assert np.all(trace.gaps >= before - optimum - 1e-12)
        # every iterate lies in the hk ball, so none beats the ridge optimum
        # there by more than rounding
        assert np.all(trace.objectives >= optimum - 1e-12 * float(np.mean(y**2)))


def _stalling_fit(case, **changes):
    """(x, y, loss, terms, config) of a slack-budget fit whose line search
    returns a step of exactly 0 well before 500 iterations."""
    if case == "series":
        # a replicate of the Lin3 size study at n=100, budget 10 sd(y)
        rng = np.random.default_rng([7, 0])
        x = gen_covariates(100, 10, 0.0, "geometric", rng)
        y, _, _ = gen_response(x, "Lin3", 1.0, rng)
        loss, terms, budget = rescaled_square_loss(), null_kernel_for("Lin3").r0, 10.0 * np.std(y)
    elif case == "gram":
        # covariates on three levels, so the RBF Grams have rank 3
        rng = np.random.default_rng(0)
        x = rng.integers(0, 3, (40, 2)).astype(float)
        y = np.sin(1.5 * x[:, 0]) + 0.3 * rng.standard_normal(40)
        loss, terms, budget = rescaled_square_loss(), _rbf_terms(2), 50.0
    else:
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, (40, 2))
        y = rng.poisson(np.exp(0.5 * x[:, 0])).astype(float)
        loss, terms, budget = poisson_loss(), [(polynomial_series(3), (c,)) for c in range(2)], 20.0
    return x, y, loss, terms, FitConfig(**{"budget": float(budget), "iterations": 500, **changes})


def _first_zero_step(model) -> int:
    """The 1-based index of the first step of exactly 0; the fits here have one."""
    return int(np.flatnonzero(model.trace.steps == 0.0)[0]) + 1


def _model_bytes(model):
    trace = model.trace
    records = (trace.coords, trace.steps, trace.multipliers, trace.objectives, trace.gaps)
    return (model.fitted.tobytes(), [c.tobytes() for c in model.coeffs], model.norm_hk,
            model.norm_lk, model.ridge_rho, model.budget_binding, [r.tobytes() for r in records])


def _counting_segments(monkeypatch) -> list:
    """A list that gains one entry each time ``LossSpec.segment_mean`` builds a segment."""
    built, segment_mean = [], LossSpec.segment_mean
    monkeypatch.setattr(
        LossSpec, "segment_mean", lambda *a: built.append(1) or segment_mean(*a)
    )
    return built


class TestLineSearchFixedPoint:
    """A line-search step of exactly 0 leaves the iterate as it is, so the loop
    stops there; the model and the padded trace are the full loop's."""

    @pytest.mark.parametrize("case", ["series", "gram", "poisson"])
    def test_stopping_at_the_first_zero_step_changes_no_bit(self, monkeypatch, case):
        x, y, loss, terms, cfg = _stalling_fit(case)
        model = greedy_fit(x, y, loss, terms, cfg)
        first = _first_zero_step(model)
        assert first < cfg.iterations
        assert model.representation == ("representer_greedy" if case == "gram" else "series")
        trace = model.trace
        for record in (trace.coords, trace.steps, trace.multipliers, trace.objectives, trace.gaps):
            assert len(record) == cfg.iterations
            tail = np.repeat(record[first - 1], cfg.iterations - first + 1)
            assert record[first - 1:].tobytes() == tail.tobytes()
        # every model field; the shorter run's trace is shorter
        short = greedy_fit(x, y, loss, terms, replace(cfg, iterations=first))
        assert _model_bytes(short)[:6] == _model_bytes(model)[:6]
        # the loop without the stop: line-search steps under a rule name the
        # stop does not apply to, so each of the 500 iterations is computed
        built = _counting_segments(monkeypatch)
        monkeypatch.setattr(estimators, "_step_size", lambda rule, m, segment: line_search(segment))
        full = greedy_fit(x, y, loss, terms, replace(cfg, step_rule="one_over_m"))
        assert len(built) == cfg.iterations
        assert _model_bytes(full) == _model_bytes(model)

    @pytest.mark.parametrize("case", ["series", "gram", "poisson"])
    def test_a_stalled_fit_builds_one_segment_per_computed_iteration(self, monkeypatch, case):
        x, y, loss, terms, cfg = _stalling_fit(case)
        built = _counting_segments(monkeypatch)
        first = _first_zero_step(greedy_fit(x, y, loss, terms, cfg))
        assert first < cfg.iterations and len(built) == first

    @pytest.mark.parametrize("rule", ["one_over_m", "two_over_m_plus_two"])
    def test_fixed_schedules_compute_every_iteration(self, monkeypatch, rule):
        x, y, loss, terms, cfg = _stalling_fit("series", step_rule=rule)
        built = _counting_segments(monkeypatch)
        model = greedy_fit(x, y, loss, terms, cfg)
        m = np.arange(1.0, cfg.iterations + 1.0)
        assert len(built) == cfg.iterations
        schedule = 1.0 / m if rule == "one_over_m" else 2.0 / (m + 2.0)
        assert np.array_equal(model.trace.steps, schedule)


def _rbf_terms(count):
    return tuple((GaussianRBF(0.6 + 0.3 * c, 1.0 + 0.5 * c), (c,)) for c in range(count))


def _gram_path_fit(norm_kind, iterations=200):
    rng = np.random.default_rng(606)
    x = rng.uniform(-2, 2, (70, 3))
    y = np.sin(1.5 * x[:, 0]) + 0.25 * x[:, 1] ** 2 + 0.3 * rng.standard_normal(70)
    cfg = FitConfig(budget=1.5, norm_kind=norm_kind, iterations=iterations)
    loss = rescaled_square_loss()
    return x, y, loss, cfg, greedy_fit(x, y, loss, _rbf_terms(3), cfg)


def _replayed_iterates(x, y, loss, cfg, model):
    """(constraint norm after each step, final coefficient blocks), rebuilt from
    the trace's picks, steps and multipliers and the gradient at each rebuilt
    iterate.  Step m moves the term it picked (-1: every term) to
    (1 - tau) c_t + tau B K_t beta with beta = -grad / (2 rho n), where K_t is
    F_t' on the feature path and the identity on the Gram path."""
    series = model.representation == "series"
    spans = [
        k.feature_matrix(x[:, list(sel)]) if series else k.gram(x[:, list(sel)])
        for k, sel in model.terms
    ]
    blocks = [np.zeros_like(c) for c in model.coeffs]
    norms = []
    trace = model.trace
    for picked, tau, rho in zip(trace.coords, trace.steps, trace.multipliers):
        fitted = sum(s @ c for s, c in zip(spans, blocks))
        beta = -loss.deriv(1, y, fitted) / (2.0 * rho * x.shape[0])
        for t, s in enumerate(spans):
            blocks[t] = (1.0 - tau) * blocks[t]
            if picked in (-1, t):
                blocks[t] += tau * cfg.budget * (s.T @ beta if series else beta)
        per_term = (
            np.array([np.linalg.norm(c) for c in blocks])
            if series
            else _exact_blocks(np.column_stack(blocks), spans)
        )
        norms.append(per_term.sum() if cfg.norm_kind == "lk" else np.sqrt(per_term @ per_term))
    return norms, blocks


def _assert_blocks_close(blocks, coeffs, rtol):
    scale = max(np.max(np.abs(c)) for c in coeffs)
    for b, c in zip(blocks, coeffs):
        np.testing.assert_allclose(b, c, rtol=0.0, atol=rtol * scale)


def _exact_blocks(alpha, grams):
    """sqrt(alpha_t' G_t alpha_t) per term."""
    return np.array(
        [np.sqrt(max(float(alpha[:, t] @ (g @ alpha[:, t])), 0.0)) for t, g in enumerate(grams)]
    )


class TestGramPath:
    """The Gram-path loop's iterates and the Grams the model carries."""

    @pytest.mark.parametrize("norm_kind", ["lk", "hk"])
    def test_replayed_iterates_stay_in_budget_and_end_at_the_model(self, norm_kind):
        # every iterate's constraint norm, from alpha_t' G_t alpha_t of the
        # representer coefficients rebuilt from the trace
        x, y, loss, cfg, model = _gram_path_fit(norm_kind)
        norms, last = _replayed_iterates(x, y, loss, cfg, model)
        assert len(norms) == 200
        assert max(norms) <= cfg.budget * (1 + 1e-8)
        _assert_blocks_close(last, model.coeffs, 1e-12)

    @pytest.mark.parametrize("norm_kind", ["lk", "hk"])
    def test_final_norms_are_exact_quadratic_forms(self, norm_kind):
        x, _, _, cfg, model = _gram_path_fit(norm_kind, iterations=60)
        grams = [k.gram(x[:, list(sel)]) for k, sel in model.terms]
        blocks = _exact_blocks(np.column_stack(model.coeffs), grams)
        assert model.norm_hk == float(np.sqrt((blocks**2).sum()))
        assert model.norm_lk == float(blocks.sum())
        norm = model.norm_lk if norm_kind == "lk" else model.norm_hk
        assert model.budget_binding == (norm >= (1.0 - BINDING_RTOL) * cfg.budget)

    def test_model_carries_fitted_values_and_summed_gram(self):
        x, _, _, _, model = _gram_path_fit("lk", iterations=60)
        assert np.array_equal(model.fitted, model.predict(x))
        assert np.array_equal(model.gram, gram_matrix(CompositeKernel(model.terms), x))
        assert model.features is None

    def test_nonfinite_covariate_is_rejected_before_the_gram(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (30, 2))
        x[4, 1] = np.inf
        y = rng.normal(size=30)
        with pytest.raises(ValueError, match="covariates x must be finite"):
            greedy_fit(x, y, rescaled_square_loss(), _rbf_terms(2), FitConfig(budget=1.0))


class TestFeaturePath:
    BIV = CompositeKernel(((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1))))
    WIDE = additive_kernel(polynomial_series(10, 2.2), 2)  # p = 20 features

    @pytest.mark.parametrize(
        "kernel, n, budget, binding",
        [
            (BIV, 60, 0.2, True),
            (BIV, 60, 1e3, False),
            (WIDE, 12, 0.5, True),  # p >= n: the basis is square
        ],
        ids=["binding", "slack", "p_ge_n"],
    )
    def test_ridge_matches_gram_eigh_reference(self, kernel, n, budget, binding):
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, (n, 2))
        y = 0.5 * x[:, 0] - 0.3 * x[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
        fast = fit_constrained_ridge(kernel, x, y, budget=budget)
        reference = CompositeKernel(tuple((GramOnly(k), sel) for k, sel in kernel.terms))
        ref = fit_constrained_ridge(reference, x, y, budget=budget)
        p = kernel.feature_matrix(x).shape[1]
        assert fast.eigen.vectors.shape == (n, min(n, p)) and not ref.eigen.thin
        points = np.vstack([x, rng.uniform(-2, 2, (20, 2))])
        want = ref.predict(points)
        assert np.max(np.abs(fast.predict(points) - want)) <= 1e-10 * np.max(np.abs(want))
        # the coefficients themselves solve (C + rho I) a = y, null directions included
        assert np.max(np.abs(fast.coeffs[0] - ref.coeffs[0])) <= 1e-10 * np.max(np.abs(ref.coeffs[0]))
        assert fast.ridge_rho == pytest.approx(ref.ridge_rho, rel=1e-10, abs=0)
        assert fast.norm_hk == pytest.approx(ref.norm_hk, rel=1e-10)
        assert fast.norm_lk == pytest.approx(ref.norm_lk, rel=1e-10)
        assert fast.budget_binding == ref.budget_binding == binding

    @pytest.mark.parametrize("fit", ["ridge", "greedy"])
    def test_model_carries_the_feature_span(self, fit):
        rng = np.random.default_rng(42)
        x = rng.uniform(-2, 2, (30, 2))
        y = 0.5 * x[:, 0] + 0.3 * rng.standard_normal(30)
        if fit == "ridge":
            model = fit_constrained_ridge(self.BIV, x, y, budget=0.2)
        else:
            model = greedy_fit(x, y, square_loss(), self.BIV, FitConfig(budget=0.2, iterations=20))
        assert model.gram is None
        assert np.array_equal(model.features, self.BIV.feature_matrix(x))

    def test_thin_values_are_the_top_gram_eigenvalues(self):
        x = np.random.default_rng(43).uniform(-2, 2, (30, 2))
        feats = self.BIV.feature_matrix(x)
        thin = gram_eigen(None, feats)
        full = gram_eigen(self.BIV.gram(x))
        assert thin.vectors.shape == (30, 3)
        assert np.all(np.diff(thin.values) >= 0)
        assert np.allclose(thin.values, full.values[-3:], rtol=1e-12)
        assert np.max(np.abs(full.values[:-3])) <= 1e-12 * full.values[-1]

    def test_inverse_drops_eigenvalues_at_the_cutoff(self):
        eig = GramEigen(values=np.array([-1e-15, 0.0, 2e-12, 0.5, 2.0]), vectors=np.eye(5))
        assert eig.cutoff == 2e-12
        # at rho = 0 an eigenvalue equal to the cutoff counts as zero
        assert np.array_equal(eig.inverse(0.0), [0.0, 0.0, 0.0, 2.0, 0.5])
        assert np.array_equal(eig.inverse(0.25), 1.0 / (np.array([0.0, 0.0, 2e-12, 0.5, 2.0]) + 0.25))


class TestAdditiveModel:
    @pytest.mark.parametrize("fit", ["representer", "series", "representer_greedy"])
    def test_fitted_values_are_predictions_at_anchors(self, fit):
        rng = np.random.default_rng(151)
        x = rng.uniform(-2, 2, (50, 2))
        y = np.sin(x[:, 0]) + 0.3 * x[:, 1] + 0.2 * rng.standard_normal(50)
        if fit == "representer":
            kern = additive_kernel(polynomial_series(8, 2.2), 2)
            model = fit_constrained_ridge(kern, x, y, budget=1.0)
        else:
            term = polynomial_series(8, 2.2) if fit == "series" else GaussianRBF(1.0)
            terms = [(term, (c,)) for c in range(2)]
            cfg = FitConfig(budget=1.0, iterations=40)
            model = greedy_fit(x, y, rescaled_square_loss(), terms, cfg)
        assert model.representation == fit
        assert np.array_equal(model.anchors, x)
        want = model.predict(model.anchors)
        if fit == "representer":
            # a series kernel's Gram is one symmetric product, its cross-Gram is not
            assert np.max(np.abs(model.fitted - want)) <= 1e-10 * np.max(np.abs(want))
        else:
            assert np.array_equal(model.fitted, want)


class TestRidgeTermFeatures:
    @pytest.mark.parametrize("path", ["features", "gram"])
    def test_each_feature_term_is_built_once(self, monkeypatch, path):
        # the fit stacks the term features for its SVD and reads the same
        # blocks for the per-term norms; the Gram path's term Grams are formed
        # from features too, and those builds, inside a gram call, are the Gram's
        calls, open_grams = [], [0]
        for cls in (ConstantKernel, LinearKernel):
            def spy(self, x, _method=cls.feature_matrix):
                if not open_grams[0]:
                    calls.append(type(self).__name__)
                return _method(self, x)

            monkeypatch.setattr(cls, "feature_matrix", spy)

        def gram_spy(self, x, z=None, _method=Kernel.gram):
            open_grams[0] += 1
            try:
                return _method(self, x, z)
            finally:
                open_grams[0] -= 1

        monkeypatch.setattr(Kernel, "gram", gram_spy)
        rng = np.random.default_rng(151)
        x = rng.uniform(-2, 2, (30, 2))
        y = x[:, 0] - 0.5 * x[:, 1] + 0.3 * rng.standard_normal(30)
        last = LinearKernel(0.5) if path == "features" else GaussianRBF(1.0)
        kern = CompositeKernel(((ConstantKernel(), None), (LinearKernel(), (0,)), (last, (1,))))
        model = fit_constrained_ridge(kern, x, y, budget=0.5)
        assert (model.features is None) == (path == "gram")
        want = ["ConstantKernel", "LinearKernel"] + (["LinearKernel"] if path == "features" else [])
        assert calls == want
        assert model.norm_lk > model.norm_hk > 0.0

    def test_each_gram_term_is_built_once(self, monkeypatch):
        # the fit sums the term Grams into r0's Gram and reuses the RBF
        # term's Gram for norm_lk
        shapes = []

        def spy(self, x, z=None, _method=GaussianRBF.gram):
            g = _method(self, x, z)
            shapes.append(g.shape)
            return g

        r0 = null_kernel_for("Lin1NonLin").r0
        rng = np.random.default_rng(152)
        x = gen_covariates(300, 2, 0.0, "geometric", rng)
        y, _, _ = gen_response(x, "Bivariate", 1.0, rng)
        want = gram_matrix(r0, x)
        monkeypatch.setattr(GaussianRBF, "gram", spy)
        model = fit_constrained_ridge(r0, x, y, budget=1.0)
        assert shapes == [(300, 300)]
        assert np.array_equal(model.gram, want)
        assert model.norm_lk > model.norm_hk > 0.0


    @pytest.mark.parametrize("kernel", [
        GaussianRBF(1.0), CompositeKernel(((GaussianRBF(1.0), (0,)),)),
    ])
    def test_one_term_gram_fit_holds_two_square_matrices(self, kernel):
        # the Gram and its eigenvectors: a single term's Gram is neither
        # summed into a separate buffer nor kept for norm_lk
        rng = np.random.default_rng(153)
        n = 400
        x = rng.uniform(-2, 2, (n, 1))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)
        fit_constrained_ridge(kernel, x, y, budget=5.0)
        tracemalloc.start()
        try:
            fit_constrained_ridge(kernel, x, y, budget=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


class TestPredict:
    def test_zero_coefficients(self):
        x = RNG.uniform(-2, 2, (8, 1))
        cfg = FitConfig(budget=1.0, iterations=0)
        model = greedy_fit(x, np.zeros(8), rescaled_square_loss(), [(LinearKernel(), (0,))], cfg)
        assert np.array_equal(model.predict(x), np.zeros(8))

    def test_representer_at_anchors_is_gram_times_coeffs(self):
        rng = np.random.default_rng(131)
        x = rng.uniform(-2, 2, (20, 2))
        y = rng.normal(size=20)
        kern = CompositeKernel(((LinearKernel(1.0), (0,)), (LinearKernel(1.0), (1,))))
        model = fit_constrained_ridge(kern, x, y, budget=3.0)
        assert model.gram is None
        gram = gram_matrix(kern, x)
        assert np.allclose(model.predict(x), gram @ model.coeffs[0], rtol=1e-10)

    @pytest.mark.parametrize("path", ["features", "gram"])
    def test_too_narrow_sample_is_named(self, path):
        # a selector beyond x's width gets the kernels' named error on both
        # greedy paths, not numpy's IndexError
        x = RNG.uniform(-2, 2, (10, 2))
        last = LinearKernel() if path == "features" else GaussianRBF(1.0)
        terms = [(LinearKernel(), (0,)), (last, (2,))]
        with pytest.raises(ValueError, match=r"dimension mismatch: selector \(2,\) needs 3"):
            greedy_fit(x, x[:, 0], rescaled_square_loss(), terms, FitConfig(budget=1.0))
        wide = RNG.uniform(-2, 2, (10, 3))
        model = greedy_fit(wide, wide[:, 0], rescaled_square_loss(), terms,
                           FitConfig(budget=1.0, iterations=5))
        assert model.representation == ("series" if path == "features" else "representer_greedy")
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.predict(x)

    def test_prediction_dimension_check(self):
        rng = np.random.default_rng(141)
        x = rng.uniform(-2, 2, (10, 2))
        kern = CompositeKernel(((LinearKernel(1.0), (0, 1)),))
        model = fit_constrained_ridge(kern, x, rng.normal(size=10), budget=5.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.predict(np.ones((3, 5)))
