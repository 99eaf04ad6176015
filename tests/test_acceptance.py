"""Acceptance suite: the Monte Carlo reproduction targets, the greedy error
bound, the property rollup and the end-to-end oracle equivalence check.

Every check reports one PASS/FAIL line in the terminal summary.  The Monte
Carlo checks are deterministic given the master seed and run the studies at
the sizes stated below, so this module dominates the suite's runtime.
"""

import math

import numpy as np
import pytest
from scipy import stats

from conftest import record_acceptance
from rkhstest.estimators import (
    FitConfig,
    fit_constrained_ridge,
    fit_ridge,
    greedy_direction,
    greedy_direction_series,
    greedy_fit,
    solve_rho_for_budget,
)
from rkhstest.inference import (
    p_value,
    project_instruments,
    orthogonality_defect,
    run_test,
    simulate_null,
)
from rkhstest.inference import test_statistic as moment_statistic
from rkhstest.kernels import additive_kernel, polynomial_series
from rkhstest.losses import (
    duration_loss,
    logistic_loss,
    poisson_loss,
    rescaled_square_loss,
    square_loss,
)
from rkhstest.simulation import DgpSpec, McConfig, run_monte_carlo

pytestmark = pytest.mark.acceptance

MASTER_SEED = 7
N_JOBS = 2


def _mc(design, null, n, pair_corr, corr_shape, snr, replicates, **kw):
    k = 2 if design == "Bivariate" else 10
    return McConfig(
        dgp=DgpSpec(design, n, k, pair_corr, corr_shape, snr),
        null_hypothesis=null,
        replicates=replicates,
        sizes=(0.05,),
        master_seed=MASTER_SEED,
        **kw,
    )


class TestCriterion1TableOneSize:
    """Size study: design Lin3, null Lin3, n=100, 500 replicates."""

    @pytest.mark.parametrize(
        "pair_corr,paper_no_pi,paper_pi",
        [(0.0, 0.03, 0.06), (0.75, 0.02, 0.05)],
        ids=["rho0", "rho075"],
    )
    def test_rejection_frequencies_near_paper(self, pair_corr, paper_no_pi, paper_pi):
        table = run_monte_carlo(
            _mc("Lin3", "Lin3", 100, pair_corr, "equi", 1.0, 500), n_jobs=N_JOBS
        )
        row = table.rows[0]
        detail = (
            f"rho={pair_corr}: No-Pi {row.freq_no_pi:.3f} (target {paper_no_pi}), "
            f"Pi {row.freq_pi:.3f} (target {paper_pi}), tol 0.03, 500 reps"
        )
        ok = (
            abs(row.freq_no_pi - paper_no_pi) <= 0.03
            and abs(row.freq_pi - paper_pi) <= 0.03
        )
        record_acceptance(f"1 [Table 1 size, rho={pair_corr}]", ok, detail)
        assert ok, detail


class TestCriterion2PowerRow:
    """Power: design LinAll, null Lin3, n=1000, 200 replicates."""

    def test_both_columns_reject(self):
        table = run_monte_carlo(
            _mc("LinAll", "Lin3", 1000, 0.0, "geometric", 1.0, 200), n_jobs=N_JOBS
        )
        row = table.rows[0]
        detail = (
            f"No-Pi {row.freq_no_pi:.3f}, Pi {row.freq_pi:.3f} "
            f"(paper 1.00/1.00, need >= 0.98), 200 reps at n=1000"
        )
        ok = row.freq_no_pi >= 0.98 and row.freq_pi >= 0.98
        record_acceptance("2 [Table 2 power row]", ok, detail)
        assert ok, detail


class TestCriterion3NuisanceDistortion:
    """Size under the full linear null: LinAll/LinAll, n=1000, 200 replicates.

    The paper reports that ignoring the nuisance estimate distorts the size
    of the test while the projected test stays calibrated.  The corrected
    column must be calibrated (Pi within 0.05 +/- 0.04).

    The uncorrected column must be distorted in the direction the method
    predicts for this design.  The budget, 10 sd(y), does not bind here, so
    the greedy fit reaches the least-squares fit on the null span, where
    e0 = -(I - P) eps with P the projection on that span.  The uncorrected
    moment n^{-1/2} H'e0 then has variance sigma^2 H'(I - P)H / n, while its
    covariance estimate sigma^2 H'H / n is larger by sigma^2 H'PH / n: the
    odd orders load heavily on x, so the uncorrected test is conservative.
    Two checks follow from this:

    * the identity applies: in the program's own diagnostics no replicate
      binds its budget and every residual null score is <= 0.01;
    * the uncorrected p-values are stochastically larger than U(0, 1):
      one-sided KS p < 0.01.

    The paper's No-Pi 0.23 for this row is a known divergence; which design
    detail produced it cannot be settled without the paper's simulation
    section.
    """

    def test_naive_over_rejects_while_corrected_calibrated(self):
        table = run_monte_carlo(
            _mc("LinAll", "LinAll", 1000, 0.0, "geometric", 1.0, 200), n_jobs=N_JOBS
        )
        row = table.rows[0]
        pi_ok = abs(row.freq_pi - 0.05) <= 0.04
        n_binding = int(np.count_nonzero(table.budget_binding))
        max_score = float(np.max(table.residual_null_scores))
        identity_ok = n_binding == 0 and max_score <= 0.01
        ks_p = stats.kstest(table.naive_p_values, "uniform", alternative="less").pvalue
        distorted_ok = ks_p < 0.01
        detail = (
            f"Pi {row.freq_pi:.3f} (need 0.05 +/- 0.04, paper 0.05); "
            f"No-Pi {row.freq_no_pi:.3f}, mean uncorrected p-value "
            f"{np.mean(table.naive_p_values):.2f}, one-sided KS p {ks_p:.1e} "
            f"(need < 0.01); budget binds in {n_binding} replicates (need 0), "
            f"max residual null score {max_score:.1e} (need <= 0.01); "
            f"{row.replicates} reps; known divergence: paper No-Pi 0.23"
        )
        record_acceptance(
            "3 [Table 2 nuisance distortion]",
            pi_ok and identity_ok and distorted_ok,
            detail,
        )
        assert pi_ok, detail
        assert identity_ok, (
            detail + " | the restricted fit is not at the least-squares fit, so "
            "the conservative direction of the uncorrected test is not implied"
        )
        assert distorted_ok, (
            detail + " | the uncorrected p-values are not stochastically larger "
            "than uniform although the least-squares identity applies"
        )


class TestCriterion4LowSnrProjection:
    """Power at low SNR: Bivariate design, null BivLinAll, n=1000, R=200."""

    def test_projection_is_necessary(self):
        table = run_monte_carlo(
            _mc(
                "Bivariate",
                "BivLinAll",
                1000,
                0.0,
                "geometric",
                0.2,
                100,
                instrument_count=200,
            ),
            n_jobs=N_JOBS,
        )
        row = table.rows[0]
        detail = (
            f"Pi {row.freq_pi:.3f} (need >= 0.95, paper 1.00), "
            f"No-Pi {row.freq_no_pi:.3f} (need <= 0.10, paper 0.00), "
            "100 reps, 200 subsampled sections"
        )
        ok = row.freq_pi >= 0.95 and row.freq_no_pi <= 0.10
        record_acceptance("4 [Table 3 low-SNR projection]", ok, detail)
        assert ok, detail


class TestCriterion5GreedyErrorBound:
    """The greedy objective gap decays at the guaranteed rates."""

    @staticmethod
    def _instance():
        rng = np.random.default_rng(515)
        n, k = 200, 3
        x = rng.uniform(-2, 2, (n, k))
        mu = 0.6 * x[:, 0] - 0.4 * x[:, 1] ** 2 + 0.3 * np.sin(2 * x[:, 2])
        y = mu + 0.4 * rng.standard_normal(n)
        return x, y

    def test_rates_and_stability(self):
        x, y = self._instance()
        budget = 1.2
        kern = additive_kernel(polynomial_series(10, 2.2), 3)
        oracle = fit_constrained_ridge(kern, x, y, budget=budget)
        assert oracle.budget_binding
        optimum = float(np.mean((y - oracle.fitted) ** 2))
        loss = square_loss()
        terms = tuple((polynomial_series(10, 2.2), (c,)) for c in range(3))
        sup_d2 = 2.0  # second derivative of the square loss
        curvature_bound = 4.0 * sup_d2 * budget**2
        # constants fitted once from this (deterministic) instance
        frozen_c_ls = 6.0
        frozen_c_om = 12.5

        runs = {}
        for rule in ("line_search", "one_over_m"):
            cfg = FitConfig(budget=budget, norm_kind="hk", iterations=500, step_rule=rule)
            model = greedy_fit(x, y, loss, terms, cfg)
            runs[rule] = model.trace.objectives

        ms = np.arange(50, 501)
        eps_ls = runs["line_search"][ms - 1] - optimum
        eps_om = runs["one_over_m"][ms - 1] - optimum
        assert np.all(eps_ls >= -1e-9) and np.all(eps_om >= -1e-9)
        c_ls = float(np.max(eps_ls * ms))
        c_om = float(np.max(eps_om * ms / np.log1p(ms)))
        ok = c_ls <= min(frozen_c_ls, curvature_bound) and c_om <= frozen_c_om

        rerun = greedy_fit(
            x, y, loss, terms,
            FitConfig(budget=budget, norm_kind="hk", iterations=500, step_rule="line_search"),
        )
        stable = np.array_equal(rerun.trace.objectives, runs["line_search"])
        detail = (
            f"line-search eps*m <= {c_ls:.4f} (fitted c {frozen_c_ls}, curvature "
            f"bound {curvature_bound:.1f}), 1/m eps*m/ln(1+m) <= {c_om:.4f} "
            f"(fitted c {frozen_c_om}), rerun bit-identical: {stable}"
        )
        record_acceptance("5 [greedy error bound]", ok and stable, detail)
        assert ok and stable, detail


class TestCriterion6PropertySuite:
    """Numerical contracts rolled into one pass."""

    def test_property_rollup(self):
        rng = np.random.default_rng(606)
        checks = {}

        n = 15
        a_mat = rng.normal(size=(n, n))
        gram = a_mat @ a_mat.T / n
        y = rng.normal(size=n)
        coeffs = fit_ridge(gram, y, 0.3)
        checks["ridge residual <= 1e-8"] = (
            np.linalg.norm((gram + 0.3 * np.eye(n)) @ coeffs - y)
            <= 1e-8 * np.linalg.norm(y)
        )

        budget = 0.4
        rho = solve_rho_for_budget(gram, y, budget)
        fitted = fit_ridge(gram, y, rho)
        norm_sq = float(fitted @ gram @ fitted)
        checks["budget equation to 1e-6"] = rho > 0 and abs(
            norm_sq - budget**2
        ) <= 1e-6 * budget**2

        c0 = rng.normal(size=(30, 4))
        c0 = c0 @ c0.T
        raw = rng.normal(size=(30, 5))
        inst = project_instruments(c0, np.ones(30), raw, 0.0)
        checks["orthogonality <= 1e-8 at rho=0"] = (
            orthogonality_defect(c0, np.ones(30), inst.projected) <= 1e-8
        )

        kern = polynomial_series(10, 2.2)
        pts = rng.uniform(-2, 2, (20, 1))
        g = kern.gram(pts)
        checks["Gram PSD tolerance"] = np.linalg.eigvalsh(g).min() >= -1e-8 * np.trace(g)

        grad = rng.normal(size=20)
        feats = kern.feature_matrix(pts[:, 0])
        d_series, rho_series = greedy_direction_series(grad, feats)
        beta, rho_gram = greedy_direction(grad, g)
        vals_series = feats @ d_series
        vals_gram = g @ beta
        checks["series/Gram direction <= 1e-10"] = (
            abs(rho_series - rho_gram) <= 1e-10 * rho_gram
            and np.max(np.abs(vals_series - vals_gram)) <= 1e-10
        )

        fd_ok = True
        smooth = {
            square_loss(): rng.normal(size=12),
            rescaled_square_loss(): rng.normal(size=12),
            poisson_loss(): rng.poisson(2.0, 12).astype(float),
            logistic_loss(): rng.choice([-1.0, 1.0], 12),
            duration_loss(): rng.exponential(1.0, 12) + 0.1,
        }
        for loss, yy in smooth.items():
            tt = rng.uniform(-4, 4, 12)
            h = 1e-5
            for order in (1, 2, 3):
                low = loss.value if order == 1 else (
                    lambda a, b, _o=order: loss.deriv(_o - 1, a, b)
                )
                fd = (low(yy, tt + h) - low(yy, tt - h)) / (2 * h)
                an = loss.deriv(order, yy, tt)
                fd_ok &= bool(np.all(np.abs(an - fd) <= np.maximum(1e-6, 1e-6 * np.abs(an))))
        checks["loss derivatives vs finite differences <= 1e-6"] = fd_ok

        draws = simulate_null([0.5, 0.5], 100_000, 13)
        _, ks_p = stats.kstest(draws, lambda v: stats.chi2.cdf(2 * v, df=2))
        checks["null simulation KS vs chi2_2/2 at 1%"] = ks_p > 0.01

        checks["p-value bounds"] = (
            p_value(0.0, np.ones(9)) == 1.0
            and p_value(5.0, np.ones(9)) == pytest.approx(0.1)
            and 0.0 < p_value(1.0, draws[:999]) <= 1.0
        )

        checks["determinism under fixed seeds"] = np.array_equal(
            simulate_null([0.2, 0.1], 500, 21), simulate_null([0.2, 0.1], 500, 21)
        )

        failed = [name for name, ok in checks.items() if not ok]
        detail = f"{len(checks) - len(failed)}/{len(checks)} properties hold" + (
            f"; failing: {failed}" if failed else ""
        )
        record_acceptance("6 [property suite]", not failed, detail)
        assert not failed, detail


class TestCriterion7OracleEquivalence:
    """One replicate (n=50) against a straight-line scripted oracle."""

    def test_statistic_and_spectrum_match_to_1e_minus_10(self):
        rng = np.random.default_rng(717)
        n, r_count = 50, 10
        x = rng.uniform(-2.0, 2.0, (n, 2))
        y = 0.35 * x[:, 0] - 0.2 * x[:, 1] + 0.5 * rng.standard_normal(n)
        budget = 0.5
        proj_rho = 0.2

        # ---- straight-line oracle written from the matrix formulas ----
        def c0_eval(s, t):
            return 0.5 + 0.5 * (s[0] * t[0] + s[1] * t[1])

        def c1_eval(s, t):
            d2 = (s[0] - t[0]) ** 2 + (s[1] - t[1]) ** 2
            return 0.5 * math.exp(-0.5 * d2 / 0.75**2)

        gram0 = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                gram0[i, j] = c0_eval(x[i], x[j])
        kappa, vecs = np.linalg.eigh(gram0)
        kappa_clip = np.where(kappa > kappa.max() * 1e-12, kappa, 0.0)
        c_sq = (vecs.T @ y) ** 2

        def norm_sq(rho):
            live = kappa_clip > 0
            return float(np.sum(c_sq[live] * kappa_clip[live] / (kappa_clip[live] + rho) ** 2))

        assert norm_sq(0.0) > budget**2  # the budget must bind here
        lo, hi = 0.0, 1.0
        while norm_sq(hi) > budget**2:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if norm_sq(mid) > budget**2:
                lo = mid
            else:
                hi = mid
        rho_fit = 0.5 * (lo + hi)
        a0 = vecs @ ((vecs.T @ y) / (kappa_clip + rho_fit))
        e0 = gram0 @ a0 - y  # rescaled square loss score

        anchors = np.unique(np.round(np.linspace(0, n - 1, r_count)).astype(int))
        raw = np.empty((n, anchors.size))
        for col, j in enumerate(anchors):
            z = x[j]
            czz = c0_eval(z, z) + c1_eval(z, z)
            for i in range(n):
                raw[i, col] = (c0_eval(x[i], z) + c1_eval(x[i], z)) / math.sqrt(czz)
        b = np.linalg.solve(gram0 + proj_rho * np.eye(n), raw)
        h_hat = raw - gram0 @ b
        s_vec = h_hat.T @ e0 / math.sqrt(n)
        oracle_stat = float(s_vec @ s_vec) / anchors.size
        sigma = (float(e0 @ e0) / n) * (h_hat.T @ h_hat / n)
        oracle_omega = np.clip(np.linalg.eigvalsh(sigma / anchors.size)[::-1], 0, None)

        # ---- the library pipeline on the same data ----
        from rkhstest.inference import HypothesisPlan, SectionInstrumentPlan
        from rkhstest.kernels import (
            CompositeKernel,
            ConstantKernel,
            GaussianRBF,
            LinearKernel,
        )

        plan = HypothesisPlan(
            name="oracle-check",
            r0=CompositeKernel(
                ((ConstantKernel(0.5), None), (LinearKernel(0.5), (0, 1)))
            ),
            r1=CompositeKernel(((GaussianRBF(0.75, 0.5), (0, 1)),)),
            instruments=SectionInstrumentPlan(count=r_count),
        )
        result = run_test(
            x,
            y,
            plan,
            rescaled_square_loss(),
            FitConfig(budget=budget, solver="ridge_closed_form"),
            proj_rho=proj_rho,
            n_draws=100,
            rng=1,
        )

        stat_err = abs(result.statistic - oracle_stat) / max(1.0, oracle_stat)
        eig_err = float(np.max(np.abs(result.spectrum - oracle_omega)))
        ok = stat_err <= 1e-10 and eig_err <= 1e-10
        detail = (
            f"statistic rel err {stat_err:.2e}, max eigenvalue err {eig_err:.2e} "
            f"(tol 1e-10, n=50, R={anchors.size})"
        )
        record_acceptance("7 [oracle equivalence]", ok, detail)
        assert ok, detail
