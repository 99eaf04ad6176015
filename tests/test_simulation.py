"""Data generation, the hypothesis registry and the Monte Carlo harness."""

import numpy as np
import pytest

from rkhstest.inference import SectionInstrumentPlan, SeriesInstrumentPlan
from rkhstest.kernels import CompositeKernel, GaussianRBF
from rkhstest.simulation import (
    DgpSpec,
    McConfig,
    REJECTION_CSV_HEADER,
    _correlation_matrix,
    gen_covariates,
    gen_response,
    null_kernel_for,
    run_monte_carlo,
)


class TestCovariates:
    def test_values_inside_box(self):
        x = gen_covariates(500, 4, 0.6, "geometric", np.random.default_rng(1))
        assert np.all(np.abs(x) <= 2.0)

    def test_resampling_avoids_boundary_mass(self):
        x = gen_covariates(
            2000, 2, 0.0, "geometric", np.random.default_rng(2), truncation="resample"
        )
        assert np.all(np.abs(x) < 2.0)

    def test_independent_columns_empirically(self):
        x = gen_covariates(100_000, 3, 0.0, "geometric", np.random.default_rng(3))
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.05

    def test_geometric_correlation_matrix(self):
        corr = _correlation_matrix(3, 0.75, "geometric")
        assert corr[0, 2] == pytest.approx(0.5625)
        assert corr[0, 1] == pytest.approx(0.75)

    def test_equicorrelation_psd_guard(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            _correlation_matrix(4, -0.5, "equi")

    def test_equicorrelated_sampling(self):
        x = gen_covariates(50_000, 3, 0.5, "equi", np.random.default_rng(4))
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(3, dtype=bool)]
        # clipping attenuates the correlation slightly
        assert np.all(np.abs(off - 0.5) < 0.06)


class TestResponse:
    @pytest.mark.parametrize(
        "design,k", [("Lin3", 10), ("LinAll", 10), ("NonLinear", 10), ("Bivariate", 2)]
    )
    def test_snr_identity_exact(self, design, k):
        rng = np.random.default_rng(5)
        x = gen_covariates(400, k, 0.0, "geometric", rng)
        for snr in (1.0, 0.2):
            y, noise_sd, mu = gen_response(x, design, snr, rng)
            assert np.var(mu) / noise_sd**2 == pytest.approx(snr, rel=1e-12)

    def test_r_squared_relation(self):
        # R^2 = snr / (1 + snr), so snr = 0.2 gives 1/6
        snr = 0.2
        assert snr / (1 + snr) == pytest.approx(0.16666666666666666)
        rng = np.random.default_rng(6)
        x = gen_covariates(200, 10, 0.0, "geometric", rng)
        y, noise_sd, mu = gen_response(x, "Lin3", snr, rng)
        r2 = np.var(mu) / (np.var(mu) + noise_sd**2)
        assert r2 == pytest.approx(snr / (1 + snr), rel=1e-12)

    def test_degenerate_signal_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            gen_response(np.zeros((50, 10)), "Lin3", 1.0, np.random.default_rng(0))

    def test_bivariate_noise_is_standard_normal(self):
        rng = np.random.default_rng(7)
        x = gen_covariates(100, 2, 0.0, "geometric", rng)
        _, noise_sd, _ = gen_response(x, "Bivariate", 0.2, rng)
        assert noise_sd == 1.0

    def test_nonlinear_coefficients_redrawn_per_call(self):
        rng = np.random.default_rng(8)
        x = gen_covariates(100, 10, 0.0, "geometric", rng)
        _, _, mu1 = gen_response(x, "NonLinear", 1.0, rng)
        _, _, mu2 = gen_response(x, "NonLinear", 1.0, rng)
        assert not np.allclose(mu1, mu2)

    def test_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            gen_response(np.ones((10, 2)), "Quad", 1.0, np.random.default_rng(0))


class TestRegistry:
    def test_lin3_plan_shapes(self):
        plan = null_kernel_for("Lin3", k=10)
        inst = plan.instruments
        assert isinstance(inst, SeriesInstrumentPlan)
        # higher orders on the three restricted coordinates, everything on the rest
        assert len(inst.test_pairs) == 3 * 9 + 7 * 10
        assert inst.projection_pairs == ((0, 1), (1, 1), (2, 1))
        assert len(plan.fit_terms) == 3

    def test_linall_plan_shapes(self):
        plan = null_kernel_for("LinAll", k=10)
        assert len(plan.instruments.test_pairs) == 90
        assert len(plan.instruments.projection_pairs) == 10

    def test_linpoly_plan_shapes(self):
        plan = null_kernel_for("LinPoly", k=10)
        inst = plan.instruments
        assert len(inst.test_pairs) == 9
        assert all(coord == 0 and v >= 2 for coord, v in inst.test_pairs)
        assert len(inst.projection_pairs) == 1 + 9 * 10
        assert len(plan.fit_terms) == 10

    def test_bivariate_plans(self):
        lin1 = null_kernel_for("Lin1NonLin")
        assert isinstance(lin1.instruments, SectionInstrumentPlan)
        assert len(lin1.r0.terms) == 3  # constant + linear + one Gaussian factor
        assert isinstance(lin1.r1.terms[0][0], GaussianRBF)
        assert lin1.r1.terms[0][1] == (0,)
        biv = null_kernel_for("BivLinAll")
        assert len(biv.r0.terms) == 2
        assert biv.r1.terms[0][1] == (0, 1)
        # Gaussian factors use the negative-exponent (PSD) form
        rbf = biv.r1.terms[0][0]
        assert rbf.eval(np.array([0.0]), np.array([2.0])) < rbf.scale

    def test_split_kernels_are_psd(self):
        rng = np.random.default_rng(9)
        for name, k in (("Lin3", 10), ("LinPoly", 10), ("Lin1NonLin", 2), ("BivLinAll", 2)):
            plan = null_kernel_for(name, k=k)
            x = rng.uniform(-2, 2, (15, k))
            for kern in (plan.r0, plan.r1):
                g = kern.gram(x)
                assert np.linalg.eigvalsh(g).min() >= -1e-8 * np.trace(g)

    def test_unknown_hypothesis(self):
        with pytest.raises(ValueError, match="unknown hypothesis"):
            null_kernel_for("Quadratic")


class TestMonteCarlo:
    def test_deterministic_given_master_seed(self):
        mc = McConfig(
            dgp=DgpSpec("Lin3", 60, 10, 0.0, "geometric", 1.0),
            null_hypothesis="Lin3",
            replicates=3,
            sizes=(0.10, 0.05),
            master_seed=77,
            null_draws=400,
            iterations=60,
        )
        t1 = run_monte_carlo(mc)
        t2 = run_monte_carlo(mc)
        assert t1.to_csv() == t2.to_csv()
        assert t1.rows[0].replicates == 3

    def test_csv_header_schema(self):
        assert REJECTION_CSV_HEADER == (
            "design,null,n,rho,snr,size,freq_no_pi,freq_pi,mc_se,replicates"
        )
        mc = McConfig(
            dgp=DgpSpec("Lin3", 40, 10, 0.0, "geometric", 1.0),
            null_hypothesis="Lin1",
            replicates=2,
            sizes=(0.05,),
            master_seed=5,
            null_draws=200,
            iterations=40,
        )
        table = run_monte_carlo(mc)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == REJECTION_CSV_HEADER
        assert len(lines) == 2

    def test_mc_se_formula(self):
        mc = McConfig(
            dgp=DgpSpec("LinAll", 50, 10, 0.0, "geometric", 1.0),
            null_hypothesis="Lin1",
            replicates=4,
            sizes=(0.5,),
            master_seed=6,
            null_draws=300,
            iterations=40,
        )
        row = run_monte_carlo(mc).rows[0]
        assert row.mc_se == pytest.approx(
            np.sqrt(row.freq_pi * (1 - row.freq_pi) / row.replicates)
        )

    def test_all_failures_raise(self):
        # NonLinear needs four covariates; with k=3 every replicate fails
        mc = McConfig(
            dgp=DgpSpec("NonLinear", 30, 3, 0.0, "geometric", 1.0),
            null_hypothesis="Lin1",
            replicates=2,
            master_seed=1,
        )
        with pytest.raises(RuntimeError, match="NonLinear needs"):
            run_monte_carlo(mc)

    def test_size_calibration_under_true_null(self):
        size = 0.10
        reps = 40
        mc = McConfig(
            dgp=DgpSpec("Lin3", 80, 10, 0.0, "geometric", 1.0),
            null_hypothesis="Lin3",
            replicates=reps,
            sizes=(size,),
            master_seed=1717,
            null_draws=2000,
            iterations=200,
        )
        row = run_monte_carlo(mc, n_jobs=2).rows[0]
        slack = 3 * np.sqrt(size * (1 - size) / reps) + 0.02
        assert abs(row.freq_pi - size) <= slack

    def test_power_monotone_in_snr(self):
        results = {}
        for snr in (1.0, 0.2):
            mc = McConfig(
                dgp=DgpSpec("Bivariate", 150, 2, 0.0, "geometric", snr),
                null_hypothesis="BivLinAll",
                replicates=24,
                sizes=(0.05,),
                master_seed=808,
                null_draws=1500,
                instrument_count=60,
            )
            results[snr] = run_monte_carlo(mc, n_jobs=2).rows[0].freq_pi
        noise = 2 * np.sqrt(0.25 / 24)
        assert results[1.0] >= results[0.2] - noise

    def test_parallel_equals_serial(self):
        mc = McConfig(
            dgp=DgpSpec("Lin3", 50, 10, 0.0, "geometric", 1.0),
            null_hypothesis="Lin2",
            replicates=4,
            sizes=(0.05,),
            master_seed=99,
            null_draws=300,
            iterations=50,
        )
        serial = run_monte_carlo(mc, n_jobs=1)
        parallel = run_monte_carlo(mc, n_jobs=2)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.p_values.shape == (4,)
        for name in ("p_values", "naive_p_values", "budget_binding", "residual_null_scores"):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name))

    def test_text_table_layout(self):
        mc = McConfig(
            dgp=DgpSpec("Lin3", 40, 10, 0.0, "geometric", 1.0),
            null_hypothesis="Lin3",
            replicates=2,
            sizes=(0.05,),
            master_seed=3,
            null_draws=200,
            iterations=30,
        )
        text = run_monte_carlo(mc).to_text()
        assert "design" in text and "No-Pi" in text and "Lin3" in text
