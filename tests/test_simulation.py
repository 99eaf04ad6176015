"""Data generation, the hypothesis registry and the Monte Carlo harness."""

import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rkhstest import simulation
from rkhstest.inference import (
    SectionInstrumentPlan,
    SeriesInstrumentPlan,
    series_feature_columns,
)
from rkhstest.kernels import CompositeKernel, GaussianRBF, LinearKernel, polynomial_series
from rkhstest.simulation import (
    DgpSpec,
    McConfig,
    REJECTION_CSV_HEADER,
    _correlation_matrix,
    _one_blas_thread,
    _one_blas_thread_in_parent,
    _openblas_thread_controls,
    gen_covariates,
    gen_response,
    null_kernel_for,
    run_monte_carlo,
)


def _blas_thread_counts() -> dict[str, int]:
    """Thread count of each bundled OpenBLAS, by library name."""
    return {name: int(get()) for name, get, _ in _openblas_thread_controls()}


def _worker_blas_state():
    """The worker's BLAS thread counts and, where /proc lists them, its OS
    threads after a 600x600 product and an eigvalsh, calls large enough for
    OpenBLAS to use every thread it may."""
    a = np.random.default_rng(0).standard_normal((600, 600))
    np.linalg.eigvalsh(a @ a.T)
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    return _blas_thread_counts(), tasks


def _bivariate_study(null):
    return McConfig(
        dgp=DgpSpec("Bivariate", 60, 2, 0.0, "geometric", 1.0),
        null_hypothesis=null,
        replicates=2,
        sizes=(0.05,),
        master_seed=5,
        null_draws=200,
        instrument_count=20,
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
        assert len(plan.r0.terms) == 3

    def test_linall_plan_shapes(self):
        plan = null_kernel_for("LinAll", k=10)
        assert len(plan.instruments.test_pairs) == 90
        assert len(plan.r0.terms) == 10

    def test_linpoly_plan_shapes(self):
        plan = null_kernel_for("LinPoly", k=10)
        inst = plan.instruments
        assert len(inst.test_pairs) == 9
        assert all(coord == 0 and v >= 2 for coord, v in inst.test_pairs)
        assert len(plan.r0.terms) == 10

    def test_linpoly_and_lin2_at_four_coordinates_term_by_term(self):
        lin, basis = LinearKernel(1.0), polynomial_series(10, 2.2)
        poly = null_kernel_for("LinPoly", k=4)
        assert poly.name == "LinPoly"
        assert poly.r0 == CompositeKernel(
            ((lin, (0,)), (basis, (1,)), (basis, (2,)), (basis, (3,)))
        )
        assert poly.r1 == CompositeKernel(((basis, (0,)),))
        assert poly.instruments.test_pairs == tuple((0, v) for v in range(2, 11))
        lin2 = null_kernel_for("Lin2", k=4)
        assert lin2.name == "Lin2"
        assert lin2.r0 == CompositeKernel(((lin, (0,)), (lin, (1,))))
        assert lin2.r1 == CompositeKernel(
            ((basis, (0,)), (basis, (1,)), (basis, (2,)), (basis, (3,)))
        )
        assert lin2.instruments.test_pairs == (
            tuple((0, v) for v in range(2, 11))
            + tuple((1, v) for v in range(2, 11))
            + tuple((2, v) for v in range(1, 11))
            + tuple((3, v) for v in range(1, 11))
        )

    @pytest.mark.parametrize(
        "name, pairs",
        [
            ("Lin1", ((0, 1),)),
            ("Lin2", ((0, 1), (1, 1))),
            ("Lin3", ((0, 1), (1, 1), (2, 1))),
            ("LinAll", tuple((c, 1) for c in range(10))),
            ("LinPoly", ((0, 1),) + tuple((c, v) for c in range(1, 10) for v in range(1, 11))),
        ],
    )
    def test_null_features_are_the_series_projection_columns(self, name, pairs):
        # the series plans once listed their projection columns as (coord,
        # order) pairs; r0's feature map gives the same columns bit for bit
        plan = null_kernel_for(name, k=10)
        x = np.random.default_rng(10).uniform(-2, 2, (25, 10))
        assert np.array_equal(
            plan.r0.feature_matrix(x), series_feature_columns(x, pairs)
        )

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
        assert rbf.gram(np.array([[0.0]]), np.array([[2.0]]))[0, 0] < rbf.scale

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

    def test_all_failures_raise(self, monkeypatch):
        def failing(config, rep):
            raise ValueError(f"no data for replicate {rep}")

        monkeypatch.setattr(simulation, "_replicate_outcome", failing)
        mc = McConfig(dgp=DgpSpec("Lin3", 30), null_hypothesis="Lin1", replicates=2, master_seed=1)
        message = "all replicates failed; first error: replicate 0: ValueError: no data for replicate 0"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(mc)

    @pytest.mark.parametrize(
        "design, k, message",
        [
            ("Lin3", 2.5, "n_covariates must be an integer, got 2.5"),
            ("Lin3", 0, "n_covariates must be at least 1, got 0"),
            ("Lin3", 2, "Lin3 needs at least 3 covariates, got 2"),
            ("LinAll", 0, "n_covariates must be at least 1, got 0"),
            ("NonLinear", 3, "NonLinear needs at least 4 covariates, got 3"),
            ("Bivariate", 3, "Bivariate needs exactly 2 covariates, got 3"),
            ("Bivariate", 1, "Bivariate needs exactly 2 covariates, got 1"),
        ],
    )
    def test_unusable_covariate_count_rejected_before_any_replicate(
        self, monkeypatch, design, k, message
    ):
        # each of these used to run every replicate, then fail them all
        def no_replicate(config, rep):
            raise AssertionError("a replicate ran before the covariate count check")

        monkeypatch.setattr(simulation, "_replicate_outcome", no_replicate)
        null = "BivLinAll" if design == "Bivariate" else "Lin1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(McConfig(dgp=DgpSpec(design, 40, k), null_hypothesis=null, replicates=2))

    @pytest.mark.parametrize(
        "design, k, null, reach",
        [("LinAll", 2, "Lin3", 2), ("Bivariate", 2, "Lin3", 2), ("LinAll", 1, "Lin2", 1)],
    )
    def test_null_reading_past_the_covariates_rejected_before_any_replicate(
        self, monkeypatch, design, k, null, reach
    ):
        def no_replicate(config, rep):
            raise AssertionError("a replicate ran before the null's coordinates were checked")

        monkeypatch.setattr(simulation, "_replicate_outcome", no_replicate)
        message = f"null {null} needs at least {reach + 1} covariates, got {k}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(McConfig(dgp=DgpSpec(design, 40, k), null_hypothesis=null, replicates=2))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"step_rule": "golden"},
             "step_rule must be one of ('line_search', 'two_over_m_plus_two', 'one_over_m'), "
             "got 'golden'"),
            ({"iterations": -1}, "iterations must be >= 0, got -1"),
            ({"iterations": 10.5}, "iterations must be an integer, got 10.5"),
            ({"iterations": True}, "iterations must be an integer, got True"),
            ({"budget_multiplier": -2.0}, "budget_multiplier must be finite and positive, got -2.0"),
            ({"budget_multiplier": float("nan")},
             "budget_multiplier must be finite and positive, got nan"),
            ({"budget_multiplier": "1e-3"}, "budget_multiplier must be a real number, got '1e-3'"),
            ({"budget_multiplier": True}, "budget_multiplier must be a real number, got True"),
        ],
        ids=["step_rule", "iterations", "iterations_fraction", "iterations_bool",
             "budget_multiplier_negative", "budget_multiplier_nan", "budget_multiplier_string",
             "budget_multiplier_bool"],
    )
    def test_unusable_fit_setting_rejected_before_any_replicate(self, monkeypatch, setting, message):
        # each of these used to generate every replicate's data, then fail its fit
        def no_replicate(config, rep):
            raise AssertionError("a replicate ran before the fit settings were checked")

        monkeypatch.setattr(simulation, "_replicate_outcome", no_replicate)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(McConfig(dgp=DgpSpec("Lin3", 40), null_hypothesis="Lin3",
                                     replicates=3, null_draws=100, **setting))

    @pytest.mark.parametrize(
        "design, null, solver, used",
        [
            ("Lin3", "Lin3", "auto", "greedy"),
            ("Lin3", "Lin3", "ridge", "ridge_closed_form"),
            ("Bivariate", "BivLinAll", "auto", "ridge_closed_form"),
            ("Bivariate", "BivLinAll", "greedy", "greedy"),
        ],
    )
    def test_solver_setting_picks_every_replicates_fit(self, monkeypatch, design, null, solver, used):
        solvers, real = [], simulation.run_test

        def spy(x, y, plan, loss, fit_config, **kwargs):
            solvers.append(fit_config.solver)
            return real(x, y, plan, loss, fit_config, **kwargs)

        monkeypatch.setattr(simulation, "run_test", spy)
        section = {"instrument_count": 10} if design == "Bivariate" else {}
        mc = McConfig(dgp=DgpSpec(design, 40, 2 if design == "Bivariate" else 3),
                      null_hypothesis=null, replicates=2, null_draws=100, iterations=20,
                      solver=solver, **section)
        assert run_monte_carlo(mc).errors == 0
        assert solvers == [used, used]

    def test_plan_is_built_at_the_study_covariate_count(self):
        # LinAll at k=3 restricts all three covariates, so a Lin3 null fits it
        mc = McConfig(dgp=DgpSpec("LinAll", 40, 3), null_hypothesis="Lin3", replicates=1,
                      null_draws=100, iterations=20)
        assert run_monte_carlo(mc).errors == 0

    @pytest.mark.parametrize(
        "rho, message",
        [
            (-1, "projection penalty must be nonnegative and finite, got -1"),
            (float("nan"), "projection penalty must be nonnegative and finite, got nan"),
            (float("inf"), "projection penalty must be nonnegative and finite, got inf"),
            (True, "projection penalty must be a real number, got True"),
            ("default", "projection penalty must be a real number, got 'default'"),
        ],
    )
    def test_unusable_projection_penalty_rejected_before_any_replicate(
        self, monkeypatch, rho, message
    ):
        def no_replicate(config, rep):
            raise AssertionError("a replicate ran before the penalty check")

        monkeypatch.setattr(simulation, "_replicate_outcome", no_replicate)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(
                McConfig(dgp=DgpSpec("Lin3", 40), null_hypothesis="Lin3", replicates=2, proj_rho=rho)
            )

    @pytest.mark.parametrize(
        "design, null, count, message",
        [
            ("Lin3", "Lin3", 5, "instrument_count counts kernel sections; Lin3 tests series"),
            ("Lin3", "LinPoly", 0, "instrument_count counts kernel sections; LinPoly tests series"),
            ("Bivariate", "BivLinAll", 0, "the instrument count must be at least 1, got 0"),
            ("Bivariate", "Lin1NonLin", -2, "the instrument count must be at least 1, got -2"),
            ("Bivariate", "BivLinAll", 2.5, "the instrument count must be an integer, got 2.5"),
            ("Bivariate", "BivLinAll", True, "the instrument count must be an integer, got True"),
        ],
        ids=["Lin3", "LinPoly", "BivLinAll", "Lin1NonLin", "fraction", "bool"],
    )
    def test_unusable_instrument_count_rejected_when_built(self, design, null, count, message):
        # a run would otherwise generate every replicate's data, then fail them all
        dgp = DgpSpec(design, 40, 2 if design == "Bivariate" else 10)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            McConfig(dgp=dgp, null_hypothesis=null, replicates=2, instrument_count=count)
        assert McConfig(dgp=dgp, null_hypothesis=null, replicates=2).instrument_count is None

    def test_numpy_integer_instrument_count_accepted(self):
        mc = McConfig(
            dgp=DgpSpec("Bivariate", 40, 2), null_hypothesis="BivLinAll", replicates=2,
            instrument_count=np.int64(5),
        )
        assert mc.instrument_count == 5

    @pytest.mark.parametrize(
        "draws, message",
        [
            (0, "null_draws must be at least 1, got 0"),
            (-10, "null_draws must be at least 1, got -10"),
            (100.0, "null_draws must be an integer, got 100.0"),
        ],
    )
    def test_unusable_null_draws_rejected_when_built(self, draws, message):
        # a run would otherwise fit and project every replicate, then fail them all
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            McConfig(
                dgp=DgpSpec("Lin3", 40), null_hypothesis="Lin3", replicates=2, null_draws=draws
            )

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

    def test_forked_worker_inherits_one_blas_thread(self):
        parent = _blas_thread_counts()
        if not parent:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count symbol")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method")
        fork = multiprocessing.get_context("fork")
        with _one_blas_thread_in_parent(), ProcessPoolExecutor(
            max_workers=1, mp_context=fork, initializer=_one_blas_thread
        ) as pool:
            counts, tasks = pool.submit(_worker_blas_state).result(timeout=60)
        assert _blas_thread_counts() == parent
        assert counts == {name: 1 for name in parent}
        # setting the count again in the child would restart OpenBLAS's
        # thread pool there and leave an idle thread spinning beside the worker
        if tasks is None:
            pytest.skip("no /proc/self/task to count the worker's threads")
        assert tasks == 1

    def test_spawned_worker_is_set_to_one_blas_thread(self):
        parent = _blas_thread_counts()
        if not parent:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count symbol")
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn, initializer=_one_blas_thread) as pool:
            worker = pool.submit(_blas_thread_counts).result(timeout=60)
        assert worker == {name: 1 for name in parent}

    def test_parent_blas_threads_restored_after_a_study(self, monkeypatch):
        parent = _blas_thread_counts()
        if not parent:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count symbol")
        mc = McConfig(
            dgp=DgpSpec("Lin3", 40, 10, 0.0, "geometric", 1.0),
            null_hypothesis="Lin3",
            replicates=2,
            sizes=(0.05,),
            master_seed=3,
            null_draws=200,
            iterations=30,
        )
        run_monte_carlo(mc, n_jobs=2)
        assert _blas_thread_counts() == parent

        seen = []

        class BrokenPool:
            def __init__(self, **kwargs):
                seen.append(_blas_thread_counts())

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, *args, **kwargs):
                raise RuntimeError("pool broke")

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", BrokenPool)
        with pytest.raises(RuntimeError, match="pool broke"):
            run_monte_carlo(mc, n_jobs=2)
        assert seen == [{name: 1 for name in parent}]
        assert _blas_thread_counts() == parent

    def test_serial_feature_study_runs_on_one_blas_thread(self, monkeypatch):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count symbol")
        saved = _blas_thread_counts()
        seen = []
        real = simulation._replicate_outcome

        def spy(config, rep):
            seen.append(_blas_thread_counts())
            if rep == 1:
                raise ValueError("replicate 1 broke")
            return real(config, rep)

        def broken(job):
            seen.append(_blas_thread_counts())
            raise RuntimeError("the study broke")

        try:
            for _, _, put in controls:
                put(2)
            threaded = {name: 2 for name in saved}
            monkeypatch.setattr(simulation, "_replicate_outcome", spy)
            table = run_monte_carlo(_bivariate_study("BivLinAll"))
            assert table.errors == 1
            assert seen == [{name: 1 for name in saved}] * 2
            assert _blas_thread_counts() == threaded
            seen.clear()
            monkeypatch.setattr(simulation, "_replicate_safe", broken)
            with pytest.raises(RuntimeError, match="the study broke"):
                run_monte_carlo(_bivariate_study("BivLinAll"))
            assert seen == [{name: 1 for name in saved}]
            assert _blas_thread_counts() == threaded
        finally:
            for (_, _, put), count in zip(controls, saved.values()):
                put(count)

    def test_serial_gram_only_study_keeps_the_blas_threads(self, monkeypatch):
        calls = []
        fake = (("fake", lambda: 3, calls.append),)
        monkeypatch.setattr(simulation, "_openblas_thread_controls", lambda: fake)
        run_monte_carlo(_bivariate_study("Lin1NonLin"))
        assert calls == []
        run_monte_carlo(_bivariate_study("BivLinAll"))
        assert calls == [1, 3]

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
