"""Config parsing, CSV ingestion, result emission and the subcommands."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from rkhstest import cli, inference, simulation
from rkhstest.cli import (
    ConfigError,
    Dataset,
    RunConfig,
    emit_results,
    ingest_csv,
    main,
    parse_config,
    resolved_config_yaml,
)
from rkhstest.simulation import REJECTION_CSV_HEADER


class TestParseConfig:
    def test_minimal_fit_defaults(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("y,x\n1.0,2.0\n")
        cfg = parse_config(
            f"kernels:\n  r0: {{kind: linear}}\ndata: {{path: {data}}}\n", command="fit"
        )
        assert cfg.fit.iterations == 500
        assert cfg.fit.step_rule == "line_search"
        assert cfg.fit.budget_multiplier == 10.0
        assert cfg.loss == "rescaled_square"

    def test_simulate_mapping(self):
        text = (
            "seed: 11\n"
            "simulate:\n"
            "  design: Lin3\n"
            "  n: 100\n"
            "  replicates: 500\n"
        )
        cfg = parse_config(text, command="simulate")
        assert cfg.simulate.design == "Lin3"
        assert cfg.simulate.n == 100
        assert cfg.simulate.replicates == 500

    def test_text_without_a_newline_is_yaml(self):
        # parse_config once read any string without a newline as a file path
        cfg = parse_config("seed: 1", command="simulate")
        assert cfg.seed == 1

    def test_unknown_key_is_fatal_and_named(self):
        with pytest.raises(ConfigError, match="rigde"):
            parse_config(
                "kernels: {r0: {kind: linear}}\ndata: {path: d.csv}\nfit: {rigde: 1}\n",
                command="fit",
            )
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(
                "kernels: {r0: {kind: linear}}\ndata: {path: no_such_file.csv}\n",
                command="fit",
            )
        with pytest.raises(ConfigError, match="simualte"):
            parse_config("seed: 1\nsimualte: {}\n", command="simulate")

    @pytest.mark.parametrize("key", ["projection", "projection_features"])
    def test_projection_keys_are_unknown(self, tmp_path, key):
        # the projection span is always r0's; there is nothing to configure
        data = tmp_path / "d.csv"
        data.write_text("y,x\n1.0,2.0\n")
        with pytest.raises(ConfigError, match=re.escape(f"test.'{key}'")):
            parse_config(
                f"kernels: {{r0: {{kind: linear}}}}\ndata: {{path: {data}}}\n"
                f"test: {{features: [[0, 2, 4]], {key}: features}}\n",
                command="test",
            )

    def test_section_count_in_series_mode_is_an_error(self, tmp_path):
        # test.r counts kernel sections; series instruments are test.features
        data = tmp_path / "d.csv"
        data.write_text("y,x1,x2,x3\n1.0,2.0,3.0,4.0\n")
        with pytest.raises(ConfigError, match=re.escape("test.r")):
            parse_config(
                f"kernels: {{r0: {{kind: linear}}}}\ndata: {{path: {data}}}\n"
                "test: {instrument_mode: series_features, r: 5,"
                " features: [[0, 2, 6], [1, 2, 6], [2, 2, 6]]}\n",
                command="test",
            )

    def test_series_features_in_section_mode_are_an_error(self, tmp_path):
        # section mode builds its instruments from r1; test.features would be ignored
        data = tmp_path / "d.csv"
        data.write_text("y,x1,x2,x3\n1.0,2.0,3.0,4.0\n")
        with pytest.raises(ConfigError, match=re.escape("test.features")):
            parse_config(
                f"kernels: {{r0: {{kind: linear}}, r1: {{kind: linear}}}}\n"
                f"data: {{path: {data}}}\n"
                "test: {instrument_mode: kernel_sections_normalized, r: 5,"
                " features: [[1, 2, 9]]}\n",
                command="test",
            )

    @pytest.mark.parametrize("null", ["Lin3", "LinPoly"])
    def test_simulated_instrument_count_with_a_series_null_is_an_error(
        self, tmp_path, capsys, null
    ):
        # series nulls test their feature columns; the count would be ignored
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(
            f"seed: 1\nsimulate: {{design: Lin3, null: {null}, instrument_count: 50}}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: instrument_count counts kernel sections; {null} tests series\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("fit", "ridge_rho", 0.5),
            ("fit", "line_search_tol", 1e-6),
            ("data", "standardize", True),
            ("test", "series_terms", 10),
            ("test", "series_decay", 2.2),
        ],
    )
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, section, key, value):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        doc = {
            "seed": 1,
            "kernels": {"r0": {"kind": "linear", "coords": [0]}},
            "data": {"path": str(data)},
            "test": {"features": [[0, 2, 6]]},
        }
        doc.setdefault(section, {})[key] = value
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key {section}.{key!r}\n"
        assert not out.exists()

    def test_readme_configs_parse(self, tmp_path):
        # every YAML example in the README must pass strict validation
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"```yaml\n(.*?)```", readme.read_text(), flags=re.S)
        assert len(blocks) >= 2
        data = tmp_path / "data.csv"
        data.write_text("y,x1,x2,x3,x4\n1.0,2.0,3.0,4.0,5.0\n")
        for block in blocks:
            doc = yaml.safe_load(block)
            if "data" in doc:
                doc["data"]["path"] = str(data)
            command = doc.get("command") or ("simulate" if "simulate" in doc else "test")
            parse_config(yaml.safe_dump(doc), command=command)

    def test_seed_mandatory_for_simulate(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("simulate: {design: Lin3}\n", command="simulate")

    def test_absolute_loss_is_unknown(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("y,x\n1.0,2.0\n")
        text = (
            "loss: absolute\n"
            "kernels: {r0: {kind: linear}}\n"
            f"data: {{path: {data}}}\n"
            "fit: {solver: ridge_closed_form}\n"
        )
        with pytest.raises(ConfigError, match="unknown loss 'absolute'"):
            parse_config(text, command="fit")

    @pytest.mark.parametrize("loss", ["poisson", "duration"])
    def test_loss_aliases_are_unknown(self, tmp_path, capsys, loss):
        # poisson_count and duration_hazard are the only names of those losses
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"loss: {loss}\nkernels: {{r0: {{kind: linear}}}}\ndata: {{path: {data}}}\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown loss {loss!r}; expected one of")

    def test_command_mismatch(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("command: fit\n", command="test")

    def test_round_trip(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("y,x\n1.0,2.0\n")
        text = (
            "seed: 3\n"
            "out: somewhere\n"
            "loss: square\n"
            "kernels: {r0: {kind: linear}}\n"
            f"data: {{path: {data}}}\n"
            "fit: {budget: 2.5, iterations: 77}\n"
        )
        cfg = parse_config(text, command="fit")
        echoed = resolved_config_yaml(cfg)
        again = parse_config(echoed)
        assert again == cfg

    def test_flag_overrides(self):
        cfg = parse_config(
            "seed: 1\nout: a\nsimulate: {design: Lin3, replicates: 5}\n",
            command="simulate",
            overrides={"out": "b", "seed": 9},
        )
        assert cfg.out == "b" and cfg.seed == 9


class TestIngestCsv:
    def test_toy_file(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("y,x1,x2\n1.0,0.1,0.2\n2.0,0.3,0.4\n3.0,0.5,0.6\n")
        data = ingest_csv(f)
        assert data.y.shape == (3,) and data.x.shape == (3, 2)
        assert data.response_name == "y"
        assert np.allclose(data.y, [1, 2, 3])

    def test_nan_row_reported_with_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("y,x\n1.0,2.0\nnan,3.0\n4.0,5.0\n")
        with pytest.raises(ValueError, match="line.* 3"):
            ingest_csv(f)

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("y,x\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged row at line 3"):
            ingest_csv(f)

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "text.csv"
        f.write_text("y,x\n1.0,hello\n")
        with pytest.raises(ValueError, match="hello"):
            ingest_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(f)

    def test_column_selection(self, tmp_path):
        f = tmp_path / "sel.csv"
        f.write_text("a,b,c\n1,2,3\n4,5,6\n")
        data = ingest_csv(f, response="c", covariates=["a"])
        assert data.response_name == "c" and data.covariate_names == ("a",)
        assert data.x.shape == (2, 1)


def _write_dataset(path: Path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, (n, 2))
    y = 0.6 * x[:, 0] + 0.3 * rng.standard_normal(n)
    rows = ["y,x1,x2"] + [f"{yi},{a},{b}" for yi, (a, b) in zip(y, x)]
    path.write_text("\n".join(rows) + "\n")


TEST_CONFIG = """
seed: 5
loss: rescaled_square
kernels:
  r0: {kind: linear, coords: [0]}
fit: {budget: 5.0, iterations: 80}
test:
  instrument_mode: series_features
  features: [[0, 2, 6], [1, 1, 6]]
  null_draws: 400
"""

# the rule every test.features entry must satisfy, as its error states it
RANGE_RULE = "must be [coord, lo, hi], integers with coord >= 0 and 1 <= lo <= hi <= 10"


class TestCommands:
    def test_fit_emits_model_and_config(self, tmp_path):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"seed: 1\ndata: {{path: {data}}}\n"
            "kernels: {r0: {kind: linear, coords: [0, 1]}}\n"
            "fit: {solver: ridge_closed_form, budget: 4.0}\n"
        )
        out = tmp_path / "out"
        rc = main(["fit", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "model.json").exists()
        assert (out / "config.yaml").exists()

    def test_greedy_model_records_duality_gaps(self, tmp_path):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"seed: 1\ndata: {{path: {data}}}\nloss: rescaled_square\n"
            "kernels: {r0: {kind: sum, terms: [{kind: gaussian_rbf, coords: [0]}, "
            "{kind: gaussian_rbf, coords: [1]}]}}\n"
            "fit: {solver: greedy, budget: 1.0, iterations: 30}\n"
        )
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        trace = json.loads((out / "model.json").read_text())["trace"]
        assert len(trace["gaps"]) == len(trace["steps"]) == 30
        assert min(trace["gaps"]) >= 0.0

    @pytest.mark.parametrize(
        "r0, fit, representation, shape",
        [
            ("{kind: linear, coords: [0, 1]}", "{solver: ridge_closed_form, budget: 4.0}",
             "representer", (40,)),
            ("{kind: sum, terms: [{kind: polynomial, degree: 6, coords: [0]}, "
             "{kind: polynomial, degree: 6, coords: [1]}]}",
             "{solver: greedy, budget: 1.0, iterations: 20}", "series", (2, 6)),
            ("{kind: linear, coords: [0, 1]}", "{solver: greedy, budget: 1.0, iterations: 20}",
             "series", (1, 2)),
            ("{kind: sum, terms: [{kind: gaussian_rbf, coords: [0]}, "
             "{kind: gaussian_rbf, coords: [1]}]}",
             "{solver: greedy, budget: 1.0, iterations: 20}", "representer_greedy", (40, 2)),
        ],
        ids=["ridge", "series_greedy", "linear_greedy", "gram_greedy"],
    )
    def test_model_record_layout(self, tmp_path, r0, fit, representation, shape):
        # ridge: a flat n-vector plus anchors; series (every term has a
        # feature matrix): T blocks of V_t coefficients; Gram path: n rows of
        # T representer weights
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"seed: 1\ndata: {{path: {data}}}\nkernels: {{r0: {r0}}}\nfit: {fit}\n")
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 0
        record = json.loads((out / "model.json").read_text())
        common = {"budget", "budget_binding", "coeffs", "norm_hk", "norm_lk",
                  "representation", "ridge_rho"}
        extra = {"anchors"} if representation == "representer" else {"norm_kind", "trace"}
        assert set(record) == common | extra
        assert record["representation"] == representation
        assert np.array(record["coeffs"]).shape == shape
        if representation == "representer":
            assert np.array(record["anchors"]).shape == (40, 2)

    def test_test_command_outputs(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(TEST_CONFIG + f"data: {{path: {data}}}\n")
        out = tmp_path / "res"
        rc = main(["test", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        body = (out / "test_result.txt").read_text()
        assert "statistic" in body and "p-value" in body
        csv_text = (out / "test_result.csv").read_text().splitlines()
        assert csv_text[0].startswith("statistic,p_value,naive_statistic")

    def test_byte_identical_reruns(self, tmp_path):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(TEST_CONFIG + f"data: {{path: {data}}}\n")
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        # the config echo embeds the (differing) output path; results must match
        for name in ("test_result.csv", "test_result.txt", "test_result.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_kernel_section_test_without_a_budget(self, tmp_path):
        # r0's constant and linear Grams are formed from their feature maps at
        # scale 0.5; with no fit.budget the fit's budget is 10 sd(y)
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"seed: 3\ndata: {{path: {data}}}\nkernels:\n"
            "  r0: {kind: sum, terms: [{kind: constant, scale: 0.5}, {kind: linear, scale: 0.5}]}\n"
            "  r1: {kind: gaussian_rbf, coords: [0, 1]}\n"
            "fit: {solver: ridge_closed_form}\n"
            "test: {instrument_mode: kernel_sections_normalized, r: 12, null_draws: 400}\n"
        )
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("test_result.csv", "test_result.txt", "test_result.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        record = json.loads((outs[0] / "test_result.json").read_text())
        assert record["config"]["budget"] == 10.0 * float(np.std(ingest_csv(data).y))
        assert record["r_count"] == 12 and record["proj_rho_rule"] == "fit-coupled"

    def test_simulate_schema_and_determinism(self, tmp_path):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(
            "seed: 12\n"
            "simulate:\n"
            "  design: Lin3\n"
            "  null: Lin2\n"
            "  n: 40\n"
            "  replicates: 2\n"
            "  sizes: [0.1]\n"
            "  null_draws: 300\n"
            "  iterations: 40\n"
        )
        first = tmp_path / "s1"
        second = tmp_path / "s2"
        assert main(["simulate", "--config", str(cfg), "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(second)]) == 0
        csv_lines = (first / "rejections.csv").read_text().splitlines()
        assert csv_lines[0] == REJECTION_CSV_HEADER
        assert (first / "rejections.csv").read_bytes() == (second / "rejections.csv").read_bytes()

    def test_error_exit_code_and_message(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("simulate: {desgin: Lin3}\n")
        rc = main(["simulate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "desgin" in captured.err

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_covariance_key_is_unknown(self, tmp_path, capsys, command):
        # the product form is the only moment-covariance estimator
        data = tmp_path / "d.csv"
        _write_dataset(data)
        texts = {
            "test": TEST_CONFIG + "  covariance: product_form\n" + f"data: {{path: {data}}}\n",
            "simulate": "seed: 1\nsimulate: {design: Lin3, covariance: product_form}\n",
        }
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(texts[command])
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: unknown config key {command}.'covariance'\n"
        assert not out.exists()

    def test_ridge_solver_with_logistic_loss_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            TEST_CONFIG.replace("loss: rescaled_square", "loss: logistic")
            .replace("fit: {", "fit: {solver: ridge_closed_form, ")
            + f"data: {{path: {data}}}\n"
        )
        rc = main(["test", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "'logistic'" in captured.err

    def test_negative_projection_penalty_with_ridge_solver_is_an_error(self, tmp_path, capsys):
        # the ridge fit projects through its cached eigenbasis, which must
        # reject a negative penalty as the other routes do
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            TEST_CONFIG.replace("fit: {", "fit: {solver: ridge_closed_form, ")
            .replace("  null_draws: 400", "  null_draws: 400\n  proj_rho: -1")
            + f"data: {{path: {data}}}\n"
        )
        rc = main(["test", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "nonnegative" in captured.err

    def test_zero_section_count_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            TEST_CONFIG.replace("instrument_mode: series_features",
                                "instrument_mode: kernel_sections_normalized\n  r: 0")
            .replace("  features: [[0, 2, 6], [1, 1, 6]]\n", "")
            .replace("kernels:\n", "kernels:\n  r1: {kind: gaussian_rbf, coords: [1]}\n")
            + f"data: {{path: {data}}}\n"
        )
        rc = main(["test", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: test.r must be at least 1, got 0\n"

    def test_zero_simulated_instrument_count_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(
            "seed: 12\n"
            "simulate: {design: Bivariate, null: BivLinAll, n: 40, replicates: 2,"
            " sizes: [0.1], null_draws: 200, instrument_count: 0}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: simulate.instrument_count must be at least 1, got 0\n"
        assert not out.exists()

    def test_fractional_section_count_is_an_error(self, tmp_path, capsys, monkeypatch):
        # 2.5 used to pass the count check and fail after the fit
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the instrument count check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            TEST_CONFIG.replace("instrument_mode: series_features",
                                "instrument_mode: kernel_sections_normalized\n  r: 2.5")
            .replace("  features: [[0, 2, 6], [1, 1, 6]]\n", "")
            .replace("kernels:\n", "kernels:\n  r1: {kind: gaussian_rbf, coords: [1]}\n")
            + f"data: {{path: {data}}}\n"
        )
        out = tmp_path / "out"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: test.r must be an integer, got 2.5\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "draws, message",
        [
            ("0", "test.null_draws must be at least 1, got 0"),
            ("2.5", "test.null_draws must be an integer, got 2.5"),
        ],
    )
    def test_unusable_test_null_draws_names_the_key_before_the_fit(
        self, tmp_path, capsys, monkeypatch, draws, message
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the draw count check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            TEST_CONFIG.replace("null_draws: 400", f"null_draws: {draws}")
            + f"data: {{path: {data}}}\n"
        )
        out = tmp_path / "out"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"null_draws": 100, "instrument_count": 2.5},
             "simulate.instrument_count must be an integer, got 2.5"),
            ({"null_draws": 0}, "simulate.null_draws must be at least 1, got 0"),
            ({"replicates": 2.5}, "simulate.replicates must be an integer, got 2.5"),
            ({"n": 2.5}, "simulate.n must be an integer, got 2.5"),
            ({"design": "Lin3", "null": "Lin3", "k": 2.5}, "simulate.k must be an integer, got 2.5"),
            ({"design": "Lin3", "null": "Lin3", "k": 0}, "simulate.k must be at least 1, got 0"),
            ({"design": "Lin3", "null": "Lin3", "k": 2}, "Lin3 needs at least 3 covariates, got 2"),
            ({"design": "LinAll", "null": "Lin3", "k": 2}, "null Lin3 needs at least 3 covariates, got 2"),
            ({"proj_rho": -1}, "simulate.proj_rho must be nonnegative and finite, got -1"),
            ({"proj_rho": "default"}, "simulate.proj_rho must be a real number, got 'default'"),
            ({"proj_rho": float("nan")}, "simulate.proj_rho must be nonnegative and finite, got nan"),
            ({"threads": 0}, "threads must be at least 1, got 0"),
            ({"threads": 2.7}, "threads must be an integer, got 2.7"),
            ({"step_rule": "golden"}, "simulate.step_rule must be one of ('line_search', "
             "'two_over_m_plus_two', 'one_over_m'), got 'golden'"),
            ({"iterations": -1}, "simulate.iterations must be >= 0, got -1"),
            ({"iterations": 10.5}, "simulate.iterations must be an integer, got 10.5"),
            ({"iterations": True}, "simulate.iterations must be an integer, got True"),
            ({"budget_multiplier": -2.0},
             "simulate.budget_multiplier must be finite and positive, got -2.0"),
            ({"budget_multiplier": float("nan")},
             "simulate.budget_multiplier must be finite and positive, got nan"),
            ({"budget_multiplier": "1e-3"},
             "simulate.budget_multiplier must be a real number, got '1e-3'"),
            ({"budget_multiplier": True},
             "simulate.budget_multiplier must be a real number, got True"),
        ],
        ids=["instrument_count", "null_draws", "replicates", "n", "k_fraction", "k_zero",
             "k_below_design", "k_below_null", "proj_rho_negative", "proj_rho_default",
             "proj_rho_nan", "threads_zero", "threads_fraction", "step_rule", "iterations",
             "iterations_fraction", "iterations_bool", "budget_multiplier_negative",
             "budget_multiplier_nan", "budget_multiplier_string", "budget_multiplier_bool"],
    )
    def test_unusable_simulate_count_fails_before_any_replicate(
        self, tmp_path, capsys, monkeypatch, keys, message
    ):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran before the config check")

        monkeypatch.setattr(simulation, "_replicate_safe", no_replicate)
        cfg = tmp_path / "sim.yaml"
        top = {"threads": keys.pop("threads")} if "threads" in keys else {}
        simulate = {"design": "Bivariate", "null": "BivLinAll", "n": 40, "replicates": 3,
                    "sizes": [0.1], **keys}
        cfg.write_text(yaml.safe_dump({"seed": 12, "simulate": simulate, **top}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"norm": "l2"}, "fit.norm must be one of ('lk', 'hk'), got 'l2'"),
            ({"solver": "ridge"},
             "fit.solver must be one of ('greedy', 'ridge_closed_form'), got 'ridge'"),
            ({"budget": 0}, "fit.budget must be null or finite and positive, got 0"),
            ({"budget": float("inf")}, "fit.budget must be null or finite and positive, got inf"),
            ({"budget": "1e-3"}, "fit.budget must be null or finite and positive, got '1e-3'"),
            ({"budget_multiplier": -1.0},
             "fit.budget_multiplier must be finite and positive, got -1.0"),
            ({"step_rule": "golden"}, "fit.step_rule must be one of ('line_search', "
             "'two_over_m_plus_two', 'one_over_m'), got 'golden'"),
            ({"iterations": -1}, "fit.iterations must be >= 0, got -1"),
            ({"iterations": 10.5}, "fit.iterations must be an integer, got 10.5"),
            ({"iterations": True}, "fit.iterations must be an integer, got True"),
            ({"budget_multiplier": "1e-3"},
             "fit.budget_multiplier must be a real number, got '1e-3'"),
        ],
        ids=["norm", "solver", "budget_zero", "budget_inf", "budget_string",
             "budget_multiplier", "step_rule", "iterations", "iterations_fraction",
             "iterations_bool", "budget_multiplier_string"],
    )
    def test_unusable_fit_setting_fails_before_the_data_is_read(
        self, tmp_path, capsys, monkeypatch, keys, message
    ):
        def no_ingest(*args, **kwargs):
            raise AssertionError("the data was read before the config check")

        monkeypatch.setattr(cli, "ingest_csv", no_ingest)
        data = tmp_path / "d.csv"
        data.write_text("y,x\n1.0,2.0\n2.0,1.0\n")
        cfg = tmp_path / "fit.yaml"
        cfg.write_text(yaml.safe_dump({"seed": 1, "data": {"path": str(data)},
                                       "kernels": {"r0": {"kind": "linear"}}, "fit": keys}))
        out = tmp_path / "o"
        assert main(["fit", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_zero_threads_flag_fails_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        # the flag overrides the file, and is checked after it does
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran before the config check")

        monkeypatch.setattr(simulation, "_replicate_safe", no_replicate)
        cfg = tmp_path / "sim.yaml"
        cfg.write_text("seed: 12\nthreads: 2\nsimulate: {design: Lin3, n: 40, replicates: 2}\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "0"]) == 1
        assert capsys.readouterr().err == "error: threads must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("proj_rho: default", "test.proj_rho must be a real number, got 'default'"),
            ("proj_rho: abc", "test.proj_rho must be a real number, got 'abc'"),
            ("proj_rho: true", "test.proj_rho must be a real number, got True"),
            ("proj_rho: -1", "test.proj_rho must be nonnegative and finite, got -1"),
            ("proj_rho: .nan", "test.proj_rho must be nonnegative and finite, got nan"),
            ("proj_rho: .inf", "test.proj_rho must be nonnegative and finite, got inf"),
            ("features: [[-1, 2, 6]]", f"test.features entry [-1, 2, 6] {RANGE_RULE}"),
            ("features: [[0, 2, 11]]", f"test.features entry [0, 2, 11] {RANGE_RULE}"),
            ("features: [[0, 6, 2]]", f"test.features entry [0, 6, 2] {RANGE_RULE}"),
            ("features: [[0, 2.5, 6]]", f"test.features entry [0, 2.5, 6] {RANGE_RULE}"),
            ("features: [[0, 2]]", f"test.features entry [0, 2] {RANGE_RULE}"),
            ("features: [[0, true, 6]]", f"test.features entry [0, True, 6] {RANGE_RULE}"),
            ("features: [5]", f"test.features entry 5 {RANGE_RULE}"),
            ("features: 5", "test.features must be a list of [coord, lo, hi] ranges, got 5"),
            ("features: [[5, 2, 6]]", "series coordinate 5 outside 0..1"),
        ],
        ids=["default", "abc", "true", "negative", "nan", "inf", "coord_negative", "order_11",
             "reversed", "fraction", "two_entries", "bool", "not_a_range", "not_a_list",
             "coord_past_csv"],
    )
    def test_unusable_test_setting_fails_before_the_fit(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("the restricted fit ran before the config check")

        monkeypatch.setattr(inference, "_fit_by_solver", no_fit)
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        features = "  features: [[0, 2, 6], [1, 1, 6]]\n"
        text = TEST_CONFIG.replace(features, "" if line.startswith("features") else features)
        cfg.write_text(text + f"  {line}\ndata: {{path: {data}}}\n")
        out = tmp_path / "out"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_config_echo_writes_the_penalty_rule_as_null(self, tmp_path):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(TEST_CONFIG + f"data: {{path: {data}}}\n")
        out = tmp_path / "out"
        assert main(["test", "--config", str(cfg), "--out", str(out)]) == 0
        echo = (out / "config.yaml").read_text()
        assert echo.count("  proj_rho: null\n") == 2
        echoed = yaml.safe_load(echo)
        assert echoed["test"]["proj_rho"] is None and echoed["simulate"]["proj_rho"] is None
        assert json.loads((out / "test_result.json").read_text())["proj_rho"] == 40 * 40.0 ** (-0.4)

    def test_gram_columns_mode_is_unknown(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            TEST_CONFIG.replace("instrument_mode: series_features", "instrument_mode: gram_columns")
            .replace("  features: [[0, 2, 6], [1, 1, 6]]\n", "")
            .replace("kernels:\n", "kernels:\n  r1: {kind: gaussian_rbf, coords: [1]}\n")
            + f"data: {{path: {data}}}\n"
        )
        rc = main(["test", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown instrument mode 'gram_columns'\n"

    def test_replicates_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(
            "seed: 12\n"
            "simulate: {design: Lin3, null: Lin3, n: 40, replicates: 9,"
            " sizes: [0.1], null_draws: 200, iterations: 30}\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--replicates", "2"]) == 0
        body = (out / "rejections.csv").read_text()
        assert body.strip().endswith(",2")


def test_emit_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        emit_results({"not": "a result"}, tmp_path)
