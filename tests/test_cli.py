"""Config parsing, CSV ingestion, result emission and the subcommands."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

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

    def test_absolute_loss_with_greedy_inconsistent(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("y,x\n1.0,2.0\n")
        text = (
            "loss: absolute\n"
            "kernels: {r0: {kind: linear}}\n"
            f"data: {{path: {data}}}\n"
            "fit: {solver: greedy}\n"
        )
        with pytest.raises(ConfigError, match="inconsistent"):
            parse_config(text, command="fit")

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
        assert data.n == 3 and data.k == 2
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

    def test_standardization_equalizes_column_norms(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["y,a,b"]
        for _ in range(40):
            rows.append(f"{rng.normal()},{10 * rng.normal()},{0.1 * rng.normal() + 5}")
        f = tmp_path / "wide.csv"
        f.write_text("\n".join(rows) + "\n")
        data = ingest_csv(f, standardize=True)
        norms = np.linalg.norm(data.x, axis=0)
        assert np.allclose(norms, norms[0], rtol=1e-12)
        assert set(data.scalers) == {"a", "b"}

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
            ("[{kind: polynomial, degree: 6, coords: [0]}, "
             "{kind: polynomial, degree: 6, coords: [1]}]",
             "{solver: greedy, budget: 1.0, iterations: 20}", "series", (2, 6)),
            ("{kind: linear, coords: [0, 1]}", "{solver: greedy, budget: 1.0, iterations: 20}",
             "series", (1, 2)),
            ("[{kind: gaussian_rbf, coords: [0]}, {kind: gaussian_rbf, coords: [1]}]",
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

    @pytest.mark.parametrize("tol", ["0.0", "-1.0"])
    def test_nonpositive_line_search_tolerance_is_an_error(self, tmp_path, capsys, tol):
        data = tmp_path / "d.csv"
        _write_dataset(data)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"seed: 1\ndata: {{path: {data}}}\n"
            "kernels: {r0: {kind: linear, coords: [0, 1]}}\n"
            f"fit: {{solver: greedy, line_search_tol: {tol}, iterations: 5}}\n"
        )
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: line_search_tol must be finite and positive, got {tol}\n"

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
