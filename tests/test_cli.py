"""CLI contract: config parsing, outputs, exit codes, determinism."""

import dataclasses
import json
import math

import pytest
from click.testing import CliRunner

from thermoq import cli
from thermoq.cli import main

RUNNER = CliRunner()


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def tiny_he_config(tmp_path, **output):
    return write_config(tmp_path, {
        "experiment": "heat-exchange",
        "model": {"omega_0": 1.0, "delta": 0.0, "g": 0.1},
        "sweep": {"beta": [2.0, 3.0], "t": ["optimal"]},
        "numerics": {"n_max": 14},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv", **output},
    })


class TestSchemaAndUsage:
    def test_schema_prints_json(self):
        result = RUNNER.invoke(main, ["schema"])
        assert result.exit_code == 0
        schema = json.loads(result.output)
        assert "experiment" in schema and "output" in schema

    def test_missing_config_file_is_usage_error(self):
        result = RUNNER.invoke(main, ["run", "/nonexistent/config.json"])
        assert result.exit_code == 2

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "bogus"})
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 2

    def test_invalid_json_is_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = RUNNER.invoke(main, ["run", str(path)])
        assert result.exit_code == 2

    def test_unknown_sweep_axis_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "heat-exchange",
            "sweep": {"bogus_axis": [1.0]},
            "output": {"path": str(tmp_path / "o.csv")},
        })
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 2

    @pytest.mark.parametrize("fd_step", [0, -1e-4, "1e-4", 0.5])
    def test_bad_fd_step_is_usage_error(self, tmp_path, fd_step):
        # 0.5 is positive but above beta/10 at beta = 1
        configs = [{
            "experiment": "mean-force",
            "model": {"omega_q": 1.0, "modes": [[0.8, 0.15], [1.3, 0.15]]},
            "sweep": {"beta": [1.0]},
            "numerics": {"n_max": 4, "fd_step": fd_step},
            "output": {"path": str(tmp_path / "mf.csv")},
        }, {
            "experiment": "heat-exchange",
            "sweep": {"beta": [1.0]},
            "numerics": {"n_max": 8, "fd_step": fd_step},
            "output": {"path": str(tmp_path / "he.csv")},
        }]
        for config in configs:
            result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
            assert result.exit_code == 2, result.output
            assert not (tmp_path / config["output"]["path"]).exists()
            if fd_step == 0.5:
                assert "beta = 1" in result.output

    @pytest.mark.parametrize("experiment, key, value", [
        ("heat-exchange", "n_max", 0),
        ("dephasing", "n_max", 0),
        ("heat-exchange", "n_max", 2.7),
        ("heat-exchange", "n_max", True),
        ("heat-exchange", "tail", 0),
        ("heat-exchange", "tail", 1.0),
        ("heat-exchange", "prob_floor", -1),
        ("heat-exchange", "slope_tol", 0),
        ("cross-validate", "draws", 0),
        ("cross-validate", "draws", 1.5),
        ("cross-validate", "seed", -1),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, experiment, key, value):
        config = {"experiment": experiment, "output": {"path": str(tmp_path / "o.csv")}}
        if experiment == "cross-validate":
            config[key] = value
        else:
            config["numerics"] = {key: value}
            config["sweep"] = {"beta": [2.0]}
            if experiment == "dephasing":
                config["model"] = {"modes": [[1.0, 0.1]]}
        result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert not (tmp_path / "o.csv").exists()

    def test_bad_output_format_fails_before_the_sweep(self, tmp_path, monkeypatch):
        def runner(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setitem(cli.RUNNERS, "heat-exchange", runner)
        path = write_config(tmp_path, {"experiment": "heat-exchange",
                                       "output": {"path": str(tmp_path / "o.csv"),
                                                  "format": "cvs"}})
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 2, result.output
        assert "output.format" in result.output

    def test_zero_draws_is_usage_error(self):
        result = RUNNER.invoke(main, ["cross-validate", "--draws", "0"])
        assert result.exit_code == 2


class TestRunOutputs:
    def test_heat_exchange_csv(self, tmp_path):
        result = RUNNER.invoke(main, ["run", tiny_he_config(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0].startswith("# thermoq ")
        assert "config" in lines[0]
        assert lines[1].startswith("# generated ")
        header = lines[2].split(",")
        assert {"beta", "fisher_heat", "fisher_fd", "bound_rel"} <= set(header)
        assert len(lines) == 3 + 2  # two sweep points
        # 12 significant digits in scientific notation
        first_float = lines[3].split(",")[0]
        mantissa = first_float.split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 12
        report = json.loads((tmp_path / "out.csv.verification.json").read_text())
        assert report["passed"] is True

    def test_per_outcome_rows(self, tmp_path):
        result = RUNNER.invoke(main, ["run", tiny_he_config(tmp_path, per_outcome=True)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert "P_l" in lines[2].split(",")
        assert len(lines) > 3 + 2

    def test_csv_deterministic_apart_from_timestamp(self, tmp_path):
        path = tiny_he_config(tmp_path)
        RUNNER.invoke(main, ["run", path])
        first = (tmp_path / "out.csv").read_text().splitlines()
        RUNNER.invoke(main, ["run", path])
        second = (tmp_path / "out.csv").read_text().splitlines()
        assert first[0] == second[0]
        assert first[2:] == second[2:]

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "dephasing",
            "model": {"modes": [[1.0, 0.1]]},
            "sweep": {"beta": [2.0], "t": [1.5]},
            "numerics": {"n_max": 12},
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        })
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["verification"]["passed"] is True
        assert payload["rows"][0]["beta"] == 2.0

    def test_mean_force_run(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "mean-force",
            "model": {"omega_q": 1.0, "modes": [[0.9, 0.1], [1.4, 0.1]],
                      "coupling_axis": "xz"},
            "sweep": {"beta": [1.0]},
            "numerics": {"n_max": 4},
            "output": {"path": str(tmp_path / "mf.csv")},
        })
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 0, result.output
        assert "verification passed" in result.output

    def test_output_dir_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        override.mkdir()
        monkeypatch.setenv("THERMOQ_OUTPUT_DIR", str(override))
        result = RUNNER.invoke(main, ["run", tiny_he_config(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (override / "out.csv").exists()


def test_capped_cutoff_is_listed_in_sidecar(tmp_path, monkeypatch):
    # beta = 2 needs n_max = 15 for the 1e-10 tail; beta = 6 needs 7
    monkeypatch.setattr(cli, "HE_AUTO_N_MAX", 10)
    path = write_config(tmp_path, {
        "experiment": "heat-exchange",
        "model": {"omega_0": 1.0, "delta": 0.0, "g": 0.1},
        "sweep": {"beta": [2.0, 6.0]},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out.csv.verification.json").read_text())
    assert report["n_max_capped"] == [
        {"beta": 2.0, "n_max": 10, "tail_weight": pytest.approx(math.exp(-2.0 * 11))}]


class TestCrossValidateCommand:
    def test_single_draw_passes(self, tmp_path):
        out = tmp_path / "report.json"
        result = RUNNER.invoke(main, ["cross-validate", "--seed", "3",
                                      "--draws", "1", "--output", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert len(report["checks"]) == 8
        # `thermoq run` states the same closed-form cutoff and excluded mass
        path = write_config(tmp_path, {"experiment": "cross-validate", "seed": 3, "draws": 1,
                                       "output": {"path": str(tmp_path / "cv.json"),
                                                  "format": "json"}})
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "cv.json.verification.json").read_text())
        for key in ("closed_form_min_probability", "closed_form_excluded_probability_max"):
            assert sidecar[key] == report[key]
        assert 0 < report["closed_form_excluded_probability_max"] < 1e-4

    def test_fixed_seed_is_deterministic(self):
        runs = [RUNNER.invoke(main, ["cross-validate", "--seed", "5", "--draws", "1"])
                for _ in range(2)]
        assert all(r.exit_code == 0 for r in runs)
        strip = lambda out: [l for l in out.splitlines() if "s)" not in l]
        assert strip(runs[0].output) == strip(runs[1].output)


def test_heat_exchange_compares_rare_outcomes(tmp_path, monkeypatch):
    # outcomes with 1e-6 <= P_l < 1e-4 are compared against the closed forms:
    # a wrong correlation heat on those outcomes alone fails the run
    real = cli.he_reference
    rare = []

    def reference(he):
        ref = real(he)

        def heat_terms(label):
            h_tra, h_cor = ref.heat_terms(label)
            if 1e-6 <= ref.probability(label) < 1e-4:
                rare.append(label)
                h_cor += 1e-3
            return h_tra, h_cor

        return dataclasses.replace(ref, heat_terms=heat_terms)

    monkeypatch.setattr(cli, "he_reference", reference)
    result = RUNNER.invoke(main, ["run", tiny_he_config(tmp_path)])
    assert rare
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "out.csv.verification.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["closed forms vs brute force"]
    assert report["closed_form_min_probability"] == 1e-6
    assert 0 < report["closed_form_excluded_probability_max"] < 1e-6 * 14
