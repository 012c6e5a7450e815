"""CLI contract: config parsing, outputs, exit codes, determinism."""

import ast
import contextlib
import csv
import dataclasses
import gc
import io
import itertools
import json
import math
import resource
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from thermoq import __version__, cli, engine, mean_force
from thermoq.cli import main
from thermoq.closed_form import HEParams, he_optimal_time, scaling_fit
from thermoq.engine import PROB_FLOOR, HeatEngine
from thermoq.linalg import truncation_level
from thermoq.mean_force import internal_energy_deviation
from thermoq.models import (
    BathMode,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    fock_measurement,
    pauli_x_measurement,
)
from thermoq.validate import CHECKS, CUTOFFS, TOL_CLOSED_FORM

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
        # one entry per experiment, listing the keys of its row of CONFIG_KEYS
        assert {experiment: list(keys) for experiment, keys in schema.items()} == {
            experiment: list(keys) for experiment, keys in cli.CONFIG_KEYS.items()}
        assert list(schema) == list(cli.EXPERIMENTS)
        # "(default ...)" is written from the default itself
        assert schema["heat-exchange"]["output.per_outcome"] == (
            "bool, one row per outcome (default false)")
        assert schema["dephasing"]["sweep.t"].endswith(f"(default [{math.pi!r}])")
        assert schema["cross-validate"]["draws"].endswith("(default 5)")
        assert "default" not in schema["scaling-he"]["sweep.beta"]

    def test_missing_config_file_is_usage_error(self):
        result = RUNNER.invoke(main, ["run", "/nonexistent/config.json"])
        assert result.exit_code == 2

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "bogus"})
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 2

    # a config that parses but is no JSON object is as unusable as one that does not parse
    @pytest.mark.parametrize("text", ["{not json", '[{"experiment": "dephasing"}]', "null"],
                             ids=["broken", "array", "null"])
    def test_invalid_json_is_usage_error(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        result = RUNNER.invoke(main, ["run", str(path)])
        assert result.exit_code == 2, result.output

    def test_unknown_sweep_axis_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, {
            "experiment": "heat-exchange",
            "sweep": {"bogus_axis": [1.0]},
            "output": {"path": str(tmp_path / "o.csv")},
        })
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 2

    @pytest.mark.parametrize("experiment, key, value", [
        ("heat-exchange", "n_max", 0),
        ("dephasing", "n_max", 0),
        ("heat-exchange", "n_max", 2.7),
        ("heat-exchange", "n_max", True),
        # a run config sets no check tolerance, finite-difference step,
        # probability floor or thermal tail: numerics holds n_max alone
        ("heat-exchange", "tail", 0),
        ("heat-exchange", "tail", 1.0),
        ("heat-exchange", "prob_floor", -1),
        ("mean-force", "tail", 1e-4),
        ("heat-exchange", "slope_tol", 0),
        ("heat-exchange", "slope_tol", True),
        ("heat-exchange", "fd_step", 1e-4),
        ("dephasing", "fd_step", None),
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
            if experiment in ("dephasing", "mean-force"):
                config["model"] = {"modes": [[1.0, 0.1]]}
        result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("experiment, key, value", [
        ("dephasing", "sweep.t", [0]),
        ("dephasing", "sweep.t", ["abc"]),
        ("dephasing", "sweep.t", [None]),
        ("dephasing", "sweep.t", ["optimal"]),
        ("heat-exchange", "model.delta", "x"),
        ("scaling-deph", "model.k_modes", "x"),
        ("scaling-deph", "model.k_modes", 0),
        ("scaling-deph", "model.t", 0),
        ("scaling-deph", "sweep.beta", [1.0, 2.0, 3.0, -4.0]),
        ("scaling-he", "model.s", -1),
        ("scaling-he", "model.time_factor", -1),
        ("scaling-he", "sweep.beta", [1.0, 2.0, 3.0, -4.0]),
        # a scaling fit needs 4 distinct betas, not 4 values
        ("scaling-he", "sweep.beta", [5, 5, 5, 5]),
        ("scaling-deph", "sweep.beta", [5.0, 10.0, 20.0, 20.0]),
        # JSON booleans are not numbers, though Python's bool is an int
        ("heat-exchange", "model.g", True),
        ("heat-exchange", "model.delta", False),
        ("dephasing", "sweep.beta", [True]),
        ("dephasing", "model.modes", [[True, 0.1]]),
        ("mean-force", "model.modes", [[1.5, False]]),
        # mode numbers are numbers, not strings that parse as one
        ("dephasing", "model.modes", [["1.5", 0.1]]),
        ("dephasing", "model.modes", [[1.5, "nan"]]),
        ("mean-force", "model.modes", [[1.5, float("nan")]]),
        ("dephasing", "model.modes", [[float("inf"), 0.1]]),
        ("dephasing", "model.modes", [[1.5, 0.1, 2.0]]),
        # a probe coupled to no mode carries no temperature information
        ("dephasing", "model.modes", [[1.5, 0.0]]),
        ("dephasing", "model.modes", [[1.5, 0.0], [2.0, -0.0]]),
        # each section is a JSON object, and each output key of its declared type
        ("heat-exchange", "model", [["g", 0.1]]),
        ("dephasing", "sweep", [["beta", [2.0]]]),
        ("heat-exchange", "numerics", [["n_max", 8]]),
        ("heat-exchange", "output", [["path", "o.csv"]]),
        ("mean-force", "model", None),
        ("heat-exchange", "output.path", True),
        ("heat-exchange", "output.path", 7),
        ("heat-exchange", "output.path", ""),
        ("dephasing", "output.per_outcome", "false"),
        ("heat-exchange", "output.per_outcome", 1),
        # a key the experiment never reads is rejected, not ignored
        ("heat-exchange", "model.omega_q", 1.0),
        ("scaling-deph", "sweep.t", [123.0]),
        ("scaling-he", "sweep.g", [0.1]),
        ("scaling-deph", "numerics.n_max", 3),
        ("scaling-he", "numerics.prob_floor", 0.5),
        ("scaling-deph", "numerics.slope_tol", 100),
        ("cross-validate", "model.omega_0", 1.0),
        ("cross-validate", "sweep.beta", [2.0]),
        ("cross-validate", "numerics.n_max", 3),
        # so is a top-level key or an output key the experiment never reads
        ("heat-exchange", "numeric", {"n_max": 3}),
        ("heat-exchange", "draws", 9),
        ("dephasing", "seed", 1),
        ("heat-exchange", "output.fromat", "json"),
        ("heat-exchange", "output.per_outcomes", True),
        ("mean-force", "output.per_outcome", True),
        ("scaling-he", "output.per_outcome", False),
        ("scaling-deph", "output.per_outcome", True),
        ("cross-validate", "output.per_outcome", True),
    ])
    def test_bad_model_or_sweep_value_is_usage_error(self, tmp_path, experiment, key, value,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)  # where a run without a usable output.path would write
        scaling = experiment.startswith("scaling")
        config = {"experiment": experiment, "output": {"path": str(tmp_path / "o.csv")}}
        if experiment != "cross-validate":
            config["sweep"] = {"beta": [1.0, 2.0, 3.0, 4.0] if scaling else [2.0]}
        if experiment in ("dephasing", "mean-force"):
            config["model"] = {"modes": [[1.0, 0.1]]}
        section, _, name = key.partition(".")
        if name:
            config.setdefault(section, {})[name] = value
        else:
            config[section] = value
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

    def test_negative_seed_is_usage_error(self):
        result = RUNNER.invoke(main, ["cross-validate", "--seed", "-1", "--draws", "1"])
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output


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


def test_heat_exchange_sweeps_the_model_keys(tmp_path):
    # one engine per (omega_0, delta, g, n_max): each row passes its own closed
    # forms only if no engine is reused across a swept model key
    sweep = {"g": [0.1, 0.2], "delta": [0.0, 0.15], "omega_0": [1.0, 1.3]}
    path = write_config(tmp_path, {
        "experiment": "heat-exchange", "sweep": sweep,
        "output": {"path": str(tmp_path / "out.json"), "format": "json"},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert sorted((r["g"], r["delta"], r["omega_0"]) for r in rows) == sorted(
        itertools.product(*sweep.values()))
    assert all(r["closed_form_dev"] <= TOL_CLOSED_FORM for r in rows)
    assert len({(r["t"], r["h_avg"], r["fisher_heat"]) for r in rows}) == len(rows)


def test_hot_cutoff_runs_uncapped(tmp_path):
    # beta = 0.4 needs n_max = 61 (d = 3844) for the 1e-10 tail, past the
    # 50 the automatic cutoff was once capped at
    path = write_config(tmp_path, {
        "experiment": "heat-exchange",
        "model": {"omega_0": 1.0, "delta": 0.0, "g": 0.1},
        "sweep": {"beta": [0.4]},
        "output": {"path": str(tmp_path / "out.json"), "format": "json"},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["rows"][0]["n_max"] == truncation_level(0.4, 1.0, 1e-10) + 4 == 61
    report = json.loads((tmp_path / "out.json.verification.json").read_text())
    assert report["passed"] is True
    assert "n_max_capped" not in report


def test_prob_floor_excluded_mass_is_reported(tmp_path):
    # a ground-state exchange probe read in the Fock basis: its top outcomes
    # fall below the probability floor (3 of 15 at beta = 2, 6 at beta = 3), and
    # the sidecar states the largest mass one point dropped from its heat
    # decomposition
    n_max, betas, t = 14, (2.0, 3.0), 10.0
    path = write_config(tmp_path, {
        "experiment": "heat-exchange",
        "model": {"omega_0": 1.0, "delta": 0.0, "g": 0.1},
        "sweep": {"beta": list(betas), "t": [t]},
        "numerics": {"n_max": n_max},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out.csv.verification.json").read_text())
    eng = HeatEngine(build_coupled_oscillators(1.0, 1.0, 0.1, n_max))
    ground = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    ground[0, 0] = 1.0
    records = [eng.heat_decomposition(ground, beta, t, fock_measurement(n_max))
               for beta in betas]
    assert all(len(r.outcomes) < n_max + 1 for r in records)
    expected = max(r.excluded_probability for r in records)
    assert 0 < expected < PROB_FLOOR * (n_max + 1)
    assert report["prob_floor_excluded_probability_max"] == pytest.approx(expected, rel=1e-9)
    assert "prob_floor_excluded_probability_max" in result.output


def test_mean_force_prob_floor_excluded_mass_is_reported(tmp_path, monkeypatch):
    # at beta = 2 the excited outcome of the energy-operator measurement has
    # P ~ 0.12, so a floor of 0.2, set in the engine module alone, drops it;
    # both the deviations (mean_force) and the Fisher information
    # (engine.log_scores) leave it out, so the UR product still saturates
    beta, floor = 2.0, 0.2
    monkeypatch.setattr(engine, "PROB_FLOOR", floor)
    modes = [[1.2, 0.1], [1.5, 0.1]]
    path = write_config(tmp_path, {
        "experiment": "mean-force",
        "model": {"omega_q": 1.0, "modes": modes, "coupling_axis": "xz"},
        "sweep": {"beta": [beta]},
        "numerics": {"n_max": 4},
        "output": {"path": str(tmp_path / "mf.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "mf.csv.verification.json").read_text())
    model = build_spin_boson_model(1.0, [BathMode(*m) for m in modes], 4, coupling_axis="xz")
    point = internal_energy_deviation(model, beta)
    assert len(point.delta_u) == 1
    assert 0.05 < point.excluded_probability < floor
    assert point.excluded_probability == pytest.approx(1.0 - point.delta_u[0][1], rel=1e-12)
    assert report["prob_floor_excluded_probability_max"] == pytest.approx(
        point.excluded_probability, rel=1e-12)
    assert "prob_floor_excluded_probability_max" in result.output


@pytest.mark.parametrize("experiment, model, routes", [
    ("heat-exchange", {"omega_0": 1.0, "g": 0.1}, ["branch-kernel"]),
    ("dephasing", {"modes": [[1.0, 0.1], [1.6, 0.15]]}, ["mode-product"]),
])
def test_sidecar_names_the_engine_routes(tmp_path, experiment, model, routes):
    path = write_config(tmp_path, {
        "experiment": experiment, "model": model, "sweep": {"beta": [2.0, 3.0]},
        "numerics": {"n_max": 14}, "output": {"path": str(tmp_path / "out.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out.csv.verification.json").read_text())
    assert report["engine_routes"] == routes
    assert f"engine_routes: {routes}" in result.output


@pytest.mark.parametrize("experiment, model, n_max, sectors", [
    ("heat-exchange", {"omega_0": 1.0, "g": 0.1}, 14, (15, 29)),
    ("heat-exchange", {"omega_0": 1.0, "g": 0.1}, 27, (28, 55)),
    ("dephasing", {"modes": [[1.0, 0.1], [1.6, 0.15]]}, 14, (0, 0)),
    ("mean-force", {"omega_q": 1.0, "modes": [[1.2, 0.1]], "coupling_axis": "xz"}, 14, (1, 1)),
], ids=["heat-exchange-14", "heat-exchange-27", "dephasing", "mean-force"])
def test_sidecar_states_the_model_build_time(tmp_path, monkeypatch, experiment, model, n_max,
                                             sectors):
    # the vacuum probe reaches the sectors N <= n_max of the exchange pair, and
    # their eighs run in the first table build; each eigh here takes at least
    # 2 ms, and spectrum_s counts every one of them
    real_eigh = np.linalg.eigh

    def slow_eigh(matrix, *args, **kwargs):
        time.sleep(0.002)
        return real_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", slow_eigh)
    path = write_config(tmp_path, {
        "experiment": experiment, "model": model, "sweep": {"beta": [2.0, 3.0]},
        "numerics": {"n_max": n_max}, "output": {"path": str(tmp_path / "out.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out.csv.verification.json").read_text())
    for stage in ("model_build_s", "spectrum_s"):
        assert report[stage] > 0
        assert f"{stage}: " in result.output
    assert (report["sectors_diagonalized"], report["sectors_total"]) == sectors
    assert f"sectors_diagonalized: {sectors[0]}\n  sectors_total: {sectors[1]}" in result.output
    assert report["spectrum_s"] >= 0.002 * sectors[0]


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in Linux's KiB")
def test_sidecar_and_cross_validate_report_state_the_peak_rss(tmp_path):
    # in process, each states the process's peak so far when it is written: at
    # least the peak before the call, at most the peak after it
    peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calls = {"out.csv.verification.json": ["run", tiny_he_config(tmp_path)],
             "cv.json": ["cross-validate", "--draws", "1", "--output", str(tmp_path / "cv.json")]}
    for name, args in calls.items():
        before = peak()
        result = RUNNER.invoke(main, args)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / name).read_text())
        assert before <= report["peak_rss_mb"] <= peak()


def test_every_unread_key_is_named_before_the_run(tmp_path, monkeypatch):
    # one usage error names every key, in every section, that a scaling run does
    # not read, and the run stops before its closed forms
    monkeypatch.setattr(cli.cf, "deph_scaling_points",
                        lambda *args, **kwargs: pytest.fail("the scaling run started"))
    path = write_config(tmp_path, {
        "experiment": "scaling-deph", "model": {"k_modes": 200, "bogus": 1},
        "sweep": {"beta": [5, 10, 20, 50], "t": [1.0]},
        "numerics": {"n_max": 3, "tail": 0.1}, "draws": 3,
        "output": {"path": str(tmp_path / "o.csv"), "per_outcome": True},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 2, result.output
    assert ("scaling-deph does not read draws, model.bogus, sweep.t, numerics.n_max, "
            "numerics.tail, output.per_outcome") in " ".join(result.output.split())
    assert not (tmp_path / "o.csv").exists()


# an out-of-range value of each key CONFIG_KEYS lists, and the name its error gives it
BAD_VALUES = {
    "experiment": ("bogus", "experiment"),
    "seed": (-1, "seed"), "draws": (0, "draws"),
    "model.omega_0": (0, "model.omega_0"), "model.delta": (-1, "model.delta"),
    "model.g": (0, "model.g"), "model.modes": ([], "model.modes"),
    "model.omega_q": (0, "model.omega_q"), "model.coupling_axis": ("y", "model.coupling_axis"),
    "model.alpha": (0, "model.alpha"), "model.s": (-1, "model.s"),
    "model.omega_c": (0, "model.omega_c"), "model.delta_ratio": (-1, "model.delta_ratio"),
    "model.time_factor": (0, "model.time_factor"), "model.t": (0, "model.t"),
    "model.k_modes": (0, "model.k_modes"), "model.omega_max": (0, "model.omega_max"),
    "sweep.beta": ([-1.0, 1.0, 2.0, 3.0], "sweep.beta"), "sweep.t": ([0], "sweep.t"),
    "sweep.g": ([0], "sweep.g"), "sweep.delta": ([-1], "sweep.delta"),
    "sweep.omega_0": ([0], "sweep.omega_0"),
    "numerics.n_max": (0, "numerics.n_max"),
    "output.path": ("", "output.path"), "output.format": ("cvs", "output.format"),
    "output.per_outcome": ("yes", "output.per_outcome"),
}


def _schema_keys():
    """Each (experiment, key) of CONFIG_KEYS, and each experiment's 'experiment'."""
    for experiment, keys in cli.CONFIG_KEYS.items():
        yield experiment, "experiment"
        yield from ((experiment, key) for key in keys)


@pytest.mark.parametrize("experiment, key", list(_schema_keys()))
def test_every_schema_key_is_read(tmp_path, experiment, key, monkeypatch):
    # the schema lists no key that a run accepts but never reads: an out-of-range
    # value of each is a usage error that names it
    monkeypatch.chdir(tmp_path)
    value, named = BAD_VALUES[key]
    config = {"experiment": experiment, "output": {"path": str(tmp_path / "o.csv")}}
    if experiment in ("dephasing", "mean-force"):
        config["model"] = {"modes": [[1.0, 0.1]]}
    section, _, name = key.partition(".")
    if name:
        config.setdefault(section, {})[name] = value
    else:
        config[section] = value
    result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
    assert result.exit_code == 2, result.output
    assert named in result.output
    assert not list(tmp_path.glob("*.csv"))


def _stated_defaults():
    """Each (experiment, section, key, default) of a model key or sweep axis that has
    a default in CONFIG_KEYS; a sweep axis's default is a list of one value, given
    here as that value."""
    for experiment, keys in cli.CONFIG_KEYS.items():
        for key, (_, default, _) in keys.items():
            section, _, name = key.partition(".")
            if section in ("model", "sweep") and default is not None:
                yield experiment, section, name, default[0] if section == "sweep" else default


def test_schema_states_every_default_a_run_applies():
    assert sorted(_stated_defaults(), key=str) == sorted([
        ("heat-exchange", "model", "omega_0", 1.0), ("heat-exchange", "model", "delta", 0.0),
        ("heat-exchange", "model", "g", 0.1), ("heat-exchange", "sweep", "beta", 1.0),
        ("heat-exchange", "sweep", "t", "optimal"),
        ("dephasing", "sweep", "beta", 1.0), ("dephasing", "sweep", "t", math.pi),
        ("mean-force", "model", "omega_q", 1.0), ("mean-force", "model", "coupling_axis", "xz"),
        ("mean-force", "sweep", "beta", 1.0),
        *(("scaling-he", "model", key, 1.0) for key in ("alpha", "s", "omega_c")),
        ("scaling-he", "model", "delta_ratio", 0.1), ("scaling-he", "model", "time_factor", 0.3),
        *(("scaling-deph", "model", key, 1.0) for key in ("alpha", "s", "omega_c")),
        ("scaling-deph", "model", "k_modes", 2000),
    ], key=str)


# the smallest config of each experiment, setting none of the keys with a default
MINIMAL = {
    "heat-exchange": {"numerics": {"n_max": 6}},
    "dephasing": {"model": {"modes": [[1.0, 0.1]]}, "numerics": {"n_max": 6}},
    "mean-force": {"model": {"modes": [[1.0, 0.1]]}, "numerics": {"n_max": 4}},
    "scaling-he": {"sweep": {"beta": [5.0, 10.0, 20.0, 50.0]}},
    "scaling-deph": {"model": {"k_modes": 200}, "sweep": {"beta": [5.0, 10.0, 20.0, 50.0]}},
}


@pytest.mark.parametrize("experiment, section, key, default", list(_stated_defaults()),
                         ids=lambda value: str(value))
def test_a_stated_default_is_the_value_a_run_applies(tmp_path, experiment, section, key,
                                                     default):
    # a run that omits the key and one that sets it to its stated default write
    # the same rows
    tables = []
    for name, value in (("omitted", None), ("set", default)):
        config = {"experiment": experiment, **MINIMAL[experiment],
                  "output": {"path": str(tmp_path / f"{name}.csv")}}
        entries = {k: v for k, v in config.get(section, {}).items() if k != key}
        if value is not None:
            entries[key] = value if section == "model" else [value]
        config[section] = entries
        result = RUNNER.invoke(main, ["run", write_config(tmp_path, config, f"{name}.json")])
        assert result.exit_code in (0, 1), result.output
        tables.append((tmp_path / f"{name}.csv").read_text().splitlines()[2:])
    assert tables[0] == tables[1]


@pytest.mark.parametrize("experiment, section, key, value, message", [
    ("heat-exchange", "sweep", "g", [0.1, 0], "sweep.g must lie in (0, inf), got 0"),
    ("heat-exchange", "sweep", "delta", [-1], "sweep.delta must lie in [0, inf), got -1"),
    ("heat-exchange", "sweep", "omega_0", [0], "sweep.omega_0 must lie in (0, inf), got 0"),
    ("heat-exchange", "model", "g", 0, "model.g must lie in (0, inf), got 0"),
    ("mean-force", "model", "coupling_axis", "y",
     "model.coupling_axis must be 'x', 'z' or 'xz', got 'y'"),
], ids=["sweep.g", "sweep.delta", "sweep.omega_0", "model.g", "model.coupling_axis"])
def test_a_bad_value_is_named_by_its_section(tmp_path, experiment, section, key, value,
                                             message):
    config = {"experiment": experiment, section: {key: value},
              "output": {"path": str(tmp_path / "o.csv")}}
    if experiment == "mean-force":
        config["model"]["modes"] = [[1.0, 0.1]]
    result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not list(tmp_path.glob("*.csv"))


# beta = 1e-7 needs about 2.3e8 levels for the automatic cutoff's thermal tail,
# past the cap of truncation_level
CAP = ("sweep.beta = 1e-07 at omega = 1.0 needs an automatic cutoff past the cap; "
       "set numerics.n_max")


@pytest.mark.parametrize("experiment, builder, model, sweep, message", [
    ("heat-exchange", "build_coupled_oscillators", {}, {"beta": [0.8, 1.0, -1.0]},
     "sweep.beta must lie in (0, inf)"),
    ("heat-exchange", "build_coupled_oscillators", {}, {"beta": [0.8], "t": [1.0, 0]},
     "sweep.t must lie in (0, inf)"),
    ("dephasing", "build_dephasing_model", {"modes": [[1.0, 0.1]]},
     {"beta": [1.0, 2.0], "t": [1.0, -1.0]}, "sweep.t must lie in (0, inf)"),
    ("mean-force", "build_spin_boson_model", {"modes": [[1.0, 0.1]]}, {"beta": [1.0, -1.0]},
     "sweep.beta must lie in (0, inf)"),
    ("heat-exchange", "build_coupled_oscillators", {}, {"beta": [1.0, 1e-7]}, CAP),
    ("dephasing", "build_dephasing_model", {"modes": [[1.0, 0.1]]}, {"beta": [1.0, 1e-7]}, CAP),
    ("mean-force", "build_spin_boson_model", {"modes": [[1.0, 0.1]]}, {"beta": [1.0, 1e-7]},
     CAP),
], ids=["heat-exchange-beta", "heat-exchange-t", "dephasing-t", "mean-force-beta",
        "heat-exchange-cutoff-cap", "dephasing-cutoff-cap", "mean-force-cutoff-cap"])
def test_every_sweep_value_is_checked_before_the_first_build(tmp_path, experiment, builder,
                                                             model, sweep, message, monkeypatch):
    builds = []
    build = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda *a, **kw: builds.append(a) or build(*a, **kw))
    config = {"experiment": experiment, "model": model, "sweep": sweep,
              "output": {"path": str(tmp_path / "o.csv")}}
    result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert builds == []
    assert not list(tmp_path.glob("*.csv"))


def test_optimal_time_stays_a_valid_sweep_value(tmp_path, monkeypatch):
    builds = []
    build = cli.build_coupled_oscillators
    monkeypatch.setattr(cli, "build_coupled_oscillators",
                        lambda *a: builds.append(a) or build(*a))
    path = write_config(tmp_path, {
        "experiment": "heat-exchange", "sweep": {"beta": [2.0, 3.0], "t": ["optimal", 4.0]},
        "numerics": {"n_max": 14}, "output": {"path": str(tmp_path / "o.csv")}})
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "o.csv").read_text().splitlines()[3:]
    assert len(rows) == 4 and len(builds) == 1
    t_optimal = he_optimal_time(HEParams(1.0, 1.0, 0.1, 2.0, 0.0))
    assert [float(r.split(",")[1]) for r in rows[:2]] == [pytest.approx(t_optimal), 4.0]


@pytest.mark.parametrize("config", ["scaling_he.json", "scaling_deph.json"])
def test_scaling_check_is_the_shared_definition(config, monkeypatch):
    # the scaling runners report the one check validate.check_scaling makes, at the
    # tolerance CHECKS defines
    calls = []
    real = cli.check_scaling
    monkeypatch.setattr(cli, "check_scaling", lambda *a: calls.append(a) or real(*a))
    stock = json.loads((Path(__file__).parents[1] / "configs" / config).read_text())
    if stock["experiment"] == "scaling-deph":
        stock["model"]["k_modes"] = 200  # the slope is not under test here
    rows, checks, summary = cli.RUNNERS[stock["experiment"]](cli._read_config(stock))
    assert len(calls) == 1
    points, expected = calls[0][1:]
    assert [(r["beta"], r["bound_rel"]) for r in rows] == points
    assert [(c.name, c.tolerance) for c in checks] == [CHECKS["scaling_slope"]]
    assert CHECKS["scaling_slope"][1] == 0.1
    slope, intercept, r2 = scaling_fit(points)
    assert (summary["slope"], summary["intercept"], summary["r2"]) == (slope, intercept, r2)
    assert summary["expected_slope"] == expected
    assert checks[0].max_deviation == abs(slope - expected)


@pytest.mark.parametrize("experiment", ["scaling-he", "scaling-deph"])
def test_scaling_rows_keep_the_config_order(experiment):
    # a scaling sweep writes its rows in the order its config lists the betas, and
    # each beta gets the bound it gets in an ascending sweep (scaling-he takes its
    # fixed time at the smallest beta wherever the config lists it)
    def points(betas):
        config = {"experiment": experiment, **MINIMAL[experiment]}
        config["sweep"] = {"beta": betas}
        rows, _, _ = cli.RUNNERS[experiment](cli._read_config(config))
        return [(r["beta"], r["bound_rel"]) for r in rows]

    unsorted = points([50.0, 5.0, 20.0, 10.0])
    assert [beta for beta, _ in unsorted] == [50.0, 5.0, 20.0, 10.0]
    assert sorted(unsorted) == points([5.0, 10.0, 20.0, 50.0])


def test_a_bound_that_is_not_finite_fails_the_scaling_check(tmp_path):
    # with 50 modes the dephasing bound overflows to inf from beta = 1e4 on: the
    # run fails scaling_slope there, with deviation inf, instead of fitting a NaN
    # slope, and writes its rows and sidecar
    path = write_config(tmp_path, {
        "experiment": "scaling-deph", "model": {"k_modes": 50},
        "sweep": {"beta": [100.0, 1e3, 1e4, 1e5]},
        "output": {"path": str(tmp_path / "s.csv")}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "s.csv.verification.json").read_text())
    [check] = report["checks"]
    assert (check["name"], check["passed"]) == (CHECKS["scaling_slope"][0], False)
    assert check["max_deviation"] == np.inf and check["worst_params"] == {"beta": 1e4}
    assert math.isnan(report["slope"])
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 3 + 4


# a mode with g = 0 among coupled ones is a valid, if idle, part of the sample
@pytest.mark.parametrize("modes", [[[1.0, 0.1], [1.6, 0.15]], [[1.0, 0.1], [1.6, 0.0]]],
                         ids=["coupled", "one-idle-mode"])
def test_dephasing_runs_every_route_at_every_point(tmp_path, modes):
    path = write_config(tmp_path, {
        "experiment": "dephasing", "model": {"modes": modes},
        "sweep": {"beta": [2.0, 3.0]}, "numerics": {"n_max": 14},
        "output": {"path": str(tmp_path / "out.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out.csv.verification.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    for check_id in ("score", "two_point"):
        name, tolerance = CHECKS[check_id]
        assert checks[name]["passed"] and checks[name]["tolerance"] == tolerance
        assert checks[name]["worst_params"]["beta"] in (2.0, 3.0)


class TestAutomaticCutoffs:
    """Each engine and mean-force run takes its automatic cutoffs from the one
    table ``validate.CUTOFFS``, computed once per mode per point, and its sidecar
    records their tail."""

    MODELS = {"heat-exchange": {"omega_0": 1.2, "g": 0.1},
              "dephasing": {"modes": [[1.2, 0.1]]},
              "mean-force": {"omega_q": 1.0, "modes": [[1.2, 0.1]], "coupling_axis": "x"}}
    CUTOFF_COLUMN = {"heat-exchange": "n_max", "dephasing": "cutoffs", "mean-force": "n_max"}

    def run(self, tmp_path, experiment, numerics):
        path = write_config(tmp_path, {
            "experiment": experiment, "model": self.MODELS[experiment],
            "sweep": {"beta": [2.0]}, "numerics": numerics,
            "output": {"path": str(tmp_path / "out.json"), "format": "json"},
        })
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "out.json").read_text())
        return payload["rows"][0][self.CUTOFF_COLUMN[experiment]], payload["verification"]

    def test_table_holds_each_family_s_tail_and_margin(self):
        assert CUTOFFS == {"heat-exchange": (1e-10, 4), "dephasing": (1e-10, 3),
                           "mean-force": (1e-8, 2)}

    @pytest.mark.parametrize("experiment", sorted(CUTOFFS))
    def test_automatic_cutoff_is_the_table_rule(self, tmp_path, experiment):
        tail, margin = CUTOFFS[experiment]
        cutoff, report = self.run(tmp_path, experiment, {})
        assert cutoff == truncation_level(2.0, 1.2, tail) + margin
        assert report["tail"] == tail == {"mean-force": 1e-8}.get(experiment, 1e-10)

    @pytest.mark.parametrize("experiment", sorted(CUTOFFS))
    def test_fixed_cutoff_uses_no_tail(self, tmp_path, experiment):
        cutoff, report = self.run(tmp_path, experiment, {"n_max": 16})
        assert (cutoff, report["tail"]) == (16, None)

    @pytest.mark.parametrize("experiment", sorted(CUTOFFS))
    def test_each_point_s_cutoffs_are_computed_once(self, tmp_path, experiment, monkeypatch):
        calls = []
        real = cli.auto_cutoff
        monkeypatch.setattr(cli, "auto_cutoff", lambda *a: calls.append(a) or real(*a))
        two_modes = {} if experiment == "heat-exchange" else {"modes": [[1.2, 0.1], [1.7, 0.1]]}
        path = write_config(tmp_path, {
            "experiment": experiment, "model": {**self.MODELS[experiment], **two_modes},
            "sweep": {"beta": [2.0, 3.0]}, "output": {"path": str(tmp_path / "out.csv")}})
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 0, result.output
        omegas = [omega for omega, _ in two_modes.get("modes", [[1.2, 0.1]])]
        assert calls == [(experiment, beta, omega) for beta in (2.0, 3.0) for omega in omegas]


class TestCrossValidateCommand:
    def test_single_draw_passes(self, tmp_path):
        out = tmp_path / "report.json"
        result = RUNNER.invoke(main, ["cross-validate", "--seed", "3",
                                      "--draws", "1", "--output", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert len(report["checks"]) == 8
        # `thermoq run` writes the same report for the same seed and draws
        path = write_config(tmp_path, {"experiment": "cross-validate", "seed": 3, "draws": 1,
                                       "output": {"path": str(tmp_path / "cv.json"),
                                                  "format": "json"}})
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 0, result.output
        sidecar = json.loads((tmp_path / "cv.json.verification.json").read_text())
        assert sidecar.pop("elapsed_seconds") > 0 and report.pop("elapsed_seconds") > 0
        # the run comes second: the process's peak so far can only have grown
        assert 0 < report.pop("peak_rss_mb") <= sidecar.pop("peak_rss_mb")
        assert sidecar == report
        assert report["engine_routes"] == {"heat-exchange": ["branch-kernel"],
                                           "dephasing": ["mode-product"]}
        assert 0 < report["closed_form_excluded_probability_max"] < 1e-4

    def test_default_seed_and_draws_are_the_config_defaults(self, tmp_path):
        # the options' defaults are the cross-validate config's: no options and an
        # empty config write one report
        result = RUNNER.invoke(main, ["cross-validate", "--output", str(tmp_path / "a.json")])
        assert result.exit_code == 0, result.output
        assert "seed=0 draws=5" in result.output
        path = write_config(tmp_path, {"experiment": "cross-validate",
                                       "output": {"path": str(tmp_path / "b.json"),
                                                  "format": "json"}})
        result = RUNNER.invoke(main, ["run", path])
        assert result.exit_code == 0, result.output
        option, config = (json.loads((tmp_path / name).read_text())
                          for name in ("a.json", "b.json.verification.json"))
        assert option.pop("elapsed_seconds") > 0 and config.pop("elapsed_seconds") > 0
        assert 0 < option.pop("peak_rss_mb") <= config.pop("peak_rss_mb")
        assert option == config

    def test_fixed_seed_is_deterministic(self):
        runs = [RUNNER.invoke(main, ["cross-validate", "--seed", "5", "--draws", "1"])
                for _ in range(2)]
        assert all(r.exit_code == 0 for r in runs)
        strip = lambda out: [l for l in out.splitlines() if "s)" not in l]
        assert strip(runs[0].output) == strip(runs[1].output)


def test_heat_exchange_compares_rare_outcomes(tmp_path, monkeypatch):
    # outcomes with 1e-6 <= P_l < 1e-4 are compared against the closed forms:
    # a wrong correlation heat on those outcomes alone fails the run
    real = cli.he_point
    rare = []

    def he_point(he, n_max):
        point = real(he, n_max)

        def heat_terms(label):
            h_tra, h_cor = point.heat_terms(label)
            if 1e-6 <= point.probability(label) < 1e-4:
                rare.append(label)
                h_cor += 1e-3
            return h_tra, h_cor

        return dataclasses.replace(point, heat_terms=heat_terms)

    monkeypatch.setattr(cli, "he_point", he_point)
    result = RUNNER.invoke(main, ["run", tiny_he_config(tmp_path)])
    assert rare
    assert result.exit_code == 1, result.output
    report = json.loads((tmp_path / "out.csv.verification.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["closed forms vs brute force"]
    assert report["closed_form_min_probability"] == 1e-6
    assert 0 < report["closed_form_excluded_probability_max"] < 1e-6 * 14


def test_mean_force_dual_mismatch_fails_the_run_and_writes_the_sidecar(tmp_path, monkeypatch):
    # the dual deviation is judged by the 'mean_force' check alone: an internal
    # energy off by 1e-3 at one beta fails the run there, and the sidecar says where
    real = mean_force.internal_energy
    monkeypatch.setattr(mean_force, "internal_energy",
                        lambda model, beta: real(model, beta) + (1e-3 if beta == 3.0 else 0.0))
    path = write_config(tmp_path, {
        "experiment": "mean-force",
        "model": {"omega_q": 1.0, "modes": [[0.9, 0.1], [1.4, 0.1]], "coupling_axis": "xz"},
        "sweep": {"beta": [2.0, 3.0]},
        "numerics": {"n_max": 4},
        "output": {"path": str(tmp_path / "mf.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 1, result.output
    assert (tmp_path / "mf.csv").exists()
    report = json.loads((tmp_path / "mf.csv.verification.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    dual = checks[CHECKS["mean_force"][0]]
    assert not dual["passed"] and dual["max_deviation"] > 1e-4
    assert dual["worst_params"]["beta"] == 3.0
    assert "[FAIL]" in result.output


@pytest.mark.parametrize("entry", ["run", "cross-validate"])
def test_output_in_a_missing_directory_fails_before_the_run(tmp_path, entry, monkeypatch):
    # a path no file can be written to is a usage error before the first point
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.RUNNERS, "heat-exchange",
                        lambda config: pytest.fail("the sweep ran"))
    monkeypatch.setattr(cli, "cross_validate", lambda *a: pytest.fail("a draw ran"))
    if entry == "run":
        path = write_config(tmp_path, {"experiment": "heat-exchange",
                                       "output": {"path": "nodir/o.csv"}})
        args, named = ["run", path], "output.path"
    else:
        args, named = ["cross-validate", "--output", "nodir/cv.json"], "--output"
    result = RUNNER.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert named in result.output and "nodir" in result.output


def test_an_existing_directory_output_path_fails_before_the_run(tmp_path, monkeypatch):
    # writing the table to a directory would fail only after the whole sweep
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    builds = []
    monkeypatch.setattr(cli, "build_coupled_oscillators", lambda *a: builds.append(a))
    path = write_config(tmp_path, {"experiment": "heat-exchange", "sweep": {"beta": [2.0]},
                                   "numerics": {"n_max": 8}, "output": {"path": "outdir"}})
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 2, result.output
    assert "output.path" in result.output and "is a directory" in result.output
    assert builds == [] and not list((tmp_path / "outdir").iterdir())


@pytest.mark.parametrize("config", sorted((Path(__file__).parents[1] / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_every_csv_row_is_as_wide_as_its_header(tmp_path, config):
    # each stock config written as CSV, a one-draw cross-validate among them,
    # whose check 'internal-energy deviation, dual computation' holds a comma
    config = json.loads(config.read_text())
    config["output"] = {**config["output"], "path": str(tmp_path / "o.csv"), "format": "csv"}
    if config["experiment"] == "cross-validate":
        config["draws"] = 1
    result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert lines[0].startswith("# thermoq ") and lines[1].startswith("# generated ")
    header, *rows = csv.reader(lines[2:])
    assert rows and all(len(row) == len(header) for row in rows)
    if config["experiment"] == "cross-validate":
        assert "internal-energy deviation, dual computation" in [row[0] for row in rows]


REVIVAL = {"experiment": "dephasing", "model": {"modes": [[1.0, 0.1]]},
           "sweep": {"beta": [1.0], "t": [2.0 * np.pi]}}


@pytest.mark.parametrize("key, value", [("prob_floor", 1e-10), ("tail", 1e-4)])
def test_revival_config_sets_no_floor_or_tail(tmp_path, key, value):
    # numerics.prob_floor = 1e-10 once dropped the revival's outcome -1 (P ~ 3e-12)
    # and turned its failing closed_form and two_point checks into passes: the
    # floor and the cutoff tail are the check layer's, not the config's
    config = {**REVIVAL, "numerics": {key: value}, "output": {"path": str(tmp_path / "r.csv")}}
    result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
    assert result.exit_code == 2, result.output
    assert f"numerics.{key}" in result.output
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("t, numerics, failed, label", [
    (REVIVAL["sweep"]["t"][0], {}, ("closed_form", "saturation", "two_point", "score"), None),
    (6.283180445996904, {"n_max": 28}, ("closed_form", "saturation", "two_point"), -1),
], ids=["revival", "floor-straddle"])
def test_dephasing_revival_fails_the_run_and_writes_the_sidecar(tmp_path, monkeypatch, t,
                                                                numerics, failed, label):
    # at t = 2 pi every mode revives: Gamma = C = 0, so the closed-form Fisher
    # information is its 0/0 limit 0, and the checks that need information fail
    # at that point instead of the run dying on a ZeroDivisionError; the rare
    # outcome -1 (P ~ 3e-12, a truncation artefact) fails two_point and score.
    # Just before the revival, at n_max = 28, outcome -1 has P ~ 1e-12 on both
    # routes, each with its own rounding: with the floor set strictly between the
    # tables' and the two-point route's P_-, one route keeps it where the other
    # drops it, so two_point fails there with deviation inf and names it as 'label'
    if label is not None:
        beta, meas = REVIVAL["sweep"]["beta"][0], pauli_x_measurement()
        rho0 = np.full((2, 2), 0.5, complex)  # the dephasing runner's |+><+|
        eng = HeatEngine(build_dephasing_model([BathMode(1.0, 0.1)], numerics["n_max"]))
        _, w, phi = eng._probe(rho0, beta, meas)
        at = meas.labels.index(label)
        lo, hi = sorted([eng._tables_for(rho0, beta, t, meas).probabilities([beta])[0][at],
                         eng._double_sum(eng, w, phi, beta, t, meas)[0][at]])
        floor = 0.5 * (lo + hi)
        assert lo < floor < hi and hi < 1e-11
        monkeypatch.setattr(engine, "PROB_FLOOR", floor)
    config = {**REVIVAL, "sweep": {"beta": [1.0], "t": [t]}, "numerics": numerics,
              "output": {"path": str(tmp_path / "rev.csv")}}
    result = RUNNER.invoke(main, ["run", write_config(tmp_path, config)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    report = json.loads((tmp_path / "rev.csv.verification.json").read_text())
    failed_checks = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert set(failed_checks) == {CHECKS[c][0] for c in failed}
    assert all(c["worst_params"]["t"] == t for c in failed_checks.values())
    two_point = failed_checks[CHECKS["two_point"][0]]
    assert two_point["worst_params"].get("label") == label
    if label is not None:
        assert two_point["max_deviation"] == np.inf


@pytest.mark.parametrize("n_max", [1, 2, 4, 8])
def test_truncated_revival_fails_closed_form_and_writes_the_sidecar(tmp_path, n_max):
    # a truncated sample does not revive at t = 2 pi: the engine keeps outcome -1
    # above CLOSED_FORM_MIN_PROB, where the closed form has P = 0 and no heats, so
    # closed_form fails with deviation inf instead of the run dying on
    # SuppressedOutcomeError
    t = REVIVAL["sweep"]["t"][0]
    path = write_config(tmp_path, {**REVIVAL, "model": {"modes": [[1.0, 0.3]]},
                                   "numerics": {"n_max": n_max},
                                   "output": {"path": str(tmp_path / "trunc.csv")}})
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    report = json.loads((tmp_path / "trunc.csv.verification.json").read_text())
    closed_form = next(c for c in report["checks"] if c["name"] == CHECKS["closed_form"][0])
    assert closed_form["max_deviation"] == np.inf
    assert closed_form["worst_params"]["t"] == t


@pytest.mark.parametrize("config, failed, beta", [
    ({"experiment": "dephasing", "model": {"modes": [[1.0, 5.0]]}, "sweep": {"beta": [1.0]}},
     ("closed_form", "saturation"), 1.0),
    ({"experiment": "scaling-deph", "model": {"alpha": 1e6}, "sweep": {"beta": [1, 2, 3, 4]}},
     ("scaling_slope",), 1.0),
    ({"experiment": "mean-force", "model": {"modes": [[1.0, 0.1]]},
      "sweep": {"beta": [1.0, 1e5]}}, ("mean_force", "ur_product"), 1e5),
    ({"experiment": "mean-force", "model": {"modes": [[1.0, 0.1]], "coupling_axis": "z"},
      "sweep": {"beta": [1.0, 800]}}, ("mean_force", "ur_product"), 800),
    ({"experiment": "scaling-he", "model": {"s": 500}, "sweep": {"beta": [5, 10, 20, 50]}},
     ("scaling_slope",), 5.0),
], ids=["dephasing-gamma", "scaling-deph-gamma", "mean-force-cold", "mean-force-z-cold",
        "scaling-he-no-coupling"])
def test_a_point_past_the_float_range_fails_the_run_and_writes_the_sidecar(tmp_path, config,
                                                                          failed, beta):
    # e^{2 Gamma} past Gamma = 354.9, Z / Z_B at beta = 1e5, and a coupling whose
    # integral of J underflows to 0 once ended the run in a traceback with no
    # output: each such point fails its checks in the report instead
    path = write_config(tmp_path, {**config, "output": {"path": str(tmp_path / "o.csv")}})
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    rows = (tmp_path / "o.csv").read_text().splitlines()[3:]
    assert len(rows) == len(config["sweep"]["beta"])
    report = json.loads((tmp_path / "o.csv.verification.json").read_text())
    failed_checks = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert {CHECKS[c][0] for c in failed} <= set(failed_checks)
    assert all(c["worst_params"]["beta"] == beta for c in failed_checks.values())
    assert any(c["max_deviation"] == np.inf for c in failed_checks.values())


def test_vanishing_energy_variance_fails_the_run_and_writes_the_sidecar(tmp_path):
    # at beta = 300 the probe sits in its ground state, so Delta U = 0 and there
    # is no UR product: that point fails 'ur_product' in the report, with NaN in
    # its row, instead of the run dying on a DegenerateVarianceError
    path = write_config(tmp_path, {
        "experiment": "mean-force", "model": {"modes": [[1.0, 0.1]]},
        "sweep": {"beta": [1.0, 300.0]}, "output": {"path": str(tmp_path / "cold.csv")},
    })
    result = RUNNER.invoke(main, ["run", path])
    assert result.exit_code == 1, result.output
    assert not isinstance(result.exception, mean_force.DegenerateVarianceError)
    report = json.loads((tmp_path / "cold.csv.verification.json").read_text())
    failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert list(failed) == [CHECKS["ur_product"][0]]
    ur = failed[CHECKS["ur_product"][0]]
    assert ur["max_deviation"] == np.inf and ur["worst_params"]["beta"] == 300.0
    header, _, cold = (line.split(",") for line in
                       (tmp_path / "cold.csv").read_text().splitlines()[2:])
    row = dict(zip(header, cold))
    assert float(row["beta"]) == 300.0
    assert row["delta_u"] == row["ur_product"] == "nan"


# -- in-process use: a call keeps nothing of the streams it wrote to --------


def _call_with_fresh_sinks(args):
    """Exit code, stdout and stderr text of one in-process ``main(args)`` call under
    fresh ``StringIO`` sinks, and a weak reference to each sink."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(args, prog_name="thermoq", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue(), weakref.ref(out), weakref.ref(err)


def _small_dephasing_args(tmp_path):
    return ["run", write_config(tmp_path, {
        "experiment": "dephasing", "model": {"modes": [[1.0, 0.1]]},
        "sweep": {"beta": [1.0], "t": [1.0]}, "output": {"path": str(tmp_path / "d.csv")},
    }, name="small_dephasing.json")]


def _cold_mean_force_args(tmp_path):
    return ["run", write_config(tmp_path, {
        "experiment": "mean-force", "model": {"modes": [[1.0, 0.1]]},
        "sweep": {"beta": [1.0, 300.0]}, "output": {"path": str(tmp_path / "cold.csv")},
    }, name="cold.json")]


@pytest.fixture(scope="module")
def warm_cli(tmp_path_factory):
    """One mean-force call before the tested ones, so that what a first call
    imports or caches is in place. A module that keeps the sys.stderr of its
    import for good would otherwise hold the first tested call's sink: the
    module-level logging.StreamHandler() of charset_normalizer did, when mean
    force imported scipy.sparse. No tested call imports a module on first use
    now; a call that keeps its own sink still fails the test."""
    _call_with_fresh_sinks(_cold_mean_force_args(tmp_path_factory.mktemp("warm")))


def _help_page(*commands):
    """The help page click formats for ``thermoq [commands] --help``, as printed."""
    ctx = main.make_context("thermoq", [], resilient_parsing=True)
    for name in commands:
        ctx = main.commands[name].make_context(name, [], parent=ctx, resilient_parsing=True)
    return ctx.get_help() + "\n"


HELP_AND_VERSION = {"help": ["--help"], "run-help": ["run", "--help"],
                    "cross-validate-help": ["cross-validate", "--help"],
                    "schema-help": ["schema", "--help"], "version": ["--version"]}


@pytest.mark.parametrize("command, code, in_stdout, stderr", [
    ("schema", 0, '"output.per_outcome"', ""),
    ("passing-run", 0, "verification passed", ""),
    ("failing-run", 1, "[FAIL]", "verification FAILED\n"),
    ("cross-validate", 0, "verification passed", ""),
    *[(command, 0, None, "") for command in HELP_AND_VERSION],
], ids=["schema", "passing-run", "failing-run", "cross-validate", *HELP_AND_VERSION])
def test_in_process_call_releases_its_streams(tmp_path, warm_cli, command, code, in_stdout,
                                              stderr):
    args = {"schema": ["schema"], "passing-run": _small_dephasing_args(tmp_path),
            "failing-run": _cold_mean_force_args(tmp_path),
            "cross-validate": ["cross-validate", "--draws", "1"],
            **HELP_AND_VERSION}[command]
    result, out, err, out_ref, err_ref = _call_with_fresh_sinks(args)
    assert (result, err) == (code, stderr), out + err
    if in_stdout is not None:
        assert in_stdout in out
    elif command == "version":
        assert out == f"thermoq, version {__version__}\n"
    else:  # the page alone, as click's own --help prints it
        assert out == _help_page(*args[:-1])
    gc.collect()
    assert out_ref() is None, "stdout sink kept alive after the call"
    assert err_ref() is None, "stderr sink kept alive after the call"


def test_every_message_goes_through_the_one_click_echo_call():
    # cli._echo names its stream: without file=, click caches a wrapper per
    # stream, and every redirected sink would stay alive with its text
    echoes = [node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "click.echo"]
    assert len(echoes) == 1 and "file" in [keyword.arg for keyword in echoes[0].keywords]


def test_in_process_calls_keep_no_memory(tmp_path):
    calls = [["schema"], _small_dephasing_args(tmp_path)]
    for args in calls * 2:  # warm-up: first-use imports and caches
        assert _call_with_fresh_sinks(args)[0] == 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(200):
            _call_with_fresh_sinks(calls[k % 2])
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / 200 < 256, f"{kept / 200:.0f} B kept per call"
