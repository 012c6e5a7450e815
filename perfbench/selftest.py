"""The benchmark's own tests; kept out of the default test run.

    python3 -m pytest -q perfbench/selftest.py

The smoke tests run every workload at the tiny size for about a second.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import generate  # noqa: E402
import run  # noqa: E402
from thermoq import validate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# every metric NOTES.md specifies, end to end and per layer
REQUIRED_END_TO_END = {"setup_s", "points_per_s", "peak_rss_mb"}
REQUIRED_PER_LAYER = {
    "models.build_s", "models.measurement_s", "linalg.total_dim", "linalg.tail_weight_max",
    "engine.init_s", "engine.heat_decomposition_s", "engine.fisher_fd_s",
    "engine.heat_decomposition_peak_mb", "engine.score_direct_s", "engine.two_point_s",
    "engine.outcome_yield", "engine.outcomes_evaluated",
    "mean_force.reduced_gibbs_s", "mean_force.energy_operator_s",
    "mean_force.internal_energy_s", "mean_force.deviation_s", "mean_force.ur_check_s",
    "mean_force.deviation_peak_mb", "closed_form.reference_s", "validate.draw_s",
    "validate.headroom_min", "cli.run_s", "cli.overhead_s", "trace.overhead_s",
}
# layers each workload must exercise (nonzero per-layer value)
RUNS_ON = {
    "exchange-fock": ("engine.init_s", "engine.heat_decomposition_s", "engine.fisher_fd_s",
                      "engine.heat_decomposition_peak_mb", "closed_form.reference_s"),
    "dephasing-modes": ("engine.init_s", "engine.heat_decomposition_s",
                        "engine.fisher_fd_s", "closed_form.reference_s"),
    "mean-force-xz": ("mean_force.reduced_gibbs_s", "mean_force.energy_operator_s",
                      "mean_force.internal_energy_s", "mean_force.deviation_s",
                      "mean_force.ur_check_s", "mean_force.deviation_peak_mb"),
    "cross-validate": ("engine.init_s", "engine.score_direct_s", "engine.two_point_s",
                       "mean_force.deviation_s", "validate.draw_s"),
}
COMMON = ("models.build_s", "linalg.total_dim", "linalg.tail_weight_max",
          "validate.headroom_min", "cli.run_s")


def test_benchmark_json_names_every_required_metric():
    assert {m["name"] for m in SPEC["end_to_end"]} >= REQUIRED_END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == REQUIRED_PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(generate.WORKLOADS)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic(workload):
    count = 3
    first = generate.generate(workload, 5, count=count)
    assert first == generate.generate(workload, 5, count=count)
    assert first != generate.generate(workload, 6, count=count)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_size_and_outcomes_do_not_depend_on_seed(workload):
    # run workloads are cheap to draw, so cover many seeds: a draw whose
    # automatic cutoff outgrows the fixed one raises CutoffError here
    seeds, count = (range(4), 3) if workload == "cross-validate" else (range(200), 12)
    shapes = {(json.dumps(item["dim"]), item["outcomes"], item["points"])
              for seed in seeds for item in generate.generate(workload, seed, count=count)}
    assert len(shapes) == 1
    if workload != "cross-validate":
        n_max = generate.SIZES["full"][workload][0]
        assert all(item["config"]["numerics"]["n_max"] == n_max
                   for item in generate.generate(workload, 0))


def test_predicted_draw_matches_cross_validate():
    item = generate.generate("cross-validate", 3, size="tiny", count=1)[0]
    predicted = generate.predict_draw(item["config"]["seed"])
    rng = validate.np.random.default_rng(item["config"]["seed"])
    drawn = [validate.draw_he_instance(rng), validate.draw_deph_instance(rng),
             validate.draw_mean_force_instance(rng)]
    for (params, dim), (real_params, model) in zip(predicted, drawn):
        assert params == real_params
        assert dim == model.space.total_dim
    assert tuple(item["dim"]) == tuple(d for _, d in predicted)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    items = generate.generate(workload, 0, size="tiny", count=2)
    out = run.benchmark(workload, 0, 1, trace, items=items)
    assert out["correct"], out["problems"]
    assert out["attempted"] >= 1 and out["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(out["metrics"]) == {m["name"] for m in SPEC[kind]}
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], float | int), name
    if trace:
        for name in RUNS_ON[workload] + COMMON:
            assert out["metrics"][name]["value"] > 0, name
        if workload in ("exchange-fock", "dephasing-modes"):
            # a count per call, not a total that grows with the calls made
            assert out["metrics"]["engine.outcomes_evaluated"]["value"] == items[0]["outcomes"]
    else:
        assert all(out["metrics"][name]["value"] > 0 for name in out["metrics"])


def test_failed_verification_exits_nonzero(monkeypatch, capsys):
    # full-size working points on a Fock cutoff of 3: the closed forms disagree
    items = generate.generate("exchange-fock", 0, count=1)
    items[0]["config"]["numerics"]["n_max"] = 3
    monkeypatch.setattr(generate, "generate", lambda *args, **kwargs: items)
    code = run.main(["--workload", "exchange-fock", "--seed", "0", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "exchange-fock", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
