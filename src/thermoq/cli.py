"""Batch driver for thermometry experiments.

Parses a JSON run configuration, executes a parameter sweep for one of the
experiment families, writes the results table (CSV or JSON) plus a
machine-readable verification report (``validate.verification``), and exits
nonzero if any identity check exceeded its tolerance. A configuration sets the
model, sweep, a fixed cutoff ``numerics.n_max`` and output, never a check:
checks are ``validate.CHECKS``, cutoff rules ``validate.CUTOFFS``.
``CONFIG_SCHEMA`` (with ``READ_BY``) lists the keys each experiment reads; one
usage error names every other key of a config, and an output path that is a
directory or lies in a missing one is one too, before any runner starts.
Runners only read and check values, each sweep value and each point's
automatic cutoffs before the first point runs, and name a bad one by the
section it came from. Sweep points are evaluated in configuration order, so
output rows are deterministic for a fixed config. In process,
``main(args, standalone_mode=False)`` writes to the ``sys.stdout`` and
``sys.stderr`` current at each call, ``--help`` and ``--version`` included,
and keeps no reference to them afterwards: under tracemalloc a call keeps
about 80 B (Python 3.11, click 8.4), not its whole printed output.
"""

import csv
import hashlib
import itertools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__
from . import closed_form as cf
from .engine import HeatEngine

# unused here, but perfbench/tracing.py patches these names on this module
from .mean_force import internal_energy_deviation, temperature_energy_ur_check  # noqa: F401
from .models import (
    BathMode,
    SpectralDensity,
    build_coupled_oscillators,
    build_dephasing_model,
    build_spin_boson_model,
    fock_measurement,
    pauli_x_measurement,
)
from .validate import (
    CLOSED_FORM_MIN_PROB,
    CUTOFFS,
    auto_cutoff,
    check_engine_point,
    check_mean_force_point,
    cross_validate,
    deph_reference,
    he_reference,
    identity_checks,
    relative_error,
    verification,
)

OUTPUT_DIR_ENV = "THERMOQ_OUTPUT_DIR"

EXPERIMENTS = (
    "heat-exchange",
    "dephasing",
    "mean-force",
    "scaling-he",
    "scaling-deph",
    "cross-validate",
)

CONFIG_SCHEMA = {
    "experiment": f"one of {list(EXPERIMENTS)}",
    "model": {
        "heat-exchange": {"omega_0": "float > 0 (default 1.0)",
                          "delta": "float >= 0, half detuning (default 0.0)",
                          "g": "float > 0 (default 0.1)"},
        "dephasing": {"modes": "[[omega, g], ...] with omega > 0, g finite, some g != 0"},
        "mean-force": {"omega_q": "float > 0 (default 1.0)",
                       "modes": "[[omega, g], ...] with omega > 0, g finite",
                       "coupling_axis": "'x' | 'z' | 'xz' (default 'xz')"},
        "scaling-he": {"alpha": "float > 0 (default 1.0)", "s": "float >= 0 (default 1.0)",
                       "omega_c": "float > 0 (default 1.0)",
                       "delta_ratio": "float >= 0 (default 0.1)",
                       "time_factor": "float > 0 (default 0.3)"},
        "scaling-deph": {"alpha": "float > 0 (default 1.0)", "s": "float >= 0 (default 1.0)",
                         "omega_c": "float > 0 (default 1.0)",
                         "t": "float > 0 or null for 1/(10 omega_c)",
                         "k_modes": "int >= 1 (default 2000)",
                         "omega_max": "float > 0 or null for 10 omega_c"},
    },
    "seed": "int >= 0 (default 0)",
    "draws": "int >= 1 (default 5)",
    "sweep": {
        "<axis>": "list of values; at most 3 axes; cartesian product in config order",
        "axes": {"heat-exchange": {"beta": "float > 0 (default 1.0)",
                                   "t": "float > 0, or 'optimal' for the half-swap time "
                                        "(default 'optimal')",
                                   "g": "as model.g", "delta": "as model.delta",
                                   "omega_0": "as model.omega_0"},
                 "dephasing": {"beta": "float > 0 (default 1.0)", "t": "float > 0 (default pi)"},
                 "mean-force": {"beta": "float > 0 (default 1.0)"},
                 "scaling-he": {"beta": "float > 0, at least 4 values"},
                 "scaling-deph": {"beta": "float > 0, at least 4 values"}},
    },
    "numerics": {
        "n_max": "int >= 1 or null: Fock cutoff of every mode; null or absent for the "
                 "automatic cutoffs of validate.CUTOFFS (no other numerics key exists)",
    },
    "output": {
        "path": "output file path (default <experiment>.<format>); directory overridable "
                f"via ${OUTPUT_DIR_ENV}",
        "format": "'csv' | 'json' (default csv)",
        "per_outcome": "bool, one row per outcome (default false)",
    },
}
# the experiments that read a top-level, numerics or output key only some of them
# read; each other such key of CONFIG_SCHEMA every experiment reads
READ_BY = {"seed": ["cross-validate"], "draws": ["cross-validate"],
           "numerics.n_max": ["heat-exchange", "dephasing", "mean-force"],
           "output.per_outcome": ["heat-exchange", "dephasing"]}


class ConfigError(Exception):
    """The run configuration is missing or inconsistent."""


def _config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _is_number(value):
    """An int or float, not a bool: JSON true/false is no number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(section, key, value):
    if not (_is_number(value) and 0 < value < math.inf):
        raise ConfigError(f"{section}.{key} must lie in (0, inf), got {value!r}")
    return float(value)


def _nonnegative(section, key, value):
    if not (_is_number(value) and 0 <= value < math.inf):
        raise ConfigError(f"{section}.{key} must lie in [0, inf), got {value!r}")
    return float(value)


def _positive_or_optimal(section, key, value):
    """A positive time, or 'optimal' for the heat-exchange half-swap time."""
    return value if value == "optimal" else _positive(section, key, value)


def _count(key, value, minimum):
    if not (_is_number(value) and isinstance(value, int) and value >= minimum):
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _unread_keys(config, experiment):
    """Each key of ``config`` that ``experiment`` does not read, per ``CONFIG_SCHEMA``
    and ``READ_BY``: a top-level key bare, a section's key as ``section.key``."""
    listed = {None: CONFIG_SCHEMA, "model": CONFIG_SCHEMA["model"].get(experiment, {}),
              "sweep": CONFIG_SCHEMA["sweep"]["axes"].get(experiment, []),
              "numerics": CONFIG_SCHEMA["numerics"], "output": CONFIG_SCHEMA["output"]}
    unread = []
    for section, keys in listed.items():
        prefix = f"{section}." if section else ""
        for key in config.get(section, {}) if section else config:
            if key not in keys or experiment not in READ_BY.get(prefix + key, [experiment]):
                unread.append(prefix + key)
    return unread


def _sweep_points(sweep, parse, cutoffs):
    """(point, cutoffs(point)) of each point of the cartesian product of sweep axes, in
    configuration order, each value checked and converted by ``parse[axis](section,
    axis, value)`` before any point is made, and each cutoff made before any point runs."""
    if len(sweep) > 3:
        raise ConfigError("at most 3 sweep axes are supported")
    for axis, values in sweep.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{axis} must be a non-empty list")
    parsed = [[parse[axis]("sweep", axis, v) for v in values] for axis, values in sweep.items()]
    points = [dict(zip(sweep, combo)) for combo in itertools.product(*parsed)]
    return [(point, cutoffs(point)) for point in points]


def _n_max(config):
    """The checked ``numerics.n_max`` (None: automatic cutoffs)."""
    n_max = config.get("numerics", {}).get("n_max")
    return None if n_max is None else _count("numerics.n_max", n_max, 1)


def _cutoffs(family, n_max, beta, omegas):
    """Each mode's Fock cutoff: ``n_max`` for every mode if set, else ``auto_cutoff``;
    a ``ConfigError`` if an automatic cutoff passes ``truncation_level``'s cap."""
    if n_max is not None:
        return (n_max,) * len(omegas)
    cutoffs = []
    for omega in omegas:
        try:
            cutoffs.append(auto_cutoff(family, beta, omega))
        except ValueError as exc:
            raise ConfigError(f"sweep.beta = {beta!r} at omega = {omega!r} needs an automatic "
                              f"cutoff past the cap; set numerics.n_max ({exc})") from None
    return tuple(cutoffs)


def _parse_modes(model, experiment):
    """Parse the required ``modes`` key of a model section."""
    if "modes" not in model:
        raise ConfigError(f"{experiment} model requires 'modes'")
    pairs = model["modes"]
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise ConfigError(f"model.modes must be [[omega, g], ...], got {pairs!r}")
    if not pairs:
        raise ConfigError("model.modes must not be empty")
    modes = []
    for k, (omega, g) in enumerate(pairs):
        if not (_is_number(g) and math.isfinite(g)):
            raise ConfigError(f"model.modes[{k}] coupling g must be a finite number, got {g!r}")
        modes.append(BathMode(_positive("model", f"modes[{k}] omega", omega), float(g)))
    return modes


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


# -- experiment runners ----------------------------------------------------


class _Models(dict):
    """A sweep's models, one per key: ``load(key, build)`` returns ``prepare(build())``,
    made on the first call for ``key``. ``summary`` holds the sidecar's entries on
    them: the automatic cutoffs' thermal tail (None under numerics.n_max) and the two
    stages' times, summed over the sweep (``model_build_s``, then ``spectrum_s``)."""

    def __init__(self, config, prepare):
        super().__init__()
        self.prepare = prepare
        self.summary = {"tail": CUTOFFS[config["experiment"]][0] if _n_max(config) is None
                        else None, "model_build_s": 0.0, "spectrum_s": 0.0}

    def load(self, key, build):
        if key not in self:
            start = time.perf_counter()
            built = build()
            mid = time.perf_counter()
            self[key] = self.prepare(built)
            self.summary["model_build_s"] += mid - start
            self.summary["spectrum_s"] += time.perf_counter() - mid
        return self[key]


def _run_engine_points(config, points, check_ids, family_point):
    """The sweep of an engine experiment: one checked heat decomposition per point.

    ``family_point(point, cutoffs)`` returns (params, model key, builder of the
    model and its measurement, rho0, t, closed-form reference); params holds beta
    and leads each row. One engine is made per model key; its construction is the
    model's eigendecomposition (``spectrum_s``).
    """
    per_outcome = config.get("output", {}).get("per_outcome", False)
    checks = identity_checks(*check_ids)
    engines = _Models(config, lambda built: (HeatEngine(built[0]), built[1]))
    rows = []
    excluded = floor_excluded = 0.0
    for point, cutoffs in points:
        params, key, build, rho0, t, reference = family_point(point, cutoffs)
        engine, meas = engines.load(key, build)
        record, fisher_fd, cf_dev, point_excluded = check_engine_point(
            checks, engine, rho0, params["beta"], t, meas, reference, params)
        excluded = max(excluded, point_excluded)
        floor_excluded = max(floor_excluded, record.excluded_probability)

        agg = {**params, **reference.columns, "h_avg": record.h_avg,
               "fisher_heat": record.fisher_heat, "fisher_fd": fisher_fd,
               "fisher_closed_form": reference.fisher, "bound_rel": reference.bound,
               "fisher_rel_dev": relative_error(fisher_fd, record.fisher_heat),
               "closed_form_dev": cf_dev}
        if per_outcome:
            for o in record.outcomes:
                rows.append({**agg, "l": o.label, "P_l": o.probability,
                             "H_tra": o.h_tra, "H_cor": o.h_cor, "score": o.score})
        else:
            rows.append(agg)
    summary = {"closed_form_min_probability": CLOSED_FORM_MIN_PROB,
               "closed_form_excluded_probability_max": excluded,
               "prob_floor_excluded_probability_max": floor_excluded,
               "engine_routes": sorted({engine.route for engine, _ in engines.values()}),
               **engines.summary}
    return rows, list(checks.values()), summary


HE_PARSE = {"omega_0": _positive, "delta": _nonnegative, "g": _positive, "beta": _positive,
            "t": _positive_or_optimal}


def _run_heat_exchange(config):
    fixed = _n_max(config)
    base = {"omega_0": 1.0, "delta": 0.0, "g": 0.1, "beta": 1.0, "t": "optimal",
            **{key: HE_PARSE[key]("model", key, value)
               for key, value in config.get("model", {}).items()}}

    def cutoffs(point):
        p = {**base, **point}
        return _cutoffs("heat-exchange", fixed, p["beta"], [p["omega_0"]])

    points = _sweep_points(config.get("sweep", {}), HE_PARSE, cutoffs)

    def family_point(point, cutoff):
        p = {**base, **point}
        omega_0, g, delta, beta = p["omega_0"], p["g"], p["delta"], p["beta"]
        he = cf.HEParams(omega_0 + 2.0 * delta, omega_0, g, beta, 0.0)
        t = cf.he_optimal_time(he) if p["t"] == "optimal" else p["t"]
        he = cf.HEParams(omega_0 + 2.0 * delta, omega_0, g, beta, t)

        n_max, = cutoff
        ground = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        ground[0, 0] = 1.0
        params = {"beta": beta, "t": t, "g": g, "delta": delta, "omega_0": omega_0,
                  "n_max": n_max}
        return (params, (omega_0, delta, g, n_max),
                lambda: (build_coupled_oscillators(omega_0 + 2.0 * delta, omega_0, g, n_max),
                         fock_measurement(n_max)),
                ground, t, he_reference(he))

    return _run_engine_points(config, points,
                              ("fisher", "closed_form", "avg_heat", "saturation"), family_point)


def _run_dephasing(config):
    fixed = _n_max(config)
    modes = _parse_modes(config.get("model", {}), "dephasing")
    if not any(m.g for m in modes):
        raise ConfigError("model.modes couples no mode to the probe (every g is 0), "
                          "so the probe carries no temperature information")

    def cutoffs(point):
        return _cutoffs("dephasing", fixed, point.get("beta", 1.0), [m.omega for m in modes])

    points = _sweep_points(config.get("sweep", {}), {"beta": _positive, "t": _positive},
                           cutoffs)
    plus = np.full((2, 2), 0.5, dtype=complex)
    meas = pauli_x_measurement()

    def family_point(point, key):
        beta, t = point.get("beta", 1.0), point.get("t", math.pi)
        params = {"beta": beta, "t": t, "cutoffs": max(key)}
        return (params, key, lambda: (build_dephasing_model(modes, key), meas),
                plus, t, deph_reference(cf.DephParams(tuple(modes), beta, t)))

    return _run_engine_points(config, points,
                              ("fisher", "closed_form", "avg_heat", "saturation", "score",
                               "two_point"),
                              family_point)


def _run_mean_force(config):
    model = config.get("model", {})
    fixed = _n_max(config)
    omega_q = _positive("model", "omega_q", model.get("omega_q", 1.0))
    modes = _parse_modes(model, "mean-force")
    axis = model.get("coupling_axis", "xz")
    if axis not in ("x", "z", "xz"):
        raise ConfigError(f"model.coupling_axis must be 'x', 'z' or 'xz', got {axis!r}")

    def cutoffs(point):
        return _cutoffs("mean-force", fixed, point.get("beta", 1.0), [m.omega for m in modes])

    points = _sweep_points(config.get("sweep", {}), {"beta": _positive}, cutoffs)

    checks = identity_checks("mean_force", "ur_product")
    models = _Models(config, lambda model: (model.probe_tables, model)[1])  # the spectrum, tables
    rows = []
    floor_excluded = 0.0
    for point, key in points:
        model = models.load(key, lambda: build_spin_boson_model(omega_q, modes, key,
                                                                coupling_axis=axis))
        beta = point.get("beta", 1.0)
        params = {"beta": beta, "omega_q": omega_q, "coupling_axis": axis, "n_max": max(key)}
        result, delta_u, product = check_mean_force_point(checks, model, beta, params)
        floor_excluded = max(floor_excluded, result.excluded_probability)
        rows.append({**params, "u_s": result.u_s, "z_star": result.z_star,
                     "delta_u": delta_u, "delta_u_sq": result.delta_u_sq,
                     "fisher": result.fisher, "ur_product": product,
                     "dual_residual": result.dual_residual})
    return rows, list(checks.values()), {
        "prob_floor_excluded_probability_max": floor_excluded, **models.summary}


def _spectral(model):
    alpha = _positive("model", "alpha", model.get("alpha", 1.0))
    s = _nonnegative("model", "s", model.get("s", 1.0))
    omega_c = _positive("model", "omega_c", model.get("omega_c", 1.0))
    return SpectralDensity(alpha, s, omega_c)


def _scaling_betas(config):
    betas = config.get("sweep", {}).get("beta")
    if not isinstance(betas, list) or len(betas) < 4:
        raise ConfigError(f"{config['experiment']} requires sweep.beta with at least 4 values")
    return [_positive("sweep", "beta", b) for b in betas]


def _scaling_rows(points, expected):
    slope, intercept, r2 = cf.scaling_fit(points)
    rows = [{"beta": b, "bound_rel": v} for b, v in points]
    check = identity_checks("scaling_slope")["scaling_slope"]
    check.update(abs(slope - expected), {"slope": slope, "expected": expected})
    summary = {"slope": slope, "intercept": intercept, "r2": r2,
               "expected_slope": expected}
    return rows, [check], summary


def _run_scaling_he(config):
    model = config.get("model", {})
    j = _spectral(model)
    delta_ratio = _nonnegative("model", "delta_ratio", model.get("delta_ratio", 0.1))
    time_factor = _positive("model", "time_factor", model.get("time_factor", 0.3))
    betas = _scaling_betas(config)
    points = cf.he_scaling_points(j, betas, delta_ratio=delta_ratio,
                                  time_factor=time_factor)
    return _scaling_rows(points, (1.0 + j.s) / 2.0)


def _run_scaling_deph(config):
    model = config.get("model", {})
    j = _spectral(model)
    t, omega_max = model.get("t"), model.get("omega_max")
    t = None if t is None else _positive("model", "t", t)
    omega_max = None if omega_max is None else _positive("model", "omega_max", omega_max)
    k_modes = _count("model.k_modes", model.get("k_modes", 2000), 1)
    betas = _scaling_betas(config)
    points = cf.deph_scaling_points(j, betas, t=t, k_modes=k_modes,
                                    omega_max=omega_max)
    return _scaling_rows(points, 1.0 + j.s)


def _run_cross_validate(config):
    seed = _count("seed", config.get("seed", 0), 0)
    draws = _count("draws", config.get("draws", 5), 1)
    checks, summary = cross_validate(seed, draws)
    rows = [{"check": c.name, "max_deviation": c.max_deviation,
             "tolerance": c.tolerance, "passed": c.passed}
            for c in checks]
    return rows, checks, summary


RUNNERS = {
    "heat-exchange": _run_heat_exchange,
    "dephasing": _run_dephasing,
    "mean-force": _run_mean_force,
    "scaling-he": _run_scaling_he,
    "scaling-deph": _run_scaling_deph,
    "cross-validate": _run_cross_validate,
}


# -- output ----------------------------------------------------------------


def _output_path(path, name):
    """``path``, moved into $THERMOQ_OUTPUT_DIR when that is set; a usage error
    naming ``name`` if it is a directory or its directory does not exist."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    path = os.path.join(override, os.path.basename(path)) if override else path
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise click.UsageError(f"{name}: directory {directory!r} of {path!r} does not exist")
    if os.path.isdir(path):
        raise click.UsageError(f"{name}: {path!r} is a directory")
    return path


def _write_csv(path, rows, meta):
    """Two '#' lines, then the rows under the union of their keys, quoted by ``csv``."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w") as fh:
        fh.write(f"# thermoq {meta['version']} config {meta['config_hash']}\n"
                 f"# generated {meta['timestamp']}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_fmt(row.get(f, "")) for f in fields] for row in rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def _echo(text, err=False):
    """Write ``text`` and a newline to the ``sys.stdout`` (``err``: ``sys.stderr``) current now.

    The stream is passed to click explicitly: without one, click caches a wrapper
    per stream in a WeakKeyDictionary, and for a text ``StringIO`` that wrapper is
    the stream itself, so every redirected sink would stay alive with its text.
    """
    click.echo(text, file=sys.stderr if err else sys.stdout)


def _report(checks):
    """Print each check; exit 1 unless all passed."""
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        _echo(f"  [{status}] {c.name}: max deviation {c.max_deviation:.3e} "
              f"(tol {c.tolerance:g})")
        if not c.passed and c.worst_params:
            _echo(f"         worst at {c.worst_params}")
    if not all(c.passed for c in checks):
        _echo("verification FAILED", err=True)
        sys.exit(1)
    _echo("verification passed")


# -- commands --------------------------------------------------------------


def _print_and_exit(text):
    """The callback of an eager flag that prints ``text(ctx)`` through ``_echo`` and
    exits: click's own ``--help`` and ``--version`` print without naming a stream."""
    def callback(ctx, param, value):
        if value and not ctx.resilient_parsing:
            _echo(text(ctx))
            ctx.exit()
    return callback


class _Command(click.Command):
    """A command whose ``--help`` prints through ``_echo``."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _print_and_exit(lambda ctx: ctx.get_help())
        return option


class _Group(click.Group, _Command):
    command_class = _Command


@click.group(cls=_Group)
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              callback=_print_and_exit(lambda ctx: f"thermoq, version {__version__}"),
              help="Show the version and exit.")
def main():
    """Heat-fluctuation analysis of probe-based thermometry."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def run_cmd(config_path):
    """Execute the experiment described by a JSON config file."""
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise click.UsageError(f"config must be a JSON object, got {config!r}")
    for section in ("model", "sweep", "numerics", "output"):
        if not isinstance(config.get(section, {}), dict):
            raise click.UsageError(f"{section} must be a JSON object, got {config[section]!r}")
    experiment, output = config.get("experiment"), config.get("output", {})
    if experiment not in EXPERIMENTS:
        raise click.UsageError(
            f"experiment must be one of {list(EXPERIMENTS)}, got {experiment!r}")
    unread = _unread_keys(config, experiment)
    if unread:
        raise click.UsageError(f"{experiment} does not read {', '.join(unread)}")
    fmt = output.get("format", "csv")
    path = output.get("path", f"{experiment}.{fmt}")
    try:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
        if not (isinstance(path, str) and path):
            raise ConfigError(f"output.path must be a non-empty string, got {path!r}")
        path = _output_path(path, "output.path")
        if not isinstance(output.get("per_outcome", False), bool):
            raise ConfigError(
                f"output.per_outcome must be true or false, got {output['per_outcome']!r}")
        rows, checks, summary = RUNNERS[experiment](config)
    except ConfigError as exc:
        raise click.UsageError(str(exc))

    meta = {"version": __version__, "config_hash": _config_hash(config),
            "experiment": experiment,
            "timestamp": datetime.now(timezone.utc).isoformat()}
    report = verification(checks, summary)
    if fmt == "csv":
        _write_csv(path, rows, meta)
    else:
        _write_json(path, {"meta": meta, "rows": rows, "verification": report})
    _write_json(path + ".verification.json", report)

    _echo(f"{experiment}: {len(rows)} rows -> {path}")
    for key, value in summary.items():
        _echo(f"  {key}: {value}")
    _report(checks)


@main.command("cross-validate")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0),
              help="RNG seed (>= 0).")
@click.option("--draws", default=5, show_default=True, type=click.IntRange(min=1),
              help="Random instances per model family.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Optional JSON report path.")
def cross_validate_cmd(seed, draws, output):
    """Check every identity on random instances of each model family."""
    if output:
        output = _output_path(output, "--output")
    checks, summary = cross_validate(seed, draws)
    _echo(f"cross-validate seed={seed} draws={draws} "
          f"({summary['elapsed_seconds']:.1f}s)")
    if output:
        _write_json(output, verification(checks, summary))
        _echo(f"report -> {output}")
    _report(checks)


@main.command("schema")
def schema_cmd():
    """Print the JSON run-configuration schema; "read_by" names the experiments that
    read a key only some of them read."""
    _echo(json.dumps({**CONFIG_SCHEMA, "read_by": READ_BY}, indent=2))


if __name__ == "__main__":
    main()
