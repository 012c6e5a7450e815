"""Batch driver for thermometry experiments.

Parses a JSON run configuration, runs one experiment's parameter sweep, writes
its table (CSV or JSON) and verification report (``validate.verification``), and
exits 1 if an identity check exceeded its tolerance. ``CONFIG_KEYS`` states once
each key an experiment reads: its parser, its default and its ``thermoq schema``
text. ``_read_config`` parses every key, or its default, before any runner starts;
a bad value, an unread key or an unusable output path is a usage error (exit 2)
naming the key. A config sets no check (``validate.CHECKS``) or cutoff rule
(``validate.CUTOFFS``). Sweep points run in configuration order, so the rows of a
config are deterministic. In process, ``main(args, standalone_mode=False)``
writes to the ``sys.stdout`` and ``sys.stderr`` current at each call, ``--help``
and ``--version`` included, and keeps no reference to them: under tracemalloc a
call keeps about 80 B (Python 3.11, click 8.4), not its whole printed output.
"""

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import click

from . import __version__
from . import closed_form as cf
from .engine import HeatEngine

# unused here, but perfbench/tracing.py patches these names on this module
from .mean_force import internal_energy_deviation, temperature_energy_ur_check  # noqa: F401
from .models import (
    BathMode,
    ModeProductModel,
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
    check_scaling,
    cross_validate,
    deph_point,
    he_point,
    identity_checks,
    relative_error,
    verification,
)

OUTPUT_DIR_ENV = "THERMOQ_OUTPUT_DIR"

SECTIONS = ("model", "sweep", "numerics", "output")


class ConfigError(click.UsageError):
    """The run configuration is missing or inconsistent: a usage error (exit 2)."""


def _config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# -- parsers: parse(name, value) returns the value a run uses, or raises a
# ConfigError naming ``name`` ("section.key")


def _is_number(value):
    """An int or float, not a bool: JSON true/false is no number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(name, value):
    if not (_is_number(value) and 0 < value < math.inf):
        raise ConfigError(f"{name} must lie in (0, inf), got {value!r}")
    return float(value)


def _nonnegative(name, value):
    if not (_is_number(value) and 0 <= value < math.inf):
        raise ConfigError(f"{name} must lie in [0, inf), got {value!r}")
    return float(value)


def _positive_or_optimal(name, value):
    """A positive time, or 'optimal' for the heat-exchange half-swap time."""
    return value if value == "optimal" else _positive(name, value)


def _at_least(minimum):
    def parse(name, value):
        if not (_is_number(value) and isinstance(value, int) and value >= minimum):
            raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
        return value
    return parse


def _optional(parse):
    """``parse``, or None for a null or absent value."""
    return lambda name, value: None if value is None else parse(name, value)


def _one_of(*choices):
    text = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"

    def parse(name, value):
        if value not in choices:
            raise ConfigError(f"{name} must be {text}, got {value!r}")
        return value
    return parse


def _flag(name, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _path(name, value):
    if not (value is None or isinstance(value, str) and value):
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _axis(parse):
    """A sweep axis: a non-empty list, each value parsed by ``parse``."""
    def parse_axis(name, values):
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{name} must be a non-empty list, got {values!r}")
        return [parse(name, value) for value in values]
    return parse_axis


def _fit_betas(name, values):
    """A scaling sweep: the 4 or more distinct points of a log-log fit."""
    betas = _axis(_positive)(name, values)
    if len(set(betas)) < 4:
        raise ConfigError(f"{name} must hold at least 4 distinct values, got {values!r}")
    return betas


def _modes(name, pairs):
    if not (isinstance(pairs, list) and pairs
            and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs)):
        raise ConfigError(f"{name} must be a non-empty [[omega, g], ...], got {pairs!r}")
    modes = []
    for k, (omega, g) in enumerate(pairs):
        if not (_is_number(g) and math.isfinite(g)):
            raise ConfigError(f"{name}[{k}] coupling g must be a finite number, got {g!r}")
        if math.isinf(float(g) * float(g)):
            raise ConfigError(f"{name}[{k}] coupling g = {g!r} squares past the float range")
        modes.append(BathMode(_positive(f"{name}[{k}] omega", omega), float(g)))
    return modes


def _coupled_modes(name, pairs):
    modes = _modes(name, pairs)
    if not any(m.g for m in modes):
        raise ConfigError(f"{name} couples no mode to the probe (every g is 0), "
                          "so the probe carries no temperature information")
    return modes


# -- the config keys: experiment -> {"section.key" (a top-level key bare):
# (parser, default, description)}; a run reads exactly the keys of its experiment

_OUTPUT = {
    "output.path": (_path, None, "non-empty string, the output file; null or absent: "
                                 f"<experiment>.<format>; ${OUTPUT_DIR_ENV} replaces its "
                                 "directory"),
    "output.format": (_one_of("csv", "json"), "csv", "'csv' | 'json'"),
}
_N_MAX = {"numerics.n_max": (_optional(_at_least(1)), None,
                             "int >= 1, the Fock cutoff of every mode; null or absent: the "
                             "automatic cutoffs of validate.CUTOFFS")}
_PER_OUTCOME = {"output.per_outcome": (_flag, False, "bool, one row per outcome")}
_SPECTRAL = {"model.alpha": (_positive, 1.0, "float > 0"),
             "model.s": (_nonnegative, 1.0, "float >= 0"),
             "model.omega_c": (_positive, 1.0, "float > 0")}
_FIT_BETAS = {"sweep.beta": (_fit_betas, None, "list of at least 4 distinct floats > 0")}
CONFIG_KEYS = {
    "heat-exchange": {
        "model.omega_0": (_positive, 1.0, "float > 0"),
        "model.delta": (_nonnegative, 0.0, "float >= 0, half detuning"),
        "model.g": (_positive, 0.1, "float > 0"),
        "sweep.beta": (_axis(_positive), [1.0], "list of floats > 0"),
        "sweep.t": (_axis(_positive_or_optimal), ["optimal"],
                    "list of floats > 0, or 'optimal' for the half-swap time"),
        "sweep.g": (_axis(_positive), None, "list of values of model.g (default [model.g])"),
        "sweep.delta": (_axis(_nonnegative), None,
                        "list of values of model.delta (default [model.delta])"),
        "sweep.omega_0": (_axis(_positive), None,
                          "list of values of model.omega_0 (default [model.omega_0])"),
        **_N_MAX, **_OUTPUT, **_PER_OUTCOME},
    "dephasing": {
        "model.modes": (_coupled_modes, None,
                        "[[omega, g], ...] with omega > 0, g^2 finite, some g != 0"),
        "sweep.beta": (_axis(_positive), [1.0], "list of floats > 0"),
        "sweep.t": (_axis(_positive), [math.pi], "list of floats > 0"),
        **_N_MAX, **_OUTPUT, **_PER_OUTCOME},
    "mean-force": {
        "model.omega_q": (_positive, 1.0, "float > 0"),
        "model.modes": (_modes, None, "[[omega, g], ...] with omega > 0, g^2 finite"),
        "model.coupling_axis": (_one_of("x", "z", "xz"), "xz", "'x' | 'z' | 'xz'"),
        "sweep.beta": (_axis(_positive), [1.0], "list of floats > 0"),
        **_N_MAX, **_OUTPUT},
    "scaling-he": {
        **_SPECTRAL,
        "model.delta_ratio": (_nonnegative, 0.1, "float >= 0"),
        "model.time_factor": (_positive, 0.3, "float > 0"),
        **_FIT_BETAS, **_OUTPUT},
    "scaling-deph": {
        **_SPECTRAL,
        "model.t": (_optional(_positive), None, "float > 0; null or absent: 1/(10 omega_c)"),
        "model.k_modes": (_at_least(1), 2000, "int >= 1"),
        "model.omega_max": (_optional(_positive), None, "float > 0; null or absent: 10 omega_c"),
        **_FIT_BETAS, **_OUTPUT},
    "cross-validate": {
        "seed": (_at_least(0), 0, "int >= 0, the RNG seed"),
        "draws": (_at_least(1), 5, "int >= 1, random instances per model family"),
        **_OUTPUT},
}
EXPERIMENTS = tuple(CONFIG_KEYS)


def _read_config(config):
    """The run of ``config``, in its shape: each key ``CONFIG_KEYS`` lists for its
    experiment, parsed from the config's value or else its default. The sweep holds the
    config's axes in config order, then the others: an absent axis named like a model
    key takes that key's value alone. A ``ConfigError`` names the unread keys, else
    the first bad value."""
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {config!r}")
    for section in SECTIONS:
        if not isinstance(config.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object, got {config[section]!r}")
    experiment = config.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {list(EXPERIMENTS)}, got {experiment!r}")
    keys = CONFIG_KEYS[experiment]
    given = {key: value for key, value in config.items() if key not in ("experiment", *SECTIONS)}
    given.update((f"{section}.{key}", value)
                 for section in SECTIONS for key, value in config.get(section, {}).items())
    unread = [key for key in given if key not in keys]
    if unread:
        raise ConfigError(f"{experiment} does not read {', '.join(unread)}")
    if len(config.get("sweep", {})) > 3:
        raise ConfigError("at most 3 sweep axes are supported")
    run = {"experiment": experiment, **{section: {} for section in SECTIONS}}
    for key in [*given, *(key for key in keys if key not in given)]:
        parse, default, _ = keys[key]
        section, _, name = key.rpartition(".")
        if key not in given and section == "sweep" and f"model.{name}" in keys:
            default = [run["model"][name]]
        (run[section] if section else run)[name] = parse(key, given.get(key, default))
    return run


def _sweep_points(run, omegas):
    """(point, cutoffs) of each point of the cartesian product of the run's sweep axes,
    in their order, each made before any point runs: per mode frequency in
    ``omegas(point)``, numerics.n_max if set, else ``auto_cutoff`` at the point's beta."""
    sweep, n_max = run["sweep"], run["numerics"]["n_max"]
    points = [dict(zip(sweep, combo)) for combo in itertools.product(*sweep.values())]
    return [(point, tuple(n_max or _auto_cutoff(run["experiment"], point["beta"], omega)
                          for omega in omegas(point))) for point in points]


def _auto_cutoff(family, beta, omega):
    """``auto_cutoff``; a ``ConfigError`` if it passes ``truncation_level``'s cap."""
    try:
        return auto_cutoff(family, beta, omega)
    except ValueError as exc:
        raise ConfigError(f"sweep.beta = {beta!r} at omega = {omega!r} needs an automatic "
                          f"cutoff past the cap; set numerics.n_max ({exc})") from None


def _fmt(value):
    return f"{value:.11e}" if isinstance(value, float) else str(value)


# -- experiment runners ----------------------------------------------------


class _Models(dict):
    """A sweep's models, one per key: ``load(key, build)`` returns
    ``prepare(*build())``, made on the first call for ``key``, where ``build()``
    returns the model, then what is built beside it. ``summary`` holds the
    sidecar's entries on them: the automatic cutoffs' thermal tail (None under
    numerics.n_max), two stage times summed over the sweep, and the sectors
    diagonalized of the sectors there are. ``model_build_s`` is the builds;
    ``spectrum_s`` is each model's ``prepare`` plus the sector eighs that ran
    after it, in the points' table builds or two-point calls, so it counts every
    eigh wherever it ran (``CompositeModel.eigh_s``)."""

    def __init__(self, config, prepare):
        super().__init__()
        self.prepare = prepare
        self.tail = (CUTOFFS[config["experiment"]][0]
                     if config["numerics"]["n_max"] is None else None)
        self.model_build_s = 0.0
        self.prepared = []  # (model, prepare seconds, eigh seconds when prepared)

    def load(self, key, build):
        if key not in self:
            start = time.perf_counter()
            built = build()
            mid = time.perf_counter()
            self[key] = self.prepare(*built)
            self.model_build_s += mid - start
            self.prepared.append((built[0], time.perf_counter() - mid,
                                  _sector_counts(built[0])[1]))
        return self[key]

    @property
    def summary(self):
        spectrum_s, diagonalized, total = 0.0, 0, 0
        for model, prepare_s, eigh_s in self.prepared:
            done, seconds, sectors = _sector_counts(model)
            spectrum_s += prepare_s + seconds - eigh_s
            diagonalized += done
            total += sectors
        return {"tail": self.tail, "model_build_s": self.model_build_s,
                "spectrum_s": spectrum_s, "sectors_diagonalized": diagonalized,
                "sectors_total": total}


def _sector_counts(model):
    """(sectors diagonalized, seconds their eighs took, sectors) of a model; a
    ``ModeProductModel`` has its mode eigenpairs from its build and no sectors."""
    if isinstance(model, ModeProductModel):
        return 0, 0.0, 0
    return model.sectors_diagonalized, model.eigh_s, len(model.sector_indices)


def _run_engine_points(config, points, check_ids, family_point):
    """The sweep of an engine experiment: one checked heat decomposition per point.

    ``family_point(point, cutoffs)`` returns (params, model key, builder of the
    model and its measurement, ``WorkingPoint``); params leads each row. One
    engine is made per model key; ``spectrum_s`` is its construction and the
    model's sector eighs, which the points' table builds run.
    """
    per_outcome = config["output"]["per_outcome"]
    checks = identity_checks(*check_ids)
    engines = _Models(config, lambda model, meas: (HeatEngine(model), meas))
    rows = []
    excluded = floor_excluded = 0.0
    for point, cutoffs in points:
        params, key, build, working_point = family_point(point, cutoffs)
        engine, meas = engines.load(key, build)
        record, fisher_fd, cf_dev, point_excluded = check_engine_point(
            checks, engine, meas, working_point, params)
        excluded = max(excluded, point_excluded)
        floor_excluded = max(floor_excluded, record.excluded_probability)

        agg = {**params, **working_point.columns, "h_avg": record.h_avg,
               "fisher_heat": record.fisher_heat, "fisher_fd": fisher_fd,
               "fisher_closed_form": working_point.fisher, "bound_rel": working_point.bound,
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


def _run_heat_exchange(config):
    points = _sweep_points(config, lambda p: [p["omega_0"]])

    def family_point(p, cutoff):
        omega_0, g, delta = p["omega_0"], p["g"], p["delta"]
        he = cf.HEParams(omega_0 + 2.0 * delta, omega_0, g, p["beta"], 0.0)
        he = dataclasses.replace(he, t=cf.he_optimal_time(he) if p["t"] == "optimal" else p["t"])

        n_max, = cutoff
        params = {"beta": he.beta, "t": he.t, "g": g, "delta": delta, "omega_0": omega_0,
                  "n_max": n_max}
        return (params, (omega_0, delta, g, n_max),
                lambda: (build_coupled_oscillators(he.omega_a, omega_0, g, n_max),
                         fock_measurement(n_max)),
                he_point(he, n_max))

    return _run_engine_points(config, points,
                              ("fisher", "closed_form", "avg_heat", "saturation"), family_point)


def _run_dephasing(config):
    modes = config["model"]["modes"]
    points = _sweep_points(config, lambda point: [m.omega for m in modes])
    meas = pauli_x_measurement()

    def family_point(point, key):
        beta, t = point["beta"], point["t"]
        params = {"beta": beta, "t": t, "cutoffs": max(key)}
        return (params, key, lambda: (build_dephasing_model(modes, key), meas),
                deph_point(cf.DephParams(tuple(modes), beta, t)))

    return _run_engine_points(config, points, ("fisher", "closed_form", "avg_heat",
                                               "saturation", "score", "two_point"), family_point)


def _run_mean_force(config):
    model = config["model"]
    omega_q, modes, axis = model["omega_q"], model["modes"], model["coupling_axis"]
    points = _sweep_points(config, lambda point: [m.omega for m in modes])

    checks = identity_checks("mean_force", "ur_product")
    # every sector's eigh, then the probe tables
    models = _Models(config, lambda model: (model.probe_tables, model)[1])
    rows = []
    floor_excluded = 0.0
    for point, key in points:
        model = models.load(key, lambda: (build_spin_boson_model(omega_q, modes, key,
                                                                 coupling_axis=axis),))
        beta = point["beta"]
        params = {"beta": beta, "omega_q": omega_q, "coupling_axis": axis, "n_max": max(key)}
        result, delta_u, product = check_mean_force_point(checks, model, beta, params)
        floor_excluded = max(floor_excluded, result.excluded_probability)
        rows.append({**params, "u_s": result.u_s, "z_star": result.z_star,
                     "delta_u": delta_u, "delta_u_sq": result.delta_u_sq,
                     "fisher": result.fisher, "ur_product": product,
                     "dual_residual": result.dual_residual})
    return rows, list(checks.values()), {
        "prob_floor_excluded_probability_max": floor_excluded, **models.summary}


def _run_scaling(config):
    """A scaling sweep's bounds and the one fit of their low-temperature exponent."""
    model, betas = config["model"], config["sweep"]["beta"]
    j = SpectralDensity(model["alpha"], model["s"], model["omega_c"])
    if config["experiment"] == "scaling-he":
        points = cf.he_scaling_points(j, betas, delta_ratio=model["delta_ratio"],
                                      time_factor=model["time_factor"])
        expected = (1.0 + j.s) / 2.0
    else:
        points = cf.deph_scaling_points(j, betas, t=model["t"], k_modes=model["k_modes"],
                                        omega_max=model["omega_max"])
        expected = 1.0 + j.s
    checks = identity_checks("scaling_slope")
    slope, intercept, r2 = check_scaling(checks, points, expected)
    return ([{"beta": b, "bound_rel": v} for b, v in points], list(checks.values()),
            {"slope": slope, "intercept": intercept, "r2": r2, "expected_slope": expected})


def _run_cross_validate(config):
    checks, summary = cross_validate(config["seed"], config["draws"])
    rows = [{"check": c.name, "max_deviation": c.max_deviation,
             "tolerance": c.tolerance, "passed": c.passed}
            for c in checks]
    return rows, checks, summary


RUNNERS = {
    "heat-exchange": _run_heat_exchange,
    "dephasing": _run_dephasing,
    "mean-force": _run_mean_force,
    "scaling-he": _run_scaling,
    "scaling-deph": _run_scaling,
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
    # encoded whole and written once: json.dump writes each encoder chunk separately
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, default=str) + "\n")


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
    run = _read_config(config)
    experiment, output = run["experiment"], run["output"]
    path = _output_path(output["path"] or f"{experiment}.{output['format']}", "output.path")
    rows, checks, summary = RUNNERS[experiment](run)

    meta = {"version": __version__, "config_hash": _config_hash(config),
            "experiment": experiment,
            "timestamp": datetime.now(timezone.utc).isoformat()}
    report = verification(checks, summary)
    if output["format"] == "csv":
        _write_csv(path, rows, meta)
    else:
        _write_json(path, {"meta": meta, "rows": rows, "verification": report})
    _write_json(path + ".verification.json", report)

    _echo(f"{experiment}: {len(rows)} rows -> {path}")
    for key, value in summary.items():
        _echo(f"  {key}: {value}")
    _report(checks)


def _cross_validate_option(key):
    """``--<key>``: the default, parser and text of the cross-validate config key."""
    parse, default, text = CONFIG_KEYS["cross-validate"][key]
    return click.option(f"--{key}", default=default, show_default=True, type=int, help=text,
                        callback=lambda ctx, param, value: parse(f"--{key}", value))


@main.command("cross-validate")
@_cross_validate_option("seed")
@_cross_validate_option("draws")
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
    """Print each experiment's config keys: the value each takes, and its default.
    A sweep holds at most 3 axes, swept as their cartesian product in config order."""
    stated = {experiment: {key: text if default is None else
                           f"{text} (default {json.dumps(default)})".replace('"', "'")
                           for key, (_, default, text) in keys.items()}
              for experiment, keys in CONFIG_KEYS.items()}
    _echo(json.dumps(stated, indent=2))


if __name__ == "__main__":
    main()
