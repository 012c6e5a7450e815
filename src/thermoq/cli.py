"""Batch driver for thermometry experiments.

Parses a JSON run configuration, executes a parameter sweep for one of the
experiment families, writes the results table (CSV or JSON) plus a
machine-readable verification report, and exits nonzero if any identity
check exceeded its tolerance. Sweep points are evaluated in configuration
order, so output rows are deterministic for a fixed config.
"""

import hashlib
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__
from . import closed_form as cf
from .engine import HeatEngine
from .linalg import truncation_level

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
    IdentityCheck,
    check_engine_point,
    check_mean_force_point,
    cross_validate,
    deph_reference,
    he_reference,
    identity_checks,
    relative_error,
)

OUTPUT_DIR_ENV = "THERMOQ_OUTPUT_DIR"

# Largest automatic heat-exchange Fock cutoff: beyond it the dense eigh of the
# (n_max+1)^2-dimensional real Hamiltonian dominates the run time (2.2 s at
# n_max = 46 on one thread). Points it lowers are listed in the sidecar.
HE_AUTO_N_MAX = 50

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
        "heat-exchange": {"omega_0": "float > 0", "delta": "float >= 0 (half detuning)",
                          "g": "float > 0"},
        "dephasing": {"modes": "[[omega, g], ...] with omega > 0"},
        "mean-force": {"omega_q": "float > 0", "modes": "[[omega, g], ...]",
                       "coupling_axis": "'x' | 'z' | 'xz' (default 'xz')"},
        "scaling-he": {"alpha": "float > 0", "s": "float >= 0", "omega_c": "float > 0",
                       "delta_ratio": "float >= 0 (default 0.1)",
                       "time_factor": "float > 0 (default 0.3)"},
        "scaling-deph": {"alpha": "float > 0", "s": "float >= 0", "omega_c": "float > 0",
                         "t": "float > 0 or null for 1/(10 omega_c)",
                         "k_modes": "int (default 2000)",
                         "omega_max": "float or null for 10 omega_c"},
    },
    "seed": "cross-validate only: int >= 0 (default 0)",
    "draws": "cross-validate only: int >= 1 (default 5)",
    "sweep": {
        "<axis>": "list of values; at most 3 axes; cartesian product in config order",
        "axes": {"heat-exchange": ["beta", "t", "g", "delta", "omega_0"],
                 "dephasing": ["beta", "t"],
                 "mean-force": ["beta"],
                 "scaling-he": ["beta (>= 4 values)"],
                 "scaling-deph": ["beta (>= 4 values)"]},
        "note": "heat-exchange accepts t = 'optimal' for the half-swap time",
    },
    "numerics": {
        "n_max": "int >= 1 or null: Fock cutoff override (per mode for dephasing)",
        "tail": "float in (0, 1): thermal tail bound for automatic cutoffs (default 1e-10)",
        "fd_step": "float > 0 or null: beta step of the finite-difference Fisher "
                   "routes (default 1e-4 * beta, at most beta / 10)",
        "prob_floor": "float in (0, 1): outcomes below it are excluded (default 1e-12)",
        "slope_tol": "float > 0: scaling-slope tolerance (default 0.1)",
    },
    "output": {
        "path": "output file path (default <experiment>.csv); directory overridable "
                f"via ${OUTPUT_DIR_ENV}",
        "format": "'csv' | 'json' (default csv)",
        "per_outcome": "bool: one row per measurement outcome (default false)",
    },
}


class ConfigError(Exception):
    """The run configuration is missing or inconsistent."""


def _config_hash(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _positive(section, key, value, below=math.inf):
    if not (isinstance(value, (int, float)) and 0 < value < below):
        raise ConfigError(f"{section}.{key} must lie in (0, {below:g}), got {value!r}")
    return float(value)


def _count(key, value, minimum):
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _sweep_points(sweep, allowed):
    """Cartesian product of sweep axes, in configuration order."""
    if len(sweep) > 3:
        raise ConfigError("at most 3 sweep axes are supported")
    for axis, values in sweep.items():
        if axis not in allowed:
            raise ConfigError(f"unknown sweep axis {axis!r}; allowed: {sorted(allowed)}")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{axis} must be a non-empty list")
    axes = list(sweep)
    if not axes:
        return [{}]
    return [dict(zip(axes, combo)) for combo in itertools.product(*(sweep[a] for a in axes))]


def _numerics(config):
    n = dict(config.get("numerics", {}))
    n_max, fd_step = n.pop("n_max", None), n.pop("fd_step", None)
    out = {
        "n_max": None if n_max is None else _count("numerics.n_max", n_max, 1),
        "tail": _positive("numerics", "tail", n.pop("tail", 1e-10), below=1),
        "fd_step": None if fd_step is None else _positive("numerics", "fd_step", fd_step),
        "prob_floor": _positive("numerics", "prob_floor", n.pop("prob_floor", 1e-12), below=1),
        "slope_tol": _positive("numerics", "slope_tol", n.pop("slope_tol", 0.1)),
    }
    if n:
        raise ConfigError(f"unknown numerics keys: {sorted(n)}")
    return out


def _parse_modes(model, experiment):
    """Pop and parse the required ``modes`` key of a model section."""
    if "modes" not in model:
        raise ConfigError(f"{experiment} model requires 'modes'")
    try:
        modes = [BathMode(float(w), float(g)) for w, g in model.pop("modes")]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.modes must be [[omega, g], ...]: {exc}")
    if not modes:
        raise ConfigError("model.modes must not be empty")
    return modes


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


# -- experiment runners ----------------------------------------------------


def _fd_step(num, beta):
    """numerics.fd_step at a point of inverse temperature ``beta`` (at most beta/10)."""
    h = num["fd_step"]
    if h is not None and h > beta / 10:
        raise ConfigError(f"numerics.fd_step {h:g} exceeds beta/10 = {beta / 10:g} "
                          f"at beta = {beta:g}")
    return h


def _run_engine_points(config, num, points, check_ids, family_point):
    """The sweep of an engine experiment: one checked heat decomposition per point.

    ``family_point(point)`` returns (params, cutoff key, model builder, rho0, t,
    measurement, closed-form reference); params holds beta and leads each row.
    One engine is built per cutoff key.
    """
    per_outcome = bool(config.get("output", {}).get("per_outcome", False))
    checks = identity_checks(*check_ids)
    engines = {}
    rows = []
    excluded = 0.0
    for point in points:
        params, key, build, rho0, t, meas, reference = family_point(point)
        beta = params["beta"]
        h = _fd_step(num, beta)
        if key not in engines:
            engines[key] = HeatEngine(build(), prob_floor=num["prob_floor"])
        record, fisher_fd, cf_dev, point_excluded = check_engine_point(
            checks, engines[key], rho0, beta, t, meas, reference, params, h=h)
        excluded = max(excluded, point_excluded)

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
               "closed_form_excluded_probability_max": excluded}
    return rows, list(checks.values()), summary


def _run_heat_exchange(config):
    model = dict(config.get("model", {}))
    num = _numerics(config)
    base = {"omega_0": 1.0, "delta": 0.0, "g": 0.1, "beta": 1.0, "t": "optimal"}
    for key in ("omega_0", "delta", "g"):
        if key in model:
            base[key] = model.pop(key)
    if model:
        raise ConfigError(f"unknown heat-exchange model keys: {sorted(model)}")
    points = _sweep_points(config.get("sweep", {}),
                           {"beta", "t", "g", "delta", "omega_0"})
    capped = []

    def family_point(point):
        p = {**base, **point}
        omega_0 = _positive("model", "omega_0", p["omega_0"])
        g = _positive("model", "g", p["g"])
        delta = float(p["delta"])
        beta = _positive("sweep", "beta", p["beta"])
        he = cf.HEParams(omega_0 + 2.0 * delta, omega_0, g, beta, 0.0)
        t = cf.he_optimal_time(he) if p["t"] == "optimal" else _positive(
            "sweep", "t", p["t"])
        he = cf.HEParams(omega_0 + 2.0 * delta, omega_0, g, beta, t)

        n_max = num["n_max"]
        if n_max is None:
            n_max = truncation_level(beta, omega_0, num["tail"]) + 4
            if n_max > HE_AUTO_N_MAX:
                n_max = HE_AUTO_N_MAX
                capped.append({"beta": beta, "n_max": n_max,
                               "tail_weight": math.exp(-beta * omega_0 * (n_max + 1))})
        ground = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        ground[0, 0] = 1.0
        params = {"beta": beta, "t": t, "g": g, "delta": delta, "omega_0": omega_0,
                  "n_max": n_max}
        return (params, (omega_0, delta, g, n_max),
                lambda: build_coupled_oscillators(omega_0 + 2.0 * delta, omega_0, g, n_max),
                ground, t, fock_measurement(n_max), he_reference(he))

    rows, checks, summary = _run_engine_points(
        config, num, points, ("fisher", "closed_form", "saturation"), family_point)
    if capped:
        summary["n_max_capped"] = capped
    return rows, checks, summary


def _run_dephasing(config):
    model = dict(config.get("model", {}))
    num = _numerics(config)
    modes = _parse_modes(model, "dephasing")
    if model:
        raise ConfigError(f"unknown dephasing model keys: {sorted(model)}")
    points = _sweep_points(config.get("sweep", {}), {"beta", "t"})
    plus = np.full((2, 2), 0.5, dtype=complex)
    meas = pauli_x_measurement()

    def family_point(point):
        beta = _positive("sweep", "beta", point.get("beta", 1.0))
        t = float(point.get("t", math.pi))
        if num["n_max"] is not None:
            cutoffs = [num["n_max"]] * len(modes)
        else:
            cutoffs = [truncation_level(beta, m.omega, num["tail"]) + 3 for m in modes]
        params = {"beta": beta, "t": t, "cutoffs": max(cutoffs)}
        return (params, tuple(cutoffs), lambda: build_dephasing_model(modes, cutoffs),
                plus, t, meas, deph_reference(cf.DephParams(tuple(modes), beta, t)))

    return _run_engine_points(config, num, points,
                              ("fisher", "closed_form", "avg_heat", "saturation"),
                              family_point)


def _run_mean_force(config):
    model = dict(config.get("model", {}))
    num = _numerics(config)
    omega_q = _positive("model", "omega_q", model.pop("omega_q", 1.0))
    modes = _parse_modes(model, "mean-force")
    axis = model.pop("coupling_axis", "xz")
    if axis not in ("x", "z", "xz"):
        raise ConfigError(f"coupling_axis must be 'x', 'z' or 'xz', got {axis!r}")
    if model:
        raise ConfigError(f"unknown mean-force model keys: {sorted(model)}")
    points = _sweep_points(config.get("sweep", {}), {"beta"})

    checks = identity_checks("mean_force", "ur_product")
    rows = []
    for point in points:
        beta = _positive("sweep", "beta", point.get("beta", 1.0))
        h = _fd_step(num, beta)
        if num["n_max"] is not None:
            cutoffs = [num["n_max"]] * len(modes)
        else:
            cutoffs = [truncation_level(beta, m.omega, max(num["tail"], 1e-8)) + 2
                       for m in modes]
        built = build_spin_boson_model(omega_q, modes, cutoffs, coupling_axis=axis)

        params = {"beta": beta, "omega_q": omega_q, "coupling_axis": axis,
                  "n_max": max(cutoffs)}
        result, delta_u, product = check_mean_force_point(
            checks, built, beta, params, h_step=h, prob_floor=num["prob_floor"])
        rows.append({**params, "u_s": result.u_s, "z_star": result.z_star,
                     "delta_u": delta_u, "delta_u_sq": result.delta_u_sq,
                     "fisher": result.fisher, "ur_product": product,
                     "dual_residual": result.dual_residual})
    return rows, list(checks.values()), {}


def _spectral(model):
    alpha = _positive("model", "alpha", model.pop("alpha", 1.0))
    s = float(model.pop("s", 1.0))
    omega_c = _positive("model", "omega_c", model.pop("omega_c", 1.0))
    return SpectralDensity(alpha, s, omega_c)


def _scaling_rows(points, slope, intercept, r2, expected, tol):
    rows = [{"beta": b, "bound_rel": v} for b, v in points]
    check = IdentityCheck("scaling slope vs expected exponent", tol)
    check.update(abs(slope - expected), {"slope": slope, "expected": expected})
    summary = {"slope": slope, "intercept": intercept, "r2": r2,
               "expected_slope": expected}
    return rows, [check], summary


def _run_scaling_he(config):
    model = dict(config.get("model", {}))
    num = _numerics(config)
    j = _spectral(model)
    delta_ratio = float(model.pop("delta_ratio", 0.1))
    time_factor = float(model.pop("time_factor", 0.3))
    if model:
        raise ConfigError(f"unknown scaling-he model keys: {sorted(model)}")
    betas = config.get("sweep", {}).get("beta")
    if not betas or len(betas) < 4:
        raise ConfigError("scaling-he requires sweep.beta with at least 4 values")
    points = cf.he_scaling_points(j, betas, delta_ratio=delta_ratio,
                                  time_factor=time_factor)
    slope, intercept, r2 = cf.scaling_fit(points)
    return _scaling_rows(points, slope, intercept, r2, (1.0 + j.s) / 2.0,
                         num["slope_tol"])


def _run_scaling_deph(config):
    model = dict(config.get("model", {}))
    num = _numerics(config)
    j = _spectral(model)
    t = model.pop("t", None)
    k_modes = int(model.pop("k_modes", 2000))
    omega_max = model.pop("omega_max", None)
    if model:
        raise ConfigError(f"unknown scaling-deph model keys: {sorted(model)}")
    betas = config.get("sweep", {}).get("beta")
    if not betas or len(betas) < 4:
        raise ConfigError("scaling-deph requires sweep.beta with at least 4 values")
    points = cf.deph_scaling_points(j, betas, t=t, k_modes=k_modes,
                                    omega_max=omega_max)
    slope, intercept, r2 = cf.scaling_fit(points)
    return _scaling_rows(points, slope, intercept, r2, 1.0 + j.s, num["slope_tol"])


def _run_cross_validate(config):
    seed = _count("seed", config.get("seed", 0), 0)
    draws = _count("draws", config.get("draws", 5), 1)
    report = cross_validate(seed, draws)
    rows = [{"check": c.name, "max_deviation": c.max_deviation,
             "tolerance": c.tolerance, "passed": c.passed}
            for c in report.checks]
    summary = {k: v for k, v in report.as_dict().items() if k not in ("passed", "checks")}
    return rows, report.checks, summary


RUNNERS = {
    "heat-exchange": _run_heat_exchange,
    "dephasing": _run_dephasing,
    "mean-force": _run_mean_force,
    "scaling-he": _run_scaling_he,
    "scaling-deph": _run_scaling_deph,
    "cross-validate": _run_cross_validate,
}


# -- output ----------------------------------------------------------------


def _redirected(path):
    """``path`` moved into $THERMOQ_OUTPUT_DIR when that is set."""
    override = os.environ.get(OUTPUT_DIR_ENV)
    return os.path.join(override, os.path.basename(path)) if override else path


def _fieldnames(rows):
    names = []
    for row in rows:
        for key in row:
            if key not in names:
                names.append(key)
    return names


def _write_csv(path, rows, meta):
    fields = _fieldnames(rows)
    lines = [f"# thermoq {meta['version']} config {meta['config_hash']}",
             f"# generated {meta['timestamp']}",
             ",".join(fields)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(f, "")) for f in fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def _verification_dict(checks, summary):
    return {"passed": all(c.passed for c in checks),
            "checks": [c.as_dict() for c in checks], **summary}


def _report(checks):
    """Print each check; exit 1 unless all passed."""
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        click.echo(f"  [{status}] {c.name}: max deviation {c.max_deviation:.3e} "
                   f"(tol {c.tolerance:g})")
        if not c.passed and c.worst_params:
            click.echo(f"         worst at {c.worst_params}")
    if not all(c.passed for c in checks):
        click.echo("verification FAILED", err=True)
        sys.exit(1)
    click.echo("verification passed")


# -- commands --------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="thermoq")
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
    experiment = config.get("experiment")
    if experiment not in EXPERIMENTS:
        raise click.UsageError(
            f"experiment must be one of {list(EXPERIMENTS)}, got {experiment!r}")
    fmt = config.get("output", {}).get("format", "csv")
    if fmt not in ("csv", "json"):
        raise click.UsageError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    try:
        rows, checks, summary = RUNNERS[experiment](config)
    except ConfigError as exc:
        raise click.UsageError(str(exc))

    meta = {"version": __version__, "config_hash": _config_hash(config),
            "experiment": experiment,
            "timestamp": datetime.now(timezone.utc).isoformat()}
    verification = _verification_dict(checks, summary)
    path = _redirected(config.get("output", {}).get("path", f"{experiment}.{fmt}"))
    if fmt == "csv":
        _write_csv(path, rows, meta)
    else:
        _write_json(path, {"meta": meta, "rows": rows, "verification": verification})
    _write_json(path + ".verification.json", verification)

    click.echo(f"{experiment}: {len(rows)} rows -> {path}")
    for key, value in summary.items():
        click.echo(f"  {key}: {value}")
    _report(checks)


@main.command("cross-validate")
@click.option("--seed", default=0, show_default=True, help="RNG seed.")
@click.option("--draws", default=5, show_default=True,
              help="Random instances per model family.")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Optional JSON report path.")
def cross_validate_cmd(seed, draws, output):
    """Check every identity on random instances of each model family."""
    if draws < 1:
        raise click.UsageError("--draws must be at least 1")
    report = cross_validate(seed, draws)
    click.echo(f"cross-validate seed={seed} draws={draws} "
               f"({report.elapsed_seconds:.1f}s)")
    if output:
        output = _redirected(output)
        _write_json(output, report.as_dict())
        click.echo(f"report -> {output}")
    _report(report.checks)


@main.command("schema")
def schema_cmd():
    """Print the JSON run-configuration schema."""
    click.echo(json.dumps(CONFIG_SCHEMA, indent=2))


if __name__ == "__main__":
    main()
