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
from .engine import HeatEngine, precision_bound
from .linalg import truncation_level
from .mean_force import internal_energy_deviation, temperature_energy_ur_check
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
    TOL_CLOSED_FORM,
    TOL_FISHER,
    TOL_MEAN_FORCE,
    TOL_UR_PRODUCT,
    IdentityCheck,
    cross_validate,
    relative_error,
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
        "cross-validate": {"seed": "int (default 0)", "draws": "int >= 1 (default 5)"},
    },
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
        "n_max": "int or null: Fock cutoff override (per mode for dephasing)",
        "tail": "float: thermal tail bound for automatic cutoffs (default 1e-10)",
        "fd_step": "float > 0 or null: beta step of the finite-difference Fisher "
                   "routes (default 1e-4 * beta, at most beta / 10)",
        "prob_floor": "float: outcomes below this probability are excluded (default 1e-12)",
        "slope_tol": "float: scaling-slope tolerance (default 0.1)",
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


def _positive(config, section, key, value):
    if not (isinstance(value, (int, float)) and value > 0):
        raise ConfigError(f"{section}.{key} must be a positive number, got {value!r}")
    return float(value)


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
    out = {
        "n_max": n.pop("n_max", None),
        "tail": float(n.pop("tail", 1e-10)),
        "fd_step": n.pop("fd_step", None),
        "prob_floor": float(n.pop("prob_floor", 1e-12)),
        "slope_tol": float(n.pop("slope_tol", 0.1)),
    }
    if n:
        raise ConfigError(f"unknown numerics keys: {sorted(n)}")
    if out["fd_step"] is not None:
        out["fd_step"] = _positive(config, "numerics", "fd_step", out["fd_step"])
    return out


def _parse_modes(raw, section):
    try:
        modes = [BathMode(float(w), float(g)) for w, g in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.modes must be [[omega, g], ...]: {exc}")
    if not modes:
        raise ConfigError(f"{section}.modes must not be empty")
    return modes


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.11e}"
    return str(value)


# -- experiment runners ----------------------------------------------------


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
    per_outcome = bool(config.get("output", {}).get("per_outcome", False))

    checks = {
        "fisher": IdentityCheck("Fisher: finite-difference vs heat variance", TOL_FISHER),
        "closed_form": IdentityCheck("closed forms vs brute force", TOL_CLOSED_FORM),
        "saturation": IdentityCheck("bound saturation: bound*beta*sqrt(F) = 1", TOL_UR_PRODUCT),
    }
    engines = {}
    rows = []
    for point in points:
        p = {**base, **point}
        omega_0 = _positive(config, "model", "omega_0", p["omega_0"])
        g = _positive(config, "model", "g", p["g"])
        delta = float(p["delta"])
        beta = _positive(config, "sweep", "beta", p["beta"])
        he = cf.HEParams(omega_0 + 2.0 * delta, omega_0, g, beta, 0.0)
        t = cf.he_optimal_time(he) if p["t"] == "optimal" else _positive(
            config, "sweep", "t", p["t"])
        he = cf.HEParams(omega_0 + 2.0 * delta, omega_0, g, beta, t)

        # cap the automatic cutoff: beyond ~40 the dense eigendecomposition of
        # the (n_max+1)^2-dimensional Hamiltonian dominates the run time while
        # the Fisher tail error is already below 1e-6
        n_max = num["n_max"] or min(truncation_level(beta, omega_0, num["tail"]) + 4, 40)
        key = (omega_0, delta, g, n_max)
        if key not in engines:
            engines[key] = HeatEngine(
                build_coupled_oscillators(omega_0 + 2.0 * delta, omega_0, g, n_max),
                prob_floor=num["prob_floor"])
        eng = engines[key]
        meas = fock_measurement(n_max)
        rho0 = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        rho0[0, 0] = 1.0

        record = eng.heat_decomposition(rho0, beta, t, meas)
        fisher_fd = eng.fisher_finite_difference(rho0, beta, t, meas, h=num["fd_step"])
        fisher_cf = cf.he_fisher(he)
        bound = cf.he_precision_bound(he)

        params = {"beta": beta, "t": t, "g": g, "delta": delta, "omega_0": omega_0,
                  "n_max": n_max}
        checks["fisher"].update(relative_error(fisher_fd, record.fisher_heat), params)
        cf_dev = 0.0
        for o in record.outcomes:
            # conditioned means converge combinatorially slowly with the
            # cutoff for rare outcomes, so compare only where P_l >= 1e-4
            if o.probability < 1e-4:
                continue
            h_tra_cf, h_cor_cf = cf.he_heat_terms(he, o.label)
            scale = max(abs(h_tra_cf), abs(h_cor_cf), 1.0)
            cf_dev = max(cf_dev,
                         relative_error(o.probability, cf.he_outcome_probability(he, o.label)),
                         abs(o.h_tra - h_tra_cf) / scale,
                         abs(o.h_cor - h_cor_cf) / scale)
        checks["closed_form"].update(cf_dev, params)
        checks["closed_form"].update(relative_error(record.fisher_heat, fisher_cf), params)
        sat = bound * beta * math.sqrt(fisher_fd) if fisher_fd > 0 else math.inf
        checks["saturation"].update(abs(sat - 1.0), params)

        agg = dict(params)
        agg.update(h_avg=record.h_avg, fisher_heat=record.fisher_heat,
                   fisher_fd=fisher_fd, fisher_closed_form=fisher_cf,
                   bound_rel=bound,
                   fisher_rel_dev=relative_error(fisher_fd, record.fisher_heat),
                   closed_form_dev=cf_dev)
        if per_outcome:
            for o in record.outcomes:
                rows.append({**agg, "l": o.label, "P_l": o.probability,
                             "H_tra": o.h_tra, "H_cor": o.h_cor, "score": o.score})
        else:
            rows.append(agg)
    return rows, list(checks.values()), {}


def _run_dephasing(config):
    model = dict(config.get("model", {}))
    num = _numerics(config)
    if "modes" not in model:
        raise ConfigError("dephasing model requires 'modes'")
    modes = _parse_modes(model.pop("modes"), "model")
    if model:
        raise ConfigError(f"unknown dephasing model keys: {sorted(model)}")
    points = _sweep_points(config.get("sweep", {}), {"beta", "t"})
    per_outcome = bool(config.get("output", {}).get("per_outcome", False))

    checks = {
        "fisher": IdentityCheck("Fisher: finite-difference vs heat variance", TOL_FISHER),
        "closed_form": IdentityCheck("closed forms vs brute force", TOL_CLOSED_FORM),
        "avg_heat": IdentityCheck("average trajectory heat equals Q", 1e-8),
        "saturation": IdentityCheck("bound saturation: bound*beta*sqrt(F) = 1", TOL_UR_PRODUCT),
    }
    engines = {}
    rows = []
    plus = np.full((2, 2), 0.5, dtype=complex)
    meas = pauli_x_measurement()
    for point in points:
        beta = _positive(config, "sweep", "beta", point.get("beta", 1.0))
        t = float(point.get("t", math.pi))
        dp = cf.DephParams(tuple(modes), beta, t)

        if num["n_max"] is not None:
            cutoffs = [int(num["n_max"])] * len(modes)
        else:
            cutoffs = [truncation_level(beta, m.omega, num["tail"]) + 3 for m in modes]
        key = tuple(cutoffs)
        if key not in engines:
            engines[key] = HeatEngine(build_dephasing_model(modes, cutoffs),
                                      prob_floor=num["prob_floor"])
        eng = engines[key]

        record = eng.heat_decomposition(plus, beta, t, meas)
        fisher_fd = eng.fisher_finite_difference(plus, beta, t, meas, h=num["fd_step"])
        gamma, q, c = cf.deph_gamma(dp), cf.deph_Q(dp), cf.deph_C(dp)
        fisher_cf = cf.deph_fisher(dp)
        bound = cf.deph_precision_bound(dp)

        params = {"beta": beta, "t": t, "cutoffs": max(cutoffs)}
        checks["fisher"].update(relative_error(fisher_fd, record.fisher_heat), params)
        cf_dev = relative_error(record.fisher_heat, fisher_cf)
        for o in record.outcomes:
            h_tra_cf, h_cor_cf = cf.deph_heat_terms(dp, o.label)
            scale = max(abs(h_tra_cf), abs(h_cor_cf), 1.0)
            cf_dev = max(cf_dev,
                         relative_error(o.probability, cf.deph_probability(dp, o.label)),
                         abs(o.h_tra - h_tra_cf) / scale,
                         abs(o.h_cor - h_cor_cf) / scale)
        checks["closed_form"].update(cf_dev, params)
        avg_h_tra = sum(o.probability * o.h_tra for o in record.outcomes)
        checks["avg_heat"].update(abs(avg_h_tra - q), params)
        sat = bound * beta * math.sqrt(fisher_fd) if fisher_fd > 0 else math.inf
        checks["saturation"].update(abs(sat - 1.0), params)

        agg = dict(params)
        agg.update(gamma=gamma, Q=q, C=c, h_avg=record.h_avg,
                   fisher_heat=record.fisher_heat, fisher_fd=fisher_fd,
                   fisher_closed_form=fisher_cf, bound_rel=bound,
                   fisher_rel_dev=relative_error(fisher_fd, record.fisher_heat),
                   closed_form_dev=cf_dev)
        if per_outcome:
            for o in record.outcomes:
                rows.append({**agg, "l": o.label, "P_l": o.probability,
                             "H_tra": o.h_tra, "H_cor": o.h_cor, "score": o.score})
        else:
            rows.append(agg)
    return rows, list(checks.values()), {}


def _run_mean_force(config):
    model = dict(config.get("model", {}))
    num = _numerics(config)
    omega_q = _positive(config, "model", "omega_q", model.pop("omega_q", 1.0))
    if "modes" not in model:
        raise ConfigError("mean-force model requires 'modes'")
    modes = _parse_modes(model.pop("modes"), "model")
    axis = model.pop("coupling_axis", "xz")
    if axis not in ("x", "z", "xz"):
        raise ConfigError(f"coupling_axis must be 'x', 'z' or 'xz', got {axis!r}")
    if model:
        raise ConfigError(f"unknown mean-force model keys: {sorted(model)}")
    points = _sweep_points(config.get("sweep", {}), {"beta"})

    checks = {
        "dual": IdentityCheck("internal-energy deviation, dual computation", TOL_MEAN_FORCE),
        "ur": IdentityCheck("temperature-energy UR product at saturation", TOL_UR_PRODUCT),
    }
    rows = []
    for point in points:
        beta = _positive(config, "sweep", "beta", point.get("beta", 1.0))
        if num["n_max"] is not None:
            cutoffs = [int(num["n_max"])] * len(modes)
        else:
            cutoffs = [truncation_level(beta, m.omega, max(num["tail"], 1e-8)) + 2
                       for m in modes]
        built = build_spin_boson_model(omega_q, modes, cutoffs, coupling_axis=axis)

        result = internal_energy_deviation(built, beta, h_step=num["fd_step"],
                                           prob_floor=num["prob_floor"])
        delta_u, fisher, product = temperature_energy_ur_check(result)

        params = {"beta": beta, "omega_q": omega_q, "coupling_axis": axis,
                  "n_max": max(cutoffs)}
        checks["dual"].update(result.dual_residual, params)
        checks["ur"].update(abs(product - 1.0), params)
        rows.append({**params, "u_s": result.u_s, "z_star": result.z_star,
                     "delta_u": delta_u, "delta_u_sq": result.delta_u_sq,
                     "fisher": fisher, "ur_product": product,
                     "dual_residual": result.dual_residual})
    return rows, list(checks.values()), {}


def _spectral(model):
    alpha = _positive({}, "model", "alpha", model.pop("alpha", 1.0))
    s = float(model.pop("s", 1.0))
    omega_c = _positive({}, "model", "omega_c", model.pop("omega_c", 1.0))
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
    seed = int(config.get("seed", 0))
    draws = int(config.get("draws", 5))
    report = cross_validate(seed, draws)
    rows = [{"check": c.name, "max_deviation": c.max_deviation,
             "tolerance": c.tolerance, "passed": c.passed}
            for c in report.checks]
    summary = {"seed": seed, "draws": draws,
               "elapsed_seconds": report.elapsed_seconds}
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


def _output_path(config):
    out = config.get("output", {})
    path = out.get("path", f"{config['experiment']}.{out.get('format', 'csv')}")
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override:
        path = os.path.join(override, os.path.basename(path))
    return path


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


def _write_json(path, rows, meta, verification):
    with open(path, "w") as fh:
        json.dump({"meta": meta, "rows": rows, "verification": verification},
                  fh, indent=2, default=str)
        fh.write("\n")


def _verification_dict(checks, summary):
    return {
        "passed": all(c.passed for c in checks),
        "checks": [
            {"name": c.name, "tolerance": c.tolerance,
             "max_deviation": c.max_deviation, "passed": c.passed,
             "worst_params": {k: str(v) for k, v in c.worst_params.items()}}
            for c in checks
        ],
        **summary,
    }


def _report(checks):
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        click.echo(f"  [{status}] {c.name}: max deviation {c.max_deviation:.3e} "
                   f"(tol {c.tolerance:g})")
        if not c.passed and c.worst_params:
            click.echo(f"         worst at {c.worst_params}")


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
    try:
        rows, checks, summary = RUNNERS[experiment](config)
    except ConfigError as exc:
        raise click.UsageError(str(exc))

    meta = {"version": __version__, "config_hash": _config_hash(config),
            "experiment": experiment,
            "timestamp": datetime.now(timezone.utc).isoformat()}
    verification = _verification_dict(checks, summary)
    path = _output_path(config)
    fmt = config.get("output", {}).get("format", "csv")
    if fmt not in ("csv", "json"):
        raise click.UsageError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    if fmt == "csv":
        _write_csv(path, rows, meta)
    else:
        _write_json(path, rows, meta, verification)
    report_path = path + ".verification.json"
    with open(report_path, "w") as fh:
        json.dump(verification, fh, indent=2)
        fh.write("\n")

    click.echo(f"{experiment}: {len(rows)} rows -> {path}")
    for key, value in summary.items():
        click.echo(f"  {key}: {value}")
    _report(checks)
    if not verification["passed"]:
        click.echo("verification FAILED", err=True)
        sys.exit(1)
    click.echo("verification passed")


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
    _report(report.checks)
    if output:
        override = os.environ.get(OUTPUT_DIR_ENV)
        if override:
            output = os.path.join(override, os.path.basename(output))
        with open(output, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
        click.echo(f"report -> {output}")
    if not report.passed:
        click.echo("verification FAILED", err=True)
        sys.exit(1)
    click.echo("verification passed")


@main.command("schema")
def schema_cmd():
    """Print the JSON run-configuration schema."""
    click.echo(json.dumps(CONFIG_SCHEMA, indent=2))


if __name__ == "__main__":
    main()
