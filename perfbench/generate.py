"""Seeded inputs for the thermoq benchmark.

Each workload is a list of CLI invocations ("items") drawn from the seed.
The seed draws working points only (beta, t, g, detuning, mode
frequencies and couplings); every item states its Fock cutoff explicitly
in ``numerics.n_max``, so the Hilbert dimension d and the outcome count
are the same at every seed and the CLI's automatic cutoff cap never
applies. Draw ranges are chosen so that the cutoff the CLI would pick on
its own, ``truncation_level(beta, omega, tail) + margin``, fits inside the
fixed one; ``generate`` raises if a draw ever breaks that.

The cross-validate workload cannot state d: ``thermoq cross-validate``
draws its own instances. Its items are ``--draws 1`` invocations whose
seeds are derived from the workload seed and kept only when the draw they
produce has the fixed size class (d per model family); without that
filter the cost of one draw varies by two orders of magnitude between
seeds.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from thermoq import validate
from thermoq.linalg import truncation_level

WORKLOADS = ("exchange-fock", "dephasing-modes", "mean-force-xz", "cross-validate")

# Fixed sizes: (n_max, beta_scale) per run workload, (d_he, d_deph, d_mf)
# for cross-validate. "full" is what the benchmark measures. "tiny" is for
# the seconds-long smoke test; it scales the drawn betas up, because a
# colder sample needs a smaller cutoff.
SIZES = {
    "full": {"exchange-fock": (27, 1.0), "dephasing-modes": (22, 1.0),
             "mean-force-xz": (20, 1.0), "cross-validate": (441, 1024, 480)},
    "tiny": {"exchange-fock": (10, 3.4), "dephasing-modes": (8, 3.3),
             "mean-force-xz": (6, 3.6), "cross-validate": (361, 338, 364)},
}

ITEMS_PER_RUN = 3  # a run that gets through them cycles back to the first

# The CLI's automatic cutoff for each experiment: (tail, margin).
CLI_CUTOFF = {"heat-exchange": (1e-10, 4), "dephasing": (1e-10, 3),
              "mean-force": (1e-8, 2)}


class CutoffError(ValueError):
    """A drawn working point needs a larger Fock cutoff than the fixed one."""


def _check_cutoff(experiment, beta, omega, n_max):
    tail, margin = CLI_CUTOFF[experiment]
    needed = truncation_level(beta, omega, tail) + margin
    if needed > n_max:
        raise CutoffError(f"{experiment}: beta={beta:.4g}, omega={omega:.4g} needs "
                          f"n_max {needed} > fixed {n_max}")
    return math.exp(-beta * omega * (n_max + 1))


def _exchange_fock(rng, n_max, beta_scale):
    omega_0 = rng.uniform(0.9, 1.3)
    delta = rng.uniform(0.0, 0.2)
    g = rng.uniform(0.05, 0.2)
    betas = sorted(float(b) for b in beta_scale * rng.uniform(1.1, 2.0, size=2))
    # a fraction of the half-swap time pi/E keeps the excitation transfer,
    # and so the Fisher information, away from zero
    rabi = math.hypot(delta, g)
    ts = sorted(float(u) * math.pi / rabi for u in rng.uniform(0.3, 0.7, size=2))
    tail = max(_check_cutoff("heat-exchange", b, omega_0, n_max) for b in betas)
    config = {
        "experiment": "heat-exchange",
        "model": {"omega_0": omega_0, "delta": delta, "g": g},
        "sweep": {"beta": betas, "t": ts},
        "numerics": {"n_max": n_max},
        "output": {"path": "heat_exchange.csv", "format": "csv"},
    }
    return config, (n_max + 1) ** 2, n_max + 1, tail


def _dephasing_modes(rng, n_max, beta_scale):
    modes = [[rng.uniform(1.2, 2.0), rng.uniform(0.05, 0.2)] for _ in range(2)]
    betas = sorted(float(b) for b in beta_scale * rng.uniform(1.0, 1.5, size=2))
    t = rng.uniform(0.5, 4.0)
    tail = max(_check_cutoff("dephasing", b, w, n_max) for b in betas for w, _ in modes)
    config = {
        "experiment": "dephasing",
        "model": {"modes": modes},
        "sweep": {"beta": betas, "t": [t]},
        "numerics": {"n_max": n_max},
        "output": {"path": "dephasing.csv", "format": "csv"},
    }
    return config, 2 * (n_max + 1) ** 2, 2, tail


def _mean_force_xz(rng, n_max, beta_scale):
    omega_q = rng.uniform(0.7, 1.3)
    modes = [[rng.uniform(0.95, 1.5), rng.uniform(0.05, 0.2)] for _ in range(2)]
    betas = sorted(float(b) for b in beta_scale * rng.uniform(1.1, 1.6, size=3))
    tail = max(_check_cutoff("mean-force", b, w, n_max) for b in betas for w, _ in modes)
    config = {
        "experiment": "mean-force",
        "model": {"omega_q": omega_q, "modes": modes, "coupling_axis": "xz"},
        "sweep": {"beta": betas},
        "numerics": {"n_max": n_max},
        "output": {"path": "mean_force.csv", "format": "csv"},
    }
    # the energy-operator eigenbasis of a qubit probe has two outcomes
    return config, 2 * (n_max + 1) ** 2, 2, tail


@contextmanager
def _no_model_builds():
    """Let validate's draw functions draw parameters without building matrices."""
    with mock.patch.object(validate, "build_coupled_oscillators", lambda *a, **k: None), \
         mock.patch.object(validate, "build_dephasing_model", lambda *a, **k: None), \
         mock.patch.object(validate, "build_spin_boson_model", lambda *a, **k: None):
        yield


def _dim(cutoffs):
    return 2 * math.prod(n + 1 for n in cutoffs)


def predict_draw(cv_seed):
    """Parameters of the single draw ``thermoq cross-validate --seed cv_seed --draws 1``
    makes, as three (params, d) pairs in the order heat-exchange, dephasing,
    mean-force. Uses validate's own draw functions on the same RNG stream."""
    rng = np.random.default_rng(cv_seed)
    with _no_model_builds():
        he, _ = validate.draw_he_instance(rng)
        deph, _ = validate.draw_deph_instance(rng)
        mf, _ = validate.draw_mean_force_instance(rng)
    return ((he, (he["n_max"] + 1) ** 2), (deph, _dim(deph["cutoffs"])),
            (mf, _dim(mf["cutoffs"])))


def _draw_tail(draw):
    (he, _), (deph, _), (mf, _) = draw
    tails = [math.exp(-he["beta"] * he["omega_0"] * (he["n_max"] + 1))]
    for p in (deph, mf):
        tails += [math.exp(-p["beta"] * w * (n + 1))
                  for (w, _), n in zip(p["modes"], p["cutoffs"])]
    return max(tails)


def _cross_validate(rng, *size_class):
    while True:
        cv_seed = int(rng.integers(2**31))
        draw = predict_draw(cv_seed)
        if tuple(d for _, d in draw) == size_class:
            break
    config = {"seed": cv_seed, "draws": 1}
    # Fock outcomes of the exchange probe, plus two each for the qubit probes
    outcomes = draw[0][0]["n_max"] + 1 + 2 + 2
    return config, size_class, outcomes, _draw_tail(draw)


_DRAWS = {
    "exchange-fock": _exchange_fock,
    "dephasing-modes": _dephasing_modes,
    "mean-force-xz": _mean_force_xz,
    "cross-validate": _cross_validate,
}


def generate(workload, seed, size="full", count=ITEMS_PER_RUN):
    """The workload's CLI invocations for ``seed``, as a list of dicts.

    Each item has ``command`` ("run" or "cross-validate"), ``config``,
    ``points`` (sweep points, or draws), ``dim`` (Hilbert dimension, a
    tuple per family for cross-validate), ``outcomes`` (measurement
    outcomes per point) and ``tail_weight`` (largest discarded thermal
    weight q^(N+1) over the item's points and modes).
    """
    if workload not in _DRAWS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    items = []
    for i in range(count):
        config, dim, outcomes, tail = _DRAWS[workload](rng, *SIZES[size][workload])
        if workload == "cross-validate":
            command, points = "cross-validate", config["draws"]
        else:
            command = "run"
            points = math.prod(len(v) for v in config["sweep"].values())
        items.append({"name": f"{workload}-{i}", "command": command, "config": config,
                      "points": points, "dim": dim, "outcomes": outcomes,
                      "tail_weight": tail})
    return items
