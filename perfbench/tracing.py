"""Layer spans for the traced benchmark run.

``traced(tracer)`` wraps the public functions of thermoq's modules, as the
CLI runners and ``validate.cross_validate`` look them up, so that one real
CLI call records a span around every call into a layer. Nothing in
``thermoq`` is edited; the wrappers are removed on exit.

A span has a name, start and end (``time.perf_counter`` seconds), parent
span, workload and point id. Spans are kept in memory and written out by
``Tracer.dump`` when the run ends. Sweep points get a ``point`` span (one
per item of the runner's sweep); cross-validate draws a ``validate.draw``
span. Counts are recorded at the same call sites.

Memory figures are tracemalloc peaks over the call, so they count NumPy
and Python allocations made during it, not BLAS work buffers.
"""

import functools
import inspect
import json
import statistics
import time
import tracemalloc
import types
from collections import defaultdict
from contextlib import contextmanager

import thermoq.cli
import thermoq.closed_form
import thermoq.mean_force
import thermoq.validate

# per-layer metric -> span name; each is the median duration per call
TIMED = {
    "models.build_s": "models.build",
    "models.measurement_s": "models.measurement",
    "engine.init_s": "engine.init",
    "engine.heat_decomposition_s": "engine.heat_decomposition",
    "engine.fisher_fd_s": "engine.fisher_fd",
    "engine.score_direct_s": "engine.score_direct",
    "engine.two_point_s": "engine.two_point",
    "mean_force.reduced_gibbs_s": "mean_force.reduced_gibbs",
    "mean_force.energy_operator_s": "mean_force.energy_operator",
    "mean_force.internal_energy_s": "mean_force.internal_energy",
    "mean_force.deviation_s": "mean_force.deviation",
    "mean_force.ur_check_s": "mean_force.ur_check",
    "validate.draw_s": "validate.draw",
}
# per-layer metric -> span name; median tracemalloc peak per call, MB
PEAKS = {
    "engine.heat_decomposition_peak_mb": "engine.heat_decomposition",
    "mean_force.deviation_peak_mb": "mean_force.deviation",
}
# spans that belong to no thermoq layer: their self time is CLI overhead
NON_LAYER = ("cli.run", "point")


def _median(values):
    return statistics.median(values) if values else 0.0


class Tracer:
    """In-memory span and count recorder for one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.counts = defaultdict(list)
        self._stack = []
        self._invocation = -1
        self.point = None

    def begin(self, name, memory=False, **attrs):
        if name == "cli.run":
            self._invocation += 1
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload, "point": self.point, **attrs}
        self.spans.append(span)
        self._stack.append(span["id"])
        if memory:
            span["peak_mb"] = None
            tracemalloc.start()
        span["start"] = time.perf_counter()
        return span["id"]

    def end(self, span_id):
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        if "peak_mb" in span:
            span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()

    @contextmanager
    def span(self, name, memory=False, **attrs):
        span_id = self.begin(name, memory, **attrs)
        try:
            yield
        finally:
            self.end(span_id)

    def start_point(self, index):
        self.point = f"{self._invocation}/{index}"

    def count(self, name, value):
        self.counts[name].append(value)

    def wrap(self, name, fn, memory=False, after=None):
        """``fn`` with a span around each call; ``after(result, *args)`` records counts."""

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            with self.span(name, memory):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced_call

    # -- results -----------------------------------------------------------

    def _durations(self):
        dur = {s["id"]: s["end"] - s["start"] for s in self.spans if "end" in s}
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["id"] in dur:
                covered[s["parent"]] += dur[s["id"]]
        return dur, {i: d - covered[i] for i, d in dur.items()}

    def self_times(self):
        """Per span name: calls, total seconds, self seconds, median seconds per call."""
        dur, own = self._durations()
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "per_call": []})
        for s in self.spans:
            if s["id"] not in dur:
                continue
            row = table[s["name"]]
            row["calls"] += 1
            row["total_s"] += dur[s["id"]]
            row["self_s"] += own[s["id"]]
            row["per_call"].append(dur[s["id"]])
        return {name: {"calls": r["calls"], "total_s": r["total_s"], "self_s": r["self_s"],
                       "median_s": _median(r["per_call"])}
                for name, r in sorted(table.items())}

    def summary(self):
        """Per-layer metrics (medians per call) plus the self-time table."""
        dur, own = self._durations()
        named = defaultdict(list)
        for s in self.spans:
            if s["id"] in dur:
                named[s["name"]].append(s)
        metrics = {m: _median([dur[s["id"]] for s in named[n]]) for m, n in TIMED.items()}
        for m, n in PEAKS.items():
            metrics[m] = _median([s["peak_mb"] for s in named[n] if "peak_mb" in s])

        per_point = defaultdict(float)
        for s in named["closed_form.reference"]:
            per_point[s["point"]] += dur[s["id"]]
        metrics["closed_form.reference_s"] = _median(list(per_point.values()))

        overhead = defaultdict(float)
        for s in self.spans:
            if s["name"] in NON_LAYER and s["id"] in own:
                root = s["id"] if s["name"] == "cli.run" else s["parent"]
                overhead[root] += own[s["id"]]
        runs = named["cli.run"]
        metrics["cli.run_s"] = _median([dur[s["id"]] / s["points"] for s in runs])
        metrics["cli.overhead_s"] = _median([overhead[s["id"]] / s["points"] for s in runs])

        metrics["linalg.total_dim"] = _median(self.counts["linalg.total_dim"])
        evaluated = self.counts["engine.outcomes_evaluated"]
        kept = self.counts["engine.outcomes_kept"]
        metrics["engine.outcomes_evaluated"] = _median(evaluated)
        metrics["engine.outcome_yield"] = _median([k / e for k, e in zip(kept, evaluated)])
        return {"metrics": metrics, "self_times": self.self_times()}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "spans": self.spans,
                       "counts": dict(self.counts), "self_times": self.self_times()}, fh)


class _PointList(list):
    """A runner's sweep points; iterating opens one ``point`` span per point."""

    def __init__(self, points, tracer):
        super().__init__(points)
        self._tracer = tracer

    def __iter__(self):
        for index, point in enumerate(super().__iter__()):
            self._tracer.start_point(index)
            with self._tracer.span("point"):
                yield point
        self._tracer.point = None


def _traced_engine(tracer, base):
    def record_outcomes(record, engine, rho0, beta, t, meas):
        tracer.count("engine.outcomes_evaluated", len(meas.labels))
        tracer.count("engine.outcomes_kept", len(record.outcomes))

    class TracedHeatEngine(base):
        __init__ = tracer.wrap("engine.init", base.__init__)
        heat_decomposition = tracer.wrap("engine.heat_decomposition", base.heat_decomposition,
                                         memory=True, after=record_outcomes)
        fisher_finite_difference = tracer.wrap("engine.fisher_fd",
                                               base.fisher_finite_difference)
        score_direct_all = tracer.wrap("engine.score_direct", base.score_direct_all)
        two_point_trajectory_heat_all = tracer.wrap("engine.two_point",
                                                    base.two_point_trajectory_heat_all)

    return TracedHeatEngine


def _traced_cross_validate(tracer, real):
    def cross_validate(seed, draws, progress=None):
        open_draw = []

        def next_draw(index, total):
            if open_draw:
                tracer.end(open_draw.pop())
            tracer.start_point(index)
            open_draw.append(tracer.begin("validate.draw"))

        report = real(seed, draws, progress=next_draw)
        if open_draw:
            tracer.end(open_draw.pop())
        tracer.point = None
        return report

    return cross_validate


@contextmanager
def traced(tracer):
    """Install layer spans on the names thermoq's runners call; undo on exit."""
    cli, validate = thermoq.cli, thermoq.validate
    mean_force, closed_form = thermoq.mean_force, thermoq.closed_form
    saved = []

    def patch(module, name, new):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def record_dim(model, *args, **kwargs):
        tracer.count("linalg.total_dim", model.space.total_dim)

    # closed forms: a stand-in module whose functions are traced
    cf = types.SimpleNamespace(**{
        name: tracer.wrap("closed_form.reference", obj) if inspect.isfunction(obj) else obj
        for name, obj in vars(closed_form).items() if not name.startswith("__")})

    try:
        for module in (cli, validate):
            for name in ("build_coupled_oscillators", "build_dephasing_model",
                         "build_spin_boson_model"):
                patch(module, name, tracer.wrap("models.build", getattr(module, name),
                                                after=record_dim))
            for name in ("fock_measurement", "pauli_x_measurement"):
                patch(module, name, tracer.wrap("models.measurement", getattr(module, name)))
            patch(module, "HeatEngine", _traced_engine(tracer, module.HeatEngine))
            patch(module, "cf", cf)
            patch(module, "temperature_energy_ur_check",
                  tracer.wrap("mean_force.ur_check", module.temperature_energy_ur_check))
        # mean_force calls these through its own globals, so calls from
        # inside mean_force (ur_check -> deviation -> reduced_gibbs) nest
        for module in (mean_force, cli, validate):
            patch(module, "internal_energy_deviation",
                  tracer.wrap("mean_force.deviation", module.internal_energy_deviation,
                              memory=True))
        for name, span in (("reduced_gibbs_operator", "mean_force.reduced_gibbs"),
                           ("energy_operator", "mean_force.energy_operator"),
                           ("internal_energy", "mean_force.internal_energy")):
            patch(mean_force, name, tracer.wrap(span, getattr(mean_force, name)))

        sweep_points = cli._sweep_points
        patch(cli, "_sweep_points", lambda *a: _PointList(sweep_points(*a), tracer))
        patch(cli, "cross_validate", _traced_cross_validate(tracer, cli.cross_validate))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
