"""Benchmark worker: one fresh interpreter that drives the thermoq CLI.

Usage: python3 worker.py --import-only
       python3 worker.py SPEC.json

With ``--import-only`` it times the import of thermoq and its dependencies
and prints the seconds. With a spec (written by run.py) it imports the
same way, then calls the public CLI entry point ``thermoq.cli.main`` on
the spec's items, in order and cycling, until ``seconds`` have passed;
it reads each item's verification output right after the call, and
writes a JSON result to ``spec["result"]``. With ``trace`` set it instead
calls each item untraced and then with layer spans recorded (see
tracing.py), pair after pair, for ``seconds``.
"""

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import click  # noqa: E402
import thermoq.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _output_files(item, tmp):
    if item["command"] == "run":
        out = os.path.join(tmp, os.path.basename(item["config"]["output"]["path"]))
        return [out, out + ".verification.json"]
    return [os.path.join(tmp, "cross_validate.json")]


def _cli_args(item, tmp):
    # a stale output from an earlier item must not pass for this one
    for path in _output_files(item, tmp):
        if os.path.exists(path):
            os.remove(path)
    if item["command"] == "run":
        path = os.path.join(tmp, item["name"] + ".config.json")
        with open(path, "w") as fh:
            json.dump(item["config"], fh)
        return ["run", path]
    cfg = item["config"]
    return ["cross-validate", "--seed", str(cfg["seed"]), "--draws", str(cfg["draws"]),
            "--output", "cross_validate.json"]


def _call_cli(args):
    """(exit code, error text) of one in-process CLI call; its output is discarded."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            thermoq.cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, None if code == 0 else sink.getvalue()[-2000:]
    except click.ClickException as exc:
        return exc.exit_code, exc.format_message()
    except Exception:
        return 1, traceback.format_exc()[-2000:]
    return 0, None


def _headroom(checks):
    """Smallest tolerance / max deviation over the identity checks."""
    ratios = [c["tolerance"] / c["max_deviation"] for c in checks if c["max_deviation"] > 0]
    return min(ratios) if ratios else math.inf


def _failed_checks(report):
    problems = [f"check failed: {c['name']} deviation {c['max_deviation']:.3e} "
                f"> tol {c['tolerance']:g} at {c['worst_params']}"
                for c in report["checks"] if not c["passed"]]
    if not report["passed"] and not problems:
        problems.append("verification report says failed")
    return problems


def _verify_run(item, tmp):
    out, sidecar = _output_files(item, tmp)
    with open(sidecar) as fh:
        report = json.load(fh)
    problems = _failed_checks(report)
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != item["points"]:
        problems.append(f"{len(rows)} output rows for {item['points']} points")
    for row in rows:
        for key in ("fisher_heat", "fisher_fd", "ur_product", "delta_u_sq"):
            if key in row and not math.isfinite(float(row[key])):
                problems.append(f"non-finite {key} = {row[key]}")
    return problems, _headroom(report["checks"])


def _verify_cross_validate(item, tmp):
    with open(_output_files(item, tmp)[0]) as fh:
        report = json.load(fh)
    problems = _failed_checks(report)
    if report["draws"] != item["points"]:
        problems.append(f"report has {report['draws']} draws, expected {item['points']}")
    return problems, _headroom(report["checks"])


def invoke(item, tmp, tracer=None):
    """Run one item through the CLI, then read back and check its outputs.

    With a tracer, the CLI call is recorded as one ``cli.run`` span.
    """
    args = _cli_args(item, tmp)
    cpu_start = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        code, error = _call_cli(args)
    else:
        with tracer.span("cli.run", points=item["points"]):
            code, error = _call_cli(args)
    seconds = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    problems, headroom = [], math.inf
    if code != 0:
        problems.append(f"exit code {code}" + (f": {error.strip()}" if error else ""))
    try:
        verify = _verify_run if item["command"] == "run" else _verify_cross_validate
        found, headroom = verify(item, tmp)
        problems += found
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return {"name": item["name"], "points": item["points"], "seconds": seconds, "cpu_s": cpu_s,
            "exit_code": code, "problems": problems, "headroom": headroom}


def run_items(items, seconds, tmp):
    """Invoke items in order, cycling, until ``seconds`` have passed (at least one)."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(invoke(items[len(records) % len(items)], tmp))
    return records


def run_paired(items, seconds, tmp, tracer):
    """Untraced and traced calls of the same item, one after the other.

    A first untraced call warms the interpreter up; then items are taken in
    order, cycling, each called untraced and at once traced, until
    ``seconds`` have passed (at least one pair). Returns the untraced
    records (warm-up included), the traced records, and the median
    traced-minus-untraced seconds per pair.
    """
    import tracing

    plain, traced = [invoke(items[0], tmp)], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        item = items[len(traced) % len(items)]
        plain.append(invoke(item, tmp))
        with tracing.traced(tracer):
            traced.append(invoke(item, tmp, tracer))
    overhead = statistics.median([t["seconds"] - u["seconds"]
                                  for u, t in zip(plain[1:], traced)])
    return plain, traced, overhead


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    items, tmp = spec["items"], spec["tmp"]
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["workload"])
        plain, traced, overhead = run_paired(items, spec["seconds"], tmp, tracer)
        result = {"records": plain, "traced_records": traced, "trace": tracer.summary()}
        result["trace"]["overhead_s"] = overhead
        tracer.dump(spec["trace_file"])
    else:
        result = {"records": run_items(items, spec["seconds"], tmp)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--import-only"]:
        print(repr(IMPORT_S))
    else:
        main(sys.argv[1])
