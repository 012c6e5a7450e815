"""Seeded benchmark of the thermoq CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; thermoq is imported from ``src``.
Workloads and the metrics they report are described in perfbench/NOTES.md.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
import time of thermoq and its dependencies over several fresh
interpreters; one fresh worker interpreter then calls the CLI on the
seed's items for ``--seconds`` and reports verified points per second and
its peak resident memory. ``--trace 1`` calls each item untraced and then
traced, pair after pair, and reports per-layer metrics; the spans are written to
``.perfbench_work/traces/``.

Every CLI call's verification output is checked. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any point failed verification, and 2
(with no JSON line) when the benchmark itself could not run.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 7
# One BLAS thread: steadier than two on a shared two-core machine, and
# within the machine's core count wherever it runs.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 165



class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def worker_env(tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["THERMOQ_OUTPUT_DIR"] = tmp
    return env


def _run_worker(args, env, timeout):
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def measure_setup(env, probes=SETUP_PROBES):
    """Median import time of thermoq, numpy, scipy and click in fresh interpreters."""
    times = [float(_run_worker(["--import-only"], env, 60).strip().splitlines()[-1])
             for _ in range(probes)]
    return statistics.median(times)


def run_worker(workload, seed, items, seconds, trace, tmp, env):
    spec = {"workload": workload, "items": items, "seconds": seconds, "trace": trace,
            "tmp": tmp, "result": os.path.join(tmp, "result.json"),
            "trace_file": os.path.join(WORK, "traces", f"{workload}-seed{seed}.json")}
    if trace:
        os.makedirs(os.path.dirname(spec["trace_file"]), exist_ok=True)
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    _run_worker([spec_path], env, WORKER_TIMEOUT_S)
    with open(spec["result"]) as fh:
        return json.load(fh)


def tally(records):
    """(attempted points, failed points, seconds, problems) over CLI calls.

    A call that exits nonzero or whose verification output reports a failed
    check counts all its points as failed: the report names only the worst
    point of each check.
    """
    attempted = sum(r["points"] for r in records)
    failed = sum(r["points"] for r in records if r["problems"])
    seconds = sum(r["seconds"] for r in records)
    problems = [f"{r['name']}: {p}" for r in records for p in r["problems"]]
    return attempted, failed, seconds, problems


def end_to_end(result, setup_s):
    attempted, failed, seconds, problems = tally(result["records"])
    metrics = {"points_per_s": (attempted - failed) / seconds,
               "peak_rss_mb": result["peak_rss_mb"], "setup_s": setup_s}
    return attempted, failed, problems, metrics


def per_layer(result, items):
    records = result["records"] + result["traced_records"]
    attempted, failed, _, problems = tally(records)
    metrics = dict(result["trace"]["metrics"])
    metrics["linalg.tail_weight_max"] = max(i["tail_weight"] for i in items)
    headrooms = [r["headroom"] for r in records if math.isfinite(r["headroom"])]
    metrics["validate.headroom_min"] = min(headrooms) if headrooms else 0.0
    metrics["trace.overhead_s"] = result["trace"]["overhead_s"]
    return attempted, failed, problems, metrics


def units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def benchmark(workload, seed, seconds, trace, items=None):
    """Run one measurement on ``items`` (default: the seed's full-size inputs)."""
    import generate

    if items is None:
        items = generate.generate(workload, seed)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        env = worker_env(tmp)
        if trace:
            result = run_worker(workload, seed, items, seconds, True, tmp, env)
            attempted, failed, problems, metrics = per_layer(result, items)
        else:
            setup_s = measure_setup(env)
            result = run_worker(workload, seed, items, seconds, False, tmp, env)
            attempted, failed, problems, metrics = end_to_end(result, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calls = [(r["seconds"], r["cpu_s"]) for r in result["records"]]
    unit = units()
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "calls": calls,
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
            "problems": problems, "self_times": result.get("trace", {}).get("self_times"),
            "items": items}


def report(out, workload, seed):
    items = out["items"]
    print(f"workload {workload} seed {seed}: d = {items[0]['dim']}, "
          f"{items[0]['outcomes']} outcomes per point, BLAS threads {BLAS_THREADS}")
    print(f"{len(out['calls'])} untraced CLI calls, seconds each: "
          + " ".join(f"{s:.3f} (cpu {c:.3f})" for s, c in out["calls"]))
    if out["self_times"]:
        print(f"{'span':34s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s} {'median_s':>10s}")
        for name, row in out["self_times"].items():
            print(f"{name:34s} {row['calls']:6d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {row['median_s']:10.4f}")
        print("cli.overhead_s is an estimate: CLI time per point minus the layer "
              "spans inside it")
    for name, m in out["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_fraction':34s} {out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} points)")
    for problem in out["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "thermoq", "__init__.py")):
        print(f"thermoq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    report(out, args.workload, args.seed)
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
