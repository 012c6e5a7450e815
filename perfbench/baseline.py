"""Measure the benchmark twice over seeds and record each metric's spread.

    python3 perfbench/baseline.py

Run from the repository root; it rewrites perfbench/BASELINE.json. For
every workload it runs ``run.py --trace 0`` on seeds 1-10 (the first set)
and then on seeds 11-20 (the repeat), plus one ``--trace 1`` run on seed 1
for the per-layer figures. Per end-to-end metric it records the median,
the quartiles and the spread (interquartile distance as a share of the
median, with the quartiles of ``statistics.quantiles(values, n=4)``) next
to the metric's bound from BENCHMARK.json, and for the repeat the change
of its median from the first set's, with a block describing the machine.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEEDS = list(range(1, 11))
REPEAT_SEEDS = list(range(11, 21))


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal"))
    sys.path.insert(0, HERE)
    import run

    return {"nproc": os.cpu_count(), "ram_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": run.BLAS_THREADS, "cpu": platform.processor() or platform.machine()}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def measure_set(workload, seeds, spec):
    """(attempted, failed, metric -> spread stats and bound) over ``seeds``."""
    results = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds]
    if not all(r["correct"] for r in results):
        raise SystemExit(f"{workload}: a run failed verification")
    metrics = {}
    for m in spec["end_to_end"]:
        stats = spread([r["metrics"][m["name"]]["value"] for r in results])
        metrics[m["name"]] = {**stats, "bound": m["bound"], "unit": m["unit"]}
        print(f"{workload:16s} seeds {seeds[0]}-{seeds[-1]} {m['name']:14s} median "
              f"{stats['median']:.5g} spread {stats['spread']:.4f} bound {m['bound']}",
              flush=True)
    return (sum(r["attempted"] for r in results), sum(r["failed"] for r in results),
            metrics)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"measured": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           "machine": machine(), "run_seconds": spec["run_seconds"], "seeds": FIRST_SEEDS,
           "workloads": {},
           "note": f"workloads: {len(FIRST_SEEDS)} runs per workload on seeds "
                   f"{FIRST_SEEDS[0]}-{FIRST_SEEDS[-1]}, per_layer from one traced run on "
                   f"seed {FIRST_SEEDS[0]}. repeat: a second set of runs of the same code "
                   f"on seeds {REPEAT_SEEDS[0]}-{REPEAT_SEEDS[-1]}, its medians and "
                   f"their change from the first set's medians."}
    for workload in workloads:
        attempted, failed, metrics = measure_set(workload, FIRST_SEEDS, spec)
        traced = run_once(workload, FIRST_SEEDS[0], spec["run_seconds"], 1)
        out["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
    out["repeat"] = {"measured": datetime.now(timezone.utc).isoformat(timespec="seconds"),
                     "seeds": REPEAT_SEEDS, "workloads": {}}
    for workload in workloads:
        first = out["workloads"][workload]["end_to_end"]
        _, _, metrics = measure_set(workload, REPEAT_SEEDS, spec)
        out["repeat"]["workloads"][workload] = {
            name: {"median": m["median"], "spread": m["spread"],
                   "change_from_first": m["median"] / first[name]["median"] - 1,
                   "bound": m["bound"]}
            for name, m in metrics.items()}
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
