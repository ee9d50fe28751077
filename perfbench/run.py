"""Run one clinpol benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload chronic_experiment --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` makes
a separate traced run that reports the per-layer metrics. The workloads and
metric names are those of ``BENCHMARK.json``; ``perfbench/README.md`` says
what each metric means and which end-to-end metric it should move.

The program is imported from ``src/`` of the checkout the script sits in;
without it the script exits nonzero. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A failed
output check prints ``"correct": false`` and exits nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# Single-threaded BLAS: runs are steadier and float sums do not depend on the
# thread count, which the pinned digests would otherwise see.
THREAD_CAPS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def load_program():
    """Import clinpol from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "clinpol" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no clinpol sources under {src}")
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(src))
    import clinpol

    if Path(clinpol.__file__).resolve().parent != src / "clinpol":
        raise SystemExit(f"perfbench: clinpol imported from {clinpol.__file__}, "
                         f"not from {src}")
    import numpy

    return numpy.__version__


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def provenance(args, numpy_version) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    numpy_version = load_program()
    import workloads

    w = workloads.WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    prov = provenance(args, numpy_version)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    tally = workloads.Tally()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    details = {}
    try:
        if args.trace:
            details = workloads.traced_run(w, str(work), args.seed, tally)
            metrics = details["metrics"]
        else:
            details = workloads.timed_run(w, str(work), args.seed, args.seconds, tally)
            metrics = {
                "setup_s": statistics.median(details["setup_times"]),
                "op_s_p50": statistics.median(details["op_times"]),
                "peak_rss_mb": peak_rss_mb(),
            }
        for name, digest in sorted(details["digests"].items()):
            print(f"digest {name} {digest}")
        if args.seed == workloads.DEFAULT_SEED:
            pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
            workloads.check_pinned(w, details["digests"], pinned)
        if set(metrics) != set(units):
            raise workloads.CheckError(
                f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                "BENCHMARK.json")
        correct = True
    except Exception:
        traceback.print_exc()
        metrics, correct = {}, False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if correct:
        report(args, w, details, metrics, units)
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if correct else max(tally.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"provenance": prov, "result": result,
                                  "details": details}, indent=2, default=str) + "\n",
                      encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def report(args, w, details, metrics, units) -> None:
    """Human-readable lines; the JSON line after them is the result."""
    for name in units:
        print(f"{name:32s} {metrics[name]:>14.6f} {units[name]}")
    if args.trace:
        return
    ops = details["op_times"]
    print(f"{'samples':32s} {len(details['setup_times'])} set-ups and {len(ops)} "
          "operations, after a warm-up set-up and operation")
    if w.kind == "experiment":
        print(f"{'repeats_per_s':32s} {1.0 / metrics['op_s_p50']:>14.6f} 1/s "
              "(one repeat per operation)")
        share = details["failed_repeats"] / details["repeats"]
        print(f"{'fail_share':32s} {share:>14.6f} ratio "
              f"({details['failed_repeats']} of {details['repeats']} repeats "
              "in failures.csv, identical in every operation)")
    else:
        print(f"{'eval_s_p50':32s} {metrics['op_s_p50']:>14.6f} s")
        print(f"{'fail_share':32s} {0.0:>14.6f} ratio (evaluate passes that failed)")
    print("no tail percentile: a p90 needs ten samples beyond it, so 100 "
          f"operations; this run has {len(ops)}")


if __name__ == "__main__":
    sys.exit(main())
