"""Benchmark of the dirac_qca CLI: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload propagate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--workload`` is one of propagate, spectrum-scan, montecarlo, or ``all``
(each workload in turn).  The package is driven only through
``dirac_qca.cli.main([...])``, in-process, inside one fresh child process
per workload (``child.py``); the jobs run closed-loop, one client, each job
starting when the previous one has returned.  The workload seed is an
argument of this script; the child receives only the generated CLI
arguments.

``--trace 0`` prints the end-to-end metrics: set-up time, median pass time,
jobs per second and the child's peak RSS; the table before the JSON line
adds the error rate and the tail pass time with its sample count.
``--trace 1`` runs the workload twice, untraced and then traced (each for
half the run length), and prints the per-layer metrics of the traced run
together with the tracing overhead, traced minus untraced median pass time.
Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller report with the
provenance of the run goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAUNCHES = 8
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1  # so that pass_s.tail always exists
HARD_SECONDS = 120
PROPAGATE_ARRAY_BYTES = 65536 * 2 * 16  # one (L, 2) complex128 field at L = 65536


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_CAPS)
    return env


def measure_setup() -> float:
    """Seconds from launching a fresh interpreter until ``import dirac_qca.cli`` completes.

    The child prints its monotonic clock right after the import; Linux
    ``perf_counter`` is the system-wide CLOCK_MONOTONIC, so the two clocks
    agree.
    """
    code = "import time, dirac_qca.cli; print(repr(time.perf_counter()))"
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise BenchError(f"importing dirac_qca.cli failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]) - t0


def run_child(workload: str, jobs: list, seconds: float, trace: bool, min_passes: int, hard_seconds: float):
    """Run one workload in a fresh child; return (result dict, child peak RSS in MiB)."""
    work = STATE / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (STATE / "results").mkdir(exist_ok=True)
    spec = {
        "jobs": jobs,
        "src": str(SRC),
        "work_dir": str(work),
        "seconds": seconds,
        "min_passes": min_passes,
        "hard_seconds": hard_seconds,
        "trace": trace,
        "result_path": str(work / "result.json"),
        "spans_path": str(STATE / "results" / f"spans-{workload}.npz"),
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        env=child_env(),
        cwd=ROOT,
        stdout=sys.stderr.fileno(),
    )
    # wait4 rather than wait: it hands back the child's own rusage; the
    # alarm is the watchdog for a child that overruns its hard limit
    signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
    signal.alarm(int(hard_seconds) + 20)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.alarm(0)
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with {proc.returncode}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    shutil.rmtree(work, ignore_errors=True)
    return result, usage.ru_maxrss / 1024.0  # Linux reports ru_maxrss in KiB


def tail(samples: list):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond it).  Below 2 * TAIL_BEYOND + 1
    samples this order statistic sits at or below the median.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def provenance(workload: str, seed: int, seconds: float, child: dict) -> dict:
    l2 = getconf("LEVEL2_CACHE_SIZE")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": child["python"],
        "numpy": child["numpy"],
        "l2_bytes": l2,
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "thread_caps": THREAD_CAPS,
        "propagate_array_bytes_computed": PROPAGATE_ARRAY_BYTES,
        "propagate_array_note": (
            "computed from array shape, not measured: one 65536x2 complex128 field is "
            f"{PROPAGATE_ARRAY_BYTES} B against an L2 of {l2} B; no bandwidth is measured"
        ),
    }


def end_to_end(workload: str, jobs: list, seconds: float, names: list) -> tuple:
    # half the set-up launches before the child and half after it, so that
    # one slow moment of a shared host does not set the median
    measure_setup()  # untimed: fills the bytecode and page caches
    setup = [measure_setup() for _ in range(SETUP_LAUNCHES // 2)]
    result, rss_mb = run_child(workload, jobs, seconds, False, MIN_PASSES, HARD_SECONDS)
    setup += [measure_setup() for _ in range(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)]
    passes = result["passes"]
    tail_value, tail_pct, beyond = tail(passes)
    computed = {
        "setup_s": statistics.median(setup),
        "pass_s.p50": statistics.median(passes),
        "jobs_per_s": result["jobs_per_pass"] * len(passes) / sum(passes),
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: computed[name] for name in names}
    extra = {
        "error_rate": result["failed"] / result["attempted"],
        "pass_s.tail": tail_value,
        "pass_s.tail.percentile": tail_pct,
        "pass_s.tail.samples_beyond": beyond,
        "passes": len(passes),
        "pass_s.samples": passes,
        "setup_s.samples": setup,
    }
    return metrics, extra, result


def per_layer(workload: str, jobs: list, seconds: float, names: list) -> tuple:
    half = seconds / 2.0
    base, _ = run_child(workload, jobs, half, False, 5, HARD_SECONDS / 2.5)
    result, _ = run_child(workload, jobs, half, True, 3, HARD_SECONDS / 2.5)
    layers = result["layers"]
    untraced_p50 = statistics.median(base["passes"])
    traced_p50 = layers["pass"]["p50_s"]

    def figure(span, key):
        return layers[span][key]

    def ratio(a, b):
        return a / b if b else 0.0

    mu, validator = "discrimination.mu", "discrimination.validate_bound_montecarlo"
    special = {
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.uncovered_share": layers["pass"]["uncovered_share"],
        "discrimination.mu.useful_ratio": ratio(figure(validator, "value"), figure(mu, "value")),
    }
    metrics = {}
    for name in names:
        span, stat = name.rsplit(".", 1)
        if name in special:
            metrics[name] = special[name]
        elif stat in ("self_s", "calls", "peak_mb"):
            metrics[name] = figure(span, stat)
        elif stat == "points_per_call":
            metrics[name] = ratio(figure(span, "value"), figure(span, "calls"))
        else:  # site_steps, bytes, k_evals: the span's summed count
            metrics[name] = figure(span, "value")
    for key in ("attempted", "failed", "failures"):
        result[key] += base[key]
    extra = {
        "error_rate": result["failed"] / result["attempted"],
        "untraced_pass_s.p50": untraced_p50,
        "traced_pass_s.p50": traced_p50,
        "traced_passes": layers["pass"]["passes"],
        "layers": layers,
    }
    return metrics, extra, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Measure one workload; ``units`` maps each metric to report to its unit."""
    jobs = workloads.jobs(workload, seed)
    measure = per_layer if trace else end_to_end
    metrics, extra, result = measure(workload, jobs, seconds, list(units))
    report = {
        "provenance": provenance(workload, seed, seconds, result),
        "why": workloads.WHY[workload],
        "jobs": jobs,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "extra": extra,
    }
    path = STATE / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def print_table(workload: str, report: dict):
    rows = [(name, m["value"], m["unit"]) for name, m in report["metrics"].items()]
    extra = report["extra"]
    rows.append(("error_rate", extra["error_rate"], "ratio"))
    if "pass_s.tail" in extra:
        rows.append(("pass_s.tail", extra["pass_s.tail"], "s"))
        rows.append(("pass_s.tail.percentile", extra["pass_s.tail.percentile"], "%"))
        rows.append(("pass_s.tail.samples_beyond", extra["pass_s.tail.samples_beyond"], "count"))
        rows.append(("passes", extra["passes"], "count"))
    for name, value, unit in rows:
        print(f"{workload:14s} {name:50s} {value:>16.6g} {unit}")
    for message in report["failures"]:
        print(f"{workload:14s} FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so run_child's cleanup stops the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "dirac_qca" / "cli.py").is_file():
        print(f"no dirac_qca sources under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    names = sorted(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    try:
        reports = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), units) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, report in reports.items():
        print_table(name, report)
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    if args.workload == "all":
        metrics = {f"{w}/{k}": v for w, r in reports.items() for k, v in r["metrics"].items()}
    else:
        metrics = reports[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
