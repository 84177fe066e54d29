"""One workload in a fresh process: closed-loop passes through ``dirac_qca.cli.main``.

Usage: ``python3 perfbench/child.py SPEC.json``, started by ``run.py`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  The spec names the job
list, the output directory, the run length and whether to trace; the
result is written as JSON to the spec's ``result_path``.

The first pass is a warm-up: untimed, checked, and the source of the
reference hash of every output file.  Timed passes follow back to back,
each checked after its timer stops, until the run length has passed and at
least ``min_passes`` passes are done.  A job fails on a nonzero exit code,
an exception, a failed output check, or output bytes that differ from the
warm-up pass.
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks

MAX_FAILURE_MESSAGES = 20


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    import dirac_qca
    import dirac_qca.cli as cli
    import numpy

    package_dir = os.path.realpath(os.path.dirname(dirac_qca.__file__))
    if os.path.dirname(package_dir) != os.path.realpath(spec["src"]):
        print(f"dirac_qca imported from {package_dir}, not from the checkout", file=sys.stderr)
        return 3

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    work = spec["work_dir"]
    argvs = [job + ["--out-dir", os.path.join(work, f"job{i:02d}")] for i, job in enumerate(spec["jobs"])]
    caps = {}

    def reference(m, kbar, nbar, t):
        key = (m, kbar, nbar, t)
        if key not in caps:
            out = os.path.join(work, "reference")
            argv = ["discriminate", "--m", m, "--kbar", kbar, "--nbar", nbar, "--t", t, "--out-dir", out]
            if cli.main(argv) != 0:
                raise RuntimeError("reference discriminate call failed")
            with open(os.path.join(out, "discriminate.json"), encoding="utf-8") as handle:
                caps[key] = checks.analytic_cap(checks.num(json.load(handle)["results"]["g"]))
        return caps[key]

    codes = [None] * len(argvs)

    def body():
        for i, argv in enumerate(argvs):
            try:
                codes[i] = cli.main(argv)
            except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
                codes[i] = f"{type(exc).__name__}: {exc}"

    def run_pass():
        if tracer is not None:
            return tracer.run_pass(body)
        t0 = time.perf_counter()
        body()
        return time.perf_counter() - t0

    hashes = [None] * len(argvs)
    tally = {"attempted": 0, "failed": 0, "messages": []}

    def check_pass():
        for i, argv in enumerate(argvs):
            errors = [f"exit {codes[i]}"] if codes[i] != 0 else checks.check_job(argv, argv[-1], reference)
            digest = checks.hash_outputs(argv[-1]) if os.path.isdir(argv[-1]) else {}
            if hashes[i] is None:
                hashes[i] = digest
            elif digest != hashes[i]:
                errors.append("output bytes differ from the warm-up pass")
            tally["attempted"] += 1
            if errors:
                tally["failed"] += 1
                if len(tally["messages"]) < MAX_FAILURE_MESSAGES:
                    tally["messages"].append(f"{' '.join(argv[:-2])}: {'; '.join(errors)}")

    run_pass()
    check_pass()

    passes = []
    started = time.perf_counter()
    deadline = started + spec["seconds"]
    while len(passes) < spec["min_passes"] or time.perf_counter() < deadline:
        if time.perf_counter() - started > spec["hard_seconds"]:
            break
        if tracer is not None:
            tracer.pass_index = len(passes)
        passes.append(run_pass())
        check_pass()

    if tracer is not None and tracer.calls_of(tracing.MEMORY_SPAN):
        tracer.pass_index = -2
        tracer.memory = True
        run_pass()
        check_pass()

    result = {
        "passes": passes,
        "jobs_per_pass": len(argvs),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "failures": tally["messages"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        peaks = tracer.peaks
        result["layers"][tracing.MEMORY_SPAN]["peak_mb"] = max(peaks) / 2**20 if peaks else 0.0
        tracer.write(spec["spans_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
