"""Golden hashes of the CLI's outputs: the byte-identity gate for refactors.

Usage, from the root of a checkout::

    python3 tools/goldens.py --out base.json              # record
    python3 tools/goldens.py --compare base.json          # check against a record
    python3 tools/goldens.py --compare tests/goldens.json # the record the test suite checks

A record holds the Python, numpy and orjson versions it was taken under
(``versions``) and maps each output file to its sha256 (``files``).  It covers

* the four ``scripts/`` runs, each in its own temporary working directory
  (a script's standard output is hashed too, as ``<script>/stdout``);
* every job of ``perfbench.workloads.jobs(w, s)`` for each workload ``w``
  and ``s`` in {0, 1}, run in-process through ``dirac_qca.cli.main`` with
  one output directory per job.

The package is imported from this checkout's ``src``.  To record the
goldens of another commit, run the script from a copy of that commit.
``--compare`` exits 1 and lists every file that is missing, extra or
different, and names both sets of versions when they differ; otherwise it
exits 0.  ``tests/test_goldens.py`` runs the same comparison against
``tests/goldens.json``: a change that moves an output on purpose records
that file again, under the versions it names.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPTS = ["reproduce_fig2.py", "reproduce_fig3.py", "reproduce_fig4.py", "headline_numbers.py"]
SEEDS = (0, 1)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_tree(root: Path, prefix: str, into: dict):
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        into[f"{prefix}/{path.relative_to(root).as_posix()}"] = _sha256(path.read_bytes())


def script_hashes() -> dict:
    hashes = {}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in SCRIPTS:
        with tempfile.TemporaryDirectory() as cwd:
            done = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / name)], cwd=cwd, env=env, capture_output=True, check=True
            )
            hashes[f"scripts/{name}/stdout"] = _sha256(done.stdout)
            _hash_tree(Path(cwd), f"scripts/{name}", hashes)
    return hashes


def workload_hashes() -> dict:
    """The jobs' hashes, all run in this process through the importable ``dirac_qca``."""
    from dirac_qca.cli import main

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    hashes = {}
    for workload in workloads.GENERATORS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as work:
                for i, job in enumerate(workloads.jobs(workload, seed)):
                    out = os.path.join(work, f"job{i:02d}")
                    code = main(job + ["--out-dir", out])
                    if code != 0:
                        raise RuntimeError(f"{workload} seed {seed} job {i} exited {code}: {job}")
                _hash_tree(Path(work), f"jobs/{workload}/s{seed}", hashes)
    return hashes


def versions() -> dict:
    import numpy
    import orjson

    return {"python": platform.python_version(), "numpy": numpy.__version__, "orjson": orjson.__version__}


def record() -> dict:
    """The versions and the hashes of every output file of this checkout."""
    return {"versions": versions(), "files": {**script_hashes(), **workload_hashes()}}


def compare(current: dict, base: dict) -> list:
    """One line per difference between two records: their versions, then each missing, extra or differing file."""
    lines = []
    if current["versions"] != base["versions"]:
        lines.append(f"versions differ: recorded under {base['versions']}, run under {current['versions']}")
    current, base = current["files"], base["files"]
    for key in sorted(base.keys() | current.keys()):
        if key not in current:
            lines.append(f"missing  {key}")
        elif key not in base:
            lines.append(f"extra    {key}")
        elif current[key] != base[key]:
            lines.append(f"differs  {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the hashes to this JSON file")
    parser.add_argument("--compare", metavar="BASE.json", help="compare against a recorded hash file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    hashes = record()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(hashes, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"{len(hashes['files'])} files hashed")
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            differences = compare(hashes, json.load(handle))
        for line in differences:
            print(line)
        if differences:
            print(f"{len(differences)} differences from {args.compare}")
            return 1
        print(f"all files match {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
