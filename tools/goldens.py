"""Golden hashes of the CLI's outputs: the byte-identity gate for refactors.

Usage, from the root of a checkout::

    python3 tools/goldens.py --out base.json              # record
    python3 tools/goldens.py --compare base.json          # check against a record
    python3 tools/goldens.py --compare tests/goldens.json # the record the test suite checks
    python3 tools/goldens.py --diff ../parent             # how far each value moved from another checkout's
    python3 tools/goldens.py --diff . --base-env NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"

A record holds the Python, numpy and orjson versions and numpy's CPU dispatch
level it was taken under (``versions``) and maps each output file to its
sha256 (``files``).  Outputs are byte-identical only on one platform and
dispatch level.  It covers

* the four ``scripts/`` runs, each in its own working directory
  (a script's standard output is kept too, as ``scripts/<script>/stdout``);
* every job of ``perfbench.workloads.jobs(w, s)`` for each workload ``w``
  and ``s`` in {0, 1}, run in-process through ``dirac_qca.cli.main`` with
  one output directory per job;
* ``kernel/alpha_beta_mu.txt``: ``discrimination._alpha_beta`` and ``mu``
  over a fixed grid of momenta, masses and times, each value spelled by
  ``repr``, so the kernel's own bits are gated and ``--diff`` sizes a move.

The package is imported from this checkout's ``src``.  To record the
goldens of another commit, run the script from a copy of that commit.
``--compare`` exits 1 and lists every file that is missing, extra or
different, and names both sets of versions when they differ; otherwise it
exits 0.  ``tests/test_goldens.py`` runs the same comparison against
``tests/goldens.json``: a change that moves an output on purpose records
that file again, under the versions it names.

``--diff CHECKOUT`` writes the outputs of that checkout (its own ``src``,
``scripts`` and ``perfbench/workloads.py``, run in a fresh interpreter) and
of this one, and prints one line per file that is missing, extra or
different.  A differing file whose text matches once every number in it is
masked gets the largest change of its numbers in ulps of the other
checkout's value, and the largest change relative to the peak absolute
value of its column (CSV) or of the file (JSON, SVG, stdout); values that
leave 0 or reach it are counted apart.  It exits as ``--compare`` does.
``--base-env NAME=VALUE``, which may be repeated, sets a variable for the
interpreter that writes the other checkout's outputs alone.  With ``--diff .``
and numpy's ``NPY_DISABLE_CPU_FEATURES``, as in the last usage line, it sizes
how far each output moves from a lower CPU dispatch level to this one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPTS = ["reproduce_fig2.py", "reproduce_fig3.py", "reproduce_fig4.py", "headline_numbers.py"]
SEEDS = (0, 1)
# the kernel file's grid: both half-zones, k down to 1e-300 and the zone edge, masses from 0 to 1, times to 1e20
KERNEL_KS = np.array([0.0, 1e-300, 1e-160, 1e-19, 1e-8, 1e-3, 0.5, -1.0, np.nextafter(np.pi / 2, 0.0), np.pi / 2,
                      2.0, -3.0, np.nextafter(np.pi, 0.0), np.pi])
KERNEL_MASSES = (0.0, 1e-19, 0.01, 0.6, 1.0)
KERNEL_TIMES = (0.0, 10.0, 1e20)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict:
    """Each file under ``root``, keyed by its relative POSIX path."""
    return {path.relative_to(root).as_posix(): path for path in sorted(root.rglob("*")) if path.is_file()}


def emit(root: Path, dest: Path):
    """Write every output of the checkout at ``root`` under ``dest``, as ``scripts/<script>/...`` and ``jobs/...``.

    The jobs run in this process through the importable ``dirac_qca``, which must be ``root``'s own.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name in SCRIPTS:
        cwd = dest / "scripts" / name
        cwd.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / name)], cwd=cwd, env=env, capture_output=True, check=True
        )
        (cwd / "stdout").write_bytes(done.stdout)

    from dirac_qca.cli import main

    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.GENERATORS:
        for seed in SEEDS:
            for i, job in enumerate(workloads.jobs(workload, seed)):
                code = main(job + ["--out-dir", str(dest / "jobs" / workload / f"s{seed}" / f"job{i:02d}")])
                if code != 0:
                    raise RuntimeError(f"{workload} seed {seed} job {i} exited {code}: {job}")
    (dest / "kernel").mkdir()
    (dest / "kernel" / "alpha_beta_mu.txt").write_text(_kernel_text(), encoding="utf-8")


def _kernel_text() -> str:
    """One line per mass and momentum of the kernel grid: m, k, alpha, beta, sigma and mu at each time, by ``repr``."""
    from dirac_qca.discrimination import _alpha_beta, mu

    lines = ["m k alpha beta sigma " + " ".join(f"mu(t={t!r})" for t in KERNEL_TIMES)]
    with np.errstate(all="ignore"):  # beta and mu are nan where sin omega underflows (k = 1e-300 at m = 0)
        for m in KERNEL_MASSES:
            columns = [KERNEL_KS, *_alpha_beta(KERNEL_KS, m), *(mu(KERNEL_KS, m, t) for t in KERNEL_TIMES)]
            lines += [" ".join(map(repr, [m, *map(float, row)])) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def dispatch() -> str:
    """numpy's active x86 dispatch level, the highest of X86_V4, X86_V3 and X86_V2 it reports, else the machine.

    numpy picks its SIMD loops for arctan2, arcsin, exp, log and power by this level at run time, and they round
    differently from one level to the next, so a record binds only on its own level.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return next((level for level in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(level)), platform.machine())


def versions() -> dict:
    import numpy
    import orjson

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "orjson": orjson.__version__,
        "dispatch": dispatch(),
    }


def hashes(dest: Path) -> dict:
    """The versions and the hash of each output file under ``dest``, as ``emit`` wrote them in this interpreter."""
    return {"versions": versions(), "files": {key: _sha256(path.read_bytes()) for key, path in _files(dest).items()}}


def record() -> dict:
    """The versions and the hashes of every output file of this checkout."""
    with tempfile.TemporaryDirectory() as work:
        emit(ROOT, Path(work))
        return hashes(Path(work))


def _differences(base: dict, current: dict, change) -> list:
    """One line per key missing from ``current``, extra in it, or whose ``change(old, new)`` is not None."""
    lines = []
    for key in sorted(base.keys() | current.keys()):
        if key not in current:
            lines.append(f"missing  {key}")
        elif key not in base:
            lines.append(f"extra    {key}")
        elif (note := change(base[key], current[key])) is not None:
            lines.append(f"differs  {key}{note}")
    return lines


def compare(current: dict, base: dict) -> list:
    """One line per difference between two records: their versions, then each missing, extra or differing file."""
    lines = []
    if current["versions"] != base["versions"]:
        lines.append(f"versions differ: recorded under {base['versions']}, run under {current['versions']}")
    return lines + _differences(base["files"], current["files"], lambda old, new: "" if old != new else None)


# a decimal number, nan or inf, as the CSV, JSON, SVG and stdout texts spell them
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def _split(path: Path):
    """(the text with its numbers masked, the numbers): a row per CSV line below the header, else one column."""
    text = path.read_text(encoding="utf-8")
    head, columns = "", 1
    if path.suffix == ".csv":
        head, _, text = text.partition("\n")
        columns = head.count(",") + 1
    numbers = np.array([float(token) for token in _NUMBER.findall(text)])
    return head + _NUMBER.sub("#", text), numbers.reshape(-1, columns)


def value_change(old: Path, new: Path) -> str:
    """How far ``new``'s numbers moved from ``old``'s: max ulps of the old value, and max change over the old peak.

    The peak is the largest finite |value| of each CSV column, and of the whole file for any other file.  A value
    that leaves 0 or reaches it (the other side finite) has no ulp scale on one side: it is counted apart, as
    "n values left 0" or "n values reached 0", and kept out of the ulp maximum.
    """
    (old_mask, a), (new_mask, b) = _split(old), _split(new)
    if old_mask != new_mask:
        return "text differs beyond its numbers"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if np.all(same):
        return "0 ulp (same values, spelled differently)"
    delta = np.where(same, 0.0, np.abs(b - a))  # nan where one side alone is nan, and then so are both figures
    left, reached = (a == 0.0) & np.isfinite(b) & ~same, (b == 0.0) & np.isfinite(a) & ~same
    scaled = ~(same | left | reached)
    parts = [f"max {np.max(delta[scaled] / np.spacing(np.abs(a[scaled]))):.3g} ulp"] if np.any(scaled) else []
    for count, verb in ((np.count_nonzero(left), "left"), (np.count_nonzero(reached), "reached")):
        if count:
            parts.append(f"{count} value{'' if count == 1 else 's'} {verb} 0")
    peak = np.max(np.abs(a), axis=0, where=np.isfinite(a), initial=0.0)
    share = np.divide(delta, peak, out=np.zeros_like(delta), where=delta > 0.0)  # 0 / 0 is no change
    return ", ".join(parts + [f"{np.max(share):.3g} of the peak"])


def value_diff(base: Path, current: Path) -> list:
    """One line per output file that is missing from ``current``, extra in it, or different, with ``value_change``."""

    def change(old: Path, new: Path):
        return f": {value_change(old, new)}" if old.read_bytes() != new.read_bytes() else None

    return _differences(_files(base), _files(current), change)


# emit(root, dest) in a fresh interpreter that imports dirac_qca from root's src: argv = [-c, root, dest, tools]
_EMIT = "import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[3]]; from pathlib import Path; import goldens; \
goldens.emit(Path(sys.argv[1]), Path(sys.argv[2]))"


def _diff(checkout: Path, base_env=None) -> list:
    """``value_diff`` of this checkout's outputs against those of ``checkout``, each written in a fresh interpreter.

    ``base_env`` (a dict) is added to the environment of ``checkout``'s interpreter only.
    """
    with tempfile.TemporaryDirectory() as work:
        base, current = Path(work, "base"), Path(work, "current")
        sides = ((checkout, base, dict(os.environ, **base_env) if base_env else None), (ROOT, current, None))
        for root, dest, env in sides:
            command = [sys.executable, "-c", _EMIT, str(root), str(dest), str(Path(__file__).parent)]
            subprocess.run(command, env=env, capture_output=True, check=True)
        return value_diff(base, current)


def _assignment(text: str):
    """``NAME=VALUE`` as (NAME, VALUE), for ``--base-env``."""
    name, equals, value = text.partition("=")
    if not name or not equals:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the hashes to this JSON file")
    parser.add_argument("--compare", metavar="BASE.json", help="compare against a recorded hash file")
    parser.add_argument("--diff", metavar="CHECKOUT", help="compare the values of each output with another checkout's")
    parser.add_argument(
        "--base-env",
        metavar="NAME=VALUE",
        type=_assignment,
        action="append",
        default=[],
        help="with --diff: set this variable for the interpreter that writes CHECKOUT's outputs (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.base_env and not args.diff:
        parser.error("--base-env needs --diff")

    sys.path.insert(0, str(SRC))
    if args.diff:
        differences = _diff(Path(args.diff).resolve(), dict(args.base_env))
        for line in differences:
            print(line)
        print(f"{len(differences)} files differ from {args.diff}'s")
        return 1 if differences else 0
    current = record()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"{len(current['files'])} files hashed")
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            differences = compare(current, json.load(handle))
        for line in differences:
            print(line)
        if differences:
            print(f"{len(differences)} differences from {args.compare}")
            return 1
        print(f"all files match {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
