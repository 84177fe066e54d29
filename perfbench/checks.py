"""Output checks for one CLI job, read back from the files the job wrote.

Each check returns a list of failure messages; an empty list means the
job's outputs are correct.  Parameters come from the argument list the
harness generated, not from the program's own echo of them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

NORM_TOL = 1e-12
SYMMETRY_TOL = 1e-12
BOUND_SLACK = 1e-9  # the validator's own violation threshold
CAP_REL_TOL = 1e-12


def num(value) -> float:
    """A JSON number, or the CLI's "inf"/"-inf"/"nan" strings, as a float."""
    if value is None:
        return math.nan
    return float(value)


def flags(argv) -> dict:
    """``--name value`` pairs of a job (bare flags map to True)."""
    out = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def hash_outputs(out_dir: str) -> dict:
    """sha256 of every file a job left in its output directory."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def analytic_cap(g: float) -> float:
    """The validator's trace-distance cap sqrt(1 - cos^2 g) from the discriminate g."""
    return math.sqrt(max(0.0, 1.0 - math.cos(g) ** 2))


def _evolve(results, argv, out_dir, reference):
    errors = []
    for row in results["summaries"]:
        if not abs(num(row["norm"]) - 1.0) <= NORM_TOL:
            errors.append(f"evolve t={row['t']}: norm {row['norm']} not within {NORM_TOL} of 1")
    return errors


def _compare(results, argv, out_dir, reference):
    return [
        f"compare t={row['t']}: fidelity {row['fidelity']} below bound {row['bound']}"
        for row in results["rows"]
        if not num(row["fidelity"]) >= num(row["bound"])
    ]


def _dispersion(results, argv, out_dir, reference):
    samples = int(flags(argv)["samples"])
    errors = []
    tables = [name for name in results["files"] if name.endswith(".csv")]
    if not tables:
        errors.append("dispersion wrote no CSV table")
    for name in tables:
        with open(os.path.join(out_dir, name), newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        if len(rows) != samples:
            errors.append(f"{name}: {len(rows)} rows, expected {samples}")
        if not all(0.0 <= float(row[1]) <= math.pi for row in rows):
            errors.append(f"{name}: omega outside [0, pi]")
    return errors


def _symcheck(results, argv, out_dir, reference):
    residual = num(results["max_residual"])
    return [] if residual < SYMMETRY_TOL else [f"symcheck max_residual {residual} >= {SYMMETRY_TOL}"]


def _discriminate(results, argv, out_dir, reference):
    errors = []
    if not (num(results["alpha_bar"]) >= 0.0 and num(results["beta_bar"]) >= 0.0):
        errors.append("discriminate: alpha_bar or beta_bar negative or nan")
    if results["hypotheses_ok"]:
        g, pe = num(results["g"]), num(results["pe_lower"])
        if not (0.0 <= g <= math.pi / 2 + 1e-12 and 0.0 <= pe <= 0.5):
            errors.append(f"discriminate: g={g} or pe_lower={pe} out of range")
    if "solve_tmin" in flags(argv):
        t_exact = results["t_min_exact"]
        if not 0.0 < num(results["t_min"]) < math.inf:
            errors.append(f"discriminate: t_min {results['t_min']} not positive and finite")
        if t_exact is not None and not num(t_exact) > 0.0:
            errors.append(f"discriminate: t_min_exact {t_exact} not positive")
    return errors


def _flytime(results, argv, out_dir, reference):
    ratio = num(results["visibility_ratio"])
    errors = []
    if not (num(results["t_general"]) > 0.0 and num(results["t_relativistic"]) > 0.0):
        errors.append("flytime: separation times not positive")
    if not (num(results["broadening_at_t"]) >= 0.0 and ratio > 0.0):
        errors.append("flytime: broadening negative or visibility ratio not positive")
    if results["low_visibility"] != (ratio < 10.0):
        errors.append("flytime: low_visibility flag disagrees with the visibility ratio")
    return errors


def _validate_bound(results, argv, out_dir, reference):
    bound, observed = num(results["bound"]), num(results["max_observed"])
    errors = []
    if not 0.0 <= observed <= bound + BOUND_SLACK:
        errors.append(f"validate-bound: max_observed {observed} outside [0, bound + {BOUND_SLACK}]")
    p = flags(argv)
    cap = reference(p["m"], p["kbar"], p["nbar"], p["t"])
    if not abs(bound - cap) <= CAP_REL_TOL * max(1.0, cap):
        errors.append(f"validate-bound: bound {bound} differs from the discriminate cap {cap}")
    return errors


CHECKS = {
    "evolve": _evolve,
    "compare": _compare,
    "dispersion": _dispersion,
    "symcheck": _symcheck,
    "discriminate": _discriminate,
    "flytime": _flytime,
    "validate-bound": _validate_bound,
}


def check_job(argv, out_dir, reference) -> list:
    """Failure messages for one job whose CLI call returned 0.

    ``reference(m, kbar, nbar, t)`` returns the analytic cap computed through
    a ``discriminate`` call with the same inputs.
    """
    command = argv[0]
    path = os.path.join(out_dir, command.replace("-", "_") + ".json")
    try:
        with open(path, encoding="utf-8") as handle:
            summary = json.load(handle)
        if summary.get("command") != command:
            return [f"{path}: command {summary.get('command')!r}, expected {command!r}"]
        return CHECKS[command](summary["results"], argv, out_dir, reference)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable output ({type(exc).__name__}: {exc})"]
