"""Experiment runner: subcommand dispatch, CSV/JSON/SVG emission.

Conventions shared by every subcommand:

* outputs land in ``--out-dir`` (default ``out``), written atomically
  (temp file + rename);
* the JSON summary is one object ``{schema_version: 1, command, params,
  results, warnings: []}`` with keys sorted, floats serialized as their
  shortest round-trip decimal, infinities as the string "inf";
* a config file (``--config``) holds flat ``key = value`` lines; command-line
  flags override config keys, unknown keys are errors;
* exit codes: 0 success, 1 usage/config error, 2 numerical-invariant failure.

Re-running a command with the same configuration and seed produces
byte-identical files: nothing here reads the clock or ambient state.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import approx, discrimination, dispersion, flytime, svgplot, wavepacket
from .automaton import AutomatonParams, evolve_momentum, evolve_position, inverse_transform, symmetry_check, transform
from .constants import PLANCK_TIME_SECONDS
from .errors import NumericalInvariantError
from .textfile import write_text

SCHEMA_VERSION = 1
NORM_TOL = 1e-12  # largest |norm - 1| an evolved state may show
FIDELITY_TOL = 1e-12  # largest excess over 1 a fidelity may show
CSV_CHUNK_ROWS = 8192  # a CSV table with more rows is formatted in chunks of this many on worker processes
CSV_MAX_WORKERS = 8  # the chunk pool has one worker per usable CPU, at most this many


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on usage errors; exit code 2 is reserved
    # for numerical failures, so turn them into ConfigError (-> exit 1)
    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str):
    try:
        return [float(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


PRESETS = {
    "fig2": dict(kind="localized", L=128, m=0.92, x0=30.0),
    "fig2-smooth": dict(
        kind="packet", L=128, m=0.92, shape="gaussian", sigma_hat=3.0, k0=0.3 * math.pi, x0=30.0
    ),
    "fig4": dict(
        kind="packet",
        L=1024,
        m=0.6,
        shape="hermite",
        sigma_hat=20.0,
        k0=0.3 * math.pi,
        x0=256.0,
        coeffs=(math.sqrt(1 / 3), 0.0, math.sqrt(4 / 9), 0.0, 0.0, 0.0, 0.0, math.sqrt(2 / 9)),
    ),
}
FIG3_MASSES = [0.0, 0.3, 0.6, 0.9]

# per-command option registry: dest -> (coercion, default); used both for
# config-file parsing and for filling unset flags
OPTIONS = {
    "dispersion": {
        "m": (_float_list, [0.6]),
        "samples": (int, 512),
        "preset": (str, None),
        "svg": (_bool, False),
    },
    "evolve": {
        "preset": (str, None),
        "times": (_float_list, [0.0, 100.0, 200.0, 600.0]),
        "L": (int, 1024),
        "m": (float, 0.6),
        "sigma_hat": (float, 20.0),
        "k0": (float, 0.3 * math.pi),
        "x0": (float, 256.0),
        "branch": (int, 1),
        "svg": (_bool, False),
    },
    "compare": {
        "preset": (str, "fig4"),
        "times": (_float_list, [0.0, 100.0, 200.0, 600.0]),
        "sigma": (float, None),
        "svg": (_bool, False),
    },
    "discriminate": {
        "m": (float, None),
        "kbar": (float, None),
        "nbar": (int, 1),
        "t": (float, 0.0),
        "solve_tmin": (_bool, False),
    },
    "flytime": {
        "m": (float, None),
        "k": (float, None),
        "sigma_hat": (float, None),
    },
    "validate-bound": {
        "m": (float, None),
        "kbar": (float, None),
        "nbar": (int, 1),
        "t": (float, None),
        "samples": (int, 10000),
        "workers": (int, 1),
    },
    "symcheck": {
        "m": (float, 0.6),
        "k_samples": (int, 64),
    },
}


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use.

    ``main`` reuses it on every call, so it must hold no per-call state:
    every flag defaults to None (``_resolve_params`` fills the defaults),
    each ``parse_args`` returns a fresh namespace, and errors raise.
    """
    parser = _Parser(prog="dirac-qca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        p.add_argument("--config", dest="config", default=None)
        p.add_argument("--seed", dest="seed", type=int, default=None)
        for dest in options:
            flag = "--" + dest.replace("_", "-")
            if dest == "svg" or dest == "solve_tmin":
                p.add_argument(flag, dest=dest, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, dest=dest, type=str, default=None)
    return parser


def _read_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            values[key.strip()] = raw.strip()
    return values


def _resolve_params(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags, with strict key checking."""
    spec = OPTIONS[command]
    merged = {dest: default for dest, (_, default) in spec.items()}
    merged["seed"] = 0
    if args.config:
        for key, raw in _read_config(args.config).items():
            dest = key.replace("-", "_")
            if dest == "seed":
                merged["seed"] = int(raw)
            elif dest in spec:
                merged[dest] = spec[dest][0](raw)
            else:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
    for dest, (coerce, _) in spec.items():
        value = getattr(args, dest)
        if value is not None:
            merged[dest] = coerce(value)
    if args.seed is not None:
        merged["seed"] = args.seed
    return merged


# -- serialization helpers -------------------------------------------------

def _sanitize(obj):
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(path: str, payload: dict):
    write_text(path, json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n")


def _csv_rows(columns):
    """The rows of the equal-length ``columns`` as text, each float as its shortest repr."""
    cells = [map(repr, np.asarray(column, dtype=float).tolist()) for column in columns]
    return map(",".join, zip(*cells))


def _csv_chunk(columns) -> str:
    """One chunk of rows, each ended by a newline; runs on a pool worker."""
    return "\n".join(_csv_rows(columns)) + "\n"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _csv_pool():
    """The process pool that formats large CSV tables, built on first use.

    Workers start with the "fork" method where the platform has it (Linux,
    where it is Python 3.11's default), else with the platform's default.
    Chunks travel to them pickled, so a worker relies on no state shared
    with this process.  The pool lives until the process exits.
    """
    import multiprocessing  # kept off the CLI import path
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    workers = min(CSV_MAX_WORKERS, _usable_cpus())
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(method))


def _write_csv(path: str, header, columns):
    """One row per entry of the equal-length ``columns``, each float as its shortest repr.

    A table of more than ``CSV_CHUNK_ROWS`` rows, on a machine with at least
    two usable CPUs, is formatted in row chunks on ``_csv_pool``; the chunks
    are joined in row order, so the bytes are those of the serial path.  A
    failed worker raises ``OSError`` before anything is written.
    """
    rows = min(map(len, columns), default=0)
    if rows <= CSV_CHUNK_ROWS or _usable_cpus() < 2:
        write_text(path, "\n".join([",".join(header), *_csv_rows(columns)]) + "\n")
        return
    columns = [np.asarray(column, dtype=float) for column in columns]
    chunks = [[column[i : i + CSV_CHUNK_ROWS] for column in columns] for i in range(0, rows, CSV_CHUNK_ROWS)]
    pool = _csv_pool()
    try:
        parts = list(pool.map(_csv_chunk, chunks))
    except Exception as exc:
        from concurrent.futures import BrokenExecutor

        if isinstance(exc, BrokenExecutor):  # a broken pool takes no more work: the next table builds a new one
            pool.shutdown(wait=False)
            _csv_pool.cache_clear()
        raise OSError(f"formatting {path} on worker processes failed: {exc!r}") from exc
    write_text(path, "".join([",".join(header) + "\n", *parts]))


# -- subcommand runners ----------------------------------------------------

def _run_dispersion(params: dict, out_dir: str, warnings: list) -> dict:
    masses = params["m"]
    samples = params["samples"]
    if params["preset"] == "fig3":
        masses = list(FIG3_MASSES)
    elif params["preset"]:
        raise ConfigError(f"unknown dispersion preset {params['preset']!r}")
    if samples < 2:
        raise ConfigError("need at least 2 samples")
    ks = np.linspace(-math.pi, math.pi, samples)
    files = []
    curves = []
    for m in masses:
        w = dispersion.omega(ks, m)
        cone = (ks == 0.0) & (m == 0.0)  # omega has a cone there: no derivatives
        derivs = np.full((3, samples), math.nan)
        derivs[:, ~cone] = dispersion.derivatives(ks[~cone], m)
        if cone.any() and not any("derivative" in w for w in warnings):
            warnings.append("derivatives are undefined at k = 0 for m = 0; affected rows carry nan")
        path = os.path.join(out_dir, f"dispersion_m{m:g}.csv")
        columns = [ks, w, dispersion.dirac_omega(ks, m), *derivs]
        _write_csv(path, ["k", "omega", "omega_dirac", "v", "D", "omega3"], columns)
        files.append(os.path.basename(path))
        if params["svg"]:
            curves.append((f"m={m:g}", ks, w))
    if params["svg"]:
        path = os.path.join(out_dir, "dispersion.svg")
        svgplot.write_plot(path, curves, title="dispersion", xlabel="k", ylabel="omega")
        files.append(os.path.basename(path))
    return {"files": files, "masses": masses, "rows_per_file": samples}


def _build_state(params: dict):
    if params["preset"]:
        try:
            preset = PRESETS[params["preset"]]
        except KeyError:
            raise ConfigError(f"unknown preset {params['preset']!r}") from None
    else:
        preset = dict(
            kind="packet",
            L=params["L"],
            m=params["m"],
            shape="gaussian",
            sigma_hat=params["sigma_hat"],
            k0=params["k0"],
            x0=params["x0"],
        )
    auto = AutomatonParams(preset["m"])
    if preset["kind"] == "localized":
        spinor = np.array([1.0, 1.0]) / math.sqrt(2.0)
        field = wavepacket.localized(int(preset["x0"]), spinor, preset["L"])
        return preset, auto, field, transform(field), None
    spec = wavepacket.WavepacketSpec(
        k0=preset["k0"],
        sigma_hat=preset["sigma_hat"],
        x0=preset["x0"],
        s=int(params.get("branch", 1) or 1),
        shape=preset["shape"],
        hermite_coeffs=preset.get("coeffs"),
    )
    field, spectrum = wavepacket.build(spec, auto, preset["L"])
    return preset, auto, field, spectrum, spec


def _wraparound_warning(preset: dict, times, warnings: list):
    margin = min(preset["x0"], preset["L"] - preset["x0"])
    sigma_hat = preset.get("sigma_hat", 0.0)
    worst = max(times) + 6.0 * sigma_hat
    if margin < worst:
        warnings.append(
            f"packet support within {margin:g} sites of wraparound but t + 6*sigma_hat "
            f"reaches {worst:g}; ring-boundary effects possible"
        )


def _times(params: dict) -> list:
    times = params["times"]
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ConfigError(f"times must be a nonempty list of finite nonnegative numbers, got {times}")
    return [t + 0.0 for t in times]  # -0.0 + 0.0 is 0.0: one time, one file name


def _checked_fidelity(fid: float, t: float) -> float:
    if not 0.0 <= fid <= 1.0 + FIDELITY_TOL:
        raise NumericalInvariantError(f"fidelity {fid!r} at t = {t:g} is outside [0, 1 + {FIDELITY_TOL:g}]")
    return fid


def _run_evolve(params: dict, out_dir: str, warnings: list) -> dict:
    """Densities and summaries per requested time, in the requested order.

    Each distinct time is evolved once, in increasing order.  A localized
    state steps on from the previous time (bit-identical to restarting from
    t = 0), so the run costs ``max(times)`` steps.
    """
    preset, auto, field, spectrum, spec = _build_state(params)
    times = _times(params)
    _wraparound_warning(preset, times, warnings)
    localized = spec is None
    if localized and any(t != int(t) for t in times):
        raise ConfigError("localized states evolve in position space: times must be integers")
    summaries = [None] * len(times)
    curves = [None] * len(times)
    written = set()
    x = np.arange(preset["L"])
    previous, elapsed = None, 0
    for i in sorted(range(len(times)), key=times.__getitem__):
        t = times[i]
        if t != previous:
            fid = None
            if localized:
                state = field = evolve_position(field, auto, int(t) - elapsed)
                elapsed = int(t)
            else:
                evolved = evolve_momentum(spectrum, auto, t)
                state = inverse_transform(evolved)
                fid = approx.fidelity(evolved, approx.schrodinger_evolve(spectrum, auto, spec.k0, spec.s, t))
                fid = _checked_fidelity(fid, t)
                del evolved  # not needed while the CSV is built
            norm = state.norm()
            if not abs(norm - 1.0) <= NORM_TOL:
                raise NumericalInvariantError(f"norm {norm!r} at t = {t:g} is more than {NORM_TOL:g} from 1")
            density = state.density()
            mean_x, var_x = wavepacket.position_moments(state)
            previous = t
        name = f"evolve_t{t:g}.csv"
        if name not in written:
            _write_csv(os.path.join(out_dir, name), ["x", "density"], (x, density))
            written.add(name)
        summaries[i] = {"t": t, "norm": norm, "mean_x": mean_x, "var_x": var_x, "fidelity_vs_approx": fid}
        if params["svg"]:
            curves[i] = (f"t={t:g}", x, density)
    files = [f"evolve_t{t:g}.csv" for t in times]
    if params["svg"]:
        path = os.path.join(out_dir, "evolve.svg")
        svgplot.write_plot(path, curves, title="probability density", xlabel="x", ylabel="density")
        files.append(os.path.basename(path))
    return {"files": files, "summaries": summaries}


def _run_compare(params: dict, out_dir: str, warnings: list) -> dict:
    preset, auto, field, spectrum, spec = _build_state(params)
    if spec is None:
        raise ConfigError("compare needs a smooth packet preset")
    times = _times(params)
    _wraparound_warning(preset, times, warnings)
    sigma = params["sigma"] if params["sigma"] is not None else 3.0 / spec.sigma_hat
    rows = []
    for t in times:
        exact = evolve_momentum(spectrum, auto, t)
        approximate = approx.schrodinger_evolve(spectrum, auto, spec.k0, spec.s, t)
        fid = _checked_fidelity(approx.fidelity(exact, approximate), t)
        bound = approx.accuracy_bound(spectrum, auto, spec.k0, sigma, t)
        rows.append((t, fid, bound.bound, bound.epsilon, bound.gamma, sigma))
    path = os.path.join(out_dir, "compare.csv")
    _write_csv(path, ["t", "fidelity", "bound", "epsilon", "gamma", "sigma"], list(zip(*rows)))
    files = [os.path.basename(path)]
    if params["svg"]:
        svg_path = os.path.join(out_dir, "compare.svg")
        svgplot.write_plot(
            svg_path,
            [
                ("fidelity", [row[0] for row in rows], [row[1] for row in rows]),
                ("bound", [row[0] for row in rows], [row[2] for row in rows]),
            ],
            title="exact vs drift-diffusion evolution",
            xlabel="t",
            ylabel="overlap",
        )
        files.append(os.path.basename(svg_path))
    return {
        "files": files,
        "rows": [
            {"t": r[0], "fidelity": r[1], "bound": r[2], "epsilon": r[3], "gamma": r[4], "sigma": r[5]}
            for r in rows
        ],
    }


def _require(params: dict, *keys):
    for key in keys:
        if params.get(key) is None:
            raise ConfigError(f"missing required parameter --{key.replace('_', '-')}")


def _run_discriminate(params: dict, out_dir: str, warnings: list) -> dict:
    _require(params, "m", "kbar")
    inp = discrimination.DiscriminationInput(
        m=params["m"], k_bar=params["kbar"], N_bar=params["nbar"], t=params["t"]
    )
    report = discrimination.pe_lower_bound(inp)
    results = {
        "alpha_bar": report.alpha_bar,
        "beta_bar": report.beta_bar,
        "f_limit": report.f_limit,
        "hypotheses_ok": report.hypotheses_ok,
        "g": report.g,
        "pe_lower": report.pe_lower,
    }
    if params["solve_tmin"]:
        approx_t = discrimination.t_min_approx(params["m"], params["kbar"], params["nbar"])
        exact_t = discrimination.t_min_exact(params["m"], params["kbar"], params["nbar"])
        results["t_min"] = approx_t
        results["t_min_exact"] = exact_t
        results["t_min_seconds"] = approx_t * PLANCK_TIME_SECONDS
    if not report.hypotheses_ok:
        warnings.append("time-cap hypotheses do not hold: no error-probability bound at this t")
    return results


def _run_flytime(params: dict, out_dir: str, warnings: list) -> dict:
    _require(params, "m", "k", "sigma_hat")
    report = flytime.visibility_report(
        flytime.FlytimeInput(m=params["m"], k=params["k"], sigma_hat=params["sigma_hat"])
    )
    if report.low_visibility:
        warnings.append(
            f"visibility ratio {report.visibility_ratio:.3g} < {flytime.VISIBILITY_FLAG_RATIO:g}: "
            "packet spreading swamps the trajectory separation"
        )
    return {
        "t_general": report.t_general,
        "t_relativistic": report.t_relativistic,
        "broadening_at_t": report.broadening_at_t,
        "visibility_ratio": report.visibility_ratio,
        "t_seconds": report.t_seconds,
        "low_visibility": report.low_visibility,
    }


def _run_validate_bound(params: dict, out_dir: str, warnings: list) -> dict:
    _require(params, "m", "kbar", "t")
    inp = discrimination.DiscriminationInput(
        m=params["m"], k_bar=params["kbar"], N_bar=params["nbar"], t=params["t"]
    )
    report = discrimination.validate_bound_montecarlo(
        inp, samples=params["samples"], seed=params["seed"], workers=params["workers"]
    )
    return {
        "samples": report.samples,
        "seed": report.seed,
        "workers": report.workers,
        "bound": report.bound,
        "max_observed": report.max_observed,
        "margin": report.margin,
    }


def _run_symcheck(params: dict, out_dir: str, warnings: list) -> dict:
    ks = np.linspace(-math.pi, math.pi, params["k_samples"])
    report = symmetry_check(AutomatonParams(params["m"]), ks)
    return {
        "parity": report.parity,
        "time_reversal": report.time_reversal,
        "unitarity": report.unitarity,
        "max_residual": report.max_residual,
        "k_samples": params["k_samples"],
    }


RUNNERS = {
    "dispersion": _run_dispersion,
    "evolve": _run_evolve,
    "compare": _run_compare,
    "discriminate": _run_discriminate,
    "flytime": _run_flytime,
    "validate-bound": _run_validate_bound,
    "symcheck": _run_symcheck,
}


def _emit_error(kind: str, message: str):
    record = {"schema_version": SCHEMA_VERSION, "error": {"type": kind, "message": message}}
    print(json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        params = _resolve_params(args.command, args)
        out_dir = args.out_dir or "out"
        os.makedirs(out_dir, exist_ok=True)
        warnings: list = []
        results = RUNNERS[args.command](params, out_dir, warnings)
    except (ConfigError, ValueError) as exc:
        _emit_error("config", str(exc))
        return 1
    except OSError as exc:
        _emit_error("io", str(exc))
        return 1
    except NumericalInvariantError as exc:
        _emit_error("numerical-invariant", str(exc))
        return 2
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "params": params,
        "results": results,
        "warnings": warnings,
    }
    _write_json(os.path.join(out_dir, args.command.replace("-", "_") + ".json"), payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
