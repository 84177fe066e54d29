"""Experiment runner: subcommand dispatch, CSV/JSON/SVG emission.

Conventions shared by every subcommand:

* outputs land in ``--out-dir`` (default ``out``), written atomically
  (temp file + rename);
* the JSON summary is one object ``{schema_version: 1, command, params,
  results, warnings: []}`` with keys sorted, floats serialized as their
  shortest round-trip decimal, infinities as the string "inf";
* a config file (``--config``) holds flat ``key = value`` lines; command-line
  flags override config keys, unknown keys are errors;
* ``PRESETS[command][name]`` holds the values a preset fixes: an empty or
  unknown name is an error, and so is a flag or config key that the preset
  fixes; the runner sees the params with the preset's values laid over them;
* a command's ``results`` are its library report's fields
  (``dataclasses.asdict``);
* exit codes: 0 success, 1 usage/config error, 2 numerical-invariant failure.

Re-running a command with the same configuration produces
byte-identical files: nothing here reads the clock or ambient state.  The
bytes hold on one platform and numpy CPU dispatch level: numpy picks the
SIMD loops of some float functions by CPU at run time.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import approx, discrimination, dispersion, flytime, svgplot, wavepacket
from .automaton import AutomatonParams, evolve_momentum, inverse_transform, symmetry_check, transform
from .constants import planck_times_to_seconds
from .errors import NumericalInvariantError
from .textfile import write_text

SCHEMA_VERSION = 1
NORM_TOL = 1e-12  # largest |norm - 1| an evolved state may show
FIDELITY_TOL = 1e-12  # largest excess over 1 a fidelity may show
CSV_BLOCK_ROWS = 2048  # a CSV table is formatted and written this many rows at a time


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


_PACKETS = {
    "fig2-smooth": dict(L=128, m=0.92, sigma_hat=3.0, k0=0.3 * math.pi, x0=30.0),
    "fig4": dict(
        L=1024,
        m=0.6,
        sigma_hat=20.0,
        k0=0.3 * math.pi,
        x0=256.0,
        coeffs=(math.sqrt(1 / 3), 0.0, math.sqrt(4 / 9), 0.0, 0.0, 0.0, 0.0, math.sqrt(2 / 9)),
    ),
}
# per command and preset: the values the preset fixes; giving one of those keys as well is an error.
# fig2 is one site: it fixes sigma_hat = 0 (read only by the wrap-around warning) and a k0 and a
# branch that are never read, so that none of them can be given beside it.
PRESETS = {
    "dispersion": {"fig3": dict(m=(0.0, 0.3, 0.6, 0.9))},
    "evolve": {"fig2": dict(kind="localized", L=128, m=0.92, sigma_hat=0.0, k0=0.0, x0=30.0, branch=1), **_PACKETS},
    "compare": _PACKETS,
}

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
        "seed": (int, 0),
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
        for dest, (coerce, _) in options.items():
            flag = "--" + dest.replace("_", "-")
            if coerce is _bool:
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
    given = set()
    if args.config:
        for key, raw in _read_config(args.config).items():
            dest = key.replace("-", "_")
            if dest in spec:
                merged[dest] = spec[dest][0](raw)
                given.add(dest)
            else:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
    for dest, (coerce, _) in spec.items():
        value = getattr(args, dest)
        if value is not None:
            merged[dest] = coerce(value)
            given.add(dest)
    name = merged.get("preset")
    if name is not None:
        if name not in PRESETS[command]:
            raise ConfigError(f"unknown {command} preset {name!r}; known: {', '.join(PRESETS[command])}")
        clash = [key for key in PRESETS[command][name] if key in given]
        if clash:
            raise ConfigError(f"preset {name!r} fixes {', '.join(clash)}; give the preset or these keys, not both")
    return merged


# -- serialization helpers -------------------------------------------------

def _sanitize(obj):
    """The reports' dicts, lists, tuples and scalars as JSON values, with nan and the infinities spelled as strings."""
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _write_json(path: str, payload: dict):
    write_text(path, json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n")


def _csv_block(block, ncols: int) -> str:
    """The rows of the flat float array ``block``, ``ncols`` values a row, each float in orjson's spelling.

    orjson writes the shortest round-trip digits of each float, the digits
    ``repr`` writes, with its own exponent spelling (``1.5e-7``, ``1e16``)
    and 1e-5 <= |x| < 1e-4 in fixed point (``0.000015``).  It writes nan and
    inf as ``null``, which a CSV reader cannot parse, so each is spelled back
    as ``nan``, ``inf`` or ``-inf``.  The rows are then cut by turning every
    ``ncols``-th comma and the closing "]" into a newline.
    """
    import orjson  # kept off the CLI import path

    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    nonfinite = block[~np.isfinite(block)]
    if nonfinite.size:  # orjson writes each as null
        spelled = [repr(value).encode() for value in nonfinite.tolist()] + [b""]
        text = b"".join([piece for pair in zip(text.split(b"null"), spelled) for piece in pair])
    chars = np.frombuffer(text, dtype=np.uint8, offset=1).copy()  # without the opening "["
    chars[np.flatnonzero(chars == ord(","))[ncols - 1 :: ncols]] = ord("\n")
    chars[-1] = ord("\n")  # the closing "]"
    return str(chars, "ascii")


def _csv_rows(table):
    """The rows of the 2-D float array ``table``, ``CSV_BLOCK_ROWS`` at a time (``_csv_block``)."""
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        # a flat view, as the table is C-contiguous; the block's temporaries are gone before it is written
        yield _csv_block(table[start : start + CSV_BLOCK_ROWS].ravel(), table.shape[1])


def _write_csv(path: str, header, columns):
    """One row per entry of the equal-length ``columns``, each float as its shortest round-trip decimal.

    The table is formatted and written ``CSV_BLOCK_ROWS`` rows at a time;
    a failure on the way leaves ``path`` as it was.
    """
    table = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    write_text(path, itertools.chain([",".join(header) + "\n"], _csv_rows(table)))


# -- subcommand runners ----------------------------------------------------

def _file_names(pattern: str, values) -> list:
    """``pattern.format(value)`` per value; distinct values that share a name are a ConfigError."""
    owners = {}
    for value in values:
        owner = owners.setdefault(pattern.format(value), value)
        if owner != value:
            raise ConfigError(f"{owner!r} and {value!r} would share the output file {pattern.format(value)}")
    return [pattern.format(value) for value in values]


def _run_dispersion(params: dict, out_dir: str, warnings: list) -> dict:
    masses = [dispersion._check_mass(m) for m in params["m"]]  # before a nan can be blamed on a file name
    samples = params["samples"]
    if not masses:
        raise ConfigError("need at least one mass")
    if samples < 2:
        raise ConfigError("need at least 2 samples")
    ks = np.linspace(-math.pi, math.pi, samples)
    files = _file_names("dispersion_m{:g}.csv", masses)
    if 0.0 in masses and 0.0 in ks:
        warnings.append("derivatives are undefined at k = 0 for m = 0; affected rows carry nan")
    curves = []
    for m, name in zip(masses, files):
        w = dispersion.omega(ks, m)
        cone = (ks == 0.0) & (m == 0.0)  # omega has a cone there: no derivatives
        derivs = np.full((3, samples), math.nan)
        derivs[:, ~cone] = dispersion.derivatives(ks[~cone], m)
        columns = [ks, w, dispersion.dirac_omega(ks, m), *derivs]
        _write_csv(os.path.join(out_dir, name), ["k", "omega", "omega_dirac", "v", "D", "omega3"], columns)
        if params["svg"]:
            curves.append((f"m={m:g}", ks, w))
    if params["svg"]:
        path = os.path.join(out_dir, "dispersion.svg")
        svgplot.write_plot(path, curves, title="dispersion", xlabel="k", ylabel="omega")
        files.append(os.path.basename(path))
    return {"files": files, "masses": masses, "rows_per_file": samples}


def _build_state(params: dict):
    """Automaton, initial ``ModeSpectrum`` and packet spec (None for the localized state)."""
    auto = AutomatonParams(params["m"])
    if params.get("kind") == "localized":
        spinor = np.array([1.0, 1.0]) / math.sqrt(2.0)
        return auto, transform(wavepacket.localized(params["x0"], spinor, params["L"])), None
    spec = wavepacket.WavepacketSpec(
        k0=params["k0"],
        sigma_hat=params["sigma_hat"],
        x0=params["x0"],
        s=params.get("branch", 1),
        hermite_coeffs=params.get("coeffs", wavepacket.WavepacketSpec.hermite_coeffs),
    )
    return auto, wavepacket.build(spec, auto, params["L"]), spec


def _wraparound_warning(params: dict, times, warnings: list):
    margin = min(params["x0"], params["L"] - params["x0"])
    worst = max(times) + 6.0 * params["sigma_hat"]
    if margin < worst:
        warnings.append(
            f"packet support within {margin:g} sites of wraparound but t + 6*sigma_hat "
            f"reaches {worst:g}; ring-boundary effects possible"
        )


def _times(params: dict) -> list:
    times = params["times"]
    if not times:
        raise ConfigError("times must be a nonempty list")
    for t in times:
        dispersion._check_time(t)
    return [t + 0.0 for t in times]  # -0.0 + 0.0 is 0.0: one time, one file name


def _exact_and_fidelity(spectrum, auto, spec, t: float):
    """``spectrum`` evolved exactly to ``t``, and its checked fidelity with the drift-diffusion evolution (or None)."""
    exact = evolve_momentum(spectrum, auto, t)
    if spec is None:
        return exact, None
    fid = approx.fidelity(exact, approx.schrodinger_evolve(spectrum, auto, spec.k0, spec.s, t))
    if not 0.0 <= fid <= 1.0 + FIDELITY_TOL:
        raise NumericalInvariantError(f"fidelity {fid!r} at t = {t:g} is outside [0, 1 + {FIDELITY_TOL:g}]")
    return exact, fid


def _run_evolve(params: dict, out_dir: str, warnings: list) -> dict:
    """Densities and summaries per requested time, in the requested order.

    Each distinct time is evolved once, in closed form from t = 0, so a run
    costs one transform plus one ``evolve_momentum`` and one inverse
    transform per distinct time, whatever the times are.  The localized
    state's light cone is strict: every site farther than t from x0 around
    the ring is set to exactly 0, where the closed form leaves roundoff.
    """
    auto, initial, spec = _build_state(params)
    times = _times(params)
    files = _file_names("evolve_t{:g}.csv", times)
    _wraparound_warning(params, times, warnings)
    localized = spec is None
    if localized and any(t != int(t) for t in times):
        raise ConfigError("the localized state's light cone needs integer times")
    if localized:  # each site's distance from x0 around the ring: the time at which the light cone reaches it
        x = np.arange(params["L"])
        distance = np.minimum((x - int(params["x0"])) % params["L"], (int(params["x0"]) - x) % params["L"])
    distinct = {}  # time -> (summary, curve), filled in ascending time
    for t, name in sorted(dict(zip(times, files)).items()):
        evolved, fid = _exact_and_fidelity(initial, auto, spec, t)
        state = inverse_transform(evolved, out=evolved.modes)  # evolved is this loop's own: transformed in place
        del evolved
        if localized:  # the closed form leaves roundoff outside the cone, which is empty once 2t + 1 >= L
            state.sites[distance > t] = 0.0
        norm = state.norm()
        if not abs(norm - 1.0) <= NORM_TOL:
            raise NumericalInvariantError(f"norm {norm!r} at t = {t:g} is more than {NORM_TOL:g} from 1")
        density = state.density()
        del state  # not needed while the CSV is built or the next time is evolved
        mean_x, var_x = wavepacket.position_moments(density)
        x = np.arange(params["L"])  # formed per CSV: no site index is held while a time is evolved
        _write_csv(os.path.join(out_dir, name), ["x", "density"], (x, density))
        curve = (f"t={t:g}", x, density) if params["svg"] else None
        del x, density  # only the plot's curve keeps them past their CSV
        distinct[t] = {"t": t, "norm": norm, "mean_x": mean_x, "var_x": var_x, "fidelity_vs_approx": fid}, curve
    summaries = [distinct[t][0] for t in times]
    curves = [distinct[t][1] for t in times]
    if params["svg"]:
        path = os.path.join(out_dir, "evolve.svg")
        svgplot.write_plot(path, curves, title="probability density", xlabel="x", ylabel="density")
        files.append(os.path.basename(path))
    return {"files": files, "summaries": summaries}


def _run_compare(params: dict, out_dir: str, warnings: list) -> dict:
    auto, spectrum, spec = _build_state(params)
    times = _times(params)
    _wraparound_warning(params, times, warnings)
    sigma = params["sigma"] if params["sigma"] is not None else 3.0 / spec.sigma_hat
    distinct = {}  # one row per distinct time, in first-seen order
    for t in dict.fromkeys(times):
        _, fid = _exact_and_fidelity(spectrum, auto, spec, t)
        bound = approx.accuracy_bound(spectrum, auto, spec.k0, sigma, t)
        distinct[t] = {"fidelity": fid, **dataclasses.asdict(bound)}
    rows = [distinct[t] for t in times]  # a repeated time reuses its row
    header = ["t", "fidelity", "bound", "epsilon", "gamma", "sigma"]
    columns = {key: [row[key] for row in rows] for key in header}
    path = os.path.join(out_dir, "compare.csv")
    _write_csv(path, header, [columns[key] for key in header])
    files = [os.path.basename(path)]
    if params["svg"]:
        svg_path = os.path.join(out_dir, "compare.svg")
        svgplot.write_plot(
            svg_path,
            [("fidelity", columns["t"], columns["fidelity"]), ("bound", columns["t"], columns["bound"])],
            title="exact vs drift-diffusion evolution",
            xlabel="t",
            ylabel="overlap",
        )
        files.append(os.path.basename(svg_path))
    return {"files": files, "rows": rows}


def _require(params: dict, *keys):
    for key in keys:
        if params.get(key) is None:
            raise ConfigError(f"missing required parameter --{key.replace('_', '-')}")


def _run_discriminate(params: dict, out_dir: str, warnings: list) -> dict:
    _require(params, "m", "kbar")
    inp = discrimination.DiscriminationInput(params["m"], params["kbar"], params["nbar"], params["t"])
    results = dataclasses.asdict(discrimination.pe_lower_bound(inp))
    if params["solve_tmin"]:
        t_min = discrimination.t_min_approx(params["m"], params["kbar"], params["nbar"])
        # the report's time cap is t_min_exact at every t, so no second alpha/beta grid is built for it
        results.update(t_min=t_min, t_min_exact=results["f_limit"], t_min_seconds=planck_times_to_seconds(t_min))
    if not results["hypotheses_ok"]:
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
    return dataclasses.asdict(report)


def _run_validate_bound(params: dict, out_dir: str, warnings: list) -> dict:
    _require(params, "m", "kbar", "t")
    inp = discrimination.DiscriminationInput(params["m"], params["kbar"], params["nbar"], params["t"])
    report = discrimination.validate_bound_montecarlo(
        inp, samples=params["samples"], seed=params["seed"], workers=params["workers"]
    )
    return dataclasses.asdict(report)


def _run_symcheck(params: dict, out_dir: str, warnings: list) -> dict:
    ks = np.linspace(-math.pi, math.pi, params["k_samples"])
    report = symmetry_check(AutomatonParams(params["m"]), ks)
    return {**dataclasses.asdict(report), "k_samples": params["k_samples"]}


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
        preset = PRESETS.get(args.command, {}).get(params.get("preset"), {})
        results = RUNNERS[args.command]({**params, **preset}, out_dir, warnings)
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
