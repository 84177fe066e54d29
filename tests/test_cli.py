import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_qca import SpinorField, approx, cli, derivatives, dirac_omega, dispersion, omega


def run(argv):
    return cli.main(argv)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestDispersionCommand:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "o"
        assert run(["dispersion", "--m", "0.6", "--samples", "512", "--out-dir", str(out)]) == 0
        lines = (out / "dispersion_m0.6.csv").read_text().splitlines()
        assert lines[0] == "k,omega,omega_dirac,v,D,omega3"
        assert len(lines) == 513  # header + 512 rows

    def test_csv_numbers_are_shortest_round_trip(self, tmp_path):
        out = tmp_path / "o"
        run(["dispersion", "--m", "0.37", "--samples", "16", "--out-dir", str(out)])
        for line in (out / "dispersion_m0.37.csv").read_text().splitlines()[1:]:
            for cell in line.split(","):
                assert cell == repr(float(cell))

    def test_fig3_preset_emits_all_masses(self, tmp_path):
        out = tmp_path / "o"
        assert run(["dispersion", "--preset", "fig3", "--samples", "64", "--out-dir", str(out)]) == 0
        payload = load_json(out / "dispersion.json")
        assert payload["results"]["masses"] == [0.0, 0.3, 0.6, 0.9]
        for m in ("0", "0.3", "0.6", "0.9"):
            assert (out / f"dispersion_m{m}.csv").exists()

    def test_rows_match_pointwise_calls(self, tmp_path):
        # reference: the per-point scalar calls the grid evaluation replaced;
        # numpy's 0-d and 1-d kernels may round differently, by a few ulp
        out = tmp_path / "o"
        assert run(["dispersion", "--m", "0,0.6,0", "--samples", "2049", "--out-dir", str(out)]) == 0
        for m in (0.0, 0.6):
            table = np.loadtxt(out / f"dispersion_m{m:g}.csv", delimiter=",", skiprows=1)
            cone = (table[:, 0] == 0.0) & (m == 0.0)
            assert cone.sum() == (1 if m == 0.0 else 0)
            assert np.all(np.isnan(table[cone, 3:]))
            reference = [
                (omega(k, m), dirac_omega(k, m), *derivatives(k, m)) for k in table[~cone, 0]
            ]
            np.testing.assert_array_max_ulp(table[~cone, 1:], np.array(reference), maxulp=4)
        warnings = load_json(out / "dispersion.json")["warnings"]
        assert warnings == ["derivatives are undefined at k = 0 for m = 0; affected rows carry nan"]

    def test_omega_clamp_breach_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dispersion, "ARCCOS_CLAMP_TOL", -1.0)
        assert run(["dispersion", "--m", "0.6", "--samples", "8", "--out-dir", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "numerical-invariant"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["dispersion", "--m", "0.6", "--samples", "32", "--out-dir", str(out)]) == 0
        assert (a / "dispersion_m0.6.csv").read_bytes() == (b / "dispersion_m0.6.csv").read_bytes()
        assert (a / "dispersion.json").read_bytes() == (b / "dispersion.json").read_bytes()


class TestEvolveCommand:
    def test_fig4_summaries(self, tmp_path):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig4", "--times", "0,100", "--out-dir", str(out)]) == 0
        payload = load_json(out / "evolve.json")
        assert payload["schema_version"] == 1
        assert payload["command"] == "evolve"
        summaries = payload["results"]["summaries"]
        assert [s["t"] for s in summaries] == [0.0, 100.0]
        for s in summaries:
            assert s["norm"] == pytest.approx(1.0, abs=1e-10)
            assert 0.0 <= s["fidelity_vs_approx"] <= 1.0 + 1e-12
        assert payload["warnings"] == []  # t + 6 sigma_hat = 220 < margin 256
        rows = (out / "evolve_t100.csv").read_text().splitlines()
        assert rows[0] == "x,density"
        assert len(rows) == 1 + 1024

    def test_evolves_each_time_once(self, tmp_path, monkeypatch):
        calls = []
        original = cli.evolve_momentum

        def counted(*args):
            calls.append(args[2])
            return original(*args)

        monkeypatch.setattr(cli, "evolve_momentum", counted)
        assert run(["evolve", "--preset", "fig4", "--times", "0,100", "--out-dir", str(tmp_path / "o")]) == 0
        assert calls == [0.0, 100.0]

    def test_unsorted_and_repeated_times_match_single_time_runs(self, tmp_path):
        times = [7500.0, 0.0, 2500.0, 2500.0, 10000.0, 1.0]
        out = tmp_path / "mixed"
        assert run(["evolve", "--preset", "fig2", "--times", "7500,0,2500,2500,10000,1", "--out-dir", str(out)]) == 0
        results = load_json(out / "evolve.json")["results"]
        assert [s["t"] for s in results["summaries"]] == times
        assert results["files"] == [f"evolve_t{t:g}.csv" for t in times]
        for t in sorted(set(times)):
            single = tmp_path / f"t{t:g}"
            assert run(["evolve", "--preset", "fig2", "--times", f"{t:g}", "--out-dir", str(single)]) == 0
            name = f"evolve_t{t:g}.csv"
            assert (out / name).read_bytes() == (single / name).read_bytes()
            (summary,) = load_json(single / "evolve.json")["results"]["summaries"]
            assert all(s == summary for s in results["summaries"] if s["t"] == t)

    def test_localized_run_costs_max_time_steps(self, tmp_path, monkeypatch):
        steps = []
        original = cli.evolve_position

        def counted(field, params, t):
            steps.append(t)
            return original(field, params, t)

        monkeypatch.setattr(cli, "evolve_position", counted)
        assert run(["evolve", "--preset", "fig2", "--times", "60,0,15,15,45", "--out-dir", str(tmp_path / "o")]) == 0
        assert steps == [0, 15, 30, 15]

    @pytest.mark.parametrize("preset, norm", [("fig2", 1.0 + 2e-12), ("fig4", 1.0 - 2e-12), ("fig2", math.nan)])
    def test_norm_drift_is_exit_2(self, tmp_path, capsys, monkeypatch, preset, norm):
        # fig2 takes the position path, fig4 the momentum path
        monkeypatch.setattr(SpinorField, "norm", lambda self: norm)
        assert run(["evolve", "--preset", preset, "--times", "0,30", "--out-dir", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "numerical-invariant"
        assert "norm" in record["error"]["message"]

    def test_norm_within_tolerance_passes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(SpinorField, "norm", lambda self: 1.0 - 0.9e-12)
        assert run(["evolve", "--preset", "fig2", "--times", "0,30", "--out-dir", str(tmp_path / "o")]) == 0

    def test_negative_zero_time_is_time_zero(self, tmp_path):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig2", "--times=-0,0", "--out-dir", str(out)]) == 0
        assert [p.name for p in out.glob("*.csv")] == ["evolve_t0.csv"]
        results = load_json(out / "evolve.json")["results"]
        assert results["files"] == ["evolve_t0.csv", "evolve_t0.csv"]
        assert [math.copysign(1.0, s["t"]) for s in results["summaries"]] == [1.0, 1.0]

    def test_wraparound_warning_fires(self, tmp_path):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig4", "--times", "0,600", "--out-dir", str(out)]) == 0
        payload = load_json(out / "evolve.json")
        assert any("wraparound" in w for w in payload["warnings"])

    def test_localized_preset_needs_integer_times(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig2", "--times", "0,1.5", "--out-dir", str(out)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config"

    def test_localized_preset_runs(self, tmp_path):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig2", "--times", "0,30", "--out-dir", str(out)]) == 0
        payload = load_json(out / "evolve.json")
        assert payload["results"]["summaries"][0]["fidelity_vs_approx"] is None

    def test_svg_emission(self, tmp_path):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig2-smooth", "--times", "0,20", "--svg", "--out-dir", str(out)]) == 0
        text = (out / "evolve.svg").read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


class TestCompareCommand:
    def test_fig4_compare_table(self, tmp_path):
        out = tmp_path / "o"
        assert run(["compare", "--preset", "fig4", "--times", "0,100,200", "--out-dir", str(out)]) == 0
        rows = load_json(out / "compare.json")["results"]["rows"]
        assert [r["t"] for r in rows] == [0.0, 100.0, 200.0]
        for row in rows:
            assert row["fidelity"] >= row["bound"] - 1e-9

    def test_rejects_localized_preset(self, tmp_path, capsys):
        assert run(["compare", "--preset", "fig2", "--out-dir", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"


class TestFidelityPostcondition:
    @pytest.mark.parametrize("command", ["evolve", "compare"])
    @pytest.mark.parametrize("fid", [1.0 + 2e-12, math.nan, -1e-300])
    def test_fidelity_out_of_range_is_exit_2(self, tmp_path, capsys, monkeypatch, command, fid):
        monkeypatch.setattr(approx, "fidelity", lambda a, b: fid)
        assert run([command, "--preset", "fig4", "--times", "0,100", "--out-dir", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "numerical-invariant"
        assert "fidelity" in record["error"]["message"]

    @pytest.mark.parametrize("command", ["evolve", "compare"])
    def test_fidelity_within_tolerance_passes(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(approx, "fidelity", lambda a, b: 1.0 + 0.9e-12)
        assert run([command, "--preset", "fig4", "--times", "0,100", "--out-dir", str(tmp_path / "o")]) == 0


class TestDiscriminateCommand:
    def test_headline_numbers(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            ["discriminate", "--m", "1e-19", "--kbar", "1e-8", "--nbar", "1", "--solve-tmin", "--out-dir", str(out)]
        )
        assert code == 0
        results = load_json(out / "discriminate.json")["results"]
        assert results["t_min"] == pytest.approx(3 * math.pi * 1e46, rel=1e-12)
        assert 1e3 <= results["t_min_seconds"] <= 1e4
        assert results["hypotheses_ok"] is True

    def test_momentum_cap_next_to_the_zone_edge(self, tmp_path):
        out = tmp_path / "o"
        argv = ["discriminate", "--m", "1e-4", "--kbar", "3.14159", "--nbar", "1", "--t", "1", "--solve-tmin"]
        assert run(argv + ["--out-dir", str(out)]) == 0
        alpha_bar = load_json(out / "discriminate.json")["results"]["alpha_bar"]
        assert alpha_bar == pytest.approx(9.738320342213932e-05, rel=1e-15, abs=0)  # 250-digit mpmath

    def test_tiny_momentum_cap_gives_finite_beta(self, tmp_path):
        # (u_x + u_xc)/(v + v_c) ~ 1/k overflows when squared below k ~ 1e-154
        out = tmp_path / "o"
        assert run(["discriminate", "--m", "0.3", "--kbar", "1e-200", "--out-dir", str(out)]) == 0
        results = load_json(out / "discriminate.json")["results"]
        assert results["beta_bar"] == 0.0 and math.isfinite(results["f_limit"])

    def test_nan_on_the_monotonicity_grid_is_exit_2(self, tmp_path, capsys):
        # sin^2 omega underflows to 0 at the smallest grid momenta, where beta is nan
        assert run(["discriminate", "--m", "1e-200", "--kbar", "1e-160", "--out-dir", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "numerical-invariant"
        assert not (tmp_path / "o" / "discriminate.json").exists()

    def test_missing_required_flag(self, tmp_path, capsys):
        assert run(["discriminate", "--kbar", "0.5", "--out-dir", str(tmp_path / "o")]) == 1
        assert "--m" in json.loads(capsys.readouterr().out)["error"]["message"]


class TestFlytimeCommand:
    def test_headline(self, tmp_path):
        out = tmp_path / "o"
        code = run(["flytime", "--m", "1e-19", "--k", "1e-8", "--sigma-hat", "1e22", "--out-dir", str(out)])
        assert code == 0
        payload = load_json(out / "flytime.json")
        assert payload["results"]["t_relativistic"] == pytest.approx(6e60, rel=1e-12)
        assert payload["results"]["low_visibility"] is True
        assert any("visibility" in w for w in payload["warnings"])


class TestValidateBoundCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            ["validate-bound", "--m", "0.3", "--kbar", "0.8", "--nbar", "2", "--t", "50",
             "--samples", "500", "--seed", "42", "--out-dir", str(out)]
        )
        assert code == 0
        results = load_json(out / "validate_bound.json")["results"]
        assert results["max_observed"] <= results["bound"] + 1e-9
        assert results["seed"] == 42

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-5"), ("--workers", "0")])
    def test_rejects_nonpositive_counts(self, tmp_path, capsys, flag, value):
        argv = ["validate-bound", "--m", "0.3", "--kbar", "0.8", "--nbar", "2", "--t", "50",
                flag, value, "--out-dir", str(tmp_path / "o")]
        assert run(argv) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config"
        assert flag.lstrip("-") in record["error"]["message"]


class TestSymcheckCommand:
    def test_residuals(self, tmp_path):
        out = tmp_path / "o"
        assert run(["symcheck", "--m", "0.6", "--k-samples", "64", "--out-dir", str(out)]) == 0
        results = load_json(out / "symcheck.json")["results"]
        assert results["max_residual"] <= 1e-14


class TestInputBoundaries:
    @pytest.mark.parametrize(
        "argv",
        [
            ["flytime", "--m", "0.001", "--k", "nan", "--sigma-hat", "10"],
            ["flytime", "--m", "0.001", "--k", "0.1", "--sigma-hat", "inf"],
            ["evolve", "--preset", "fig4", "--times", "nan"],
            ["evolve", "--preset", "fig4", "--times", "0,inf"],
            ["evolve", "--sigma-hat", "nan", "--times", "0"],
            ["evolve", "--x0", "nan", "--times", "0"],
            ["compare", "--preset", "fig4", "--times", "0,nan"],
            ["compare", "--preset", "fig4", "--sigma", "nan"],
            ["discriminate", "--m", "0.3", "--kbar", "0.5", "--t", "nan"],
            ["discriminate", "--m", "0.3", "--kbar", "0.5", "--t", "inf"],
            ["symcheck", "--k-samples", "0"],
            ["compare", "--preset", "fig4", "--sigma", "0"],  # not replaced by the default window
            ["evolve", "--branch", "0", "--times", "0"],  # not replaced by the default branch
            ["compare", "--preset", ""],  # used to crash with KeyError: 'L'
            ["evolve", "--preset", "", "--times", "0"],  # used to mean "no preset"
            ["dispersion", "--preset", "", "--samples", "8"],
            ["dispersion", "--m", ",", "--samples", "8"],  # no mass: used to write no table and exit 0
            ["flytime", "--m", "0.5", "--k", "100", "--sigma-hat", "10"],  # outside the Brillouin zone
        ],
    )
    def test_rejects_nonfinite_or_empty_input(self, tmp_path, capsys, argv):
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"
        assert not (tmp_path / "o" / (argv[0] + ".json")).exists()


def _floats(lo, hi, **bounds):
    return st.floats(lo, hi, **bounds).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


NEGATIVE = _floats(-1e300, -5e-324)
# input -> (argv before the flag, flag, good values, out-of-range values); the good ranges stop at
# 1e-19 for masses and momenta and at 1e+-100 for widths, where products of squares still fit a double
INPUTS = {
    "mass": (
        ["symcheck", "--k-samples", "4"], "--m", _floats(0.0, 1.0), NEGATIVE | _floats(1.0, 1e300, exclude_min=True)
    ),
    "momentum": (
        ["flytime", "--m", "0.5", "--sigma-hat", "10"],
        "--k",
        _floats(1e-19, math.pi) | _floats(-math.pi, -1e-19),
        st.just("0.0") | _floats(math.pi, 1e300, exclude_min=True) | _floats(-1e300, -math.pi, exclude_max=True),
    ),
    "momentum cap": (
        ["discriminate", "--m", "0.3"],
        "--kbar",
        _floats(0.0, math.pi, exclude_max=True),
        NEGATIVE | _floats(math.pi, 1e300),
    ),
    "time": (["discriminate", "--m", "0.3", "--kbar", "0.5"], "--t", _floats(0.0, 1e300), NEGATIVE),
    "times": (
        ["evolve", "--L", "16", "--sigma-hat", "1", "--x0", "8"],
        "--times",
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=3).map(lambda ts: ",".join(map(repr, ts))),
        NEGATIVE.map(lambda t: "0," + t),
    ),
    "width": (["flytime", "--m", "0.5", "--k", "1"], "--sigma-hat", _floats(1e-100, 1e100), _floats(-1e300, 0.0)),
    "samples": (["dispersion", "--m", "0.5"], "--samples", _ints(2, 64), _ints(-10**6, 1)),
    "workers": (
        ["validate-bound", "--m", "0.3", "--kbar", "0.8", "--nbar", "2", "--t", "50", "--samples", "8"],
        "--workers",
        _ints(1, 4),
        _ints(-10**6, 0),
    ),
    "k-samples": (["symcheck"], "--k-samples", _ints(1, 64), _ints(-10**6, 0)),
}


def _run_input(name, value):
    """Exit code, printed record and whether a summary was written, for one value of one input."""
    prefix, flag, _, _ = INPUTS[name]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as printed:
        out = os.path.join(tmp, "o")
        code = run(prefix + [f"{flag}={value}", "--out-dir", out])
        summary = os.path.exists(os.path.join(out, prefix[0].replace("-", "_") + ".json"))
    return code, printed.getvalue(), summary


def _assert_rejected(name, value):
    code, printed, summary = _run_input(name, value)
    assert code == 1, (name, value)
    assert json.loads(printed)["error"]["type"] == "config"
    assert not summary


class TestInputProperties:
    """One property per rejected input class: a bad draw is exit 1, a config record and no summary."""

    @given(name=st.sampled_from(sorted(INPUTS)), value=st.sampled_from(["nan", "inf", "-inf"]))
    @settings(max_examples=30, deadline=None)
    def test_nonfinite_input_is_rejected(self, name, value):
        _assert_rejected(name, value)

    @given(draw=st.one_of([st.tuples(st.just(name), spec[3]) for name, spec in sorted(INPUTS.items())]))
    @settings(max_examples=60, deadline=None)
    def test_out_of_range_input_is_rejected(self, draw):
        _assert_rejected(*draw)

    @given(name=st.sampled_from(sorted(INPUTS)), value=st.sampled_from(["", ",", ",,", " "]))
    @settings(max_examples=40, deadline=None)
    def test_empty_input_is_rejected(self, name, value):
        _assert_rejected(name, value)

    @given(draw=st.one_of([st.tuples(st.just(name), spec[2]) for name, spec in sorted(INPUTS.items())]))
    @settings(max_examples=60, deadline=None)
    def test_good_input_runs(self, draw):
        code, printed, summary = _run_input(*draw)
        assert (code, printed, summary) == (0, "", True), draw


class TestConfigHandling:
    def test_config_file_and_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# dispersion settings\nm = 0.3\nsamples = 8\n")
        out = tmp_path / "o"
        assert run(["dispersion", "--config", str(config), "--m", "0.5", "--out-dir", str(out)]) == 0
        payload = load_json(out / "dispersion.json")
        assert payload["params"]["m"] == [0.5]  # flag wins over config
        assert payload["params"]["samples"] == 8

    def test_unknown_config_key_is_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("masss = 0.3\n")
        assert run(["dispersion", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert "masss" in record["error"]["message"]

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("just some text\n")
        assert run(["dispersion", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "argv, config, keys",
        [
            (["evolve", "--preset", "fig2", "--m", "0.3", "--L", "64"], "", "L, m"),
            (["evolve", "--preset", "fig4", "--sigma-hat", "5", "--k0", "0.2"], "", "sigma_hat, k0"),
            (["evolve", "--preset", "fig2-smooth"], "x0 = 10\n", "x0"),
            (["dispersion", "--preset", "fig3", "--m", "0.2"], "", "m"),
            (["dispersion", "--preset", "fig3"], "m = 0.2\n", "m"),
            (["evolve", "--preset", "fig2", "--k0", "0.2", "--sigma-hat", "5"], "", "sigma_hat, k0"),
        ],
    )
    def test_preset_rejects_keys_it_fixes(self, tmp_path, capsys, argv, config, keys):
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config"
        assert f"fixes {keys};" in record["error"]["message"]
        assert not (tmp_path / "o" / (argv[0] + ".json")).exists()

    @pytest.mark.parametrize("command", ["dispersion", "evolve", "compare"])
    def test_empty_preset_in_config_is_rejected(self, tmp_path, capsys, command):
        (tmp_path / "run.cfg").write_text("preset =\n")
        assert run([command, "--config", str(tmp_path / "run.cfg"), "--out-dir", str(tmp_path / "o")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config"
        assert f"unknown {command} preset ''" in record["error"]["message"]

    @pytest.mark.parametrize(
        "argv, known",
        [(["dispersion", "--preset", "fig4"], "fig3"), (["compare", "--preset", "fig2"], "fig2-smooth, fig4")],
    )
    def test_unknown_preset_names_the_known_ones(self, tmp_path, capsys, argv, known):
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config"
        assert record["error"]["message"].endswith(f"known: {known}")

    def test_preset_keeps_branch_flag(self, tmp_path):
        out = tmp_path / "o"
        argv = ["evolve", "--preset", "fig2-smooth", "--branch", "-1", "--times", "0"]
        assert run(argv + ["--out-dir", str(out)]) == 0
        assert load_json(out / "evolve.json")["params"]["branch"] == -1

    def test_usage_error_is_exit_1(self, capsys):
        assert run(["no-such-command"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config"

    def test_numerical_invariant_maps_to_exit_2(self, tmp_path, capsys, monkeypatch):
        from dirac_qca.errors import NumericalInvariantError

        def boom(params, out_dir, warnings):
            raise NumericalInvariantError("synthetic failure")

        monkeypatch.setitem(cli.RUNNERS, "symcheck", boom)
        assert run(["symcheck", "--out-dir", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "numerical-invariant"

    def test_infinity_serialized_as_string(self, tmp_path):
        out = tmp_path / "o"
        # massless: f_limit is infinite
        assert run(["discriminate", "--m", "0", "--kbar", "0.5", "--out-dir", str(out)]) == 0
        payload = load_json(out / "discriminate.json")
        assert payload["results"]["f_limit"] == "inf"


class TestParserReuse:
    """``main`` reuses one parser per process: no call may see another call's flags."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_flag_does_not_carry_over(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(["evolve", "--preset", "fig4", "--svg", "--out-dir", str(first)]) == 0
        assert (first / "evolve.svg").exists()
        assert run(["evolve", "--preset", "fig4", "--out-dir", str(second)]) == 0
        assert not (second / "evolve.svg").exists()
        assert load_json(second / "evolve.json")["params"]["svg"] is False

    @pytest.mark.parametrize(
        "bad",
        [
            ["evolve", "--preset", "fig2", "--svg", "--no-such-flag"],
            ["evolve", "--svg", "--L", "64", "--times"],
            ["no-such-command", "--svg"],
        ],
    )
    def test_usage_error_leaves_no_trace(self, tmp_path, capsys, bad):
        argv = ["evolve", "--preset", "fig4", "--times", "0,100"]
        alone = tmp_path / "alone"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        subprocess.run([sys.executable, "-m", "dirac_qca.cli", *argv, "--out-dir", str(alone)], env=env, check=True)
        assert run(bad) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"
        after = tmp_path / "after"
        assert run(argv + ["--out-dir", str(after)]) == 0
        names = sorted(p.name for p in alone.iterdir())
        assert names == sorted(p.name for p in after.iterdir())
        for name in names:
            assert (after / name).read_bytes() == (alone / name).read_bytes()

    def test_config_does_not_carry_over(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("m = 0.3\nsamples = 8\nsvg = true\nseed = 9\n")
        assert run(["dispersion", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == 0
        assert load_json(tmp_path / "a" / "dispersion.json")["params"]["samples"] == 8
        assert run(["dispersion", "--out-dir", str(tmp_path / "b")]) == 0
        params = load_json(tmp_path / "b" / "dispersion.json")["params"]
        assert params == {"m": [0.6], "samples": 512, "preset": None, "svg": False, "seed": 0}
