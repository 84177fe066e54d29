import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_qca import SpinorField, approx, automaton, cli, derivatives, dirac_omega, discrimination, dispersion, omega

from conftest import traced_peak
from test_csv import assert_csv_of


def run(argv):
    return cli.main(argv)


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def count_fidelity(monkeypatch):
    """A list that gains the times of each ``approx.fidelity`` call from now on."""
    calls = []
    original = approx.fidelity

    def counted(spectrum, params, k0, times):
        calls.append(list(times))
        return original(spectrum, params, k0, times)

    monkeypatch.setattr(approx, "fidelity", counted)
    return calls


def count_ifft(monkeypatch):
    """A list that gains one entry per ``np.fft.ifft`` call from now on."""
    calls = []
    original = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    return calls


class TestDispersionCommand:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "o"
        assert run(["dispersion", "--m", "0.6", "--samples", "512", "--out-dir", str(out)]) == 0
        lines = (out / "dispersion_m0.6.csv").read_text().splitlines()
        assert lines[0] == "k,omega,omega_dirac,v,D,omega3"
        assert len(lines) == 513  # header + 512 rows

    def test_csv_numbers_are_shortest_round_trip(self, tmp_path):
        # 4096 samples give cells that orjson spells unlike repr, such as 0.00004878654347511213 (4.878654347511213e-05)
        out = tmp_path / "o"
        assert run(["dispersion", "--m", "0.37", "--samples", "4096", "--out-dir", str(out)]) == 0
        data = (out / "dispersion_m0.37.csv").read_bytes()
        assert b",0.00004878654347511213" in data
        ks = np.linspace(-math.pi, math.pi, 4096)
        columns = [ks, omega(ks, 0.37), dirac_omega(ks, 0.37), *derivatives(ks, 0.37)]
        assert_csv_of(data, ["k", "omega", "omega_dirac", "v", "D", "omega3"], columns)

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

    @pytest.mark.parametrize("masses", ["nan", "0.3,nan", "nan,0.3,nan"])
    def test_nan_mass_is_named_before_any_file_name(self, tmp_path, capsys, masses):
        # nan != nan: a mass checked only after the files are named is blamed on a shared file name
        out = tmp_path / "o"
        assert run(["dispersion", "--m", masses, "--samples", "8", "--out-dir", str(out)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"message": "mass must lie in [0, 1], got nan", "type": "config"}
        assert not out.exists() or not any(out.iterdir())

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
        fidelity_calls = count_fidelity(monkeypatch)
        assert run(["evolve", "--preset", "fig4", "--times", "100,0,100", "--out-dir", str(tmp_path / "o")]) == 0
        assert calls == [0.0, 100.0]
        assert fidelity_calls == [[0.0, 100.0]]

    def test_one_inverse_fft_per_distinct_time(self, tmp_path, monkeypatch):
        calls = []
        original = cli.inverse_transform

        def counted(spec, **kwargs):
            calls.append(spec.L)
            return original(spec, **kwargs)

        monkeypatch.setattr(cli, "inverse_transform", counted)
        assert run(["evolve", "--preset", "fig4", "--times", "0,100,100", "--out-dir", str(tmp_path / "o")]) == 0
        assert calls == [1024, 1024]

    def test_memory_of_a_time_step_on_a_large_ring(self, tmp_path):
        # the initial and exact spectra (L x 2 complex each) and one block of U(k)^t's pieces, at most 12 arrays of
        # MODE_BLOCK doubles, plus 64 KiB for the run's objects: 5.56 MiB at L = 65536, measured 5.51, where the
        # drift-diffusion spectrum beside them took the peak to 6.75 MiB; the first run keeps first-call
        # allocations out
        L = 65536
        job = ["evolve", "--L", str(L), "--x0", "30000", "--k0", "1.0", "--times", "1000", "--out-dir", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code, peak = traced_peak(lambda: run(job))
        assert code == 0
        assert peak <= 2 * L * 32 + 12 * dispersion.MODE_BLOCK * 8 + 65536

    def test_repeated_time_reuses_its_curve(self, tmp_path):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig4", "--times", "100,0,100", "--svg", "--out-dir", str(out)]) == 0
        polylines = re.findall(r'points="([^"]*)"', (out / "evolve.svg").read_text())
        assert len(polylines) == 3
        assert polylines[0] == polylines[2] != polylines[1]

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

    def test_localized_run_evolves_each_time_in_closed_form(self, tmp_path, monkeypatch):
        steps, evolved = [], []
        original = cli.evolve_momentum

        def counted(*args):
            evolved.append(args[2])
            return original(*args)

        monkeypatch.setattr(automaton, "evolve_position", lambda *args: steps.append(args))
        monkeypatch.setattr(cli, "evolve_momentum", counted)
        assert run(["evolve", "--preset", "fig2", "--times", "60,0,15,15,45", "--out-dir", str(tmp_path / "o")]) == 0
        assert steps == []
        assert evolved == [0.0, 15.0, 45.0, 60.0]

    @pytest.mark.parametrize("preset, norm", [("fig2", 1.0 + 2e-12), ("fig4", 1.0 - 2e-12), ("fig2", math.nan)])
    def test_norm_drift_is_exit_2(self, tmp_path, capsys, monkeypatch, preset, norm):
        # both take the momentum path; fig2's state is checked after its zeros outside the light cone are set
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


def fig2_density_oracle(t, L=128, m=0.92, x0=30, dps=40):
    """The fig2 density at integer time t, evolved per mode in ``dps``-digit arithmetic.

    The state (1, 1)/sqrt(2) at x0 has the mode amplitudes (1, 1) e^{-i k x0} / sqrt(2 L); each mode is
    multiplied by U(k)^t = [[c + i s n sin k, -i s m], [-i s m, c - i s n sin k]], c = cos(w t),
    s = sin(w t) / sin w, w = arccos(n cos k), with n = sqrt(1 - m^2) exact for the double m.
    """
    with mp.workdps(dps):
        m = mp.mpf(m)
        n = mp.sqrt(1 - m * m)
        roots = [mp.expjpi(mp.mpf(2 * q) / L) for q in range(L)]
        modes = []
        for j in range(L):
            k = 2 * mp.pi * j / L
            w = mp.acos(n * mp.cos(k))
            c, s = mp.cos(w * t), mp.sin(w * t) / mp.sin(w)
            a, b = mp.mpc(c, s * n * mp.sin(k)), mp.mpc(0, -s * m)
            modes.append(((a + b) / mp.sqrt(2), (b + mp.conj(a)) / mp.sqrt(2)))
        density = []
        for x in range(L):
            phases = [roots[(j * (x - x0)) % L] for j in range(L)]
            psi_r = mp.fsum(mode[0] * phase for mode, phase in zip(modes, phases)) / L
            psi_l = mp.fsum(mode[1] * phase for mode, phase in zip(modes, phases)) / L
            density.append(float(abs(psi_r) ** 2 + abs(psi_l) ** 2))
    return np.array(density)


class TestLocalizedClosedForm:
    """fig2's localized state, evolved in closed form per mode and zeroed outside its light cone."""

    @pytest.mark.parametrize("t", [50000, 100000, 1000000])
    def test_norm_holds_at_long_times(self, tmp_path, t):
        # the position-space stencil drifts by about 2.1e-17 per step and left the tolerance near t = 47000
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig2", "--times", str(t), "--out-dir", str(out)]) == 0
        (summary,) = load_json(out / "evolve.json")["results"]["summaries"]
        assert abs(summary["norm"] - 1.0) <= 1e-12

    # measured largest |density error|: 1.53e-16 at t = 15 and 6.89e-14 at t = 1e4 (peak density 0.059);
    # each tolerance is about three times that
    @pytest.mark.parametrize("t, tol", [(15, 5e-16), (10000, 2e-13)])
    def test_density_matches_mpmath_oracle(self, tmp_path, t, tol):
        out = tmp_path / "o"
        assert run(["evolve", "--preset", "fig2", "--times", str(t), "--out-dir", str(out)]) == 0
        table = np.loadtxt(out / f"evolve_t{t}.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(table[:, 1] - fig2_density_oracle(t))) <= tol

    def test_strict_light_cone_on_cli_output(self, tmp_path):
        # criterion 3: after t steps every site farther than t from x0 = 30 around the ring holds exactly 0
        out = tmp_path / "o"
        times = range(61)
        assert run(["evolve", "--preset", "fig2", "--times", ",".join(map(str, times)), "--out-dir", str(out)]) == 0
        x = np.arange(128)
        offset = (x - 30) % 128
        for t in times:
            density = np.loadtxt(out / f"evolve_t{t}.csv", delimiter=",", skiprows=1)[:, 1]
            outside = np.minimum(offset, 128 - offset) > t
            assert np.all(density[outside] == 0.0)


class TestCompareCommand:
    def test_fig4_compare_table(self, tmp_path):
        out = tmp_path / "o"
        assert run(["compare", "--preset", "fig4", "--times", "0,100,200", "--out-dir", str(out)]) == 0
        rows = load_json(out / "compare.json")["results"]["rows"]
        assert [r["t"] for r in rows] == [0.0, 100.0, 200.0]
        for row in rows:
            assert row["fidelity"] >= row["bound"] - 1e-9

    def test_one_fidelity_call_and_no_evolution(self, tmp_path, monkeypatch):
        evolutions = []
        monkeypatch.setattr(cli, "evolve_momentum", lambda *args: evolutions.append(args))
        fidelity_calls = count_fidelity(monkeypatch)
        out = tmp_path / "o"
        assert run(["compare", "--preset", "fig4", "--times", "0,100,100,600", "--out-dir", str(out)]) == 0
        assert evolutions == []
        assert fidelity_calls == [[0.0, 100.0, 600.0]]
        lines = (out / "compare.csv").read_text().splitlines()  # the header, then one line per requested time
        assert len(lines) == 5
        assert lines[2] == lines[3] != lines[4]
        assert float(lines[2].split(",")[0]) == 100.0

    def test_rejects_localized_preset(self, tmp_path, capsys):
        assert run(["compare", "--preset", "fig2", "--out-dir", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"

    def test_makes_no_inverse_fft(self, tmp_path, monkeypatch):
        calls = count_ifft(monkeypatch)
        assert run(["compare", "--preset", "fig4", "--out-dir", str(tmp_path / "o")]) == 0
        assert calls == []


class TestFidelityPostcondition:
    @pytest.mark.parametrize("command", ["evolve", "compare"])
    @pytest.mark.parametrize("fid", [1.0 + 2e-12, math.nan, -1e-300])
    def test_fidelity_out_of_range_is_exit_2(self, tmp_path, capsys, monkeypatch, command, fid):
        # every value is checked: only the last time's is out of range
        monkeypatch.setattr(approx, "fidelity", lambda spectrum, params, k0, times: [0.5] * (len(times) - 1) + [fid])
        assert run([command, "--preset", "fig4", "--times", "0,100", "--out-dir", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "numerical-invariant"
        assert "fidelity" in record["error"]["message"] and "t = 100" in record["error"]["message"]

    @pytest.mark.parametrize("command", ["evolve", "compare"])
    def test_fidelity_within_tolerance_passes(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(approx, "fidelity", lambda spectrum, params, k0, times: [1.0 + 0.9e-12] * len(times))
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

    def test_missing_required_flag(self, tmp_path, capsys):
        assert run(["discriminate", "--kbar", "0.5", "--out-dir", str(tmp_path / "o")]) == 1
        assert "--m" in json.loads(capsys.readouterr().out)["error"]["message"]

    @pytest.mark.parametrize("solve_tmin", [[], ["--solve-tmin"]])
    def test_one_alpha_beta_grid_per_job(self, tmp_path, monkeypatch, solve_tmin):
        calls = []
        original = discrimination.extremal_alpha_beta

        def counted(k_bar, m):
            calls.append((k_bar, m))
            return original(k_bar, m)

        monkeypatch.setattr(discrimination, "extremal_alpha_beta", counted)
        argv = ["discriminate", "--m", "0.3", "--kbar", "0.8", "--nbar", "2", "--t", "50"]
        assert run(argv + solve_tmin + ["--out-dir", str(tmp_path / "o")]) == 0
        assert calls == [(0.8, 0.3)]

    @pytest.mark.parametrize("m, kbar, nbar", [(0.3, 0.8, 2), (1e-19, 1e-8, 1), (0.1, 0.5, 64), (0.9, 3.0, 50)])
    @pytest.mark.parametrize("t", [0.0, 50.0, 1e300])
    def test_tmin_exact_is_the_library_value(self, tmp_path, m, kbar, nbar, t):
        # 1e300 lies beyond every cap here; (0.9, 3.0, 50) fails the beta_bar hypothesis
        out = tmp_path / "o"
        argv = ["discriminate", "--m", repr(m), "--kbar", repr(kbar), "--nbar", str(nbar), "--t", repr(t)]
        assert run(argv + ["--solve-tmin", "--out-dir", str(out)]) == 0
        results = load_json(out / "discriminate.json")["results"]
        expected = discrimination.t_min_exact(m, kbar, nbar)
        assert results["t_min_exact"] == results["f_limit"]
        if expected is None:
            assert results["t_min_exact"] is None
        else:
            assert results["t_min_exact"].hex() == expected.hex()

    def test_f_limit_is_null_when_beta_hypothesis_fails(self, tmp_path):
        out = tmp_path / "o"
        assert run(["discriminate", "--m", "0.9", "--kbar", "3.0", "--nbar", "50", "--out-dir", str(out)]) == 0
        payload = load_json(out / "discriminate.json")
        assert payload["results"]["f_limit"] is None and payload["results"]["hypotheses_ok"] is False
        assert any("hypotheses do not hold" in w for w in payload["warnings"])

    @pytest.mark.parametrize("flags", [["--m", "0", "--kbar", "0.5"], ["--m", "0.3", "--kbar", "0"]])
    def test_degenerate_caps_with_solve_tmin_are_exit_1(self, tmp_path, capsys, flags):
        assert run(["discriminate", *flags, "--solve-tmin", "--out-dir", str(tmp_path / "o")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"] == {"type": "config", "message": "need m > 0 and k_bar > 0"}
        assert not (tmp_path / "o" / "discriminate.json").exists()


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
        assert results["max_observed"] <= results["sup"] <= results["bound"] * (1.0 + discrimination.BOUND_REL_TOL)
        assert results["tightness"] == results["sup"] / results["bound"]
        assert 0.0 <= results["k_star"] <= 0.8
        assert results["seed"] == 42

    @pytest.mark.parametrize(
        "m, kbar, t",
        [("1e-10", "1e-5", "1e20"), ("1e-19", "1e-8", "1e40")],  # both used to exit 2 with a false violation
        ids=["m1e-10", "headline"],
    )
    def test_small_mass_points_stay_within_the_cap(self, tmp_path, m, kbar, t):
        out = tmp_path / "o"
        argv = ["validate-bound", "--m", m, "--kbar", kbar, "--nbar", "1", "--t", t, "--samples", "2000",
                "--out-dir", str(out)]
        assert run(argv) == 0
        results = load_json(out / "validate_bound.json")["results"]
        assert 0.0 < results["max_observed"] <= results["bound"]

    def test_overflowed_phase_at_zero_mass_is_exit_0(self, tmp_path):
        # sigma t/2 overflows near k = pi; at m = 0 its weight beta is 0, and so is every sampled distance
        out = tmp_path / "o"
        argv = ["validate-bound", "--m", "0", "--kbar", "3", "--nbar", "1", "--t", "1e308", "--samples", "100",
                "--out-dir", str(out)]
        assert run(argv) == 0
        results = load_json(out / "validate_bound.json")["results"]
        assert results["max_observed"] == 0.0 == results["bound"]

    def test_underflowed_sin_omega_at_zero_mass_is_exit_0(self, tmp_path):
        # sin omega underflows to 0 on the whole grid; at m = 0 the two axes coincide, so beta = 0 there, not nan
        out = tmp_path / "o"
        argv = ["validate-bound", "--m", "0", "--kbar", "1e-161", "--nbar", "1", "--t", "1e250", "--samples", "100",
                "--out-dir", str(out)]
        assert run(argv) == 0
        results = load_json(out / "validate_bound.json")["results"]
        assert results["max_observed"] == results["sup"] == results["bound"] == 0.0
        assert results["tightness"] is None

    def test_overflowed_phase_at_positive_mass_is_exit_2(self, tmp_path, capsys):
        # alpha_bar = 2.4e-308 puts the time cap past 6.2e307, where sigma t/2 overflows for |k| > 2.9
        argv = ["validate-bound", "--m", "4.5e-155", "--kbar", "3.1", "--nbar", "1", "--t", "6.2e307",
                "--samples", "100", "--out-dir", str(tmp_path / "o")]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ""  # no numpy warning lines before the record
        record = json.loads(captured.out)
        assert record["error"]["type"] == "numerical-invariant"
        assert "nan" in record["error"]["message"]

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
            # distinct values that share an output file name: the second used to overwrite or skip the first
            ["evolve", "--L", "64", "--sigma-hat", "2", "--x0", "32", "--times", "1000000,1000001"],
            ["dispersion", "--m", "0.1234561,0.1234562", "--samples", "4"],
            # t_min beyond the double range: used to raise ZeroDivisionError, and to report "inf"
            ["discriminate", "--m", "1e-160", "--kbar", "1e-8", "--solve-tmin"],
            ["discriminate", "--m", "1e-155", "--kbar", "1e-8", "--solve-tmin"],
            # a particle cap beyond the double range: used to raise OverflowError
            ["discriminate", "--m", "0.3", "--kbar", "0.5", "--nbar", "1" + "0" * 400],
            # products that leave the double range: used to raise ZeroDivisionError (2 sigma_hat^2, m^2 k^2),
            # to blame an input time (sigma_hat 1e308), or to report a nan broadening (sigma_hat 1e-155)
            ["flytime", "--m", "0.5", "--k", "1", "--sigma-hat", "1e-200"],
            ["flytime", "--m", "0.05", "--k=-1e-260", "--sigma-hat", "1"],
            ["flytime", "--m", "5e-324", "--k", "1", "--sigma-hat", "1"],
            ["flytime", "--m", "0.5", "--k", "1", "--sigma-hat", "1e308"],
            ["flytime", "--m", "0.5", "--k", "1", "--sigma-hat", "1e-155"],
            # a centre off the ring: used to wrap silently, or to give a flat density
            ["evolve", "--L", "1024", "--x0", "1e300", "--times", "0,100"],
            ["evolve", "--L", "1024", "--x0", "5000", "--times", "0,100"],
            # an envelope whose squared norm underflows between the sites: used to end in a nan fidelity, exit 2
            ["evolve", "--L", "64", "--sigma-hat", "0.01", "--x0", "8.5", "--times", "0"],
            ["evolve", "--L", "64", "--sigma-hat", "1e-100", "--x0", "8.5", "--times", "0"],
            ["evolve", "--L", "64", "--sigma-hat", "1e-170", "--x0", "8.5", "--times", "0"],
            # an alpha_bar below the normal double range: used to fail the monotonicity check as exit 2,
            # or to report a zero or subnormal alpha_bar with f_limit "inf"
            ["discriminate", "--m", "1e-152", "--kbar", "1e-8"],
            ["discriminate", "--m", "1e-154", "--kbar", "1e-8"],
            ["discriminate", "--m", "1e-155", "--kbar", "1"],
            ["discriminate", "--m", "1e-200", "--kbar", "1e-160"],  # its alpha_bar is 0.0
        ],
    )
    def test_rejects_nonfinite_or_empty_input(self, tmp_path, capsys, argv):
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"
        assert not (tmp_path / "o" / (argv[0] + ".json")).exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # an envelope on one site, with sigma_hat**2 subnormal or 0: used to overflow, or to end in a nan fidelity
            ["evolve", "--L", "64", "--sigma-hat", "1e-155", "--x0", "8", "--times", "0"],
            ["evolve", "--L", "64", "--sigma-hat", "1e-170", "--x0", "8", "--times", "0"],
        ],
    )
    def test_narrowest_packets_are_normalized(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run(argv + ["--out-dir", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert load_json(out / "evolve.json")["results"]["summaries"][0]["norm"] == 1.0

    def test_smallest_normal_alpha_bar_is_reported(self, tmp_path):
        out = tmp_path / "o"
        assert run(["discriminate", "--m", "1e-150", "--kbar", "1", "--out-dir", str(out)]) == 0
        assert load_json(out / "discriminate.json")["results"]["alpha_bar"] == pytest.approx(1.79e-301, rel=1e-3)


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
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=3)
        .filter(lambda ts: len({f"{t:g}" for t in ts}) == len(set(ts)))  # distinct times, distinct file names
        .map(lambda ts: ",".join(map(repr, ts))),
        NEGATIVE.map(lambda t: "0," + t),
    ),
    "centre": (
        ["evolve", "--L", "16", "--sigma-hat", "1", "--times", "0"],
        "--x0",
        _floats(0.0, 16.0, exclude_max=True),
        NEGATIVE | _floats(16.0, 1e300),
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
    # one sample's draws must fit a block: CONFIGS_PER_STATE * N_bar <= MC_BLOCK_DRAWS
    "particle cap": (
        ["validate-bound", "--m", "1e-10", "--kbar", "1e-5", "--t", "1", "--samples", "8"],
        "--nbar",
        _ints(1, 20480),
        _ints(20481, 10**12),
    ),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--samples", "8"],
            ["evolve", "--L", "64", "--x0", "32", "--sigma-hat", "4", "--times", "0,1"],
            ["compare", "--times", "0"],
            ["discriminate", "--m", "0.3", "--kbar", "0.8"],
            ["flytime", "--m", "0.3", "--k", "0.5", "--sigma-hat", "10"],
            ["symcheck", "--k-samples", "8"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_seed_is_an_option_of_validate_bound_only(self, tmp_path, capsys, argv, form):
        # each of these runs exits 0 without the seed; only validate-bound draws random numbers
        if form == "flag":
            argv = argv + ["--seed", "1"]
        else:
            (tmp_path / "run.cfg").write_text("seed = 9\n")
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["error"]["type"] == "config"
        assert "seed" in record["error"]["message"]
        assert not (tmp_path / "o" / (argv[0] + ".json")).exists()

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
            (["evolve", "--preset", "fig2", "--branch", "-1", "--times", "15"], "", "branch"),
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
        config.write_text("m = 0.3\nsamples = 8\nsvg = true\n")
        assert run(["dispersion", "--config", str(config), "--out-dir", str(tmp_path / "a")]) == 0
        assert load_json(tmp_path / "a" / "dispersion.json")["params"]["samples"] == 8
        assert run(["dispersion", "--out-dir", str(tmp_path / "b")]) == 0
        params = load_json(tmp_path / "b" / "dispersion.json")["params"]
        assert params == {"m": [0.6], "samples": 512, "preset": None, "svg": False}
        config.write_text("m = 0.3\nkbar = 0.8\nt = 50\nsamples = 8\nseed = 9\n")
        assert run(["validate-bound", "--config", str(config), "--out-dir", str(tmp_path / "c")]) == 0
        assert load_json(tmp_path / "c" / "validate_bound.json")["params"]["seed"] == 9
        argv = ["validate-bound", "--m", "0.3", "--kbar", "0.8", "--t", "50", "--samples", "8"]
        assert run(argv + ["--out-dir", str(tmp_path / "d")]) == 0
        params = load_json(tmp_path / "d" / "validate_bound.json")["params"]
        assert params == {"m": 0.3, "kbar": 0.8, "nbar": 1, "t": 50.0, "samples": 8, "workers": 1, "seed": 0}
