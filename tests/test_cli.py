"""End-to-end command-line behavior: artifacts, summaries, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import pumpsim
from pumpsim import _periodic, analysis, cli, dynamics
from pumpsim.cli import main
from pumpsim.scenario import load_scenario, scenario_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"{key} not in output:\n{out}")


class TestBudget:
    def test_bundled_chain_verdict(self, capsys):
        code, out, _ = run(capsys, "budget")
        assert code == 0
        assert summary_value(out, "total_db") == pytest.approx(97.6, abs=1e-9)
        assert summary_value(out, "required_db") == pytest.approx(62.52, abs=0.01)
        assert "verdict=resilient" in out

    def test_fiber_damage_budget(self, capsys):
        code, out, _ = run(capsys, "budget", "--attack-w", "4", "--safe-w",
                           "1.4e-4")
        assert code == 0
        assert summary_value(out, "required_db") == pytest.approx(44.56,
                                                                  abs=0.01)

    def test_report_file_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "verdict.txt"
        code, _, _ = run(capsys, "budget", "--out", str(out_path))
        assert code == 0
        assert "verdict=resilient" in out_path.read_text()
        sidecar = json.loads((tmp_path / "verdict.txt.meta.json").read_text())
        assert sidecar["command"] == "budget"

    def test_empty_chain_file(self, capsys, tmp_path):
        chain = tmp_path / "chain.csv"
        chain.write_text("")
        code, _, err = run(capsys, "budget", "--chain", str(chain))
        assert code == 1
        assert "no components" in err

    def test_malformed_chain_row(self, capsys, tmp_path):
        chain = tmp_path / "chain.csv"
        chain.write_text("name,loss_db\nIsolator,30.0\nbroken\n")
        code, _, err = run(capsys, "budget", "--chain", str(chain))
        assert code == 1
        assert "line 3" in err

    def test_bad_budget_values(self, capsys):
        code, _, err = run(capsys, "budget", "--attack-w", "1e-5", "--safe-w",
                           "1.4e-4")
        assert code == 1
        assert "attack_power_w" in err


class TestSimulate:
    def test_trace_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "simulate", "--out", str(out_path))
        assert code == 0
        assert summary_value(out, "clamp_count") == 0

        data = np.loadtxt(out_path, delimiter=",", skiprows=1)
        t, p = data[:, 0], data[:, 3]
        # one optical pulse per 2.5 GHz drive period
        threshold = 0.5 * p.max()
        rising = np.flatnonzero((p[1:] >= threshold) & (p[:-1] < threshold))
        spacing = np.diff(t[rising])
        assert np.allclose(spacing, 0.4e-9, rtol=0.02)

    def test_pumping_increases_pulse_energy(self, capsys, tmp_path):
        code0, out0, _ = run(capsys, "simulate", "--out",
                             str(tmp_path / "a.csv"))
        code1, out1, _ = run(capsys, "simulate", "--out",
                             str(tmp_path / "b.csv"), "--pump-mw", "1.6")
        assert code0 == 0 and code1 == 0
        assert (summary_value(out1, "pulse_energy_j")
                > summary_value(out0, "pulse_energy_j"))

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "simulate", "--out", str(a))[0] == 0
        assert run(capsys, "simulate", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert ((tmp_path / "a.csv.meta.json").read_text()
                == (tmp_path / "b.csv.meta.json").read_text())

    @pytest.mark.parametrize("pump_mw, digest", [
        ("0", "e71cf9de25d79f8cc343a363266d1151d3e2c5cdf0ac8208fe5a76057371f94f"),
        ("1.6", "a3b0b0984450b10d829a726ec6fb71b6026a31a1998b832da991d82b52f47ee7"),
    ])
    def test_default_trace_digest(self, capsys, tmp_path, kernel, pump_mw,
                                  digest):
        """The bytes of the default trace, pinned: a change to the integrator
        or to the CSV writer that moves one byte fails here."""
        out = tmp_path / "trace.csv"
        assert run(capsys, "simulate", "--out", str(out),
                   "--pump-mw", pump_mw)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_stalled_trace_bytes_match_savetxt(self, capsys, tmp_path,
                                               monkeypatch):
        """At 2% duty most steps stall, so the trace's (n, q, p) rows come in
        runs, and at 7-row blocks the runs cross block edges; the file is
        still savetxt's bytes for the same simulation."""
        doc = scenario_dict(load_scenario("default"))
        doc["laser"]["tau_ph_ps"] = 10.0
        doc["drive"].update(i_bias_ma=25.0, i_pulse_ma=5.0, rep_rate_ghz=0.1)
        doc["numerics"].update(dt_ps=1.0, warmup_ns=0.0, t_total_ns=50.5)
        path = tmp_path / "lowduty.yaml"
        path.write_text(yaml.safe_dump(doc))
        monkeypatch.setattr(dynamics, "_CSV_BLOCK_ROWS", 7)
        got = tmp_path / "trace.csv"
        assert run(capsys, "simulate", "--scenario", str(path),
                   "--out", str(got))[0] == 0

        trace = pumpsim.simulate(load_scenario(str(path)).sim_config())
        table = np.column_stack([trace.t, trace.n, trace.q, trace.p])
        bits = table[:, 1:].view(np.int64)
        assert np.all(bits[1:] == bits[:-1], axis=1).mean() > 0.5
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            np.savetxt(fh, table, fmt="%.12g", delimiter=",",
                       header="t_s,n,q,p_w", comments="")
        assert got.read_bytes() == want.read_bytes()

    def test_missing_field_names_it(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "laser:\n"
            "  tau_e_ns: 1.0\n  gamma_conf: 0.12\n"
            "  n_th: 6.5e+7\n  n_0: 5.5e+7\n  c_sp: 1.0e-5\n  gamma_q: 1.0e-6\n"
            "  emission_wavelength_nm: 1550.0\n  pump_wavelength_nm: 1310.0\n"
            "drive:\n"
            "  i_bias_ma: 6.0\n  i_pulse_ma: 20.0\n  pulse_width_ns: 0.2\n"
            "  rep_rate_ghz: 2.5\n"
            "pump:\n  p_pump_mw: 0.0\n"
            "numerics: {}\n"
        )
        code, _, err = run(capsys, "simulate", "--scenario", str(bad),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "laser.tau_ph_ps" in err

    def test_stage_outside_gain_domain_exits_2(self, capsys, tmp_path,
                                               kernel):
        """A 10 ps carrier lifetime under a 10 kA pulse drives an RK4
        stage's photon number below -1/(2*gamma_q), where the gain's square
        root has no value: a numerical failure at a named time, not a
        refused input."""
        doc = scenario_dict(load_scenario("default"))
        doc["laser"]["tau_e_ns"] = 0.01
        doc["drive"].update(i_bias_ma=520.0, i_pulse_ma=1.04e7,
                            pulse_width_ns=0.018,
                            rep_rate_ghz=11.111111111111)
        doc["numerics"].update(dt_ps=0.3, warmup_ns=0.0, t_total_ns=1.8)
        path = tmp_path / "domain.yaml"
        path.write_text(yaml.safe_dump(doc))
        code, _, err = run(capsys, "simulate", "--scenario", str(path),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "gain's domain" in err
        assert "t=2.400000e-12 s" in err


@pytest.mark.parametrize("kernel", ["python"], indirect=True)
class TestSimulatePythonLoop:
    """The trace digests and the domain exit again, under the Python loop
    that the compiled kernel falls back to."""

    test_default_trace_digest = TestSimulate.test_default_trace_digest
    test_stage_outside_gain_domain_exits_2 = (
        TestSimulate.test_stage_outside_gain_domain_exits_2)


class TestWriters:
    @pytest.mark.parametrize("scenario", ["default", "experiment"])
    @pytest.mark.parametrize("argv", [
        ["simulate"], ["lcurve"], ["dqe"], ["sweep", "--pump-mw", "0,1.6"],
        ["fit"],
    ], ids=["simulate", "lcurve", "dqe", "sweep", "fit"])
    def test_same_bytes_under_both_writers(self, capsys, tmp_path,
                                           monkeypatch, argv, scenario):
        """Every command writes the same CSV under the compiled writer and
        under the ``%.12g`` writer it falls back to, on both builtin scenarios
        (the experiment trace at 250 MHz over 25 ns past a 4 ns warmup:
        250,001 rows)."""
        if argv == ["simulate"] and scenario == "experiment":
            doc = scenario_dict(load_scenario("experiment"))
            doc["drive"]["rep_rate_ghz"] = 0.25
            doc["numerics"].update(warmup_ns=4.0, t_total_ns=29.0)
            scenario = tmp_path / "experiment.yaml"
            scenario.write_text(yaml.safe_dump(doc))
        written = []
        for write_rows in (dynamics._writer(), dynamics._write_rows):
            monkeypatch.setattr(dynamics, "_writer", lambda: write_rows)
            out = tmp_path / f"{len(written)}.csv"
            assert run(capsys, *argv, "--scenario", str(scenario),
                       "--out", str(out))[0] == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestCurves:
    def test_lcurve_recovers_eta(self, capsys, tmp_path):
        out_path = tmp_path / "lc.csv"
        code, out, _ = run(capsys, "lcurve", "--currents", "12:25:0.5",
                           "--out", str(out_path))
        assert code == 0
        assert summary_value(out, "eta_meas") == pytest.approx(0.5, rel=0.02)
        data = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert data.shape == (27, 2)
        assert out_path.read_text().startswith("i_a,p_w\n")

    def test_dqe_nondecreasing_with_pump(self, capsys, tmp_path):
        out_path = tmp_path / "dqe.csv"
        code, out, _ = run(capsys, "dqe", "--currents", "7:25:0.5",
                           "--pump-mw", "0,0.5,1.0,1.6",
                           "--out", str(out_path))
        assert code == 0
        etas = [float(line.split("eta_meas=")[1])
                for line in out.splitlines() if "eta_meas=" in line]
        assert len(etas) == 4
        assert etas == sorted(etas)
        assert etas[-1] > etas[0]
        assert out_path.read_text().startswith("p_pump_w,eta_meas\n")

    def test_empty_current_range(self, capsys, tmp_path):
        code, _, err = run(capsys, "lcurve", "--currents", "25:7:0.5",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "currents" in err

    # the first span overflows to inf, the second is 1e12 points
    @pytest.mark.parametrize("grid", ["0:1e308:1e-300", "0:1000:1e-9"])
    def test_oversized_current_grid(self, capsys, tmp_path, monkeypatch, grid):
        def refuse(*args):
            raise AssertionError("steady_state ran on an oversized grid")

        monkeypatch.setattr(analysis, "steady_state", refuse)
        code, _, err = run(capsys, "lcurve", "--currents", grid,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--currents" in err


class TestSteadyStateFailures:
    def test_unconverged_root_find_exits_2(self, capsys, tmp_path,
                                           monkeypatch):
        real = dynamics._brentq
        monkeypatch.setattr(
            dynamics, "_brentq",
            lambda f, a, b, xtol, rtol, maxiter: real(f, a, b, xtol, rtol, 1),
        )
        code, _, err = run(capsys, "lcurve", "--currents", "12:25:6",
                           "--out", str(tmp_path / "lc.csv"))
        assert code == 2
        assert "steady state root find did not converge" in err
        assert "residual" in err

    def test_unsettled_steady_state_is_numerical_failure(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(dynamics, "derivatives",
                            lambda *args: (math.nan, math.nan))
        code, _, err = run(capsys, "lcurve", "--currents", "12:25:6",
                           "--out", str(tmp_path / "lc.csv"))
        assert code == 2
        assert "steady state missed the derivative check" in err
        assert "residual nan 1/s" in err


class TestSweepAndFit:
    def test_sweep_rows(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--pump-mw", "0,1.6",
                           "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "p_pump_w,norm_pulse_energy,norm_avg_power"
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[2].split(",")]
        assert first == [0.0, 1.0, 1.0]
        assert last[1] > 1.0 and last[2] > 1.0

    def test_sweep_sidecar_settings(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--pump-mw", "0,1.6",
                         "--out", str(out_path))
        assert code == 0
        sidecar = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert set(sidecar["settings"]) == {"pump_mw", "scenario"}

    def test_sweep_takes_no_jobs(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--pump-mw", "0,1", "--jobs", "2",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "unrecognized arguments" in err
        with pytest.raises(ValueError, match="jobs"):
            analysis.pump_sweep(load_scenario("default"), [0.0, 1e-3], jobs=2)

    def test_fit_reports_and_reproduces(self, capsys, tmp_path):
        out_path = tmp_path / "fit.csv"
        code, out, _ = run(capsys, "fit", "--target-ratio", "1.05",
                           "--out", str(out_path))
        assert code == 0
        assert summary_value(out, "residual") < 1e-3
        eps = summary_value(out, "eps_opt")
        assert 0.0 < eps <= 1.0
        assert out_path.read_text().startswith(
            "eps_opt,residual,bracket_lo,bracket_hi\n"
        )

    def test_unreachable_fit_is_numerical_failure(self, capsys):
        code, _, err = run(capsys, "fit", "--target-ratio", "3.0")
        assert code == 2
        assert "unreachable" in err


    @pytest.mark.parametrize("argv", [
        ["fit"],
        ["sweep", "--pump-mw", "0,1.6"],
    ])
    def test_unconverged_periodic_state_is_numerical_failure(
            self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(_periodic, "_ANDERSON_PERIODS", 2)
        monkeypatch.setattr(_periodic, "_PLAIN_PERIODS", 1)
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "periodic state did not converge" in err
        assert "residual" in err


class TestParsing:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("pumpsim ")

    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, _ = run(capsys, "budget", "--bogus")
        assert code == 1

    def test_unknown_scenario(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--scenario", "nope",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "neither an existing file" in err

    def test_bad_pump_list(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--pump-mw", "a,b",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--pump-mw" in err

    @pytest.mark.parametrize("argv", [
        ["lcurve", "--pump-mw", "1,2"],
        ["lcurve", "--pump-mw", "1.6,"],
        ["fit", "--pump-mw", "1,2"],
    ])
    def test_single_pump_power(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--pump-mw" in err


def _scenario_with(tmp_path, section, key, value):
    doc = scenario_dict(load_scenario("default"))
    doc[section][key] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestNonFinite:
    """Non-finite numbers are input errors, named and refused before any
    simulation runs."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulation ran on a non-finite input")

        monkeypatch.setattr(cli, "simulate", refuse)
        monkeypatch.setattr(analysis, "_periodic_metrics_at", refuse)

    @pytest.mark.parametrize("argv, field", [
        (["budget", "--attack-w", "nan"], "attack_power_w"),
        (["budget", "--attack-w", "inf"], "attack_power_w"),
        (["budget", "--safe-w", "nan"], "safe_power_w"),
        (["simulate", "--pump-mw", "inf"], "p_pump"),
        (["simulate", "--pump-mw", "nan"], "p_pump"),
        (["fit", "--target-ratio", "nan"], "target_ratio"),
        (["fit", "--pump-mw", "inf"], "target_p_pump"),
        (["lcurve", "--currents", "7:nan:0.5"], "--currents"),
        (["dqe", "--currents", "inf:25:0.5"], "--currents"),
        (["sweep", "--pump-mw", "0,nan"], "pump powers"),
    ])
    def test_flag(self, capsys, tmp_path, argv, field):
        if argv[0] in ("simulate", "lcurve", "sweep"):
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert field in err
        assert "verdict=" not in out

    @pytest.mark.parametrize("row", ["iso,inf", "iso,nan"])
    def test_chain_row(self, capsys, tmp_path, row):
        chain = tmp_path / "chain.csv"
        chain.write_text(f"name,loss_db\n{row}\n")
        code, out, err = run(capsys, "budget", "--chain", str(chain))
        assert code == 1
        assert "line 2" in err and "loss_db" in err
        assert "verdict=" not in out

    @pytest.mark.parametrize("section, key, value", [
        ("pump", "p_pump_mw", float("inf")),
        ("laser", "tau_e_ns", float("nan")),
        ("numerics", "dt_ps", float("nan")),
    ])
    def test_scenario_field(self, capsys, tmp_path, section, key, value):
        path = _scenario_with(tmp_path, section, key, value)
        code, _, err = run(capsys, "simulate", "--scenario", path,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert f"{section}.{key}" in err


def test_oversized_integer_is_input_error(capsys, tmp_path):
    path = _scenario_with(tmp_path, "laser", "n_th", 10**400)
    code, _, err = run(capsys, "lcurve", "--scenario", path,
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "laser.n_th" in err and "finite" in err


def test_window_too_large_to_hold_is_input_error(capsys, tmp_path,
                                                  monkeypatch):
    """A 0.1 s window of 0.1 ps steps is 1e12 samples, 7.28 TiB a column:
    an input error that names the allocation, not a traceback.  The
    allocation is refused by a stand-in for numpy's refusal, not tried."""
    empty = np.empty

    def refused(shape, *args, **kwargs):
        if isinstance(shape, int) and shape > 10**9:
            raise MemoryError(
                f"Unable to allocate {8 * shape / 2**40:.2f} TiB for an array "
                f"with shape ({shape},) and data type float64")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refused)
    path = _scenario_with(tmp_path, "numerics", "t_total_ns", 1e8)
    code, out, err = run(capsys, "simulate", "--scenario", path,
                         "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err.startswith(
        "pumpsim: out of memory: Unable to allocate 7.28 TiB")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "lcurve"])
def test_underflowing_gamma_conf_is_input_error(capsys, tmp_path, command):
    path = _scenario_with(tmp_path, "laser", "gamma_conf", 5e-324)
    code, out, err = run(capsys, command, "--scenario", path,
                         "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "gamma_conf" in err and "tau_ph" in err
    assert not (tmp_path / "x.csv").exists()


def test_tiny_gamma_conf_is_input_error(capsys, tmp_path):
    path = _scenario_with(tmp_path, "laser", "gamma_conf", 1e-13)
    code, _, err = run(capsys, "lcurve", "--scenario", path,
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "gamma_conf must be at least 1e-12" in err
    assert not (tmp_path / "x.csv").exists()


def test_bright_without_injection_is_input_error(capsys, tmp_path):
    path = _scenario_with(tmp_path, "laser", "c_sp", 1.0)
    code, _, err = run(capsys, "lcurve", "--scenario", path,
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    for field in ("c_sp=", "n_0=", "gamma_conf=", "n_th="):
        assert field in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer digit limit")
def test_huge_yaml_integer_names_the_file(capsys, tmp_path):
    # PyYAML's int() refuses more than 4,300 digits with a bare ValueError
    path = Path(_scenario_with(tmp_path, "laser", "n_th", 123456789))
    path.write_text(path.read_text().replace("123456789", "1" + "0" * 5000))
    code, _, err = run(capsys, "lcurve", "--scenario", str(path),
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert str(path) in err and "invalid YAML" in err


def _python(*args):
    """Run this interpreter on ``args`` with the package importable."""
    src = str(Path(pumpsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", ["pumpsim", "pumpsim.cli"])
def test_python_dash_m(module):
    done = _python("-m", module, "budget")
    assert done.returncode == 0, done.stderr
    assert "verdict=resilient" in done.stdout


def test_import_leaves_scipy_unloaded():
    # importing scipy.optimize cost about 0.7 s of every process's start-up
    done = _python("-c", "import sys, pumpsim, pumpsim.cli; "
                   "print(sorted(m for m in sys.modules if 'scipy' in m))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
