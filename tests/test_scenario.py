"""Scenario document loading, unit conversion, and validation messages."""

import sys
from dataclasses import fields
from importlib import resources

import pytest
import yaml

import pumpsim as ps
from pumpsim import scenario
from pumpsim.scenario import BUILTIN_SCENARIOS, parse_scenario, scenario_dict


def minimal_doc():
    return {
        "laser": {
            "tau_e_ns": 1.0,
            "tau_ph_ps": 3.0,
            "gamma_conf": 0.12,
            "n_th": 6.5e7,
            "n_0": 5.5e7,
            "c_sp": 1e-5,
            "gamma_q": 1e-6,
            "emission_wavelength_nm": 1550.0,
            "pump_wavelength_nm": 1310.0,
        },
        "drive": {
            "i_bias_ma": 6.0,
            "i_pulse_ma": 20.0,
            "pulse_width_ns": 0.2,
            "rep_rate_ghz": 2.5,
        },
        "pump": {"p_pump_mw": 0.0},
        "numerics": {},
    }


class TestBuiltinScenarios:
    def test_default_units_converted_once(self, default_scenario):
        scn = default_scenario
        assert scn.params.tau_e == pytest.approx(1e-9)
        assert scn.params.tau_ph == pytest.approx(3e-12)
        assert scn.params.n_th == 6.5e7
        assert scn.drive.i_bias == pytest.approx(6e-3)
        assert scn.drive.rep_rate == pytest.approx(2.5e9)
        assert scn.pump.p_pump == 0.0
        assert scn.pump.eps_opt == 0.1
        assert scn.dt == pytest.approx(1e-13)
        assert scn.warmup == pytest.approx(10e-9)
        assert scn.t_total == pytest.approx(14e-9)
        assert scn.sample_stride == 1

    def test_experiment_operating_point(self):
        scn = ps.load_scenario("experiment")
        assert scn.drive.i_bias == pytest.approx(3e-3)
        assert scn.drive.rep_rate == pytest.approx(1e7)
        assert scn.drive.pulse_width == pytest.approx(1.2e-9)
        assert scn.warmup == pytest.approx(100e-9)

    def test_experiment_optical_envelope_width(self):
        # the low-duty drive is sized to emit an optical envelope near the
        # 700 ps target; checked on a shortened window at a coarser step
        import numpy as np

        scn = ps.load_scenario("experiment")
        config = ps.SimConfig(params=scn.params, drive=scn.drive,
                              pump=scn.pump, t_total=200e-9, dt=0.3e-12,
                              warmup=100e-9)
        trace = ps.simulate(config)
        above = np.flatnonzero(trace.p >= 0.1 * trace.p.max())
        span = (above[-1] - above[0]) * trace.sample_spacing
        assert 0.6e-9 < span < 0.8e-9

    def test_unknown_name_rejected(self):
        with pytest.raises(ps.ScenarioError, match="neither an existing file"):
            ps.load_scenario("no-such-scenario")


class TestParsing:
    def test_minimal_doc_defaults(self):
        scn = parse_scenario(minimal_doc())
        assert scn.params.eta == 0.5
        assert scn.pump.eps_opt == 0.1
        assert scn.dt == pytest.approx(1e-13)
        # default warmup: max(20 periods, 10 tau_e) = 10 ns here
        assert scn.warmup == pytest.approx(10e-9)
        assert scn.t_total == pytest.approx(scn.warmup + 10 * scn.drive.period)

    def test_round_trip(self):
        scn = parse_scenario(minimal_doc())
        again = parse_scenario(scenario_dict(scn))
        pairs = [(f"{part}.{f.name}", getattr(getattr(scn, part), f.name),
                  getattr(getattr(again, part), f.name))
                 for part in ("params", "drive", "pump")
                 for f in fields(getattr(scn, part))]
        pairs += [(name, getattr(scn, name), getattr(again, name))
                  for name in ("dt", "t_total", "warmup", "sample_stride")]
        for name, want, got in pairs:
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), name

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_builtin_round_trip_is_exact(self, name):
        scn = ps.load_scenario(name)
        assert parse_scenario(scenario_dict(scn)) == scn

    def test_numeric_strings_accepted(self):
        doc = minimal_doc()
        doc["laser"]["n_th"] = "6.5e7"  # YAML 1.1 exponent form
        scn = parse_scenario(doc)
        assert scn.params.n_th == 6.5e7

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d["laser"].pop("tau_ph_ps"), "laser.tau_ph_ps"),
            (lambda d: d["laser"].pop("n_th"), "laser.n_th"),
            (lambda d: d.pop("drive"), "drive"),
            (lambda d: d["drive"].pop("rep_rate_ghz"), "drive.rep_rate_ghz"),
            (lambda d: d["pump"].pop("p_pump_mw"), "pump.p_pump_mw"),
            (lambda d: d["laser"].update(bogus=1.0), "laser.bogus"),
            (lambda d: d.update(extra={}), "extra"),
            (lambda d: d["laser"].update(tau_e_ns="fast"), "laser.tau_e_ns"),
            (lambda d: d["numerics"].update(sample_stride=2.5),
             "numerics.sample_stride"),
            pytest.param(lambda d: d["laser"].update(n_th=10**400),
                         "laser.n_th", id="oversized-integer"),
        ],
    )
    def test_violations_name_the_field(self, mutate, field):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ps.ScenarioError) as err:
            parse_scenario(doc)
        assert field in str(err.value)

    def test_invariant_violations_surface_as_scenario_errors(self):
        doc = minimal_doc()
        doc["laser"]["tau_ph_ps"] = -3.0
        with pytest.raises(ps.ScenarioError, match="tau_ph"):
            parse_scenario(doc)

        doc = minimal_doc()
        doc["drive"]["pulse_width_ns"] = 500.0  # duty cycle above unity
        with pytest.raises(ps.ScenarioError, match="duty cycle"):
            parse_scenario(doc)

        doc = minimal_doc()
        doc["numerics"]["dt_ps"] = 5.0  # does not resolve tau_ph
        with pytest.raises(ps.ScenarioError, match="tau_ph"):
            parse_scenario(doc)

    def test_rate_overflowing_to_inf_is_refused(self):
        """A finite document value can still overflow when scaled to SI."""
        doc = minimal_doc()
        doc["drive"].update(pulse_width_ns=0.0, rep_rate_ghz=1e300)
        with pytest.raises(ps.ScenarioError,
                           match="^drive: rep_rate must be finite"):
            parse_scenario(doc)

    def test_non_mapping_rejected(self):
        with pytest.raises(ps.ScenarioError):
            parse_scenario(["not", "a", "mapping"])

    def test_file_loading(self, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(
            "laser:\n"
            "  tau_e_ns: 1.0\n  tau_ph_ps: 3.0\n  gamma_conf: 0.12\n"
            "  n_th: 6.5e+7\n  n_0: 5.5e+7\n  c_sp: 1.0e-5\n  gamma_q: 1.0e-6\n"
            "  emission_wavelength_nm: 1550.0\n  pump_wavelength_nm: 1310.0\n"
            "drive:\n"
            "  i_bias_ma: 6.0\n  i_pulse_ma: 20.0\n  pulse_width_ns: 0.2\n"
            "  rep_rate_ghz: 2.5\n"
            "pump:\n  p_pump_mw: 0.5\n"
            "numerics:\n  t_total_ns: 12.0\n"
        )
        scn = ps.load_scenario(path)
        assert scn.pump.p_pump == pytest.approx(0.5e-3)
        assert scn.t_total == pytest.approx(12e-9)

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("laser: [unclosed\n")
        with pytest.raises(ps.ScenarioError, match="YAML"):
            ps.load_scenario(path)


# the pure-Python parser, and libyaml's when PyYAML was built with it
LOADERS = [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


class TestYamlLoader:
    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    @pytest.mark.parametrize("loader", LOADERS)
    def test_builtins_parse_alike(self, monkeypatch, name, loader):
        text = (resources.files("pumpsim.data") / f"{name}.yaml").read_text()
        assert yaml.load(text, Loader=loader) == yaml.safe_load(text)
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        assert ps.load_scenario(name) == parse_scenario(yaml.safe_load(text))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer digit limit")
    @pytest.mark.parametrize("loader", LOADERS)
    def test_huge_integer_is_invalid_yaml(self, monkeypatch, tmp_path,
                                          loader):
        # int() refuses more than 4,300 digits with a bare ValueError
        doc = minimal_doc()
        doc["laser"]["n_th"] = 123456789
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(doc).replace("123456789",
                                                    "1" + "0" * 5000))
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        with pytest.raises(ps.ScenarioError, match="invalid YAML"):
            ps.load_scenario(path)
