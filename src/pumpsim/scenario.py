"""Scenario documents: the single place where human units become SI.

A scenario is a YAML mapping with four sections.  ``laser`` holds the device
constants (times in ns/ps, wavelengths in nm), ``drive`` the bias and pulse
train (currents in mA, width in ns, rate in GHz), ``pump`` the attack power
in mW plus the pumping efficiency, and ``numerics`` the integration controls.
Unknown keys are rejected and every violation names the offending field.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .dynamics import SimConfig, default_warmup
from .errors import ScenarioError
from .model import DriveWaveform, LaserParams, PumpScenario

__all__ = [
    "Scenario",
    "load_scenario",
    "scenario_dict",
    "BUILTIN_SCENARIOS",
]

BUILTIN_SCENARIOS = ("default", "experiment")

_SECTIONS = ("laser", "drive", "pump", "numerics")

# key -> (required, scale to SI)
_LASER_KEYS = {
    "tau_e_ns": (True, 1e-9),
    "tau_ph_ps": (True, 1e-12),
    "gamma_conf": (True, 1.0),
    "n_th": (True, 1.0),
    "n_0": (True, 1.0),
    "c_sp": (True, 1.0),
    "gamma_q": (True, 1.0),
    "eta": (False, 1.0),
    "emission_wavelength_nm": (True, 1e-9),
    "pump_wavelength_nm": (True, 1e-9),
}
_DRIVE_KEYS = {
    "i_bias_ma": (True, 1e-3),
    "i_pulse_ma": (True, 1e-3),
    "pulse_width_ns": (True, 1e-9),
    "rep_rate_ghz": (True, 1e9),
}
_PUMP_KEYS = {
    "p_pump_mw": (True, 1e-3),
    "eps_opt": (False, 1.0),
}
_NUMERICS_KEYS = {
    "dt_ps": (False, 1e-12),
    "t_total_ns": (False, 1e-9),
    "warmup_ns": (False, 1e-9),
    "sample_stride": (False, 1.0),
}


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: physics objects plus numeric controls in SI."""

    params: LaserParams
    drive: DriveWaveform
    pump: PumpScenario
    dt: float
    t_total: float
    warmup: float
    sample_stride: int

    def sim_config(self, pump: PumpScenario | None = None) -> SimConfig:
        """Build the simulation config, optionally overriding the pump."""
        return SimConfig(
            params=self.params,
            drive=self.drive,
            pump=self.pump if pump is None else pump,
            t_total=self.t_total,
            dt=self.dt,
            warmup=self.warmup,
            sample_stride=self.sample_stride,
        )


def _require_mapping(doc, field: str) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError(field, "must be a key-value mapping")
    return doc


def _take_number(section: dict, section_name: str, key: str, required: bool,
                 scale: float, default=None):
    if key not in section:
        if required:
            raise ScenarioError(f"{section_name}.{key}", "missing required key")
        return default
    value = section[key]
    if isinstance(value, str):
        # YAML 1.1 leaves exponent forms like 6.5e7 as strings; accept them.
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(
            f"{section_name}.{key}", f"must be a number, got {value!r}"
        )
    if not math.isfinite(value):
        raise ScenarioError(
            f"{section_name}.{key}", f"must be a finite number, got {value!r}"
        )
    return float(value) * scale


def _check_keys(section: dict, section_name: str, known: dict) -> None:
    for key in section:
        if key not in known:
            raise ScenarioError(f"{section_name}.{key}", "unknown key")


@contextmanager
def _field(name: str):
    """Name ``name`` in any plain ValueError raised by the wrapped
    construction; a ScenarioError already names its own field."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(name, str(exc)) from exc


def load_scenario(source) -> Scenario:
    """Load a scenario from a path or a builtin name ('default', 'experiment')."""
    path = Path(source)
    if path.exists():
        text = path.read_text()
        label = str(path)
    elif str(source) in BUILTIN_SCENARIOS:
        text = (
            resources.files("pumpsim.data")
            .joinpath(f"{source}.yaml")
            .read_text()
        )
        label = f"builtin scenario {source!r}"
    else:
        raise ScenarioError(
            "scenario",
            f"{source!r} is neither an existing file nor one of "
            f"{', '.join(BUILTIN_SCENARIOS)}",
        )
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError("scenario", f"{label}: invalid YAML: {exc}") from exc
    return parse_scenario(doc)


def parse_scenario(doc) -> Scenario:
    """Validate a parsed scenario mapping and convert to SI objects."""
    doc = _require_mapping(doc, "scenario")
    for key in doc:
        if key not in _SECTIONS:
            raise ScenarioError(key, "unknown section")
    for key in _SECTIONS:
        if key not in doc:
            raise ScenarioError(key, "missing required section")

    laser = _require_mapping(doc["laser"], "laser")
    _check_keys(laser, "laser", _LASER_KEYS)
    get_l = lambda key, default=None: _take_number(
        laser, "laser", key, *_LASER_KEYS[key], default=default
    )
    with _field("laser"):
        params = LaserParams.from_wavelengths(
            tau_e=get_l("tau_e_ns"),
            tau_ph=get_l("tau_ph_ps"),
            gamma_conf=get_l("gamma_conf"),
            n_th=get_l("n_th"),
            n_0=get_l("n_0"),
            c_sp=get_l("c_sp"),
            gamma_q=get_l("gamma_q"),
            eta=get_l("eta", default=0.5),
            emission_wavelength=get_l("emission_wavelength_nm"),
            pump_wavelength=get_l("pump_wavelength_nm"),
        )

    drive_sec = _require_mapping(doc["drive"], "drive")
    _check_keys(drive_sec, "drive", _DRIVE_KEYS)
    get_d = lambda key: _take_number(drive_sec, "drive", key, *_DRIVE_KEYS[key])
    with _field("drive"):
        drive = DriveWaveform(
            i_bias=get_d("i_bias_ma"),
            i_pulse=get_d("i_pulse_ma"),
            pulse_width=get_d("pulse_width_ns"),
            rep_rate=get_d("rep_rate_ghz"),
        )

    pump_sec = _require_mapping(doc["pump"], "pump")
    _check_keys(pump_sec, "pump", _PUMP_KEYS)
    with _field("pump"):
        pump = PumpScenario(
            p_pump=_take_number(pump_sec, "pump", "p_pump_mw", True, 1e-3),
            eps_opt=_take_number(pump_sec, "pump", "eps_opt", False, 1.0,
                                 default=0.1),
        )

    numerics = _require_mapping(doc["numerics"], "numerics")
    _check_keys(numerics, "numerics", _NUMERICS_KEYS)
    dt = _take_number(numerics, "numerics", "dt_ps", False, 1e-12, default=1e-13)
    warmup = _take_number(numerics, "numerics", "warmup_ns", False, 1e-9)
    if warmup is None:
        warmup = default_warmup(params, drive)
    t_total = _take_number(numerics, "numerics", "t_total_ns", False, 1e-9)
    if t_total is None:
        t_total = warmup + 10.0 * drive.period
    stride_raw = numerics.get("sample_stride", 1)
    if isinstance(stride_raw, bool) or not isinstance(stride_raw, int):
        raise ScenarioError(
            "numerics.sample_stride", f"must be an integer, got {stride_raw!r}"
        )

    scenario = Scenario(
        params=params,
        drive=drive,
        pump=pump,
        dt=dt,
        t_total=t_total,
        warmup=warmup,
        sample_stride=stride_raw,
    )
    with _field("numerics"):
        scenario.sim_config()
    return scenario


def scenario_dict(scenario: Scenario) -> dict:
    """Round-trip a Scenario back to the document form (human units)."""
    return {
        "laser": {
            "tau_e_ns": scenario.params.tau_e / 1e-9,
            "tau_ph_ps": scenario.params.tau_ph / 1e-12,
            "gamma_conf": scenario.params.gamma_conf,
            "n_th": scenario.params.n_th,
            "n_0": scenario.params.n_0,
            "c_sp": scenario.params.c_sp,
            "gamma_q": scenario.params.gamma_q,
            "eta": scenario.params.eta,
            "emission_wavelength_nm": _wavelength_nm(scenario.params.e_photon_out),
            "pump_wavelength_nm": _wavelength_nm(scenario.params.e_photon_pump),
        },
        "drive": {
            "i_bias_ma": scenario.drive.i_bias / 1e-3,
            "i_pulse_ma": scenario.drive.i_pulse / 1e-3,
            "pulse_width_ns": scenario.drive.pulse_width / 1e-9,
            "rep_rate_ghz": scenario.drive.rep_rate / 1e9,
        },
        "pump": {
            "p_pump_mw": scenario.pump.p_pump / 1e-3,
            "eps_opt": scenario.pump.eps_opt,
        },
        "numerics": {
            "dt_ps": scenario.dt / 1e-12,
            "t_total_ns": scenario.t_total / 1e-9,
            "warmup_ns": scenario.warmup / 1e-9,
            "sample_stride": scenario.sample_stride,
        },
    }


def _wavelength_nm(e_photon: float) -> float:
    from .model import PLANCK_CONSTANT, SPEED_OF_LIGHT

    return PLANCK_CONSTANT * SPEED_OF_LIGHT / e_photon / 1e-9
