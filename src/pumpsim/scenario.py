"""Scenario documents: the single place where human units become SI.

A scenario is a YAML mapping with four sections.  ``laser`` holds the device
constants (times in ns/ps, wavelengths in nm), ``drive`` the bias and pulse
train (currents in mA, width in ns, rate in GHz), ``pump`` the attack power
in mW plus the pumping efficiency, and ``numerics`` the integration controls.
One table, ``_SCHEMA``, names every document key with its SI field, scale
and default: ``parse_scenario`` reads it forwards and ``scenario_dict``
backwards.  Every field is a constructor argument of the model's value
types, the two wavelengths included, so no value is converted twice.
Unknown keys are rejected and every violation names the offending field.  A
parsed document is a ``Scenario``, the ``SimConfig`` of the run it
describes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields
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

_REQUIRED = object()  # the default of a key every document must give

# libyaml's parser when PyYAML was built with it (about ten times faster on
# a builtin), else the pure-Python one; both build the same safe document
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# section -> document key -> (SI field, scale to SI, SI default), in the order
# keys are read and written.  The fields are the keyword arguments of
# LaserParams, DriveWaveform, PumpScenario and SimConfig.
# A default of None is computed from the other values; a scale of None marks
# an integer, taken as written.
_SCHEMA = {
    "laser": {
        "tau_e_ns": ("tau_e", 1e-9, _REQUIRED),
        "tau_ph_ps": ("tau_ph", 1e-12, _REQUIRED),
        "gamma_conf": ("gamma_conf", 1.0, _REQUIRED),
        "n_th": ("n_th", 1.0, _REQUIRED),
        "n_0": ("n_0", 1.0, _REQUIRED),
        "c_sp": ("c_sp", 1.0, _REQUIRED),
        "gamma_q": ("gamma_q", 1.0, _REQUIRED),
        "eta": ("eta", 1.0, 0.5),
        "emission_wavelength_nm": ("emission_wavelength", 1e-9, _REQUIRED),
        "pump_wavelength_nm": ("pump_wavelength", 1e-9, _REQUIRED),
    },
    "drive": {
        "i_bias_ma": ("i_bias", 1e-3, _REQUIRED),
        "i_pulse_ma": ("i_pulse", 1e-3, _REQUIRED),
        "pulse_width_ns": ("pulse_width", 1e-9, _REQUIRED),
        "rep_rate_ghz": ("rep_rate", 1e9, _REQUIRED),
    },
    "pump": {
        "p_pump_mw": ("p_pump", 1e-3, _REQUIRED),
        "eps_opt": ("eps_opt", 1.0, 0.1),
    },
    "numerics": {
        "dt_ps": ("dt", 1e-12, 1e-13),
        "t_total_ns": ("t_total", 1e-9, None),  # warmup + 10 periods
        "warmup_ns": ("warmup", 1e-9, None),  # default_warmup
        "sample_stride": ("sample_stride", None, 1),
    },
}


class Scenario(SimConfig):
    """A parsed scenario document: the ``SimConfig`` of the run it
    describes, in SI units."""

    def sim_config(self, pump: PumpScenario | None = None) -> SimConfig:
        """The plain ``SimConfig`` of this scenario, optionally with another
        pump."""
        config = {f.name: getattr(self, f.name) for f in fields(SimConfig)}
        if pump is not None:
            config["pump"] = pump
        return SimConfig(**config)


def _require_mapping(doc, field: str) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError(field, "must be a key-value mapping")
    return doc


def _take(section: dict, key: str, label: str, scale, default):
    """The SI value of ``section[key]``, or ``default`` when it is absent."""
    if key not in section:
        if default is _REQUIRED:
            raise ScenarioError(label, "missing required key")
        return default
    value = section[key]
    if scale is None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(label, f"must be an integer, got {value!r}")
        return value
    if isinstance(value, str):
        # YAML 1.1 leaves exponent forms like 6.5e7 as strings; accept them.
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(label, f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(label, f"must be a finite number, got {value!r}")
    return number * scale


def _section(doc: dict, name: str) -> dict:
    """Section ``name`` of ``doc`` as keyword arguments in SI units."""
    section = _require_mapping(doc[name], name)
    table = _SCHEMA[name]
    for key in section:
        if key not in table:
            raise ScenarioError(f"{name}.{key}", "unknown key")
    return {field: _take(section, key, f"{name}.{key}", scale, default)
            for key, (field, scale, default) in table.items()}


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
        doc = yaml.load(text, Loader=_YAML_LOADER)
    # PyYAML builds values with int() and datetime, whose refusals (such as
    # an integer over Python's 4,300-digit limit) are plain ValueErrors
    except (yaml.YAMLError, ValueError) as exc:
        raise ScenarioError("scenario", f"{label}: invalid YAML: {exc}") from exc
    return parse_scenario(doc)


def parse_scenario(doc) -> Scenario:
    """Validate a parsed scenario mapping and convert to SI objects."""
    doc = _require_mapping(doc, "scenario")
    for key in doc:
        if key not in _SCHEMA:
            raise ScenarioError(key, "unknown section")
    for key in _SCHEMA:
        if key not in doc:
            raise ScenarioError(key, "missing required section")

    with _field("laser"):
        params = LaserParams(**_section(doc, "laser"))
    with _field("drive"):
        drive = DriveWaveform(**_section(doc, "drive"))
    with _field("pump"):
        pump = PumpScenario(**_section(doc, "pump"))
    numerics = _section(doc, "numerics")
    if numerics["warmup"] is None:
        numerics["warmup"] = default_warmup(params, drive)
    if numerics["t_total"] is None:
        numerics["t_total"] = numerics["warmup"] + 10.0 * drive.period
    with _field("numerics"):
        return Scenario(params=params, drive=drive, pump=pump, **numerics)


def scenario_dict(scenario: Scenario) -> dict:
    """Round-trip a Scenario back to the document form (human units)."""
    owners = {"laser": scenario.params, "drive": scenario.drive,
              "pump": scenario.pump, "numerics": scenario}
    return {
        name: {key: _document_value(owners[name], field, scale)
               for key, (field, scale, _) in table.items()}
        for name, table in _SCHEMA.items()
    }


def _document_value(owner, field: str, scale):
    value = getattr(owner, field)
    return value if scale is None else value / scale
