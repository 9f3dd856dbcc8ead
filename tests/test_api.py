"""Snapshot of the public API: the names ``pumpsim`` exports, the signature
of each public callable and method, each public dataclass's fields and each
public class's bases.  A change to any of them shows here as a diff; update
the snapshot together with the change and note it in CHANGES.md."""

import dataclasses
import inspect

import pumpsim as ps

EXPORTS = [
    "AttackBudget", "Component", "ConvergenceError", "DriveWaveform",
    "ELEMENTARY_CHARGE", "FitError", "FitResult", "IsolationChain",
    "LaserParams", "LaserState", "LightCurrentCurve", "NoPulseError",
    "NumericalError", "PLANCK_CONSTANT", "PulseMetrics", "PumpScenario",
    "SPEED_OF_LIGHT", "Scenario", "ScenarioError", "SimConfig", "SimTrace",
    "SimulationError", "SweepRow", "VerdictReport", "analysis",
    "builtin_chain", "chain_isolation", "compute_dqe", "dbm_to_watts",
    "default_warmup", "derivatives", "drive_current", "dynamics", "errors",
    "fit_eps_opt", "gain", "isolation", "knee_current", "light_current_curve",
    "load_chain_csv", "load_scenario", "model", "photon_energy",
    "photon_to_power", "pulse_metrics", "pump_rate", "pump_sweep",
    "required_isolation", "scenario", "simulate", "steady_state", "to_dbm",
    "verdict",
]

# None: an exception type that keeps the builtin constructor
SIGNATURES = {
    "AttackBudget": "(attack_power_w: 'float', safe_power_w: 'float') -> None",
    "Component": "(name: 'str', loss_db: 'float') -> None",
    "ConvergenceError": '(message: str, residual: float | None = None)',
    "DriveWaveform": "(i_bias: 'float', i_pulse: 'float', pulse_width: 'float', rep_rate: 'float') -> None",
    "DriveWaveform.period": 'property',
    "FitError": '(message: str, achieved: float | None = None)',
    "FitResult": "(eps_opt: 'float', residual: 'float', bracket_lo: 'float', bracket_hi: 'float', evaluations: 'int') -> None",
    "IsolationChain": '(components)',
    "LaserParams": "(tau_e: 'float', tau_ph: 'float', gamma_conf: 'float', n_th: 'float', n_0: 'float', c_sp: 'float', gamma_q: 'float', eta: 'float', emission_wavelength: 'float', pump_wavelength: 'float') -> None",
    "LaserParams.e_photon_out": 'property',
    "LaserParams.e_photon_pump": 'property',
    "LaserState": "(n: 'float', q: 'float') -> None",
    "LightCurrentCurve": "(currents: 'np.ndarray', powers: 'np.ndarray') -> None",
    "LightCurrentCurve.to_csv": "(self, path) -> 'None'",
    "NoPulseError": None,
    "NumericalError": None,
    "PulseMetrics": "(pulse_energy: 'float', avg_power: 'float', peak_power: 'float', peak_time: 'float') -> None",
    "PumpScenario": "(p_pump: 'float', eps_opt: 'float' = 0.1) -> None",
    "Scenario": "(params: 'LaserParams', drive: 'DriveWaveform', pump: 'PumpScenario', t_total: 'float', dt: 'float', warmup: 'float' = 0.0, sample_stride: 'int' = 1) -> None",
    "Scenario.sim_config": "(self, pump: 'PumpScenario | None' = None) -> 'SimConfig'",
    "ScenarioError": '(field: str, message: str)',
    "SimConfig": "(params: 'LaserParams', drive: 'DriveWaveform', pump: 'PumpScenario', t_total: 'float', dt: 'float', warmup: 'float' = 0.0, sample_stride: 'int' = 1) -> None",
    "SimTrace": "(t: 'np.ndarray', n: 'np.ndarray', q: 'np.ndarray', p: 'np.ndarray', clamp_count: 'int' = 0) -> None",
    "SimTrace.sample_spacing": 'property',
    "SimTrace.to_csv": "(self, path) -> 'None'",
    "SimulationError": '(message: str, t_failure: float | None = None)',
    "SweepRow": "(p_pump_w: 'float', norm_pulse_energy: 'float', norm_avg_power: 'float') -> None",
    "VerdictReport": "(total_db: 'float', required_db: 'float', margin_db: 'float', resilient: 'bool') -> None",
    "VerdictReport.verdict": 'property',
    "VerdictReport.lines": "(self) -> 'list[str]'",
    "VerdictReport.as_text": "(self) -> 'str'",
    "builtin_chain": "() -> 'IsolationChain'",
    "chain_isolation": "(chain: 'IsolationChain') -> 'float'",
    "compute_dqe": "(curve: 'LightCurrentCurve', params: 'LaserParams', fit_lo: 'float', fit_hi: 'float') -> 'float'",
    "dbm_to_watts": "(dbm: 'float') -> 'float'",
    "default_warmup": "(params: 'LaserParams', drive: 'DriveWaveform') -> 'float'",
    "derivatives": "(state: 'LaserState', i_now: 'float', r_opt: 'float', params: 'LaserParams') -> 'tuple[float, float]'",
    "drive_current": "(t: 'float', drive: 'DriveWaveform') -> 'float'",
    "fit_eps_opt": "(base: 'SimConfig', target_p_pump: 'float', target_ratio: 'float') -> 'FitResult'",
    "gain": "(state: 'LaserState', params: 'LaserParams') -> 'float'",
    "knee_current": "(curve: 'LightCurrentCurve', fit_lo: 'float', fit_hi: 'float') -> 'float'",
    "light_current_curve": "(params: 'LaserParams', r_opt: 'float', i_grid) -> 'LightCurrentCurve'",
    "load_chain_csv": "(path) -> 'IsolationChain'",
    "load_scenario": "(source) -> 'Scenario'",
    "photon_energy": "(wavelength: 'float') -> 'float'",
    "photon_to_power": "(q, params: 'LaserParams')",
    "pulse_metrics": "(trace: 'SimTrace', drive: 'DriveWaveform') -> 'PulseMetrics'",
    "pump_rate": "(scenario: 'PumpScenario', params: 'LaserParams') -> 'float'",
    "pump_sweep": "(base: 'SimConfig', powers, jobs: 'int' = 1) -> 'list[SweepRow]'",
    "required_isolation": "(budget: 'AttackBudget') -> 'float'",
    "simulate": "(config: 'SimConfig') -> 'SimTrace'",
    "steady_state": "(params: 'LaserParams', i_dc: 'float', r_opt: 'float' = 0.0) -> 'LaserState'",
    "to_dbm": "(p: 'float') -> 'float'",
    "verdict": "(chain: 'IsolationChain', budget: 'AttackBudget') -> 'VerdictReport'",
}

FIELDS = {
    "AttackBudget": ("attack_power_w", "safe_power_w"),
    "Component": ("name", "loss_db"),
    "DriveWaveform": ("i_bias", "i_pulse", "pulse_width", "rep_rate"),
    "FitResult": ("eps_opt", "residual", "bracket_lo", "bracket_hi",
                  "evaluations"),
    "IsolationChain": ("components",),
    "LaserParams": ("tau_e", "tau_ph", "gamma_conf", "n_th", "n_0", "c_sp",
                    "gamma_q", "eta", "emission_wavelength",
                    "pump_wavelength"),
    "LaserState": ("n", "q"),
    "LightCurrentCurve": ("currents", "powers"),
    "PulseMetrics": ("pulse_energy", "avg_power", "peak_power", "peak_time"),
    "PumpScenario": ("p_pump", "eps_opt"),
    "Scenario": ("params", "drive", "pump", "t_total", "dt", "warmup",
                 "sample_stride"),
    "SimConfig": ("params", "drive", "pump", "t_total", "dt", "warmup",
                  "sample_stride"),
    "SimTrace": ("t", "n", "q", "p", "clamp_count"),
    "SweepRow": ("p_pump_w", "norm_pulse_energy", "norm_avg_power"),
    "VerdictReport": ("total_db", "required_db", "margin_db", "resilient"),
}

BASES = {
    "AttackBudget": ("object",),
    "Component": ("object",),
    "ConvergenceError": ("NumericalError",),
    "DriveWaveform": ("object",),
    "FitError": ("NumericalError",),
    "FitResult": ("object",),
    "IsolationChain": ("object",),
    "LaserParams": ("object",),
    "LaserState": ("object",),
    "LightCurrentCurve": ("object",),
    "NoPulseError": ("NumericalError",),
    "NumericalError": ("RuntimeError",),
    "PulseMetrics": ("object",),
    "PumpScenario": ("object",),
    "Scenario": ("SimConfig",),
    "ScenarioError": ("ValueError",),
    "SimConfig": ("object",),
    "SimTrace": ("object",),
    "SimulationError": ("NumericalError",),
    "SweepRow": ("object",),
    "VerdictReport": ("object",),
}


def _public():
    return {name: getattr(ps, name) for name in ps.__all__}


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return None


def test_exports():
    assert sorted(ps.__all__) == EXPORTS


def test_signatures():
    got = {}
    for name, obj in _public().items():
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        got[name] = _signature(obj)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, property):
                    got[f"{name}.{attr}"] = "property"
                elif (inspect.isfunction(value)
                      or isinstance(value, (classmethod, staticmethod))):
                    got[f"{name}.{attr}"] = _signature(getattr(obj, attr))
    assert got == SIGNATURES


def test_dataclass_fields():
    got = {name: tuple(f.name for f in dataclasses.fields(obj))
           for name, obj in _public().items()
           if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}
    assert got == FIELDS


def test_class_bases():
    got = {name: tuple(base.__name__ for base in obj.__bases__)
           for name, obj in _public().items() if inspect.isclass(obj)}
    assert got == BASES
