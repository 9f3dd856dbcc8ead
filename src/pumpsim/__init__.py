"""Gain-switched laser diode simulator and isolation-budget auditor for
optical-pumping attacks on QKD transmitters."""

__version__ = "0.1.0"

from .analysis import (
    FitResult,
    LightCurrentCurve,
    PulseMetrics,
    SweepRow,
    compute_dqe,
    fit_eps_opt,
    knee_current,
    light_current_curve,
    pulse_metrics,
    pump_sweep,
)
from .dynamics import (
    SimConfig,
    SimTrace,
    default_warmup,
    simulate,
    steady_state,
)
from .errors import (
    ConvergenceError,
    FitError,
    NoPulseError,
    NumericalError,
    ScenarioError,
    SimulationError,
)
from .isolation import (
    AttackBudget,
    Component,
    IsolationChain,
    VerdictReport,
    builtin_chain,
    chain_isolation,
    dbm_to_watts,
    load_chain_csv,
    required_isolation,
    to_dbm,
    verdict,
)
from .model import (
    ELEMENTARY_CHARGE,
    PLANCK_CONSTANT,
    SPEED_OF_LIGHT,
    DriveWaveform,
    LaserParams,
    LaserState,
    PumpScenario,
    derivatives,
    gain,
    photon_energy,
    photon_to_power,
    pump_rate,
)
from .scenario import Scenario, load_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
