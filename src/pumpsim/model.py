"""Single-mode laser diode rate equations with an external optical-pumping term.

Two dynamical variables describe the diode: the carrier number ``n`` in the
active region and the normalized intracavity photon number ``q``.  Electrical
injection and, under attack, absorption of shorter-wavelength light delivered
through the fiber pigtail both feed the carrier population; stimulated and
spontaneous emission couple it to the photon field.  Everything here is a pure
function of immutable value types, in SI units throughout.  The device keeps
its two vacuum wavelengths; ``photon_energy`` turns them into the photon
energies the rate equations use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "ELEMENTARY_CHARGE",
    "PLANCK_CONSTANT",
    "SPEED_OF_LIGHT",
    "photon_energy",
    "LaserParams",
    "DriveWaveform",
    "PumpScenario",
    "LaserState",
    "gain",
    "pump_rate",
    "derivatives",
    "photon_to_power",
]

# Exact SI defining constants (2019 revision).
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK_CONSTANT = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m / s


def photon_energy(wavelength: float) -> float:
    """Photon energy h*c/lambda in joules for a vacuum wavelength in meters."""
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return PLANCK_CONSTANT * SPEED_OF_LIGHT / wavelength


def _require_finite(obj) -> None:
    """Refuse a NaN or infinite value in any field of dataclass ``obj``."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class LaserParams:
    """Device constants of the rate-equation model.

    Attributes
    ----------
    tau_e : float
        Carrier lifetime, s.
    tau_ph : float
        Photon lifetime inside the cavity, s.
    gamma_conf : float
        Confinement factor, dimensionless, in [1e-12, 1].
    n_th : float
        Carrier number at threshold.
    n_0 : float
        Carrier number at transparency.
    c_sp : float
        Fraction of spontaneous emission entering the lasing mode, in [0, 1],
        with ``c_sp*n_0 < gamma_conf*n_th``.
    gamma_q : float
        Gain compression factor, dimensionless.
    eta : float
        Differential quantum output, in (0, 1].  Not fixed by the device
        data this model was built around; treat as a free parameter.
    emission_wavelength : float
        Vacuum wavelength of the emitted light, m.
    pump_wavelength : float
        Vacuum wavelength of the pumping (attack) light, m.  Must be shorter
        than ``emission_wavelength``: only shorter wavelengths are absorbed.

    The photon energies at the two wavelengths are the read-only properties
    ``e_photon_out`` and ``e_photon_pump``, in J.
    """

    tau_e: float
    tau_ph: float
    gamma_conf: float
    n_th: float
    n_0: float
    c_sp: float
    gamma_q: float
    eta: float
    emission_wavelength: float
    pump_wavelength: float

    def __post_init__(self):
        _require_finite(self)
        # photon_energy refuses a nonpositive wavelength before any other check
        e_photon_out = self.e_photon_out
        e_photon_pump = self.e_photon_pump
        if self.tau_e <= 0.0:
            raise ValueError(f"tau_e must be positive, got {self.tau_e}")
        if self.tau_ph <= 0.0:
            raise ValueError(f"tau_ph must be positive, got {self.tau_ph}")
        if not 0.0 < self.gamma_conf <= 1.0:
            raise ValueError(f"gamma_conf must be in (0, 1], got {self.gamma_conf}")
        if self.gamma_conf * self.tau_ph == 0.0:
            raise ValueError(
                f"gamma_conf*tau_ph underflows to 0, got "
                f"gamma_conf={self.gamma_conf}, tau_ph={self.tau_ph}"
            )
        # At n_0 = 0 and c_sp above gamma_conf, rounding in
        # q*g/(gamma_conf*tau_ph) makes steady states miss the derivative
        # check from gamma_conf of about 1e-17 down; this bound keeps a margin.
        if self.gamma_conf < 1e-12:
            raise ValueError(
                f"gamma_conf must be at least 1e-12, got {self.gamma_conf}")
        if self.n_0 < 0.0:
            raise ValueError(f"n_0 must be nonnegative, got {self.n_0}")
        if self.n_th <= self.n_0:
            raise ValueError(
                f"n_th must exceed n_0, got n_th={self.n_th}, n_0={self.n_0}"
            )
        if not 0.0 <= self.c_sp <= 1.0:
            raise ValueError(f"c_sp must be in [0, 1], got {self.c_sp}")
        # Spontaneous emission into the mode (c_sp photons per carrier) and
        # absorption (1/gamma_conf carriers per photon) form a loop; at a
        # loop gain c_sp*n_0/(gamma_conf*n_th) of 1 or more the field stays
        # bright without injection.
        if self.c_sp * (self.n_0 / self.n_th) >= self.gamma_conf:
            raise ValueError(
                "c_sp*n_0 must be below gamma_conf*n_th, got "
                f"c_sp={self.c_sp}, n_0={self.n_0}, "
                f"gamma_conf={self.gamma_conf}, n_th={self.n_th}"
            )
        if self.gamma_q < 0.0:
            raise ValueError(f"gamma_q must be nonnegative, got {self.gamma_q}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if e_photon_out <= 0.0:
            raise ValueError(f"e_photon_out must be positive, got {e_photon_out}")
        if e_photon_pump <= e_photon_out:
            raise ValueError(
                "e_photon_pump must exceed e_photon_out (pump wavelength shorter "
                f"than emission), got {e_photon_pump} <= {e_photon_out}"
            )

    @property
    def e_photon_out(self) -> float:
        """Photon energy at the emission wavelength, J."""
        return photon_energy(self.emission_wavelength)

    @property
    def e_photon_pump(self) -> float:
        """Photon energy at the pumping wavelength, J."""
        return photon_energy(self.pump_wavelength)


@dataclass(frozen=True)
class DriveWaveform:
    """Bias current plus a rectangular modulation pulse train (SI units)."""

    i_bias: float  # A
    i_pulse: float  # A, peak modulation on top of the bias
    pulse_width: float  # s
    rep_rate: float  # pulses per second

    def __post_init__(self):
        _require_finite(self)
        if self.i_bias < 0.0:
            raise ValueError(f"i_bias must be nonnegative, got {self.i_bias}")
        if self.i_pulse < 0.0:
            raise ValueError(f"i_pulse must be nonnegative, got {self.i_pulse}")
        if self.pulse_width < 0.0:
            raise ValueError(f"pulse_width must be nonnegative, got {self.pulse_width}")
        if self.rep_rate <= 0.0:
            raise ValueError(f"rep_rate must be positive, got {self.rep_rate}")
        if self.pulse_width * self.rep_rate >= 1.0:
            raise ValueError(
                "duty cycle pulse_width*rep_rate must be below unity, got "
                f"{self.pulse_width * self.rep_rate}"
            )

    @property
    def period(self) -> float:
        return 1.0 / self.rep_rate


@dataclass(frozen=True)
class PumpScenario:
    """Attacker cw power reaching the diode, and how efficiently it pumps.

    The pumping efficiency is not publicly known for real devices; 0.1 is a
    plausible working value and the fitting routine treats it as free.
    """

    p_pump: float  # W at the pump wavelength, measured at the diode
    eps_opt: float = 0.1

    def __post_init__(self):
        _require_finite(self)
        if self.p_pump < 0.0:
            raise ValueError(f"p_pump must be nonnegative, got {self.p_pump}")
        if not 0.0 <= self.eps_opt <= 1.0:
            raise ValueError(f"eps_opt must be in [0, 1], got {self.eps_opt}")


@dataclass(frozen=True)
class LaserState:
    """Instantaneous carrier number and normalized photon number."""

    n: float
    q: float

    def __post_init__(self):
        if self.n < 0.0:
            raise ValueError(f"carrier number n must be nonnegative, got {self.n}")
        if self.q < 0.0:
            raise ValueError(f"photon number q must be nonnegative, got {self.q}")


def gain(state: LaserState, params: LaserParams) -> float:
    """Dimensionless gain, compressed at high photon number.

    Negative below transparency (n < n_0): the medium absorbs, which happens
    transiently at turn-on and is physical.
    """
    return (
        (state.n - params.n_0)
        / (params.n_th - params.n_0)
        / math.sqrt(1.0 + 2.0 * params.gamma_q * state.q)
    )


def pump_rate(scenario: PumpScenario, params: LaserParams) -> float:
    """Carrier generation rate (1/s) produced by the injected pump light."""
    return scenario.eps_opt * scenario.p_pump / params.e_photon_pump


def derivatives(
    state: LaserState, i_now: float, r_opt: float, params: LaserParams
) -> tuple[float, float]:
    """Time derivatives (dn/dt, dq/dt) at the given state.

    ``i_now`` is the instantaneous drive current in amperes and ``r_opt`` the
    optical pumping rate in 1/s; the pumping term adds to the carrier
    equation exactly as extra injection current i = e*r_opt would.
    """
    g = gain(state, params)
    dn = (
        i_now / ELEMENTARY_CHARGE
        + r_opt
        - state.n / params.tau_e
        - state.q * g / (params.gamma_conf * params.tau_ph)
    )
    dq = (g - 1.0) * state.q / params.tau_ph + params.c_sp * state.n / params.tau_e
    return dn, dq


def photon_to_power(q, params: LaserParams):
    """Output power (W) from one facet for photon number ``q``.

    Accepts a scalar or a numpy array; the conversion is linear in ``q``.
    """
    return q * (
        params.eta * params.e_photon_out / (2.0 * params.gamma_conf * params.tau_ph)
    )
