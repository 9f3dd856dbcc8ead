"""Observables extracted from simulations: light-current curves, differential
quantum efficiency, per-pulse energy metrics, pump-power sweeps, and the
calibration of the unknown pumping efficiency against a measured target.

Nothing here integrates: sweeps and fits measure one period of the periodic
state that ``dynamics`` solves for, and the pulse metrics measure traces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    _BRENTQ_RTOL,
    SimConfig,
    SimTrace,
    _brentq,
    _periodic_state,
    _write_csv,
    steady_state,
)
from .errors import FitError, NoPulseError
from .model import (
    ELEMENTARY_CHARGE,
    DriveWaveform,
    LaserParams,
    PumpScenario,
    photon_to_power,
    pump_rate,
)

__all__ = [
    "LightCurrentCurve",
    "PulseMetrics",
    "SweepRow",
    "FitResult",
    "light_current_curve",
    "compute_dqe",
    "knee_current",
    "pulse_metrics",
    "pump_sweep",
    "fit_eps_opt",
    "write_sweep_csv",
    "write_fit_csv",
]


@dataclass(frozen=True)
class LightCurrentCurve:
    """Steady-state output power versus dc drive current."""

    currents: np.ndarray  # A, strictly increasing
    powers: np.ndarray  # W

    def __post_init__(self):
        if len(self.currents) != len(self.powers):
            raise ValueError("currents and powers must have equal length")
        if len(self.currents) >= 2 and np.diff(self.currents).min() <= 0.0:
            raise ValueError("currents must be strictly increasing")
        if len(self.powers) and self.powers.min() < 0.0:
            raise ValueError("powers must be nonnegative")

    def to_csv(self, path) -> None:
        _write_csv(path, "i_a,p_w", [self.currents, self.powers])


@dataclass(frozen=True)
class PulseMetrics:
    """Per-period pulse figures, averaged over all complete periods."""

    pulse_energy: float  # J per period, within the detected pulse window
    avg_power: float  # W over whole periods
    peak_power: float  # W
    peak_time: float  # s from period start


@dataclass(frozen=True)
class SweepRow:
    p_pump_w: float
    norm_pulse_energy: float
    norm_avg_power: float


@dataclass(frozen=True)
class FitResult:
    eps_opt: float
    residual: float  # |achieved ratio - target ratio|
    bracket_lo: float
    bracket_hi: float
    evaluations: int


def light_current_curve(
    params: LaserParams, r_opt: float, i_grid
) -> LightCurrentCurve:
    """Steady-state output power at each grid current, with cw pumping r_opt."""
    i_grid = np.asarray(i_grid, dtype=float)
    if i_grid.ndim != 1 or len(i_grid) == 0:
        raise ValueError("i_grid must be a nonempty 1-D sequence of currents")
    if i_grid.min() < 0.0:
        raise ValueError("i_grid currents must be nonnegative")
    if len(i_grid) >= 2 and np.diff(i_grid).min() <= 0.0:
        raise ValueError("i_grid must be strictly increasing")
    powers = np.array(
        [photon_to_power(steady_state(params, i, r_opt).q, params) for i in i_grid]
    )
    return LightCurrentCurve(currents=i_grid, powers=powers)


def _window_points(curve: LightCurrentCurve, fit_lo: float, fit_hi: float):
    mask = (curve.currents >= fit_lo) & (curve.currents <= fit_hi)
    if mask.sum() < 3:
        raise ValueError(
            f"window [{fit_lo}, {fit_hi}] A contains only {int(mask.sum())} "
            "curve points; need at least 3 for a slope fit"
        )
    return curve.currents[mask], curve.powers[mask]


def compute_dqe(
    curve: LightCurrentCurve, params: LaserParams, fit_lo: float, fit_hi: float
) -> float:
    """Differential quantum efficiency from the power-current slope.

    The slope is the ordinary least-squares fit over curve points inside
    [fit_lo, fit_hi]; the efficiency is 2e/(photon energy) times that slope.
    """
    i_win, p_win = _window_points(curve, fit_lo, fit_hi)
    slope = np.polyfit(i_win, p_win, 1)[0]
    return 2.0 * ELEMENTARY_CHARGE * slope / params.e_photon_out


def knee_current(
    curve: LightCurrentCurve, fit_lo: float, fit_hi: float
) -> float:
    """Threshold knee: zero crossing of the line fitted above threshold."""
    i_win, p_win = _window_points(curve, fit_lo, fit_hi)
    slope, intercept = np.polyfit(i_win, p_win, 1)
    if slope <= 0.0:
        raise ValueError("window slope is not positive; fit above threshold")
    return -intercept / slope


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _complete_period_bounds(
    t: np.ndarray, period: float
) -> list[tuple[int, int, int]]:
    """(period index, first sample, boundary sample) for each complete period."""
    t0 = float(t[0])
    h = float(t[1] - t[0])

    def at_or_after(x: float) -> int:
        return int(math.ceil((x - t0) / h - 1e-9))

    bounds = []
    j = int(math.ceil(t0 / period - 1e-9))
    while True:
        a = at_or_after(j * period)
        b = at_or_after((j + 1) * period)
        if b > len(t) - 1:
            break
        bounds.append((j, a, b))
        j += 1
    return bounds


def _window_energy(seg: np.ndarray, h: float, threshold: float) -> float:
    """Trapezoidal energy over every run of samples at or above threshold.

    Each run extends to the linearly interpolated threshold crossing on
    either side that lies inside ``seg``, so the energy changes continuously
    as a crossing moves past a sample instead of jumping by a whole
    trapezoid.
    """
    mask = seg >= threshold
    edges = np.flatnonzero(np.diff(mask.astype(np.int8)))
    starts = [0] if mask[0] else []
    starts += list(edges[~mask[edges]] + 1)
    ends = list(edges[mask[edges]])
    ends += [len(seg) - 1] if mask[-1] else []

    def edge(above: float, below: float) -> float:
        # trapezoid from the crossing to the in-window sample ``above``
        return 0.5 * h * (above - threshold) / (above - below) * (above + threshold)

    total = 0.0
    for lo, hi in zip(starts, ends):
        if hi > lo:
            total += float(_trapezoid(seg[lo:hi + 1], dx=h))
        if lo > 0:
            total += edge(seg[lo], seg[lo - 1])
        if hi < len(seg) - 1:
            total += edge(seg[hi], seg[hi + 1])
    return total


def _period_pulse(seg: np.ndarray, h: float) -> tuple[float, float, int]:
    """Window energy, peak power and peak sample of one period's power
    samples; the window is every sample at or above 10% of the peak."""
    peak = float(seg.max())
    if peak <= 0.0:
        raise NoPulseError("no pulse detected: period contains no power")
    return _window_energy(seg, h, 0.1 * peak), peak, int(seg.argmax())


def pulse_metrics(trace: SimTrace, drive: DriveWaveform) -> PulseMetrics:
    """Measure the pulse train: energy, average power, peak height and timing.

    The pulse window of a period is the set of samples at or above 10% of
    that period's peak power, which separates pulse energy from the
    inter-pulse spontaneous floor.  The trace must span at least 5 complete
    drive periods.
    """
    if len(trace.t) < 2:
        raise ValueError("trace too short for pulse metrics")
    period = drive.period
    h = trace.sample_spacing
    bounds = _complete_period_bounds(trace.t, period)
    if len(bounds) < 5:
        raise ValueError(
            f"trace spans only {len(bounds)} complete drive periods; need >= 5"
        )

    energies = []
    peaks = []
    peak_times = []
    for j, a, b in bounds:
        energy, peak, m = _period_pulse(trace.p[a:b + 1], h)
        energies.append(energy)
        peaks.append(peak)
        peak_times.append(trace.t[a + m] - j * period)

    avg_power = float(trace.p[bounds[0][1]:bounds[-1][2]].mean())
    metrics = PulseMetrics(
        pulse_energy=float(np.mean(energies)),
        avg_power=avg_power,
        peak_power=float(np.mean(peaks)),
        peak_time=float(np.mean(peak_times)),
    )
    if metrics.pulse_energy > metrics.avg_power * period * (1.0 + 1e-9):
        raise NoPulseError(
            "pulse window energy exceeds the per-period total; "
            "trace and drive are inconsistent"
        )
    return metrics


class _Periodic(NamedTuple):
    pulse_energy: float  # J in the 10%-of-peak window of the recorded period
    avg_power: float  # W over the recorded period
    residual: float  # max_i |F(x)_i - x_i| / scale_i at the recorded start
    periods: int  # periods integrated before the recorded one


def _periodic_metrics(base: SimConfig, r_opt: float) -> _Periodic:
    """Pulse energy and average power of the periodic state under the pump
    rate ``r_opt`` (1/s).

    ``dynamics._periodic_state`` solves for the state and records one period
    of it on ``base``'s step; that period is measured like one period of
    ``pulse_metrics``.  ``base``'s pump, warmup, ``t_total`` and
    ``sample_stride`` play no part.
    """
    h, q, residual, periods = _periodic_state(base.params, base.drive,
                                              base.dt, r_opt)
    p = photon_to_power(q, base.params)
    energy, _, _ = _period_pulse(p, h)
    return _Periodic(float(energy), float(p[:-1].mean()), residual, periods)


def pump_sweep(base: SimConfig, powers, jobs: int = 1) -> list[SweepRow]:
    """Measure the periodic state at each pump power and normalize against
    the unpumped one.

    Rows are independent shooting solves (``_periodic_metrics``) on the
    baseline's step, so discretization bias cancels in the ratios; the
    config's warmup, ``t_total`` and ``sample_stride`` play no part.  Each
    pump rate is solved once, the unpumped one included, so a zero-pump row
    divides the unpumped measurement by itself and reads exactly 1.
    ``jobs`` > 1 distributes the solves over a process pool; ordering
    follows the input.
    """
    powers = [float(p) for p in powers]
    if not all(math.isfinite(p) and p >= 0.0 for p in powers):
        raise ValueError("pump powers must be finite and nonnegative")
    if any(b < a for a, b in zip(powers, powers[1:])):
        raise ValueError("pump powers must be sorted ascending")

    rates = [pump_rate(PumpScenario(p, base.pump.eps_opt), base.params)
             for p in powers]
    measured = {0.0: _periodic_metrics(base, 0.0)}  # pump rate -> metrics
    todo = [r for r in dict.fromkeys(rates) if r not in measured]
    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            measured.update(zip(todo, pool.map(
                _periodic_metrics, itertools.repeat(base), todo)))
    else:
        measured.update((r, _periodic_metrics(base, r)) for r in todo)

    unpumped = measured[0.0]
    return [SweepRow(
        p_pump_w=abs(p),  # -0.0 prints as 0
        norm_pulse_energy=measured[r].pulse_energy / unpumped.pulse_energy,
        norm_avg_power=measured[r].avg_power / unpumped.avg_power)
        for p, r in zip(powers, rates)]


_EPS_LO = 1e-6  # fit bracket on eps_opt
_EPS_HI = 1.0
_RATIO_TOL = 1e-3  # largest accepted |achieved ratio - target ratio|
_LOG_BRACKET_TOL = 1e-4  # the root find's xtol, a width in log10(eps_opt)
_FIT_MAXITER = 100  # Brent iterations before the fit gives up


def fit_eps_opt(base: SimConfig, target_p_pump: float,
                target_ratio: float) -> FitResult:
    """Calibrate the pumping efficiency to a measured pulse-energy ratio.

    Brent's bracketed root find over log10(eps_opt) (``dynamics._brentq``,
    to a width of ``_LOG_BRACKET_TOL``) solves for the point where the
    normalized pulse energy of the periodic state at ``target_p_pump``
    (``_periodic_metrics``) equals ``target_ratio``.  It
    relies only on the sign change between eps_opt 1e-6 and 1 (``_EPS_LO``,
    ``_EPS_HI``), so a flat stretch of the ratio cannot mislead it.  The
    search space is log spaced because plausible efficiencies span decades.
    ``eps_opt`` is the end of the tightest evaluated bracket that lies closer
    to the target.  Raises ``FitError`` when the target cannot be reached
    inside that bracket, when the root find has not converged after
    ``_FIT_MAXITER`` iterations, or when the closer end misses the target by
    ``_RATIO_TOL`` or more.
    """
    if not (math.isfinite(target_ratio) and target_ratio > 1.0):
        raise ValueError(
            f"target_ratio must be finite and exceed 1, got {target_ratio}")
    if not (math.isfinite(target_p_pump) and target_p_pump > 0.0):
        raise ValueError(
            f"target_p_pump must be finite and positive, got {target_p_pump}")

    e_base = _periodic_metrics(base, 0.0).pulse_energy
    cache: dict[float, float] = {}  # log10(eps_opt) -> ratio

    def excess(x: float) -> float:
        if x not in cache:
            r_opt = pump_rate(PumpScenario(target_p_pump, 10.0 ** x),
                              base.params)
            cache[x] = _periodic_metrics(base, r_opt).pulse_energy / e_base
        return cache[x] - target_ratio

    a, b = math.log10(_EPS_LO), math.log10(_EPS_HI)
    if excess(b) < 0.0:
        raise FitError(
            f"target ratio {target_ratio} unreachable: maximum achieved "
            f"{cache[b]:.6f} at eps_opt={_EPS_HI}",
            achieved=cache[b],
        )
    if excess(a) > 0.0:
        raise FitError(
            f"target ratio {target_ratio} below the ratio {cache[a]:.6f} already "
            f"reached at eps_opt={_EPS_LO}",
            achieved=cache[a],
        )

    _, converged, iterations = _brentq(excess, a, b, _LOG_BRACKET_TOL,
                                       _BRENTQ_RTOL, _FIT_MAXITER)
    if not converged:
        raise FitError(f"fit did not converge after {iterations} iterations")

    x_lo = max(x for x, r in cache.items() if r <= target_ratio)
    x_hi = min(x for x, r in cache.items() if r >= target_ratio)
    x_best = min((x_lo, x_hi), key=lambda x: abs(cache[x] - target_ratio))
    residual = abs(cache[x_best] - target_ratio)
    if residual >= _RATIO_TOL:
        raise FitError(
            f"fit stalled: best residual {residual:.3e} at eps_opt="
            f"{10.0 ** x_best:.6g} exceeds tolerance {_RATIO_TOL}",
            achieved=cache[x_best],
        )
    return FitResult(
        eps_opt=10.0 ** x_best,
        residual=residual,
        bracket_lo=10.0 ** x_lo,
        bracket_hi=10.0 ** x_hi,
        evaluations=len(cache),
    )


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    _write_csv(path, "p_pump_w,norm_pulse_energy,norm_avg_power", [
        [row.p_pump_w for row in rows],
        [row.norm_pulse_energy for row in rows],
        [row.norm_avg_power for row in rows],
    ])


def write_fit_csv(result: FitResult, path) -> None:
    _write_csv(path, "eps_opt,residual,bracket_lo,bracket_hi", [
        [result.eps_opt], [result.residual],
        [result.bracket_lo], [result.bracket_hi],
    ])
