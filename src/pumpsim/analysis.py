"""Observables extracted from simulations: light-current curves, differential
quantum efficiency, per-pulse energy metrics, pump-power sweeps, and the
calibration of the unknown pumping efficiency against a measured target.

Nothing here integrates: sweeps and fits measure one period of the periodic
state that ``_periodic`` solves for, and the pulse metrics measure traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    SimConfig,
    SimTrace,
    _brentq,
    _check_inputs,
    _complete_period_bounds,
    _steady_states,
    _write_csv,
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
        # written so that NaN fails them too
        if len(self.currents) >= 2 and not np.diff(self.currents).min() > 0.0:
            raise ValueError("currents must be strictly increasing")
        if len(self.powers) and not self.powers.min() >= 0.0:
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
    """Steady-state output power at each grid current, with cw pumping r_opt.

    The states are solved in one call (``dynamics._steady_states``), and
    their photon numbers converted to power in one ``photon_to_power``: the
    same multiply at each point, so the same bits as point by point.  A
    non-finite current is refused as ``steady_state`` refuses it.
    """
    i_grid = np.asarray(i_grid, dtype=float)
    if i_grid.ndim != 1 or len(i_grid) == 0:
        raise ValueError("i_grid must be a nonempty 1-D sequence of currents")
    finite = np.isfinite(i_grid)
    if not finite.all():
        _check_inputs(i_grid[~finite][0], r_opt)
    if not i_grid.min() >= 0.0:
        raise ValueError("i_grid currents must be nonnegative")
    if len(i_grid) >= 2 and not np.diff(i_grid).min() > 0.0:
        raise ValueError("i_grid must be strictly increasing")
    states = _steady_states(params, i_grid.tolist(), r_opt)
    q = np.array([state.q for state in states])
    return LightCurrentCurve(currents=i_grid,
                             powers=photon_to_power(q, params))


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
    if not slope > 0.0:  # NaN too
        raise ValueError("window slope is not positive; fit above threshold")
    return -intercept / slope


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


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
    h = trace.sample_spacing  # refuses a trace of fewer than two samples
    period = drive.period
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
    """``_periodic_metrics_at`` under the one pump rate ``r_opt``."""
    return _periodic_metrics_at(base, [r_opt])[0]


def _periodic_metrics_at(base: SimConfig, rates) -> list[_Periodic]:
    """Pulse energy and average power of the periodic state under each pump
    rate of ``rates`` (1/s), in order.

    ``_periodic._periodic_states`` (imported on first use) solves for the
    states in lockstep and records one period of each on ``base``'s step;
    that period is measured like one period of ``pulse_metrics``.
    ``base``'s pump, warmup, ``t_total`` and ``sample_stride`` play no part.
    """
    from ._periodic import _periodic_states

    measured = []
    for h, q, residual, periods in _periodic_states(base.params, base.drive,
                                                    base.dt, rates):
        p = photon_to_power(q, base.params)
        energy, _, _ = _period_pulse(p, h)
        measured.append(_Periodic(float(energy), float(p[:-1].mean()),
                                  residual, periods))
    return measured


def pump_sweep(base: SimConfig, powers, jobs: int = 1) -> list[SweepRow]:
    """Measure the periodic state at each pump power and normalize against
    the unpumped one.

    Rows are independent shooting solves on the baseline's step, so
    discretization bias cancels in the ratios; the config's warmup,
    ``t_total`` and ``sample_stride`` play no part.  Each pump rate is
    solved once, the unpumped one included, so a zero-pump row divides the
    unpumped measurement by itself and reads exactly 1.  The solves go in
    one lockstep call (``_periodic_metrics_at``), the unpumped one first.
    ``jobs`` accepts only 1; it is kept for callers that pass it, and can
    go once the benchmark harness stops passing ``jobs=1``.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    powers = [float(p) for p in powers]
    if not all(math.isfinite(p) and p >= 0.0 for p in powers):
        raise ValueError("pump powers must be finite and nonnegative")
    if any(b < a for a, b in zip(powers, powers[1:])):
        raise ValueError("pump powers must be sorted ascending")

    rates = [pump_rate(PumpScenario(p, base.pump.eps_opt), base.params)
             for p in powers]
    todo = [0.0] + [r for r in dict.fromkeys(rates) if r != 0.0]
    measured = dict(zip(todo, _periodic_metrics_at(base, todo)))

    unpumped = measured[0.0]
    return [SweepRow(
        p_pump_w=abs(p),  # -0.0 prints as 0
        norm_pulse_energy=measured[r].pulse_energy / unpumped.pulse_energy,
        norm_avg_power=measured[r].avg_power / unpumped.avg_power)
        for p, r in zip(powers, rates)]


_EPS_HI = 1.0  # the fit brackets eps_opt on [0, _EPS_HI]
_RATIO_TOL = 1e-3  # largest accepted |achieved ratio - target ratio|
# relative bracket width, 1e-4 in log10; alone it stops the search, since
# the root lies above 0
_EPS_RTOL = math.log(10.0) * 1e-4
_FIT_MAXITER = 100  # Brent iterations before the fit gives up


def fit_eps_opt(base: SimConfig, target_p_pump: float,
                target_ratio: float) -> FitResult:
    """Calibrate the pumping efficiency to a measured pulse-energy ratio.

    Brent's bracketed root find over eps_opt on [0, 1] (``dynamics._brentq``)
    solves for the point where the normalized pulse energy of the periodic
    state at ``target_p_pump`` (``_periodic_metrics``) equals
    ``target_ratio``.  The unpumped solve and the one at eps_opt 1, the
    first evaluation, go in lockstep (``_periodic_metrics_at``); each Brent
    step is one solve.  It stops when the bracket is narrower than
    ``_EPS_RTOL`` relative to its better end, the width of 1e-4 in log10 at
    every scale of eps_opt.  At eps_opt 0 nothing is pumped, so the ratio
    there is the baseline over itself, exactly 1, below every valid target,
    and costs no solve.  The search relies only on the sign change between
    0 and 1, so a flat stretch of the ratio cannot mislead it.  ``eps_opt``
    is the end of the tightest evaluated bracket that lies closer to the
    target, and ``evaluations`` counts the pumped solves.  Raises
    ``FitError`` when the ratio at eps_opt 1 stays below the target, when
    the root find has not converged after ``_FIT_MAXITER`` iterations, or
    when the closer end misses the target by ``_RATIO_TOL`` or more.
    """
    if not (math.isfinite(target_ratio) and target_ratio > 1.0):
        raise ValueError(
            f"target_ratio must be finite and exceed 1, got {target_ratio}")
    if not (math.isfinite(target_p_pump) and target_p_pump > 0.0):
        raise ValueError(
            f"target_p_pump must be finite and positive, got {target_p_pump}")

    def rate(eps: float) -> float:
        return pump_rate(PumpScenario(target_p_pump, eps), base.params)

    unpumped, top = _periodic_metrics_at(base, [0.0, rate(_EPS_HI)])
    e_base = unpumped.pulse_energy
    # eps_opt -> ratio; eps_opt 0 pumps nothing
    cache = {0.0: 1.0, _EPS_HI: top.pulse_energy / e_base}

    def excess(eps: float) -> float:
        if eps not in cache:
            energy = _periodic_metrics(base, rate(eps)).pulse_energy
            cache[eps] = energy / e_base
        return cache[eps] - target_ratio

    if excess(_EPS_HI) < 0.0:
        raise FitError(
            f"target ratio {target_ratio} unreachable: maximum achieved "
            f"{cache[_EPS_HI]:.6f} at eps_opt={_EPS_HI}",
            achieved=cache[_EPS_HI],
        )

    _, converged, iterations = _brentq(excess, 0.0, _EPS_HI, 0.0,
                                       _EPS_RTOL, _FIT_MAXITER)
    if not converged:
        raise FitError(f"fit did not converge after {iterations} iterations")

    lo = max(eps for eps, r in cache.items() if r <= target_ratio)
    hi = min(eps for eps, r in cache.items() if r >= target_ratio)
    best = min((lo, hi), key=lambda eps: abs(cache[eps] - target_ratio))
    residual = abs(cache[best] - target_ratio)
    if residual >= _RATIO_TOL:
        raise FitError(
            f"fit stalled: best residual {residual:.3e} at eps_opt="
            f"{best:.6g} exceeds tolerance {_RATIO_TOL}",
            achieved=cache[best],
        )
    return FitResult(
        eps_opt=best,
        residual=residual,
        bracket_lo=lo,
        bracket_hi=hi,
        evaluations=len(cache) - 1,
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
