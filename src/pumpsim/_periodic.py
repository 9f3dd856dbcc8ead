"""The periodic states that sweeps and fits measure: shooting solves on the
period map of ``dynamics``' step grid and drive schedule, several at a time
in lockstep through the compiled lane loop.

``analysis`` imports this module on first use.  Where no bytecode cache is
written each process compiles pumpsim's sources, and a command that solves
for no periodic state should not pay for this code.
"""

from __future__ import annotations

import math

import numpy as np

from . import dynamics
from .errors import ConvergenceError, NumericalError, SimulationError
from .model import DriveWaveform, LaserParams

_PERIODIC_RTOL = 1e-12  # bound on the period-to-period residual of (n, q)
_ANDERSON_PERIODS = 40  # periods of accelerated iteration
_PLAIN_PERIODS = 200  # further plain periods before giving up


def _periodic_states(params: LaserParams, drive: DriveWaveform, dt: float,
                     rates) -> list[tuple[float, np.ndarray, float, int]]:
    """One period of the periodic state under each pump rate of ``rates``
    (1/s), in order; each is ``(h, q, residual, periods)``: the step, the
    photon number at the ``m + 1`` grid points ``0, h, ..., m*h = period``,
    the residual ``max_i |F(x)_i - x_i| / scale_i`` at the recorded start,
    and the periods integrated before the recorded one.

    The step is ``dt`` when it divides the period, else
    ``period/ceil(period/dt)``.  Each rate is its own shooting solve
    (``_shooting``).  The solves are independent, so they go in lockstep:
    each round moves every unfinished one on by one period, side by side
    (``_lockstep``).  Every period is recorded, so the one that proves
    convergence is the recorded one, and no period is integrated twice.
    Each result has the bits of solving its rate alone, and a failure
    raises the exception of the first rate, in order, whose solve fails,
    as solving the rates one after another would.
    """
    m, frac = dynamics._split(drive.period / dt)
    h = dt
    if frac:  # shrink the step to a whole number of steps per period
        m += 1
        h = drive.period / m
    schedules = [list(dynamics._drive_runs(m, h, drive, r_opt))
                 for r_opt in rates]
    records = np.empty((len(rates), m + 1))
    period = _lockstep(schedules, params, h, records)
    solves = [_shooting(params, drive, r_opt) for r_opt in rates]
    results = [None] * len(rates)
    first = len(rates)  # the first solve that failed
    images = dict.fromkeys(range(len(rates)))  # None starts a solve
    while images:
        starts = {}
        for i, g in images.items():
            if isinstance(g, Exception):
                results[i] = g
                continue
            try:
                starts[i] = solves[i].send(g)
            except StopIteration as stop:
                results[i] = (h, records[i], *stop.value)
            except (NumericalError, ValueError) as exc:  # steady_state's too
                results[i] = exc
        # once a solve fails, no later one can change what the call raises
        first = next((i for i, r in enumerate(results)
                      if isinstance(r, Exception)), first)
        images = period({i: x for i, x in starts.items() if i < first})
    if first < len(rates):
        raise results[first]
    return results


def _shooting(params: LaserParams, drive: DriveWaveform, r_opt: float):
    """The shooting solve of ``_periodic_states`` under the pump rate
    ``r_opt``, as a generator: it yields each period start ``x = (n, q)``,
    is sent the period's image ``F(x)``, and returns ``(residual,
    periods)`` once an image closes its period, ``periods`` counting the
    periods before that one.

    From the bias steady state, two plain periods ``x <- F(x)`` are followed
    by Anderson acceleration with memory 2 (Anderson 1965; Walker & Ni
    2011) on the physical state ``x = (n, q)`` until the relative residual
    is at most ``_PERIODIC_RTOL``; ``scale`` is the state after the first
    period (a zero component counts as 1) and enters only the residual.
    After ``_ANDERSON_PERIODS`` periods plain iteration takes over;
    ``_PLAIN_PERIODS`` periods later ``ConvergenceError`` carries the
    residual.  The state is two Python floats throughout.
    """
    init = dynamics.steady_state(params, drive.i_bias, r_opt)
    x = (float(init.n), float(init.q))
    g = yield x
    scale = tuple(v if v > 0.0 else 1.0 for v in g)
    periods = 1
    fs, gs = [], []  # the last three residuals F(x) - x and images F(x)
    while True:
        f = (g[0] - x[0], g[1] - x[1])
        residual = max(abs(f[0]) / scale[0], abs(f[1]) / scale[1])
        if residual <= _PERIODIC_RTOL:
            return residual, periods - 1
        if periods >= _ANDERSON_PERIODS + _PLAIN_PERIODS:
            raise ConvergenceError(
                f"periodic state did not converge in {periods} periods "
                f"(residual {residual:.3e}, bound {_PERIODIC_RTOL:g})",
                residual=residual,
            )
        fs, gs = (fs + [f])[-3:], (gs + [g])[-3:]
        x = g
        if len(fs) == 3 and periods < _ANDERSON_PERIODS:
            # Two residual differences in two dimensions: the least-squares
            # coefficients solve a 2x2 system, by Cramer's rule.  Scaling a
            # component scales one row and the right-hand side alike, so
            # the coefficients need no scaled copy of the state.
            a, c = fs[1][0] - fs[0][0], fs[1][1] - fs[0][1]
            b, d = fs[2][0] - fs[1][0], fs[2][1] - fs[1][1]
            det = a * d - b * c
            if abs(det) > 1e-12 * (abs(a * d) + abs(b * c)):
                u = (d * f[0] - b * f[1]) / det
                v = (a * f[1] - c * f[0]) / det
                mixed = tuple(g[i] - u * (gs[1][i] - gs[0][i])
                              - v * (gs[2][i] - gs[1][i]) for i in (0, 1))
                if all(math.isfinite(y) and y >= 0.0 for y in mixed):
                    x = mixed
        g = yield x
        periods += 1


def _lockstep(schedules, params: LaserParams, h: float, records):
    """The period map of ``_periodic_states``' solves, lane ``i`` under the
    drive runs ``schedules[i]``: a function from the starts ``{i: (n, q)}``
    of a round to their images, recording the photon number at the start of
    each grid step, and after the last, in ``records[i]``.  A lane whose
    period fails maps to its ``SimulationError``.

    The lanes step side by side through the lane loop (``dynamics._lanes``),
    one call per run, where it loaded and the runs differ only in their
    sources (a drive's edges do not depend on the pump rate).  A lane that
    fails there integrates its period again by ``dynamics._advance``, which
    raises the failure.  Otherwise each lane is an ``_advance`` call, to the
    same bits: the lane loop needs no replay, which only skips steps that
    integrating reproduces bit for bit, and it keeps a stalled state to the
    end of its run as ``_advance`` does.
    """
    scratch = np.empty(records.shape[1])  # _advance's carrier record

    def alone(i, x):
        try:
            return dynamics._advance(x[0], x[1], schedules[i], params, h,
                                     (scratch, records[i], 0, 1))[:2]
        except SimulationError as exc:
            return exc

    runs = [run[:3] for run in schedules[0]]
    lanes = dynamics._lanes()
    if lanes is None or any([run[:3] for run in s] != runs
                            for s in schedules):
        return lambda starts: {i: alone(i, x) for i, x in starts.items()}

    sources = [np.array(src) for src in zip(*[[run[3] for run in s]
                                              for s in schedules])]
    n, q = np.zeros(len(schedules)), np.zeros(len(schedules))
    halted = np.full(len(schedules), -1, dtype=np.int64)  # -1: not stepped
    step = lanes(dynamics._coefficients(params), n, q, halted, records)

    def period(starts):
        halted[:] = -1
        for i, x in starts.items():
            n[i], q[i] = x
            halted[i] = 0
        rec = 0  # a grid step split at an edge is stored by its first run
        for (k, k_end, run_h), src in zip(runs, sources):
            step(k, k_end, rec, run_h, src)
            rec = k_end
        images = {}
        for i, x in starts.items():
            if halted[i]:
                images[i] = alone(i, x)
            else:
                records[i, -1] = q[i]
                images[i] = (n.item(i), q.item(i))
        return images

    return period
