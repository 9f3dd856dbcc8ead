"""Time integration of the pumped rate equations over a drive waveform.

The integrator is a classical fixed-step 4th-order scheme: deterministic,
reproducible to the bit, and fast enough in plain Python because the system
has only two state variables.  Steady states are found algebraically (one
root find over the photon number) with long time integration as the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, SimulationError
from .model import (
    ELEMENTARY_CHARGE,
    DriveWaveform,
    LaserParams,
    LaserState,
    PumpScenario,
    derivatives,
    photon_to_power,
    pump_rate,
)

__all__ = [
    "SimConfig",
    "SimTrace",
    "drive_current",
    "steady_state",
    "simulate",
    "default_warmup",
    "standard_config",
]

_BRENTQ_RTOL = 4.0 * np.finfo(float).eps
_RUN_BLOCK = 8192  # steps per block of the drive schedule
_CSV_BLOCK_ROWS = 65536  # rows formatted per write


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run needs: physics, drive, pump, numerics."""

    params: LaserParams
    drive: DriveWaveform
    pump: PumpScenario
    t_total: float  # s
    dt: float  # s, integration step
    warmup: float = 0.0  # s discarded from the output
    sample_stride: int = 1  # output decimation factor

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.dt > self.params.tau_ph / 10.0:
            raise ValueError(
                f"dt={self.dt} does not resolve the photon lifetime; "
                f"need dt <= tau_ph/10 = {self.params.tau_ph / 10.0}"
            )
        if self.warmup < 0.0:
            raise ValueError(f"warmup must be nonnegative, got {self.warmup}")
        if self.t_total <= self.warmup:
            raise ValueError(
                f"t_total={self.t_total} must exceed warmup={self.warmup}"
            )
        if not isinstance(self.sample_stride, int) or self.sample_stride < 1:
            raise ValueError(
                f"sample_stride must be a positive integer, got {self.sample_stride}"
            )


@dataclass(frozen=True)
class SimTrace:
    """Uniformly sampled carrier number, photon number and output power.

    ``clamp_count`` reports how many tiny negative excursions the integrator
    zeroed; it should be 0 at sane step sizes.
    """

    t: np.ndarray
    n: np.ndarray
    q: np.ndarray
    p: np.ndarray
    clamp_count: int = 0

    def __post_init__(self):
        if not (len(self.t) == len(self.n) == len(self.q) == len(self.p)):
            raise ValueError("trace arrays must have equal length")
        if len(self.t) >= 2:
            steps = np.diff(self.t)
            if steps.min() <= 0.0:
                raise ValueError("trace times must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ValueError("trace times must be uniformly spaced")
        for name in ("n", "q", "p"):
            if getattr(self, name).min(initial=0.0) < 0.0:
                raise ValueError(f"trace {name} must be nonnegative")

    @property
    def sample_spacing(self) -> float:
        if len(self.t) < 2:
            raise ValueError("need at least two samples for a spacing")
        return float(self.t[1] - self.t[0])

    def to_csv(self, path) -> None:
        """Write the trace as CSV with 12 significant digits per value."""
        _write_csv(path, "t_s,n,q,p_w", [self.t, self.n, self.q, self.p])


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a header line, 12 significant digits
    per value; the one CSV format of every pumpsim data file.

    The bytes are those of ``np.savetxt(fmt="%.12g", delimiter=",")``, but
    each block of rows is stacked and formatted with one ``%`` operation,
    without a copy of the whole table.
    """
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for a in range(0, rows, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[a:a + _CSV_BLOCK_ROWS] for c in columns])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def drive_current(t: float, drive: DriveWaveform) -> float:
    """Instantaneous drive current at time t >= 0; pulse-on starts each period."""
    if math.fmod(t, drive.period) < drive.pulse_width:
        return drive.i_bias + drive.i_pulse
    return drive.i_bias


def _derivatives_ok(state: LaserState, i_dc: float, r_opt: float,
                    params: LaserParams) -> tuple[bool, float]:
    dn, dq = derivatives(state, i_dc, r_opt, params)
    bound = 1e-6 * max(state.n, 1.0) / params.tau_e
    residual = max(abs(dn), abs(dq))
    return residual <= bound, residual


def _settle(params: LaserParams, i_dc: float, r_opt: float,
            n: float, q: float) -> LaserState:
    """Fallback: integrate the system until the derivatives vanish."""
    dt = params.tau_ph / 10.0
    budget = int(2000.0 * params.tau_e / dt)
    chunk = 10000
    done = 0
    residual = math.inf
    while done < budget:
        steps = min(chunk, budget - done)
        for _ in range(steps):
            state = LaserState(n=max(n, 0.0), q=max(q, 0.0))
            k1n, k1q = derivatives(state, i_dc, r_opt, params)
            n += dt * k1n
            q += dt * k1q
        done += steps
        state = LaserState(n=max(n, 0.0), q=max(q, 0.0))
        ok, residual = _derivatives_ok(state, i_dc, r_opt, params)
        if ok:
            return state
        if not math.isfinite(residual):
            break  # a non-finite state never settles
    raise ConvergenceError(
        f"steady state did not converge after {done} fallback steps "
        f"(residual {residual:.3e} 1/s)",
        residual=residual,
    )


def steady_state(params: LaserParams, i_dc: float, r_opt: float = 0.0) -> LaserState:
    """Equilibrium of the rate equations under dc current and cw pumping.

    One bracketed root find over the photon number ``q``.  At fixed ``q`` the
    field balance ``q*(1 - g) = a*n`` is linear in ``n``, which gives the
    closed form ``n(q) = q*(n_0 + d*s) / (q + a*d*s)`` with
    ``s = sqrt(1 + 2*gamma_q*q)``, ``a = c_sp*tau_ph/tau_e`` and
    ``d = n_th - n_0``; the carrier balance along that curve is then solved
    for ``q`` on ``[0, 2*gamma_conf*tau_ph*inj]``.  Without spontaneous
    emission (``c_sp = 0``) the field is dark up to threshold, and above it
    ``n = n_0 + d*s``, so ``c_sp = 0, gamma_q = 0`` is algebraic too.  The
    answer must zero ``model.derivatives``; if the root find fails or misses,
    time integration takes over, and ``ConvergenceError`` carrying the
    residual is raised if that does not converge either.
    """
    if i_dc < 0.0:
        raise ValueError(f"i_dc must be nonnegative, got {i_dc}")
    if r_opt < 0.0:
        raise ValueError(f"r_opt must be nonnegative, got {r_opt}")
    inj = i_dc / ELEMENTARY_CHARGE + r_opt
    if inj == 0.0:
        return LaserState(n=0.0, q=0.0)

    tau_e = params.tau_e
    gtp = params.gamma_conf * params.tau_ph
    n_0 = params.n_0
    d = params.n_th - n_0
    ad = params.c_sp * params.tau_ph / tau_e * d  # a*d
    two_gq = 2.0 * params.gamma_q

    def carriers(q: float) -> tuple[float, float]:
        """Carrier number on the field-balance curve at q, and its gain."""
        if q == 0.0:
            # n(0) = 0.  For c_sp = 0 the formula is 0/0 here; the root find
            # then runs only above threshold, where F(0) = -inj has the sign
            # of the limit n_th/tau_e - inj.
            return 0.0, 0.0
        s = math.sqrt(1.0 + two_gq * q)
        n = (n_0 + d * s) * (q / (q + ad * s))
        return n, (n - n_0) / d / s

    def excess(q: float) -> float:
        n, g = carriers(q)
        return n / tau_e + q * g / gtp - inj

    state = None
    if ad == 0.0 and inj * tau_e <= params.n_th:
        state = LaserState(n=inj * tau_e, q=0.0)
    else:
        # On the curve q*g = q - a*n, so F(2*gtp*inj) >= inj when
        # c_sp <= gamma_conf.
        try:
            q, result = brentq(
                excess, 0.0, 2.0 * gtp * inj,
                xtol=1e-30, rtol=_BRENTQ_RTOL, maxiter=300,
                full_output=True, disp=False,
            )
        except ValueError:  # no sign change on the bracket, or a NaN residual
            result = None
        if result is not None and result.converged:
            state = LaserState(n=carriers(q)[0], q=q)

    if state is not None:
        ok, _ = _derivatives_ok(state, i_dc, r_opt, params)
        if ok:
            return state
        n0, q0 = state.n, state.q
    else:
        n0, q0 = min(inj * tau_e, params.n_th), 1.0
    return _settle(params, i_dc, r_opt, n0, q0)


def simulate(config: SimConfig) -> SimTrace:
    """Integrate the rate equations over the configured window.

    The initial state is the steady state at the bias current with pumping
    already on.  Output samples run from the end of the warmup interval to
    ``t_total`` at a spacing of ``dt * sample_stride``.  Identical configs
    produce bit-identical traces.
    """
    params = config.params
    drive = config.drive
    r_opt = pump_rate(config.pump, params)
    init = steady_state(params, drive.i_bias, r_opt)

    dt = config.dt
    n_steps = int(round(config.t_total / dt))
    warm_steps = min(int(math.ceil(config.warmup / dt - 1e-9)), n_steps)
    stride = config.sample_stride
    n_out = (n_steps - warm_steps) // stride + 1
    out_t = (warm_steps + stride * np.arange(n_out)) * dt
    out_n = np.empty(n_out)
    out_q = np.empty(n_out)

    # Hoist everything the inner loop touches.  The stage arithmetic is
    # model.derivatives with i/e + r_opt and 0.5*dt computed once: the same
    # operations on the same operands, so both paths round identically.
    src_on = (drive.i_bias + drive.i_pulse) / ELEMENTARY_CHARGE + r_opt
    src_off = drive.i_bias / ELEMENTARY_CHARGE + r_opt
    half = 0.5 * dt
    tau_e = params.tau_e
    tau_ph = params.tau_ph
    gtp = params.gamma_conf * params.tau_ph
    n_0 = params.n_0
    denom = params.n_th - params.n_0
    c_sp = params.c_sp
    two_gq = 2.0 * params.gamma_q
    sqrt = math.sqrt
    isfinite = math.isfinite

    n = init.n
    q = init.q
    clamps = 0
    j = 0  # next output sample
    rec = warm_steps  # step index of sample j
    for k0, k_end, s0, sm, s1 in _drive_runs(n_steps, dt, drive, src_on,
                                             src_off):
        for k in range(k0, k_end):
            if k == rec:
                out_n[j] = n
                out_q[j] = q
                j += 1
                rec += stride

            g = (n - n_0) / denom / sqrt(1.0 + two_gq * q)
            k1n = s0 - n / tau_e - q * g / gtp
            k1q = (g - 1.0) * q / tau_ph + c_sp * n / tau_e
            na = n + half * k1n
            qa = q + half * k1q
            g = (na - n_0) / denom / sqrt(1.0 + two_gq * qa)
            k2n = sm - na / tau_e - qa * g / gtp
            k2q = (g - 1.0) * qa / tau_ph + c_sp * na / tau_e
            nb = n + half * k2n
            qb = q + half * k2q
            g = (nb - n_0) / denom / sqrt(1.0 + two_gq * qb)
            k3n = sm - nb / tau_e - qb * g / gtp
            k3q = (g - 1.0) * qb / tau_ph + c_sp * nb / tau_e
            nc = n + dt * k3n
            qc = q + dt * k3q
            g = (nc - n_0) / denom / sqrt(1.0 + two_gq * qc)
            k4n = s1 - nc / tau_e - qc * g / gtp
            k4q = (g - 1.0) * qc / tau_ph + c_sp * nc / tau_e

            n1 = n + dt * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) / 6.0
            q1 = q + dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
            if n1 == n and q1 == q and n != 0.0 and q != 0.0:
                # Step k maps the nonzero state (n, q) onto itself bit for
                # bit.  The step map depends only on the state and the three
                # stage sources, so every later step of this run does too:
                # jump to the end of the run and fill the samples by slice.
                j_end = max(j, -((warm_steps - k_end) // stride))
                out_n[j:j_end] = n
                out_q[j:j_end] = q
                j = j_end
                rec = warm_steps + j * stride
                break
            if not (isfinite(n1) and isfinite(q1)):
                raise SimulationError(
                    f"state became non-finite at t={(k + 1) * dt:.6e} s",
                    t_failure=(k + 1) * dt,
                )
            if n1 < 0.0:
                n1 = 0.0
                clamps += 1
            if q1 < 0.0:
                q1 = 0.0
                clamps += 1
            n = n1
            q = q1
    if rec == n_steps:
        out_n[j] = n
        out_q[j] = q

    return SimTrace(
        t=out_t,
        n=out_n,
        q=out_q,
        p=photon_to_power(out_q, params),
        clamp_count=clamps,
    )


def _drive_runs(n_steps: int, dt: float, drive: DriveWaveform,
                src_on: float, src_off: float):
    """Yield the maximal runs ``(k, k_end, s0, sm, s1)`` of steps
    ``k <= step < k_end`` that share the stage sources at the start, middle
    and end of the step, covering steps 0 to ``n_steps`` in order.

    This is simulate's drive schedule: ``drive_current``'s test applied to
    blocks of step indices.  The stage times are the doubles ``k*dt``,
    ``k*dt + 0.5*dt`` and ``k*dt + dt`` (``arange * dt`` is ``k * dt``, and
    fmod is exact), and sources are compared by value, so a flat drive is
    one run.
    """
    start, run = 0, None
    for a in range(0, n_steps, _RUN_BLOCK):
        t = np.arange(a, min(a + _RUN_BLOCK, n_steps)) * dt
        src = np.column_stack([
            np.where(np.fmod(x, drive.period) < drive.pulse_width,
                     src_on, src_off)
            for x in (t, t + 0.5 * dt, t + dt)
        ])
        new = np.empty(len(t), dtype=bool)
        new[0] = run is None or bool((src[0] != run).any())
        new[1:] = (src[1:] != src[:-1]).any(axis=1)
        for i in np.flatnonzero(new).tolist():
            if run is not None:
                yield (start, a + i, *run)
            start, run = a + i, tuple(src[i].tolist())
    if run is not None:
        yield (start, n_steps, *run)


def default_warmup(params: LaserParams, drive: DriveWaveform) -> float:
    """Warmup long enough to forget the initial condition: 20 drive periods
    or 10 carrier lifetimes, whichever is larger."""
    return max(20.0 * drive.period, 10.0 * params.tau_e)


def standard_config(
    params: LaserParams,
    drive: DriveWaveform,
    pump: PumpScenario,
    *,
    measure_periods: int = 10,
    dt: float = 1e-13,
    sample_stride: int = 1,
    warmup: float | None = None,
) -> SimConfig:
    """A SimConfig that warms up by the default rule and then measures
    an integer number of drive periods."""
    if measure_periods < 1:
        raise ValueError(f"measure_periods must be >= 1, got {measure_periods}")
    if warmup is None:
        warmup = default_warmup(params, drive)
    return SimConfig(
        params=params,
        drive=drive,
        pump=pump,
        t_total=warmup + measure_periods * drive.period,
        dt=dt,
        warmup=warmup,
        sample_stride=sample_stride,
    )
