"""Time integration of the pumped rate equations over a drive waveform.

The integrator is a classical fixed-step 4th-order scheme: deterministic,
reproducible to the bit, and fast enough in plain Python because the system
has only two state variables.  It is the only code that integrates: this
module owns the step grid, the drive schedule on it, and the shooting solve
for the periodic state that sweeps and fits measure.  Steady states are
found algebraically, by one root find over the photon number.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

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
    "steady_state",
    "simulate",
    "default_warmup",
]

_BRENTQ_RTOL = 4.0 * sys.float_info.epsilon
_CSV_BLOCK_ROWS = 8192  # rows formatted per write


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
        for name in ("t_total", "dt", "warmup"):  # NaN fails every test below
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
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
        if (not isinstance(self.sample_stride, int)
                or isinstance(self.sample_stride, bool)
                or self.sample_stride < 1):
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

    The bytes are those of ``np.savetxt(fmt="%.12g", delimiter=",")``.  Rows
    are written a block at a time.  Within a block the first column is
    formatted for every row, and the rest of a row is formatted once per run
    of consecutive rows whose remaining values are bit-identical (a trace's
    stall-skipped steps repeat ``n``, ``q`` and ``p``), then joined between
    the first-column strings of the run.
    """
    first, *rest = [np.asarray(c, dtype=float) for c in columns]
    suffix = ",%.12g" * len(rest) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for a in range(0, len(first), _CSV_BLOCK_ROWS):
            lead = first[a:a + _CSV_BLOCK_ROWS]
            block = [c[a:a + _CSV_BLOCK_ROWS] for c in rest]
            # a row starts a run unless its values have the bits of the row
            # above; -0.0 == 0.0, but the two format differently
            new = np.zeros(len(lead), dtype=bool)
            new[0] = True
            for c in block:
                bits = c.view(np.int64)
                new[1:] |= bits[1:] != bits[:-1]
            values = np.array([c[new] for c in block]).ravel(order="F")
            tails = ((suffix * int(new.sum())) % tuple(values.tolist())
                     ).splitlines(True)
            heads = (("%.12g\n" * len(lead)) % tuple(lead.tolist())
                     ).splitlines()
            starts = np.flatnonzero(new).tolist()
            ends = starts[1:] + [len(lead)]
            fh.write("".join([tail.join(heads[s:e]) + tail
                              for s, e, tail in zip(starts, ends, tails)]))


def _derivatives_ok(state: LaserState, i_dc: float, r_opt: float,
                    params: LaserParams) -> tuple[bool, float]:
    dn, dq = derivatives(state, i_dc, r_opt, params)
    bound = 1e-6 * max(state.n, 1.0) / params.tau_e
    residual = max(abs(dn), abs(dq))
    return residual <= bound, residual


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int) -> tuple[float, bool, int]:
    """Root of ``f`` on ``[a, b]`` by Brent's method (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4); returns
    ``(root, converged, iterations)``.

    A statement-for-statement port of the iteration in scipy's ``brentq.c``,
    so it evaluates ``f`` at the same points and returns the same root, bit
    for bit.  It stops when ``f`` is 0 or the bracket is narrower than
    ``xtol + rtol*|root|``.  ``a``, ``b``, the tolerances and every value of
    ``f`` are coerced to Python floats: one numpy scalar would make every
    iterate a numpy scalar, and each evaluation of ``f`` slower.  Raises
    ``ValueError`` when ``f(a)`` and ``f(b)`` have the same sign or ``f``
    returns NaN.
    """
    xtol, rtol = float(xtol), float(rtol)

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, True, 0
    if fcur == 0.0:
        return xcur, True, 0
    # Residuals are not NaN, and nonzero up to the stop test below (which
    # returns on a zero whatever the branches before it did), so comparing
    # with 0 compares sign bits, as brentq.c does.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, maxiter + 1):
        if (fpre < 0.0) != (fcur < 0.0):  # xpre is the new contrapoint
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the better end
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True, iteration

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                except ZeroDivisionError:
                    # C gives an infinite or NaN step here, which bisects
                    stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    return xcur, False, maxiter


def steady_state(params: LaserParams, i_dc: float, r_opt: float = 0.0) -> LaserState:
    """Equilibrium of the rate equations under dc current and cw pumping.

    One bracketed root find over the photon number ``q``.  At fixed ``q`` the
    field balance ``q*(1 - g) = a*n`` is linear in ``n``, which gives the
    closed form ``n(q) = q*(n_0 + d*s) / (q + a*d*s)`` with
    ``s = sqrt(1 + 2*gamma_q*q)``, ``a = c_sp*tau_ph/tau_e`` and
    ``d = n_th - n_0``; the carrier balance along that curve is then solved
    for ``q`` on ``[0, 2*gamma_conf*tau_ph*inj]``, whose upper end is doubled
    while the balance there is negative (only when ``c_sp > gamma_conf``).
    Without spontaneous emission (``c_sp = 0``) the field is dark up to
    threshold, and above it ``n = n_0 + d*s``, so ``c_sp = 0, gamma_q = 0``
    is algebraic too.  So is a bracket end below the smallest normal double,
    zero injection included: ``n(q)`` then underflows on the bracket, and the
    field is dark to the precision of a double.  Every answer must zero
    ``model.derivatives`` (``_derivatives_ok``).  A failed root find, or an
    answer that misses that check, raises ``ConvergenceError``; its message
    names the cause, and it carries the derivative residual of the last
    candidate (the bracket's upper end when ``_brentq`` raised).
    """
    if not math.isfinite(i_dc):
        raise ValueError(f"i_dc must be finite, got {i_dc}")
    if not math.isfinite(r_opt):
        raise ValueError(f"r_opt must be finite, got {r_opt}")
    if i_dc < 0.0:
        raise ValueError(f"i_dc must be nonnegative, got {i_dc}")
    if r_opt < 0.0:
        raise ValueError(f"r_opt must be nonnegative, got {r_opt}")
    inj = i_dc / ELEMENTARY_CHARGE + r_opt

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

    failure = None
    hi = 2.0 * gtp * inj
    if hi < sys.float_info.min or ad == 0.0 and inj * tau_e <= params.n_th:
        state = LaserState(n=inj * tau_e, q=0.0)
    else:
        # On the curve q*g = q - a*n, so F(2*gtp*inj) >= inj when
        # c_sp <= gamma_conf; above that, F grows without bound in q, and
        # doubling the end finds a nonnegative residual.
        if params.c_sp > params.gamma_conf:
            while excess(hi) < 0.0:
                hi *= 2.0
        # Near q = 0, n(q) ~ n_th*q/ad, so the derivative check needs q to
        # within about 1e-6*ad/n_th.  The floor, a few subnormal spacings,
        # lets the root find stop on a root below the smallest normal double.
        xtol = max(min(1e-30, 1e-7 * ad / params.n_th), 1e-322)
        try:
            q, converged, iterations = _brentq(excess, 0.0, hi, xtol,
                                               _BRENTQ_RTOL, 3000)
        except ValueError as exc:  # no sign change, or a NaN residual
            q, failure = hi, f"root find failed ({exc})"
        else:
            if not converged:
                failure = (f"root find did not converge after "
                           f"{iterations} iterations")
        state = LaserState(n=carriers(q)[0], q=q)

    ok, residual = _derivatives_ok(state, i_dc, r_opt, params)
    if ok and failure is None:
        return state
    raise ConvergenceError(
        f"steady state {failure or 'missed the derivative check'} at "
        f"i_dc={i_dc:g} A, r_opt={r_opt:g} 1/s "
        f"(residual {residual:.3e} 1/s at n={state.n:.6g}, q={state.q:.6g})",
        residual=residual,
    )


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
    out_n = np.empty(n_out)
    out_q = np.empty(n_out)
    runs = _drive_runs(n_steps, dt, drive, r_opt)
    _, _, clamps, _ = _advance(init.n, init.q, runs, params, dt,
                               (out_n, out_q, warm_steps, stride))
    return SimTrace(
        t=(warm_steps + stride * np.arange(n_out)) * dt,
        n=out_n,
        q=out_q,
        p=photon_to_power(out_q, params),
        clamp_count=clamps,
    )


def _advance(n: float, q: float, runs, params: LaserParams, dt: float,
             out=None) -> tuple[float, float, int, int]:
    """Integrate the state ``(n, q)`` over a drive schedule by classical RK4;
    returns ``(n, q, clamps, steps integrated)``.

    ``runs`` yields ``(k, k_end, h, src)``: steps ``k <= step < k_end`` of
    length ``h`` with the carrier source ``src`` (``i/e + r_opt``) held over
    each.  ``k`` counts grid steps of length ``dt``; a grid step split at a
    drive edge is two one-step runs with the same ``k``.  With
    ``out = (out_n, out_q, first, stride)`` the state at the start of grid
    step ``first + j*stride``, and after the last run, is stored at index
    ``j``.  Negative excursions are clamped to zero and counted.
    """
    # Hoist everything the inner loop touches.  The stage arithmetic is
    # model.derivatives with i/e + r_opt and 0.5*h computed once: the same
    # operations on the same operands, so both paths round identically.
    tau_e = params.tau_e
    tau_ph = params.tau_ph
    gtp = params.gamma_conf * params.tau_ph
    n_0 = params.n_0
    denom = params.n_th - params.n_0
    c_sp = params.c_sp
    two_gq = 2.0 * params.gamma_q
    sqrt = math.sqrt
    isfinite = math.isfinite

    if out is None:
        out_n = out_q = None
        first, stride = -1, 1
    else:
        out_n, out_q, first, stride = out
    rec = first  # grid step of sample j; -1 never matches
    j = 0
    clamps = 0
    steps = 0
    k_end = 0
    for k0, k_end, h, src in runs:
        half = 0.5 * h
        steps += k_end - k0
        for k in range(k0, k_end):
            if k == rec:
                out_n[j] = n
                out_q[j] = q
                j += 1
                rec += stride

            g = (n - n_0) / denom / sqrt(1.0 + two_gq * q)
            k1n = src - n / tau_e - q * g / gtp
            k1q = (g - 1.0) * q / tau_ph + c_sp * n / tau_e
            na = n + half * k1n
            qa = q + half * k1q
            g = (na - n_0) / denom / sqrt(1.0 + two_gq * qa)
            k2n = src - na / tau_e - qa * g / gtp
            k2q = (g - 1.0) * qa / tau_ph + c_sp * na / tau_e
            nb = n + half * k2n
            qb = q + half * k2q
            g = (nb - n_0) / denom / sqrt(1.0 + two_gq * qb)
            k3n = src - nb / tau_e - qb * g / gtp
            k3q = (g - 1.0) * qb / tau_ph + c_sp * nb / tau_e
            nc = n + h * k3n
            qc = q + h * k3q
            g = (nc - n_0) / denom / sqrt(1.0 + two_gq * qc)
            k4n = src - nc / tau_e - qc * g / gtp
            k4q = (g - 1.0) * qc / tau_ph + c_sp * nc / tau_e

            n1 = n + h * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) / 6.0
            q1 = q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
            if n1 == n and q1 == q and n != 0.0 and q != 0.0:
                # Step k maps the nonzero state (n, q) onto itself bit for
                # bit.  The step map depends only on the state, h and src,
                # so every later step of this run does too: jump to the end
                # of the run and fill the samples by slice.
                steps -= k_end - k - 1
                if out_n is not None:
                    j_end = max(j, -((first - k_end) // stride))
                    out_n[j:j_end] = n
                    out_q[j:j_end] = q
                    j = j_end
                    rec = first + j * stride
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
    if rec == k_end:
        out_n[j] = n
        out_q[j] = q
    return n, q, clamps, steps


_EDGE_TOL = 1e-6  # steps; an edge this close to a grid point lies on it


def _split(x: float) -> tuple[int, float]:
    """Position ``x`` in steps as (grid step, fraction of it), the fraction
    snapped to 0 within ``_EDGE_TOL`` of either end of the step."""
    k = math.floor(x)
    f = x - k
    if f <= _EDGE_TOL:
        return k, 0.0
    if f >= 1.0 - _EDGE_TOL:
        return k + 1, 0.0
    return k, f


def _drive_runs(n_steps: int, dt: float, drive: DriveWaveform, r_opt: float):
    """Yield the runs ``(k, k_end, h, src)`` of ``_advance`` for steps 0 to
    ``n_steps`` of length ``dt``, in order.  A run's source is
    ``i/e + r_opt`` for the drive current ``i`` and pump rate ``r_opt``.

    The pulse is on over ``[j*period, j*period + pulse_width)``.  Edges are
    placed per period by arithmetic on (grid step, fraction) pairs: period
    ``j`` starts at step ``j*P`` when ``P = period/dt`` is whole, so the
    schedule repeats exactly every ``P`` steps; otherwise at ``j*period/dt``.
    A grid step that an edge falls inside is split into sub-steps that end on
    the edge, so every step sees one source.  Samples stay at ``k*dt``.  A
    drive whose two sources are equal is one run.  Sources are Python
    floats, whatever the drive's fields are: the kernel runs several times
    slower on numpy scalars.
    """
    src_on = float((drive.i_bias + drive.i_pulse) / ELEMENTARY_CHARGE + r_opt)
    src_off = float(drive.i_bias / ELEMENTARY_CHARGE + r_opt)
    if src_on == src_off or drive.pulse_width == 0.0:
        yield (0, n_steps, dt, src_off)
        return
    p_k, p_f = _split(drive.period / dt)
    w_k, w_f = _split(drive.pulse_width / dt)
    pos, src = (0, 0.0), src_on
    for j in itertools.count():
        on = (j * p_k, 0.0) if p_f == 0.0 else _split(j * (drive.period / dt))
        carry, f = _split(on[1] + w_f)
        off = (on[0] + w_k + carry, f)
        for edge, after in ((on, src_on), (off, src_off)):
            edge = max(edge, pos)  # snapping must not reorder edges
            if edge >= (n_steps, 0.0):
                yield from _pieces(pos, (n_steps, 0.0), dt, src)
                return
            yield from _pieces(pos, edge, dt, src)
            pos, src = edge, after


def _pieces(a: tuple[int, float], b: tuple[int, float], dt: float,
            src: float):
    """Runs that carry source ``src`` from position ``a`` to ``b``."""
    (ka, fa), (kb, fb) = a, b
    if b <= a:
        return
    if ka == kb:
        yield (ka, ka + 1, (fb - fa) * dt, src)
        return
    if fa:
        yield (ka, ka + 1, (1.0 - fa) * dt, src)
        ka += 1
    if kb > ka:
        yield (ka, kb, dt, src)
    if fb:
        yield (kb, kb + 1, fb * dt, src)


_PERIODIC_RTOL = 1e-12  # bound on the period-to-period residual of (n, q)
_ANDERSON_PERIODS = 40  # periods of accelerated iteration
_PLAIN_PERIODS = 200  # further plain periods before giving up


def _periodic_state(params: LaserParams, drive: DriveWaveform, dt: float,
                    r_opt: float) -> tuple[float, np.ndarray, float, int]:
    """One period of the periodic state under the pump rate ``r_opt`` (1/s);
    returns ``(h, q, residual, periods)``: the step, the photon number at
    the ``m + 1`` grid points ``0, h, ..., m*h = period``, the residual
    ``max_i |F(x)_i - x_i| / scale_i`` at the recorded start, and the
    periods integrated before the recorded one.

    Shooting on the period map ``F``: the state at one period start to the
    state at the next, integrated by ``_advance``.  The step is ``dt`` when
    it divides the period, else ``period/ceil(period/dt)``.  From the bias
    steady state, two plain periods ``x <- F(x)`` are followed by Anderson
    acceleration with memory 2 (Anderson 1965; Walker & Ni 2011) on the
    physical state ``x = (n, q)`` until the relative residual is at most
    ``_PERIODIC_RTOL``; ``scale`` is the state after the first period (a
    zero component counts as 1) and enters only the residual.  After
    ``_ANDERSON_PERIODS`` periods plain iteration takes over;
    ``_PLAIN_PERIODS`` periods later ``ConvergenceError`` carries the
    residual.  The state is two Python floats throughout, and the recorded
    period starts from the two floats of the last iterate.
    """
    m, frac = _split(drive.period / dt)
    h = dt
    if frac:  # shrink the step to a whole number of steps per period
        m += 1
        h = drive.period / m
    runs = list(_drive_runs(m, h, drive, r_opt))

    init = steady_state(params, drive.i_bias, r_opt)
    x = (float(init.n), float(init.q))
    g = _advance(x[0], x[1], runs, params, h)[:2]
    scale = tuple(v if v > 0.0 else 1.0 for v in g)
    periods = 1
    fs, gs = [], []  # the last three residuals F(x) - x and images F(x)
    while True:
        f = (g[0] - x[0], g[1] - x[1])
        residual = max(abs(f[0]) / scale[0], abs(f[1]) / scale[1])
        if residual <= _PERIODIC_RTOL:
            break
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
        g = _advance(x[0], x[1], runs, params, h)[:2]
        periods += 1

    out_n = np.empty(m + 1)
    out_q = np.empty(m + 1)
    _advance(x[0], x[1], runs, params, h, (out_n, out_q, 0, 1))
    return h, out_q, residual, periods


def default_warmup(params: LaserParams, drive: DriveWaveform) -> float:
    """Warmup long enough to forget the initial condition: 20 drive periods
    or 10 carrier lifetimes, whichever is larger."""
    return max(20.0 * drive.period, 10.0 * params.tau_e)
