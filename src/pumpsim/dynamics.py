"""Time integration of the pumped rate equations over a drive waveform, and
the CSV writer of every pumpsim data file.

The integrator is a classical fixed-step 4th-order scheme: deterministic and
reproducible to the bit.  Its one RK4 loop steps independent states side by
side as lanes, and runs as C (``_rk4.c``), built by the system C compiler on
the first integration in a process and used only after it matched its Python
twin bit for bit; without a compiler the twin runs, with the same results,
only slower.  It is the only code that integrates: this module owns the step
grid and the drive schedule on it, and integrates a simulation as one lane;
``_periodic`` solves on them for the periodic states that sweeps and fits
measure, several solves at a time as lanes of the same loop.  Steady states
are found algebraically, by one root find over the photon number.

The same library writes CSV rows, by digit arithmetic that gives the bytes
of ``%.12g``, and is used for it only after it matched its twin, which
formats each value by ``%.12g`` itself, byte for byte on a probe.  The twin
writes every table shorter than one block of rows, so such a table never
builds the library.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
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
_TIME_BLOCK = 65536  # samples per block of SimTrace's time checks


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
    zeroed; it should be 0 at sane step sizes.  The times must increase
    strictly and lie on their line, checked ``_TIME_BLOCK`` at a time.
    """

    t: np.ndarray
    n: np.ndarray
    q: np.ndarray
    p: np.ndarray
    clamp_count: int = 0

    def __post_init__(self):
        if not (len(self.t) == len(self.n) == len(self.q) == len(self.p)):
            raise ValueError("trace arrays must have equal length")
        t = self.t
        last = len(t) - 1
        # blocks of samples that share their ends, so each pair is in one
        starts = range(0, last, _TIME_BLOCK)
        if any((b[1:] <= b[:-1]).any()
               for b in (t[a:a + _TIME_BLOCK + 1] for a in starts)):
            raise ValueError("trace times must be strictly increasing")
        if last > 0:
            # Samples k*dt lie on the line through the ends, to 3 ulps of
            # max|t| for one sign: the rounding of k*dt and of the line,
            # np.linspace(t[0], t[-1], len(t)) as numpy builds it.
            step = (t[-1] - t[0]) / last
            bound = 8.0 * np.spacing(max(abs(t[0]), abs(t[-1])))
            for a in starts:
                block = t[a:a + _TIME_BLOCK + 1]
                off = np.arange(a, a + len(block), dtype=float)
                off *= step
                off += t[0]
                if a + len(block) > last:
                    off[-1] = t[-1]
                off -= block
                worst = np.abs(off, out=off).max()
                del off  # before the next block's is made
                if not worst <= bound:  # NaN fails too
                    raise ValueError("trace times must be uniformly spaced")
        for name in ("n", "q", "p"):
            if not getattr(self, name).min(initial=0.0) >= 0.0:  # NaN too
                raise ValueError(f"trace {name} must be nonnegative")

    @property
    def sample_spacing(self) -> float:
        """Time between samples, s, taken over the whole trace's span."""
        if len(self.t) < 2:
            raise ValueError("need at least two samples for a spacing")
        return float((self.t[-1] - self.t[0]) / (len(self.t) - 1))

    def to_csv(self, path) -> None:
        """Write the trace as CSV with 12 significant digits per value."""
        _write_csv(path, "t_s,n,q,p_w", [self.t, self.n, self.q, self.p])


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a header line, 12 significant digits
    per value; the one CSV format of every pumpsim data file.

    The bytes are those of ``np.savetxt(fmt="%.12g", delimiter=",")``.  The
    rows of a table of one block (``_CSV_BLOCK_ROWS``) or more are written
    by ``_writer``: ``_rk4.c``'s ``pumpsim_format_rows`` where it built and
    passed its probe, else ``_write_rows``.  A shorter table is written by
    ``_write_rows``, so a command that never integrates never runs the
    compiler.  Either writer holds at most one block of rows."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        raise ValueError("columns must be 1-d and of equal length")
    if len(columns[0]) < _CSV_BLOCK_ROWS:
        write_rows = _write_rows
    else:
        write_rows = _writer()
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        write_rows(fh, columns, _CSV_BLOCK_ROWS)


def _write_rows(fh, columns, block: int) -> None:
    """Write the CSV rows of equal-length float columns to ``fh``, ``block``
    rows at a time, each value by ``%.12g``: the twin of ``_rk4.c``'s row
    writer, and the writer of short tables and where that does not build."""
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    for a in range(0, len(columns[0]), block):
        # one % per block: the row format repeated, over the values by row
        values = np.column_stack([c[a:a + block] for c in columns])
        fh.write((row * len(values) % tuple(values.ravel().tolist())).encode())


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
    produce bit-identical traces.  The trace costs its four arrays, 32
    bytes a sample, and the validation's block: ``t`` is built in place.

    Steps that provably repeat are not integrated (``_advance``): a run
    that stalls on a fixed point jumps to its end, and a run that reaches
    the exact state of an earlier run, with the same step, source and
    stride phase, copies that run's samples up to where it stopped.  Whole
    periods that repeat, edge fractions that recur and runs that relax
    onto an earlier trajectory are copied; a span whose samples fell in the
    warmup, where none were stored, is integrated.  The trace and the clamp
    count are bit for bit those of integrating every step.
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
    # (warm_steps + stride*j)*dt in place: every step count is below 2**53,
    # so exact in a double, and only the product with dt rounds
    t = np.arange(n_out, dtype=float)
    t *= stride
    t += warm_steps
    t *= dt
    return SimTrace(
        t=t,
        n=out_n,
        q=out_q,
        p=photon_to_power(out_q, params),
        clamp_count=clamps,
    )


def _advance(n: float, q: float, runs, params: LaserParams, dt: float,
             out) -> tuple[float, float, int, int]:
    """Integrate the state ``(n, q)`` over a drive schedule by classical RK4;
    returns ``(n, q, clamps, steps integrated)``.

    ``runs`` yields ``(k, k_end, h, src)``: steps ``k <= step < k_end`` of
    length ``h`` with the carrier source ``src`` (``i/e + r_opt``) held over
    each.  ``k`` counts grid steps of length ``dt``; a grid step split at a
    drive edge is two one-step runs with the same ``k``.  With
    ``out = (out_n, out_q, first, stride)`` the state at the start of grid
    step ``first + j*stride``, and after the last run, is stored at index
    ``j``.  Negative excursions are clamped to zero and counted.  A state
    that becomes non-finite, or a stage outside the gain's domain, raises
    ``SimulationError`` with the end time of the failing step.

    Two exact shortcuts skip steps without changing a bit of the result,
    since one step depends only on the state, ``h`` and ``src``.  A step
    that maps a nonzero state onto itself (a stall) is a fixed point of
    every later step of its run, so the run jumps to its end.  And every
    ``_CHECKPOINT_STEPS`` steps a run of several steps looks up the bits of
    ``(n, q, h, src)``, at its phase of ``stride``, among the checkpoints
    of the runs before it in this call.  A hit repeats that earlier run
    from there to where it stopped integrating (its stall or its end): the
    run jumps there, adds the clamps of that span and copies its samples.
    That covers whole periods that repeat, edge fractions that recur, and
    runs that relax onto an earlier trajectory.  A span that would pass the
    end of the run, or whose earlier samples were not stored (they fell
    before ``first``), is integrated as usual.

    The steps between checkpoints are integrated by the RK4 loop of
    ``_lanes``, bound once per call with ``(n, q)`` as its one lane: the
    compiled ``_rk4.c``, or its twin ``_chunk_lanes`` over the Python loop
    ``_chunk`` that it is held to bit for bit.
    """
    out_n, out_q, first, stride = out
    # the loop's one lane, its state, source, halt, clamps and stop, and
    # the record cursor: the step of sample j, and j
    lane_n, lane_q, lane_src = np.array([n, q, 0.0]).reshape(3, 1)
    halted, clamps, at = np.zeros((3, 1), dtype=np.int64)
    cursor = np.array([first, 0], dtype=np.int64)
    step = _lanes()(_coefficients(params), lane_n, lane_q, halted, clamps,
                    at, cursor, lane_src, out_n[np.newaxis],
                    out_q[np.newaxis], stride)
    steps = 0
    k_end = 0
    # (bits of n, q, h and src, stride phase) at a checkpoint -> (run index,
    # step, clamps so far) of its latest run
    seen = {}
    stops = []  # per run: (step where integration stopped, n, q, clamps)
    for run, (k0, k_end, h, src) in enumerate(runs):
        steps += k_end - k0
        lane_src[0] = src
        k = k0
        while k < k_end:
            # a run of several steps starts on the grid, so each of its
            # samples is its own state (a split step's is its first piece's)
            if k_end - k0 > 1:
                # bits, not values: -0.0 == 0.0, but they print apart
                key = _CHECKPOINT_KEY(lane_n.item(0), lane_q.item(0), h, src,
                                      k % stride)
                hit = seen.get(key)
                seen[key] = (run, k, clamps.item(0))
                if hit is not None and hit[0] < run:
                    _, k_from, clamps_from = hit
                    k_stop, n_stop, q_stop, clamps_stop = stops[hit[0]]
                    k_new = k + k_stop - k_from
                    if k_from < k_stop and k_new <= k_end:
                        j_new = _replay_samples(out, cursor.item(1), k, k_new,
                                                k_from)
                        if j_new is not None:
                            cursor[:] = first + j_new * stride, j_new
                            lane_n[0], lane_q[0] = n_stop, q_stop
                            clamps += clamps_stop - clamps_from
                            steps -= k_new - k
                            k = k_new
                            continue
            k_stop = min(k + _CHECKPOINT_STEPS, k_end)
            step(k, k_stop, h)
            k = at.item(0)
            if k == k_stop:
                continue
            if halted[0]:
                raise _failure(halted.item(0), k, dt)
            # Step k maps the nonzero state onto itself bit for bit.  The
            # step map depends only on the state, h and src, so every later
            # step of this run does too: jump to the end of the run and fill
            # its samples by slice from the cursor.
            steps -= k_end - k - 1
            j = cursor.item(1)
            j_end = max(j, -((first - k_end) // stride))
            out_n[j:j_end] = lane_n[0]
            out_q[j:j_end] = lane_q[0]
            cursor[:] = first + j_end * stride, j_end
            break
        stops.append((k, lane_n.item(0), lane_q.item(0), clamps.item(0)))
    n, q = lane_n.item(0), lane_q.item(0)
    if cursor[0] == k_end:
        out_n[cursor[1]] = n
        out_q[cursor[1]] = q
    return n, q, clamps.item(0), steps


def _failure(status: int, k: int, dt: float) -> SimulationError:
    """The ``SimulationError`` of grid step ``k``, of length ``dt``, whose
    integration failed with ``status``: its state became non-finite, or a
    stage left the gain's domain."""
    t = (k + 1) * dt
    if status == _NON_FINITE:
        return SimulationError(f"state became non-finite at t={t:.6e} s",
                               t_failure=t)
    return SimulationError(
        f"an RK4 stage left the gain's domain (1 + 2*gamma_q*q <= 0) in the "
        f"step to t={t:.6e} s", t_failure=t)


_DONE, _STALL, _NON_FINITE, _DOMAIN = range(4)  # step statuses


def _coefficients(params: LaserParams) -> tuple:
    """The ``coef`` of ``_chunk`` and of the RK4 loop, from ``params``."""
    return (params.tau_e, params.tau_ph, params.gamma_conf * params.tau_ph,
            params.n_0, params.n_th - params.n_0, params.c_sp,
            2.0 * params.gamma_q)


def _chunk(n: float, q: float, k: int, k_stop: int, h: float, src: float,
           rec: int, j: int, clamps: int, coef, out_n, out_q, stride: int):
    """Integrate steps ``k`` to ``k_stop - 1`` of one lane's run of step
    ``h`` and source ``src``, storing the state at the start of step ``rec``
    at index ``j`` of ``out_n`` and ``out_q`` and moving ``rec`` on by
    ``stride``; returns ``(status, n, q, k, rec, j, clamps)``.

    ``coef`` is ``(tau_e, tau_ph, gamma_conf*tau_ph, n_0, n_th - n_0, c_sp,
    2*gamma_q)``.  The status is ``_DONE`` with ``k = k_stop``, or the step
    ``k`` stopped at: ``_STALL`` when it maps the nonzero state onto itself,
    ``_NON_FINITE`` when its result is not finite, ``_DOMAIN`` when a stage
    has ``1 + 2*gamma_q*q <= 0``, where the gain has no value; the state is
    the one at the start of step ``k``.  A sample index past the arrays
    raises ``IndexError``.

    The reference for ``_rk4.c``'s step, and the loop of its twin
    ``_chunk_lanes``.
    """
    # The stage arithmetic is model.derivatives with i/e + r_opt and 0.5*h
    # computed once: the same operations on the same operands, so both
    # round identically.
    tau_e, tau_ph, gtp, n_0, denom, c_sp, two_gq = coef
    half = 0.5 * h
    sqrt = math.sqrt
    isfinite = math.isfinite
    try:
        for k in range(k, k_stop):
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
                return _STALL, n, q, k, rec, j, clamps
            if not (isfinite(n1) and isfinite(q1)):
                return _NON_FINITE, n, q, k, rec, j, clamps
            if n1 < 0.0:
                n1 = 0.0
                clamps += 1
            if q1 < 0.0:
                q1 = 0.0
                clamps += 1
            n = n1
            q = q1
    except (ValueError, ZeroDivisionError):
        # math.sqrt of 1 + 2*gamma_q*q < 0 raises, and of 0 leaves a
        # division by zero; caught here, not per stage, to keep the loop
        # as it is
        return _DOMAIN, n, q, k, rec, j, clamps
    return _DONE, n, q, k_stop, rec, j, clamps


def _chunk_lanes(coef, n, q, halted, clamps, at, cursor, src, out_n, out_q,
                 stride: int):
    """The RK4 loop over the lanes' states ``n[l]``, ``q[l]``, halts
    ``halted[l]``, clamp counts ``clamps[l]``, stops ``at[l]``, sources
    ``src[l]`` and rows ``out_n[l]`` (or None) and ``out_q[l]``, as
    ``step(k, k_stop, h)``: each lane whose halt is 0 through ``_chunk``
    over steps ``k`` to ``k_stop - 1`` of length ``h``.  The lanes share the
    record cursor ``(rec, j) = cursor``: the state at the start of step
    ``rec`` goes to column ``j`` of their rows, and ``rec`` moves on by
    ``stride``.  ``at[l]`` is the step where lane ``l`` stopped: ``k_stop``,
    or the step that stalled or failed.  A lane that stalls keeps its
    state, stored to the end of the call; one whose step fails keeps the
    state at the start of that step, and its halt is the status.  A column
    past the rows raises ``IndexError``.  The twin of ``_rk4.c``'s
    ``pumpsim_rk4``; its lanes are the one state of an ``_advance`` call,
    or the shooting solves of ``_periodic._lockstep``."""
    scratch = np.empty(out_q.shape[1]) if out_n is None else None

    def step(k, k_stop, h):
        rec, j = cursor.tolist()
        records = -((rec - k_stop) // stride) if k <= rec < k_stop else 0
        for lane in range(len(n)):
            if halted.item(lane):
                continue
            status, n[lane], q[lane], at[lane], _, j_at, clamps[lane] = _chunk(
                n.item(lane), q.item(lane), k, k_stop, h, src.item(lane), rec,
                j, clamps.item(lane), coef,
                scratch if out_n is None else out_n[lane], out_q[lane], stride)
            if status == _STALL:
                if out_n is not None:
                    out_n[lane, j_at:j + records] = n[lane]
                out_q[lane, j_at:j + records] = q[lane]
            elif status != _DONE:
                halted[lane] = status
        cursor[:] = rec + records * stride, j + records
        if j + records > out_q.shape[1]:
            raise IndexError(f"sample {out_q.shape[1]} is outside the rows")

    return step


def _lanes():
    """The RK4 loop of every integration: ``_rk4.c``'s or ``_chunk_lanes``
    (``_library``)."""
    return _library()[0]


def _writer():
    """The row writer of ``_write_csv``'s tables of a block or more:
    ``_rk4.c``'s digit arithmetic or ``_write_rows``' ``%.12g`` per value
    (``_library``)."""
    return _library()[1]


@functools.cache
def _library():
    """``(RK4 loop, row writer)``: each of ``_rk4.c``, built by the system
    ``cc``, where it builds, loads and matches its Python twin on its probe,
    else the twin: ``_chunk_lanes`` and ``_write_rows``
    (``_native.select``).  Built once per process, on the first call, so
    importing pumpsim compiles nothing, and one build serves both."""
    from . import _native

    return _native.select(_native.build(), (_chunk_lanes, _write_rows))


# The probes' device, ``default``'s; their states: 35 from dark to far above
# threshold; two of 1e10 photons, whose steps clamp 16 times, and, from 6.5e7
# carriers, once before a stage leaves the gain's domain in step 3; and a
# fixed point of the first run, on which its steps stall.  Their runs (first
# step, end, current): 10 steps of 0.3 ps under its 26 mA pulse, then 10 at
# its 6 mA bias.
_PROBE_COEF = (1e-9, 3e-12, 0.12 * 3e-12, 5.5e7, 6.5e7 - 5.5e7, 1e-5, 2e-6)
_PROBE_STATES = list(itertools.product(
    (0.0, 1e4, 1e6, 3e7, 5.5e7, 6.5e7, 8e7), (0.0, 1e-3, 1.0, 1e3, 1e5))) + [
    (0.0, 1e10), (6.5e7, 1e10),
    (float.fromhex("0x1.f2861e5bf831fp+25"),
     float.fromhex("0x1.10a65a45d530ap+15"))]
_PROBE_RUNS = ((0, 10, 26e-3), (10, 20, 6e-3))
_PROBE_H = 3e-13


def _probe_lanes(lanes) -> bytes:
    """The bits that the RK4 loop ``lanes`` leaves over ``_PROBE_RUNS``,
    three ways: the ``_PROBE_STATES`` as its lanes storing ``n`` and ``q``
    every third step from step 1; storing ``q`` alone at every step; and the
    stalling state alone, which leaves no lane stepping.  Each run's stops
    and halts, and the states, clamps, cursor and records after the last.
    One step's result rarely shows a change in rounding, since the state
    absorbs the low bits of its increment; across these states, fusing the
    loop's multiply-adds, or reordering any one of six operations tried,
    changes some of these bits."""
    parts = []
    for states, stride, rec, with_n in ((_PROBE_STATES, 3, 1, True),
                                        (_PROBE_STATES, 1, 0, False),
                                        (_PROBE_STATES[-1:], 1, 0, True)):
        n, q = (np.array(v) for v in zip(*states))
        src = np.empty(len(n))
        halted, clamps, at = np.zeros((3, len(n)), dtype=np.int64)
        cursor = np.array([rec, 0], dtype=np.int64)
        out_q = np.zeros((len(n), _PROBE_RUNS[-1][1] + 1))
        out_n = np.zeros_like(out_q) if with_n else None
        step = lanes(_PROBE_COEF, n, q, halted, clamps, at, cursor, src,
                     out_n, out_q, stride)
        for k, k_stop, i in _PROBE_RUNS:
            src[:] = i / ELEMENTARY_CHARGE
            step(k, k_stop, _PROBE_H)
            parts += [at.tobytes(), halted.tobytes()]
        parts += [a.tobytes() for a in (n, q, clamps, cursor, out_n, out_q)
                  if a is not None]
    return b"".join(parts)


_CHECKPOINT_STEPS = 1024  # steps between a run's replay checkpoints
_CHECKPOINT_KEY = struct.Struct("4dq").pack


def _replay_samples(out, j: int, k: int, k_new: int, k_from: int):
    """Store the samples of steps ``k`` to ``k_new`` of a span that repeats
    the one from step ``k_from`` (at the same phase of ``stride``) by
    copying that span's samples; returns the next sample index, or None
    when some of them were not stored because they fell before ``first``.
    ``j`` is the index of the first sample at or after step ``k``."""
    out_n, out_q, first, stride = out
    j_new = max(j, -((first - k_new) // stride))
    if j_new > j:
        back = k - k_from
        if j * stride < back:
            return None
        lag = back // stride
        out_n[j:j_new] = out_n[j - lag:j_new - lag]
        out_q[j:j_new] = out_q[j - lag:j_new - lag]
    return j_new


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


def _complete_period_bounds(t: np.ndarray,
                            period: float) -> list[tuple[int, int, int]]:
    """(period index, first sample, boundary sample) of each drive period
    that the uniform times ``t`` cover.  Period ``j`` begins at the first
    sample at or after ``j*period`` (an edge at most ``_EDGE_TOL`` spacings
    past a sample lies on it, as in ``_drive_runs``) unless it began a
    spacing or more before ``t[0]``."""
    h = float((t[-1] - t[0]) / (len(t) - 1))
    j = np.arange((t[0] - h) // period, t[-1] // period + 2, dtype=int)
    edges = j * period - _EDGE_TOL * h
    inside = (edges > t[0] - h) & (edges <= t[-1])
    starts = np.searchsorted(t, edges[inside]).tolist()
    j = j[inside].tolist()
    return list(zip(j, starts[:-1], starts[1:]))


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


def default_warmup(params: LaserParams, drive: DriveWaveform) -> float:
    """Warmup long enough to forget the initial condition: 20 drive periods
    or 10 carrier lifetimes, whichever is larger."""
    return max(20.0 * drive.period, 10.0 * params.tau_e)
