"""Drive waveform, steady states, and the fixed-step integrator."""

import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import types
from unittest import mock
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

import pumpsim as ps
from pumpsim import _native, _periodic, cli, dynamics
from pumpsim.errors import ConvergenceError
from pumpsim.model import ELEMENTARY_CHARGE

from test_analysis import serial_lockstep
from test_model import make_params


class TestSteadyState:
    def test_dark_fixed_point(self, params):
        state = ps.steady_state(params, 0.0, 0.0)
        assert state.n == 0.0 and state.q == 0.0

    def test_subthreshold_carrier_number(self):
        params = make_params(c_sp=1e-12)
        i_dc = 5e-3
        state = ps.steady_state(params, i_dc)
        assert state.n == pytest.approx(i_dc * params.tau_e / ELEMENTARY_CHARGE,
                                        rel=1e-6)
        assert state.q < 1.0

    def test_above_threshold_power(self, params):
        i_th = ELEMENTARY_CHARGE * params.n_th / params.tau_e
        for r_opt in (0.0, 1e15):
            state = ps.steady_state(params, 20e-3, r_opt)
            power = ps.photon_to_power(state.q, params)
            expected = (
                params.eta * params.e_photon_out / (2.0 * ELEMENTARY_CHARGE)
            ) * (20e-3 - i_th + ELEMENTARY_CHARGE * r_opt)
            assert power == pytest.approx(expected, rel=0.02)

    def test_derivatives_vanish(self, params):
        for i_dc in (0.0, 2e-3, 10e-3, 10.41e-3, 20e-3, 50e-3):
            state = ps.steady_state(params, i_dc)
            dn, dq = ps.derivatives(state, i_dc, 0.0, params)
            bound = 1e-6 * max(state.n, 1.0) / params.tau_e
            assert abs(dn) <= bound and abs(dq) <= bound

    def test_pumping_equivalent_to_extra_current(self, params):
        r_opt = 1.0551508e15
        pumped = ps.steady_state(params, 6e-3, r_opt)
        shifted = ps.steady_state(params, 6e-3 + ELEMENTARY_CHARGE * r_opt, 0.0)
        assert pumped.n == pytest.approx(shifted.n, rel=1e-9)
        assert pumped.q == pytest.approx(shifted.q, rel=1e-9)

    def test_degenerate_params_are_algebraic(self):
        params = make_params(c_sp=0.0, gamma_q=0.0)
        state = ps.steady_state(params, 20e-3)
        assert state.n == pytest.approx(params.n_th, rel=1e-12)
        q_expected = (
            params.gamma_conf * params.tau_ph
            * (20e-3 / ELEMENTARY_CHARGE - params.n_th / params.tau_e)
        )
        assert state.q == pytest.approx(q_expected, rel=1e-12)

    @settings(deadline=None)
    @given(
        tau_e=st.floats(0.3e-9, 3e-9),
        tau_ph=st.floats(1e-12, 1e-11),
        gamma_conf=st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
        n_0=st.floats(0.0, 1e8),
        span=st.floats(1e6, 1e8),
        c_sp=st.just(0.0) | st.floats(5e-324, 1.0),
        gamma_q=st.just(0.0) | st.floats(1e-9, 10.0),
        i_dc=st.just(0.0) | st.floats(5e-324, 50e-3),
        step=st.floats(1e-6, 20e-3),
        r_opt=st.just(0.0) | st.floats(5e-324, 1e17),
    )
    # subthreshold roots below a fixed xtol of 1e-30
    @example(tau_e=1e-9, tau_ph=3e-12, gamma_conf=0.12, n_0=5.5e7, span=1e7,
             c_sp=1e-30, gamma_q=1e-6, i_dc=1e-3, step=18e-3, r_opt=0.0)
    @example(tau_e=1e-9, tau_ph=3e-12, gamma_conf=0.12, n_0=5.5e7, span=1e7,
             c_sp=1e-26, gamma_q=1e-6, i_dc=1e-12, step=18e-3, r_opt=0.0)
    # the bracket end 2*gamma_conf*tau_ph*inj underflows to 0, or is
    # subnormal and n(q) underflows to 0 on the bracket
    @example(tau_e=1e-9, tau_ph=3e-12, gamma_conf=0.12, n_0=5.5e7, span=1e7,
             c_sp=1e-12, gamma_q=1e-6, i_dc=0.0, step=18e-3, r_opt=5e-324)
    @example(tau_e=0.3e-9, tau_ph=1e-12, gamma_conf=0.5, n_0=0.0,
             span=2099913.0, c_sp=0.5, gamma_q=0.0, i_dc=0.0, step=18e-3,
             r_opt=2.225073858507203e-309)
    @example(tau_e=1e-9, tau_ph=3e-12, gamma_conf=1e-3, n_0=5.5e7, span=1e7,
             c_sp=1e-300, gamma_q=1e6, i_dc=1e-3, step=18e-3, r_opt=0.0)
    # a root below the smallest normal double; n_0 + span == n_th exactly
    @example(tau_e=5.15275623921525e-9, tau_ph=5.045761122707895e-12,
             gamma_conf=0.01615145058829573, n_0=18307702.19245789,
             span=18405777.386812218 - 18307702.19245789,
             c_sp=8.29900964324e-313, gamma_q=2028.7560245406046, i_dc=0.0,
             step=18e-3, r_opt=2.975062220086746e-34)
    # the smallest gamma_conf LaserParams accepts, far below c_sp at n_0 = 0
    @example(tau_e=1e-9, tau_ph=3e-12, gamma_conf=1e-12, n_0=0.0, span=1.07e7,
             c_sp=1.0, gamma_q=1e-6, i_dc=1e-3, step=18e-3, r_opt=1e15)
    def test_root_find_properties(self, tau_e, tau_ph, gamma_conf, n_0,
                                  span, c_sp, gamma_q, i_dc, step, r_opt):
        assume(c_sp * (n_0 / (n_0 + span)) < gamma_conf)  # LaserParams' domain
        params = make_params(tau_e=tau_e, tau_ph=tau_ph,
                             gamma_conf=gamma_conf, n_0=n_0,
                             n_th=n_0 + span, c_sp=c_sp, gamma_q=gamma_q)
        low = ps.steady_state(params, i_dc)
        high = ps.steady_state(params, i_dc + step)
        pumped = ps.steady_state(params, i_dc, r_opt)
        shifted = ps.steady_state(params, i_dc + ELEMENTARY_CHARGE * r_opt)
        for state, i in ((low, i_dc), (high, i_dc + step)):
            assert dynamics._derivatives_ok(state, i, 0.0, params)[0]
        assert dynamics._derivatives_ok(pumped, i_dc, r_opt, params)[0]
        assert high.n >= low.n and high.q >= low.q
        assert pumped.n == pytest.approx(shifted.n, rel=1e-9)
        assert pumped.q == pytest.approx(shifted.q, rel=1e-9)

    # c_sp above gamma_conf at n_0 near n_th: c_sp*n_0 is 3.5 and 7 times
    # gamma_conf*n_th, so the field would be bright without injection
    @pytest.mark.parametrize("c_sp", [0.5, 1.0])
    def test_bright_without_injection_refused(self, c_sp):
        with pytest.raises(ValueError, match="c_sp\\*n_0") as info:
            make_params(tau_e=1e-9, tau_ph=3e-12, gamma_conf=0.12, n_0=5.5e7,
                        n_th=6.5e7, c_sp=c_sp, gamma_q=1e-6)
        for field in ("c_sp=", "n_0=", "gamma_conf=", "n_th="):
            assert field in str(info.value)

    def test_bright_loop_boundary(self):
        # c_sp*n_0 == gamma_conf*n_th exactly is refused, just below is not
        with pytest.raises(ValueError):
            make_params(gamma_conf=0.5, n_0=5e7, n_th=1e8, c_sp=1.0)
        make_params(gamma_conf=0.5, n_0=5e7, n_th=1e8, c_sp=0.999)

    def test_invalid_inputs(self, params):
        with pytest.raises(ValueError):
            ps.steady_state(params, -1e-3)
        with pytest.raises(ValueError):
            ps.steady_state(params, 1e-3, -1.0)
        # non-finite inputs are input errors, not the root find's
        # ConvergenceError
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="i_dc must be finite"):
                ps.steady_state(params, bad)
            with pytest.raises(ValueError, match="r_opt must be finite"):
                ps.steady_state(params, 6e-3, bad)


def failing_brentq(mode):
    """The package's Brent root find, made to fail the way ``mode`` names."""
    real = dynamics._brentq

    def fake(f, a, b, xtol, rtol, maxiter):
        if mode == "bracket":
            return real(lambda q: 1.0, a, b, xtol, rtol, maxiter)
        if mode == "nan":
            return real(lambda q: math.nan, a, b, xtol, rtol, maxiter)
        if mode == "maxiter":
            return real(f, a, b, xtol, rtol, 1)
        # "miss": converged, wrong root
        q, converged, iterations = real(f, a, b, xtol, rtol, maxiter)
        return 0.5 * q, converged, iterations
    return fake


class TestRootFindFailures:
    @pytest.mark.parametrize("mode", ["bracket", "nan", "maxiter", "miss"])
    @pytest.mark.parametrize("i_dc", [2e-3, 20e-3])
    def test_root_find_failure_raises(self, params, monkeypatch, mode, i_dc):
        cause = {"bracket": "different signs", "nan": "NaN",
                 "maxiter": "did not converge",
                 "miss": "missed the derivative check"}[mode]
        residuals = []
        real_check = dynamics._derivatives_ok

        def spy(*args):
            ok, residual = real_check(*args)
            residuals.append(residual)
            return ok, residual

        monkeypatch.setattr(dynamics, "_brentq", failing_brentq(mode))
        monkeypatch.setattr(dynamics, "_derivatives_ok", spy)
        with pytest.raises(ConvergenceError) as info:
            ps.steady_state(params, i_dc)
        message = str(info.value)
        assert "steady state" in message and cause in message
        assert info.value.residual == residuals[-1]
        assert 0.0 < info.value.residual < math.inf
        assert f"residual {info.value.residual:.3e} 1/s" in message

    def test_convergence_error_carries_residual(self, params, monkeypatch):
        residuals = []
        real_check = dynamics._derivatives_ok

        def never_ok(*args):
            residuals.append(real_check(*args)[1])
            return False, residuals[-1]

        monkeypatch.setattr(dynamics, "_brentq", failing_brentq("bracket"))
        monkeypatch.setattr(dynamics, "_derivatives_ok", never_ok)
        with pytest.raises(ConvergenceError) as info:
            ps.steady_state(params, 20e-3)
        assert info.value.residual == residuals[-1]
        assert 0.0 < info.value.residual < math.inf

    def test_non_finite_derivatives_raise(self, params, monkeypatch):
        monkeypatch.setattr(dynamics, "derivatives",
                            lambda *args: (math.nan, math.nan))
        with pytest.raises(ConvergenceError) as info:
            ps.steady_state(params, 20e-3)
        assert math.isnan(info.value.residual)
        assert "missed the derivative check" in str(info.value)
        assert "residual nan 1/s" in str(info.value)


_RTOL = 4.0 * np.finfo(float).eps  # scipy's smallest allowed rtol


def _recorded(f):
    """``f`` and the list of every ``x`` it is called with."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)
    return g, xs


def _brent_cases():
    """A seeded set of functions and brackets: smooth, flat-stepped (the
    extrapolation divides by zero), scaled to the edges of the double range,
    and subnormal; with tolerances that converge and maxiters that do not."""
    rng = np.random.default_rng(16)
    cases = []
    for _ in range(150):
        c = rng.uniform(-5.0, 5.0)
        lo, hi = c - rng.uniform(0.0, 10.0), c + rng.uniform(0.0, 10.0)
        p = int(rng.choice([1, 3, 5]))
        scale = float(rng.choice([1e-300, 1e-200, 1.0, 1e100]))
        step = float(rng.choice([0.5, 1e-3, 1e-8]))
        cases += [
            (lambda x, c=c, p=p, s=scale:
             s * ((x - c) ** p + 0.1 * math.sin(x) * (x - c)), lo, hi),
            (lambda x, c=c, h=step: (math.floor((x - c) / h) + 0.3) * h,
             lo, hi),
            (lambda x, c=c: math.tanh(50.0 * (x - c))
             + math.copysign(1e-310, x - c), lo, hi),
            (lambda x, c=c: 1e-310 * (x - c), lo, hi),
        ]
    tolerances = [(2e-12, _RTOL, 100), (5e-324, _RTOL, 3000),
                  (1e-3, 1e-10, 5), (1e-12, _RTOL, 3)]
    cases = [(f, a, b, *tol) for f, a, b in cases for tol in tolerances]
    # A kink and a coarse xtol: an interpolated step falls between
    # 3|sbis| - delta and 3|sbis|, so dropping delta there is seen.
    for c, k1, k2, a, b, xtol in [(0.25, 1.0, 3.75, -1.75, 4.25, 1.0),
                                  (0.25, 0.5, 4.5, -2.75, 3.25, 0.25),
                                  (-0.625, 0.5, 7.0, -4.375, 2.625, 2**-5)]:
        cases.append((lambda x, c=c, k1=k1, k2=k2:
                      (k1 if x < c else k2) * (x - c) + 0.125 * (x - c) ** 2,
                      a, b, xtol, _RTOL, 100))
    return cases


class TestBrentq:
    """``dynamics._brentq``, the port of the iteration in scipy's brentq.c."""

    @staticmethod
    def assert_matches_scipy(f, a, b, xtol, rtol, maxiter):
        optimize = pytest.importorskip("scipy.optimize")
        g, ours = _recorded(f)
        h, theirs = _recorded(f)
        try:
            want, info = optimize.brentq(h, a, b, xtol=xtol, rtol=rtol,
                                         maxiter=maxiter, full_output=True,
                                         disp=False)
        except ValueError as exc:  # same signs at both ends
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                dynamics._brentq(g, a, b, xtol, rtol, maxiter)
        else:
            root, converged, iterations = dynamics._brentq(g, a, b, xtol,
                                                           rtol, maxiter)
            assert root.hex() == want.hex()
            assert (converged, iterations) == (info.converged,
                                               info.iterations)
        assert [x.hex() for x in ours] == [x.hex() for x in theirs]

    def test_matches_scipy_bit_for_bit(self):
        for case in _brent_cases():
            self.assert_matches_scipy(*case)

    def test_steady_state_residual_matches_scipy(self, monkeypatch):
        calls = []
        real = dynamics._brentq

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dynamics, "_brentq", spy)
        # defaults; c_sp above gamma_conf (the bracket end is doubled); and
        # tiny c_sp, whose xtol at 1e-300 is subnormal
        for overrides in ({}, {"c_sp": 0.5, "n_0": 0.0}, {"c_sp": 1e-30},
                          {"c_sp": 1e-300}):
            params = make_params(**overrides)
            for i_dc in (1e-12, 2e-3, 20e-3, np.float64(12.5e-3)):
                ps.steady_state(params, i_dc, 1e15)
        monkeypatch.undo()
        assert len(calls) == 16
        assert any(0.0 < args[3] < sys.float_info.min for args in calls)
        for args in calls:
            self.assert_matches_scipy(*args)

    def test_endpoint_roots(self):
        # scipy leaves its iteration count unset on this path; none ran
        assert dynamics._brentq(lambda x: x, 0.0, 1.0, 1e-12, _RTOL, 100) \
            == (0.0, True, 0)
        assert dynamics._brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12, _RTOL,
                                100) == (1.0, True, 0)

    @pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: -2.0,
                                   lambda x: 1e-200])
    def test_same_signs_raise(self, f):
        # 1e-200 squared underflows: the signs are compared, not a product
        with pytest.raises(ValueError, match="different signs"):
            dynamics._brentq(f, 0.0, 1.0, 1e-12, _RTOL, 100)

    @pytest.mark.parametrize("nan_at", ["a", "b", "inside"])
    def test_nan_residual_raises(self, nan_at):
        def f(x):
            inside = 0.0 < x < 1.0
            if {"a": x == 0.0, "b": x == 1.0, "inside": inside}[nan_at]:
                return math.nan
            return x - 0.3

        with pytest.raises(ValueError, match="NaN"):
            dynamics._brentq(f, 0.0, 1.0, 1e-12, _RTOL, 100)

    @pytest.mark.parametrize("maxiter", [0, 1, 2])
    def test_maxiter(self, maxiter):
        root, converged, iterations = dynamics._brentq(
            lambda x: math.exp(x) - 5.0, -3.0, 4.0, 1e-12, _RTOL, maxiter)
        assert (converged, iterations) == (False, maxiter)
        if maxiter == 0:
            assert root == 4.0
        self.assert_matches_scipy(lambda x: math.exp(x) - 5.0, -3.0, 4.0,
                                  1e-12, _RTOL, maxiter)

    def test_numpy_scalars_iterate_as_floats(self):
        # One numpy scalar among the inputs must not make every iterate a
        # numpy scalar: each evaluation of f would slow down several-fold.
        g, xs = _recorded(lambda x: np.float64(x) ** 3 - np.float64(2.0))
        root, converged, _ = dynamics._brentq(
            g, np.float64(0.0), np.float64(3.0), np.float64(1e-12),
            np.float64(_RTOL), 100)
        assert converged and len(xs) > 5
        assert all(type(x) is float for x in xs)
        assert type(root) is float


class TestSimConfigValidation:
    def test_step_must_resolve_photon_lifetime(self, params, drive):
        with pytest.raises(ValueError):
            ps.SimConfig(params=params, drive=drive,
                         pump=ps.PumpScenario(0.0), t_total=1e-9,
                         dt=1e-12, warmup=0.0)

    def test_total_must_exceed_warmup(self, params, drive):
        with pytest.raises(ValueError):
            ps.SimConfig(params=params, drive=drive,
                         pump=ps.PumpScenario(0.0), t_total=1e-9,
                         dt=1e-13, warmup=2e-9)

    def test_stride_positive_integer(self, params, drive):
        with pytest.raises(ValueError):
            ps.SimConfig(params=params, drive=drive,
                         pump=ps.PumpScenario(0.0), t_total=1e-9,
                         dt=1e-13, warmup=0.0, sample_stride=0)
        with pytest.raises(ValueError, match="sample_stride"):  # not stride 1
            ps.SimConfig(params=params, drive=drive,
                         pump=ps.PumpScenario(0.0), t_total=1e-9,
                         dt=1e-13, warmup=0.0, sample_stride=True)

    @pytest.mark.parametrize("field, value", [
        ("dt", math.nan), ("dt", math.inf), ("warmup", math.nan),
        ("warmup", math.inf), ("t_total", math.nan), ("t_total", math.inf),
    ])
    def test_numerics_must_be_finite(self, base_config, field, value):
        # NaN passes every sign check, and simulate cannot size a run of
        # infinite length
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            replace(base_config, **{field: value})

    def test_default_warmup_rule(self, params, drive):
        def standard(wave):
            # warm up by the default rule, then measure 10 periods
            warmup = ps.default_warmup(params, wave)
            return ps.SimConfig(params=params, drive=wave,
                                pump=ps.PumpScenario(0.0),
                                t_total=warmup + 10 * wave.period, dt=1e-13,
                                warmup=warmup)

        config = standard(drive)
        assert config.warmup == pytest.approx(10.0 * params.tau_e)  # > 20 periods
        slow = ps.DriveWaveform(i_bias=3e-3, i_pulse=20e-3, pulse_width=1.2e-9,
                                rep_rate=1e7)
        config = standard(slow)
        assert config.warmup == pytest.approx(20.0 / slow.rep_rate)


# (dt, w, s, samples) of simulate's sample times (w + s*k)*dt: a step of
# 1e-15 to 1e-11 s, first sample step w, stride s
time_grids = st.tuples(st.floats(1e-15, 1e-11), st.integers(0, 10 ** 9),
                       st.integers(1, 100), st.integers(1, 40))


class TestSimulate:
    def test_gain_switched_pulsing(self, base_trace):
        peak = base_trace.p.max()
        floor = base_trace.p.min()
        assert floor > 0.0
        assert peak / floor > 100.0

    def test_pumping_raises_pulse_energy(self, base_trace, pumped_trace, drive):
        e_base = ps.pulse_metrics(base_trace, drive).pulse_energy
        e_pump = ps.pulse_metrics(pumped_trace, drive).pulse_energy
        assert e_pump > e_base

    def test_zero_clamps_at_default_step(self, base_trace, pumped_trace):
        assert base_trace.clamp_count == 0
        assert pumped_trace.clamp_count == 0

    def test_warmup_excluded_and_grid_uniform(self, base_config, base_trace):
        assert base_trace.t[0] == pytest.approx(base_config.warmup, rel=1e-12)
        assert base_trace.t[-1] == pytest.approx(base_config.t_total, rel=1e-12)
        assert base_trace.sample_spacing == pytest.approx(
            base_config.dt * base_config.sample_stride, rel=1e-9
        )

    def test_cw_below_threshold_stays_at_floor(self, params, drive):
        flat = ps.DriveWaveform(i_bias=drive.i_bias, i_pulse=0.0,
                                pulse_width=drive.pulse_width,
                                rep_rate=drive.rep_rate)
        config = ps.SimConfig(params=params, drive=flat,
                              pump=ps.PumpScenario(0.0), t_total=2e-9,
                              dt=1e-13, warmup=0.0)
        trace = ps.simulate(config)
        tail = trace.p[len(trace.p) // 2:]
        assert tail.std() / tail.mean() < 0.01
        settled = ps.steady_state(params, flat.i_bias)
        assert trace.n[-1] == pytest.approx(settled.n, rel=1e-9)
        assert trace.q[-1] == pytest.approx(settled.q, rel=1e-9)

    def test_deterministic_runs(self, base_config):
        a = ps.simulate(base_config)
        b = ps.simulate(base_config)
        assert np.array_equal(a.n, b.n)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.p, b.p)

    @settings(deadline=None)
    @given(grid=time_grids)
    def test_time_column_is_exact(self, grid):
        dt, w, s, samples = grid
        # the warmup ends half a step before step w, the run a quarter of a
        # step past the last sample
        config = ps.SimConfig(
            params=make_params(tau_ph=1e-10),
            drive=ps.DriveWaveform(i_bias=6e-3, i_pulse=0.0, pulse_width=0.0,
                                   rep_rate=1e9),
            pump=ps.PumpScenario(0.0), dt=dt, warmup=max(w - 0.5, 0.0) * dt,
            t_total=(w + s * (samples - 1) + 0.25) * dt, sample_stride=s)

        def no_steps(n, q, runs, params, dt, out):
            out[0][:] = out[1][:] = 0.0
            return n, q, 0, 0

        with mock.patch.object(dynamics, "_advance", no_steps):
            t = ps.simulate(config).t
        assert t.tobytes() == ((w + s * np.arange(samples)) * dt).tobytes()

    @pytest.mark.parametrize("samples", [200_000, 1_000_000])
    def test_allocates_its_arrays_and_one_block(self, params, drive, samples):
        config = ps.SimConfig(params=params, drive=drive,
                              pump=ps.PumpScenario(0.0),
                              t_total=(samples - 1) * 1e-13, dt=1e-13)
        ps.simulate(config)  # the kernel's build and first-call allocations
        # t, n, q and p, 8 bytes a sample each, and no full-length temporary
        assert peak_bytes(lambda: ps.simulate(config)) <= (
            32 * samples + ONE_TIME_BLOCK)

    def test_sample_stride_decimates(self, params, drive):
        config = ps.SimConfig(params=params, drive=drive,
                              pump=ps.PumpScenario(0.0), t_total=1e-9,
                              dt=1e-13, warmup=0.0, sample_stride=5)
        trace = ps.simulate(config)
        assert trace.sample_spacing == pytest.approx(5e-13, rel=1e-9)

    def test_one_step_matches_model_derivatives(self, params, drive, kernel):
        """The inlined loop must reproduce model.derivatives bit for bit."""
        dt = 1e-13
        config = ps.SimConfig(params=params, drive=drive,
                              pump=ps.PumpScenario(0.0), t_total=dt,
                              dt=dt, warmup=0.0)
        trace = ps.simulate(config)
        state = ps.steady_state(params, drive.i_bias, 0.0)

        def rk4_step(n, q):
            # the pulse is on over the first 2000 steps
            def f(nn, qq):
                return ps.derivatives(ps.LaserState(n=nn, q=qq),
                                      drive.i_bias + drive.i_pulse, 0.0, params)
            k1n, k1q = f(n, q)
            k2n, k2q = f(n + 0.5 * dt * k1n, q + 0.5 * dt * k1q)
            k3n, k3q = f(n + 0.5 * dt * k2n, q + 0.5 * dt * k2q)
            k4n, k4q = f(n + dt * k3n, q + dt * k3q)
            return (n + dt * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) / 6.0,
                    q + dt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0)

        n1, q1 = rk4_step(state.n, state.q)
        assert trace.n[0] == state.n and trace.q[0] == state.q
        assert trace.n[1] == n1
        assert trace.q[1] == q1

    def test_equivalent_current_short_run(self, params, drive):
        r_opt = 5e14
        shifted = ps.DriveWaveform(
            i_bias=drive.i_bias + ELEMENTARY_CHARGE * r_opt,
            i_pulse=drive.i_pulse, pulse_width=drive.pulse_width,
            rep_rate=drive.rep_rate,
        )
        kwargs = dict(params=params, t_total=2.0e-9, dt=1e-13, warmup=0.0)
        a = ps.simulate(ps.SimConfig(drive=drive,
                                     pump=ps.PumpScenario(0.0, 0.0), **kwargs))
        # eps_opt=1 with p_pump sized so eps*p/e_photon equals r_opt exactly
        p_equiv = r_opt * params.e_photon_pump
        b = ps.simulate(ps.SimConfig(drive=drive,
                                     pump=ps.PumpScenario(p_equiv, 1.0), **kwargs))
        c = ps.simulate(ps.SimConfig(drive=shifted,
                                     pump=ps.PumpScenario(0.0, 0.0), **kwargs))
        rel_n = np.abs(b.n - c.n) / np.maximum(np.abs(c.n), 1e-300)
        rel_q = np.abs(b.q - c.q) / np.maximum(np.abs(c.q), 1e-300)
        assert rel_n.max() <= 1e-9
        assert rel_q.max() <= 1e-9
        assert not np.array_equal(a.q, b.q)  # pumping actually did something

    def test_blowup_raises_with_time(self, kernel):
        # Physical drives self-limit through carrier depletion and clamping,
        # so only an absurd current reaches a non-finite state; this pins the
        # detector and the reported failure time.
        hot = ps.DriveWaveform(i_bias=6e-3, i_pulse=1e80, pulse_width=0.2e-9,
                               rep_rate=2.5e9)
        config = ps.SimConfig(params=make_params(gamma_q=0.0), drive=hot,
                              pump=ps.PumpScenario(0.0), t_total=1e-9,
                              dt=3e-13, warmup=0.0)
        with pytest.raises(ps.SimulationError) as err:
            ps.simulate(config)
        assert err.value.t_failure is not None
        assert 0.0 < err.value.t_failure <= 1e-9

    def test_csv_export_round_trip(self, params, drive, tmp_path):
        config = ps.SimConfig(params=params, drive=drive,
                              pump=ps.PumpScenario(0.0), t_total=0.2e-9,
                              dt=1e-13, warmup=0.0, sample_stride=10)
        trace = ps.simulate(config)
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        text = out.read_text()
        assert text.splitlines()[0] == "t_s,n,q,p_w"
        again = tmp_path / "trace2.csv"
        trace.to_csv(again)
        assert again.read_bytes() == out.read_bytes()
        loaded = np.loadtxt(out, delimiter=",", skiprows=1)
        assert loaded.shape == (len(trace.t), 4)
        assert np.allclose(loaded[:, 1], trace.n, rtol=1e-9)
        assert np.allclose(loaded[:, 3], trace.p, rtol=1e-9)


def peak_bytes(f):
    """The peak of memory that ``tracemalloc`` sees while ``f()`` runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one block of SimTrace's time checks: its line of float samples and the
# booleans of its comparisons, 9 bytes a sample
ONE_TIME_BLOCK = 9 * (dynamics._TIME_BLOCK + 1)


def whole_array_verdict(t):
    """The message of SimTrace's time checks as they were made over the
    whole array at once, against a full-length np.linspace; None if ``t``
    passes."""
    if len(t) >= 2:
        if (t[1:] <= t[:-1]).any():
            return "trace times must be strictly increasing"
        off = np.linspace(t[0], t[-1], len(t))
        off -= t
        bound = 8.0 * np.spacing(max(abs(t[0]), abs(t[-1])))
        if not np.abs(off, out=off).max() <= bound:
            return "trace times must be uniformly spaced"
    return None


def trace_verdict(t):
    """The message with which SimTrace rejects times ``t``, or None."""
    zeros = np.zeros(len(t))
    try:
        ps.SimTrace(t=t, n=zeros, q=zeros, p=zeros)
    except ValueError as exc:
        return str(exc)
    return None


class TestTraceValidation:
    def test_rejects_ragged_arrays(self):
        with pytest.raises(ValueError):
            ps.SimTrace(t=np.arange(3.0), n=np.zeros(2), q=np.zeros(3),
                        p=np.zeros(3))

    def test_rejects_nonuniform_times(self):
        for last in (3.0, 2.000001):
            with pytest.raises(ValueError):
                ps.SimTrace(t=np.array([0.0, 1.0, last]), n=np.zeros(3),
                            q=np.zeros(3), p=np.zeros(3))

    @settings(deadline=None)
    @given(
        dt=st.sampled_from([0.05e-12, 0.1e-12 / 3.0, 0.1e-12, 0.25e-12,
                            0.3e-12]),
        log_warm=st.floats(0.0, 13.0),
        stride=st.integers(1, 9),
        samples=st.integers(2, 20000),
    )
    def test_accepts_simulated_grids(self, dt, log_warm, stride, samples):
        # first differences of k*dt far from t = 0 wander by more than 1e-9
        # relative; the samples still lie on one line, and the spacing over
        # the span carries the rounding of t once over all the spacings
        t = (int(10.0 ** log_warm) + stride * np.arange(samples)) * dt
        zeros = np.zeros(samples)
        trace = ps.SimTrace(t=t, n=zeros, q=zeros, p=zeros)
        assert abs(trace.sample_spacing - stride * dt) <= (
            np.spacing(t[-1]) / (samples - 1) + 4.0 * np.spacing(stride * dt))

    def test_long_flat_trace(self, params, drive):
        # 1.1 us of warmup at 0.1 ps: first differences vary by 2e-9
        config = ps.SimConfig(params=params, drive=replace(drive, i_pulse=0.0),
                              pump=ps.PumpScenario(0.0),
                              t_total=1.1e-6 + 2e-9, dt=1e-13, warmup=1.1e-6)
        assert len(ps.simulate(config).t) == 20001

    def test_spacing_check_allocates_no_more_than_first_differences(self):
        def check(samples):
            t = np.arange(samples) * 1e-13
            zeros = np.zeros(samples)
            return lambda: ps.SimTrace(t=t, n=zeros, q=zeros, p=zeros)

        check(3)()  # first-call allocations of numpy and the interpreter
        small, large = peak_bytes(check(200_000)), peak_bytes(check(2_000_000))
        # one block, whatever the length: 1.8M more samples would add
        # 14.4 MB for each full-length temporary
        assert small <= ONE_TIME_BLOCK
        assert abs(large - small) <= 1024

    @pytest.mark.parametrize("samples", [
        2, dynamics._TIME_BLOCK, dynamics._TIME_BLOCK + 1,
        dynamics._TIME_BLOCK + 2, 2 * dynamics._TIME_BLOCK + 100])
    @pytest.mark.parametrize("fault", ["nan", "repeat", "swap", "ulps"])
    def test_blocked_checks_match_whole_array_checks(self, samples, fault):
        grid = (333_334 + np.arange(samples)) * 0.3e-12  # 0.3 ps from 100 ns
        block, last = dynamics._TIME_BLOCK, samples - 1
        # each end, each side of every block boundary, inside the second
        # block, and the final block, partial at 2 blocks + 100
        at = {0, 1, last - 1, last, block + 50}
        at |= {b + d for b in range(block, last, block) for d in (-1, 0, 1)}
        verdicts = set()
        for i in sorted(j for j in at if 0 <= j <= last):
            cases = {
                "nan": [{i: math.nan}],
                "repeat": [{i: grid[i - 1]}] if i > 0 else [],
                "swap": [{i: grid[i + 1], i + 1: grid[i]}] if i < last else [],
                # off the line, inside the bound and past it
                "ulps": [{i: ulps(grid[i], k)}
                         for k in (-40, -6, 1, 3, 6, 40)],
            }[fault]
            for changes in cases:
                t = grid.copy()
                for j, value in changes.items():
                    t[j] = value
                want = whole_array_verdict(t)
                assert trace_verdict(t) == want, changes
                verdicts.add(want)
        assert trace_verdict(grid) is whole_array_verdict(grid) is None
        unordered = "trace times must be strictly increasing"
        uneven = "trace times must be uniformly spaced"
        # two samples always lie on their line
        assert verdicts == {"nan": {uneven}, "repeat": {unordered},
                            "swap": {unordered},
                            "ulps": {None, uneven} if samples > 2 else {None},
                            }[fault]

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            ps.SimTrace(t=np.arange(3.0), n=np.zeros(3), q=np.zeros(3),
                        p=np.array([0.0, -1.0, 0.0]))
        # NaN is not nonnegative either, in any column
        for name in ("n", "q", "p"):
            columns = {c: np.zeros(1000) for c in ("n", "q", "p")}
            columns[name][500] = math.nan
            with pytest.raises(ValueError, match=f"trace {name} must be"):
                ps.SimTrace(t=np.arange(1000.0), **columns)


EDGE_TOL = 1e-6  # steps


def grid_position(x):
    """A position in steps as (step, fraction), snapped to the grid within
    EDGE_TOL."""
    k = math.floor(x)
    f = x - k
    if f <= EDGE_TOL:
        return k, 0.0
    if f >= 1.0 - EDGE_TOL:
        return k + 1, 0.0
    return k, f


def reference_edges(drive, dt, n_steps):
    """{step: [(fraction, pulse on after it), ...]} for every drive edge
    before step n_steps.  The pulse is on over [j*period, j*period + width):
    period j starts at step j*P when P = period/dt is whole, else at
    j*period/dt, and the width in steps is added to that position."""
    p_k, p_f = grid_position(drive.period / dt)
    w_k, w_f = grid_position(drive.pulse_width / dt)
    edges = {}
    j = 0
    while True:
        on = (j * p_k, 0.0) if p_f == 0.0 else grid_position(
            j * (drive.period / dt))
        carry, f = grid_position(on[1] + w_f)
        off = (on[0] + w_k + carry, f)
        if on[0] >= n_steps:
            return edges
        edges.setdefault(on[0], []).append((on[1], True))
        if off[0] < n_steps:
            edges.setdefault(off[0], []).append((off[1], False))
        j += 1


def reference_simulate(config):
    """simulate as a plain loop: every grid step integrated on its own, in
    sub-steps that end on the drive edges inside it, and every sample stored
    one at a time.  The drive runs and the stall skip must reproduce it bit
    for bit."""
    params = config.params
    drive = config.drive
    r_opt = ps.pump_rate(config.pump, params)
    init = ps.steady_state(params, drive.i_bias, r_opt)
    dt = config.dt
    n_steps = int(round(config.t_total / dt))
    warm_steps = min(int(math.ceil(config.warmup / dt - 1e-9)), n_steps)
    stride = config.sample_stride
    n_out = (n_steps - warm_steps) // stride + 1
    out_t = np.empty(n_out)
    out_n = np.empty(n_out)
    out_q = np.empty(n_out)
    flat = drive.i_pulse == 0.0 or drive.pulse_width == 0.0
    edges = {} if flat else reference_edges(drive, dt, n_steps)
    i_bias = drive.i_bias
    i_on = drive.i_bias + drive.i_pulse
    e = ELEMENTARY_CHARGE
    tau_e = params.tau_e
    tau_ph = params.tau_ph
    gtp = params.gamma_conf * params.tau_ph
    n_0 = params.n_0
    denom = params.n_th - params.n_0
    c_sp = params.c_sp
    two_gq = 2.0 * params.gamma_q
    n = init.n
    q = init.q
    clamps = 0
    pulse_on = not flat
    j = 0
    for k in range(n_steps + 1):
        if k >= warm_steps and (k - warm_steps) % stride == 0:
            out_t[j] = k * dt
            out_n[j] = n
            out_q[j] = q
            j += 1
        if k == n_steps:
            break
        pieces = []  # (start fraction, end fraction, pulse on)
        start = 0.0
        for f, after in sorted(edges.get(k, [])):
            if f > start:
                pieces.append((start, f, pulse_on))
            start = max(start, f)
            pulse_on = after
        pieces.append((start, 1.0, pulse_on))
        for a, b, on in pieces:
            h = (b - a) * dt
            i = i_on if on else i_bias
            g = (n - n_0) / denom / math.sqrt(1.0 + two_gq * q)
            k1n = i / e + r_opt - n / tau_e - q * g / gtp
            k1q = (g - 1.0) * q / tau_ph + c_sp * n / tau_e
            na = n + 0.5 * h * k1n
            qa = q + 0.5 * h * k1q
            g = (na - n_0) / denom / math.sqrt(1.0 + two_gq * qa)
            k2n = i / e + r_opt - na / tau_e - qa * g / gtp
            k2q = (g - 1.0) * qa / tau_ph + c_sp * na / tau_e
            nb = n + 0.5 * h * k2n
            qb = q + 0.5 * h * k2q
            g = (nb - n_0) / denom / math.sqrt(1.0 + two_gq * qb)
            k3n = i / e + r_opt - nb / tau_e - qb * g / gtp
            k3q = (g - 1.0) * qb / tau_ph + c_sp * nb / tau_e
            nc = n + h * k3n
            qc = q + h * k3q
            g = (nc - n_0) / denom / math.sqrt(1.0 + two_gq * qc)
            k4n = i / e + r_opt - nc / tau_e - qc * g / gtp
            k4q = (g - 1.0) * qc / tau_ph + c_sp * nc / tau_e
            n += h * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) / 6.0
            q += h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
            if n < 0.0:
                n = 0.0
                clamps += 1
            if q < 0.0:
                q = 0.0
                clamps += 1
    return ps.SimTrace(t=out_t, n=out_n, q=out_q,
                       p=ps.photon_to_power(out_q, params), clamp_count=clamps)


@pytest.fixture
def schedule(monkeypatch, kernel):
    """The drive runs of every simulate call, (stalled step, end of run,
    step count) of every stall skip, and (first step, end) of every replayed
    span, under each RK4 loop (``kernel``).

    A step call integrates the one lane of an ``_advance`` call from the
    ``k`` it is given to the stop it leaves in ``at``, which is the stalled
    step when one stalls: the fixture wraps the steps that the loop binds to
    count them.  A replayed span is
    copied, not integrated: it passes through ``_replay_samples``, which the
    fixture wraps to count it.  So a run whose integrated and replayed steps
    fall short of its length was skipped from the stalled step to its end."""
    seen = types.SimpleNamespace(runs=[], skips=[], replays=[], steps=0)

    def counted(coef, n, q, halted, clamps, at, *fixed):
        step = kernel(coef, n, q, halted, clamps, at, *fixed)

        def counted_step(k, *args):
            step(k, *args)
            seen.steps += at.item(0) - k

        return counted_step

    monkeypatch.setattr(dynamics, "_lanes", lambda: counted)
    replay = dynamics._replay_samples

    def replayed(out, j, k, k_new, k_from):
        j_new = replay(out, j, k, k_new, k_from)
        if j_new is not None:
            seen.replays.append((k, k_new))
        return j_new

    monkeypatch.setattr(dynamics, "_replay_samples", replayed)
    runs = dynamics._drive_runs

    def recorded(n_steps, *args):
        for run in runs(n_steps, *args):
            k, k_end = run[:2]
            seen.runs.append(run)
            before = (seen.steps, len(seen.replays))
            yield run
            stalled = k + seen.steps - before[0] + sum(
                b - a for a, b in seen.replays[before[1]:])
            if stalled < k_end:
                seen.skips.append((stalled, k_end, n_steps))

    monkeypatch.setattr(dynamics, "_drive_runs", recorded)
    return seen


def _lowduty(**numerics):
    # the experiment device at 25 MHz: after each 1.2 ns pulse the state
    # reaches an exact fixed point about 30.7 ns in and stays there until
    # the next pulse at 40 ns
    scenario = ps.load_scenario("experiment")
    drive = replace(scenario.drive, rep_rate=2.5e7)
    return replace(scenario.sim_config(), drive=drive, dt=0.3e-12, **numerics)


def assert_same_trace(config):
    got = ps.simulate(config)
    want = reference_simulate(config)
    for name in ("t", "n", "q", "p"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.clamp_count == want.clamp_count


class TestStallSkip:
    def test_flat_drive(self, params, drive, schedule):
        flat = replace(drive, i_pulse=0.0)
        config = ps.SimConfig(params=params, drive=flat,
                              pump=ps.PumpScenario(0.0), t_total=2e-9,
                              dt=1e-13, warmup=0.0)
        assert_same_trace(config)
        # sources are compared by value, so the whole run is one drive run
        assert len(schedule.runs) == 1
        assert len(schedule.skips) == 1
        assert schedule.skips[0][1] == schedule.skips[0][2]

    def test_stall_across_warmup_at_stride_7(self, schedule):
        config = _lowduty(warmup=35e-9, t_total=41e-9, sample_stride=7)
        assert_same_trace(config)
        warm_steps = math.ceil(config.warmup / config.dt - 1e-9)
        assert any(k < warm_steps < end for k, end, _ in schedule.skips)

    def test_run_ends_inside_stall(self, schedule):
        config = _lowduty(warmup=0.0, t_total=35e-9)
        assert_same_trace(config)
        assert schedule.skips
        assert schedule.skips[-1][1] == schedule.skips[-1][2]

    def test_pumped_default_never_stalls(self, pumped_config, schedule):
        assert_same_trace(pumped_config)
        assert schedule.skips == []
        # its period starts repeat from period 20, and the runs after that
        # are replayed, not skipped
        assert schedule.replays


def fast_config(tau_e, steps_per_period, duty, pulse, p_pump, warm, periods,
                stride):
    """A device whose carrier lifetime ``tau_e`` of 10-20 ps relaxes the
    state onto one trajectory, bit for bit, within a few short periods, so
    replays fire in traces that an oracle can check.  The step is 0.3 ps;
    the bias is half the threshold current and the pulse ``pulse``
    threshold currents; ``warm`` and ``periods`` count periods."""
    params = make_params(tau_e=tau_e)
    i_th = ELEMENTARY_CHARGE * params.n_th / tau_e
    dt = 0.3e-12
    period = steps_per_period * dt
    wave = ps.DriveWaveform(i_bias=0.5 * i_th, i_pulse=pulse * i_th,
                            pulse_width=duty * period, rep_rate=1.0 / period)
    return ps.SimConfig(params=params, drive=wave,
                        pump=ps.PumpScenario(p_pump, eps_opt=0.5),
                        t_total=(warm + periods) * period, dt=dt,
                        warmup=warm * period, sample_stride=stride)


class TestReplay:
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        tau_e=st.sampled_from([10e-12, 20e-12]),
        whole=st.integers(40, 400),
        third=st.booleans(),  # period/dt whole, or whole plus 1/3
        duty=st.floats(0.02, 0.5),
        pulse=st.floats(0.5, 20.0),
        p_pump=st.sampled_from([0.0, 0.5]),
        warm=st.floats(0.0, 3.0),
        periods=st.integers(3, 12),
        stride=st.integers(1, 9),
        checkpoint=st.sampled_from([3, 16, 1024]),
    )
    # replays fire in each of these; the last one clamps 1,720 times
    @example(tau_e=10e-12, whole=300, third=False, duty=0.2, pulse=5.0,
             p_pump=0.0, warm=1.5, periods=8, stride=1, checkpoint=1024)
    @example(tau_e=10e-12, whole=301, third=False, duty=0.2, pulse=5.0,
             p_pump=0.5, warm=1.5, periods=8, stride=2, checkpoint=1024)
    @example(tau_e=10e-12, whole=300, third=True, duty=0.05, pulse=5.0,
             p_pump=0.5, warm=0.5, periods=12, stride=2, checkpoint=16)
    @example(tau_e=20e-12, whole=300, third=False, duty=0.2, pulse=1e4,
             p_pump=0.0, warm=0.0, periods=20, stride=1, checkpoint=1024)
    def test_bit_identical_to_reference(self, kernel, tau_e, whole, third,
                                        duty, pulse, p_pump, warm, periods,
                                        stride, checkpoint):
        """Replays, stall skips and checkpoints anywhere in a run leave every
        sample and the clamp count as the plain loop has them, at strides
        that do not divide the period and warmups that end mid-period."""
        config = fast_config(tau_e, whole + third / 3.0, duty, pulse, p_pump,
                             warm, periods, stride)
        with mock.patch.object(dynamics, "_CHECKPOINT_STEPS", checkpoint):
            assert_same_trace(config)

    def test_lowduty_shape_replays(self, schedule):
        """At 2000 1/3 steps per period the edge fractions recur every three
        periods, and later periods rejoin earlier ones inside their runs:
        fewer steps are integrated and the trace does not change."""
        config = fast_config(10e-12, 2000 + 1.0 / 3.0, 0.02, 5.0, 0.5, 1.0, 6, 1)
        steps = []
        advance = dynamics._advance

        def counted(*args):
            result = advance(*args)
            steps.append(result[3])
            return result

        with mock.patch.object(dynamics, "_advance", counted):
            assert_same_trace(config)
            with mock.patch.object(dynamics, "_replay_samples",
                                   lambda *args: None):
                ps.simulate(config)
        assert schedule.replays
        replayed = sum(b - a for a, b in schedule.replays)
        assert steps[0] + replayed == steps[1]
        assert steps[0] < steps[1]


class TestDriveRuns:
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        dt=st.floats(0.05e-12, 0.3e-12),
        log_rate=st.floats(9.0, 12.3),
        duty=st.floats(0.01, 0.99),
        pulsed=st.booleans(),
        steps=st.integers(1, 2000),
        warm=st.floats(0.0, 0.9),
        stride=st.integers(1, 9),
        p_pump=st.floats(0.0, 2e-3),
        whole=st.booleans(),
    )
    def test_bit_identical_to_reference(self, params, drive, kernel, dt,
                                        log_rate, duty, pulsed, steps, warm,
                                        stride, p_pump, whole):
        # periods down to 1.7 steps put several edges inside one step; a
        # whole number of steps per period repeats the schedule exactly
        rate = 10.0 ** log_rate
        if whole:
            rate = 1.0 / (max(2, round(1.0 / (rate * dt))) * dt)
        wave = replace(drive, pulse_width=duty / rate, rep_rate=rate,
                       i_pulse=drive.i_pulse if pulsed else 0.0)
        config = ps.SimConfig(params=params, drive=wave,
                              pump=ps.PumpScenario(p_pump, eps_opt=0.5),
                              t_total=steps * dt, dt=dt,
                              warmup=warm * steps * dt, sample_stride=stride)
        assert_same_trace(config)

    @settings(deadline=None)
    @given(
        dt=st.sampled_from([0.1e-12, 0.25e-12, 0.3e-12, 1e-13 / 3.0]),
        steps_per_period=st.integers(2, 5000),
        duty=st.floats(1e-9, 0.999),
        periods=st.integers(2, 6),
    )
    def test_whole_period_schedule_repeats(self, drive, dt, steps_per_period,
                                           duty, periods):
        rate = 1.0 / (steps_per_period * dt)
        wave = replace(drive, pulse_width=duty / rate, rep_rate=rate)
        p = round(wave.period / dt)
        assert p == steps_per_period
        runs = list(dynamics._drive_runs(periods * p, dt, wave, 0.0))
        by_period = [[run for run in runs if j * p <= run[0] < (j + 1) * p]
                     for j in range(periods)]
        assert sum(map(len, by_period)) == len(runs)
        for j, period_runs in enumerate(by_period):
            assert period_runs == [(k + j * p, k_end + j * p, h, src)
                                   for k, k_end, h, src in by_period[0]]
        # the runs tile the steps in order, whole steps being dt long
        tiles = [(k, k_end) for k, k_end, h, _ in runs if h == dt]
        subs = [(k, h) for k, k_end, h, _ in runs if h != dt]
        assert all(k_end == k + 1 for k, k_end, h, _ in runs if h != dt)
        covered = sorted({k for a, b in tiles for k in range(a, b)}
                         | {k for k, _ in subs})
        assert covered == list(range(periods * p))
        for k in {k for k, _ in subs}:
            assert math.fsum(h for kk, h in subs if kk == k) == pytest.approx(
                dt, rel=1e-12)

    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.floats(0.0, 2e8),
        q=st.floats(0.0, 1e6),
        i_now=st.floats(0.0, 50e-3),
        r_opt=st.floats(0.0, 1e17),
        h=st.floats(1e-16, 1e-13),
    )
    def test_kernel_step_matches_model_derivatives(self, params, kernel, n,
                                                   q, i_now, r_opt, h):
        """One kernel step against classical RK4 built from
        model.derivatives, whose first stage is derivatives at the state."""
        src = i_now / ELEMENTARY_CHARGE + r_opt

        def f(nn, qq):
            return ps.derivatives(ps.LaserState(n=max(nn, 0.0),
                                                q=max(qq, 0.0)),
                                  i_now, r_opt, params)

        k1n, k1q = f(n, q)
        assume(n + 0.5 * h * k1n >= 0.0 and q + 0.5 * h * k1q >= 0.0)
        k2n, k2q = f(n + 0.5 * h * k1n, q + 0.5 * h * k1q)
        assume(n + 0.5 * h * k2n >= 0.0 and q + 0.5 * h * k2q >= 0.0)
        k3n, k3q = f(n + 0.5 * h * k2n, q + 0.5 * h * k2q)
        assume(n + h * k3n >= 0.0 and q + h * k3q >= 0.0)
        k4n, k4q = f(n + h * k3n, q + h * k3q)
        want_n = max(n + h * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) / 6.0, 0.0)
        want_q = max(q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0, 0.0)
        got_n, got_q, _, _ = dynamics._advance(
            n, q, [(0, 1, h, src)], params, h,
            (np.empty(2), np.empty(2), 0, 1))
        assert abs(got_n - want_n) <= math.ulp(want_n)
        assert abs(got_q - want_q) <= math.ulp(want_q)


@pytest.fixture
def reload_kernel():
    """Drops the loaded library before and after the test, so that
    ``_lanes`` and ``_writer`` build and probe again."""
    dynamics._library.cache_clear()
    yield
    dynamics._library.cache_clear()


class TestPythonLoop:
    """The bit-identity, stall, replay and failure tests of the RK4 loop
    again, under the Python loop ``dynamics._chunk``; where they are
    defined they run under the compiled kernel."""

    pytestmark = pytest.mark.parametrize("kernel", ["python"], indirect=True)
    test_one_step_matches_model_derivatives = (
        TestSimulate.test_one_step_matches_model_derivatives)
    test_blowup_raises_with_time = TestSimulate.test_blowup_raises_with_time
    test_flat_drive = TestStallSkip.test_flat_drive
    test_stall_across_warmup_at_stride_7 = (
        TestStallSkip.test_stall_across_warmup_at_stride_7)
    test_run_ends_inside_stall = TestStallSkip.test_run_ends_inside_stall
    test_pumped_default_never_stalls = (
        TestStallSkip.test_pumped_default_never_stalls)
    test_replay_bit_identical_to_reference = (
        TestReplay.test_bit_identical_to_reference)
    test_lowduty_shape_replays = TestReplay.test_lowduty_shape_replays
    test_drive_runs_bit_identical_to_reference = (
        TestDriveRuns.test_bit_identical_to_reference)
    test_kernel_step_matches_model_derivatives = (
        TestDriveRuns.test_kernel_step_matches_model_derivatives)


@pytest.mark.parametrize("kernel", ["compiled", "python"], indirect=True)
class TestKernel:
    def test_stage_on_the_gain_domain_edge(self, kernel):
        """A stage with ``1 + 2*gamma_q*q`` exactly 0 has a zero square root,
        where the gain has no value: it fails as a stage below 0 does."""
        params = make_params(n_th=5.6e7, gamma_q=0.10108017018206122)
        with pytest.raises(ps.SimulationError) as err:
            dynamics._advance(0.0, 5.0, [(0, 1, 3e-13, 1e16)], params, 3e-13,
                              (np.empty(2), np.empty(2), 0, 1))
        assert "1 + 2*gamma_q*q <= 0" in str(err.value)
        assert "t=3.000000e-13 s" in str(err.value)
        assert err.value.t_failure == 3e-13

    def test_samples_past_the_output_raise(self, params, kernel):
        out_n, out_q = np.zeros(3), np.zeros(3)
        with pytest.raises(IndexError):
            dynamics._advance(6.6e7, 1e3, [(0, 10, 1e-13, 1e17)], params,
                              1e-13, (out_n, out_q, 0, 1))
        assert out_n[0] == 6.6e7 and out_q[2] > out_q[1] > out_q[0] == 1e3


def altered(change):
    """The RK4 loop's twin with ``change(lanes, k_stop)`` applied after each
    step call, ``lanes`` naming the arguments it was bound to."""
    names = "coef n q halted clamps at cursor src out_n out_q stride".split()

    def bind(*args):
        step = dynamics._chunk_lanes(*args)

        def changed(k, k_stop, h):
            step(k, k_stop, h)
            change(types.SimpleNamespace(**dict(zip(names, args))), k_stop)

        return changed

    return bind


def one_ulp_up(a, index):
    a[index] = np.nextafter(a[index], math.inf)


def n_off(lane):
    """A change of lane ``lane``'s carrier number, where there is one."""
    def change(a, k_stop):
        if lane < len(a.n):
            one_ulp_up(a.n, lane)

    return change


def n_record_off(a, k_stop):
    """A change of the last carrier number stored at stride 3."""
    if a.stride == 3:
        one_ulp_up(a.out_n, (0, a.cursor[1] - 1))


def fill_off(a, k_stop):
    """A change of the last photon number a stalled lane is stored with."""
    stalled = np.flatnonzero((a.at < k_stop) & (a.halted == 0))
    one_ulp_up(a.out_q, (stalled, a.cursor[1] - 1))


def clamps_off(a, k_stop):
    """One clamp too many, once."""
    if k_stop == dynamics._PROBE_RUNS[0][1]:
        a.clamps[-1] += 1


class TestKernelLoading:
    def test_compiled_kernel_loads_where_cc_runs(self):
        # one build gives the RK4 loop and the row writer, or nothing
        built = _native.build()
        assert (built is None) == (shutil.which("cc") is None)
        assert built is None or len(built) == 2

    def test_compiled_lanes_load_where_cc_runs(self):
        assert (dynamics._lanes() is dynamics._chunk_lanes) == (
            shutil.which("cc") is None)

    def test_lanes_failing_the_probe_are_not_used(self, monkeypatch,
                                                  reload_kernel):
        def lanes(*args):  # passes its probe
            return dynamics._chunk_lanes(*args)

        for loop, used in ((lanes, True), (altered(n_off(3)), False)):
            monkeypatch.setattr(_native, "build", lambda: (
                loop, dynamics._write_rows))
            dynamics._library.cache_clear()
            assert dynamics._lanes() is (loop if used else
                                         dynamics._chunk_lanes)

    @pytest.mark.parametrize("change", [
        *[n_off(lane) for lane in range(len(dynamics._PROBE_STATES))],
        n_record_off, fill_off, clamps_off])
    def test_probe_tells_each_change(self, change):
        """The probe tells a loop one ulp off in any lane's carrier number,
        in a carrier number stored at stride 3 or in a stalled lane's
        fill, or one clamp off, from the twin."""
        want = dynamics._probe_lanes(dynamics._chunk_lanes)
        assert dynamics._probe_lanes(altered(lambda a, k_stop: None)) == want
        assert dynamics._probe_lanes(altered(change)) != want

    @pytest.mark.parametrize("rates", [[2e16, 0.0, 5e15], [0.0, 1e24]])
    def test_lane_path_matches_advance(self, params, drive, monkeypatch,
                                       rates):
        # the lockstep under the RK4 loop's twin, so that it runs without a
        # compiler too, against each period integrated by _advance over the
        # drive runs at its own rate; 1e24 /s leaves the gain's domain, and
        # both raise
        wave = replace(drive, rep_rate=5e9, pulse_width=0.1e-9)

        def solve():
            try:
                solves = _periodic._periodic_states(params, wave, 0.3e-12,
                                                    rates)
            except ps.SimulationError as exc:
                return str(exc)
            return [(h, q.tobytes(), residual, periods)
                    for h, q, residual, periods in solves]

        monkeypatch.setattr(dynamics, "_lanes", lambda: dynamics._chunk_lanes)
        with mock.patch.object(_periodic, "_lockstep",
                               serial_lockstep(wave)):
            want = solve()
        assert solve() == want

    def test_kernel_failing_the_probe_is_not_used(self, monkeypatch,
                                                  reload_kernel):
        """An RK4 loop one ulp off is not used: its twin runs instead.  The
        row writer built beside it passes its probe and is used."""
        def write_rows(*args):  # passes its probe
            return dynamics._write_rows(*args)

        monkeypatch.setattr(_native, "build", lambda: (
            altered(n_off(0)), write_rows))
        assert dynamics._lanes() is dynamics._chunk_lanes
        assert dynamics._writer() is write_rows

    def test_python_loop_runs_without_a_compiler(self, monkeypatch, tmp_path,
                                                 reload_kernel, base_config,
                                                 base_trace):
        monkeypatch.setenv("PATH", str(tmp_path))
        assert dynamics._lanes() is dynamics._chunk_lanes
        trace = ps.simulate(base_config)
        for name in ("n", "q", "p"):
            assert np.array_equal(getattr(trace, name),
                                  getattr(base_trace, name)), name

    def test_build_directory_is_removed(self, monkeypatch):
        made = []
        mkdtemp = tempfile.mkdtemp

        def recorded(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recorded)
        _native.build()
        assert len(made) == 1 and not os.path.exists(made[0])


def simulated_times(dt, t_total, warmup, stride):
    """``(n_steps, warm_steps, t)``: simulate's step count, first sample step
    and sample times, built as simulate builds them."""
    n_steps = int(round(t_total / dt))
    warm_steps = min(int(math.ceil(warmup / dt - 1e-9)), n_steps)
    n_out = (n_steps - warm_steps) // stride + 1
    return n_steps, warm_steps, (warm_steps + stride * np.arange(n_out)) * dt


def driven_period_starts(drive, dt, n_steps):
    """The first grid step at or after each pulse-on edge up to step
    ``n_steps``, read off ``_drive_runs``: the end of the run before each
    rise of the source.  An edge inside a step splits it, and the run before
    the edge ends with that step."""
    runs = list(dynamics._drive_runs(n_steps + 1, dt, drive, 0.0))
    return [0] + [a[1] for a, b in zip(runs, runs[1:]) if b[3] > a[3]]


class TestCompletePeriodBounds:
    @settings(deadline=None)
    @given(
        dt=st.sampled_from([0.05e-12, 0.1e-12 / 3.0, 0.1e-12, 0.25e-12,
                            0.3e-12]),
        rate=st.one_of(st.sampled_from([1e8, 2.5e8, 5e8, 1e9, 1.25e9, 2e9,
                                        2.5e9]),
                       st.floats(1e8, 2.5e9)),
        duty=st.floats(0.05, 0.9),
        warm_periods=st.one_of(st.integers(0, 30), st.floats(0.0, 30.0)),
        periods=st.floats(0.5, 8.0),
        stride=st.sampled_from([1, 2, 7]),
    )
    def test_bounds_are_the_driven_periods(self, drive, dt, rate, duty,
                                           warm_periods, periods, stride):
        wave = replace(drive, pulse_width=duty / rate, rep_rate=rate)
        warmup = warm_periods * wave.period
        n_steps, warm_steps, t = simulated_times(
            dt, warmup + periods * wave.period, warmup, stride)
        assume(len(t) >= 2)
        # the first sample at or after each period's first step, on the
        # sample grid continued before the trace
        firsts = [-((warm_steps - k) // stride)
                  for k in driven_period_starts(wave, dt, n_steps)]
        want = [(j, a, b) for j, (a, b) in enumerate(zip(firsts, firsts[1:]))
                if a >= 0 and b < len(t)]
        assert dynamics._complete_period_bounds(t, wave.period) == want

    def test_experiment_grid_has_six_periods(self):
        scenario = ps.load_scenario("experiment")
        _, _, t = simulated_times(scenario.dt, scenario.t_total,
                                  scenario.warmup, scenario.sample_stride)
        bounds = dynamics._complete_period_bounds(t, scenario.drive.period)
        assert [(a, b) for _, a, b in bounds] == [
            (k * 1_000_000, (k + 1) * 1_000_000) for k in range(6)]
        assert len(t) == 6_000_001


def savetxt_bytes(path, header, columns):
    """The bytes numpy.savetxt writes for the columns: the writer's oracle."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.12g", delimiter=",",
                   header=header, comments="")
    return path.read_bytes()


# -0.0 and 0.0 compare equal but print differently; the rest are the edges
# of %.12g: non-finite, subnormal, huge
EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
               -2.5e-310, 1e300, -1e300, 1.0 / 3.0]
# exact ties at the 12th digit: %.12g rounds them half to even
# (2.288818359375e-05 prints as 2.28881835938e-05)
TIES = [3 * 2.0 ** -17, 12345678901250000.0, 1234567890.125]
# values just off a tie whose scaled digits round onto it: %.12g rounds
# them away from it, up for the first two and down for the last two
NEAR_TIES = [32.01162994575, 17.70842504295, 0.0001770842504295,
             31.31294559365]
# one value of each kind that the digit arithmetic hands back to %.12g
HANDED_BACK = {
    "zero": 0.0,
    "negative zero": -0.0,
    "subnormal": -2.5e-310,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "below 1e-297": 9.999999999996e-298,
    "tie under an inexact factor": 12345678901250000.0,
    "rounds up to the next power of ten": 9.9999999999996e-06,
}


def ulps(x, k):
    """``x`` moved ``k`` ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


signs = st.sampled_from([1.0, -1.0])

# powers of ten and their neighbours, over the whole double range: where a
# log10 can be off by one and a value can round up to the next power at 12
# digits
near_powers_of_ten = st.builds(
    lambda p, k, sign: sign * ulps(float(f"1e{p}"), k),
    st.integers(-323, 308), st.integers(-4, 4), signs)

# values that %.12g prints in fixed notation, 1e-4 <= |x| < 1e12, at every
# exponent: 12-digit integers with 0-11 trailing zeros, scaled down, and
# arbitrary doubles of each decade
fixed_notation = st.one_of(
    st.builds(lambda e, digits, zeros, sign:
              sign * float(digits - digits % 10 ** zeros) / 10.0 ** (11 - e),
              st.integers(-4, 11), st.integers(10 ** 11, 10 ** 12 - 1),
              st.integers(0, 11), signs),
    st.builds(lambda e, m, sign: sign * m * 10.0 ** e, st.integers(-4, 11),
              st.floats(1.0, 10.0, exclude_max=True), signs))


@st.composite
def sample_times(draw):
    """Times as simulate makes them, ``(w + s*k)*dt`` (``time_grids``)."""
    dt, w, s, samples = draw(time_grids)
    return (w + s * np.arange(samples)) * dt


first_values = st.lists(st.one_of(
    near_powers_of_ten, st.sampled_from(EDGE_VALUES + TIES), st.floats()),
    min_size=1, max_size=40).map(np.array)


@st.composite
def run_columns(draw):
    """1-4 equal-length columns whose rows come in runs of repeats, each
    column a list or an array."""
    width = draw(st.integers(1, 4))
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())
    runs = draw(st.lists(st.tuples(st.lists(value, min_size=width,
                                            max_size=width),
                                   st.integers(1, 12)), max_size=10))
    rows = [row for row, repeats in runs for _ in range(repeats)]
    columns = [[row[k] for row in rows] for k in range(width)]
    as_list = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return [c if lst else np.array(c, dtype=float)
            for c, lst in zip(columns, as_list)]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, 3, 4, 5])
    def test_bytes_match_savetxt(self, tmp_path, monkeypatch, writer, rows):
        monkeypatch.setattr(dynamics, "_CSV_BLOCK_ROWS", 4)
        values = np.array([0.0, 5e-324, 1e-300, 1e300, 3.0, 2.0 ** 52,
                           123456789012.0, 0.123456789012, 6.02214076e23,
                           1.0 / 3.0])
        columns = [np.resize(np.roll(values, shift), rows)
                   for shift in range(4)]
        got = tmp_path / "got.csv"
        dynamics._write_csv(got, "t_s,n,q,p_w", columns)
        want = savetxt_bytes(tmp_path / "want.csv", "t_s,n,q,p_w", columns)
        assert got.read_bytes() == want

    def test_run_across_three_blocks(self, tmp_path, monkeypatch, writer):
        """Rows 2-11 repeat one (n, q, p) through blocks 0, 1 and 2; every
        one of them is written, each with its own time."""
        monkeypatch.setattr(dynamics, "_CSV_BLOCK_ROWS", 4)
        t = np.arange(14) * 0.1
        n = np.array([1.0, 2.0] + [3.0] * 10 + [-0.0, 0.0])
        columns = [t, n, 2.0 * n, 5e-324 * n]
        got = tmp_path / "got.csv"
        dynamics._write_csv(got, "t_s,n,q,p_w", columns)
        want = savetxt_bytes(tmp_path / "want.csv", "t_s,n,q,p_w", columns)
        assert got.read_bytes() == want
        assert got.read_text().count(",3,6,1.48219693752e-323\n") == 10

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=run_columns(), block=st.integers(1, 9))
    @example(columns=[[1.0, 2.0, 3.0], [0.0, -0.0, 0.0]], block=9)
    @example(columns=[np.array([0.0, -0.0, -0.0, 0.0])], block=3)
    def test_runs_match_savetxt(self, csv_dir, writer, columns, block):
        header = ",".join(f"c{k}" for k in range(len(columns)))
        got = csv_dir / "got.csv"
        with mock.patch.object(dynamics, "_CSV_BLOCK_ROWS", block):
            dynamics._write_csv(got, header, columns)
        assert got.read_bytes() == savetxt_bytes(csv_dir / "want.csv", header,
                                                 columns)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(first=st.one_of(sample_times(), first_values),
           repeats=st.integers(1, 5), block=st.integers(1, 9))
    @example(first=np.array(TIES), repeats=1, block=9)
    @example(first=np.array(list(HANDED_BACK.values())), repeats=2, block=4)
    @example(first=np.array([1.5e-4, -123456789012.0] + NEAR_TIES), repeats=2,
             block=4)
    @example(first=np.array([1e-100, -1e-123, 1e200, -2e-308]), repeats=3,
             block=2)
    # a time column past 1e-4 s is all fixed notation
    @example(first=1e-4 + (333334 + np.arange(40)) * 3e-13, repeats=2,
             block=9)
    def test_first_column_matches_savetxt(self, csv_dir, writer, first,
                                          repeats, block):
        """Times, powers of ten give or take 4 ulps, ties, 3-digit exponents
        and every hand-back case in the first column, with the other column
        in runs of ``repeats`` rows."""
        columns = [first, (np.arange(len(first)) // repeats) * 0.1]
        got = csv_dir / "got.csv"
        with mock.patch.object(dynamics, "_CSV_BLOCK_ROWS", block):
            dynamics._write_csv(got, "t_s,n", columns)
        assert got.read_bytes() == savetxt_bytes(csv_dir / "want.csv",
                                                 "t_s,n", columns)

    @pytest.mark.parametrize("columns", [
        [np.arange(3.0), np.arange(2.0)],
        [np.arange(2.0), np.arange(3.0)],
        [np.arange(2.0), np.ones((2, 1))],
        [np.float64(1.0)],
    ], ids=["shorter", "longer", "2-d", "0-d"])
    def test_rejects_columns_of_other_shapes(self, tmp_path, writer, columns):
        """Columns that are not 1-d, or not all as long as the first, raise
        before a file is opened, whichever writer would write them."""
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="1-d and of equal length"):
            dynamics._write_csv(out, "a,b", columns)
        assert not out.exists()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.one_of(
        fixed_notation, near_powers_of_ten, st.floats(),
        st.sampled_from(TIES + NEAR_TIES + list(HANDED_BACK.values())).flatmap(
            lambda v: st.sampled_from([v, -v]))), min_size=1, max_size=40),
        repeats=st.integers(1, 5), block=st.integers(1, 9))
    # 9 rows to a 2-row buffer: the run of 12 equal second values crosses
    # a flush
    @example(values=[0.1 * k for k in range(1, 13)], repeats=12, block=2)
    @example(values=list(HANDED_BACK.values()) * 2, repeats=9, block=1)
    @example(values=TIES + [-v for v in TIES], repeats=1, block=9)
    @example(values=NEAR_TIES + [-v for v in NEAR_TIES], repeats=2, block=3)
    @example(values=list(HANDED_BACK.values()), repeats=1, block=4)
    @example(values=[1.5e-4, -123456789012.0, 1e-4, 99999999999.95,
                     999999999999.5, 1e12, -0.000999999999999], repeats=1,
             block=9)
    def test_writer_rows_match_printf(self, writer, values, repeats, block):
        """Each value is ``"%.12g" % v`` and its separator, ``,`` in the
        first column and a newline in the second, whose values come in runs
        of ``repeats`` rows; whatever the value's notation, exponent and
        sign, the run, or the buffer's flushes (``block`` rows)."""
        columns = [values, [values[k // repeats] for k in range(len(values))]]
        fh = io.BytesIO()
        writer(fh, [np.array(c, dtype=float) for c in columns], block)
        assert fh.getvalue().decode() == "".join(
            "%.12g" % a + "," + "%.12g" % b + "\n" for a, b in zip(*columns))


class TestPrintfWriter:
    """The CSV writer tests again, under the ``%.12g`` writer
    ``dynamics._write_rows``; where they are defined they run under the
    compiled writer."""

    pytestmark = pytest.mark.parametrize("writer", ["printf"], indirect=True)
    test_bytes_match_savetxt = TestWriteCsv.test_bytes_match_savetxt
    test_run_across_three_blocks = TestWriteCsv.test_run_across_three_blocks
    test_runs_match_savetxt = TestWriteCsv.test_runs_match_savetxt
    test_first_column_matches_savetxt = (
        TestWriteCsv.test_first_column_matches_savetxt)
    test_writer_rows_match_printf = TestWriteCsv.test_writer_rows_match_printf
    test_rejects_columns_of_other_shapes = (
        TestWriteCsv.test_rejects_columns_of_other_shapes)


class TestWriterLoading:
    def test_compiled_writer_loads_where_cc_runs(self):
        assert (dynamics._writer() is dynamics._write_rows) == (
            shutil.which("cc") is None)

    def test_writer_failing_the_probe_is_not_used(self, monkeypatch,
                                                  reload_kernel):
        def one_byte_off(fh, columns, block):
            rows = io.BytesIO()
            dynamics._write_rows(rows, columns, block)
            text = bytearray(rows.getvalue())
            text[0] += 1
            fh.write(text)

        monkeypatch.setattr(_native, "build", lambda: (
            dynamics._chunk_lanes, one_byte_off))
        assert dynamics._writer() is dynamics._write_rows

    def test_numpy_writer_runs_without_a_compiler(self, monkeypatch, tmp_path,
                                                  reload_kernel, base_trace):
        compiled = tmp_path / "compiled.csv"
        dynamics._writer()  # loads the compiled writer where cc builds it
        base_trace.to_csv(compiled)
        dynamics._library.cache_clear()
        monkeypatch.setenv("PATH", str(tmp_path))
        assert dynamics._writer() is dynamics._write_rows
        fallback = tmp_path / "fallback.csv"
        base_trace.to_csv(fallback)
        assert fallback.read_bytes() == compiled.read_bytes()

    def test_one_build_serves_kernel_and_writer(self, monkeypatch,
                                                reload_kernel):
        """The RK4 loop and the writer come from one ``cc`` run, whose build
        directory is gone once the library is loaded."""
        made, commands = [], []
        mkdtemp, run = tempfile.mkdtemp, subprocess.run

        def recorded_mkdtemp(*args, **kwargs):
            made.append(mkdtemp(*args, **kwargs))
            return made[-1]

        def recorded_run(command, *args, **kwargs):
            commands.append(command[0])
            return run(command, *args, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", recorded_mkdtemp)
        monkeypatch.setattr(subprocess, "run", recorded_run)
        loops = dynamics._lanes(), dynamics._writer()
        assert commands == ["cc"]
        assert len(made) == 1 and not os.path.exists(made[0])
        compiled = shutil.which("cc") is not None
        twins = (dynamics._chunk_lanes, dynamics._write_rows)
        assert [loop is not twin for loop, twin in zip(loops, twins)] == [
            compiled] * 2

    def test_tables_below_one_block_build_nothing(self, monkeypatch,
                                                  reload_kernel, tmp_path):
        """A table shorter than one block, such as an L-I curve, is written
        without a build; one of a block or more builds the library."""
        builds = []
        monkeypatch.setattr(_native, "build", lambda: builds.append(1))
        for command in ("lcurve", "dqe"):
            assert cli.main([command, "--out",
                             str(tmp_path / f"{command}.csv")]) == 0
        monkeypatch.setattr(dynamics, "_CSV_BLOCK_ROWS", 4)
        dynamics._write_csv(tmp_path / "short.csv", "a", [np.arange(3.0)])
        assert builds == []
        dynamics._write_csv(tmp_path / "block.csv", "a", [np.arange(4.0)])
        assert builds == [1]
