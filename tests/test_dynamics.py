"""Drive waveform, steady states, and the fixed-step integrator."""

import math
import re
import sys
import types
from unittest import mock
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import pumpsim as ps
from pumpsim import dynamics
from pumpsim.errors import ConvergenceError
from pumpsim.model import ELEMENTARY_CHARGE

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

    def test_sample_stride_decimates(self, params, drive):
        config = ps.SimConfig(params=params, drive=drive,
                              pump=ps.PumpScenario(0.0), t_total=1e-9,
                              dt=1e-13, warmup=0.0, sample_stride=5)
        trace = ps.simulate(config)
        assert trace.sample_spacing == pytest.approx(5e-13, rel=1e-9)

    def test_one_step_matches_model_derivatives(self, params, drive):
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

    def test_blowup_raises_with_time(self):
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


class TestTraceValidation:
    def test_rejects_ragged_arrays(self):
        with pytest.raises(ValueError):
            ps.SimTrace(t=np.arange(3.0), n=np.zeros(2), q=np.zeros(3),
                        p=np.zeros(3))

    def test_rejects_nonuniform_times(self):
        with pytest.raises(ValueError):
            ps.SimTrace(t=np.array([0.0, 1.0, 3.0]), n=np.zeros(3),
                        q=np.zeros(3), p=np.zeros(3))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            ps.SimTrace(t=np.arange(3.0), n=np.zeros(3), q=np.zeros(3),
                        p=np.array([0.0, -1.0, 0.0]))


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
def schedule(monkeypatch):
    """The drive runs of every simulate call, and (stalled step, end of run,
    step count) of every stall skip.

    An integrated step ends with two finite checks; a stalled step breaks out
    of its run before them.  So the checks made between two runs count the
    steps integrated in the first, and a run with fewer integrated steps than
    its length was skipped from the stalled step to its end."""
    seen = types.SimpleNamespace(runs=[], skips=[], checks=0)

    def isfinite(x):
        seen.checks += 1
        return math.isfinite(x)

    counted = types.SimpleNamespace(
        **{name: getattr(math, name) for name in dir(math)
           if not name.startswith("_")})
    counted.isfinite = isfinite
    monkeypatch.setattr(dynamics, "math", counted)
    runs = dynamics._drive_runs

    def recorded(n_steps, *args):
        for run in runs(n_steps, *args):
            k, k_end = run[:2]
            seen.runs.append(run)
            before = seen.checks
            yield run
            stalled = k + (seen.checks - before) // 2
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


class TestDriveRuns:
    @settings(deadline=None)
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
    def test_bit_identical_to_reference(self, params, drive, dt, log_rate,
                                        duty, pulsed, steps, warm, stride,
                                        p_pump, whole):
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

    @settings(deadline=None)
    @given(
        n=st.floats(0.0, 2e8),
        q=st.floats(0.0, 1e6),
        i_now=st.floats(0.0, 50e-3),
        r_opt=st.floats(0.0, 1e17),
        h=st.floats(1e-16, 1e-13),
    )
    def test_kernel_step_matches_model_derivatives(self, params, n, q, i_now,
                                                   r_opt, h):
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
        got_n, got_q, _, _ = dynamics._advance(n, q, [(0, 1, h, src)],
                                               params, h)
        assert abs(got_n - want_n) <= math.ulp(want_n)
        assert abs(got_q - want_q) <= math.ulp(want_q)


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
    def test_bytes_match_savetxt(self, tmp_path, monkeypatch, rows):
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

    def test_run_across_three_blocks(self, tmp_path, monkeypatch):
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

    @given(columns=run_columns(), block=st.integers(1, 9))
    @example(columns=[[1.0, 2.0, 3.0], [0.0, -0.0, 0.0]], block=9)
    @example(columns=[np.array([0.0, -0.0, -0.0, 0.0])], block=3)
    def test_runs_match_savetxt(self, csv_dir, columns, block):
        header = ",".join(f"c{k}" for k in range(len(columns)))
        got = csv_dir / "got.csv"
        with mock.patch.object(dynamics, "_CSV_BLOCK_ROWS", block):
            dynamics._write_csv(got, header, columns)
        assert got.read_bytes() == savetxt_bytes(csv_dir / "want.csv", header,
                                                 columns)
