"""Light-current curves, efficiency extraction, pulse metrics, sweeps, fits."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import pumpsim as ps
from pumpsim import _periodic, analysis, dynamics
from pumpsim.model import ELEMENTARY_CHARGE

from test_model import make_params

DQE_OF_02_LINE = 0.50006372  # 2e/(photon energy at 1550 nm) * 0.2 W/A


def make_line_curve(slope=0.2, i_th=10.41e-3, lo=7e-3, hi=25e-3, n=37):
    currents = np.linspace(lo, hi, n)
    powers = np.clip(slope * (currents - i_th), 0.0, None)
    return ps.LightCurrentCurve(currents=currents, powers=powers)


def make_flat_trace(level, periods=6, samples_per_period=100, period=0.4e-9):
    n = periods * samples_per_period
    t = np.arange(n + 1) * (period / samples_per_period)
    p = np.full(n + 1, level)
    return ps.SimTrace(t=t, n=np.zeros(n + 1), q=np.zeros(n + 1), p=p)


class TestLightCurrentCurve:
    def test_below_threshold_is_dark(self, params):
        grid = np.arange(1e-3, 8e-3, 1e-3)
        curve = ps.light_current_curve(params, 0.0, grid)
        assert curve.powers.max() < 1e-6

    def test_above_threshold_slope(self, params):
        grid = np.arange(12e-3, 25.1e-3, 0.5e-3)
        curve = ps.light_current_curve(params, 0.0, grid)
        slope = np.polyfit(curve.currents, curve.powers, 1)[0]
        expected = params.eta * params.e_photon_out / (2.0 * ELEMENTARY_CHARGE)
        assert slope == pytest.approx(expected, rel=0.02)

    def test_pumping_shifts_curve_left_exactly(self, params):
        r_opt = 8e14
        shift = ELEMENTARY_CHARGE * r_opt
        grid = np.arange(7e-3, 25.1e-3, 1e-3)
        pumped = ps.light_current_curve(params, r_opt, grid)
        plain = ps.light_current_curve(params, 0.0, grid + shift)
        assert np.allclose(pumped.powers, plain.powers, rtol=1e-9)

    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            ps.light_current_curve(params, 0.0, [])
        with pytest.raises(ValueError):
            ps.light_current_curve(params, 0.0, [2e-3, 1e-3])
        with pytest.raises(ValueError):
            ps.light_current_curve(params, 0.0, [-1e-3, 1e-3])
        with pytest.raises(ValueError, match="i_dc must be finite"):
            ps.light_current_curve(params, 0.0, [1e-3, math.nan])
        with pytest.raises(ValueError, match="r_opt must be finite"):
            ps.light_current_curve(params, math.inf, [1e-3, 2e-3])


class TestComputeDqe:
    def test_synthetic_line(self, params):
        curve = make_line_curve()
        eta = ps.compute_dqe(curve, params, 12e-3, 25e-3)
        assert eta == pytest.approx(DQE_OF_02_LINE, rel=1e-6)

    def test_all_dark_curve(self, params):
        curve = ps.LightCurrentCurve(
            currents=np.linspace(1e-3, 5e-3, 5), powers=np.zeros(5)
        )
        assert ps.compute_dqe(curve, params, 1e-3, 5e-3) == 0.0

    def test_window_needs_three_points(self, params):
        curve = make_line_curve()
        with pytest.raises(ValueError):
            ps.compute_dqe(curve, params, 24.6e-3, 25e-3)

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("gap_scale", [0.8, 1.0, 1.2])
    def test_round_trip_recovers_eta(self, eta, gap_scale):
        params = make_params(eta=eta, n_th=5.5e7 + gap_scale * 1.0e7)
        i_th = ELEMENTARY_CHARGE * params.n_th / params.tau_e
        grid = np.linspace(1.15 * i_th, 25e-3, 30)
        curve = ps.light_current_curve(params, 0.0, grid)
        measured = ps.compute_dqe(curve, params, grid[0], grid[-1])
        assert measured == pytest.approx(eta, rel=0.02)


class TestKneeCurrent:
    def test_analytic_threshold(self, params):
        grid = np.arange(15e-3, 25.1e-3, 0.5e-3)
        curve = ps.light_current_curve(params, 0.0, grid)
        knee = ps.knee_current(curve, 15e-3, 25e-3)
        i_th = ELEMENTARY_CHARGE * params.n_th / params.tau_e
        assert knee == pytest.approx(i_th, rel=0.05)

    def test_synthetic_line_knee(self, params):
        curve = make_line_curve(i_th=9e-3, lo=10e-3)
        assert ps.knee_current(curve, 10e-3, 25e-3) == pytest.approx(9e-3,
                                                                     rel=1e-9)

    def test_flat_window_rejected(self, params):
        curve = ps.LightCurrentCurve(
            currents=np.linspace(1e-3, 5e-3, 5), powers=np.zeros(5)
        )
        with pytest.raises(ValueError):
            ps.knee_current(curve, 1e-3, 5e-3)


class TestPulseMetrics:
    def test_constant_power(self, drive):
        level = 2.5e-3
        trace = make_flat_trace(level, period=drive.period)
        metrics = ps.pulse_metrics(trace, drive)
        assert metrics.avg_power == pytest.approx(level, rel=1e-12)
        assert metrics.pulse_energy == pytest.approx(level * drive.period,
                                                     rel=1e-9)
        assert metrics.peak_power == pytest.approx(level, rel=1e-12)
        assert metrics.peak_time == pytest.approx(0.0, abs=1e-15)

    def test_scaling_linearity(self, base_trace, drive):
        metrics = ps.pulse_metrics(base_trace, drive)
        scaled_trace = ps.SimTrace(t=base_trace.t, n=base_trace.n,
                                   q=base_trace.q, p=3.0 * base_trace.p)
        scaled = ps.pulse_metrics(scaled_trace, drive)
        assert scaled.pulse_energy == pytest.approx(3.0 * metrics.pulse_energy,
                                                    rel=1e-12)
        assert scaled.avg_power == pytest.approx(3.0 * metrics.avg_power,
                                                 rel=1e-12)
        assert scaled.peak_power == pytest.approx(3.0 * metrics.peak_power,
                                                  rel=1e-12)
        assert scaled.peak_time == metrics.peak_time

    def test_peak_dwarfs_interpulse_floor(self, base_trace, drive):
        metrics = ps.pulse_metrics(base_trace, drive)
        floor = base_trace.p.min()
        assert metrics.peak_power / floor > 100.0

    def test_energy_below_average_power_budget(self, base_trace, drive):
        metrics = ps.pulse_metrics(base_trace, drive)
        assert metrics.pulse_energy <= metrics.avg_power * drive.period * (1 + 1e-9)

    def test_dark_trace_has_no_pulse(self, drive):
        trace = make_flat_trace(0.0, period=drive.period)
        with pytest.raises(ps.NoPulseError):
            ps.pulse_metrics(trace, drive)

    def test_needs_five_periods(self, drive):
        for periods in (0, 3):  # 0 is a one-sample trace
            trace = make_flat_trace(1e-3, periods=periods, period=drive.period)
            with pytest.raises(ValueError):
                ps.pulse_metrics(trace, drive)


def _window_runs(trace, drive):
    """Runs at or above 10% of the peak in each complete period, counted as
    pulse_metrics' window does."""
    counts = []
    for _, a, b in ps.analysis._complete_period_bounds(trace.t, drive.period):
        seg = trace.p[a:b + 1]
        mask = (seg >= 0.1 * seg.max()).astype(np.int8)
        counts.append(int(mask[0]) + int(np.count_nonzero(np.diff(mask) == 1)))
    return counts


@pytest.mark.parametrize("eps_opt, runs", [(0.62, 1), (0.68, 2)])
def test_second_spike_onset(default_scenario, eps_opt, runs):
    # At 1 mW the next relaxation spike reaches 10% of the peak between
    # eps_opt 0.62 and 0.68 and from then on counts as pulse energy.
    trace = ps.simulate(default_scenario.sim_config(
        pump=ps.PumpScenario(p_pump=1e-3, eps_opt=eps_opt)))
    counts = _window_runs(trace, default_scenario.drive)
    assert len(counts) >= 5
    assert counts == [runs] * len(counts)


def _rate(config, p_pump):
    """Pump rate of ``p_pump`` at the pumping efficiency of ``config``, 1/s."""
    return ps.pump_rate(replace(config.pump, p_pump=p_pump), config.params)


class _PeriodSpy:
    """Wraps ``_periodic._lockstep``, the period map of the shooting solves,
    which steps its lanes through the RK4 loop: counts the periods it
    integrates, lane by lane, and keeps every start it is given and, per
    ``_periodic_states`` call, each lane's drive runs, ``params``, the step
    and each lane's latest start: the start of its recorded period once its
    solve has converged."""

    def __init__(self, monkeypatch):
        self.lockstep = _periodic._lockstep
        self.periods = 0
        self.starts = []  # (lane, start) of every period integrated
        self.solves = []  # (schedules, params, h, {lane: latest start})
        monkeypatch.setattr(_periodic, "_lockstep", self)

    def __call__(self, runs, rates, params, h, records):
        period = self.lockstep(runs, rates, params, h, records)
        latest = {}
        # a lane's source in each run: the run's, plus the lane's rate
        schedules = [[(k, k_end, run_h, src + r)
                      for k, k_end, run_h, src in runs] for r in rates]
        self.solves.append((schedules, params, h, latest))

        def counted(starts):
            self.periods += len(starts)
            self.starts += starts.items()
            latest.update(starts)
            return period(starts)

        return counted

    def recording(self) -> np.ndarray:
        """The photon numbers of ``_advance`` recording the period from the
        latest start of the last solve's first lane."""
        schedules, params, h, latest = self.solves[-1]
        out_n = np.empty(schedules[0][-1][1] + 1)
        out_q = np.empty_like(out_n)
        dynamics._advance(*latest[0], schedules[0], params, h,
                          (out_n, out_q, 0, 1))
        return out_q

    def spectral_radius(self) -> float:
        """Of the period map's Jacobian at the latest start of the last
        solve's first lane, by central differences through the real
        kernel."""
        schedules, params, h, latest = self.solves[-1]
        (n0, q0), runs = latest[0], schedules[0]
        scratch = np.empty((2, runs[-1][1] + 1))

        def image(x):
            return np.array(dynamics._advance(x[0], x[1], runs, params, h,
                                              (*scratch, 0, 1))[:2])

        columns = []
        for i, x in enumerate((n0, q0)):
            plus, minus = [n0, q0], [n0, q0]
            plus[i], minus[i] = x * (1.0 + 1e-7), x * (1.0 - 1e-7)
            columns.append((image(plus) - image(minus)) / (plus[i] - minus[i]))
        return max(abs(np.linalg.eigvals(np.column_stack(columns))))


class TestPeriodicMetrics:
    @pytest.mark.parametrize("name, p_pump, eps_opt, dt", [
        ("default", 0.0, 0.1, None),
        ("default", 1.6e-3, 0.1, None),
        ("default", 1e-3, 0.68, None),  # two runs in the 10% window
        # 0.25 ps divides the 100 ns period, at 40% of the steps of 0.1 ps
        ("experiment", 0.0, 0.1, 0.25e-12),
    ])
    def test_matches_long_simulation(self, name, p_pump, eps_opt, dt):
        scenario = ps.load_scenario(name)
        base = scenario.sim_config(pump=ps.PumpScenario(0.0, eps_opt))
        if dt is not None:
            base = replace(base, dt=dt)
        period = scenario.drive.period
        warm = (60 if name == "default" else 2) * period
        config = replace(base, pump=ps.PumpScenario(p_pump, eps_opt),
                         warmup=warm, t_total=warm + 5.5 * period)
        want = ps.pulse_metrics(ps.simulate(config), scenario.drive)
        got = analysis._periodic_metrics(base, _rate(base, p_pump))
        assert got.residual <= _periodic._PERIODIC_RTOL
        assert got.pulse_energy == pytest.approx(want.pulse_energy, rel=1e-9)
        assert got.avg_power == pytest.approx(want.avg_power, rel=1e-9)

    @settings(deadline=None, max_examples=10)
    @given(eps_opt=st.floats(1e-6, 1.0), p_pump=st.floats(0.0, 3e-3))
    def test_reported_residual_within_bound(self, base_config, drive,
                                            eps_opt, p_pump):
        base = replace(base_config, pump=ps.PumpScenario(0.0, eps_opt))
        got = analysis._periodic_metrics(base, _rate(base, p_pump))
        assert 0.0 <= got.residual <= _periodic._PERIODIC_RTOL
        assert 1 <= got.periods <= (_periodic._ANDERSON_PERIODS
                                    + _periodic._PLAIN_PERIODS)
        assert 0.0 < got.pulse_energy <= got.avg_power * drive.period

    def test_plain_iteration_past_the_acceleration_cap(self, base_config,
                                                       monkeypatch):
        r_opt = _rate(base_config, 1.6e-3)
        accelerated = analysis._periodic_metrics(base_config, r_opt)
        monkeypatch.setattr(_periodic, "_ANDERSON_PERIODS", 1)
        plain = analysis._periodic_metrics(base_config, r_opt)
        assert plain.periods > accelerated.periods
        assert plain.residual <= _periodic._PERIODIC_RTOL
        assert plain.pulse_energy == pytest.approx(accelerated.pulse_energy,
                                                   rel=1e-9)

    def test_period_cap_raises_with_residual(self, base_config, monkeypatch):
        monkeypatch.setattr(_periodic, "_ANDERSON_PERIODS", 3)
        monkeypatch.setattr(_periodic, "_PLAIN_PERIODS", 2)
        with pytest.raises(ps.ConvergenceError) as info:
            analysis._periodic_metrics(base_config, _rate(base_config, 1.6e-3))
        assert info.value.residual > _periodic._PERIODIC_RTOL
        assert f"{info.value.residual:.3e}" in str(info.value)
        assert "in 5 periods" in str(info.value)

    @pytest.mark.parametrize("p_pump", [k * 0.4e-3 for k in range(6)])
    def test_paper_operating_point_is_a_stable_closed_orbit(
            self, base_config, monkeypatch, p_pump):
        # The solve checks only its own residual.  The recorded period must
        # close on itself, and the period map's Jacobian at its start must
        # have spectral radius below 1, or the laser would not settle on the
        # orbit the sweep and the fit measure (0.30 at most on default over
        # eps_opt 0.05 to 1 and 0 to 2 mW).
        spy = _PeriodSpy(monkeypatch)
        _, q, _, _ = _periodic._periodic_states(
            base_config.params, base_config.drive, base_config.dt,
            [_rate(base_config, p_pump)])[0]
        assert len(spy.solves) == 1
        assert spy.recording().tobytes() == q.tobytes()
        assert abs(q[-1] / q[0] - 1.0) <= 1e-10
        assert spy.spectral_radius() < 1.0

    @pytest.mark.parametrize("name, dt", [
        ("default", None),
        ("experiment", None),
        ("default", 0.3e-12),  # does not divide the 400 ps period
    ])
    def test_record_matches_a_separate_recording(self, monkeypatch, name,
                                                 dt):
        # Every period is recorded, so the one that proves convergence is
        # the answer, and no period is integrated twice: the solve
        # integrates periods + 1 distinct starts, and recording the last
        # one again gives the same bits.
        base = ps.load_scenario(name).sim_config()
        args = (base.params, base.drive, dt or base.dt, [_rate(base, 1.6e-3)])
        spy = _PeriodSpy(monkeypatch)
        h, q, residual, periods = _periodic._periodic_states(*args)[0]
        assert periods == {"default": 10, "experiment": 1}[name]
        assert spy.periods == len(set(spy.starts)) == periods + 1
        assert spy.recording().tobytes() == q.tobytes()
        assert residual <= _periodic._PERIODIC_RTOL

    def test_experiment_solve_is_two_periods(self, monkeypatch):
        # The bias steady state is periodic to 1e-9; the period from its
        # image closes exactly, proves convergence, and is the recorded one.
        base = ps.load_scenario("experiment").sim_config()
        spy = _PeriodSpy(monkeypatch)
        _, _, residual, periods = _periodic._periodic_states(
            base.params, base.drive, base.dt, [_rate(base, 1.6e-3)])[0]
        assert (spy.periods, len(set(spy.starts)), periods) == (2, 2, 1)
        assert residual == 0.0

    def test_step_shrinks_to_divide_the_period(self, base_config):
        # 0.3 ps does not divide 400 ps: 1334 steps of 0.29985 ps instead
        coarse = analysis._periodic_metrics(replace(base_config, dt=0.3e-12),
                                            0.0)
        aligned = analysis._periodic_metrics(
            replace(base_config, dt=0.4e-9 / 1334), 0.0)
        assert coarse == aligned

    @pytest.mark.parametrize("dt, numpy_drive", [
        (None, False),  # 0.1 ps divides the 400 ps period
        (0.3e-12, False),  # it does not
        (None, True),
    ])
    def test_kernel_sees_only_floats(self, base_config, monkeypatch, dt,
                                     numpy_drive):
        # The kernel runs several times slower on numpy scalars
        base = base_config if dt is None else replace(base_config, dt=dt)
        if numpy_drive:
            drive = base.drive
            base = replace(base, drive=replace(
                drive, i_bias=np.float64(drive.i_bias),
                i_pulse=np.float64(drive.i_pulse)))
        spy = _PeriodSpy(monkeypatch)
        analysis._periodic_metrics(base, _rate(base, 1.6e-3))
        # every lane's start and its source in each run
        seen = {type(v) for _, x in spy.starts for v in x}
        seen |= {type(run[3]) for schedules, *_ in spy.solves
                 for runs in schedules for run in runs}
        assert spy.starts and seen == {float}

    def test_drive_runs_built_once_per_call(self, base_config, monkeypatch):
        # one zero-pump schedule serves every lane, whatever the rates
        calls = []
        drive_runs = dynamics._drive_runs

        def counted(*args):
            calls.append(args[3])
            return drive_runs(*args)

        monkeypatch.setattr(dynamics, "_drive_runs", counted)
        _periodic._periodic_states(
            base_config.params, base_config.drive, base_config.dt,
            [_rate(base_config, p) for p in (0.0, 0.8e-3, 1.6e-3)])
        assert calls == [0.0]


def serial_lockstep(drive):
    """A stand-in for ``_periodic._lockstep`` that integrates each lane's
    period by one ``_advance`` call over the drive runs at that lane's own
    rate, one lane after another: the serial loop that the RK4 loop's lanes
    and the lockstep stand in for."""
    def lockstep(runs, rates, params, h, records):
        m = records.shape[1] - 1
        schedules = [list(dynamics._drive_runs(m, h, drive, r)) for r in rates]
        scratch = np.empty(m + 1)  # the carrier record

        def period(starts):
            images = {}
            for i, (n, q) in starts.items():
                try:
                    images[i] = dynamics._advance(
                        n, q, schedules[i], params, h,
                        (scratch, records[i], 0, 1))[:2]
                except ps.SimulationError as exc:
                    images[i] = exc
            return images

        return period

    return lockstep


def _alone(params, drive, dt, rates):
    """Each rate's solve on its own, each period one ``_advance`` call
    (``serial_lockstep``)."""
    with mock.patch.object(_periodic, "_lockstep", serial_lockstep(drive)):
        return [_periodic._periodic_states(params, drive, dt, [r])[0]
                for r in rates]


@pytest.mark.parametrize("kernel", ["compiled", "python"], indirect=True)
class TestLockstep:
    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rates=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2e16),
                                    st.sampled_from([5e15, 2e16])),
                          min_size=1, max_size=4),
           dt=st.sampled_from([0.1e-12, 0.3e-12]))
    @example(rates=[2e16, 0.0, 5e15, 2e16, 0.0], dt=0.3e-12)
    # the second rate ends in a two-state cycle 2.3e-13 apart in q, which
    # misses the bound scaled by the first image, so both raise its error
    @example(rates=[2e16, 466666666666666.6, 0.0], dt=0.3e-12)
    def test_matches_one_solve_per_rate(self, params, drive, kernel, rates,
                                        dt):
        # the default device at 5 GHz: 667 or 2,000 steps a period; about
        # 1 rate in 250 of [0, 2e16] /s does not converge there, and then
        # both raise the first failing rate's exception
        wave = replace(drive, rep_rate=5e9, pulse_width=0.1e-9)

        def outcome(solve):
            try:
                return [(h, q.tobytes(), residual, periods)
                        for h, q, residual, periods in solve()]
            except (ps.ConvergenceError, ps.SimulationError) as exc:
                return type(exc), str(exc)

        got = outcome(lambda: _periodic._periodic_states(params, wave, dt,
                                                         rates))
        assert got == outcome(lambda: _alone(params, wave, dt, rates))

    def test_lanes_converge_apart(self, params, drive, kernel):
        # the example above: its solves stop after 8, 19 and 11 periods
        wave = replace(drive, rep_rate=5e9, pulse_width=0.1e-9)
        got = _periodic._periodic_states(params, wave, 0.3e-12,
                                        [2e16, 0.0, 5e15])
        assert [periods for *_, periods in got] == [8, 19, 11]

    @pytest.mark.parametrize("rates, error", [
        ([1e19, 0.0, 1e24], ps.ConvergenceError),
        ([1e19, 1e24, 0.0], ps.SimulationError),
    ])
    def test_first_failing_rate_raises(self, base_config, monkeypatch, kernel,
                                       rates, error):
        # 1e19 /s converges in one period, 0 hits the 5-period cap, and 1e24
        # /s leaves the gain's domain in its first period.  Whichever fails
        # first in time, the call raises what the serial loop raises: the
        # exception of the first rate, in order, that fails.
        monkeypatch.setattr(_periodic, "_ANDERSON_PERIODS", 3)
        monkeypatch.setattr(_periodic, "_PLAIN_PERIODS", 2)
        args = (base_config.params, base_config.drive, base_config.dt)
        with pytest.raises(error) as serial:
            _alone(*args, rates)
        with pytest.raises(error) as lockstep:
            _periodic._periodic_states(*args, rates)
        assert str(lockstep.value) == str(serial.value)
        assert ("gain's domain" in str(lockstep.value)) == (
            error is ps.SimulationError)


class TestPumpSweep:
    def test_zero_power_normalizes_to_unity(self, base_config):
        rows = ps.pump_sweep(base_config, [0.0])
        assert rows[0].p_pump_w == 0.0
        assert rows[0].norm_pulse_energy == 1.0
        assert rows[0].norm_avg_power == 1.0

    def test_rows_track_input_order_and_grow(self, base_config):
        rows = ps.pump_sweep(base_config, [0.0, 0.8e-3, 1.6e-3])
        assert [r.p_pump_w for r in rows] == [0.0, 0.8e-3, 1.6e-3]
        energies = [r.norm_pulse_energy for r in rows]
        assert energies == sorted(energies)
        assert energies[-1] > 1.0

    def test_validation(self, base_config):
        with pytest.raises(ValueError):
            ps.pump_sweep(base_config, [1.0e-3, 0.5e-3])
        with pytest.raises(ValueError):
            ps.pump_sweep(base_config, [-1e-3])

    @pytest.mark.parametrize("path", ["simulate", "periodic"])
    def test_ratio_nondecreasing_in_eps(self, base_config, path):
        # A window snapped to whole samples jumps by ~1e-4 whenever a
        # threshold crossing passes a sample: 1.0000807 at eps 2e-4, then
        # 0.9999196 at 1.5e-3.  Interpolated window edges remove the jumps.
        def energy(eps, p_pump):
            config = replace(base_config, pump=ps.PumpScenario(p_pump, eps))
            if path == "periodic":  # what fit_eps_opt evaluates
                return analysis._periodic_metrics(
                    config, _rate(config, p_pump)).pulse_energy
            return ps.pulse_metrics(ps.simulate(config),
                                    config.drive).pulse_energy

        e_base = energy(base_config.pump.eps_opt, 0.0)
        ratios = [energy(eps, 1.43e-3) / e_base
                  for eps in [1e-6, 1e-4, 2e-4, 5e-4, 1.5e-3, 5e-3, 2e-2]]
        assert ratios[0] >= 1.0
        assert ratios == sorted(ratios)

    def test_csv_output(self, base_config, tmp_path):
        rows = ps.pump_sweep(base_config, [0.0, 1.6e-3])
        out = tmp_path / "sweep.csv"
        ps.analysis.write_sweep_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "p_pump_w,norm_pulse_energy,norm_avg_power"
        assert lines[1].startswith("0,1,1")

    def test_csv_bytes(self, tmp_path):
        rows = [ps.SweepRow(0.0, 1.0, 1.0),
                ps.SweepRow(1.6e-3, 1.0041844804585123, 1.0190758144086545),
                ps.SweepRow(2e-3, 1e-300, 12345678901234.0)]
        out = tmp_path / "sweep.csv"
        ps.analysis.write_sweep_csv(rows, out)
        assert out.read_bytes() == (
            b"p_pump_w,norm_pulse_energy,norm_avg_power\n"
            b"0,1,1\n"
            b"0.0016,1.00418448046,1.01907581441\n"
            b"0.002,1e-300,1.23456789012e+13\n"
        )


@pytest.fixture(scope="module")
def small_config(params, drive):
    warmup = ps.default_warmup(params, drive)
    return ps.SimConfig(params=params, drive=drive,
                        pump=ps.PumpScenario(0.0, 0.1),
                        t_total=warmup + 5 * drive.period, dt=1e-13,
                        warmup=warmup)


class TestFitEpsOpt:
    def test_tiny_target_gives_tiny_eps(self, small_config):
        result = ps.fit_eps_opt(small_config, 1.6e-3, 1.0001)
        assert result.eps_opt < 0.01
        assert result.residual < 1e-3
        assert result.bracket_lo <= result.eps_opt <= result.bracket_hi

    def test_flat_low_side_does_not_stall(self, base_config):
        # the benchmark's seed-0 target, where a minimising search stalled
        result = ps.fit_eps_opt(base_config, 1.4287610196432837e-3,
                                1.0543367457078245)
        assert result.residual < 1e-3
        assert result.bracket_lo <= result.eps_opt <= result.bracket_hi

    def test_fit_cost_on_default(self, base_config, monkeypatch):
        # the README example: 7 pumped solves and 68 periods in all
        spy = _PeriodSpy(monkeypatch)
        result = ps.fit_eps_opt(base_config, 1.6e-3, 1.10)
        assert result.residual < 1e-3
        assert result.evaluations <= 7
        assert 0 < spy.periods <= 68

    @pytest.mark.parametrize("target", [1.0001, 1.00001, 1.001])
    def test_bracket_is_relative_at_small_eps(self, base_config, target):
        # the bracket on eps_opt narrows relative to its end, not to 1
        result = ps.fit_eps_opt(base_config, 1.6e-3, target)
        assert result.eps_opt > 0.0
        assert result.bracket_hi / result.bracket_lo - 1.0 <= 2.4e-4

    def test_unreachable_target(self, small_config):
        with pytest.raises(ps.FitError) as err:
            ps.fit_eps_opt(small_config, 1.6e-3, 2.0)
        assert err.value.achieved is not None
        assert 1.0 < err.value.achieved < 2.0

    def test_invalid_targets(self, small_config):
        with pytest.raises(ValueError):
            ps.fit_eps_opt(small_config, 1.6e-3, 0.99)
        with pytest.raises(ValueError):
            ps.fit_eps_opt(small_config, 0.0, 1.1)

    def test_fit_csv(self, tmp_path):
        result = ps.FitResult(eps_opt=0.5, residual=1e-5, bracket_lo=0.49,
                              bracket_hi=0.51, evaluations=25)
        out = tmp_path / "fit.csv"
        ps.analysis.write_fit_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "eps_opt,residual,bracket_lo,bracket_hi"
        assert lines[1].split(",")[0] == "0.5"

    def test_fit_csv_bytes(self, tmp_path):
        result = ps.FitResult(eps_opt=0.0123456789012345, residual=3.2e-9,
                              bracket_lo=0.012345, bracket_hi=0.0123457,
                              evaluations=11)
        out = tmp_path / "fit.csv"
        ps.analysis.write_fit_csv(result, out)
        assert out.read_bytes() == (
            b"eps_opt,residual,bracket_lo,bracket_hi\n"
            b"0.0123456789012,3.2e-09,0.012345,0.0123457\n"
        )
