"""Rate-equation building blocks: gain, pumping rate, derivatives, power."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

import pumpsim as ps

# Frozen oracle values, computed from the eV*nm form of h*c: photon energy
# at 1310 nm is 0.946444 eV = 1.5163709e-19 J, at 1550 nm 0.799898 eV.
PUMP_RATE_1P6MW = 1.0551508e15  # eps 0.1, 1.6 mW
PUMP_RATE_140UW = 9.2325698e13  # eps 0.1, 140 uW
POWER_Q1E5 = 8.8998470e-3  # W at q=1e5, eta 0.5, gamma 0.12, tau_ph 3 ps


def make_params(**overrides):
    values = dict(
        tau_e=1e-9,
        tau_ph=3e-12,
        gamma_conf=0.12,
        n_th=6.5e7,
        n_0=5.5e7,
        c_sp=1e-5,
        gamma_q=1e-6,
        eta=0.5,
        emission_wavelength=1550e-9,
        pump_wavelength=1310e-9,
    )
    values.update(overrides)
    return ps.LaserParams(**values)


def test_photon_energy_values():
    assert ps.photon_energy(1550e-9) == pytest.approx(1.2815780e-19, rel=1e-7)
    assert ps.photon_energy(1310e-9) == pytest.approx(1.5163709e-19, rel=1e-7)
    with pytest.raises(ValueError):
        ps.photon_energy(0.0)


def test_photon_energies_follow_wavelengths():
    params = make_params()
    assert params.e_photon_out == ps.photon_energy(1550e-9)
    assert params.e_photon_pump == ps.photon_energy(1310e-9)
    moved = dataclasses.replace(params, pump_wavelength=980e-9)
    assert moved.e_photon_pump == ps.photon_energy(980e-9)
    with pytest.raises(AttributeError):
        params.e_photon_out = 1e-19


@pytest.mark.parametrize("field", ["emission_wavelength", "pump_wavelength"])
@pytest.mark.parametrize("value", [0.0, -1550e-9])
def test_nonpositive_wavelength_is_checked_first(field, value):
    """A bad wavelength wins over every other bad field."""
    with pytest.raises(ValueError, match="^wavelength must be positive"):
        make_params(tau_e=0.0, eta=2.0, **{field: value})


class TestGain:
    def test_unity_at_threshold(self, params):
        state = ps.LaserState(n=params.n_th, q=0.0)
        assert ps.gain(state, params) == 1.0

    def test_zero_at_transparency(self, params):
        for q in (0.0, 1.0, 1e6):
            assert ps.gain(ps.LaserState(n=params.n_0, q=q), params) == 0.0

    def test_compressed_value(self, params):
        state = ps.LaserState(n=6.0e7, q=1e6)
        assert ps.gain(state, params) == pytest.approx(
            0.5 / math.sqrt(3.0), rel=1e-12
        )

    def test_negative_below_transparency(self, params):
        assert ps.gain(ps.LaserState(n=1e7, q=0.0), params) < 0.0

    @given(
        n1=st.floats(0.0, 1e9),
        n2=st.floats(0.0, 1e9),
        q=st.floats(0.0, 1e8),
    )
    def test_monotone_in_carriers(self, n1, n2, q):
        params = make_params()
        lo, hi = sorted([n1, n2])
        g_lo = ps.gain(ps.LaserState(n=lo, q=q), params)
        g_hi = ps.gain(ps.LaserState(n=hi, q=q), params)
        assert g_hi >= g_lo

    @given(
        n=st.floats(5.6e7, 1e9),
        q1=st.floats(0.0, 1e8),
        q2=st.floats(0.0, 1e8),
    )
    def test_decreasing_in_photons_above_transparency(self, n, q1, q2):
        params = make_params()
        lo, hi = sorted([q1, q2])
        g_lo = ps.gain(ps.LaserState(n=n, q=lo), params)
        g_hi = ps.gain(ps.LaserState(n=n, q=hi), params)
        assert g_hi <= g_lo


class TestPumpRate:
    def test_zero_without_power(self, params):
        assert ps.pump_rate(ps.PumpScenario(p_pump=0.0, eps_opt=0.1), params) == 0.0
        assert ps.pump_rate(ps.PumpScenario(p_pump=1e-3, eps_opt=0.0), params) == 0.0

    def test_full_attack_power(self, params):
        rate = ps.pump_rate(ps.PumpScenario(p_pump=1.6e-3, eps_opt=0.1), params)
        assert rate == pytest.approx(PUMP_RATE_1P6MW, rel=1e-7)

    def test_safe_boundary_power(self, params):
        rate = ps.pump_rate(ps.PumpScenario(p_pump=1.40e-4, eps_opt=0.1), params)
        assert rate == pytest.approx(PUMP_RATE_140UW, rel=1e-7)

    @given(
        p=st.floats(0.0, 1.0),
        eps=st.floats(0.0, 1.0),
        k=st.floats(1e-3, 1e3),
    )
    def test_linear_in_power_and_efficiency(self, p, eps, k):
        params = make_params()
        base = ps.pump_rate(ps.PumpScenario(p_pump=p, eps_opt=eps), params)
        if p * k <= 1e6:
            scaled = ps.pump_rate(ps.PumpScenario(p_pump=p * k, eps_opt=eps), params)
            assert scaled == pytest.approx(k * base, rel=1e-12)
        if eps * k <= 1.0:
            scaled = ps.pump_rate(ps.PumpScenario(p_pump=p, eps_opt=eps * k), params)
            assert scaled == pytest.approx(k * base, rel=1e-12)


class TestDerivatives:
    def test_empty_laser_is_fixed_point(self, params):
        dn, dq = ps.derivatives(ps.LaserState(n=0.0, q=0.0), 0.0, 0.0, params)
        assert dn == 0.0 and dq == 0.0

    def test_spontaneous_seeding_at_threshold(self, params):
        state = ps.LaserState(n=params.n_th, q=0.0)
        _, dq = ps.derivatives(state, 0.02, 0.0, params)
        assert dq == pytest.approx(6.5e11, rel=1e-12)

    def test_subthreshold_fixed_point(self):
        params = make_params(c_sp=0.0)
        i_dc = 1e-3
        n_star = i_dc * params.tau_e / ps.ELEMENTARY_CHARGE
        dn, dq = ps.derivatives(ps.LaserState(n=n_star, q=0.0), i_dc, 0.0, params)
        assert abs(dn) <= 1e-9 * n_star / params.tau_e
        assert dq == 0.0

    @given(
        n=st.floats(0.0, 2e8),
        q=st.floats(0.0, 2e6),
        i_now=st.floats(0.0, 0.05),
        r_opt=st.floats(1e12, 1.1e16),
    )
    def test_pumping_adds_exactly_its_rate(self, n, q, i_now, r_opt):
        """Additivity is exact in the model; in floats it holds to an ulp of
        the largest competing term."""
        params = make_params()
        state = ps.LaserState(n=n, q=q)
        dn_off, dq_off = ps.derivatives(state, i_now, 0.0, params)
        dn_on, dq_on = ps.derivatives(state, i_now, r_opt, params)
        assert dn_on > dn_off
        assert dn_on - dn_off == pytest.approx(r_opt, rel=1e-6)
        assert dq_on == dq_off


class TestPhotonToPower:
    def test_zero_and_linearity(self, params):
        assert ps.photon_to_power(0.0, params) == 0.0
        p1 = ps.photon_to_power(3.0e4, params)
        p2 = ps.photon_to_power(6.0e4, params)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-15)

    def test_reference_value(self, params):
        assert ps.photon_to_power(1e5, params) == pytest.approx(
            POWER_Q1E5, rel=1e-7
        )

    @given(q=st.floats(1e-6, 1e9))
    def test_power_per_photon_constant(self, q):
        params = make_params()
        per_photon = ps.photon_to_power(q, params) / q
        assert per_photon == pytest.approx(
            ps.photon_to_power(1.0, params), rel=1e-12
        )


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"tau_e": 0.0},
            {"tau_ph": -1e-12},
            {"gamma_conf": 0.0},
            {"gamma_conf": 1.5},
            {"n_0": -1.0},
            {"n_th": 5.5e7},  # equals n_0
            {"c_sp": 1.5},
            {"gamma_q": -1e-9},
            {"eta": 0.0},
            {"eta": 1.1},
            {"pump_wavelength": 1550e-9},  # pump must be shorter
        ],
    )
    def test_bad_params_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_params(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"gamma_conf": 5e-324},
        {"tau_ph": 5e-324},
        {"gamma_conf": 1e-170, "tau_ph": 1e-170},
    ])
    def test_underflowing_photon_lifetime_product_rejected(self, overrides):
        """gamma_conf*tau_ph divides the stimulated term of the carrier
        equation; a product that rounds to 0 would divide by zero there."""
        with pytest.raises(ValueError, match="gamma_conf.*tau_ph"):
            make_params(**overrides)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, field", [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in (ps.LaserParams, ps.DriveWaveform, ps.PumpScenario)
        for f in dataclasses.fields(cls)
    ])
    def test_non_finite_fields_rejected(self, cls, field, value):
        valid = {
            ps.LaserParams: dataclasses.asdict(make_params()),
            ps.DriveWaveform: dict(i_bias=6e-3, i_pulse=20e-3,
                                   pulse_width=2e-10, rep_rate=2.5e9),
            ps.PumpScenario: dict(p_pump=1.6e-3, eps_opt=0.1),
        }[cls]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cls(**{**valid, field: value})

    def test_bad_drive_rejected(self):
        with pytest.raises(ValueError):
            ps.DriveWaveform(i_bias=-1e-3, i_pulse=0.0, pulse_width=1e-10,
                             rep_rate=1e9)
        with pytest.raises(ValueError):
            ps.DriveWaveform(i_bias=0.0, i_pulse=0.0, pulse_width=1e-9,
                             rep_rate=2.5e9)  # duty cycle >= 1

    def test_bad_pump_rejected(self):
        with pytest.raises(ValueError):
            ps.PumpScenario(p_pump=-1e-3, eps_opt=0.1)
        with pytest.raises(ValueError):
            ps.PumpScenario(p_pump=1e-3, eps_opt=1.2)

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            ps.LaserState(n=-1.0, q=0.0)
        with pytest.raises(ValueError):
            ps.LaserState(n=0.0, q=-1.0)
