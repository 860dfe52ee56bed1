"""Parameter validation and canonical unit handling."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vortexloc import make_config
from vortexloc.config import (
    CONSTANT,
    STANDING_WAVE,
    Position,
    ProbeConfig,
    angular_from_mhz,
    mhz_from_angular,
    with_delta_shift,
    with_winding,
)

TWO_PI = 2.0 * math.pi


def test_mhz_becomes_two_pi_rad_per_us():
    assert angular_from_mhz(1.0) == TWO_PI
    assert angular_from_mhz(80.0) == pytest.approx(502.6548, abs=1e-4)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_unit_roundtrip_is_identity(nu):
    assert mhz_from_angular(angular_from_mhz(nu)) == pytest.approx(nu, rel=1e-12, abs=1e-15)


def test_default_config_is_the_reference_working_point():
    cfg = make_config()
    assert cfg.beam.omega_c0 == pytest.approx(TWO_PI * 80.0)
    assert cfg.beam.waist_w0 == 1.0
    assert cfg.beam.winding_l == 1
    assert cfg.beam.wavelength_c == 0.48
    assert cfg.kappa == pytest.approx(100.0)
    assert cfg.probe.delta_p == 0.0
    assert cfg.detuning.mode == STANDING_WAVE
    assert cfg.detuning.delta_c0 == pytest.approx(TWO_PI * 30.0)
    # delta defaults to the interaction-free antiblockade offset Delta_c0
    assert cfg.detuning.delta_shift == cfg.detuning.delta_c0
    assert cfg.detuning.period == cfg.beam.wavelength_c
    assert cfg.medium.gamma_e == pytest.approx(TWO_PI * 6.05)
    assert cfg.medium.gamma_r == 0.0
    assert cfg.medium.gamma == pytest.approx(TWO_PI * 3.025)
    assert cfg.medium.density_rho == 0.6
    assert cfg.medium.c6 == pytest.approx(TWO_PI * 1.4e5)


@pytest.mark.parametrize(
    "omega_p0, expected", [(8.0, 10.0), (0.8, 100.0), (0.16, 500.0), (80.0, 1.0)]
)
def test_kappa_is_derived_from_the_amplitude_ratio(omega_p0, expected):
    assert make_config(omega_p0_mhz=omega_p0).kappa == pytest.approx(expected)


def test_small_but_finite_kappas_keep_their_probe_amplitude():
    for kappa in (1e-150, 10.0, 100.0, 180.0, 333.3, 500.0):
        assert make_config(kappa=kappa).probe.omega_p0 == angular_from_mhz(80.0 / kappa)


def test_kappa_and_omega_p0_are_mutually_exclusive():
    with pytest.raises(ValueError, match="either kappa or omega_p0"):
        make_config(kappa=10.0, omega_p0_mhz=8.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"waist_w0_um": 0.0}, "waist must be positive"),
        ({"winding_l": 0}, "winding number"),
        ({"kappa": -3.0}, "kappa must be positive"),
        ({"omega_c0_mhz": 0.0}, "omega_c0 must be positive"),
        ({"gamma_e_mhz": 0.0}, "gamma_e must be positive"),
        ({"gamma_r_mhz": -1.0}, "gamma_r must be nonnegative"),
        ({"density_rho_um3": 0.0}, "density must be positive"),
        ({"c6_mhz_um6": -1.0}, "c6 must be nonnegative"),
        ({"period_um": 0.0}, "period must be positive"),
        ({"wavelength_c_um": -1.0}, "wavelength must be positive"),
        ({"detuning_mode": "ramp"}, "unknown detuning mode"),
        ({"delta_p_mhz": math.inf}, "must be finite"),
        ({"kappa": 1e-300}, "kappa = 1e-300 is too small"),
        ({"kappa": 1e-160}, "kappa = 1e-160 is too small"),
        ({"omega_p0_mhz": 1e200}, "omega_p0 = 6.28.*e\\+200 rad/us is too large"),
        ({"kappa": 10.0, "delta_p_mhz": math.nan}, "delta_p must be finite"),
    ],
)
def test_invalid_parameters_name_the_offending_field(kwargs, message):
    with pytest.raises(ValueError, match=message):
        make_config(**kwargs)


def test_probe_config_rejects_an_amplitude_whose_square_overflows():
    with pytest.raises(ValueError, match="omega_p0 squared overflows"):
        ProbeConfig(omega_p0=1e200)
    assert ProbeConfig(omega_p0=1e150).omega_p0 == 1e150
    # the same check guards a probe replaced after construction
    with pytest.raises(ValueError, match="omega_p0 squared overflows"):
        dataclasses.replace(make_config().probe, omega_p0=1e200)


def test_position_rejects_negative_radius():
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        Position(r=-1.0, z=0.0)


def test_position_is_keyword_only():
    # the old positional form Position(r, phi) must not read phi as z
    with pytest.raises(TypeError):
        Position(0.5, 0.25)
    assert Position(r=0.5, z=0.25).z == 0.25
    assert not hasattr(Position(r=0.5), "phi")


def test_fingerprint_is_stable_and_parameter_sensitive():
    a, b = make_config(), make_config()
    assert a.fingerprint() == b.fingerprint() == "4435c55141f2"
    assert a.fingerprint() != make_config(kappa=10.0).fingerprint()
    assert a.fingerprint() != with_delta_shift(a, 1.0).fingerprint()


@pytest.mark.parametrize(
    "config",
    [
        make_config(),
        make_config(kappa=10.0),
        with_delta_shift(make_config(), 1.0),
        make_config(detuning_mode=CONSTANT, delta_c_const_mhz=5.0),
    ],
    ids=["default", "kappa10", "delta_shift1", "constant"],
)
def test_fingerprint_is_the_hashlib_sha256_of_every_parameter(config):
    parts = [
        f"{f.name}={getattr(section, f.name)!r}"
        for section in (config.beam, config.probe, config.detuning, config.medium)
        for f in dataclasses.fields(section)
    ]
    assert config.fingerprint() == hashlib.sha256(";".join(parts).encode()).hexdigest()[:12]


def test_with_helpers_replace_a_single_section():
    cfg = make_config()
    assert with_winding(cfg, 3).beam.winding_l == 3
    moved = with_delta_shift(cfg, 2.5)
    assert moved.detuning.delta_shift == 2.5
    assert moved.beam == cfg.beam
    assert moved.medium == cfg.medium
