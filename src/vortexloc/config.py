"""Canonical parameter types and validation.

Canonical units everywhere downstream: angular frequencies in rad/us
(value = 2*pi * frequency_in_MHz) and lengths in um. Human-facing entry
points (`make_config`, the CLI) accept plain MHz / um numbers and convert
once; no other operation accepts raw MHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# SHA-256 from CPython's built-in module: `hashlib` would load OpenSSL (about
# 3.6 MB of resident memory) to hash one short string per run.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

TWO_PI = 2.0 * math.pi

CONSTANT = "constant"
STANDING_WAVE = "standing_wave"

DEFAULT_KAPPA = 100.0

# The physics parameters a config file may set and every result file echoes, in
# echo order: (INI section = SystemConfig part, INI key = its field, except the
# derived kappa, make_config keyword, type). A "_mhz" keyword is a frequency in MHz.
PARAMETERS: tuple[tuple[str, str, str, type], ...] = (
    ("beam", "omega_c0", "omega_c0_mhz", float),
    ("beam", "waist_w0", "waist_w0_um", float),
    ("beam", "winding_l", "winding_l", int),
    ("beam", "wavelength_c", "wavelength_c_um", float),
    ("probe", "omega_p0", "omega_p0_mhz", float),
    ("probe", "kappa", "kappa", float),
    ("probe", "delta_p", "delta_p_mhz", float),
    ("detuning", "mode", "detuning_mode", str),
    ("detuning", "delta_c_const", "delta_c_const_mhz", float),
    ("detuning", "delta_c0", "delta_c0_mhz", float),
    ("detuning", "delta_shift", "delta_shift_mhz", float),
    ("detuning", "period", "period_um", float),
    ("medium", "gamma_e", "gamma_e_mhz", float),
    ("medium", "gamma_r", "gamma_r_mhz", float),
    ("medium", "density_rho", "density_rho_um3", float),
    ("medium", "c6", "c6_mhz_um6", float),
)


def angular_from_mhz(nu_mhz: float) -> float:
    """Convert a frequency given in MHz to an angular frequency in rad/us."""
    return TWO_PI * nu_mhz


def mhz_from_angular(omega: float) -> float:
    """Convert an angular frequency in rad/us back to MHz."""
    return omega / TWO_PI


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _require_finite(value: float, name: str) -> None:
    _require(isinstance(value, (int, float)) and math.isfinite(value), f"{name} must be finite")


def _require_positive(value: float, name: str) -> None:
    _require_finite(value, name)
    _require(value > 0, f"{name} must be positive")


@dataclass(frozen=True)
class BeamConfig:
    """Control-beam vortex parameters (peak Rabi amplitude, waist, winding, wavelength)."""

    omega_c0: float  # rad/us
    waist_w0: float  # um
    winding_l: int
    wavelength_c: float  # um

    def __post_init__(self) -> None:
        _require_positive(self.omega_c0, "omega_c0")
        _require_positive(self.waist_w0, "waist")
        _require(
            isinstance(self.winding_l, int) and self.winding_l != 0,
            "winding number must be a nonzero integer",
        )
        _require_positive(self.wavelength_c, "wavelength")


@dataclass(frozen=True)
class ProbeConfig:
    """Traveling-wave probe: constant amplitude and single-photon detuning."""

    omega_p0: float  # rad/us
    delta_p: float = 0.0  # rad/us

    def __post_init__(self) -> None:
        _require_positive(self.omega_p0, "omega_p0")
        _require(
            math.isfinite(2.0 * self.omega_p0 * self.omega_p0),
            f"omega_p0 = {self.omega_p0!r} rad/us is too large: "
            "the probe intensity omega_p0 squared overflows when doubled",
        )
        _require_finite(self.delta_p, "delta_p")

    @property
    def intensity(self) -> float:
        """Probe intensity I_p = omega_p0 * omega_p0, the one formula every steady state and shift uses."""
        return self.omega_p0 * self.omega_p0


@dataclass(frozen=True)
class DetuningModulation:
    """Control detuning profile: constant, or a standing wave delta_c0*sin(2*pi*z/period) + delta_shift."""

    mode: str = STANDING_WAVE
    delta_c_const: float = 0.0  # rad/us, constant mode only
    delta_c0: float = 0.0  # rad/us, standing-wave amplitude
    delta_shift: float = 0.0  # rad/us, uniform offset (the calibrated delta)
    period: float = 0.48  # um, defaults to the control wavelength

    def __post_init__(self) -> None:
        _require(self.mode in (CONSTANT, STANDING_WAVE), f"unknown detuning mode '{self.mode}'")
        for name in ("delta_c_const", "delta_c0", "delta_shift"):
            _require_finite(getattr(self, name), name)
        _require_positive(self.period, "period")


@dataclass(frozen=True)
class AtomMedium:
    """Decay rates, density and van der Waals coefficient of the atomic medium."""

    gamma_e: float  # rad/us
    gamma_r: float = 0.0  # rad/us; the Rydberg lifetime only bounds comparisons
    density_rho: float = 0.6  # um^-3
    c6: float = 0.0  # rad/us * um^6; zero switches interactions off

    def __post_init__(self) -> None:
        _require_positive(self.gamma_e, "gamma_e")
        _require_finite(self.gamma_r, "gamma_r")
        _require(self.gamma_r >= 0, "gamma_r must be nonnegative")
        _require_positive(self.density_rho, "density")
        _require_finite(self.c6, "c6")
        _require(self.c6 >= 0, "c6 must be nonnegative")

    @property
    def gamma(self) -> float:
        """Coherence dephasing rate (gamma_e + gamma_r)/2 shared by the ge and er coherences."""
        return 0.5 * (self.gamma_e + self.gamma_r)


@dataclass(frozen=True, kw_only=True)
class Position:
    """Position (r, z) about the beam axis, keyword-only.

    There is no azimuth: the vortex phase exp(i*l*azimuth) enters no result,
    which depends on the control field only through |Omega_c|^2.
    """

    r: float
    z: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self.r, "radius")
        _require(self.r >= 0, "radius must be nonnegative")
        _require_finite(self.z, "z")


@dataclass(frozen=True)
class SystemConfig:
    """Immutable aggregate of all physical parameters in canonical units."""

    beam: BeamConfig
    probe: ProbeConfig
    detuning: DetuningModulation
    medium: AtomMedium

    @property
    def kappa(self) -> float:
        """Control-to-probe amplitude ratio; derived, never stored."""
        return self.beam.omega_c0 / self.probe.omega_p0

    def fingerprint(self) -> str:
        """Short stable hash of every parameter, for output headers."""
        parts = []
        for section in (self.beam, self.probe, self.detuning, self.medium):
            for f in fields(section):
                parts.append(f"{f.name}={getattr(section, f.name)!r}")
        digest = _sha256(";".join(parts).encode()).hexdigest()
        return digest[:12]


def make_config(
    omega_c0_mhz: float = 80.0,
    waist_w0_um: float = 1.0,
    winding_l: int = 1,
    wavelength_c_um: float = 0.48,
    kappa: float | None = None,
    omega_p0_mhz: float | None = None,
    delta_p_mhz: float = 0.0,
    detuning_mode: str = STANDING_WAVE,
    delta_c_const_mhz: float = 0.0,
    delta_c0_mhz: float = 30.0,
    delta_shift_mhz: float | None = None,
    period_um: float | None = None,
    gamma_e_mhz: float = 6.05,
    gamma_r_mhz: float = 0.0,
    density_rho_um3: float = 0.6,
    c6_mhz_um6: float = 1.4e5,
) -> SystemConfig:
    """Build a validated SystemConfig from plain MHz / um values.

    Defaults reproduce the reference working point: Omega_c0/2pi = 80 MHz,
    W0 = 1 um, lambda_c = 0.48 um, Gamma_e/2pi = 6.05 MHz, rho = 0.6 um^-3,
    C6/2pi = 1.4e5 MHz um^6, Delta_c0/2pi = 30 MHz, kappa = 100.

    Either `kappa` or `omega_p0_mhz` selects the probe amplitude, not both.
    `delta_shift_mhz` defaults to `delta_c0_mhz` (the interaction-free
    antiblockade offset); `period_um` defaults to the control wavelength.
    """
    if kappa is not None and omega_p0_mhz is not None:
        raise ValueError("give either kappa or omega_p0, not both")
    if omega_p0_mhz is None:
        k = DEFAULT_KAPPA if kappa is None else kappa
        _require_positive(k, "kappa")
        omega_p0_mhz = omega_c0_mhz / k
    if delta_shift_mhz is None:
        delta_shift_mhz = delta_c0_mhz
    if period_um is None:
        period_um = wavelength_c_um

    beam = BeamConfig(
        omega_c0=angular_from_mhz(omega_c0_mhz),
        waist_w0=waist_w0_um,
        winding_l=winding_l,
        wavelength_c=wavelength_c_um,
    )
    omega_p0 = angular_from_mhz(omega_p0_mhz)
    # the overflow ProbeConfig refuses, named by kappa when kappa gave the amplitude
    _require(
        kappa is None or not math.isfinite(omega_p0) or math.isfinite(2.0 * omega_p0 * omega_p0),
        f"kappa = {kappa!r} is too small: the probe amplitude omega_c0/kappa squared overflows when doubled",
    )
    probe = ProbeConfig(omega_p0=omega_p0, delta_p=angular_from_mhz(delta_p_mhz))
    detuning = DetuningModulation(
        mode=detuning_mode,
        delta_c_const=angular_from_mhz(delta_c_const_mhz),
        delta_c0=angular_from_mhz(delta_c0_mhz),
        delta_shift=angular_from_mhz(delta_shift_mhz),
        period=period_um,
    )
    medium = AtomMedium(
        gamma_e=angular_from_mhz(gamma_e_mhz),
        gamma_r=angular_from_mhz(gamma_r_mhz),
        density_rho=density_rho_um3,
        c6=angular_from_mhz(c6_mhz_um6),
    )
    return SystemConfig(beam=beam, probe=probe, detuning=detuning, medium=medium)


def config_echo(config: SystemConfig) -> dict[str, object]:
    """Flat readable view of a configuration in MHz and um, keyed by make_config keyword in PARAMETERS order."""
    echo = {}
    for section, key, keyword, _ in PARAMETERS:
        value = config.kappa if key == "kappa" else getattr(getattr(config, section), key)
        echo[keyword] = mhz_from_angular(value) if "_mhz" in keyword else value
    return echo


def with_delta_shift(config: SystemConfig, delta_shift: float) -> SystemConfig:
    """Copy of `config` with the standing-wave offset delta replaced (rad/us)."""
    return replace(config, detuning=replace(config.detuning, delta_shift=delta_shift))


def with_winding(config: SystemConfig, winding_l: int) -> SystemConfig:
    """Copy of `config` with a new vortex winding number."""
    return replace(config, beam=replace(config.beam, winding_l=winding_l))
