"""Steady-state Rydberg excitation and sub-wavelength localization around a vortex control beam.

A three-level ladder ensemble driven by a doughnut-mode control field and a
traveling-wave probe develops a narrow excitation peak at the vortex core.
This package computes the steady state (closed form and by integrating the
optical Bloch equations), the blockade-masked mean-field interaction shift,
the self-consistent antiblockade calibration, 1D/3D localization profiles
with half-maximum widths, and Monte-Carlo noise robustness, all with
deterministic, worker-count-independent numerics.
"""

# The names the README and the ten subcommands use: configuration and units,
# each subcommand's library entry point with its inputs and result type, and
# the mode, mask and kind constants. Oracles and helpers stay importable from
# their submodules (vortexloc.bloch, vortexloc.fields, vortexloc.noise, ...).
from .bloch import LocalDrive, steady_sigma_rr, steady_time
from .config import (
    CONSTANT,
    STANDING_WAVE,
    AtomMedium,
    BeamConfig,
    DetuningModulation,
    Position,
    ProbeConfig,
    SystemConfig,
    angular_from_mhz,
    make_config,
    mhz_from_angular,
)
from .localization import (
    MODE_NONE,
    MODE_PARTIAL,
    MODE_PERFECT,
    OFFSET_CALIBRATED,
    OFFSET_DETUNED,
    Map3D,
    ScanProfile,
    iso_extents,
    longitudinal_scan,
    map3d,
    oam_broadening_scan,
    transverse_scan,
)
from .meanfield import (
    MASK_ATOM,
    MASK_LOCAL,
    BlockadeBoundary,
    QuadratureSpec,
    ShiftGrid,
    ShiftQuadrature,
    blockade_boundary,
    calibrated_offset,
    shift_at,
    shift_profile,
)
from .noise import KIND_FREQUENCY, KIND_INTENSITY, NoiseSpec, NoisyScan, noisy_transverse_scan
from .output import PACKAGE_VERSION, RunManifest, write_table

__version__ = PACKAGE_VERSION

__all__ = [
    "__version__",
    # configuration and units
    "CONSTANT",
    "STANDING_WAVE",
    "BeamConfig",
    "ProbeConfig",
    "DetuningModulation",
    "AtomMedium",
    "Position",
    "SystemConfig",
    "make_config",
    "angular_from_mhz",
    "mhz_from_angular",
    # steady state (steady, steady-time)
    "LocalDrive",
    "steady_sigma_rr",
    "steady_time",
    # interaction shift (shift, calibrate-delta, blockade)
    "MASK_LOCAL",
    "MASK_ATOM",
    "QuadratureSpec",
    "ShiftQuadrature",
    "ShiftGrid",
    "BlockadeBoundary",
    "shift_at",
    "shift_profile",
    "calibrated_offset",
    "blockade_boundary",
    # localization (scan-r, scan-z, scan-l, map3d)
    "MODE_NONE",
    "MODE_PARTIAL",
    "MODE_PERFECT",
    "OFFSET_CALIBRATED",
    "OFFSET_DETUNED",
    "ScanProfile",
    "Map3D",
    "transverse_scan",
    "longitudinal_scan",
    "oam_broadening_scan",
    "map3d",
    "iso_extents",
    # noise
    "KIND_INTENSITY",
    "KIND_FREQUENCY",
    "NoiseSpec",
    "NoisyScan",
    "noisy_transverse_scan",
    # output
    "RunManifest",
    "write_table",
]
