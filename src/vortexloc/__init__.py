"""Steady-state Rydberg excitation and sub-wavelength localization around a vortex control beam.

A three-level ladder ensemble driven by a doughnut-mode control field and a
traveling-wave probe develops a narrow excitation peak at the vortex core.
This package computes the steady state (closed form and by integrating the
optical Bloch equations), the blockade-masked mean-field interaction shift,
the self-consistent antiblockade calibration, 1D/3D localization profiles
with half-maximum widths, and Monte-Carlo noise robustness, all with
deterministic, worker-count-independent numerics.
"""

import importlib

# The package's only list of public names, each with the submodule that
# defines it: what the README and the ten subcommands use (configuration and
# units, each subcommand's entry point with its inputs and result type, and the
# mode, mask and kind constants). Submodules carry no __all__; their helpers
# are imported by name, and a leading underscore marks a private one. A name
# loads its submodule on first access, so `import vortexloc` loads no numpy.
_SUBMODULE = {
    "__version__": "output",
    # configuration and units
    "CONSTANT": "config",
    "STANDING_WAVE": "config",
    "BeamConfig": "config",
    "ProbeConfig": "config",
    "DetuningModulation": "config",
    "AtomMedium": "config",
    "Position": "config",
    "SystemConfig": "config",
    "make_config": "config",
    "angular_from_mhz": "config",
    "mhz_from_angular": "config",
    # steady state (steady, steady-time)
    "LocalDrive": "bloch",
    "steady_sigma_rr": "bloch",
    "steady_time": "bloch",
    # interaction shift (shift, calibrate-delta, blockade)
    "MASK_LOCAL": "meanfield",
    "MASK_ATOM": "meanfield",
    "QuadratureSpec": "meanfield",
    "ShiftQuadrature": "meanfield",
    "ShiftGrid": "meanfield",
    "BlockadeBoundary": "meanfield",
    "shift_at": "meanfield",
    "shift_profile": "meanfield",
    "calibrated_offset": "meanfield",
    "blockade_boundary": "meanfield",
    # localization (scan-r, scan-z, scan-l, map3d)
    "MODE_NONE": "localization",
    "MODE_PARTIAL": "localization",
    "MODE_PERFECT": "localization",
    "OFFSET_CALIBRATED": "localization",
    "OFFSET_DETUNED": "localization",
    "ScanProfile": "localization",
    "Map3D": "localization",
    "transverse_scan": "localization",
    "longitudinal_scan": "localization",
    "oam_broadening_scan": "localization",
    "map3d": "localization",
    "iso_extents": "localization",
    # noise
    "KIND_INTENSITY": "noise",
    "KIND_FREQUENCY": "noise",
    "NoiseSpec": "noise",
    "NoisyScan": "noise",
    "noisy_transverse_scan": "noise",
    # output
    "RunManifest": "output",
    "write_table": "output",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = getattr(module, "PACKAGE_VERSION" if name == "__version__" else name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
