"""Shared fixtures.

The self-consistent delta calibrations are the only expensive setup, so they
are cached per (kappa, lattice) for the whole session and shared between the
unit tests and the acceptance suite.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from vortexloc import QuadratureSpec, ShiftQuadrature, calibrated_offset, make_config
from vortexloc.meanfield import FAST_SPACING, REFERENCE_SPACING


@lru_cache(maxsize=None)
def _calibration(kappa: float, fast: bool) -> tuple[float, float]:
    config = make_config(kappa=kappa)
    quad = QuadratureSpec.scaled(config.beam.wavelength_c, FAST_SPACING if fast else REFERENCE_SPACING)
    return calibrated_offset(config, quadrature=ShiftQuadrature(quad))


@pytest.fixture(scope="session")
def full_calibration():
    """kappa -> (s_0, delta) in rad/us on the reference 0.01 lambda_c lattice."""
    return lambda kappa: _calibration(float(kappa), False)


@pytest.fixture(scope="session")
def fast_calibration():
    """kappa -> (s_0, delta) in rad/us on the coarser 0.02 lambda_c lattice."""
    return lambda kappa: _calibration(float(kappa), True)
