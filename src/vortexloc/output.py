"""Run manifests and table serialization.

Output files are reproducible byte for byte for equal inputs: the manifest
echoes the configuration, parameters and seed but never wall-clock data, and
numbers render through one fixed formatter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import SystemConfig, mhz_from_angular

PACKAGE_NAME = "vortex-localize"
PACKAGE_VERSION = "0.1.0"


def fmt_number(value) -> str:
    """Fixed decimal rendering used by every writer."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return " ".join(render_value(v) for v in value)
    return fmt_number(value)


def config_echo(config: SystemConfig) -> dict[str, object]:
    """Flat readable view of a configuration in MHz and um."""
    beam, probe, det, med = config.beam, config.probe, config.detuning, config.medium
    return {
        "omega_c0_mhz": mhz_from_angular(beam.omega_c0),
        "waist_w0_um": beam.waist_w0,
        "winding_l": beam.winding_l,
        "wavelength_c_um": beam.wavelength_c,
        "omega_p0_mhz": mhz_from_angular(probe.omega_p0),
        "kappa": config.kappa,
        "delta_p_mhz": mhz_from_angular(probe.delta_p),
        "detuning_mode": det.mode,
        "delta_c_const_mhz": mhz_from_angular(det.delta_c_const),
        "delta_c0_mhz": mhz_from_angular(det.delta_c0),
        "delta_shift_mhz": mhz_from_angular(det.delta_shift),
        "period_um": det.period,
        "gamma_e_mhz": mhz_from_angular(med.gamma_e),
        "gamma_r_mhz": mhz_from_angular(med.gamma_r),
        "density_rho_um3": med.density_rho,
        "c6_mhz_um6": mhz_from_angular(med.c6),
    }


@dataclass
class RunManifest:
    """What produced a result file. Wall-clock duration stays out of file bytes."""

    subcommand: str
    config: SystemConfig
    params: dict = field(default_factory=dict)
    seed: int | None = None
    version: str = PACKAGE_VERSION
    duration_s: float | None = None

    def header_lines(self) -> list[str]:
        lines = [f"# {PACKAGE_NAME} {self.version}", f"# subcommand: {self.subcommand}"]
        for key, value in config_echo(self.config).items():
            lines.append(f"# config.{key} = {render_value(value)}")
        lines.append(f"# config.fingerprint = {self.config.fingerprint()}")
        for key in sorted(self.params):
            lines.append(f"# param.{key} = {render_value(self.params[key])}")
        if self.seed is not None:
            lines.append(f"# seed = {int(self.seed)}")
        return lines

    def to_dict(self) -> dict:
        return {
            "tool": PACKAGE_NAME,
            "version": self.version,
            "subcommand": self.subcommand,
            "config": {k: _jsonable(v) for k, v in config_echo(self.config).items()},
            "config_fingerprint": self.config.fingerprint(),
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "seed": None if self.seed is None else int(self.seed),
        }


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def render_csv(manifest: RunManifest, columns: dict[str, object], summary: dict | None) -> str:
    lines = manifest.header_lines()
    if summary:
        for key in sorted(summary):
            lines.append(f"# summary.{key} = {render_value(summary[key])}")
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[name])) for name in names]
    length = arrays[0].shape[0] if arrays else 0
    for arr in arrays:
        if arr.shape[0] != length:
            raise ValueError("all columns must have equal length")
    lines.append(",".join(names))
    # One printf template per row, chosen by column dtype; each field renders
    # exactly as fmt_number would render it. Other dtypes go through fmt_number.
    fields, cells = [], []
    for arr in arrays:
        if arr.dtype.kind == "f":
            fields.append("%.10g")
            cells.append(arr.tolist())
        elif arr.dtype.kind in "iub":
            fields.append("%d")
            cells.append(arr.tolist())
        else:
            fields.append("%s")
            cells.append([fmt_number(v) for v in arr])
    lines.extend(map(",".join(fields).__mod__, zip(*cells)))
    return "\n".join(lines) + "\n"


def render_json(manifest: RunManifest, columns: dict[str, object], summary: dict | None) -> str:
    payload = {
        "manifest": manifest.to_dict(),
        "summary": _jsonable(summary or {}),
        "columns": {
            name: [_jsonable(v) for v in np.atleast_1d(np.asarray(values)).tolist()]
            for name, values in columns.items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_table(
    path: str,
    manifest: RunManifest,
    columns: dict[str, object],
    summary: dict | None = None,
    file_format: str = "csv",
) -> str:
    """Write one result table; returns the path written."""
    if file_format == "csv":
        text = render_csv(manifest, columns, summary)
    elif file_format == "json":
        text = render_json(manifest, columns, summary)
    else:
        raise ValueError(f"unknown output format '{file_format}'")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def write_sidecar(path: str, manifest: RunManifest, summary: dict) -> str:
    """Small JSON summary next to a bulky field file."""
    payload = {"manifest": manifest.to_dict(), "summary": _jsonable(summary)}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


__all__ = [
    "PACKAGE_NAME",
    "PACKAGE_VERSION",
    "RunManifest",
    "config_echo",
    "fmt_number",
    "render_value",
    "render_csv",
    "render_json",
    "write_table",
    "write_sidecar",
]
