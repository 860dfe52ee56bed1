"""Run manifests and table serialization.

Output files are reproducible byte for byte for equal inputs: the manifest
echoes the configuration, parameters and seed but never wall-clock data, and
numbers render through one fixed formatter.

The table renderers call that formatter once per distinct value of a numeric
column and gather the strings back into row order, so a 61^3 map3d grid
column costs 61 formatter calls instead of 226,981. The bytes are those of
the per-cell rendering: fmt_number for CSV, json.dumps(sort_keys=True,
indent=2) of the whole payload for JSON.
"""

from __future__ import annotations

import json
import math
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
    """What produced a result file; every field is deterministic, so file bytes are too."""

    subcommand: str
    config: SystemConfig
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def header_lines(self) -> list[str]:
        lines = [f"# {PACKAGE_NAME} {PACKAGE_VERSION}", f"# subcommand: {self.subcommand}"]
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
            "version": PACKAGE_VERSION,
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


def _json_float(value: float) -> str:
    """json's own spelling of a float: repr, or NaN/Infinity/-Infinity."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


# Per dtype kind, the string of one cell as json.dumps and as fmt_number give it.
_JSON_SPELLING = {"f": _json_float, "i": repr, "u": repr, "b": json.dumps}
_CSV_SPELLING = {"f": "%.10g".__mod__, "i": "%d".__mod__, "u": "%d".__mod__, "b": "%d".__mod__}


def _distinct_strings(arr: np.ndarray, fmt) -> list[str]:
    """fmt of every cell of a 1-D array, calling fmt once per bitwise-distinct value.

    Floats render as float64, which is how json and %-formatting see them.
    Distinctness is taken on the unsigned-int view, so 0.0 and -0.0 stay apart.
    """
    if arr.dtype.kind == "f":
        arr = arr.astype(np.float64, copy=False)
    bits = arr.view(np.dtype(f"u{arr.dtype.itemsize}"))
    distinct, inverse = np.unique(bits, return_inverse=True)
    strings = np.array([fmt(v) for v in distinct.view(arr.dtype).tolist()], dtype=object)
    return strings[inverse].tolist()


def _json_block(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a value nested at `indent`."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


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
    cells = [
        _distinct_strings(arr, _CSV_SPELLING[arr.dtype.kind])
        if arr.ndim == 1 and arr.dtype.kind in _CSV_SPELLING
        else [fmt_number(v) for v in arr]
        for arr in arrays
    ]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def render_json(manifest: RunManifest, columns: dict[str, object], summary: dict | None) -> str:
    """The bytes of json.dumps({"columns", "manifest", "summary"}, sort_keys=True, indent=2).

    Numeric 1-D columns are spliced in cell by cell, in json's spellings;
    every other part goes through json.dumps itself.
    """
    parts = ['{\n  "columns": {']
    for i, name in enumerate(sorted(columns)):
        if not isinstance(name, str):
            raise TypeError(f"column names must be strings, got {name!r}")
        arr = np.atleast_1d(np.asarray(columns[name]))
        parts.append(("," if i else "") + "\n    " + json.dumps(name) + ": ")
        if arr.ndim == 1 and arr.size and arr.dtype.kind in _JSON_SPELLING:
            cells = _distinct_strings(arr, _JSON_SPELLING[arr.dtype.kind])
            parts.extend(("[\n      ", ",\n      ".join(cells), "\n    ]"))
        else:
            parts.append(_json_block([_jsonable(v) for v in arr.tolist()], "    "))
    parts.append("\n  }" if columns else "}")
    parts.append(',\n  "manifest": ' + _json_block(manifest.to_dict(), "  "))
    parts.append(',\n  "summary": ' + _json_block(_jsonable(summary or {}), "  "))
    parts.append("\n}\n")
    return "".join(parts)


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
