"""Run manifests and table serialization.

Output files are reproducible byte for byte for equal inputs: the manifest
echoes the configuration, parameters and seed but never wall-clock data, and
numbers render through one fixed formatter.

The table renderers call that formatter once per distinct value of a numeric
column, so a 61^3 map3d grid column costs 61 formatter calls instead of
226,981. Each column's distinct values are found once, over the whole
column; the rows then go to the open file in chunks of _CHUNK_ROWS, each
chunk looking its cells up among those values. Only one chunk's strings are
alive at a time, so the memory a table needs beyond its columns is one
sort of a column, its distinct strings and one chunk, not its rendered
text. A 2^18-row map-like grid (three 64-value axes and a field of the
radius and z) peaks at 16-20 traced bytes per row, where rendering the
whole text took 218-254; a column whose values are all distinct adds about
95 bytes per row for its strings. Every check runs before the first write,
and the file is created by that write, so a rejected table leaves no file.
The bytes are those of the per-cell rendering: fmt_number for CSV,
json.dumps(sort_keys=True, indent=2) of the whole payload for JSON.
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
    """Fixed decimal rendering used by every writer; a complex value is a TypeError, as in JSON."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        raise TypeError(f"cannot render the complex value {value!r} as a number")
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


_CHUNK_ROWS = 8192


def _distinct_strings(arr: np.ndarray, fmt):
    """A function of a slice of rows -> [fmt of each cell of arr[rows]].

    fmt runs once per bitwise-distinct value of the whole 1-D array, up front;
    a chunk looks its cells up in the sorted distinct bits. Floats render as
    float64, which is how json and %-formatting see them. Distinctness is taken
    on the unsigned-int view, so 0.0 and -0.0 stay apart.
    """
    if arr.dtype.kind == "f":
        arr = arr.astype(np.float64, copy=False)
    bits = arr.view(np.dtype(f"u{arr.dtype.itemsize}"))
    # np.unique without an index output imports numpy.ma (10-20 ms) to test for a mask
    distinct = np.sort(bits)
    first = np.ones(distinct.shape, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    strings = np.array([fmt(v) for v in distinct.view(arr.dtype).tolist()], dtype=object)
    return lambda rows: strings[np.searchsorted(distinct, bits[rows])].tolist()


def _json_block(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) for a value nested at `indent`."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def render_csv(manifest: RunManifest, columns: dict[str, object], summary: dict | None, handle) -> None:
    """Write the CSV table to a text handle, _CHUNK_ROWS rows per write, after every check."""
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
    # per column, its cells by row slice; other kinds are rendered whole, up front
    cells = [
        _distinct_strings(arr, _CSV_SPELLING[arr.dtype.kind])
        if arr.ndim == 1 and arr.dtype.kind in _CSV_SPELLING
        else [fmt_number(v) for v in arr].__getitem__
        for arr in arrays
    ]
    handle.write("\n".join(lines) + "\n")
    for start in range(0, length, _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        handle.write("\n".join(map(",".join, zip(*(column(rows) for column in cells)))) + "\n")


def render_json(manifest: RunManifest, columns: dict[str, object], summary: dict | None, handle) -> None:
    """Write the bytes of json.dumps({"columns", "manifest", "summary"}, sort_keys=True, indent=2).

    Numeric 1-D columns are spliced in cell by cell, in json's spellings,
    _CHUNK_ROWS cells per write; every other part goes through json.dumps
    itself, before the first write.
    """
    names = sorted(columns)
    blocks = []  # per column (cell count, cells by row slice), or (0, its whole json text)
    for name in names:
        if not isinstance(name, str):
            raise TypeError(f"column names must be strings, got {name!r}")
        arr = np.atleast_1d(np.asarray(columns[name]))
        if arr.ndim == 1 and arr.size and arr.dtype.kind in _JSON_SPELLING:
            blocks.append((arr.size, _distinct_strings(arr, _JSON_SPELLING[arr.dtype.kind])))
        else:
            blocks.append((0, _json_block([_jsonable(v) for v in arr.tolist()], "    ")))
    tail = (
        ("\n  }" if columns else "}")
        + ',\n  "manifest": ' + _json_block(manifest.to_dict(), "  ")
        + ',\n  "summary": ' + _json_block(_jsonable(summary or {}), "  ")
        + "\n}\n"
    )
    handle.write('{\n  "columns": {')
    for i, (name, (length, block)) in enumerate(zip(names, blocks)):
        handle.write(("," if i else "") + "\n    " + json.dumps(name) + ": ")
        if not length:
            handle.write(block)
            continue
        handle.write("[\n      ")
        for start in range(0, length, _CHUNK_ROWS):
            cells = block(slice(start, start + _CHUNK_ROWS))
            handle.write((",\n      " if start else "") + ",\n      ".join(cells))
        handle.write("\n    ]")
    handle.write(tail)


class _CreatedOnFirstWrite:
    """A text file opened by its first write, so a table rejected before any
    write leaves no file, and an existing file untouched."""

    def __init__(self, path: str):
        self.path, self.file = path, None

    def write(self, text: str) -> None:
        if self.file is None:
            self.file = open(self.path, "w", encoding="utf-8")
        self.file.write(text)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def write_table(
    path: str,
    manifest: RunManifest,
    columns: dict[str, object],
    summary: dict | None = None,
    file_format: str = "csv",
) -> str:
    """Write one result table; returns the path written."""
    if file_format == "csv":
        render = render_csv
    elif file_format == "json":
        render = render_json
    else:
        raise ValueError(f"unknown output format '{file_format}'")
    handle = _CreatedOnFirstWrite(path)
    try:
        render(manifest, columns, summary, handle)
    finally:
        handle.close()
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
