"""Result file rendering: manifests, tables, reproducible bytes."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexloc import cli, make_config, output
from vortexloc.config import config_echo
from vortexloc.output import (
    PACKAGE_NAME,
    PACKAGE_VERSION,
    RunManifest,
    _jsonable,
    fmt_number,
    render_csv,
    render_json,
    render_value,
    write_sidecar,
    write_table,
)

CFG = make_config(kappa=10.0)
# chunk sizes the renderers are checked at: a few rows, so every test table
# spans several chunks, and the size the library uses
CHUNK_ROWS = [1, 2, 7, output._CHUNK_ROWS]


def rendered(render, manifest, columns, summary, chunk_rows=None):
    """The text render writes into a handle, with chunk_rows rows per chunk if given."""
    handle = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        if chunk_rows is not None:
            patch.setattr(output, "_CHUNK_ROWS", chunk_rows)
        render(manifest, columns, summary, handle)
    return handle.getvalue()


def test_fmt_number_is_type_stable():
    assert fmt_number(True) == "1"
    assert fmt_number(False) == "0"
    assert fmt_number(3) == "3"
    assert fmt_number(np.int64(-7)) == "-7"
    assert fmt_number(0.5) == "0.5"
    assert fmt_number(1.0 / 3.0) == "0.3333333333"
    assert fmt_number(np.float64(2.5e-11)) == "2.5e-11"


def test_render_value_handles_missing_and_compound_values():
    assert render_value(None) == "none"
    assert render_value("radial") == "radial"
    assert render_value((1, 2.5)) == "1 2.5"


def test_config_echo_round_trips_to_mhz():
    echo = config_echo(CFG)
    assert echo["omega_c0_mhz"] == pytest.approx(80.0)
    assert echo["omega_p0_mhz"] == pytest.approx(8.0)
    assert echo["kappa"] == pytest.approx(10.0)
    assert echo["delta_c0_mhz"] == pytest.approx(30.0)
    assert echo["c6_mhz_um6"] == pytest.approx(1.4e5)
    assert echo["detuning_mode"] == "standing_wave"


def test_manifest_header_layout():
    manifest = RunManifest("scan-r", CFG, params={"samples": 201, "mode": "none"}, seed=4)
    lines = manifest.header_lines()
    assert lines[0] == f"# {PACKAGE_NAME} {PACKAGE_VERSION}"
    assert lines[1] == "# subcommand: scan-r"
    assert any(line == "# config.kappa = 10" for line in lines)
    assert any(line.startswith("# config.fingerprint = ") for line in lines)
    # params render sorted for stable bytes
    p_lines = [line for line in lines if line.startswith("# param.")]
    assert p_lines == sorted(p_lines)
    assert lines[-1] == "# seed = 4"


def test_csv_layout_and_column_length_check():
    manifest = RunManifest("scan-r", CFG, params={"samples": 3})
    text = rendered(render_csv, manifest, {"r_um": [0.0, 0.1, 0.2], "sigma_rr": [1.0, 0.5, 0.25]},
                    {"fwhm_um": 0.2})
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    assert "# summary.fwhm_um = 0.2" in header
    assert body[0] == "r_um,sigma_rr"
    assert body[1] == "0,1"
    assert body[3] == "0.2,0.25"
    with pytest.raises(ValueError, match="equal length"):
        rendered(render_csv, manifest, {"a": [1.0, 2.0], "b": [1.0]}, None)


def test_json_payload_parses_and_echoes_everything():
    manifest = RunManifest("scan-z", CFG, params={"samples": 2}, seed=9)
    payload = json.loads(rendered(render_json, manifest, {"z_um": np.array([0.1, 0.2])}, {"peak": 1.0}))
    assert payload["manifest"]["tool"] == PACKAGE_NAME
    assert payload["manifest"]["seed"] == 9
    assert payload["manifest"]["config"]["kappa"] == pytest.approx(10.0)
    assert payload["columns"]["z_um"] == [0.1, 0.2]
    assert payload["summary"]["peak"] == 1.0


def test_write_table_formats_and_rejects_unknown(tmp_path):
    manifest = RunManifest("steady", CFG, params={})
    out = tmp_path / "t.csv"
    assert write_table(str(out), manifest, {"v": [1.0]}, None, "csv") == str(out)
    assert out.read_text().startswith("# ")
    json_out = tmp_path / "t.json"
    write_table(str(json_out), manifest, {"v": [1.0]}, None, "json")
    json.loads(json_out.read_text())
    with pytest.raises(ValueError, match="unknown output format"):
        write_table(str(tmp_path / "t.xml"), manifest, {"v": [1.0]}, None, "xml")


def test_sidecar_holds_manifest_and_summary(tmp_path):
    manifest = RunManifest("map3d", CFG, params={"samples_per_axis": 11})
    path = tmp_path / "map.summary.json"
    write_sidecar(str(path), manifest, {"peak": 0.5})
    payload = json.loads(path.read_text())
    assert payload["summary"]["peak"] == 0.5
    assert payload["manifest"]["subcommand"] == "map3d"


def oracle_csv(manifest, columns, summary):
    """render_csv cell by cell through fmt_number."""
    lines = manifest.header_lines()
    for key in sorted(summary or {}):
        lines.append(f"# summary.{key} = {render_value(summary[key])}")
    arrays = [np.atleast_1d(np.asarray(v)) for v in columns.values()]
    length = arrays[0].shape[0] if arrays else 0
    rows = [",".join(fmt_number(arr[i]) for arr in arrays) for i in range(length)]
    return "\n".join(lines + [",".join(columns)] + rows) + "\n"


def oracle_json(manifest, columns, summary):
    """render_json as one json.dumps over the whole payload."""
    payload = {
        "manifest": manifest.to_dict(),
        "summary": _jsonable(summary or {}),
        "columns": {
            name: [_jsonable(v) for v in np.atleast_1d(np.asarray(values)).tolist()]
            for name, values in columns.items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


NAN_WITH_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
SPECIAL_FLOATS = [
    0.0, -0.0, np.nan, -np.nan, NAN_WITH_PAYLOAD, np.inf, -np.inf, 5e-324, 2.2250738585072e-308,
    1e-300, 1e16, 1.0 / 3.0, -2.5e-11, 123456789012.0,
]


def explicit_columns(n=12):
    floats = np.array((SPECIAL_FLOATS * n)[:n])
    return {
        "f": floats,
        "f32": floats.astype(np.float32),
        "f_big_endian": floats.astype(">f8"),
        "f_long": floats.astype(np.longdouble),
        "signed_zeros": np.array([0.0, -0.0, 0.0, 0.0, -0.0, 1.0] * (n // 6) + [-0.0] * (n % 6)),
        "grid": np.resize(np.meshgrid(np.linspace(-1.0, 1.0, 3), np.arange(max(n // 3, 1)), indexing="ij")[0], n),
        "i": np.arange(-5, n - 5),
        "u": np.arange(n, dtype=np.uint64) * (2**60),
        "b": np.arange(n) % 3 == 0,
        "o": np.array(([1.5, 2, True, np.float64(-0.0), np.int64(7), 1e16, np.nan, -np.inf, 1e-300, False] * n)[:n],
                      dtype=object),
        "lst": [0.1 * k for k in range(n)],
    }


def table_lengths(chunk_rows):
    """Row counts around the chunk boundaries, and the 12 rows of explicit_columns()."""
    return (0, 1, chunk_rows, chunk_rows + 1, 12)


def test_render_csv_equals_the_per_cell_oracle():
    manifest = RunManifest("map3d", CFG, params={})
    summary = {"peak": 1.0, "iso_x_um": (-0.5, 0.5), "absent": None}
    empty = {"a": np.array([]), "b": np.array([], dtype=np.int64)}
    for chunk_rows in CHUNK_ROWS:
        for n in table_lengths(chunk_rows):
            columns = explicit_columns(n)
            for summ in (None, summary):
                assert rendered(render_csv, manifest, columns, summ, chunk_rows) == oracle_csv(manifest, columns, summ)
        assert rendered(render_csv, manifest, {}, None, chunk_rows) == oracle_csv(manifest, {}, None)
        assert rendered(render_csv, manifest, empty, None, chunk_rows) == oracle_csv(manifest, empty, None)
    want = rendered(render_csv, manifest, explicit_columns(), None)
    assert "nan,nan" in want and "-inf" in want and "1e-300" in want and "1e+16" in want
    assert ",-0," in want and ",0," in want


def explicit_json_columns(n=12):
    columns = explicit_columns(n)
    columns["nested"] = [[1.0, -0.0], [np.nan, 2]]
    columns["empty"] = np.array([])
    columns["empty_list"] = []
    columns["text"] = np.array(["a", "b\nc"])
    columns["naïve \"name\""] = np.array([1.0, 1.0])
    return columns


def test_render_json_equals_the_dumps_oracle_on_explicit_columns():
    manifest = RunManifest("map3d", CFG, params={"samples": 3, "axes": ("x", "y")}, seed=2)
    summary = {"peak": np.float64(1.0), "iso_x_um": np.array([-0.5, 0.5]), "absent": None, "n": np.int64(3)}
    for chunk_rows in CHUNK_ROWS:
        for n in table_lengths(chunk_rows):
            columns = explicit_json_columns(n)
            for cols, summ in ((columns, summary), (columns, None), ({}, None), ({}, summary)):
                assert rendered(render_json, manifest, cols, summ, chunk_rows) == oracle_json(manifest, cols, summ)
    text = rendered(render_json, manifest, explicit_json_columns(), summary)
    assert "NaN" in text and "-Infinity" in text and "5e-324" in text and "1e+16" in text
    assert "-0.0" in text and "true" in text


def test_renderers_raise_what_the_oracles_raise():
    manifest = RunManifest("steady", CFG, params={})
    with pytest.raises(TypeError):
        oracle_csv(manifest, {"m": np.zeros((2, 2))}, None)
    with pytest.raises(TypeError):
        rendered(render_csv, manifest, {"m": np.zeros((2, 2))}, None)
    for columns in ({"c": np.array([1 + 2j])}, {"o": np.array([object()], dtype=object)}):
        with pytest.raises(TypeError):
            oracle_json(manifest, columns, None)
        with pytest.raises(TypeError):
            rendered(render_json, manifest, columns, None)
    for render in (render_csv, render_json):
        with pytest.raises(TypeError):
            rendered(render, manifest, {0: np.array([1.0])}, None)


# Tables each renderer refuses, with the error it raises: every check runs
# before the first write, and the file is made by that write.
REFUSED_TABLES = {
    "csv_unequal_lengths": ("csv", {"a": np.arange(3.0), "b": [1.0]}, None, ValueError),
    "csv_two_dimensional_cells": ("csv", {"v": np.arange(3.0), "m": np.zeros((3, 2))}, None, TypeError),
    "csv_non_string_name": ("csv", {"v": np.arange(3.0), 0: np.arange(3.0)}, None, TypeError),
    "csv_object_cell": ("csv", {"v": np.arange(3.0), "o": np.array([1.0, object(), 2.0], dtype=object)}, None,
                        TypeError),
    "csv_complex_column": ("csv", {"a": np.arange(3.0), "c": np.array([1.0, 1 + 2j, 3.0])}, None, TypeError),
    "csv_complex_cell": ("csv", {"a": np.arange(3.0), "o": np.array([1.0, np.complex64(1 + 2j), 2.0], dtype=object)},
                         None, TypeError),
    "json_non_string_name": ("json", {"v": np.arange(3.0), 0: np.arange(3.0)}, None, TypeError),
    "json_complex_cells": ("json", {"a": np.arange(3.0), "c": np.array([1.0, 1 + 2j, 3.0])}, None, TypeError),
    "json_object_cell": ("json", {"a": np.arange(3.0), "o": np.array([1.0, object(), 2.0], dtype=object)}, None,
                         TypeError),
    "json_complex_summary": ("json", {"a": np.arange(3.0)}, {"peak": 1j}, TypeError),
}


@pytest.mark.parametrize("case", list(REFUSED_TABLES))
def test_a_refused_table_leaves_no_file(case, tmp_path):
    file_format, columns, summary, error = REFUSED_TABLES[case]
    path = tmp_path / f"t.{file_format}"
    with pytest.raises(error):
        write_table(str(path), RunManifest("steady", CFG, params={}), columns, summary, file_format)
    assert not path.exists()


class Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        pass


@pytest.mark.parametrize("render", [render_csv, render_json])
def test_rendering_a_large_grid_holds_one_chunk_not_the_text(render):
    # a 64^3 map-like table: three grid columns and a field of the radius and z
    axis = np.linspace(-1.0, 1.0, 64)
    x, y, z = (c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij"))
    columns = {"x_um": x, "y_um": y, "z_um": z, "sigma_rr": np.exp(-(x * x + y * y)) * np.cos(z)}
    manifest = RunManifest("map3d", CFG, params={})
    tracemalloc.start()
    try:
        render(manifest, columns, None, Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.size < 64


SOME_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def column(draw, length, nested=True):
    """A column of one of the shapes the renderers distinguish, often with repeats."""
    kind = draw(st.sampled_from(["f8", "f4", "i8", "u8", "bool", "object", "list"] + ["nested"] * nested))
    if kind in ("f8", "f4", "list"):
        floats = st.floats(width=32) if kind == "f4" else SOME_FLOATS
        pool = draw(st.lists(floats, min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(pool) | floats, min_size=length, max_size=length))
        return values if kind == "list" else np.array(values, dtype=kind)
    if kind == "i8":
        ints = st.integers(-(2**63), 2**63 - 1)
        return np.array(draw(st.lists(ints, min_size=length, max_size=length)), dtype=np.int64)
    if kind == "u8":
        ints = st.integers(0, 2**64 - 1)
        return np.array(draw(st.lists(ints, min_size=length, max_size=length)), dtype=np.uint64)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=length, max_size=length)), dtype=bool)
    if kind == "object":
        cell = SOME_FLOATS | st.integers(-(2**70), 2**70) | st.booleans()
        return np.array(draw(st.lists(cell, min_size=length, max_size=length)), dtype=object)
    return [draw(st.lists(SOME_FLOATS, min_size=2, max_size=2)) for _ in range(length)]


@st.composite
def json_tables(draw):
    names = draw(st.lists(st.text(max_size=6), max_size=5, unique=True))
    columns = {name: draw(column(draw(st.integers(0, 40)))) for name in names}
    summary = draw(st.none() | st.dictionaries(st.text(max_size=6), SOME_FLOATS | st.text(max_size=4), max_size=3))
    return columns, summary


@st.composite
def csv_tables(draw):
    names = draw(st.lists(st.text(alphabet="abcxyz_", min_size=1, max_size=6), max_size=5, unique=True))
    length = draw(st.integers(0, 40))
    return {name: draw(column(length, nested=False)) for name in names}


@settings(max_examples=200, deadline=None)
@given(json_tables())
def test_render_json_equals_the_dumps_oracle(table):
    columns, summary = table
    manifest = RunManifest("scan-r", CFG, params={"samples": 3})
    want = oracle_json(manifest, columns, summary)
    for chunk_rows in CHUNK_ROWS:
        assert rendered(render_json, manifest, columns, summary, chunk_rows) == want


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_render_csv_equals_the_per_cell_oracle_on_random_tables(columns):
    manifest = RunManifest("scan-r", CFG, params={"samples": 3})
    want = oracle_csv(manifest, columns, None)
    for chunk_rows in CHUNK_ROWS:
        assert rendered(render_csv, manifest, columns, None, chunk_rows) == want


@pytest.mark.parametrize("file_format", ["csv", "json"])
def test_map3d_files_equal_the_oracle_renderers(file_format, tmp_path, monkeypatch):
    calls = {}
    real = getattr(output, f"render_{file_format}")

    def spy(manifest, columns, summary, handle):
        calls["args"] = (manifest, columns, summary)
        real(manifest, columns, summary, handle)

    monkeypatch.setattr(output, f"render_{file_format}", spy)
    ini = tmp_path / "run.ini"
    ini.write_text("[detuning]\ndelta_c0 = 1\n")
    out = tmp_path / f"map.{file_format}"
    argv = ["map3d", "--samples-per-axis", "9", "--kappa", "10", "--s0-mhz", "3", "--xy-half-um", "0.2",
            "--config", str(ini), "--format", file_format, "--out", str(out)]
    for chunk_rows in CHUNK_ROWS:
        monkeypatch.setattr(output, "_CHUNK_ROWS", chunk_rows)
        assert cli.main(argv) == 0
        manifest, columns, summary = calls["args"]
        assert len(columns["sigma_rr"]) == 9**3
        oracle = oracle_csv if file_format == "csv" else oracle_json
        assert out.read_text(encoding="utf-8") == oracle(manifest, columns, summary)
        sidecar = {"manifest": manifest.to_dict(), "summary": _jsonable(summary)}
        want = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / f"map.{file_format}.summary.json").read_text(encoding="utf-8") == want
