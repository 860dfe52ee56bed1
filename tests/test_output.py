"""Result file rendering: manifests, tables, reproducible bytes."""

import json

import numpy as np
import pytest

from vortexloc import make_config
from vortexloc.output import (
    PACKAGE_NAME,
    PACKAGE_VERSION,
    RunManifest,
    config_echo,
    fmt_number,
    render_csv,
    render_json,
    render_value,
    write_sidecar,
    write_table,
)

CFG = make_config(kappa=10.0)


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


def test_wall_clock_duration_never_reaches_the_file():
    manifest = RunManifest("steady", CFG, params={}, duration_s=1.23)
    twin = RunManifest("steady", CFG, params={}, duration_s=None)
    cols = {"value": [1.0]}
    assert render_csv(manifest, cols, None) == render_csv(twin, cols, None)
    assert "duration" not in render_json(manifest, cols, None)


def test_csv_layout_and_column_length_check():
    manifest = RunManifest("scan-r", CFG, params={"samples": 3})
    text = render_csv(manifest, {"r_um": [0.0, 0.1, 0.2], "sigma_rr": [1.0, 0.5, 0.25]},
                      {"fwhm_um": 0.2})
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    assert "# summary.fwhm_um = 0.2" in header
    assert body[0] == "r_um,sigma_rr"
    assert body[1] == "0,1"
    assert body[3] == "0.2,0.25"
    with pytest.raises(ValueError, match="equal length"):
        render_csv(manifest, {"a": [1.0, 2.0], "b": [1.0]}, None)


def test_json_payload_parses_and_echoes_everything():
    manifest = RunManifest("scan-z", CFG, params={"samples": 2}, seed=9)
    payload = json.loads(render_json(manifest, {"z_um": np.array([0.1, 0.2])}, {"peak": 1.0}))
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


def test_render_csv_equals_the_per_cell_oracle():
    floats = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e16, 1.0 / 3.0, -2.5e-11, 123456789012.0])
    columns = {
        "f": floats,
        "f32": floats.astype(np.float32),
        "i": np.arange(-5, 5),
        "u": np.arange(10, dtype=np.uint64) * (2**61),
        "b": np.arange(10) % 3 == 0,
        "o": np.array([1.5, 2, True, np.float64(-0.0), np.int64(7), 1e16, np.nan, -np.inf, 1e-300, False],
                      dtype=object),
        "lst": [0.1 * k for k in range(10)],
    }
    manifest = RunManifest("map3d", CFG, params={})
    arrays = [np.atleast_1d(np.asarray(v)) for v in columns.values()]
    rows = [",".join(fmt_number(arr[i]) for arr in arrays) for i in range(10)]
    want = "\n".join(manifest.header_lines() + [",".join(columns)] + rows) + "\n"
    assert render_csv(manifest, columns, None) == want
    assert "nan,nan" in want and "-inf" in want and "1e-300" in want and "1e+16" in want
