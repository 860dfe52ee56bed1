"""End-to-end command-line runs: parsing, outputs, determinism, exit codes."""

import concurrent.futures
import dataclasses
import json
import math

import numpy as np
import pytest

from vortexloc import cli, localization, make_config, meanfield, noise
from vortexloc.bloch import LocalDrive, steady_sigma_rr
from vortexloc.cli import build_parser, main, parse_config
from vortexloc.config import PARAMETERS, TWO_PI, Position, config_echo
from vortexloc.localization import analytic_a_r
from vortexloc.output import fmt_number

QUADRATURE_COMMANDS = ("scan-r", "scan-z", "map3d", "shift", "calibrate-delta", "noise")
PLAIN_COMMANDS = ("steady", "scan-l", "blockade", "steady-time")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _summary_value(text: str, key: str) -> str:
    for line in text.splitlines():
        prefix = f"# summary.{key} = "
        if line.startswith(prefix):
            return line[len(prefix) :]
    raise AssertionError(f"summary key {key} not found")


def _column(text: str, name: str) -> list[str]:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    header = rows[0].split(",")
    i = header.index(name)
    return [row.split(",")[i] for row in rows[1:]]


def test_parse_config_reads_all_sections(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[beam]\nomega_c0 = 40\nwaist_w0 = 2.0\n"
        "[probe]\nkappa = 50\n"
        "[medium]\ngamma_e = 6.05\n"
        "[quadrature]\nspacing = 0.05\nextent = 80\n"
        "[noise]\nkind = frequency\nstd = 0.3\ntrajectories = 4\nseed = 9\n"
    )
    physics, flags = parse_config(str(path))
    assert physics == {
        "omega_c0_mhz": 40.0,
        "waist_w0_um": 2.0,
        "kappa": 50.0,
        "gamma_e_mhz": 6.05,
    }
    # [quadrature] and [noise] keys land on the dests of the flags they stand in for
    assert flags == {
        "grid_spacing": 0.05,
        "grid_extent": 80.0,
        "kind": "frequency",
        "std": 0.3,
        "trajectories": 4,
        "seed": 9,
    }
    types = {key: type(value) for key, value in {**physics, **flags}.items()}
    assert types == {
        "omega_c0_mhz": float,
        "waist_w0_um": float,
        "kappa": float,
        "gamma_e_mhz": float,
        "grid_spacing": float,
        "grid_extent": float,
        "kind": str,
        "std": float,
        "trajectories": int,
        "seed": int,
    }


# a value other than its default for every physics key a config file accepts
NON_DEFAULT = {
    "omega_c0": "70", "waist_w0": "1.25", "winding_l": "2", "wavelength_c": "0.5", "omega_p0": "0.5",
    "kappa": "150", "delta_p": "-2", "mode": "constant", "delta_c_const": "3", "delta_c0": "25",
    "delta_shift": "26", "period": "0.45", "gamma_e": "6.5", "gamma_r": "0.01", "density_rho": "0.5", "c6": "1.2e5",
}


@pytest.mark.parametrize("amplitude", ["kappa", "omega_p0"])
def test_every_physics_key_of_a_config_file_comes_back_under_its_keyword(amplitude, tmp_path):
    # each key of the table, with one of the two probe amplitudes, through
    # parse_config, make_config and config_echo
    other = {"kappa": "omega_p0", "omega_p0": "kappa"}[amplitude]
    rows = [row for row in PARAMETERS if row[1] != other]
    sections: dict = {}
    for section, key, _, _ in rows:
        sections.setdefault(section, []).append(f"{key} = {NON_DEFAULT[key]}\n")
    path = tmp_path / "run.ini"
    path.write_text("".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items()))
    physics, flags = parse_config(str(path))
    assert flags == {}
    echo, default = config_echo(make_config(**physics)), config_echo(make_config())
    assert list(echo) == [keyword for _, _, keyword, _ in PARAMETERS]
    for _, key, keyword, cast in rows:
        assert echo[keyword] != default[keyword]
        if cast is float:
            assert echo[keyword] == pytest.approx(float(NON_DEFAULT[key]), rel=1e-12)
        else:
            assert echo[keyword] == cast(NON_DEFAULT[key])


def test_parse_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[beam]\nwaste = 1.0\n")
    with pytest.raises(ValueError, match="unknown config key 'waste'"):
        parse_config(str(path))
    code, out, err = run(["steady", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "error in parse_config" in err

    path2 = tmp_path / "bad2.ini"
    path2.write_text("[laser]\npower = 1\n")
    with pytest.raises(ValueError, match="unknown config section"):
        parse_config(str(path2))
    with pytest.raises(ValueError, match="not found"):
        parse_config(str(tmp_path / "missing.ini"))


def test_kappa_flag_wins_over_file_probe_settings(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text("[probe]\nomega_p0 = 50.0\n")
    out_file = tmp_path / "steady.csv"
    code, out, _ = run(
        ["steady", "--config", str(path), "--kappa", "250", "--out", str(out_file)], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    got = float(lines[0].split()[0].removeprefix("sigma_rr="))
    cfg = make_config(kappa=250.0)
    beam = cfg.beam
    pos = Position(r=beam.waist_w0 / math.sqrt(2.0), z=0.75 * beam.wavelength_c)
    want = steady_sigma_rr(LocalDrive.from_config(cfg, pos))
    assert got == pytest.approx(want, rel=1e-9)
    assert "# config.kappa = 250" in out_file.read_text()


def test_scan_r_reports_the_narrow_width(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    code, out, _ = run(
        ["scan-r", "--kappa", "500", "--format", "json", "--out", str(out_file)], capsys
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["manifest"]["subcommand"] == "scan-r"
    assert payload["manifest"]["tool"] == "vortex-localize"
    assert payload["manifest"]["config"]["kappa"] == pytest.approx(500.0, rel=1e-12)
    assert payload["summary"]["peak"] == 1.0
    assert payload["summary"]["fwhm_um"] == pytest.approx(0.004014, rel=1e-3)
    assert payload["summary"]["fwhm_um"] == pytest.approx(analytic_a_r(500.0), rel=5e-3)
    assert len(payload["columns"]["r_um"]) == 201
    assert "duration" not in json.dumps(payload)
    assert "fwhm_um=" in out


def test_a_partial_scan_r_quadratures_its_grid_once_and_each_new_bisection_radius_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(atoms, config, quadrature):
        calls.append(atoms)
        return meanfield.shift_at(atoms, config, quadrature)

    monkeypatch.setattr(localization, "shift_at", counted)
    argv = ["scan-r", "--mode", "partial", "--grid-spacing", "0.2", "--samples", "100", "--out", str(tmp_path / "s.csv")]
    assert run(argv, capsys)[0] == 0
    cfg = make_config()
    r = np.linspace(0.0, 1.5 * cfg.beam.waist_w0, 100)
    grid, *bisection = calls
    assert [atom.r for atom in grid] == r.tolist()
    assert all(isinstance(atom, Position) for atom in bisection)
    radii = [atom.r for atom in bisection]
    assert len(set(radii)) == len(radii) and not set(radii) & set(r.tolist())
    # the crossing's grid step, halved down to 1e-4 lambda_c, one new radius a halving
    i = int(np.searchsorted(r, radii[0]))
    assert all(r[i - 1] < x < r[i] for x in radii)
    assert len(radii) == math.ceil(math.log2((r[1] - r[0]) / (1e-4 * cfg.beam.wavelength_c)))


@pytest.mark.parametrize(
    "argv, message",
    [
        # far outside the beam the control envelope is 0, where it was NaN (|l| = 2) or warned (|l| = 1)
        (["steady", "--r-um", "1e200", "--config", "l2.ini"], None),
        (["blockade", "--r-um", "1e300"], None),
        (["noise", "--kind", "intensity", "--std", "1e300", "--trajectories", "2", "--s0-mhz", "0.4"],
         "error in noisy_transverse_scan: intensity noise of std_dev 1e+300 overflows the steady population"),
        (["blockade", "--resolution", "100000000000"],
         "error in blockade_boundary: resolution must be at most 4096 directions, got 100000000000"),
        (["map3d", "--samples-per-axis", "100000", "--s0-mhz", "0.4"],
         "error in map3d: samples_per_axis must be at most 201, got 100000"),
        (["noise", "--kind", "frequency", "--std", "1e200", "--trajectories", "2", "--s0-mhz", "0.4"],
         "error in noisy_transverse_scan: frequency noise of std_dev 6.28319e+200 rad/us (1e+200 MHz) "
         "overflows the steady population"),
        (["scan-r", "--samples", "1000000000000"],
         "error in transverse_scan: n_samples must be at most 10000, got 1000000000000"),
        (["scan-z", "--kappa", "180", "--s0-mhz", "0.415", "--samples", "1000000000000"],
         "error in longitudinal_scan: n_samples must be at most 10000, got 1000000000000"),
        (["noise", "--s0-mhz", "0.415", "--samples", "1000000000000", "--trajectories", "1"],
         "error in noisy_transverse_scan: n_samples must be at most 10000, got 1000000000000"),
        (["shift", "--samples", "1000000000000", "--grid-spacing", "0.16"],
         "error in shift_profile: --samples must be at most 10000, got 1000000000000"),
        (["calibrate-delta", "--grid-spacing", "1e-10"],
         "error in QuadratureSpec.scaled: extent_r / spacing_r must be at most 1000000 cells, got 1e+12"),
    ],
    ids=[
        "steady-far-l2", "blockade-far", "noise-overflow", "blockade-directions", "map3d-samples",
        "noise-frequency-overflow", "scan-r-samples", "scan-z-samples", "noise-samples", "shift-samples",
        "calibrate-lattice-cells",
    ],
)
def test_far_radii_run_finite_and_oversized_runs_are_refused_by_name(argv, message, tmp_path, capsys):
    (tmp_path / "l2.ini").write_text("[beam]\nwinding_l = 2\n", encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith(".ini") else a for a in argv]
    out_file = tmp_path / "out.csv"
    code, out, err = run([*argv, "--out", str(out_file)], capsys)
    if message is None:
        assert code == 0
        assert "nan" not in out and "nan" not in out_file.read_text()
    else:
        assert code == 2
        assert err == f"vortex-localize {argv[0]}: {message}\n"
        assert not out_file.exists()


def test_zero_noise_run_matches_the_deterministic_scan(tmp_path, capsys):
    noise_file = tmp_path / "noise.csv"
    scan_file = tmp_path / "scan.csv"
    common = ["--kappa", "180", "--samples", "121"]
    code, _, _ = run(
        ["noise", "--kind", "intensity", "--std", "0", "--trajectories", "3", "--s0-mhz", "0.415",
         "--x-max-um", "0.06", "--out", str(noise_file)] + common,
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["scan-r", "--r-max-um", "0.06", "--out", str(scan_file)] + common, capsys
    )
    assert code == 0
    noisy = _column(noise_file.read_text(), "sigma_rr")
    clean = _column(scan_file.read_text(), "sigma_rr")
    assert noisy[len(noisy) - len(clean) :] == clean  # textual, digit for digit
    spread = set(_column(noise_file.read_text(), "sigma_rr_std"))
    assert spread == {"0"}


def test_worker_count_never_changes_written_bytes(tmp_path, capsys):
    args = ["shift", "--kappa", "100", "--samples", "5", "--grid-spacing", "0.05"]
    one = tmp_path / "one.csv"
    four = tmp_path / "four.csv"
    assert run(args + ["--threads", "1", "--out", str(one)], capsys)[0] == 0
    assert run(args + ["--threads", "4", "--out", str(four)], capsys)[0] == 0
    assert one.read_bytes() == four.read_bytes()


def test_reruns_are_byte_identical(tmp_path, capsys):
    args = ["scan-z", "--kappa", "500", "--s0-mhz", "0.062", "--format", "json"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(args + ["--out", str(first)], capsys)[0] == 0
    assert run(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_map3d_writes_a_summary_sidecar(tmp_path, capsys, fast_calibration):
    s0, _ = fast_calibration(100.0)
    out_file = tmp_path / "map.csv"
    code, out, _ = run(
        ["map3d", "--kappa", "100", "--samples-per-axis", "41",
         "--s0-mhz", repr(s0 / TWO_PI), "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    sidecar = tmp_path / "map.csv.summary.json"
    assert out_file.exists() and sidecar.exists()
    payload = json.loads(sidecar.read_text())
    assert payload["summary"]["peak"] == 1.0
    assert payload["summary"]["iso_width_x_um"] == pytest.approx(analytic_a_r(100.0), rel=0.03)
    assert payload["summary"]["iso_width_x_um"] == pytest.approx(
        payload["summary"]["iso_width_y_um"], rel=1e-12
    )
    assert "peak=1" in out


def test_calibrate_delta_reports_the_offset(tmp_path, capsys):
    out_file = tmp_path / "cal.json"
    code, out, _ = run(
        ["calibrate-delta", "--kappa", "10", "--grid-spacing", "0.02",
         "--format", "json", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out_file.read_text())["summary"]
    assert summary["delta_mhz"] == pytest.approx(37.77, rel=0.02)
    assert summary["delta_mhz"] == pytest.approx(
        summary["delta_c0_mhz"] + summary["s0_mhz"], rel=1e-12
    )
    assert "delta_mhz=" in out


def test_scan_l_table_grows_with_winding(tmp_path, capsys):
    out_file = tmp_path / "oam.csv"
    code, _, _ = run(
        ["scan-l", "--kappa", "10", "--l-values", "1,2", "--out", str(out_file)], capsys
    )
    assert code == 0
    text = out_file.read_text()
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "winding_l,fwhm_um,fwhm_lambda"
    assert len(rows) == 3
    widths = [float(v) for v in _column(text, "fwhm_um")]
    assert widths[0] < widths[1]


def test_blockade_table_and_summary(tmp_path, capsys):
    out_file = tmp_path / "blockade.csv"
    code, _, _ = run(
        ["blockade", "--kappa", "100", "--resolution", "16", "--out", str(out_file)], capsys
    )
    assert code == 0
    text = out_file.read_text()
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "angle_rad,distance_um,r_um,z_um"
    assert len(rows) == 17
    assert float(_summary_value(text, "r_b_atom_um")) == pytest.approx(9.437, abs=0.005)
    distances = [float(v) for v in _column(text, "distance_um")]
    assert min(distances) > 0.0


def test_steady_time_at_the_reference_point(tmp_path, capsys):
    out_file = tmp_path / "time.csv"
    code, out, _ = run(
        ["steady-time", "--kappa", "100", "--budget-us", "20", "--out", str(out_file)], capsys
    )
    assert code == 0
    t_us = float(out.split("t_steady_us=")[1].split()[0])
    assert t_us == pytest.approx(3.535, abs=0.05)


@pytest.mark.parametrize(
    "argv, flag, value, key",
    [
        (["steady-time", "--kappa", "10", "--budget-us", "5"], "--dt-us", "0.0005", "dt_us"),
        (["scan-l", "--kappa", "10", "--l-values", "1"], "--r-max-um", "0.9", "r_max_um"),
    ],
)
def test_flags_that_change_results_are_in_the_manifest(argv, flag, value, key, tmp_path, capsys):
    # two runs that differ only in the flag must not write identical headers
    out_file = tmp_path / "run.csv"
    headers = []
    for extra in ([], [flag, value]):
        assert run(argv + extra + ["--out", str(out_file)], capsys)[0] == 0
        headers.append([line for line in out_file.read_text().splitlines() if line.startswith("# param.")])
    assert f"# param.{key} = none" in headers[0]
    assert f"# param.{key} = {value}" in headers[1]
    assert headers[0] != headers[1]


def test_default_output_name_lands_in_the_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(["steady", "--kappa", "100"], capsys)
    assert code == 0
    assert (tmp_path / "vortex-steady.csv").exists()
    assert "# wrote vortex-steady.csv" in err


def test_noise_defaults_to_the_narrow_working_point(tmp_path, capsys):
    out_file = tmp_path / "noise.csv"
    code, _, _ = run(
        ["noise", "--std", "0", "--trajectories", "1", "--s0-mhz", "0.415",
         "--seed", "4", "--x-max-um", "0.06", "--samples", "121", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    text = out_file.read_text()
    assert "# config.kappa = 180" in text
    assert "# seed = 4" in text


def test_argparse_rejects_bad_invocations(capsys):
    for argv in (
        ["scan-r", "--format", "xml"],
        ["scan-r", "--bogus"],
        ["warp-speed"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def _forbid_handlers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no handler may run")

    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, dataclasses.replace(command, run=forbidden))


@pytest.mark.parametrize("threads", ["0", "-1", "65"])
def test_out_of_range_threads_are_rejected_before_any_work(threads, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("no worker may start and no handler may run")

    monkeypatch.setattr(meanfield, "map_ordered", forbidden)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", forbidden)
    _forbid_handlers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["noise", "--s0-mhz", "0.4", "--trajectories", "2000", "--threads", threads])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    message = err.strip().splitlines()[-1]
    assert "--threads" in message
    assert "between 1 and 64" in message


@pytest.mark.parametrize("command", PLAIN_COMMANDS)
@pytest.mark.parametrize(
    "flag",
    [("--threads", "2"), ("--grid-spacing", "0.05"), ("--mask", "atom"), ("--tail-tol", "0.5"), ("--seed", "1")],
    ids=lambda flag: flag[0],
)
def test_subcommands_without_a_quadrature_reject_its_flags(command, flag, monkeypatch, capsys):
    _forbid_handlers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([command, "--kappa", "10", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [c for c in QUADRATURE_COMMANDS if c != "noise"])
def test_only_noise_takes_a_seed(command, monkeypatch, capsys):
    _forbid_handlers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([command, "--kappa", "10", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", QUADRATURE_COMMANDS)
def test_quadrature_subcommands_take_the_quadrature_flags(command):
    args = build_parser().parse_args(
        [command, "--threads", "2", "--grid-spacing", "0.05", "--grid-extent", "80", "--mask", "atom",
         "--tail-tol", "0.5"]
        + (["--seed", "1"] if command == "noise" else [])
    )
    assert (args.threads, args.grid_spacing, args.grid_extent) == (2, 0.05, 80.0)
    assert (args.mask, args.tail_tol) == ("atom", 0.5)
    assert getattr(args, "seed", None) == (1 if command == "noise" else None)


def test_shared_flags_sit_only_on_the_subcommands_that_use_them():
    # 5 common flags on all ten subcommands, 5 quadrature flags on six, --seed on noise
    shared = {"--config", "--out", "--format", "--kappa", "--omega-p0-mhz", "--threads",
              "--grid-spacing", "--grid-extent", "--mask", "--tail-tol", "--seed"}
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(QUADRATURE_COMMANDS + PLAIN_COMMANDS)
    accepted = [
        (name, flag)
        for name, sub in subparsers.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag in shared
    ]
    assert len(accepted) == 81


def test_quadrature_section_of_the_config_file_yields_to_the_flag(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[quadrature]\nspacing = 0.05\n")
    lam = make_config().beam.wavelength_c
    args = ["scan-z", "--kappa", "500", "--s0-mhz", "0.062", "--config", str(ini)]
    for extra, multiple in (([], 0.05), (["--grid-spacing", "0.04"], 0.04)):
        out_file = tmp_path / "scan.csv"
        assert run(args + extra + ["--out", str(out_file)], capsys)[0] == 0
        text = out_file.read_text()
        assert f"# param.quad_spacing_r_um = {fmt_number(multiple * lam)}\n" in text
        assert f"# param.quad_extent_r_um = {fmt_number(100.0 * lam)}\n" in text


def test_noise_seed_comes_from_the_flag_then_the_file_then_zero(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[noise]\nseed = 11\n")
    base = ["noise", "--std", "0", "--trajectories", "1", "--s0-mhz", "0.415", "--x-max-um", "0.06",
            "--samples", "121"]
    for extra, seed in (
        (["--config", str(ini)], 11),
        (["--config", str(ini), "--seed", "4"], 4),
        ([], 0),
    ):
        out_file = tmp_path / "noise.csv"
        assert run(base + extra + ["--out", str(out_file)], capsys)[0] == 0
        assert f"\n# seed = {seed}\n" in out_file.read_text()


def test_runtime_errors_name_the_failing_operation(tmp_path, capsys):
    code, out, err = run(["scan-r", "--kappa", "500", "--r-max-um", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "error in transverse_scan" in err
    assert "r_max" in err
    code, _, err = run(["steady", "--kappa", "-3"], capsys)
    assert code == 2
    assert "error in make_config: kappa must be positive" in err
    code, _, err = run(["shift", "--grid-spacing", "-1"], capsys)
    assert code == 2
    assert "error in QuadratureSpec.scaled: " in err
    code, _, err = run(["steady-time", "--kappa", "10", "--intensity-ratio", "19"], capsys)
    assert code == 2
    assert "exceeds the envelope maximum" in err
    code, _, err = run(["steady-time", "--kappa", "10", "--intensity-ratio", "-1"], capsys)
    assert code == 2
    assert "intensity ratio must be positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan-r", "--r-max-um", "nan"], "error in transverse_scan: r_max must be finite, got nan"),
        (["scan-r", "--r-max-um", "inf"], "error in transverse_scan: r_max must be finite, got inf"),
        (["noise", "--x-max-um", "nan"], "error in noisy_transverse_scan: x_max must be finite, got nan"),
        (["noise", "--x-max-um", "inf"], "error in noisy_transverse_scan: x_max must be finite, got inf"),
        (["noise", "--std", "inf"], "error in noisy_transverse_scan: std_dev must be finite"),
        (["steady-time", "--kappa", "10", "--intensity-ratio", "nan"], "error in steady_time: intensity ratio must be positive"),
        (["map3d", "--xy-half-um", "inf", "--s0-mhz", "0.4", "--samples-per-axis", "5"],
         "error in map3d: x extent [-inf, inf] and spacing inf must be finite"),
    ],
    ids=["r-max-nan", "r-max-inf", "x-max-nan", "x-max-inf", "std-inf", "intensity-ratio-nan", "xy-half-inf"],
)
def test_non_finite_inputs_are_bad_input(argv, message, tmp_path, capsys):
    if argv[0] == "noise":
        argv = argv + ["--s0-mhz", "0.415"]
    out_file = tmp_path / "out.csv"
    code, out, err = run(argv + ["--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines()[-1] == f"vortex-localize {argv[0]}: {message}"
    assert "integrating" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv", [["steady", "--s-mhz"], ["scan-z", "--s0-mhz"], ["scan-z", "--delta-offset-mhz"]], ids=lambda a: a[1]
)
def test_non_finite_frequencies_are_rejected_at_parse_time(argv, value, tmp_path, monkeypatch, capsys):
    _forbid_handlers(monkeypatch)
    out_file = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, value, "--kappa", "180", "--out", str(out_file)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].endswith(
        f"error: argument {argv[1]}: must be a finite frequency, got '{value}'"
    )
    assert not out_file.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_tail_tolerance_is_rejected_before_any_quadrature(value, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("no quadrature may run")

    monkeypatch.setattr(meanfield, "masked_kernel_sum", forbidden)
    out_file = tmp_path / "out.csv"
    code, out, err = run(
        ["calibrate-delta", "--kappa", "10", "--grid-spacing", "0.04", "--tail-tol", value, "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"vortex-localize calibrate-delta: error in ShiftQuadrature: tail_tol must be a finite fraction above 0, "
        f"got {float(value)}"
    ]
    assert not out_file.exists()


@pytest.mark.parametrize("max_iter", ["0", "-3"])
def test_a_calibration_without_iterations_is_refused_before_any_quadrature(max_iter, tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("no quadrature may run")

    monkeypatch.setattr(meanfield, "masked_kernel_sum", forbidden)
    out_file = tmp_path / "out.csv"
    code, out, err = run(
        ["calibrate-delta", "--kappa", "10", "--grid-spacing", "0.04", "--max-iter", max_iter, "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"vortex-localize calibrate-delta: error in calibrate_delta: max_iter must be at least 1, got {max_iter}"
    ]
    assert not out_file.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_extent_without_a_spacing_is_refused(source, tmp_path, monkeypatch, capsys):
    # the default spacing is 0.02 lambda_c for the scans and 0.01 for shift,
    # so an extent alone names no lattice
    _forbid_handlers(monkeypatch)
    if source == "flag":
        extra = ["--grid-extent", "100"]
    else:
        path = tmp_path / "run.ini"
        path.write_text("[quadrature]\nextent = 100\n")
        extra = ["--config", str(path)]
    out_file = tmp_path / "out.csv"
    code, out, err = run(["scan-z", "--kappa", "180", *extra, "--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        "vortex-localize scan-z: error in QuadratureSpec.scaled: "
        "--grid-extent ([quadrature] extent) needs --grid-spacing ([quadrature] spacing) too"
    ]
    assert not out_file.exists()


def test_a_spacing_alone_keeps_the_default_extent():
    config = make_config(kappa=180.0)
    lam = config.beam.wavelength_c
    for command, spacing in (("scan-z", 0.02), ("shift", 0.01)):
        args = build_parser().parse_args([command, "--grid-spacing", str(spacing)])
        expected = meanfield.QuadratureSpec(100.0 * lam, 100.0 * lam, spacing * lam, spacing * lam)
        assert cli._resolve_quad(args, config, None) == expected


def test_internal_errors_propagate_with_their_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("sigma_rr")

    monkeypatch.setitem(cli._COMMANDS, "steady", dataclasses.replace(cli._COMMANDS["steady"], run=broken))
    with pytest.raises(KeyError, match="sigma_rr"):
        main(["steady", "--kappa", "10"])
    assert capsys.readouterr().out == ""


def test_malformed_config_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("kappa = 10\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_config(str(path))
    code, out, err = run(["steady", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "error in parse_config" in err


def test_write_failures_name_the_writer(tmp_path, capsys):
    code, out, err = run(["steady", "--kappa", "10", "--out", str(tmp_path / "missing" / "x.csv")], capsys)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("vortex-localize steady: error in write_table: ")
    assert "No such file or directory" in lines[0]

    ini = tmp_path / "run.ini"
    ini.write_text("[detuning]\ndelta_c0 = 1\n")
    out_file = tmp_path / "map.csv"
    (tmp_path / "map.csv.summary.json").mkdir()
    code, out, err = run(
        ["map3d", "--samples-per-axis", "9", "--kappa", "10", "--s0-mhz", "3", "--xy-half-um", "0.2",
         "--config", str(ini), "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.strip().splitlines()[-1].startswith("vortex-localize map3d: error in write_sidecar: ")
    assert out_file.exists()


def test_overflowing_kappa_is_bad_input(capsys):
    code, out, err = run(["blockade", "--kappa", "1e-300"], capsys)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("vortex-localize blockade: error in make_config: kappa = 1e-300 is too small")


def test_overflowing_probe_amplitude_is_bad_input(tmp_path, capsys):
    out_file = tmp_path / "steady.csv"
    code, out, err = run(["steady", "--omega-p0-mhz", "1e200", "--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("vortex-localize steady: error in make_config: omega_p0 = ")
    assert "squared overflows" in lines[0]
    assert not out_file.exists()


def test_huge_probe_amplitude_gives_a_finite_population(tmp_path, capsys):
    # omega_p0 ~ 6.3e153 rad/us: (I_p + I_c)^2 overflows, 2 I_p does not
    out_file = tmp_path / "steady.csv"
    code, out, err = run(["steady", "--omega-p0-mhz", "1e153", "--out", str(out_file)], capsys)
    assert code == 0, err
    sigma = float(out.split()[0].removeprefix("sigma_rr="))
    assert math.isfinite(sigma) and 0.0 < sigma <= 1.0
    assert "nan" not in out_file.read_text().lower()


def test_probe_amplitude_whose_doubled_intensity_overflows_is_bad_input(tmp_path, capsys):
    out_file = tmp_path / "steady.csv"
    code, out, err = run(["steady", "--omega-p0-mhz", "2e153", "--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("vortex-localize steady: error in make_config: omega_p0 = ")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["noise", "--x-max-um", "0", "--s0-mhz", "0.415"],
        ["scan-z", "--kappa", "180", "--samples", "5"],
        ["map3d", "--xy-half-um", "-0.1", "--s0-mhz", "0.4", "--samples-per-axis", "5"],
        ["shift", "--samples", "0", "--grid-spacing", "1"],
        ["steady-time", "--dt-us", "nan"],
        ["steady-time", "--rel-tol", "nan"],
    ],
    ids=["noise-x-max", "scan-z-samples", "map3d-xy-half", "shift-samples", "steady-time-dt", "steady-time-rel-tol"],
)
def test_bad_input_prints_only_the_error(argv, tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    code, out, err = run(argv + ["--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"vortex-localize {argv[0]}: error in ")
    assert not out_file.exists()


# both asked for more RK4 steps than any run finishes, and ran on without end
@pytest.mark.parametrize(
    "argv, steps",
    [(["--budget-us", "1e300"], "9.5e+302"), (["--dt-us", "1e-300", "--budget-us", "1"], "1e+300")],
    ids=["budget", "dt"],
)
def test_steady_time_refuses_a_run_of_too_many_steps(argv, steps, tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    code, out, err = run(["steady-time", *argv, "--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"vortex-localize steady-time: error in steady_time: t_budget / dt asks for {steps} steps; at most 2e+08 are integrated\n"
    assert not out_file.exists()


def test_steady_takes_no_azimuth(monkeypatch, capsys):
    _forbid_handlers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--kappa", "100", "--phi-rad", "0.5"])
    assert exc.value.code == 2
    assert "--phi-rad" in capsys.readouterr().err


def test_max_um_sets_the_radial_extent(tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    code, _, _ = run(
        ["shift", "--max-um", "0.3", "--samples", "3", "--grid-spacing", "0.2", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert _column(out_file.read_text(), "position_um") == ["0", "0.15", "0.3"]


def test_max_um_is_rejected_on_the_longitudinal_axis(tmp_path, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("no quadrature may run")

    monkeypatch.setattr(meanfield, "masked_kernel_sum", forbidden)
    out_file = tmp_path / "out.csv"
    code, out, err = run(
        ["shift", "--axis", "longitudinal", "--grid-spacing", "0.05", "--samples", "7", "--max-um", "0.3",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert out == ""
    message = err.strip().splitlines()
    assert len(message) == 1 and "--max-um" in message[0]
    assert not out_file.exists()


def test_shift_without_samples_is_bad_input(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("no quadrature may run")

    monkeypatch.setattr(meanfield, "shift_at", forbidden)
    for samples in ("0", "-1"):
        code, out, err = run(["shift", "--samples", samples, "--grid-spacing", "1"], capsys)
        assert code == 2
        assert out == ""
        message = err.strip().splitlines()
        assert message == [f"vortex-localize shift: error in shift_profile: --samples must be at least 1, got {samples}"]


def test_shift_refuses_more_samples_than_the_scan_cap_before_allocating(monkeypatch, tmp_path, capsys):
    # with the cap lowered to 5, five positions are quadratured, and a sixth
    # is refused before the positions are laid out or any shift is computed
    monkeypatch.setattr(localization, "_MAX_SAMPLES", 5)
    out_file = tmp_path / "shift.csv"
    code, _, _ = run(["shift", "--samples", "5", "--grid-spacing", "0.16", "--out", str(out_file)], capsys)
    assert code == 0 and len(_column(out_file.read_text(), "s_mhz")) == 5
    monkeypatch.setattr(meanfield, "shift_profile", None)
    monkeypatch.setattr(np, "linspace", None)
    for axis in ("radial", "longitudinal"):
        code, out, err = run(["shift", "--axis", axis, "--samples", "6", "--grid-spacing", "0.16"], capsys)
        assert (code, out) == (2, "")
        assert err == "vortex-localize shift: error in shift_profile: --samples must be at most 5, got 6\n"


def test_a_finer_lattice_than_the_cell_cap_is_refused_before_any_quadrature(monkeypatch, tmp_path, capsys):
    # with the cap lowered to the reference lattice's 10^4 cells per axis, that
    # lattice calibrates, and a finer one is refused before the kernel runs
    monkeypatch.setattr(meanfield, "_MAX_CELLS", 10_000)
    argv = ["calibrate-delta", "--kappa", "180", "--out", str(tmp_path / "c.csv")]
    assert run([*argv, "--grid-spacing", "0.01"], capsys)[0] == 0
    monkeypatch.setattr(meanfield, "masked_kernel_sum", None)
    code, out, err = run([*argv, "--grid-spacing", "0.00999"], capsys)
    assert (code, out) == (2, "")
    message = "error in QuadratureSpec.scaled: extent_r / spacing_r must be at most 10000 cells, got 10010"
    assert err == f"vortex-localize calibrate-delta: {message}\n"


def test_kappa_and_omega_p0_flags_are_one_choice(tmp_path, capsys):
    # the pair exits 2 at parsing, where the second flag used to drop the first
    out_file = tmp_path / "steady.csv"
    with pytest.raises(SystemExit) as exc:
        main(["steady", "--kappa", "100", "--omega-p0-mhz", "1", "--out", str(out_file)])
    assert exc.value.code == 2
    assert "argument --omega-p0-mhz: not allowed with argument --kappa" in capsys.readouterr().err
    assert not out_file.exists()
    # a file's kappa still yields to --omega-p0-mhz on the command line
    path = tmp_path / "run.ini"
    path.write_text("[probe]\nkappa = 180\n")
    code, _, _ = run(["steady", "--config", str(path), "--omega-p0-mhz", "1", "--out", str(out_file)], capsys)
    assert code == 0
    assert "# config.kappa = 80\n" in out_file.read_text()


def test_a_z_column_shorter_than_one_unit_is_summed_cell_by_cell(tmp_path, capsys):
    # 12 cells of the 0.04 lattice along z, under one 25-cell unit: the column used
    # to be folded onto that unit, and numpy's matmul failed on the mismatch
    lattice = ["--grid-spacing", "0.04", "--grid-extent", "0.5"]
    code, out, err = run(["calibrate-delta", "--kappa", "180", *lattice, "--out", str(tmp_path / "c.csv")], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "vortex-localize calibrate-delta: error in calibrate_delta: quadrature domain too small: "
        "estimated truncation tail 100.00% exceeds the allowed 1.00%\n"
    )
    out_file = tmp_path / "shift.csv"
    code, _, _ = run(["shift", "--axis", "radial", *lattice, "--samples", "3", "--tail-tol", "1", "--out", str(out_file)], capsys)
    assert code == 0
    # the 0.24 um lattice lies inside the blockade sphere of every row, so all is blocked
    assert _column(out_file.read_text(), "s_mhz") == ["0", "0", "0"]
