"""The benchmark's workloads: the vortex-localize commands each one runs, and its oracles.

A workload turns a seed into a fixed command list (the program sees only the
resulting flags) and checks every result file of one pass. Each oracle holds
for any seed; a failed oracle is charged to the command whose output broke it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

LAMBDA_C_UM = 0.48  # default control wavelength
WAIST_UM = 1.0  # default beam waist
FWHM_TOL_UM = 1e-4 * LAMBDA_C_UM  # the scans' bisection tolerance
INTENSITY_RATIO = 2.0 / 3.0  # steady-time's default --intensity-ratio
S0_MHZ = 0.415  # the calibrated core shift at kappa 180, passed as --s0-mhz


@dataclass(frozen=True)
class Command:
    """One vortex-localize invocation; `metric` names its wall time in the report."""

    key: str
    args: tuple[str, ...]
    metric: str | None = None
    out_suffix: str = ".csv"


@dataclass
class Outcome:
    """What one command left behind: exit code, stdout, result file and counters."""

    command: Command
    out: Path
    returncode: int
    stdout: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float

    def summary(self) -> dict[str, str]:
        """The `# summary.<key> = <value>` lines of a CSV result file."""
        found = {}
        with open(self.out, encoding="utf-8") as handle:
            for line in handle:
                if not line.startswith("#"):
                    break
                if line.startswith("# summary."):
                    key, _, value = line[len("# summary."):].partition(" = ")
                    found[key] = value.rstrip("\n")
        return found

    def column(self, name: str) -> list[float]:
        """One numeric column of a CSV result file."""
        with open(self.out, encoding="utf-8") as handle:
            rows = (line.rstrip("\n").split(",") for line in handle if not line.startswith("#"))
            header = next(rows)
            index = header.index(name)
            return [float(row[index]) for row in rows]


@dataclass(frozen=True)
class Params:
    """Everything a seed decides."""

    kappa: float
    noise_seed: int


def params_for(seed: int) -> Params:
    rng = random.Random(seed)
    return Params(kappa=round(rng.uniform(150.0, 500.0), 2), noise_seed=rng.randrange(2**31))


def _print_ulp(value: float) -> float:
    """One unit in the last place of the CLI's 10-significant-digit rendering."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 9) if value else 0.0


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


class Workload:
    name: str
    why: str

    def commands(self, p: Params, smoke: bool) -> list[Command]:
        raise NotImplementedError

    def check(self, p: Params, smoke: bool, got: dict[str, Outcome]) -> dict[str, str]:
        """Oracle failures as {command key: reason}."""
        raise NotImplementedError


class Calibrate(Workload):
    name = "calibrate"
    why = "1e8-cell shift quadratures in the calibration fixed point, at 1 and 2 threads"

    def commands(self, p, smoke):
        spacing = "0.08" if smoke else "0.01"
        base = ("calibrate-delta", "--kappa", str(p.kappa), "--grid-spacing", spacing)
        return [
            Command("t1", base + ("--threads", "1"), "calibrate-delta.t1_s"),
            Command("t2", base + ("--threads", "2"), "calibrate-delta.t2_s"),
        ]

    def check(self, p, smoke, got):
        bad = {}
        if got["t1"].out.read_bytes() != got["t2"].out.read_bytes():
            bad["t2"] = "--threads 2 result file differs from --threads 1"
        s = got["t1"].summary()
        delta, c0, s0 = (float(s[k]) for k in ("delta_mhz", "delta_c0_mhz", "s0_mhz"))
        tol = 0.5 * (_print_ulp(delta) + _print_ulp(c0) + _print_ulp(s0))
        if not s0 > 0.0 or abs(delta - c0 - s0) > tol:
            bad["t1"] = f"delta - delta_c0 - s0 = {delta - c0 - s0:.3g} MHz (tolerance {tol:.3g})"
        return bad


class Profile(Workload):
    name = "profile"
    why = "many 6.25e6-cell quadratures: a radial shift profile and a partial-compensation scan"

    def commands(self, p, smoke):
        spacing = "0.16" if smoke else "0.04"
        kappa = ("--kappa", str(p.kappa))
        return [
            Command(
                "shift",
                ("shift", "--axis", "radial", "--grid-spacing", spacing,
                 "--samples", "3" if smoke else "11") + kappa,
                "shift_s",
            ),
            Command(
                "partial",
                ("scan-r", "--mode", "partial", "--grid-spacing", spacing, "--samples",
                 "100" if smoke else "101") + kappa,
                "scan-r.partial_s",
            ),
            Command("none", ("scan-r", "--mode", "none") + kappa),
        ]

    def check(self, p, smoke, got):
        partial = float(got["partial"].summary()["fwhm_um"])
        none = float(got["none"].summary()["fwhm_um"])
        if partial < none - FWHM_TOL_UM:
            return {"partial": f"partial FWHM {partial} um is below the mode-none FWHM {none} um"}
        return {}


def analytic_a_r(kappa: float, w0: float = WAIST_UM) -> float:
    """Transverse half-maximum width for |l| = 1, restated here as an independent oracle."""
    return w0 * math.sqrt(1.0 - math.sqrt(kappa * kappa - 8.0) / kappa)


class Direct(Workload):
    name = "direct"
    why = "every subcommand that skips the quadrature: rendering, the RK4 loop and the blockade march"

    def map_samples(self, smoke: bool) -> int:
        # 61^3 rather than the reference 101^3, so that a run of --seconds 40
        # holds two passes or more; rendering still dwarfs the voxel math.
        return 31 if smoke else 61

    def commands(self, p, smoke):
        kappa = ("--kappa", str(p.kappa))
        s0 = ("--s0-mhz", str(S0_MHZ))
        n = str(self.map_samples(smoke))
        trajectories = "20" if smoke else "2000"
        noise = ("noise",) + kappa + s0 + ("--seed", str(p.noise_seed), "--trajectories")
        return [
            Command("map3d_csv", ("map3d", "--samples-per-axis", n) + kappa + s0, "map3d.csv_s"),
            Command(
                "map3d_json",
                ("map3d", "--samples-per-axis", n, "--format", "json") + kappa + s0,
                "map3d.json_s",
                ".json",
            ),
            Command(
                "steady_time",
                ("steady-time", "--kappa", "180" if smoke else "500")
                + (("--budget-us", "30") if smoke else ()),
                "steady-time_s",
            ),
            Command(
                "blockade",
                ("blockade",) + kappa + (("--resolution", "16") if smoke else ()),
                "blockade_s",
            ),
            Command("noise_intensity", noise + (trajectories, "--kind", "intensity", "--std", "0.02")),
            Command("noise_frequency", noise + (trajectories, "--kind", "frequency", "--std", "0.002")),
            Command("noise_zero", noise + ("20", "--kind", "intensity", "--std", "0")),
            Command("scan_r", ("scan-r", "--mode", "none") + kappa),
            Command("scan_z", ("scan-z",) + kappa + s0),
            Command("scan_l", ("scan-l",) + kappa),
            Command("steady", ("steady",) + kappa),
        ]

    def check(self, p, smoke, got):
        bad = {}
        n = self.map_samples(smoke)
        with open(got["map3d_csv"].out, encoding="utf-8") as handle:
            rows = sum(1 for line in handle if not line.startswith("#")) - 1
        if rows != n**3:
            bad["map3d_csv"] = f"{rows} CSV rows, expected {n}^3"
        with open(got["map3d_json"].out, encoding="utf-8") as handle:
            payload = json.load(handle)
        if len(payload["columns"]["sigma_rr"]) != n**3:
            bad["map3d_json"] = "JSON sigma_rr column does not hold n^3 values"
        elif not _summaries_agree(got["map3d_csv"].summary(), payload["summary"]):
            bad["map3d_json"] = "JSON summary disagrees with the CSV summary"

        fwhm = float(got["scan_r"].summary()["fwhm_um"])
        if abs(fwhm - analytic_a_r(p.kappa)) > FWHM_TOL_UM:
            bad["scan_r"] = f"mode-none FWHM {fwhm} um vs analytic {analytic_a_r(p.kappa)} um"

        sigma_ss = float(got["steady_time"].summary()["sigma_ss"])
        if not _close(sigma_ss, 1.0 / (1.0 + INTENSITY_RATIO), 1e-8):
            bad["steady_time"] = f"sigma_ss = {sigma_ss}, expected 1/(1 + q)"

        scan = got["scan_r"].column("sigma_rr")
        noisy = got["noise_zero"].column("sigma_rr")[len(scan) - 1:]  # the x >= 0 half
        if len(noisy) != len(scan) or not all(_close(a, b) for a, b in zip(noisy, scan)):
            bad["noise_zero"] = "zero-std noise profile differs from the deterministic scan"
        return bad


def _summaries_agree(csv_summary: dict[str, str], json_summary: dict) -> bool:
    if set(csv_summary) != set(json_summary):
        return False
    for key, text in csv_summary.items():
        value = json_summary[key]
        values = value if isinstance(value, list) else [value]
        if isinstance(value, str):
            if text != value:
                return False
        elif not all(_close(float(t), float(v)) for t, v in zip(text.split(), values, strict=True)):
            return False
    return True


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Calibrate(), Profile(), Direct())}
