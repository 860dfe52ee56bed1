"""tools/bytediff.py: the same tree compares identical, a changed one does not."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bytediff.py"
INVOCATIONS = ["steady --kappa 100 --r-um 0.3", "blockade --kappa 100 --resolution 16 --format json"]


def _bytediff(base: Path, tmp_path: Path, *options: str) -> subprocess.CompletedProcess:
    listing = tmp_path / "invocations.txt"
    listing.write_text("# two quick commands\n" + "\n".join(INVOCATIONS) + "\n")
    return subprocess.run(
        [sys.executable, str(TOOL), str(base), "--list", str(listing), *options],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _base_with(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A copy of the package with one edit."""
    base = tmp_path / "base"
    shutil.copytree(ROOT / "src" / "vortexloc", base / "vortexloc", ignore=shutil.ignore_patterns("__pycache__"))
    path = base / "vortexloc" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return base


def test_the_checkout_is_identical_to_itself(tmp_path):
    result = _bytediff(ROOT, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [f"same {line}" for line in INVOCATIONS] + ["2 invocations, 0 differ"]


def test_a_changed_package_version_is_reported(tmp_path):
    base = _base_with(tmp_path, "output.py", 'PACKAGE_VERSION = "', 'PACKAGE_VERSION = "0.0.0-')
    result = _bytediff(base, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        f"DIFF {INVOCATIONS[0]}: file vortex-steady.csv (exit 0 -> 0)",
        f"DIFF {INVOCATIONS[1]}: file vortex-blockade.json (exit 0 -> 0)",
        "2 invocations, 2 differ",
    ]


def test_numeric_measures_moved_numbers_and_fails_on_anything_else(tmp_path):
    # a finer blockade bisection moves the boundary in its last digits only
    moved = _base_with(tmp_path / "moved", "meanfield.py", "_REFINE_TOL = 1e-3", "_REFINE_TOL = 1e-4")
    result = _bytediff(moved, tmp_path, "--numeric")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"same {INVOCATIONS[0]}"
    assert lines[1] == f"DIFF {INVOCATIONS[1]}: file vortex-blockade.json, stdout (exit 0 -> 0)"
    report = dict(line.strip().split(": ", 1) for line in lines[2:4])
    changes = dict(item.rsplit(" ", 1) for item in report["file vortex-blockade.json"].split(", "))
    assert {"columns.distance_um", "columns.r_um", "columns.z_um"} <= changes.keys()
    assert all(0.0 < float(change) < 1e-3 for change in changes.values())
    assert report["stdout"].startswith("distance_um ")
    assert lines[4:] == ["2 invocations, 1 differ, 1 only in numbers"]

    renamed = _base_with(tmp_path / "renamed", "output.py", 'PACKAGE_VERSION = "', 'PACKAGE_VERSION = "0.0.0-')
    result = _bytediff(renamed, tmp_path, "--numeric")
    assert result.returncode == 1
    assert "  file vortex-steady.csv: not numeric" in result.stdout.splitlines()
    assert result.stdout.splitlines()[-1] == "2 invocations, 2 differ, 0 only in numbers"
