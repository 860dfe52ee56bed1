"""tools/bytediff.py: the same tree compares identical, a changed one does not."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bytediff.py"
INVOCATIONS = ["steady --kappa 100 --r-um 0.3", "blockade --kappa 100 --resolution 16 --format json"]


def _bytediff(base: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    listing = tmp_path / "invocations.txt"
    listing.write_text("# two quick commands\n" + "\n".join(INVOCATIONS) + "\n")
    return subprocess.run(
        [sys.executable, str(TOOL), str(base), "--list", str(listing)], capture_output=True, text=True, timeout=300
    )


def test_the_checkout_is_identical_to_itself(tmp_path):
    result = _bytediff(ROOT, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [f"same {line}" for line in INVOCATIONS] + ["2 invocations, 0 differ"]


def test_a_changed_package_version_is_reported(tmp_path):
    base = tmp_path / "base"
    shutil.copytree(ROOT / "src" / "vortexloc", base / "vortexloc", ignore=shutil.ignore_patterns("__pycache__"))
    output_py = base / "vortexloc" / "output.py"
    text = output_py.read_text()
    assert 'PACKAGE_VERSION = "' in text
    output_py.write_text(text.replace('PACKAGE_VERSION = "', 'PACKAGE_VERSION = "0.0.0-', 1))
    result = _bytediff(base, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        f"DIFF {INVOCATIONS[0]}: file vortex-steady.csv (exit 0 -> 0)",
        f"DIFF {INVOCATIONS[1]}: file vortex-blockade.json (exit 0 -> 0)",
        "2 invocations, 2 differ",
    ]
