"""Byte-diff two trees of vortex-localize over a fixed list of command lines.

Usage:
    python tools/bytediff.py BASE [--list FILE]

BASE is a git revision of this repository or a directory: a checkout holding
src/vortexloc, or a directory holding vortexloc itself. It is compared with
the checkout this script sits in. Each line of the list
(default: tools/bytediff/invocations.txt; '#' starts a comment) is one
vortex-localize argument list. It runs once per tree, in a fresh interpreter
and an empty working directory seeded with the *.ini files next to the list.
Both runs must agree on the exit code, stdout, stderr (with the time in
'# wrote ... in X s' and the tree's path masked) and the bytes of every file
the run leaves behind: the result file and the map3d sidecar.

Prints one line per invocation and a count; exits 1 if any invocation differs.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_LIST = Path(__file__).resolve().parent / "bytediff" / "invocations.txt"
# the source directory comes first in argv and is put first on sys.path, so an
# installed copy of the package is never the one that runs
_ENTRY = "import sys; sys.path.insert(0, sys.argv.pop(1)); from vortexloc.cli import main; sys.exit(main())"
_WROTE = re.compile(rb"^(# wrote .*) in [0-9.]+ s$", re.M)


def source_dir(spec: str, scratch: Path) -> Path:
    """The directory holding the vortexloc package of a tree named by path or git revision."""
    path = Path(spec)
    if path.is_dir():
        for candidate in (path / "src", path):
            if (candidate / "vortexloc" / "cli.py").is_file():
                return candidate.resolve()
        raise SystemExit(f"bytediff: no vortexloc package in {spec} or {spec}/src")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec, "src"], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"bytediff: {spec} is neither a directory nor a git revision: {archive.stderr.decode().strip()}")
    out = scratch / "git-tree"
    out.mkdir()
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
    return out / "src"


def read_invocations(path: Path) -> list[str]:
    lines = (line.split("#", 1)[0].strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line]


def run_once(src: Path, argv: list[str], fixtures: list[Path], workdir: Path) -> dict[str, object]:
    """Exit code, stdout, masked stderr and the files left behind by one run."""
    workdir.mkdir()
    for fixture in fixtures:
        shutil.copy(fixture, workdir / fixture.name)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY, str(src), *argv], cwd=workdir, env=env, capture_output=True
    )
    stderr = _WROTE.sub(rb"\1 in X s", proc.stderr).replace(str(src).encode(), b"<src>")
    seeded = {fixture.name for fixture in fixtures}
    files = {f"file {p.name}": p.read_bytes() for p in sorted(workdir.iterdir()) if p.name not in seeded}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": stderr, **files}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision or directory of the tree to compare against")
    parser.add_argument("--list", type=Path, default=DEFAULT_LIST, help="invocation list")
    args = parser.parse_args(argv)

    invocations = read_invocations(args.list)
    fixtures = sorted(args.list.resolve().parent.glob("*.ini"))
    differing = 0
    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        scratch = Path(tmp)
        trees = {"base": source_dir(args.base, scratch), "tree": source_dir(str(ROOT), scratch)}
        for i, line in enumerate(invocations):
            base, tree = (
                run_once(src, shlex.split(line), fixtures, scratch / f"{i}-{side}") for side, src in trees.items()
            )
            diff = [key for key in sorted(base.keys() | tree.keys()) if base.get(key) != tree.get(key)]
            differing += bool(diff)
            if diff:
                print(f"DIFF {line}: {', '.join(diff)} (exit {base['exit code']} -> {tree['exit code']})")
            else:
                print(f"same {line}")
    print(f"{len(invocations)} invocations, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
