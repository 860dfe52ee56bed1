"""The public surface: every exported name resolves, once, and the README's import works."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import vortexloc

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(vortexloc.__path__))


@pytest.mark.parametrize("module_name", ["vortexloc"] + [f"vortexloc.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves_once(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{module_name}.__all__ lists a name twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what the module lacks: {missing}"


def test_the_readme_quick_start_imports_work():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks, "README has no python block"
    imports = [
        node for block in blocks for node in ast.parse(block).body if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports, "README's python blocks import nothing"
    for node in imports:
        exec(compile(ast.Module(body=[node], type_ignores=[]), str(README), "exec"), {})


def test_every_submodule_name_the_readme_mentions_resolves():
    names = set(re.findall(r"\bvortexloc\.(\w+)\.(\w+)", README.read_text(encoding="utf-8")))
    assert names, "README names no vortexloc.<module>.<name>"
    missing = [
        f"vortexloc.{m}.{n}" for m, n in sorted(names) if not hasattr(importlib.import_module(f"vortexloc.{m}"), n)
    ]
    assert not missing, f"README names what the package lacks: {missing}"
