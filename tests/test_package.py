"""The public surface: every exported name resolves, once, lazily, and the README's import works."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import vortexloc

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Stdlib modules a command loads only when it needs them: OpenSSL through
# hashlib, a thread pool (and its logging) for --threads 2+, an INI reader for --config.
OPTIONAL_MODULES = ("_hashlib", "hashlib", "concurrent.futures", "logging", "configparser")
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(vortexloc.__path__))


@pytest.mark.parametrize("module_name", ["vortexloc"] + [f"vortexloc.{name}" for name in SUBMODULES])
def test_every_exported_name_resolves_once(module_name):
    """The package's __all__ is the one list of public names; a submodule defines what it assigns there."""
    module = importlib.import_module(module_name)
    if module is vortexloc:
        exported = vortexloc.__all__
        assert len(exported) == len(set(exported)), "vortexloc.__all__ lists a name twice"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"vortexloc.__all__ names what the package lacks: {missing}"
        return
    assert not hasattr(module, "__all__"), f"{module_name} keeps a second list of public names"
    for name, home in vortexloc._SUBMODULE.items():
        value = getattr(vortexloc, name)
        if home == module_name.rpartition(".")[2] and (inspect.isfunction(value) or inspect.isclass(value)):
            assert value.__module__ == module_name, f"vortexloc.{name} is defined in {value.__module__}"


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


def test_the_readme_lists_every_config_file_key_under_its_section():
    # each section is one README bullet, "- `[section]`: `key` (unit), ..."
    from vortexloc.cli import _CONFIG_KEYS
    from vortexloc.config import PARAMETERS

    bullets = dict(re.findall(r"^- `\[(\w+)\]`(.*?)(?=^- |^$)", README.read_text(encoding="utf-8"), flags=re.M | re.S))
    keys = [(section, key) for section, key, _, _ in PARAMETERS] + list(_CONFIG_KEYS)
    missing = [f"[{section}] {key}" for section, key in keys if f"`{key}`" not in bullets.get(section, "")]
    assert not missing, f"README does not list these config file keys: {missing}"


def test_dir_lists_every_exported_name():
    assert set(vortexloc.__all__) <= set(dir(vortexloc))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from vortexloc import *", namespace)
    missing = [name for name in vortexloc.__all__ if name not in namespace]
    assert not missing


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        vortexloc.no_such_name


def test_version_is_the_package_version():
    import vortexloc.output

    assert vortexloc.__version__ == vortexloc.output.PACKAGE_VERSION


def test_the_submodule_table_and_all_hold_the_same_names():
    table = vortexloc._SUBMODULE
    assert sorted(table) == sorted(vortexloc.__all__)
    for name, module_name in table.items():
        module = importlib.import_module(f"vortexloc.{module_name}")
        source = "PACKAGE_VERSION" if name == "__version__" else name
        assert getattr(vortexloc, name) is getattr(module, source), f"{name} is not vortexloc.{module_name}.{source}"


def _child(code: str, **preset: str) -> object:
    """Run `code` in a fresh interpreter with none of the BLAS thread variables but `preset`; its stdout as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(preset)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_importing_the_package_loads_no_numpy_and_leaves_the_environment_alone():
    seen = _child(
        "import json, os, sys; before = dict(os.environ); import vortexloc; "
        "print(json.dumps({'numpy': 'numpy' in sys.modules, 'same_env': dict(os.environ) == before}))"
    )
    assert seen == {"numpy": False, "same_env": True}


def test_the_cli_sets_one_blas_thread_when_no_thread_variable_is_set():
    seen = _child("import json, os; import vortexloc.cli; print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))")
    assert seen == "1"


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2, reason="reads /proc; one core starts no worker"
)
def test_numpy_under_the_cli_starts_no_blas_worker_thread():
    seen = _child(
        "import json, sys; import vortexloc.cli; assert 'numpy' in sys.modules; "
        "print(json.dumps([int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('Threads:')]))"
    )
    assert seen == [1], "OpenBLAS started worker threads"


@pytest.mark.parametrize("var, value", [("OMP_NUM_THREADS", "2"), ("OPENBLAS_NUM_THREADS", "3"), ("GOTO_NUM_THREADS", "2")])
def test_the_cli_leaves_a_preset_blas_thread_count_as_set(var, value):
    seen = _child(
        "import json, os; import vortexloc.cli; "
        f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_VARS!r}}}))",
        **{var: value},
    )
    assert seen == {k: value if k == var else None for k in BLAS_VARS}


def test_the_fingerprint_falls_back_to_hashlib_without_a_builtin_sha256():
    seen = _child(
        "import json, sys; sys.modules.update(_sha2=None, _sha256=None); "
        "from vortexloc.config import make_config; "
        "print(json.dumps([make_config().fingerprint(), 'hashlib' in sys.modules]))"
    )
    assert seen == ["4435c55141f2", True]


def _optional_modules_after(argv: list[str], out: Path, modules=OPTIONAL_MODULES) -> list[str]:
    """The `modules` in sys.modules after cli.main(argv) writes to `out` in a fresh interpreter."""
    code = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        from vortexloc import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({[*argv, "--out", str(out)]!r}) == 0
        print(json.dumps([m for m in {modules!r} if m in sys.modules]))
        """
    )
    return _child(code)


# noise is left out: numpy.random imports secrets, and with it hashlib, by itself
@pytest.mark.parametrize(
    "argv",
    [
        ["steady"],
        ["scan-r", "--mode", "partial", "--grid-spacing", "0.16", "--samples", "100"],
        ["calibrate-delta", "--grid-spacing", "0.16"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_loads_no_optional_module_it_does_not_run(argv, tmp_path):
    assert _optional_modules_after(argv, tmp_path / "out.csv") == []


# map3d and noise with a given s0, and an uncompensated scan, run no quadrature
@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["steady"], []),
        (["map3d", "--s0-mhz", "0.415"], []),
        (["noise", "--s0-mhz", "0.415", "--trajectories", "2"], []),
        (["scan-r", "--mode", "none"], []),
        (["calibrate-delta", "--grid-spacing", "0.16"], ["vortexloc.kernel"]),
    ],
    ids=["steady", "map3d", "noise", "scan-r-none", "calibrate-delta"],
)
def test_only_a_shift_quadrature_loads_the_far_field_series(argv, loaded, tmp_path):
    assert _optional_modules_after(argv, tmp_path / "out.csv", ("vortexloc.kernel",)) == loaded


def test_two_threads_load_the_thread_pool(tmp_path):
    argv = ["calibrate-delta", "--grid-spacing", "0.16", "--threads", "2"]
    assert "concurrent.futures" in _optional_modules_after(argv, tmp_path / "out.csv")


def test_a_config_file_loads_the_ini_reader(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[probe]\nkappa = 100\n", encoding="utf-8")
    argv = ["steady", "--config", str(ini)]
    assert "configparser" in _optional_modules_after(argv, tmp_path / "out.csv")
