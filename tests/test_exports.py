"""Every exported name resolves, and every imported name is used.

A deletion can leave a stale export behind, and a rewired import a stale
name; both are caught here.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import nigcdf

# ``__main__`` runs the CLI on import, so it is not a module to inspect
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(nigcdf.__path__) if info.name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in nigcdf.__all__ if not hasattr(nigcdf, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"nigcdf.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nigcdf").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imported names never read and not listed in ``__all__``."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # every process pays for what ``import nigcdf`` loads; the records are
    # NamedTuples, so neither module is needed.  -S keeps site hooks out.
    code = "import sys, nigcdf; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nigcdf.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert run.stdout.strip() == "[]"


def test_set_up_evaluations_compile_no_small_z_rows():
    # the two evaluations that time the benchmark's set-up (one series point,
    # one trapezoid point, as in bench/setup_probe.py) build no row of the
    # small-z kernel and load no further submodule: its rows compile on the
    # first point below the crossover, never at import
    code = "\n".join((
        "import sys, nigcdf",
        "loaded = {m for m in sys.modules if m.startswith('nigcdf')}",
        "nigcdf.cdf(nigcdf.validate(8.0, 2.0, 3.0, 2.0), 5.0)",
        "nigcdf.cdf(nigcdf.validate(1.0, 0.2, 0.0, 1.0), 0.5)",
        "from nigcdf import coeffs",
        "print(coeffs._small_z_rows.cache_info().currsize,",
        "      coeffs._small_z_horner.cache_info().currsize,",
        "      sorted({m for m in sys.modules if m.startswith('nigcdf')} - loaded))",
    ))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nigcdf.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert run.stdout.strip() == "0 0 []"
