"""Exported names resolve, imported names are used, and the README's library quick start runs.

A deletion can leave a stale export behind, and a rewired import a stale
name; both are caught here, and so is an API change the README missed.
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


def test_import_loads_no_dataclasses_inspect_threading_or_future():
    # every process pays for what ``import nigcdf`` loads; the records are
    # NamedTuples, so neither ``dataclasses`` nor ``inspect`` is needed, the
    # oracle's node tables are never written after import, so no lock is, and
    # every annotation is evaluated when it is defined, so no module needs
    # ``__future__``.  -S keeps site hooks out.
    forbidden = "{'dataclasses', 'inspect', 'threading', '__future__'}"
    code = f"import sys, nigcdf; print(sorted({forbidden} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nigcdf.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert run.stdout.strip() == "[]"


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start: library", 1)[1]
    block = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", block], env=env, check=True, timeout=60)


def _code_runners(tree: ast.Module) -> list[str]:
    """The calls of ``exec``, ``eval`` or ``compile`` in ``tree``, by name or attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("exec", "eval", "compile"):
                found.append(f"{name} at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "nigcdf").glob("*.py")), ids=lambda p: p.name)
def test_no_module_compiles_code(path):
    # every function of the package is written out in its source: none is
    # generated as text and run
    assert _code_runners(ast.parse(path.read_text(), filename=str(path))) == []


def test_set_up_evaluations_load_no_further_submodule():
    # the two evaluations that time the benchmark's set-up (one Gauss point,
    # one trapezoid point, as in bench/setup_probe.py) import nothing more
    code = "\n".join((
        "import sys, nigcdf",
        "loaded = {m for m in sys.modules if m.startswith('nigcdf')}",
        "nigcdf.cdf(nigcdf.validate(8.0, 2.0, 3.0, 2.0), 5.0)",
        "nigcdf.cdf(nigcdf.validate(1.0, 0.2, 0.0, 1.0), 0.5)",
        "print(sorted({m for m in sys.modules if m.startswith('nigcdf')} - loaded))",
    ))
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nigcdf.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert run.stdout.strip() == "[]"


def _bench_traced() -> tuple[tuple[str, str], ...]:
    """The ``TRACED`` pairs of ``bench/spans.py``, read from its source without running it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED")


def test_every_benchmark_traced_function_exists():
    # the benchmark's layer trace wraps these names; a missing one silently
    # drops its keys from the traced output instead of failing the run
    traced = _bench_traced()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"nigcdf.{module}"), name, None))
    ]
    assert missing == []
