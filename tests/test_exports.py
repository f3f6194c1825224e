"""Exported names and module layering.

Every name in an __all__ must exist: tools that look exported functions
up by name (a tracer wrapping each public function, for one) skip a
missing name, so a stale export would otherwise go unnoticed. The
layering test reads the import statements of every package module,
including those inside functions, and holds each layer to the modules
below it. Every module-level private function and class must be named
by package code outside its own definition, so a helper that only tests
keep alive shows up. The README's library quick start, written against
the exported API, must run as printed.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("cli", "codebooks", "channel", "codec", "mc_sim", "isi_analysis")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "molcode"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

#: Package modules a module may import; any module not named here may
#: import every module but cli.
MAY_IMPORT = {"channel": set(), "codebooks": set(), "_inversion": set(), "codec": {"codebooks"}}


@pytest.mark.parametrize("module", ["molcode"] + [f"molcode.{layer}" for layer in LAYERS])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _imported_modules(path: Path) -> set[str]:
    """Package modules a source file imports, at top level or in a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("molcode."))
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name.split(".")[0] != "molcode":
                    continue
                name = name[len("molcode."):]
            if name:
                found.add(name.split(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found & set(MODULES)


def test_imports_are_read_inside_functions(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import numpy\nfrom .codebooks import Codebook\n"
                      "def f():\n    from . import mc_sim\n    import molcode.cli\n")
    assert _imported_modules(source) == {"codebooks", "mc_sim", "cli"}


@pytest.mark.parametrize("module", MODULES)
def test_layering(module):
    allowed = MAY_IMPORT.get(module, set(MODULES) - {"cli"})
    assert _imported_modules(SRC / f"{module}.py") - {module} <= allowed


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no code names.

    sources maps module names to source text. A definition is referenced
    when a name or an attribute read anywhere in sources, outside its own
    definition, spells its name; an import of it alone is not a reference.
    Returns module.name of every other one, in definition order.
    """
    statements, private = [], []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            statements.append({node.id if isinstance(node, ast.Name) else node.attr
                               for node in ast.walk(stmt)
                               if isinstance(node, (ast.Name, ast.Attribute))})
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                private.append((module, stmt.name, len(statements) - 1))
    return [f"{module}.{name}" for module, name, at in private
            if not any(name in names for i, names in enumerate(statements) if i != at)]


def test_unreferenced_private_reads_names_and_attributes():
    sources = {
        "a": "def _dead():\n    return _dead()\n\ndef _used():\n    pass\n\n"
             "class _Imported:\n    pass\n\nclass _Helper:\n    pass\n",
        "b": "from .a import _Imported, _used\nfrom . import a\n"
             "def f():\n    return _used(), a._Helper\n",
    }
    assert _unreferenced_private(sources) == ["a._dead", "a._Imported"]


def test_every_private_definition_is_used_by_the_package():
    sources = {module: (SRC / f"{module}.py").read_text() for module in MODULES}
    assert _unreferenced_private(sources) == []


def test_exact_draws_are_imported_on_first_use():
    # Importing the package must not compile molcode._inversion: its
    # first draw does.
    code = ("import sys, numpy, molcode\n"
            "print('molcode._inversion' in sys.modules)\n"
            "molcode.sample_arrivals(3, (0.5,), numpy.random.default_rng(0), 4)\n"
            "print('molcode._inversion' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
