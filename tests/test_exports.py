"""Exported names and module layering.

Every name in an __all__ must exist: tools that look exported functions
up by name (a tracer wrapping each public function, for one) skip a
missing name, so a stale export would otherwise go unnoticed. The
layering test reads the import statements of every package module,
including those inside functions, and holds each layer to the modules
below it. The README's library quick start, written against the
exported API, must run as printed.
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


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
