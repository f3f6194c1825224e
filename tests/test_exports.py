"""Exported names: every name in an __all__ must exist.

Tools that look exported functions up by name (a tracer wrapping each
public function, for one) skip a missing name, so a stale export would
otherwise go unnoticed.
"""
import importlib

import pytest

LAYERS = ("cli", "codebooks", "channel", "codec", "mc_sim", "isi_analysis")


@pytest.mark.parametrize("module", ["molcode"] + [f"molcode.{layer}" for layer in LAYERS])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
