"""The benchmark's per-layer tracer finds exactcat's functions by name.

perfbench/layertrace.py lists its targets as (metric, module, attribute
path, kind) and reports a target it cannot find as absent, with metrics
that read 0.  A renamed or deleted traced function would then pass for an
idle layer; here it fails the suite instead.  The tracer module is loaded
from its file without writing bytecode, and nothing is wrapped.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace_targets_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_exactcat(monkeypatch):
    lt = load_layertrace(monkeypatch)
    assert lt.TARGETS
    absent = []
    for name, mod_name, attr, kind in lt.TARGETS:
        assert mod_name in lt.LAYERS and kind in ("span", "count"), name
        # resolved as Tracer.install does: the leaf must be defined on its
        # owner itself, not inherited
        owner = importlib.import_module(f"exactcat.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(leaf)):
            absent.append(name)
    assert not absent, f"traced targets missing from exactcat: {absent}"
