"""The benchmark's per-layer tracer finds exactcat's functions by name.

perfbench/layertrace.py lists its targets as (metric, module, attribute
path, kind) and reports a target it cannot find as absent, with metrics
that read 0.  A renamed or deleted traced function would then pass for an
idle layer; here it fails the suite instead.  Its `_observe` also reads
from each traced call's arguments and result (the precover's host, the
searches' and sweeps' counters, the enumerations' lengths); those reads are
run here on real results, since an exception in them ends the traced
command.  The tracer module is loaded from its file without writing
bytecode, and nothing is wrapped.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from exactcat.approx import AddSubcat
from exactcat.conflcat import ConflCategory

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


def observe(lt, name, args, result):
    """(counts, maxima) that the tracer's _observe records for one call of
    the target `name` with these arguments and this result."""
    tracer = lt.Tracer()
    tracer._observe(name, name.rsplit(".", 1)[1], False, args, result, 0)
    return tracer.counts, tracer.maxima


def target(lt, name):
    """The exactcat function or method that the target `name` wraps."""
    (mod_name, attr), = [(m, a) for n, m, a, _ in lt.TARGETS if n == name]
    owner = importlib.import_module(f"exactcat.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_reads_the_precover_source_dimension_on_both_hosts(monkeypatch, a2, a3, a3_sub):
    """A traced precover records cat.obj_dim(cat.src(result)) of its
    subcategory's host, a representation category or the conflation host; an
    exception there would end the traced command."""
    lt = load_layertrace(monkeypatch)
    _, o = a3
    base, b = a2
    ecat = ConflCategory(base)
    confl_sub = AddSubcat(ecat, [ecat.split_obj(b["S2"], b["P1"]), ecat.split_obj(b["S1"], b["S2"])], label="E")
    precover = target(lt, "approx.precover")
    for sub, x in ((a3_sub, o["S2"]), (confl_sub, ecat.split_obj(b["P1"], b["S1"]))):
        beta = precover(sub, x)
        _, maxima = observe(lt, "approx.precover", (sub, x), beta)
        assert maxima["approx.precover.max_dim"] == beta.src.total_dim > 0


def test_tracer_reads_the_class_searches_and_the_sweeps(monkeypatch, a3, a3_sub, a3_nonsplit):
    """ClassSearch.examined, the sweeps' VerifyReport.checked and the length
    of the two enumerations' results are what the tracer counts."""
    lt = load_layertrace(monkeypatch)
    cat, o = a3
    for name in ("classes.in_class_s", "classes.in_class_t"):
        search = target(lt, name)(a3_nonsplit, a3_sub)
        counts, _ = observe(lt, name, (a3_nonsplit, a3_sub), search)
        assert counts["classes.subobjects_examined"] == len(search.examined) > 0
    sample = [o["S2"], o["P2"], o["S1"]]
    for name in lt.SWEEPS:
        report = target(lt, name)(a3_sub, sample)
        counts, _ = observe(lt, name, (a3_sub, sample), report)
        assert counts["quotient.morphisms_checked"] == report.checked > 0
    for name, args in (
        ("repcat.enumerate_subobjects", (cat, o["P1"], 8)),
        ("repcat.enumerate_extensions", (cat, o["S1"], o["P2"])),
    ):
        result = target(lt, name)(*args)
        counts, _ = observe(lt, name, args, result)
        assert counts[f"{name}.yield"] == len(result) > 0
