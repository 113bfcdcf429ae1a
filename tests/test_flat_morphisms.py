"""Flat morphism storage against a per-vertex reference.

Both hosts store a morphism as one coordinate vector.  The reference here
cuts that vector into its vertex (for conflations: degree, then vertex)
matrices with offsets computed from the objects' dims alone, does the
arithmetic matrix by matrix, and glues the results back; every flat
operation must agree with it, on random A3 representations and on
conflations of A2 representations, for p in {2, 3, 5, 7}, with zero
vertices and empty hom-spaces included.
"""
import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exactcat import category
from exactcat import fflinalg as ff
from exactcat.category import Conflation, conflation_split
from exactcat.cli import parse_spec
from exactcat.conflcat import (
    ConflCategory,
    ConflMor,
    SubstructureTag,
    nonsplit_with_split_ends,
    substructure_member,
    verify_splitting_pseudo_cluster_tilting,
)
from exactcat.fflinalg import FpMatrix
from exactcat.repcat import RepCategory, RepMor, a_n, check_squares

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "exactcat" / "fixtures"
A2 = str(FIXTURES / "a2_base.json")


# -- the per-vertex reference -----------------------------------------------------

def ref_dims(x):
    """Block dims of an object: per vertex, or per degree then vertex."""
    if hasattr(x, "ses"):
        return sum((ref_dims(t) for t in x.terms()), ())
    return tuple(x.dims[v] for v in x.quiver.vertices)


def ref_split(f):
    """The block matrices of f, cut with offsets computed here."""
    out, o = [], 0
    for s, d in zip(ref_dims(f.src), ref_dims(f.dst)):
        out.append(np.asarray(f.vec[o : o + d * s]).reshape(d, s))
        o += d * s
    assert o == len(f.vec)
    return out


def ref_glue(blocks):
    return np.concatenate([b.reshape(-1) for b in blocks] + [np.zeros(0, dtype=np.int64)])


def ref_compose(p, g, f):
    return ref_glue([(gb @ fb) % p for gb, fb in zip(ref_split(g), ref_split(f))])


def ref_combine(p, basis, coeffs, x, y):
    acc = [np.zeros((d, s), dtype=np.int64) for s, d in zip(ref_dims(x), ref_dims(y))]
    for c, b in zip(coeffs, basis):
        acc = [(a + int(c) * m) % p for a, m in zip(acc, ref_split(b))]
    return ref_glue(acc)


# -- random inputs ----------------------------------------------------------------

@st.composite
def a3_triples(draw):
    """(cat, x, y, z, rng) over a random p: A3 representations with vertex
    dims 0..2 (zero vertices and empty hom-spaces are common)."""
    p = draw(st.sampled_from(ff.SUPPORTED_PRIMES))
    cat = RepCategory(a_n(3), p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objs = []
    for _ in range(3):
        dims = {v: draw(st.integers(0, 2)) for v in cat.quiver.vertices}
        maps = {
            a.name: FpMatrix(p, rng.integers(0, p, size=(dims[a.dst], dims[a.src])))
            for a in cat.quiver.arrows
        }
        objs.append(cat.obj(dims, maps))
    return (cat, *objs, rng)


@lru_cache(maxsize=None)
def conflation_objects(p):
    ecat = ConflCategory(RepCategory(a_n(2), p))
    objs = ecat.enumerate_objects(1)
    # plus a split object with a two-dimensional vertex
    base = ecat.base
    objs.append(ecat.split_obj(base.obj({"1": 1, "2": 1}, {"a1": FpMatrix(p, [[1]])}), base.obj({"2": 1})))
    return ecat, objs


@st.composite
def conflation_triples(draw):
    p = draw(st.sampled_from(ff.SUPPORTED_PRIMES))
    ecat, objs = conflation_objects(p)
    picks = [objs[draw(st.integers(0, len(objs) - 1))] for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (ecat, *picks, rng)


def random_flat(cat, x, y, rng):
    """Any flat block-diagonal map x -> y, morphism or not."""
    return cat._mor(x, y, rng.integers(0, cat.p, size=cat.flat_dim(x, y)))


def random_mor(cat, x, y, rng):
    basis = cat.hom_basis(x, y)
    return cat.combine(basis, rng.integers(0, cat.p, size=len(basis)), x, y)


def check_flat_operations(cat, x, y, z, rng):
    p = cat.p
    for make in (random_flat, random_mor):
        f, f2 = make(cat, x, y, rng), make(cat, x, y, rng)
        g = make(cat, y, z, rng)
        c = int(rng.integers(0, 2 * p))
        assert np.array_equal(cat.compose(g, f).vec, ref_compose(p, g, f))
        assert np.array_equal(cat.add(f, f2).vec, (f.vec + f2.vec) % p)
        assert np.array_equal(cat.neg(f).vec, (-f.vec) % p)
        assert np.array_equal(cat.scale(f, c).vec, (c * f.vec) % p)
        assert cat.mor_eq(cat.add(f, cat.neg(f)), cat.zero_mor(x, y))
        for r in (cat.compose(g, f), cat.add(f, f2), cat.neg(f), cat.scale(f, c)):
            assert not r.vec.flags.writeable
        fs = [make(cat, x, y, rng) for _ in range(3)]
        want = np.stack([ref_compose(p, g, h) for h in fs], axis=1)
        assert np.array_equal(cat.compose_flat(g, fs, x, y).a, want)
        gs = [make(cat, y, z, rng) for _ in range(3)]
        want = np.stack([ref_compose(p, h, f) for h in gs], axis=1)
        assert np.array_equal(cat.precompose_flat(gs, f, y, z).a, want)
    # combine over the cached basis (rows shared with its morphisms) and over a list
    basis = cat.hom_basis(x, y)
    coeffs = rng.integers(0, 3 * p, size=len(basis))
    for b in (basis, list(basis)):
        got = cat.combine(b, coeffs, x, y)
        assert np.array_equal(got.vec, ref_combine(p, basis, coeffs, x, y))
        assert not got.vec.flags.writeable
    assert not basis.rows.flags.writeable
    # empty lists keep the row count of the target hom-space
    assert cat.compose_flat(g, [], x, y).a.shape == (cat.flat_dim(x, z), 0)
    assert cat.precompose_flat([], f, y, z).a.shape == (cat.flat_dim(x, z), 0)
    # the identity is a unit for composition
    assert np.array_equal(cat.compose(cat.identity(y), f).vec, f.vec)
    assert np.array_equal(cat.compose(g, cat.identity(y)).vec, g.vec)


@given(case=a3_triples())
@settings(max_examples=60, deadline=None)
def test_rep_flat_operations_match_per_vertex_reference(case):
    check_flat_operations(*case)


@given(case=conflation_triples())
@settings(max_examples=40, deadline=None)
def test_conflation_flat_operations_match_per_degree_reference(case):
    check_flat_operations(*case)


def test_empty_hom_space():
    cat = RepCategory(a_n(3), 5)
    s1 = cat.obj({"1": 1})
    s3 = cat.obj({"3": 1})
    basis = cat.hom_basis(s1, s3)
    assert len(basis) == 0 and basis.rows.shape == (0, 0)
    zero = cat.combine(basis, np.zeros(0, dtype=np.int64), s1, s3)
    assert zero.vec.shape == (0,)
    assert cat.compose_flat(cat.identity(s3), basis, s1, s3).a.shape == (0, 0)


# -- checked constructors ------------------------------------------------------------

def test_checked_rep_constructor_rejects_a_noncommuting_square():
    cat = RepCategory(a_n(2), 3)
    p1 = cat.obj({"1": 1, "2": 1}, {"a1": FpMatrix(3, [[1]])})
    one, zero = FpMatrix(3, [[1]]), FpMatrix(3, [[0]])
    with pytest.raises(ValueError, match="commuting-square"):
        RepMor(p1, p1, {"1": one, "2": zero})
    ok = RepMor(p1, p1, {"1": one, "2": one})
    assert not ok.vec.flags.writeable
    assert RepMor(p1, p1, {"1": one, "2": zero}, check=False).vec.tolist() == [1, 0]


def test_checked_conflation_constructor_rejects_a_non_chain_map():
    cat = RepCategory(a_n(2), 2)
    ecat = ConflCategory(cat)
    s1 = cat.obj({"1": 1})
    x = ecat.split_obj(s1, s1)  # s1 -> s1 (+) s1 -> s1
    ids = [cat.identity(t) for t in x.terms()]
    zeros = [cat.zero_mor(t, t) for t in x.terms()]
    assert ecat.mor_eq(ConflMor(x, x, *ids), ecat.identity(x))
    # the differentials are the arrows d1(v), d2(v) of Q x A3
    with pytest.raises(ValueError, match=r"arrow d1\(1\): commuting-square"):
        ConflMor(x, x, ids[0], zeros[1], zeros[2])
    with pytest.raises(ValueError, match=r"arrow d2\(1\): commuting-square"):
        ConflMor(x, x, zeros[0], zeros[1], ids[2])
    m = ConflMor(x, x, ids[0], zeros[1], ids[2], check=False)
    assert not m.vec.flags.writeable
    # the degree components are views on the one vector
    assert all(np.shares_memory(c.vec, m.vec) for c in m.components() if c.vec.size)


def test_hom_basis_check_rejects_a_bad_row():
    cat = RepCategory(a_n(2), 2)
    p1 = cat.obj({"1": 1, "2": 1}, {"a1": FpMatrix(2, [[1]])})
    rows = cat.hom_basis(p1, p1).rows
    check_squares(p1, p1, rows)
    bad = np.vstack([rows, [[1, 0]]])
    with pytest.raises(ValueError, match="commuting-square"):
        check_squares(p1, p1, bad)


# -- split witnesses: decided once per conflation --------------------------------------

def test_split_witnesses_are_decided_once(monkeypatch):
    cat = RepCategory(a_n(2), 3)
    p1 = cat.obj({"1": 1, "2": 1}, {"a1": FpMatrix(3, [[1]])})
    s1, s2 = cat.obj({"1": 1}), cat.obj({"2": 1})
    calls = []
    real = category.solve_postcompose
    monkeypatch.setattr(category, "solve_postcompose", lambda *a: calls.append(1) or real(*a))
    nonsplit = cat.conflation(cat.hom_basis(s2, p1)[0], cat.hom_basis(p1, s1)[0])
    again = cat.conflation(cat.hom_basis(s2, p1)[0], cat.hom_basis(p1, s1)[0])
    assert conflation_split(cat, nonsplit) is None
    assert conflation_split(cat, again) is None
    _, injs, projs = cat.direct_sum([s2, s1])
    split = Conflation(injs[0], projs[1])
    first = conflation_split(cat, split)
    assert first is not None and conflation_split(cat, split) is first
    assert len(calls) == 2
    # a conflation category decides degree components through the base's cache
    ecat = ConflCategory(cat)
    d = nonsplit_with_split_ends(ecat)
    for tag in SubstructureTag:
        substructure_member(ecat, d, tag)
    decided = len(calls)
    for tag in SubstructureTag:
        substructure_member(ecat, d, tag)
    assert len(calls) == decided


# -- injected faults turn the confl report to fail, with and without -O -------------

# name -> (code patching exactcat, where the report carries the failure, message).
# A failed check inside the biconditional sweep or the split-approximation
# sweep is recorded in its failures; one anywhere else ends the command with
# a report carrying it in "errors".
FAULTS = {
    # a zeroed degree section in the deflation lift formula
    "lift-section": (
        """
real = conflcat.ConflCategory.degree_split

def wrong_section(self, c, degree):
    hit = real(self, c, degree)
    if hit is None:
        return None
    retr, sect = hit
    return retr, self.base.zero_mor(sect.src, sect.dst)

conflcat.ConflCategory.degree_split = wrong_section
""",
        "hom_exactness_biconditional",
        "deflation lift formula",
    ),
    # the base's Hom(t, -) left-exactness count, off by one in every degree
    # component decision the biconditional makes against a split end
    "component-left-exactness": (
        """
from exactcat.category import verify
real = conflcat.hom_exact

def miscounted(cat, c, t, side):
    if side != "covariant":
        return real(cat, c, t, side)
    a, b, z = c.terms()
    dom = cat.hom_basis(t, b)
    rank = cat.compose_flat(c.defl, dom, t, b).rank()
    verify(len(cat.hom_basis(t, a)) + 1 == len(dom) - rank, "hom_exact: Hom(t, -) is not left exact on c")
    return rank == len(cat.hom_basis(t, z))

conflcat.hom_exact = miscounted
""",
        "hom_exactness_biconditional",
        "is not left exact",
    ),
    # a zeroed middle section handed to the deflation lift formula
    "lift-canonical-section": (
        """
real = conflcat._verify_deflation_lift_formula

def zero_section(ecat, dses, test_objects, s1, s2):
    return real(ecat, dses, test_objects, s1, ecat.base.zero_mor(s2.src, s2.dst))

conflcat._verify_deflation_lift_formula = zero_section
""",
        "split_pseudo_cluster_tilting",
        "deflation lift formula",
    ),
    # every degree -1 component is judged not to split: s_precover's check fails
    "precover": (
        """
real = conflcat.ConflCategory.degree_splits
conflcat.ConflCategory.degree_splits = lambda self, c, d: d != 1 and real(self, c, d)
""",
        "errors",
        "split precover conflation does not split in degrees -1 and 0",
    ),
    # the obstruction's middle degree is a split conflation: its search,
    # and nothing else, takes every conflation for nonsplit
    "obstruction": (
        """
search = conflcat.nonsplit_with_split_ends
never_split = dict(search.__globals__, conflation_split=lambda b, c: None)
conflcat.nonsplit_with_split_ends = type(search)(search.__code__, never_split)
""",
        "errors",
        "obstruction splits in degree 0",
    ),
    # the pushout in the degree-0 factorization gets a zero leg
    "factorization": (
        """
real = conflcat.ConflCategory.pushout

def zero_leg(self, f, g):
    c, t, s = real(self, f, g)
    return c, self.zero_mor(t.src, c), s

conflcat.ConflCategory.pushout = zero_leg
""",
        "errors",
        "no factorization through the epimorphism",
    ),
}

FAULT_MAIN = """
import sys
from exactcat import cli, conflcat
from exactcat.category import Conflation
{fault}
sys.exit(cli.main(["confl", sys.argv[1], "--bound", "1", "--out", sys.argv[2]]))
"""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_fails_the_confl_report(tmp_path, fault, optimize):
    code, where, message = FAULTS[fault]
    out = tmp_path / "confl.json"
    script = FAULT_MAIN.format(fault=code)
    argv = [sys.executable] + (["-O"] if optimize else []) + ["-c", script, A2, str(out)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail" and payload["exit_code"] == 1
    report = payload["report"]
    if where == "errors":
        failures = report["errors"]
    else:
        assert report[where]["verdict"] == "fail"
        failures = report[where]["failures"]
    assert any(message in f for f in failures)


def test_split_approximation_sweep_records_a_failed_precover(monkeypatch):
    ecat = ConflCategory(parse_spec(A2).cat)
    real = ConflCategory.degree_splits
    monkeypatch.setattr(ConflCategory, "degree_splits", lambda self, c, d: d != 1 and real(self, c, d))
    report = verify_splitting_pseudo_cluster_tilting(ecat, bound=1, test_bound=1)
    assert not report.passed
    failed = [f for f in report.failures if "split precover conflation does not split" in f]
    assert len(failed) == report.objects_checked
