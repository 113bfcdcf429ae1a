"""Hom-spaces of registered direct sums, kept summand-wise.

A basis of Hom(x, s_1 (+) ... (+) s_k) or Hom(s_1 (+) ... (+) s_k, y) is
stored as its parts, one sub-basis per summand.  Composition, precomposition
and linear combination go through the parts; here they must agree byte for
byte with the same operations on the materialised rows, and those rows with
the sub-bases composed with the canonical injections and projections, on
representations and on conflations, over F_2 and F_3, with nested sums and
zero summands.  The last test runs the precover-large check under a 512 MiB
address-space cap, where a dense sum basis does not fit.
"""
import importlib.util
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from exactcat.conflcat import ConflCategory
from exactcat.fflinalg import FpMatrix
from exactcat.repcat import RepCategory, a_n

SPECGEN = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"


def _rep_pool(draw, p, rng):
    cat = RepCategory(a_n(3), p)
    pool = []
    for _ in range(3):
        dims = {v: draw(st.integers(0, 2)) for v in cat.quiver.vertices}
        dims["1"] = max(dims["1"], 1)
        maps = {a.name: FpMatrix(p, rng.integers(0, p, size=(dims[a.dst], dims[a.src]))) for a in cat.quiver.arrows}
        pool.append(cat.obj(dims, maps))
    return cat, pool


def _confl_pool(p):
    base = RepCategory(a_n(2), p)
    p1 = base.obj({"1": 1, "2": 1}, {"a1": FpMatrix(p, [[1]])})
    s1, s2 = base.obj({"1": 1}), base.obj({"2": 1})
    ecat = ConflCategory(base)
    nonsplit = ecat.make_obj(base.conflation(base.hom_basis(s2, p1)[0], base.hom_basis(p1, s1)[0]))
    return ecat, [nonsplit, ecat.split_obj(s2, s1), ecat.split_obj(p1, s2)]


@st.composite
def sum_cases(draw):
    """(cat, pool, sums with their summands and injections/projections, rng):
    a fresh host over F_2 or F_3, a flat sum with a zero summand and a
    nested sum of it."""
    p = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cat, pool = _rep_pool(draw, p, rng)
    else:
        cat, pool = _confl_pool(p)
    picks = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(3)]
    flat_summands = [picks[0], cat.zero_obj(), picks[1]]
    flat, injs, projs = cat.direct_sum(flat_summands)
    nested_summands = [flat, picks[2]]
    nested, n_injs, n_projs = cat.direct_sum(nested_summands)
    sums = [(flat, flat_summands, injs, projs), (nested, nested_summands, n_injs, n_projs)]
    return cat, pool, sums, rng


def _random_mor(cat, x, y, rng):
    basis = cat.hom_basis(x, y)
    return cat.combine(basis, rng.integers(0, cat.p, size=len(basis)), x, y)


def _placed_rows(cat, x, y, summands, maps, into):
    """The basis of Hom(x, y) for y (resp. x) the sum of summands, built
    morphism by morphism with the canonical injections (projections)."""
    vecs = []
    for s, m in zip(summands, maps):
        if into:
            vecs += [cat.compose(m, h).vec for h in cat.hom_basis(x, s)]
        else:
            vecs += [cat.compose(h, m).vec for h in cat.hom_basis(s, y)]
    return np.array(vecs, dtype=np.int64).reshape(len(vecs), cat.flat_dim(x, y))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_against_rows(cat, basis, pool, rng):
    x, y = basis.x, basis.y
    lazy = basis._rows is None
    n = len(basis)
    gs = [_random_mor(cat, y, z, rng) for z in pool]
    ms = [_random_mor(cat, w, x, rng) for w in pool]
    coeffs = [rng.integers(0, 3 * cat.p, size=n) * (rng.random(n) < 0.5), np.zeros(n, dtype=np.int64)]
    composed = [cat.compose_flat(g, basis, x, y).a for g in gs]
    precomposed = [cat.precompose_flat(basis, m, x, y).a for m in ms]
    combined = [cat.combine(basis, c, x, y).vec for c in coeffs]
    # none of the summand-wise operations builds the dense rows
    assert (basis._rows is None) == lazy
    rows = basis.rows
    assert rows.shape == (n, cat.flat_dim(x, y)) and not rows.flags.writeable
    dense = [cat._mor(x, y, r) for r in rows]
    for g, got in zip(gs, composed):
        assert _same(got, cat.compose_flat(g, dense, x, y).a)
    for m, got in zip(ms, precomposed):
        assert _same(got, cat.precompose_flat(dense, m, x, y).a)
    for c, got in zip(coeffs, combined):
        assert _same(got, cat.combine(dense, c, x, y).vec)
    assert len(list(basis)) == n and bool(basis) == (n > 0)
    assert all(_same(f.vec, r) for f, r in zip(basis, rows))
    assert all(_same(basis[i].vec, rows[i]) for i in range(-n, n))
    return rows


@given(case=sum_cases())
@settings(max_examples=40, deadline=None)
def test_summand_wise_basis_matches_its_rows(case):
    cat, pool, sums, rng = case
    registered = {cat.obj_key(t): (summands, injs) for t, summands, injs, _ in sums}
    for total, summands, injs, projs in sums:
        for x in pool + [total]:
            into = cat.hom_basis(x, total)
            assert into.parts and into.into
            rows = _check_against_rows(cat, into, pool, rng)
            assert _same(rows, _placed_rows(cat, x, total, summands, injs, True))
        for y in pool:
            out_of = cat.hom_basis(total, y)
            rows = _check_against_rows(cat, out_of, pool, rng)
            if cat.obj_key(y) in registered:
                # y equals a registered sum, and hom_basis splits the target first
                assert out_of.parts and out_of.into
                assert _same(rows, _placed_rows(cat, total, y, *registered[cat.obj_key(y)], True))
            else:
                assert out_of.parts and not out_of.into
                assert _same(rows, _placed_rows(cat, total, y, summands, projs, False))


def test_summand_maps_are_built_once_per_summand_and_read_only():
    """Two direct sums of the same summands share their injection and
    projection vectors, and those are the identity placed at the summand."""
    cat = RepCategory(a_n(2), 3)
    p1 = cat.obj({"1": 1, "2": 1}, {"a1": FpMatrix(3, [[1]])})
    s2 = cat.obj({"2": 1})
    total, injs, projs = cat.direct_sum([p1, s2, p1])
    _, again_injs, again_projs = cat.direct_sum([p1, s2, p1])
    for i, (inj, prj) in enumerate(zip(injs, projs)):
        assert again_injs[i].vec is inj.vec and again_projs[i].vec is prj.vec
        assert not inj.vec.flags.writeable and not prj.vec.flags.writeable
        assert cat.mor_eq(cat.compose(prj, inj), cat.identity(inj.src))
    assert injs[0].vec is not injs[2].vec  # same summand, another place
    assert cat.mor_eq(
        cat.add(cat.add(cat.compose(injs[0], projs[0]), cat.compose(injs[1], projs[1])), cat.compose(injs[2], projs[2])),
        cat.identity(total),
    )


# The precover-large benchmark shape: add(X) on A2 over F_2, X = P1 (+) S1^2 (+) S2
# in a seeded basis.  Its precovers are powers of X, up to X^32 (X^72 for the
# evaluation of the whole hom bases).
CAP_BYTES = 512 << 20

COUNTED_CHECK_PCT = """
import sys
from exactcat import category, cli

assemblies = 0
assemble = category.HomBasis._assemble


def counted(self):
    global assemblies
    assemblies += 1
    return assemble(self)


category.HomBasis._assemble = counted
code = cli.main(["check-pct", sys.argv[1], "--subcategory", "addX", "--out", sys.argv[2]])
print(assemblies)
sys.exit(code)
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def test_precover_large_check_fits_in_512_mib(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("specgen_under_test", SPECGEN)
    specgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(specgen)
    objects = {"P1": ["P1"], "S1": ["S1"], "S2": ["S2"], "X": ["P1", "S1", "S1", "S2"]}
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    path.write_bytes(specgen.spec_bytes(specgen.make_spec("901.0", 2, 2, objects, {"addX": ["X"]})))
    res = subprocess.run(
        [sys.executable, "-c", COUNTED_CHECK_PCT, str(path), str(out)],
        capture_output=True,
        text=True,
        timeout=540,
        preexec_fn=_cap_address_space,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    # no dense basis of a hom-space into or out of a sum was built
    assert res.stdout.split() == ["0"]
