import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from exactcat import fflinalg as ff
from exactcat import quotient as qt
from exactcat.approx import AddSubcat, generator_multisets
from exactcat.category import enumerate_hom
from exactcat.cli import build_spec, parse_spec
from exactcat.fflinalg import FpMatrix

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "exactcat" / "fixtures"


def test_qhom_dims(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    assert qt.qhom(P, o["S2"], o["S2"]).dim == 1
    for y in o.values():
        assert qt.qhom(P, o["P1"], y).dim == 0
    empty = AddSubcat(cat, [], label="0")
    for x in o.values():
        for y in o.values():
            assert qt.qhom(empty, x, y).dim == len(cat.hom_basis(x, y))


def test_qhom_accounting(a3, a3_sub):
    cat, o = a3
    space = qt.qhom(a3_sub, o["P1"], o["I2"])
    assert space.hom_dim == space.ideal_dim + space.dim


def test_q_is_zero(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    assert qt.q_is_zero(qt.QMor(P, cat.zero_mor(o["S2"], o["S2"])))
    assert not qt.q_is_zero(qt.QMor(P, cat.identity(o["S2"])))
    through_gen = cat.compose(
        cat.hom_basis(P.generators[1], o["P1"])[0], cat.hom_basis(o["S3"], P.generators[1])[0]
    )
    assert qt.q_is_zero(qt.QMor(P, through_gen))


def test_q_is_iso_examples(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    inv = qt.q_is_iso(qt.QMor(P, cat.identity(o["S2"])))
    assert inv is not None
    # the zero class of a nonzero object is not invertible
    assert qt.q_is_iso(qt.QMor(P, cat.zero_mor(o["S2"], o["S2"]))) is None
    # identities of subcategory members are isos between zero objects
    assert qt.q_is_iso(qt.QMor(P, cat.identity(o["P1"]))) is not None
    # source in the subcategory, nonzero target class: no iso
    for f in cat.hom_basis(o["P2"], o["S2"]):
        assert qt.q_is_iso(qt.QMor(P, f)) is None


def test_q_is_iso_blocksearch_padding(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    # S2 -> S2 (+) P1 canonical injection: iso in the quotient, needs pads
    total, injs, projs = cat.direct_sum([o["S2"], o["P1"]])
    f = qt.QMor(P, injs[0])
    assert qt.q_is_iso(f) is not None
    witness = qt.q_is_iso_blocksearch(f)
    assert witness is not None
    assert P.contains(witness.pad_src) and P.contains(witness.pad_dst)


def test_q_kernel_cokernel_trivial_cases(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    ident = qt.QMor(P, cat.identity(o["S2"]))
    assert qt.q_is_zero(qt.q_kernel(ident))
    assert qt.q_is_zero(qt.q_cokernel(ident))

    zero = qt.QMor(P, cat.zero_mor(o["S2"], o["S2"]))
    k = qt.q_kernel(zero)
    assert qt.q_is_iso(k) is not None  # kernel of zero is all of the source
    c = qt.q_cokernel(zero)
    assert qt.q_is_iso(c) is not None

    # invertible class: zero kernel
    assert qt.q_is_zero(qt.q_kernel(ident))


def _q_universal_kernel_check(P, sample, cap=512):
    cat = P.cat
    for x in sample:
        for y in sample:
            for f_host in enumerate_hom(cat, x, y, cap)[0]:
                f = qt.QMor(P, f_host)
                k = qt.q_kernel(f)
                assert qt.q_is_zero(qt.QMor(P, cat.compose(f_host, k.rep)))
                for t in sample:
                    for g_host in enumerate_hom(cat, t, x, cap)[0]:
                        g = qt.QMor(P, g_host)
                        if not qt.q_is_zero(qt.QMor(P, cat.compose(f_host, g_host))):
                            continue
                        h = _factor_mod_ideal(P, k.rep, g_host)
                        assert h is not None, "weak kernel property failed"


def _factor_mod_ideal(P, k_rep, g):
    """Solve k o h + ideal = g for h."""
    cat = P.cat
    t = g.src
    k_src, x = k_rep.src, k_rep.dst
    basis = cat.hom_basis(t, k_src)
    cols = [cat.compose(k_rep, h).vec for h in basis]
    cols += [i.vec for i in P.ideal_spanning(t, x)]
    if not cols:
        return None if g.vec.any() else cat.zero_mor(t, k_src)
    m = FpMatrix(cat.p, np.stack(cols, axis=1))
    sol = ff.solve_right(m, FpMatrix(cat.p, g.vec.reshape(-1, 1)))
    if sol is None:
        return None
    return cat.combine(basis, sol.a[: len(basis), 0], t, k_src)


def test_q_kernel_universal_property(a3, a3_sub):
    cat, o = a3
    sample = [o["S2"], o["P2"], o["S1"]]
    _q_universal_kernel_check(a3_sub, sample)


def test_q_coim_im(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    data = qt.q_coim_im(qt.QMor(P, cat.identity(o["S2"])))
    assert data.unique
    assert qt.q_is_iso(data.hat) is not None

    data = qt.q_coim_im(qt.QMor(P, cat.zero_mor(o["S2"], o["S2"])))
    assert data.unique
    # coim and im of the zero class are zero objects of the quotient
    assert qt.q_is_zero(qt.QMor(P, P.cat.identity(data.coim)))
    assert qt.q_is_zero(qt.QMor(P, P.cat.identity(data.im)))


def test_mediating_morphism_regular_everywhere(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    for x in (o["S2"], o["P2"]):
        for y in (o["S2"], o["I2"]):
            for f_host in enumerate_hom(cat, x, y)[0]:
                data = qt.q_coim_im(qt.QMor(P, f_host))
                assert data.unique
                assert qt.q_is_mono(data.hat) and qt.q_is_epi(data.hat)


def test_mono_epi_match_cancellation(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    sample = [o["S2"], o["P2"], o["S1"]]
    for x in sample:
        for y in sample:
            for f_host in enumerate_hom(cat, x, y)[0]:
                f = qt.QMor(P, f_host)
                mono = qt.q_is_mono(f)
                cancel = all(
                    qt.q_is_zero(qt.QMor(P, g))
                    for t in sample
                    for g in enumerate_hom(cat, t, x)[0]
                    if qt.q_is_zero(qt.QMor(P, cat.compose(f_host, g)))
                )
                assert mono == cancel
                epi = qt.q_is_epi(f)
                cocancel = all(
                    qt.q_is_zero(qt.QMor(P, g))
                    for t in sample
                    for g in enumerate_hom(cat, y, t)[0]
                    if qt.q_is_zero(qt.QMor(P, cat.compose(g, f_host)))
                )
                assert epi == cocancel


def test_verify_sweeps(a2, a3, a3_sub):
    cat3, o3 = a3
    indecs = list(o3.values())
    semi = qt.verify_semiabelian(a3_sub, indecs)
    assert semi.verdict == "pass"
    ab = qt.verify_abelian(a3_sub, indecs)
    assert ab.verdict == "pass"

    only_s2 = qt.verify_semiabelian(a3_sub, [o3["S2"]])
    assert only_s2.verdict == "pass"
    assert only_s2.checked == 2  # the zero map and the identity over F_2

    # trivial ideal on an abelian host: regular implies invertible already
    cat2, o2 = a2
    empty = AddSubcat(cat2, [], label="0")
    assert qt.verify_abelian(empty, list(o2.values())).verdict == "pass"

    # everything quotiented away: vacuous pass
    full = AddSubcat(cat3, indecs, label="all")
    assert qt.verify_abelian(full, indecs).verdict == "pass"


def test_qhom_invariant_under_iso_presentation(a3, a3_sub):
    cat, o = a3
    # two structurally different presentations of the same object
    two = cat.obj(
        {"1": 2, "2": 2, "3": 2},
        {"a1": FpMatrix(2, [[1, 1], [0, 1]]), "a2": FpMatrix(2, [[0, 1], [1, 0]])},
        name="two",
    )
    basechange = cat.obj(
        {"1": 2, "2": 2, "3": 2},
        {"a1": FpMatrix(2, [[1, 0], [1, 1]]), "a2": FpMatrix(2, [[1, 1], [1, 0]])},
        name="two'",
    )
    from exactcat.category import find_iso

    assert find_iso(cat, two, basechange) is not None
    for y in (o["S2"], o["P1"]):
        assert qt.qhom(a3_sub, two, y).dim == qt.qhom(a3_sub, basechange, y).dim


def test_enumeration_cap_marks_sampled(a3, a3_sub):
    cat, o = a3
    big = cat.direct_sum([o["S2"], o["S2"]])[0]  # End has dim 4, above the cap
    rep = qt.verify_semiabelian(a3_sub, [big], cap=8, seed=1)
    assert rep.sampled
    assert rep.verdict == "sampled-pass"


def test_sweep_classes_decides_each_class_once(a2, a3, a3_sub):
    """An always-failing decision on an exhaustive sample: every enumerated
    morphism is checked and every quotient class fails exactly once."""
    cat2, o2 = a2
    cat3, o3 = a3
    for sub, sample in ((a3_sub, list(o3.values())), (AddSubcat(cat2, [], label="0"), list(o2.values()))):
        cat = sub.cat
        decided = []

        def decide(qf):
            decided.append(qf)
            return f"class {len(decided)}"

        report = qt._sweep_classes(sub, sample, qt.ENUM_CAP, 0, decide)
        pairs = [(x, y) for x in sample for y in sample]
        assert not report.sampled and not report.passed
        assert report.pair_count == len(pairs)
        assert report.checked == sum(cat.p ** len(cat.hom_basis(x, y)) for x, y in pairs)
        assert len(report.failures) == sum(cat.p ** qt.qhom(sub, x, y).dim for x, y in pairs)
        assert report.failures == [f"class {i}" for i in range(1, len(decided) + 1)]


# -- the block search against the per-tuple reference loop --------------------------

def _reference_blocksearch(f, extra_dim_cap=6, combo_cap=4096):
    """The block search done the long way: build P, Q, X (+) P and Y (+) Q for
    every attempt, compose every block with the injections and projections,
    and test the coefficient tuples one at a time, rank by rank."""
    cat, sub = f.cat, f.sub
    x, y = f.src, f.dst
    gens = list(sub.generators)

    def multisets():
        out, stack = [[]], [([], 0, 0)]
        while stack:
            ms, start, dim = stack.pop()
            for i in range(start, len(gens)):
                d = dim + gens[i].total_dim
                if d <= extra_dim_cap:
                    out.append(ms + [i])
                    stack.append((ms + [i], i, d))
        return out

    def profile(ms):
        return tuple(sum(c) for c in zip(cat.zero_obj().dimv, *(gens[i].dimv for i in ms)))

    by_profile = {}
    for ms in multisets():
        by_profile.setdefault(profile(ms), []).append(ms)
    for p_ms in sorted(multisets(), key=lambda ms: (sum(gens[i].total_dim for i in ms), ms)):
        need = tuple(a + b - c for a, b, c in zip(x.dimv, profile(p_ms), y.dimv))
        if any(v < 0 for v in need):
            continue
        for q_ms in by_profile.get(need, []):
            pad_p = cat.direct_sum([gens[i] for i in p_ms])[0] if p_ms else cat.zero_obj()
            pad_q = cat.direct_sum([gens[i] for i in q_ms])[0] if q_ms else cat.zero_obj()
            _, (ix, ip), (prx, prp) = cat.direct_sum([x, pad_p])
            _, (iy, iq), (pry, prq) = cat.direct_sum([y, pad_q])
            base = cat.compose(iy, cat.compose(f.rep, prx))
            lifted = [cat.compose(iy, cat.compose(h, prp)) for h in cat.hom_basis(pad_p, y)]
            lifted += [cat.compose(iq, cat.compose(h, prx)) for h in cat.hom_basis(x, pad_q)]
            lifted += [cat.compose(iq, cat.compose(h, prp)) for h in cat.hom_basis(pad_p, pad_q)]
            if cat.p ** len(lifted) > combo_cap:
                continue
            comps = [cat.mor_components(m) for m in [base] + lifted]
            # the column and row spans over all completions must be full
            if any(
                ff.array_rank(np.hstack(ms), cat.p) < len(ms[0]) or ff.array_rank(np.vstack(ms), cat.p) < len(ms[0])
                for ms in zip(*comps)
            ):
                continue
            for coeffs in product(range(cat.p), repeat=len(lifted)):
                total = cat.combine([base] + lifted, np.array((1,) + coeffs), base.src, base.dst)
                if all(ff.array_rank(m, cat.p) == m.shape[0] for m in cat.mor_components(total)):
                    return pad_p, pad_q, total
    return None


def _sweep_witnesses(source, search, sub_name="P"):
    """(pad_src key, pad_dst key, total bytes) or None for every class the
    iso-agreement sweep of the spec decides, in sweep order, on a category
    of its own."""
    doc = parse_spec(source) if isinstance(source, str) else build_spec(source)
    sub = doc.subcategories[sub_name]
    found = []

    def decide(qf):
        w = search(qf)
        if w is not None:
            pad_src, pad_dst, total = w
            w = (pad_src.key, pad_dst.key, total.vec.tobytes())
        found.append(w)

    qt._sweep_classes(sub, [doc.objects[n] for n in sorted(doc.objects)], qt.ENUM_CAP, None, decide)
    return found


def _blocksearch(qf):
    w = qt.q_is_iso_blocksearch(qf)
    return None if w is None else (w.pad_src, w.pad_dst, w.total)


def _specgen():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "specgen.py"
    spec = importlib.util.spec_from_file_location("specgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _a3_f3_spec():
    """A3 over F_3: the six indecomposables and S2 (+) P2, in seeded random bases."""
    gen = _specgen()
    objects = {name: [name] for name in gen.A3_INTERVALS}
    objects["X"] = ["S2", "P2"]
    return gen.make_spec("block-search-oracle", 3, 3, objects, {"P": ["P1", "P2", "S3", "S1", "I2"]})


@pytest.mark.parametrize("source", ["a3-fixture-f2", "a3-specgen-f3"])
def test_block_search_witness_matches_reference_loop(source):
    make = (lambda: str(FIXTURES / "a3_projinj.json")) if source == "a3-fixture-f2" else _a3_f3_spec
    # separate categories, so neither search sees the other's biproducts
    new = _sweep_witnesses(make(), _blocksearch)
    ref = _sweep_witnesses(make(), _reference_blocksearch)
    assert new == ref
    assert any(w is None for w in new) and any(w is not None for w in new)


# -- the block search planned once per subcategory against the per-search one -------

GOLDEN = Path(__file__).parent / "golden"


def _per_search_blocksearch(f, extra_dim_cap=6, combo_cap=4096):
    """The block search as it was before its plan and pads moved onto the
    subcategory: the multisets, their dimension profiles and the pads are
    built afresh in every search, and each attempt assembles the rows of
    its three pad hom bases before the size test."""
    cat, sub = f.cat, f.sub
    x, y = f.src, f.dst
    gens = list(sub.generators)

    def dim_profile(obj_list):
        zero = cat.zero_obj().dimv
        return tuple(map(sum, zip(zero, *(o.dimv for o in obj_list))))

    pads = {}

    def pad(ms):
        obj = pads.get(ms)
        if obj is None:
            obj = pads[ms] = cat.direct_sum([gens[i] for i in ms])[0] if ms else cat.zero_obj()
        return obj

    multisets = generator_multisets([g.total_dim for g in gens], extra_dim_cap)
    q_multis = {}
    for ms in multisets:
        q_multis.setdefault(dim_profile([gens[i] for i in ms]), []).append(ms)
    for p_ms in sorted(multisets, key=lambda ms: (sum(gens[i].total_dim for i in ms), ms)):
        need = tuple(a + b - c for a, b, c in zip(x.dimv, dim_profile([gens[i] for i in p_ms]), y.dimv))
        if any(v < 0 for v in need):
            continue
        for q_ms in q_multis.get(need, []):
            w = _per_search_completion(f, pad(p_ms), pad(q_ms), combo_cap)
            if w is not None:
                return w
    return None


def _per_search_completion(f, p_obj, q_obj, combo_cap):
    cat = f.cat
    p, blocks = cat.p, cat.blocks
    x, y = f.src, f.dst
    src = tuple(a + b for a, b in zip(x.dimv, p_obj.dimv))
    dst = tuple(a + b for a, b in zip(y.dimv, q_obj.dimv))
    at0 = (0,) * len(src)
    corners = [
        (f.rep.vec[None, :], x.dimv, y.dimv, at0, at0),
        (cat.hom_basis(p_obj, y).rows, p_obj.dimv, y.dimv, x.dimv, at0),
        (cat.hom_basis(x, q_obj).rows, x.dimv, q_obj.dimv, at0, y.dimv),
        (cat.hom_basis(p_obj, q_obj).rows, p_obj.dimv, q_obj.dimv, x.dimv, y.dimv),
    ]
    n = sum(len(rows) for rows, *_ in corners) - 1
    if p**n > combo_cap:
        return None
    placed = np.zeros((n + 1, blocks.size(src, dst)), dtype=np.int64)
    lo = 0
    for rows, s, t, s_at, t_at in corners:
        placed[lo : lo + len(rows), blocks.corner_positions(s, t, src, dst, s_at, t_at)] = rows
        lo += len(rows)
    base, lifted = placed[0], placed[1:]
    coeffs = np.arange(p**n)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    alive = np.arange(len(coeffs))
    for o, r, _ in blocks.layout(src, dst)[0]:
        if r == 0:
            continue
        comp = slice(o, o + r * r)
        span = placed[:, comp].reshape(n + 1, r, r)
        if ff.array_rank(span.transpose(1, 0, 2).reshape(r, -1), p) < r or ff.array_rank(span.reshape(-1, r), p) < r:
            return None
        stack = coeffs[alive] @ lifted[:, comp] + base[comp]
        stack %= p
        alive = alive[ff.invertible_stack(stack.reshape(-1, r, r), p)]
        if not alive.size:
            return None
    vec = coeffs[alive[0]] @ lifted + base
    vec %= p
    vec.setflags(write=False)
    return p_obj, q_obj, cat._mor(cat.direct_sum([x, p_obj])[0], cat.direct_sum([y, q_obj])[0], vec)


@pytest.mark.parametrize(
    "spec, sub_name",
    [
        ("seeded_quotient_p3.json", "P"),
        ("seeded_classes_p2.json", "P"),
        ("seeded_precover_large.json", "addX"),
        # A3 over F_3 under specgen key "7.3", where a skipped pad pair turns
        # two true isomorphisms into disagreements (ROADMAP item 6)
        ("seeded_classes_f3_7_3.json", "P"),
    ],
)
def test_planned_block_search_matches_per_search_oracle(spec, sub_name):
    new = _sweep_witnesses(str(GOLDEN / spec), _blocksearch, sub_name)
    ref = _sweep_witnesses(str(GOLDEN / spec), _per_search_blocksearch, sub_name)
    assert new == ref
    assert any(w is None for w in new)


def _pad_builds(sub, search, monkeypatch):
    """The generator multisets whose sums `search` builds while the
    iso-agreement sweep of sub runs over the spec objects."""
    cat, gens = sub.cat, sub.generators
    built, searching = [], []
    real_sum = cat.direct_sum

    def counting_sum(xs):
        # a pad is a sum of generators only; a witness's X (+) P is not
        if searching and all(any(x is g for g in gens) for x in xs):
            built.append(tuple(next(i for i, g in enumerate(gens) if x is g) for x in xs))
        return real_sum(xs)

    def traced_search(qf):
        searching.append(True)
        try:
            return search(qf)
        finally:
            searching.pop()

    monkeypatch.setattr(cat, "direct_sum", counting_sum)
    monkeypatch.setattr(qt, "q_is_iso_blocksearch", traced_search)
    return built


def test_block_search_builds_each_pad_once_per_subcategory(monkeypatch):
    spec = str(GOLDEN / "seeded_quotient_p3.json")
    doc = parse_spec(spec)
    sub = doc.subcategories["P"]
    sample = [doc.objects[n] for n in sorted(doc.objects)]
    built = _pad_builds(sub, qt.q_is_iso_blocksearch, monkeypatch)
    qt.iso_agreement_sweep(sub, sample)
    assert built and len(built) == len(set(built))
    assert len(built) <= len(sub.block_plan(6)[0])
    # a second sweep over the same subcategory builds no pad at all
    built.clear()
    qt.iso_agreement_sweep(sub, sample)
    assert built == []
    # the per-search oracle rebuilds its pads in every search
    monkeypatch.undo()
    old_doc = parse_spec(spec)
    old_sub = old_doc.subcategories["P"]
    rebuilt = _pad_builds(old_sub, _per_search_blocksearch, monkeypatch)
    qt.iso_agreement_sweep(old_sub, [old_doc.objects[n] for n in sorted(old_doc.objects)])
    assert len(rebuilt) > 10 * len(set(rebuilt))


def test_block_plan_is_built_once_per_cap(a3):
    cat, o = a3
    # P2 and S2 (+) S3 share a dimension profile
    sub = AddSubcat(cat, [o["P2"], o["S2"], o["S3"]], label="P")
    order, by_profile = sub.block_plan(3)
    assert sub.block_plan(3)[0] is order
    multisets = generator_multisets([2, 1, 1], 3)
    assert [ms for ms, _ in order] == sorted(multisets, key=lambda ms: (sum([2, 1, 1][i] for i in ms), ms))
    for ms, profile in order:
        assert profile == sub.multiset_sum(ms).dimv
        assert by_profile[profile] == [m for m in multisets if sub.multiset_sum(m).dimv == profile]
    assert len(by_profile[(0, 1, 1)]) == 2
    assert sub.multiset_sum((1, 2)) is sub.multiset_sum((1, 2))
    assert [x.key for x in sub.sample_objects(3)] == sorted(
        {sub.multiset_sum(ms).key for ms, _ in order}, key=lambda k: (sum(k[0]), k)
    )


# -- quotient kernels, cokernels and zero tests once per morphism --------------------

def test_quotient_constructions_are_memoized(a3, a3_sub, monkeypatch):
    cat, o = a3
    sub = AddSubcat(cat, a3_sub.generators, label=a3_sub.label)
    f = cat.hom_basis(o["P2"], o["S2"])[0]
    qf = qt.QMor(sub, f)
    same = qt.QMor(sub, cat.combine([f], np.array([1]), o["P2"], o["S2"]))  # equal bytes, another object
    kernel, cokernel = qt.q_kernel(qf), qt.q_cokernel(qf)
    assert qt.q_kernel(same) is kernel and qt.q_cokernel(same) is cokernel
    zero = qt.q_is_zero(qf)
    calls = []
    monkeypatch.setattr(sub, "is_ideal_member", lambda g: calls.append(g))
    assert qt.q_is_zero(same) == zero and calls == []
    # another morphism is decided afresh
    qt.q_is_zero(qt.QMor(sub, cat.zero_mor(o["P2"], o["S2"])))
    assert len(calls) == 1


@pytest.mark.parametrize("spec", ["a3_projinj", "seeded_quotient_p3"])
def test_memoized_constructions_match_a_fresh_subcategory(spec):
    path = FIXTURES / "a3_projinj.json" if spec == "a3_projinj" else GOLDEN / "seeded_quotient_p3.json"
    doc = parse_spec(str(path))
    sub = doc.subcategories["P"]
    cat = sub.cat
    sample = [doc.objects[n] for n in sorted(doc.objects)]
    qt.verify_semiabelian(sub, sample)
    qt.verify_abelian(sub, sample)
    fresh = AddSubcat(cat, sub.generators, label=sub.label)
    hits = 0
    for x in sample:
        for y in sample:
            for f in enumerate_hom(cat, x, y, 64)[0]:
                key = (x.key, y.key, f.vec.tobytes())
                for kind, op in (("kernel", qt.q_kernel), ("cokernel", qt.q_cokernel)):
                    if (kind, *key) not in sub._quotient_memo:
                        continue
                    hits += 1
                    kept, made = op(qt.QMor(sub, f)).rep, op(qt.QMor(fresh, f)).rep
                    assert kept.src.key == made.src.key
                    assert kept.dst.key == made.dst.key
                    assert kept.vec.tobytes() == made.vec.tobytes()
                if ("zero", *key) in sub._quotient_memo:
                    hits += 1
                    assert qt.q_is_zero(qt.QMor(sub, f)) == qt.q_is_zero(qt.QMor(fresh, f))
    assert hits > len(sample) ** 2


# -- a failed inverse check ends iso-agreement with a fail report, with and without -O ----

FAULT_MAIN = """
import sys
from exactcat import cli, quotient
quotient._two_sided_inverse = lambda cat, f: None
sys.exit(cli.main(["iso-agreement", sys.argv[1], "--out", sys.argv[2]]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_missing_block_inverse_fails_iso_agreement(tmp_path, optimize):
    out = tmp_path / "iso.json"
    argv = [sys.executable] + (["-O"] if optimize else []) + ["-c", FAULT_MAIN, str(FIXTURES / "a3_projinj.json"), str(out)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail" and payload["exit_code"] == 1
    assert any("no two-sided inverse" in e for e in payload["report"]["errors"])
