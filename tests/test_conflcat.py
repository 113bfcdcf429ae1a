import collections
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from exactcat import cli, conflcat
from exactcat import quotient as qt
from exactcat.approx import AddSubcat
from exactcat.category import (
    Category,
    Conflation,
    VerificationError,
    conflation_split,
    enumerate_hom,
    solve_postcompose,
    solve_precompose,
)
from exactcat.conflcat import (
    ConflCategory,
    ConflMor,
    SplitConflationSubcat,
    SubstructureTag,
    _verify_deflation_lift_formula,
    _verify_inflation_lift_formula,
    check_hom_exactness_matches_splitting,
    cluster_quotient_harness,
    factor_split0_conflation,
    nonsplit_with_split_ends,
    s_precover,
    s_preenvelope,
    substructure_member,
    sweep_hom_exactness_biconditional,
    verify_splitting_pseudo_cluster_tilting,
)
from exactcat.fflinalg import BlockMaps, FpMatrix, memo_store
from exactcat.repcat import RepCategory, RepMor

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "exactcat" / "fixtures"


@pytest.fixture(scope="module")
def econf(a2):
    cat, o = a2
    ecat = ConflCategory(cat)
    sub = ecat.split_sub
    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    nonsplit = ecat.make_obj(cat.conflation(iota, pi), name="X")
    return ecat, sub, nonsplit


def test_confl_category_owns_its_caches(a2):
    """One split subcategory and one biproduct per pair, handed out again on
    every call, so the harnesses share their split approximations."""
    cat, o = a2
    ecat = ConflCategory(cat)
    assert isinstance(ecat.split_sub, SplitConflationSubcat)
    assert ecat.split_sub.cat is ecat
    assert ecat.split_sub is ecat.split_sub
    first = ecat._pair(o["S1"], o["P1"])
    assert ecat._pair(o["S1"], o["P1"]) is first
    total, injs, projs = first
    assert total.key == cat.direct_sum([o["S1"], o["P1"]])[0].key
    assert ecat._pair(o["P1"], o["S1"]) is not first
    x = ecat.split_obj(o["S1"], o["S2"])
    assert ecat.split_sub.precover_conflation(x)[0] is ecat.split_sub.precover_conflation(x)[0]
    # a second category over the same base has caches of its own
    other = ConflCategory(cat)
    assert other.split_sub is not ecat.split_sub
    assert other._pair(o["S1"], o["P1"]) is not first


def brute_chain_map_count(ecat, x, y):
    """Oracle: enumerate every component triple and count the chain maps."""
    base = ecat.base
    p = base.p

    def all_rep_mors(a, b):
        n = sum(b.dims[v] * a.dims[v] for v in base.quiver.vertices)
        out = []
        for bits in product(range(p), repeat=n):
            vec = np.array(bits, dtype=np.int64)
            comps, off = {}, 0
            for v in base.quiver.vertices:
                s = b.dims[v] * a.dims[v]
                comps[v] = FpMatrix(p, vec[off : off + s].reshape(b.dims[v], a.dims[v]))
                off += s
            try:
                out.append(RepMor(a, b, comps))
            except ValueError:
                pass
        return out

    count = 0
    for f1 in all_rep_mors(x.t1, y.t1):
        for f2 in all_rep_mors(x.t2, y.t2):
            for f3 in all_rep_mors(x.t3, y.t3):
                try:
                    ConflMor(x, y, f1, f2, f3)
                    count += 1
                except ValueError:
                    pass
    return count


def test_hom_basis_matches_brute_force(econf, a2):
    ecat, sub, x = econf
    cat, o = a2
    split = ecat.split_obj(o["S2"], o["S1"])
    for src, dst in [(x, x), (split, x), (x, split), (split, split)]:
        dim = len(ecat.hom_basis(src, dst))
        assert 2**dim == brute_chain_map_count(ecat, src, dst)
        assert any(
            ecat.mor_eq(h, ecat.identity(src)) for h in enumerate_hom(ecat, src, src)[0]
        )


def test_is_in_sm_witness(econf, a2):
    ecat, sub, x = econf
    cat, o = a2
    split = ecat.split_obj(o["S2"], o["S1"])
    w = sub.membership_witness(split)
    assert w is not None
    assert sub.membership_witness(x) is None
    degenerate = ecat.make_obj(
        Conflation(cat.identity(o["P1"]), cat.zero_mor(o["P1"], cat.zero_obj()))
    )
    w = sub.membership_witness(degenerate)
    assert w is not None
    # the witness is an isomorphism onto the canonical split form
    inv = solve_precompose(ecat, w, ecat.identity(w.dst))
    assert inv is not None
    assert ecat.mor_eq(ecat.compose(inv, w), ecat.identity(w.src))


def test_s_precover_structure(econf):
    ecat, sub, x = econf
    pre = s_precover(ecat, x)
    assert pre.incl.src.t1.total_dim == 0
    assert pre.incl.src.t2.dimv == x.t1.dimv
    assert pre.defl.src.t2.dimv == tuple(
        a + b for a, b in zip(x.t1.dimv, x.t2.dimv)
    )
    assert sub.contains(pre.defl.src) and sub.contains(pre.incl.src)
    assert substructure_member(ecat, pre, SubstructureTag.SPLIT0M1)
    assert not substructure_member(ecat, pre, SubstructureTag.SPLIT01)
    assert substructure_member(ecat, pre, SubstructureTag.SPLIT0)
    assert substructure_member(ecat, pre, SubstructureTag.FULL)


def test_s_precover_of_split_is_split_epi(econf, a2):
    ecat, sub, _ = econf
    cat, o = a2
    split = ecat.split_obj(o["S2"], o["S1"])
    pre = s_precover(ecat, split)
    section = solve_precompose(ecat, pre.defl, ecat.identity(split))
    assert section is not None


def test_s_preenvelope_structure(econf, a2):
    ecat, sub, x = econf
    cat, o = a2
    env = s_preenvelope(ecat, x)
    assert env.defl.dst.t3.total_dim == 0
    assert sub.contains(env.incl.dst) and sub.contains(env.defl.dst)
    assert substructure_member(ecat, env, SubstructureTag.SPLIT01)
    assert not substructure_member(ecat, env, SubstructureTag.SPLIT0M1)
    # for a split object the preenvelope is a split mono at the chain level
    split = ecat.split_obj(o["S2"], o["S1"])
    env2 = s_preenvelope(ecat, split)
    from exactcat.category import solve_postcompose

    retr = solve_postcompose(ecat, env2.incl, ecat.identity(split))
    assert retr is not None


def test_precover_lift_formula_and_solver(econf):
    """The batched lift formulas pass with the canonical sections (1, (0;1))
    of the split precover and retractions ((1|0), 1) of the split
    preenvelope, lifting every basis morphism, and fail when one is zeroed;
    the solver finds a lift of every basis morphism on its own."""
    ecat, sub, x = econf
    b = ecat.base
    x1, x2, x3 = x.terms()
    pre = s_precover(ecat, x)
    env = s_preenvelope(ecat, x)
    samples = sub.sample_objects(1)
    s1, s2 = b.identity(x1), ecat._pair(x1, x2)[1][1]
    r2, r3 = ecat._pair(x2, x3)[2][0], b.identity(x3)
    incoming = sum(len(ecat.hom_basis(s, x)) for s in samples)
    outgoing = sum(len(ecat.hom_basis(x, s)) for s in samples)
    assert incoming > 0 and outgoing > 0
    assert _verify_deflation_lift_formula(ecat, pre, samples, s1, s2) == incoming
    assert _verify_inflation_lift_formula(ecat, env, samples, r2, r3) == outgoing
    with pytest.raises(VerificationError, match="deflation lift formula"):
        _verify_deflation_lift_formula(ecat, pre, samples, s1, b.zero_mor(s2.src, s2.dst))
    with pytest.raises(VerificationError, match="inflation extension formula"):
        _verify_inflation_lift_formula(ecat, env, samples, b.zero_mor(r2.src, r2.dst), r3)
    for s in samples:
        for g in ecat.hom_basis(s, x):
            assert solve_precompose(ecat, pre.defl, g) is not None
        for g in ecat.hom_basis(x, s):
            assert solve_postcompose(ecat, env.incl, g) is not None


def test_substructure_lattice_monotone(econf, a2):
    ecat, sub, x = econf
    cat, o = a2
    seqs = []
    seqs.append(s_precover(ecat, x))
    seqs.append(s_preenvelope(ecat, x))
    seqs.append(nonsplit_with_split_ends(ecat))
    for q in sub.sample_objects(1)[:4]:
        seqs.extend(ecat.enumerate_extensions(q, x, cap=64))
    for d in seqs:
        if substructure_member(ecat, d, SubstructureTag.ALLSPLIT):
            assert substructure_member(ecat, d, SubstructureTag.SPLIT0M1)
            assert substructure_member(ecat, d, SubstructureTag.SPLIT01)
        if substructure_member(ecat, d, SubstructureTag.SPLIT0M1):
            assert substructure_member(ecat, d, SubstructureTag.SPLIT0)
        if substructure_member(ecat, d, SubstructureTag.SPLIT01):
            assert substructure_member(ecat, d, SubstructureTag.SPLIT0)
        if substructure_member(ecat, d, SubstructureTag.SPLIT0):
            assert substructure_member(ecat, d, SubstructureTag.FULL)


def test_nonsplit_with_split_ends(econf):
    ecat, sub, _ = econf
    d = nonsplit_with_split_ends(ecat)
    p_obj = d.incl.src
    q_obj = d.defl.dst
    assert sub.contains(p_obj) and sub.contains(q_obj)
    assert substructure_member(ecat, d, SubstructureTag.FULL)
    assert not substructure_member(ecat, d, SubstructureTag.SPLIT0)
    assert conflation_split(ecat, d) is None
    # degree components are valid base conflations; the middle one is nonsplit
    mid = ecat.degree_component(d, 2)
    ecat.base.check_conflation(mid)
    assert conflation_split(ecat.base, mid) is None
    for deg in (1, 3):
        comp = ecat.degree_component(d, deg)
        assert conflation_split(ecat.base, comp) is not None


def test_hom_exactness_biconditional_cases(econf):
    ecat, sub, x = econf
    pre = s_precover(ecat, x)
    cov, down, contra, up = check_hom_exactness_matches_splitting(ecat, pre)
    assert cov and down
    env = s_preenvelope(ecat, x)
    cov, down, contra, up = check_hom_exactness_matches_splitting(ecat, env)
    assert contra and up and not cov and not down
    d = nonsplit_with_split_ends(ecat)
    cov, down, contra, up = check_hom_exactness_matches_splitting(ecat, d)
    assert not cov and not down and not contra and not up
    # explicit non-lifting witness: the split precover of the end term does
    # not lift through the deflation
    z_obj = d.defl.dst
    r = s_precover(ecat, z_obj).defl
    assert solve_precompose(ecat, d.defl, r) is None


def test_factor_split0(econf, a2):
    ecat, sub, x = econf
    cat, o = a2
    # a fully split input: both factor steps split outright
    total, injs, projs = ecat.direct_sum(
        [ecat.split_obj(o["S2"], cat.zero_obj()), ecat.split_obj(cat.zero_obj(), o["S1"])]
    )
    split_input = Conflation(injs[0], projs[1])
    step1, step2 = factor_split0_conflation(ecat, split_input)
    assert conflation_split(ecat, step1) is not None
    assert conflation_split(ecat, step2) is not None

    split_seq = s_precover(ecat, ecat.split_obj(x.t1, x.t3))
    step1, step2 = factor_split0_conflation(ecat, split_seq)
    assert substructure_member(ecat, step1, SubstructureTag.SPLIT01)
    assert substructure_member(ecat, step2, SubstructureTag.SPLIT0M1)

    dses = s_precover(ecat, x)  # lies in the degree-0 substructure
    step1, step2 = factor_split0_conflation(ecat, dses)
    assert substructure_member(ecat, step1, SubstructureTag.SPLIT01)
    assert substructure_member(ecat, step2, SubstructureTag.SPLIT0M1)

    with pytest.raises(ValueError):
        factor_split0_conflation(ecat, nonsplit_with_split_ends(ecat))


def test_split0_with_split_ends_splits(econf):
    ecat, sub, _ = econf
    for q in sub.sample_objects(1):
        for x in sub.sample_objects(1):
            for d in ecat.enumerate_extensions(q, x, cap=256):
                if substructure_member(ecat, d, SubstructureTag.SPLIT0):
                    assert conflation_split(ecat, d) is not None


def test_bounded_harnesses(econf):
    ecat, sub, _ = econf
    pct = verify_splitting_pseudo_cluster_tilting(ecat, bound=1)
    assert pct.passed
    bic = sweep_hom_exactness_biconditional(ecat, bound=1, test_bound=1)
    assert bic.passed and bic.checked > 0
    harness = cluster_quotient_harness(ecat, bound=1)
    assert harness.passed
    tags = {v.tag: v for v in harness.verdicts}
    assert tags["split0"].cluster_quotient
    assert not tags["full"].self_orthogonal
    assert not tags["split0m1"].pseudo_cluster_tilting
    assert not tags["split01"].pseudo_cluster_tilting
    assert not tags["allsplit"].pseudo_cluster_tilting
    assert sum(v.cluster_quotient for v in harness.verdicts) == 1


def test_quotient_hom_invariant_under_iso_conflations(econf, a2):
    ecat, sub, x = econf
    cat, o = a2
    # a different presentation of the same nonsplit conflation: conjugate
    # the middle by an automorphism of P1 (identity over F_2 at dim 1), so
    # instead rebuild with the equivalent extension produced by enumeration
    exts = cat.enumerate_extensions(o["S1"], o["S2"])
    nonsplit = [s for s in exts if conflation_split(cat, s) is None]
    y = ecat.make_obj(nonsplit[0])
    assert qt.qhom(sub, x, x) == qt.qhom(sub, y, y)
    assert qt.qhom(sub, x, y) == qt.qhom(sub, y, x)


def test_split_detection_matches_chain_level_iso(econf, a2):
    """Base split test agrees with existence of a chain iso onto the
    canonical split conflation."""
    ecat, sub, _ = econf
    cat, o = a2
    from exactcat.category import find_iso

    for z in (o["S1"], o["S2"]):
        for x in (o["S1"], o["S2"]):
            for ses in cat.enumerate_extensions(z, x):
                split = conflation_split(cat, ses) is not None
                obj = ecat.make_obj(ses)
                target = ecat.split_obj(x, z)
                assert split == (find_iso(ecat, obj, target) is not None)


def test_kernel_cokernel_of_chain_maps(econf, a2):
    ecat, sub, x = econf
    cat, o = a2
    pre = s_precover(ecat, x)
    k_obj, k = ecat.kernel(pre.defl)
    from exactcat.category import find_iso

    assert find_iso(ecat, k_obj, pre.incl.src) is not None
    c_obj, c, _ = ecat.cokernel(ecat.compose(pre.incl, ecat.identity(pre.incl.src)))
    assert c_obj.total_dim == pre.defl.src.total_dim - pre.incl.src.total_dim


# -- each conflation is checked once, by the code that builds it ----------------------

def test_confl_checks_each_conflation_once(tmp_path, monkeypatch):
    """Every conflation the confl command builds is checked by its producer;
    the substructure tests and the harnesses that sweep it do not check it
    again.  Counted per conflation object: equal conflations built by two
    producers (the two harnesses enumerate some extensions alike) are two
    conflations, each checked once."""
    calls = collections.Counter()
    checked = []  # keeps every checked conflation alive, so no id is reused
    real = ConflCategory.check_conflation

    def counted(self, c):
        checked.append(c)
        calls[id(c)] += 1
        return real(self, c)

    monkeypatch.setattr(ConflCategory, "check_conflation", counted)
    assert cli.main(["confl", str(FIXTURES / "a2_base.json"), "--bound", "1", "--out", str(tmp_path / "c.json")]) == 0
    assert len(calls) > 100
    assert max(calls.values()) == 1


def test_is_hom_exact_checks_its_conflation(a2, econf):
    ecat, sub, x = econf
    bad = Conflation(ecat.identity(x), ecat.identity(x))  # defl o incl = id, not 0
    for side in ("covariant", "contravariant"):
        with pytest.raises(ValueError, match="defl o incl"):
            sub.is_hom_exact(bad, side)
    cat, o = a2
    with pytest.raises(ValueError, match="defl o incl"):
        AddSubcat(cat, [o["P1"]]).is_hom_exact(Conflation(cat.identity(o["S1"]), cat.identity(o["S1"])), "covariant")


def test_degree_columns_are_the_term_blocks(econf, monkeypatch):
    ecat, sub, nonsplit = econf
    b = ecat.base
    objs = [nonsplit] + sub.sample_objects(1)[:4]
    pairs = [(x, y) for x in objs for y in objs]
    for x, y in pairs:
        rows = np.arange(2 * ecat.flat_dim(x, y)).reshape(2, -1)
        cols = conflcat._degree_columns(x, y, rows)
        assert [c.shape[1] for c in cols] == [b.flat_dim(xt, yt) for xt, yt in zip(x.terms(), y.terms())]
        assert np.array_equal(np.hstack(cols), rows)
    # the bounds come from the layout kept per dims pair: a second call
    # builds no layout and reads no term
    monkeypatch.setattr(conflcat.ConflObj, "terms", lambda self: pytest.fail("degree bounds recomputed"))
    layouts = dict(memo_store(nonsplit.quiver.blocks, BlockMaps.layout))
    for x, y in pairs:
        rows = np.zeros((1, ecat.flat_dim(x, y)), dtype=np.int64)
        assert sum(c.shape[1] for c in conflcat._degree_columns(x, y, rows)) == rows.shape[1]
    assert memo_store(nonsplit.quiver.blocks, BlockMaps.layout) == layouts


def test_lift_formulas_refuse_a_test_object_that_is_not_canonical_split(econf):
    """A test object the closed-form lifts do not apply to is an error naming
    it, not a silently smaller count of lift checks."""
    ecat, sub, x = econf
    b = ecat.base
    x1, x2, x3 = x.terms()
    pre, env = s_precover(ecat, x), s_preenvelope(ecat, x)
    tests = sub.sample_objects(1) + [x]
    with pytest.raises(ValueError, match=r"test object X is not a canonical split"):
        _verify_deflation_lift_formula(ecat, pre, tests, b.identity(x1), ecat._pair(x1, x2)[1][1])
    with pytest.raises(ValueError, match=r"test object X is not a canonical split"):
        _verify_inflation_lift_formula(ecat, env, tests, ecat._pair(x2, x3)[2][0], b.identity(x3))


# -- what the biconditional sweep keeps -------------------------------------------------

def test_biconditional_sweep_caches_no_middle_hom_basis(a2):
    """After the bound-2 sweep no cached conflation hom basis and no
    split-form entry has an extension's middle object outside the swept set
    at either end: hom-exactness is decided on the base, and the lift
    formulas read the end terms only, so every cached basis is between a
    test group's sum and a swept object.  The sweep checks all 1,462
    extensions, and some middle is outside the swept set."""
    cat, _ = a2
    ecat = ConflCategory(cat)
    middles = set()
    real = ecat.enumerate_extensions

    def recorded(z, x, cap=4096):
        out = real(z, x, cap)
        middles.update(d.incl.dst.key for d in out)
        return out

    ecat.enumerate_extensions = recorded
    report = sweep_hom_exactness_biconditional(ecat, bound=2, test_bound=1)
    assert report.passed and report.checked == 1462
    swept = {o.key for o in ecat.enumerate_objects(2)}
    outside = middles - swept
    assert outside
    hom_bases = memo_store(ecat, Category.hom_basis)
    assert not any(k in outside for ck in hom_bases for k in ck)
    assert not outside & memo_store(ecat, ConflCategory._is_canonical_split_obj).keys()
    sums = {g.sum.key for g in ecat.split_sub.test_groups(ecat.split_sub.sample_objects(1))}
    assert hom_bases
    assert all((a in sums and b in swept) or (a in swept and b in sums) for a, b in hom_bases)


# -- extensions of a pair: one conflation check --------------------------------------

@pytest.mark.parametrize("host", ["base", "conflations"])
def test_extensions_of_a_pair_carry_the_one_checked_pair_of_maps(a2, monkeypatch, host):
    """Each pair's extensions are checked as conflations once: every one
    carries the inclusion and projection bytes of the checked conflation,
    over its own middle.  A broken canonical projection then fails the whole
    pair, not one extension of it."""
    cat, _ = a2
    c = cat if host == "base" else ConflCategory(cat)
    objs = c.enumerate_objects(1)
    kind = type(c)
    checked = []
    real = kind.check_conflation
    monkeypatch.setattr(kind, "check_conflation", lambda self, conf: checked.append(conf) or real(self, conf))
    several = []
    for z in objs:
        for x in objs:
            checked.clear()
            exts = c.enumerate_extensions(z, x)
            assert len(checked) == 1
            first = checked[0]
            assert len({d.incl.dst.key for d in exts}) == len(exts)
            for d in exts:
                assert d.incl.vec.tobytes() == first.incl.vec.tobytes()
                assert d.defl.vec.tobytes() == first.defl.vec.tobytes()
                assert d.incl.dst is d.defl.src
            if len(exts) > 1:
                several.append((z, x))
    assert several

    real_maps = RepCategory.summand_maps

    def zero_projection(self, x, total, before):
        inj, _ = real_maps(self, x, total, before)
        return inj, self.zero_mor(total, x)

    monkeypatch.setattr(RepCategory, "summand_maps", zero_projection)
    for z, x in several:
        with pytest.raises(ValueError, match="not vertex-wise surjective"):
            c.enumerate_extensions(z, x)
