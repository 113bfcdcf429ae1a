import pytest

from exactcat import classes as cl
from exactcat.approx import AddSubcat
from exactcat.category import EnumerationBound
from exactcat.conflcat import ConflCategory, SplitConflationSubcat
from exactcat.repcat import op_conflation, opposite


def test_split_conflations_are_members(a3, a3_sub):
    cat, o = a3
    total, injs, projs = cat.direct_sum([o["P2"], o["S1"]])
    split = cat.conflation(injs[0], projs[1])
    s_res = cl.in_class_s(split, a3_sub)
    assert s_res.is_member
    assert s_res.member.reducer.src.total_dim == 0  # the zero subobject works first
    assert cl.in_class_t(split, a3_sub).is_member


def test_hom_exact_conflations_are_members(a3, a3_sub):
    cat, o = a3
    for x in (o["S2"], o["S1"], o["I2"]):
        down = a3_sub.precover_conflation(x)[0]
        up = a3_sub.preenvelope_conflation(x)[0]
        cl.crosscheck_sufficiency(down, a3_sub)
        cl.crosscheck_sufficiency(up, a3_sub)
        cov, contra = cl.hom_exactness_sufficient(down, a3_sub)
        assert cov  # precover conflations are covariantly hom-exact
        cov2, contra2 = cl.hom_exactness_sufficient(up, a3_sub)
        assert contra2


def test_three_subobject_refutation(a3_sub, a3_nonsplit):
    res = cl.in_class_s(a3_nonsplit, a3_sub)
    assert not res.is_member
    assert len(res.examined) == 3  # subobjects of P2: 0, S3, P2
    verdicts = {lab: (col, row) for lab, col, row in res.examined}
    assert verdicts["rep(0,0,0)"] == (True, False)  # row needs P2-maps to extend over P1
    assert verdicts["rep(0,0,1)"][0] is False  # column blocked: no map I2 -> P1
    assert verdicts["rep(0,1,1)"][0] is False  # column blocked: no map S1 -> P1


def test_dual_class_on_nonsplit(a3_sub, a3_nonsplit):
    res = cl.in_class_t(a3_nonsplit, a3_sub)
    assert not res.is_member  # consistent with the abelian quotient


def test_duality_consistency(a3, a3_sub, a3_nonsplit):
    cat, o = a3
    opcat = opposite(cat)
    op_sub = AddSubcat(opcat, [__import__("exactcat.repcat", fromlist=["op_obj"]).op_obj(opcat, g) for g in a3_sub.generators], label="Pop")
    conflations = [a3_nonsplit]
    total, injs, projs = cat.direct_sum([o["P2"], o["S1"]])
    conflations.append(cat.conflation(injs[0], projs[1]))
    conflations.append(a3_sub.precover_conflation(o["S2"])[0])
    for s in conflations:
        op_s = op_conflation(opcat, s)
        assert cl.in_class_t(s, a3_sub).is_member == cl.in_class_s(op_s, op_sub).is_member
        assert cl.in_class_s(s, a3_sub).is_member == cl.in_class_t(op_s, op_sub).is_member


def test_monotone_consistency_on_extensions(a3, a3_sub):
    cat, o = a3
    for z in a3_sub.generators[:3]:
        for x in a3_sub.generators[:3]:
            for s in cat.enumerate_extensions(z, x):
                cl.crosscheck_sufficiency(s, a3_sub)


def test_subobject_bound_refusal(a3_sub, a3_nonsplit):
    with pytest.raises(EnumerationBound):
        cl.in_class_s(a3_nonsplit, a3_sub, bound=1)


def test_abelianness_crosscheck_a3(a3, a3_sub):
    cat, o = a3
    rep = cl.abelianness_crosscheck(a3_sub, list(o.values()), bound=5)
    assert rep.passed
    assert rep.self_orthogonal_wrt_s
    assert rep.abelian.passed
    assert rep.conflations_examined > 100
    # the nonsplit conflation between subcategory objects exists but is not
    # in class S, so it never falsifies the self-orthogonality verdict
    assert rep.nonsplit_members == []


def test_crosscheck_on_conflation_host(a2):
    cat, o = a2
    ecat = ConflCategory(cat)
    sub = SplitConflationSubcat(ecat)
    sample = ecat.enumerate_objects(1)
    rep = cl.abelianness_crosscheck(sub, sample, bound=2, subobject_bound=8, cap=512)
    assert rep.passed
    assert rep.self_orthogonal_wrt_s
    assert rep.abelian.passed


def test_class_membership_on_conflation_host(a2):
    cat, o = a2
    ecat = ConflCategory(cat)
    sub = SplitConflationSubcat(ecat)
    # a split-in-degree-0 sequence between split objects is hom-exact both
    # ways, hence in both classes
    x = ecat.split_obj(o["S2"], o["S1"])
    pre = sub._precover_data(x)
    assert cl.in_class_s(pre.dses, sub).is_member
    assert cl.in_class_t(pre.dses, sub).is_member


def test_random_search_reports_honestly(a3, a3_sub):
    cat, o = a3
    pool = list(o.values())
    rep = cl.random_crosscheck_search(cat, pool, pool, tries=12, seed=7)
    assert not rep.counterexample_found
    assert "no counterexample found" in rep.detail
