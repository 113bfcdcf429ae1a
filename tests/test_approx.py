from itertools import product

import pytest

from exactcat.approx import (
    AddSubcat,
    extend_to_deflation,
    extend_to_inflation,
    generator_multisets,
    is_pseudo_cluster_tilting,
    is_self_orthogonal,
)
from exactcat.category import ConditionError, conflation_split, find_iso, hom_exact, solve_precompose


def test_ideal_dims(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    assert len(P.ideal_basis(o["S2"], o["S2"])) == 0
    assert len(P.ideal_basis(o["P1"], o["P1"])) == 1
    empty = AddSubcat(cat, [], label="0")
    assert len(empty.ideal_basis(o["P1"], o["P1"])) == 0


def test_ideal_member_factors_through_the_precover(a3, a3_sub):
    """f is an ideal member exactly when it factors through the precover of
    its target, and that factorization reconstructs f."""
    cat, o = a3
    P = a3_sub
    zero = cat.zero_mor(o["S2"], o["S2"])
    assert P.is_ideal_member(zero)
    right = solve_precompose(cat, P.precover(o["S2"]), zero)
    assert right is not None
    assert cat.mor_eq(cat.compose(P.precover(o["S2"]), right), zero)

    assert not P.is_ideal_member(cat.identity(o["S2"]))

    f = cat.identity(o["P2"])  # domain in the subcategory
    assert P.is_ideal_member(f)
    beta = P.precover(o["P2"])
    right = solve_precompose(cat, beta, f)
    assert right is not None
    assert cat.mor_eq(cat.compose(beta, right), f)
    assert P.contains(beta.src)


def test_in_add_examples(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    assert not P.contains(o["S2"])
    assert P.contains(cat.direct_sum([o["P1"], o["S3"]])[0])
    assert P.contains(cat.zero_obj())


def brute_force_summand(cat, x, sub, copies=2):
    """Oracle: x in add(G) iff some idempotent on a small sum of generators
    has image isomorphic to x."""
    g = sub.sum
    power = cat.direct_sum([g] * copies)[0]
    basis = cat.hom_basis(power, power)
    if 2 ** len(basis) > 4096:
        basis = basis[:12]
    for coeffs in product(range(2), repeat=len(basis)):
        e = cat.zero_mor(power, power)
        for c, b in zip(coeffs, basis):
            if c:
                e = cat.add(e, b)
        if not cat.mor_eq(cat.compose(e, e), e):
            continue
        im_obj, _ = cat.image(e)
        if im_obj.dimv == x.dimv and find_iso(cat, im_obj, x) is not None:
            return True
    return False


def test_in_add_matches_summand_search(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    small = AddSubcat(cat, [o["P2"], o["S1"]], label="small")
    for name in ("P2", "S1", "S2", "S3"):
        assert small.contains(o[name]) == brute_force_summand(cat, o[name], small)


def test_precover_postcondition_exhaustive(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    for x in o.values():
        beta = P.precover(x)
        for g in P.generators:
            for h in cat.hom_basis(g, x):
                from exactcat.category import solve_precompose

                assert solve_precompose(cat, beta, h) is not None
    # Hom(add G, S2) is generated by the one map P2 -> S2
    beta = P.precover(o["S2"])
    assert beta.src.dimv == o["P2"].dimv


def test_preenvelope_postcondition(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    alpha = P.preenvelope(o["S2"])
    assert alpha.dst.dimv == o["I2"].dimv
    for g in P.generators:
        for h in cat.hom_basis(o["S2"], g):
            from exactcat.category import solve_postcompose

            assert solve_postcompose(cat, alpha, h) is not None


def test_condition_down_example(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    down = P.precover_conflation(o["S2"])[0]
    assert down is not None
    k, p0, x = down.terms()
    assert P.contains(k) and P.contains(p0)
    assert x.key == o["S2"].key
    # the generating-set precover realizes the minimal resolution here
    assert p0.dimv == o["P2"].dimv
    assert k.dimv == o["S3"].dimv
    assert hom_exact(cat, down, P.sum, "covariant")


def test_condition_up_example(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    up = P.preenvelope_conflation(o["S2"])[0]
    assert up is not None
    x, q0, q1 = up.terms()
    assert x.key == o["S2"].key
    assert P.contains(q0) and P.contains(q1)
    assert q0.dimv == o["I2"].dimv
    assert q1.dimv == o["S1"].dimv
    assert hom_exact(cat, up, P.sum, "contravariant")


def test_condition_down_member_object(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    down = P.precover_conflation(o["P1"])[0]
    assert down is not None
    assert conflation_split(cat, down) is not None  # member objects get split resolutions


def test_schanuel_crosscheck(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    # augmenting the precover with an extra generator summand
    # must not change whether the kernel lies in the subcategory
    for x in (o["S2"], o["S1"], o["P2"]):
        beta = P.precover(x)
        canonical = P.precover_conflation(x)[0]
        for extra in P.generators[:2]:
            total, (i1, i2), (p1, p2) = _pair(cat, beta.src, extra)
            beta2 = cat.compose(beta, p1)
            assert cat.is_deflation(beta2)
            k_obj, _ = cat.kernel(beta2)
            assert P.contains(k_obj) == (canonical is not None)


def _pair(cat, a, b):
    total, injs, projs = cat.direct_sum([a, b])
    return total, injs, projs


def test_extend_to_inflation_postconditions(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    # zero morphism: the conflation degenerates to the preenvelope one
    zero = cat.zero_mor(o["S2"], cat.zero_obj())
    confl, _ = extend_to_inflation(zero, P)
    x, mid, z = confl.terms()
    up = P.preenvelope_conflation(o["S2"])[0]
    assert mid.dimv == up.incl.dst.dimv
    for g in P.generators:
        assert hom_exact(cat, confl, g, "contravariant")

    # identity: the cokernel lands in the subcategory
    confl, _ = extend_to_inflation(cat.identity(o["S2"]), P)
    assert P.contains(confl.defl.dst)
    for g in P.generators:
        assert hom_exact(cat, confl, g, "contravariant")


def test_extend_to_deflation_postconditions(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    confl, _ = extend_to_deflation(cat.identity(o["S2"]), P)
    for g in P.generators:
        assert hom_exact(cat, confl, g, "covariant")
    assert P.contains(confl.incl.src)


def test_extend_errors_name_the_condition(a2):
    cat, o = a2
    bad = AddSubcat(cat, [o["P1"]], label="addP1")
    with pytest.raises(ConditionError) as exc:
        extend_to_deflation(cat.identity(o["S2"]), bad)
    assert "S2" in str(exc.value)


def test_pseudo_cluster_tilting_verdicts(a2, a3, a3_sub):
    cat3, o3 = a3
    report = is_pseudo_cluster_tilting(a3_sub, list(o3.values()))
    assert report.passed
    assert "maximality" in report.note

    cat2, o2 = a2
    bad = AddSubcat(cat2, [o2["P1"]], label="addP1")
    report = is_pseudo_cluster_tilting(bad, [o2["S2"]])
    assert not report.passed
    assert any("precover" in f for f in report.failures)

    report = is_pseudo_cluster_tilting(a3_sub, a3_sub.generators)
    assert report.passed


def test_self_orthogonality(a3, a3_sub):
    cat, o = a3
    P = a3_sub
    splits = cat.enumerate_extensions(o["S2"], o["S1"])  # all split here
    assert is_self_orthogonal(P, splits).passed

    confls = []
    for z in P.generators:
        for x in P.generators:
            confls.extend(cat.enumerate_extensions(z, x))
    verdict = is_self_orthogonal(P, confls)
    assert not verdict.passed
    a, b, z = verdict.witness.terms()
    assert a.dimv == (0, 1, 1)  # P2
    assert b.dimv == (1, 1, 1)  # P1
    assert z.dimv == (1, 0, 0)  # S1

    empty = AddSubcat(cat, [], label="0")
    assert is_self_orthogonal(empty, confls).passed  # vacuous


def test_generator_multisets_skip_zero_generators(a3):
    """Sample sums and block-search pads come from one multiset walk; a zero
    generator adds no sum and must not make the walk endless."""
    cat, o = a3
    assert generator_multisets([1, 2], 3) == [(), (0,), (1,), (0, 0), (0, 1), (0, 0, 0)]
    assert generator_multisets([0, 1], 2) == [(), (1,), (1, 1)]
    with_zero = AddSubcat(cat, [cat.zero_obj(), o["S1"]])
    plain = AddSubcat(cat, [o["S1"]])
    assert [x.key for x in with_zero.sample_objects(2)] == [x.key for x in plain.sample_objects(2)]


def test_hom_exactness_is_decided_once_and_still_checks_the_conflation(a3, a3_nonsplit):
    from exactcat.category import Conflation

    cat, o = a3
    P = AddSubcat(cat, [o["P1"], o["P2"], o["S3"], o["S1"], o["I2"]], label="P")
    for side in ("covariant", "contravariant"):
        first = P.is_hom_exact(a3_nonsplit, side)
        assert first == hom_exact(cat, a3_nonsplit, P.sum, side)
        assert P.is_hom_exact(a3_nonsplit, side) == first
    # a pair that is no conflation is rejected on every call, never cached
    bad = Conflation(cat.zero_mor(o["P2"], o["P1"]), a3_nonsplit.defl)
    for _ in range(2):
        with pytest.raises(ValueError):
            P.is_hom_exact(bad, "covariant")
