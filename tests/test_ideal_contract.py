"""The ideal of a subcategory, derived once from its precover on
`Subcategory`, checked against what it must be on both implementations.

For the split conflations S(M) on the A2 fixture the oracle is their
description S(M) = add{M -> M -> 0, 0 -> M -> M : M indecomposable}: the
ideal of Hom(x, y) is spanned by the composites x -> t -> y through those
six objects, whatever the precover the subcategory builds.
"""
import pytest

from exactcat.category import span_matrix
from exactcat.conflcat import ConflCategory


def _value(f) -> tuple:
    return f.src.key, f.dst.key, f.vec.tobytes()


def rank(cat, mors, x, y) -> int:
    return span_matrix(cat, mors, x, y).rank()


def test_split_ideal_is_spanned_by_the_composites_through_the_indecomposables(a2):
    """Over every 5th conflation of bound 2 (31 objects, 961 pairs):
    ideal_basis is a basis of the span of the composites through the six
    indecomposable split conflations, each composite is an ideal member, and
    a hom basis morphism is one exactly when it lies in that span."""
    cat, o = a2
    ecat = ConflCategory(cat)
    sub = ecat.split_sub
    zero = cat.zero_obj()
    ts = [ecat.split_obj(m, zero) for m in o.values()] + [ecat.split_obj(zero, m) for m in o.values()]
    objs = ecat.enumerate_objects(2)[::5]
    proper = 0
    for x in objs:
        for y in objs:
            basis = sub.ideal_basis(x, y)
            through = [ecat.compose(g, f) for t in ts for f in ecat.hom_basis(x, t) for g in ecat.hom_basis(t, y)]
            dim = rank(ecat, through, x, y)
            assert rank(ecat, basis, x, y) == len(basis) == dim == rank(ecat, basis + through, x, y)
            assert all(sub.is_ideal_member(f) for f in through)
            hom = ecat.hom_basis(x, y)
            assert [sub.is_ideal_member(h) for h in hom] == [rank(ecat, through + [h], x, y) == dim for h in hom]
            proper += 0 < dim < len(hom)
    assert len(objs) ** 2 == 961 and proper == 85


@pytest.mark.parametrize("which", ["a3_sub", "split_sub"])
def test_membership_and_approximations_agree_with_the_ideal(which, a2, a3, a3_sub):
    """x is in the subcategory exactly when its identity is in the ideal, and
    the precover (preenvelope) is the deflation (inflation) of its
    conflation whenever that exists."""
    if which == "a3_sub":
        sub, objs = a3_sub, a3[0].enumerate_objects(1)
    else:
        sub = ConflCategory(a2[0]).split_sub
        objs = sub.cat.enumerate_objects(1)
    members = [sub.contains(x) for x in objs]
    assert members == [sub.is_ideal_member(sub.cat.identity(x)) for x in objs]
    assert set(members) == {True, False}
    for x in objs:
        down, _ = sub.precover_conflation(x)
        up, _ = sub.preenvelope_conflation(x)
        assert down is None or sub.precover(x) is down.defl
        # AddSubcat keeps no preenvelope (its one caller, the conflation, is
        # kept), so a second call builds an equal morphism, not the same one
        assert up is None or _value(sub.preenvelope(x)) == _value(up.incl)
