"""Exactness against split test objects, decided on degree components,
against the conflation-level decision it replaced.

`ConflCategory.split_hom_exact` decides Hom(t, -)-exactness of a
degreewise conflation, for t split a -> a (+) c -> c, as the base's
Hom(a, -)-exactness of its degree -1 component and Hom(c, -)-exactness of
its degree 0 component (dually Hom(-, a) on degree 0 and Hom(-, c) on
degree 1).  The oracle is `category.hom_exact` on the conflation host
itself, through the hom-spaces of Q x A3.  Both must agree on every
extension the biconditional sweep checks, against every test object it
uses: each group sum, each member, the end term's split precover source p0
and the start term's split preenvelope target q0.
"""
import pytest

from exactcat.category import VerificationError, hom_exact
from exactcat.conflcat import ConflCategory
from exactcat.repcat import RepCategory, a_n

SIDES = ("covariant", "contravariant")


def oracle_outcome(ecat, dses, t, side):
    try:
        return hom_exact(ecat, dses, t, side)
    except VerificationError as exc:
        return str(exc)


def split_outcome(ecat, dses, t, side):
    try:
        return ecat.split_hom_exact(dses, t, side)
    except VerificationError as exc:
        return str(exc)


def sweep_pairs(ecat, bound):
    """Every extension the biconditional sweep checks at this bound."""
    objs = ecat.enumerate_objects(bound)
    for z in objs:
        for x in objs:
            if any(x.t2.dims[v] + z.t2.dims[v] > bound for v in ecat.base.quiver.vertices):
                continue
            yield from ecat.enumerate_extensions(z, x)


@pytest.mark.parametrize("p, bound", [(2, 1), (2, 2), (3, 1)])
def test_split_end_decision_matches_the_conflation_level_one(p, bound):
    ecat = ConflCategory(RepCategory(a_n(2), p))
    sub = ecat.split_sub
    groups = sub.test_groups(sub.sample_objects(1))
    family = [g.sum for g in groups] + [t for g in groups for t in g.members]
    assert any(len(g.members) > 1 for g in groups)
    checked = 0
    verdicts = set()
    for dses in sweep_pairs(ecat, bound):
        ends = {
            "covariant": sub._precover_data(ecat.dst(dses.defl)).p0,
            "contravariant": sub._preenvelope_data(ecat.src(dses.incl)).q0,
        }
        for side in SIDES:
            for t in family + [ends[side]]:
                got = split_outcome(ecat, dses, t, side)
                assert got == oracle_outcome(ecat, dses, t, side), (side, t.label)
                verdicts.add((side, got))
        checked += 1
    assert checked > 0
    # both verdicts occur on each side, so neither is vacuous
    assert verdicts == {(side, v) for side in SIDES for v in (True, False)}


def test_split_end_decision_refuses_what_it_cannot_decide(a2):
    """An unknown side, and a test object that is not canonical split (its
    end terms would stand for a different object), are errors."""
    cat, o = a2
    ecat = ConflCategory(cat)
    t = ecat.split_sub.sample_objects(1)[1]
    dses = ecat.enumerate_extensions(t, t)[0]
    with pytest.raises(ValueError, match="unknown side"):
        ecat.split_hom_exact(dses, t, "sideways")
    x = ecat.make_obj(cat.conflation(cat.hom_basis(o["S2"], o["P1"])[0], cat.hom_basis(o["P1"], o["S1"])[0]), name="X")
    with pytest.raises(ValueError, match="test object X is not a canonical split"):
        ecat.split_hom_exact(dses, x, "covariant")
