"""`RepCategory.split_glues` against `conflation_split`, the reference path.

`split_glues` decides from the glue rows alone, by the coboundary test, which
extensions split; `conflation_split` solves for a retraction and a section
on the middle that `enumerate_extensions` builds from the same row.  The two
must agree row by row, in order, on every pair of a host's small objects.
"""
import pytest

from exactcat.category import conflation_split
from exactcat.conflcat import ConflCategory
from exactcat.repcat import Quiver, RepCategory, a_n


def small_a3(p):
    """A3 over F_p and its objects of total dimension <= 2."""
    cat = RepCategory(a_n(3), p)
    return cat, [o for o in cat.enumerate_objects(2) if o.total_dim <= 2]


def a2_conflations():
    """The conflation host of A2 over F_2 (Q x A3, bound by relations) and
    its bound-1 objects."""
    ecat = ConflCategory(RepCategory(a_n(2), 2))
    return ecat, ecat.enumerate_objects(1)


def a3_rad2():
    """kA3/rad^2 over F_2 and its bound-1 modules."""
    q = a_n(3)
    cat = RepCategory(Quiver(q.vertices, q.arrows, ([(1, "a1", "a2")],)), 2)
    return cat, cat.enumerate_objects(1)


# host -> (objects, glue rows over all ordered pairs, split rows among them)
HOSTS = {
    "a3-f2": (lambda: small_a3(2), 12, 272, 171),
    "a3-f3": (lambda: small_a3(3), 14, 724, 332),
    "a2-conflations": (a2_conflations, 12, 452, 380),
    "a3-rad2": (a3_rad2, 12, 241, 193),
}


@pytest.mark.parametrize("host", sorted(HOSTS))
def test_split_glues_agree_with_conflation_split_on_every_middle(host):
    build, n_objects, n_rows, n_split = HOSTS[host]
    cat, objs = build()
    assert len(objs) == n_objects
    rows_seen = split_seen = 0
    for z in objs:
        for x in objs:
            _, rows = cat.extension_glues(z, x)
            middles = cat.enumerate_extensions(z, x)
            assert len(rows) == len(middles)
            verdicts = cat.split_glues(z, x, rows).tolist()
            assert verdicts == [conflation_split(cat, c) is not None for c in middles], (z, x)
            assert verdicts[0]  # the zero glue, the split extension, comes first
            rows_seen += len(rows)
            split_seen += sum(verdicts)
    assert (rows_seen, split_seen) == (n_rows, n_split)
