"""Precovers from a generating set of Hom(add G, x), against the canonical
evaluation they replaced.

`AddSubcat.precover` keeps one generator copy per element of a generating
set of Hom(add G, x) as a right End(add G)-module.  The construction it
replaced, one copy per element of every hom basis, is kept here as the
oracle (`CanonicalAddSubcat`), together with a reference that picks the
generating set one piece at a time, never in a batch.  On sums of interval
modules of A2 and A3 over F_2 and F_3, in random per-vertex bases, with a
non-brick generator and a repeated one, both subcategories must agree on
every verdict built on the precover: membership in add(G), the precover
conflation, ideal membership, the ideal as a subspace and the quotient hom
dimensions.
"""
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from exactcat import fflinalg as ff
from exactcat.approx import AddSubcat
from exactcat.category import solve_precompose, span_matrix
from exactcat.cli import parse_spec
from exactcat.fflinalg import FpMatrix, memo, obj_key
from exactcat.quotient import qhom
from exactcat.repcat import RepCategory, a_n

INTERVALS = {
    2: {"P1": (1, 2), "S1": (1, 1), "S2": (2, 2)},
    3: {"P1": (1, 3), "P2": (2, 3), "S3": (3, 3), "S1": (1, 1), "I2": (1, 2), "S2": (2, 2)},
}
# a generator with dim End = 3 on each quiver: Hom(S2, P1) resp. Hom(P2, S2) is a line
NON_BRICK = {2: ["S2", "P1"], 3: ["S2", "P2"]}


# -- the canonical evaluation, as it was -------------------------------------------

def canonical_precover(sub, x):
    """One generator copy per Hom(G_i, x) basis element."""
    cat = sub.cat
    pieces, mors = [], []
    for g in sub.generators:
        for h in cat.hom_basis(g, x):
            pieces.append(g)
            mors.append(h)
    if not pieces:
        return cat.zero_mor(cat.zero_obj(), x)
    power, _, _ = cat.direct_sum(pieces)
    return cat.costack(mors, power)


class CanonicalAddSubcat(AddSubcat):
    """add(G) whose ideal, membership and conflation tests run on the
    canonical evaluation."""

    @memo(key=obj_key)
    def precover(self, x):
        return canonical_precover(self, x)


def one_at_a_time_pieces(sub, x) -> list:
    """The generating set picked one piece per elimination, with the End(g)
    composites of every piece, bricks included: (generator, map) pairs."""
    cat = sub.cat
    pieces = []
    for g in sub.generators:
        basis = list(cat.hom_basis(g, x))
        while basis:
            cols = [cat.compose(h, e).vec for g_j, h in pieces for e in cat.hom_basis(g, g_j)]
            done = len(cols)
            matrix = np.array(cols + [b.vec for b in basis], dtype=np.int64).reshape(-1, cat.flat_dim(g, x)).T
            _, pivots, _ = ff.rref(FpMatrix(cat.p, matrix))
            new = [c - done for c in pivots if c >= done]
            if not new:
                break
            pieces.append((g, basis[new[0]]))
    return pieces


# -- random sums of interval modules ---------------------------------------------

def random_gl(p: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    while True:
        g = rng.integers(0, p, size=(n, n))
        inv = ff.solve_right(FpMatrix(p, g), FpMatrix.identity(p, n))
        if inv is not None:
            return g, inv.a


def interval_sum(cat, n: int, names, rng):
    """The direct sum of the named interval modules of A_n, in a random basis
    at every vertex."""
    spans = [INTERVALS[n][name] for name in names]
    at = {v: [k for k, (i, j) in enumerate(spans) if i <= v <= j] for v in range(1, n + 1)}
    change = {v: random_gl(cat.p, len(at[v]), rng) for v in at if at[v]}
    maps = {}
    for v in range(1, n):
        if at[v] and at[v + 1]:
            std = np.array([[int(s == d) for s in at[v]] for d in at[v + 1]], dtype=np.int64)
            maps[f"a{v}"] = FpMatrix(cat.p, change[v + 1][0] @ std @ change[v][1])
    return cat.obj({str(v): len(at[v]) for v in at if at[v]}, maps, name="+".join(names))


@st.composite
def precover_cases(draw):
    """(cat, generators, test objects, rng): a non-brick generator, one to
    two more drawn from the interval sums, and one of them repeated."""
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cat = RepCategory(a_n(n), p)
    names = sorted(INTERVALS[n])
    summands = st.lists(st.sampled_from(names), min_size=1, max_size=2)
    gens = [interval_sum(cat, n, NON_BRICK[n], rng)]
    gens += [interval_sum(cat, n, draw(summands), rng) for _ in range(draw(st.integers(1, 2)))]
    gens.insert(draw(st.integers(1, len(gens))), gens[draw(st.integers(0, len(gens) - 1))])
    objects = [interval_sum(cat, n, draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)), rng) for _ in range(3)]
    return cat, gens, objects, rng


def _random_mor(cat, x, y, rng):
    basis = cat.hom_basis(x, y)
    return cat.combine(basis, rng.integers(0, cat.p, size=len(basis)), x, y)


def _same_span(cat, a: list, b: list, x, y) -> bool:
    ranks = [span_matrix(cat, m, x, y).rank() for m in (a, b, list(a) + list(b))]
    return ranks[0] == ranks[1] == ranks[2]


@settings(max_examples=40, deadline=None)
@given(precover_cases())
def test_generating_set_precover_matches_the_canonical_oracle(case):
    cat, gens, objects, rng = case
    sub = AddSubcat(cat, gens)
    oracle = CanonicalAddSubcat(cat, gens)
    for x in objects:
        beta = sub.precover(x)
        # the batch for bricks picks what one piece at a time picks
        pieces = one_at_a_time_pieces(sub, x)
        if pieces:
            power, _, _ = cat.direct_sum([g for g, _ in pieces])
            reference = cat.costack([h for _, h in pieces], power)
        else:
            reference = cat.zero_mor(cat.zero_obj(), x)
        assert beta.src.key == reference.src.key
        assert cat.mor_eq(beta, reference)
        # a precover, never larger than the canonical evaluation
        assert len(pieces) <= sum(len(cat.hom_basis(g, x)) for g in gens)
        for g in gens:
            for h in cat.hom_basis(g, x):
                assert solve_precompose(cat, beta, h) is not None
        assert sub.contains(x) == oracle.contains(x)
        down, old_down = sub.precover_conflation(x)[0], oracle.precover_conflation(x)[0]
        assert (down is None) == (old_down is None)
        if down is not None:
            cat.check_conflation(down)
            assert cat.mor_eq(down.defl, beta)
        for y in objects + gens[:1]:
            assert qhom(sub, x, y) == qhom(oracle, x, y)
            assert _same_span(cat, sub.ideal_basis(x, y), oracle.ideal_basis(x, y), x, y)
            for _ in range(3):
                f = _random_mor(cat, x, y, rng)
                assert sub.is_ideal_member(f) == oracle.is_ideal_member(f)


def test_precovers_shrink_on_the_precover_large_shape():
    """add(X) for X = P1 (+) S1^2 (+) S2 on A2 over F_2, in the seeded basis
    of the precover-large golden spec: source dimensions of the precovers,
    generating set against canonical evaluation (dim X = 5)."""
    doc = parse_spec(str(Path(__file__).parent / "golden" / "seeded_precover_large.json"))
    cat, sub = doc.cat, doc.subcategories["addX"]
    oracle = CanonicalAddSubcat(cat, sub.generators)
    sizes = {name: (sub.precover(x).src.total_dim, oracle.precover(x).src.total_dim) for name, x in doc.objects.items()}
    assert sizes == {"P1": (5, 10), "S1": (5, 15), "S2": (5, 5), "X": (20, 45)}
