"""The category of conflations over a base representation category.

A conflation x1 -> x2 -> x3 of representations of a quiver Q is a
representation of the product quiver Q x A3 (vertices v@t, arrows a@t and
differentials d_t(v)) bound by the relations d_t a = a d_t and d2 d1 = 0,
whose rows are short exact; a chain map is a morphism of such
representations, and the degreewise exact structure is the vertex-wise
one.  So `ConflCategory` is a `RepCategory` on the bound quiver Q x A3: it
inherits the hom solve, kernels, cokernels, direct sums, the conflation
check and the extension enumeration (one equation per relation), and adds
the degree views, the row-exactness check of each object and the free hom
bases out of and into canonical split conflations.

Four named substructures (splitting in selected degrees) stratify the
degreewise structure.  The subcategory of split conflations has explicit
one-step approximations: `s_precover`/`s_preenvelope` return a checked
conflation, whose deflation (inflation) is the precover (preenvelope), and
the ideal is derived from that precover as on every `Subcategory`, so the
whole quotient engine runs on this host unchanged; the harnesses at the
bottom re-verify the structure theory on bounded enumerations.  One
closed-form lift per side, built from degree sections (retractions) and
checked on a whole hom basis at once, serves both the split-approximation
sweep (canonical sections) and the hom-exactness biconditional (solved
sections); self-orthogonality is decided by `approx.is_self_orthogonal`.
Both sweeps test a family of split objects a bounded group at a time,
through the group's direct sum (see `SplitConflationSubcat.test_groups`).
`ConflCategory` and the split subcategory memoize (`fflinalg.memo`) what
they build per object, pair, degree component and test family.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import fflinalg as ff
from .approx import is_self_orthogonal
from .category import (
    Category,
    Conflation,
    EnumerationBound,
    Subcategory,
    VerificationError,
    conflation_key,
    conflation_split,
    hom_exact,
    solve_postcompose,
    solve_precompose,
    span_matrix,
    verify,
)
from .fflinalg import FpMatrix, memo, obj_key
from .repcat import Arrow, Quiver, RepCategory, RepMor, RepObj, check_squares, square_defect


DEGREES = (1, 2, 3)

# the most total dimension one group of split test objects may have: a
# family is tested through the direct sums of its groups, and one sum of a
# whole family grows its dense hom rows quadratically
TEST_GROUP_DIM = 16


def _at(name: str, t: int) -> str:
    """The copy in degree t of a vertex or an arrow of the base quiver."""
    return f"{name}@{t}"


def _d(t: int, v: str) -> str:
    """The differential of degree t at the base vertex v; it never ends in
    @t, so it cannot clash with the copy a@t of a base arrow."""
    return f"d{t}({v})"


def conflation_quiver(q: Quiver) -> Quiver:
    """Q x A3, bound by its relations.

    The vertices are v@t, degree then vertex, which is the flat layout of a
    chain map; the arrows are a@t in each degree, then the differentials
    d_t(v): v@t -> v@(t+1).  A relation is a list of signed paths
    (sign, alpha, beta), alpha then beta, summing to zero: the commuting
    squares d_t(j) a@t = a@(t+1) d_t(i) for a: i -> j, d2(v) d1(v) = 0 and
    the relations of Q in each degree.
    """
    vertices = tuple(_at(v, t) for t in DEGREES for v in q.vertices)
    arrows = tuple(Arrow(_at(a.name, t), _at(a.src, t), _at(a.dst, t)) for t in DEGREES for a in q.arrows)
    arrows += tuple(Arrow(_d(t, v), _at(v, t), _at(v, t + 1)) for t in (1, 2) for v in q.vertices)
    relations = [
        [(1, _d(t, a.src), _at(a.name, t + 1)), (-1, _at(a.name, t), _d(t, a.dst))] for t in (1, 2) for a in q.arrows
    ]
    relations += [[(1, _d(1, v), _d(2, v))] for v in q.vertices]
    relations += [[(sign, _at(a, t), _at(b, t)) for sign, a, b in r] for t in DEGREES for r in q.relations]
    return Quiver(vertices, arrows, relations)


class ConflObj(RepObj):
    """A conflation x1 -> x2 -> x3 of the base category, as a representation
    of Q x A3 (see conflation_quiver): its terms at the vertices v@t and the
    arrows a@t, its differentials at the arrows d_t(v).

    ses keeps the degree view, the two base morphisms; the key is that of
    the three terms and the two differentials.
    """

    __slots__ = ("ses",)

    def __init__(self, quiver: Quiver, ses: Conflation, name: str = ""):
        terms = (ses.incl.src, ses.incl.dst, ses.defl.dst)
        base = terms[0].quiver
        maps = [x.maps[a.name] for x in terms for a in base.arrows]
        for d in (ses.incl, ses.defl):
            maps += [ff.from_reduced(d.src.p, m) for m in base.blocks.split(d.vec, d.src.dimv, d.dst.dimv)]
        dims = dict(zip(quiver.vertices, terms[0].dimv + terms[1].dimv + terms[2].dimv))
        super().__init__(quiver, terms[0].p, dims, dict(zip((a.name for a in quiver.arrows), maps)), name)
        self.ses = ses

    @property
    def t1(self) -> RepObj:
        return self.ses.incl.src

    @property
    def t2(self) -> RepObj:
        return self.ses.incl.dst

    @property
    def t3(self) -> RepObj:
        return self.ses.defl.dst

    @property
    def d1(self) -> RepMor:
        return self.ses.incl

    @property
    def d2(self) -> RepMor:
        return self.ses.defl

    def terms(self) -> tuple[RepObj, RepObj, RepObj]:
        return (self.t1, self.t2, self.t3)

    @property
    def key(self):
        if self._key is None:
            self._key = (
                self.t1.key,
                self.t2.key,
                self.t3.key,
                self.d1.vec.tobytes(),
                self.d2.vec.tobytes(),
            )
        return self._key

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return f"[{self.t1.label}>{self.t2.label}>{self.t3.label}]"

    def __repr__(self):
        return f"<ConflObj {self.label}>"


_new_object = object.__new__


class ConflMor(RepMor):
    """A chain map between conflation objects: a morphism of representations
    of Q x A3, its vector the three degree components' vectors one after
    another.

    `components()` gives RepMor views on its three slices, made on first
    use.  The public constructor concatenates three components and, with
    check, tests every square of Q x A3: those of the components and the two
    chain-map squares.
    """

    __slots__ = ("_parts",)

    def __init__(self, src: ConflObj, dst: ConflObj, f1: RepMor, f2: RepMor, f3: RepMor, check: bool = True):
        vec = np.concatenate([f1.vec, f2.vec, f3.vec])
        vec.setflags(write=False)
        self.src = src
        self.dst = dst
        self.vec = vec
        self._parts = None
        if check:
            check_squares(src, dst, vec[None, :])

    @classmethod
    def _trusted(cls, src: ConflObj, dst: ConflObj, vec: np.ndarray) -> "ConflMor":
        f = _new_object(cls)
        f.src = src
        f.dst = dst
        f.vec = vec
        f._parts = None
        return f

    def components(self) -> tuple[RepMor, RepMor, RepMor]:
        if self._parts is None:
            cols = _degree_columns(self.src, self.dst, self.vec[None, :])
            self._parts = tuple(
                RepMor._trusted(x, y, c[0]) for x, y, c in zip(self.src.terms(), self.dst.terms(), cols)
            )
        return self._parts

    def __repr__(self):
        return f"<ConflMor {self.src.label} -> {self.dst.label}>"


def _degree_columns(x: ConflObj, y: ConflObj, rows: np.ndarray) -> list[np.ndarray]:
    """The column slices of rows (flat maps x -> y) holding degrees 1, 2, 3.

    Q x A3 lists its vertices degree by degree, so degree t starts at the
    block of its first vertex in the layout of x -> y, which the quiver's
    BlockMaps keeps per dims pair: nothing is recomputed per call."""
    layout, _ = x.quiver.blocks.layout(x.dimv, y.dimv)
    n = len(layout) // 3
    a, b = (layout[n][0], layout[2 * n][0]) if n else (0, 0)
    return [rows[:, :a], rows[:, a:b], rows[:, b:]]


class SubstructureTag(Enum):
    """The five degree-splitting exact substructures, FULL coarsest."""

    FULL = "full"
    SPLIT0 = "split0"
    SPLIT0M1 = "split0m1"
    SPLIT01 = "split01"
    ALLSPLIT = "allsplit"


# degrees (indexed 1,2,3 for terms in degrees -1,0,1) required to split
_TAG_DEGREES = {
    SubstructureTag.FULL: (),
    SubstructureTag.SPLIT0: (2,),
    SubstructureTag.SPLIT0M1: (1, 2),
    SubstructureTag.SPLIT01: (2, 3),
    SubstructureTag.ALLSPLIT: (1, 2, 3),
}

class ConflCategory(RepCategory):
    """Degreewise exact structure on conflations of a base category: the
    representations of Q x A3 whose rows are exact, so hom solving, kernels,
    cokernels, direct sums, the conflation check and the extensions are
    those of `RepCategory`, vertex-wise on the bound product quiver."""

    _mor = staticmethod(ConflMor._trusted)

    def __init__(self, base: RepCategory):
        self.base = base
        super().__init__(conflation_quiver(base.quiver), base.p)
        # the one subcategory of split conflations, shared by every harness
        self.split_sub = SplitConflationSubcat(self)

    # -- object constructors ----------------------------------------------
    def obj(self, dims: dict[str, int], maps: dict[str, FpMatrix] | None = None, name: str = "") -> ConflObj:
        """The conflation with these dims and maps on Q x A3 (absent: zero).

        Its differentials are checked to be base morphisms (the commuting
        squares) and its rows to be exact (d2 d1 = 0 with them)."""
        b, maps = self.base, maps or {}
        q = b.quiver
        terms = [
            b.obj({v: dims.get(_at(v, t), 0) for v in q.vertices}, {a.name: maps.get(_at(a.name, t)) for a in q.arrows})
            for t in DEGREES
        ]
        diffs = [RepMor(terms[t - 1], terms[t], {v: maps.get(_d(t, v)) for v in q.vertices}) for t in (1, 2)]
        return self.make_obj(Conflation(*diffs), name)

    def make_obj(self, ses: Conflation, name: str = "") -> ConflObj:
        self.base.check_conflation(ses)
        return ConflObj(self.quiver, ses, name)

    def split_obj(self, a: RepObj, b: RepObj, name: str = "") -> ConflObj:
        """The canonical split conflation a -> a (+) b -> b."""
        total, injs, projs = self.base.direct_sum([a, b])
        return ConflObj(self.quiver, Conflation(injs[0], projs[1]), name)

    @memo(key=obj_key)
    def _pair(self, x: RepObj, y: RepObj):
        """The base biproduct x (+) y with its injections and projections, built once."""
        return self.base.direct_sum([x, y])

    # -- hom-spaces -----------------------------------------------------------
    @memo(key=obj_key)
    def _is_canonical_split_obj(self, x: ConflObj) -> bool:
        # the plain biproduct middle with its canonical inclusion and projection
        mid, inc, prj = self.base.glued_middle(x.t1, x.t3, {}, check=False)
        return (
            x.t2.key == mid.key
            and np.array_equal(x.d1.vec, inc.vec)
            and np.array_equal(x.d2.vec, prj.vec)
        )

    def _hom_from_split(self, s: ConflObj, y: ConflObj) -> np.ndarray:
        # a chain map out of a -> a(+)c -> c is freely determined by its
        # restriction h: a -> Y1 and its middle component k: c -> Y2, giving
        # (h, d1 h pa, 0) and (0, k pc, d2 k)
        b = self.base
        a, c = s.t1, s.t3
        _, _, (pa, pc) = self._pair(a, c)
        hs, ks = b.hom_basis(a, y.t1).rows, b.hom_basis(c, y.t2).rows
        rows = np.zeros((len(hs) + len(ks), self.flat_dim(s, y)), dtype=np.int64)
        h1, h2, _ = _degree_columns(s, y, rows[: len(hs)])
        h1[:] = hs
        h2[:] = b.precompose_rows(b.compose_rows(y.d1, hs, a), pa, y.t2)
        _, k2, k3 = _degree_columns(s, y, rows[len(hs) :])
        k2[:] = b.precompose_rows(ks, pc, y.t2)
        k3[:] = b.compose_rows(y.d2, ks, c)
        return rows

    def _hom_to_split(self, x: ConflObj, s: ConflObj) -> np.ndarray:
        # dually: freely determined by u: X2 -> a and w: X3 -> c, giving
        # (u d1, ja u, 0) and (0, jc w d2, w)
        b = self.base
        a, c = s.t1, s.t3
        _, (ja, jc), _ = self._pair(a, c)
        us, ws = b.hom_basis(x.t2, a).rows, b.hom_basis(x.t3, c).rows
        rows = np.zeros((len(us) + len(ws), self.flat_dim(x, s)), dtype=np.int64)
        u1, u2, _ = _degree_columns(x, s, rows[: len(us)])
        u1[:] = b.precompose_rows(us, x.d1, a)
        u2[:] = b.compose_rows(ja, us, x.t2)
        _, w2, w3 = _degree_columns(x, s, rows[len(us) :])
        w2[:] = b.compose_rows(jc, b.precompose_rows(ws, x.d2, c), x.t2)
        w3[:] = ws
        return rows

    def _solve_hom_basis(self, x: ConflObj, y: ConflObj) -> np.ndarray:
        # out of or into a canonical split conflation a chain map is free on
        # two base components; otherwise the solve on Q x A3
        if self._is_canonical_split_obj(x):
            return self._hom_from_split(x, y)
        if self._is_canonical_split_obj(y):
            return self._hom_to_split(x, y)
        return super()._solve_hom_basis(x, y)

    # -- exact structure -----------------------------------------------------
    def degree_component(self, c: Conflation, degree: int) -> Conflation:
        """The short exact sequence of representations in one degree (1, 2 or 3)."""
        incl: ConflMor = c.incl
        defl: ConflMor = c.defl
        return Conflation(incl.components()[degree - 1], defl.components()[degree - 1])

    def degree_split(self, c: Conflation, degree: int) -> Optional[tuple[RepMor, RepMor]]:
        """(retraction, section) of the degree component when it splits, else
        None; decided once per component, memoized on the base."""
        return conflation_split(self.base, self.degree_component(c, degree))

    def degree_splits(self, c: Conflation, degree: int) -> bool:
        return self.degree_split(c, degree) is not None

    def split_hom_exact(self, dses: Conflation, t: ConflObj, side: str) -> bool:
        """Is dses Hom(t, -)- ('covariant') or Hom(-, t)-exact ('contravariant'),
        for t canonical split, a -> a (+) c -> c?  Hom(t, Y) = Hom(a, Y1) (+)
        Hom(c, Y2) naturally in Y (`_hom_from_split`), so g o - is block-
        diagonal, its rank the sum of two base ranks: the base decides Hom(a, -)
        on degree -1 and Hom(c, -) on degree 0; dually (`_hom_to_split`)
        Hom(-, a) on degree 0 and Hom(-, c) on degree 1, each base decision
        (with its left-exactness check) once per (component, end, side)."""
        degrees = {"covariant": (1, 2), "contravariant": (2, 3)}.get(side)
        if degrees is None:
            raise ValueError(f"unknown side {side!r}")
        _require_canonical_split(self, t)
        for degree, end in zip(degrees, (t.t1, t.t3)):
            if not self._component_exact(self.degree_component(dses, degree), end, side):
                return False
        return True

    @memo(key=lambda comp, end, side: (conflation_key(comp), end.key, side))
    def _component_exact(self, comp: Conflation, end: RepObj, side: str) -> bool:
        return hom_exact(self.base, comp, end, side)

    # -- enumeration -----------------------------------------------------------
    def enumerate_objects(self, bound: int, cap: int = 100_000) -> list[ConflObj]:
        """All standard-form conflations whose middle term has vertex dims <= bound."""
        reps = self.base.enumerate_objects(bound, cap)
        out = []
        for x1 in reps:
            for x3 in reps:
                if any(
                    x1.dims[v] + x3.dims[v] > bound for v in self.base.quiver.vertices
                ):
                    continue
                for ses in self.base.enumerate_extensions(x3, x1, cap):
                    out.append(ConflObj(self.quiver, ses))
                    if len(out) > cap:
                        raise EnumerationBound("conflation object enumeration cap exceeded", len(out))
        return out

    def enumerate_subobjects(self, x: ConflObj, bound: int = 8) -> list[ConflMor]:
        """Exact subcomplexes of x, one per arrow-stable subspace of the middle.

        An exact subcomplex is determined by its middle term: the bottom is
        the preimage of it, the top its image, so enumerating middle
        subrepresentations enumerates all subobjects.
        """
        b = self.base
        out = []
        for u2 in b.enumerate_subobjects(x.t2, bound):
            w, w1, w2 = b.pullback(x.d1, u2)  # w1: preimage -> t1
            top = b.compose(x.d2, u2)
            _, m = b.image(top)
            delta2 = _factor_mono(b, m, top)
            sub = self.make_obj(Conflation(w2, delta2))
            out.append(ConflMor(sub, x, w1, u2, m))
        out.sort(key=lambda f: (f.src.total_dim, f.vec.tobytes()))
        return out

    # defined once on RepCategory; aliased here because Tracer.install
    # (perfbench/layertrace.py) wraps only what the traced class itself defines
    enumerate_extensions = RepCategory.enumerate_extensions


def _factor_mono(cat: Category, m, g):
    """The u with m o u = g, unique because m is a monomorphism."""
    u = solve_precompose(cat, m, g)
    verify(u is not None, "no factorization through the monomorphism")
    return u


def _factor_epi(cat: Category, e, g):
    """The u with u o e = g, unique because e is an epimorphism."""
    u = solve_postcompose(cat, e, g)
    verify(u is not None, "no factorization through the epimorphism")
    return u


# ---------------------------------------------------------------------------
# substructures
# ---------------------------------------------------------------------------

def substructure_member(ecat: ConflCategory, dses: Conflation, tag: SubstructureTag) -> bool:
    """Does the degreewise conflation lie in the tagged exact substructure?

    dses must already be a checked conflation: every producer of one
    (`enumerate_extensions`, the split approximations, the factorization
    steps, the obstruction) checks it once, and `is_hom_exact` checks the
    conflations it is handed.
    """
    return all(ecat.degree_splits(dses, d) for d in _TAG_DEGREES[tag])


# ---------------------------------------------------------------------------
# the subcategory of split conflations, with explicit approximations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitTestGroup:
    """Consecutive members of a split test family and the canonical split
    conflation on their summed end terms, which stands for all of them:
    Hom(+ t_i, -) = + Hom(t_i, -) and Hom(-, + t_i) = + Hom(-, t_i)."""

    sum: ConflObj
    members: tuple


def s_precover(ecat: ConflCategory, x: ConflObj) -> Conflation:
    """The one-step split precover of a conflation object: returns the
    checked conflation 0 -> P1 -> P0 -> x -> 0 whose deflation is the precover.

    P0 is the canonical split conflation on (first term, middle term); the
    deflation evaluates the complex structure, and the conflation splits in
    degrees -1 and 0 by construction.
    """
    b = ecat.base
    x1, x2, x3 = x.terms()
    zero = b.zero_obj()
    p1 = ecat.split_obj(zero, x1)
    p0 = ecat.split_obj(x1, x2)
    total, (j1, j2), (pr1, pr2) = ecat._pair(x1, x2)
    a2 = b.add(b.compose(x.d1, pr1), b.compose(b.identity(x2), pr2))  # (x1 | 1)
    alpha = ConflMor(p0, x, b.identity(x1), a2, x.d2)
    i2 = b.add(b.compose(j1, b.identity(x1)), b.compose(j2, b.neg(x.d1)))  # (1; -x1)
    iota = ConflMor(p1, p0, b.zero_mor(zero, x1), i2, b.neg(x.d1))
    dses = Conflation(iota, alpha)
    ecat.check_conflation(dses)
    verify(
        substructure_member(ecat, dses, SubstructureTag.SPLIT0M1),
        f"{x.label}: split precover conflation does not split in degrees -1 and 0",
    )
    return dses


def s_preenvelope(ecat: ConflCategory, x: ConflObj) -> Conflation:
    """The dual one-step split preenvelope: returns the checked conflation
    0 -> x -> Q0 -> Q1 -> 0 whose inflation is the preenvelope; it splits
    in degrees 0 and 1."""
    b = ecat.base
    x1, x2, x3 = x.terms()
    zero = b.zero_obj()
    q0 = ecat.split_obj(x2, x3)
    q1 = ecat.split_obj(x3, zero)
    total, (j1, j2), (pr1, pr2) = ecat._pair(x2, x3)
    b2 = b.add(b.compose(j1, b.identity(x2)), b.compose(j2, x.d2))  # (1; x2)
    beta = ConflMor(x, q0, x.d1, b2, b.identity(x3))
    g2 = b.add(b.compose(b.neg(x.d2), pr1), b.compose(b.identity(x3), pr2))  # (-x2 | 1)
    gamma = ConflMor(q0, q1, b.neg(x.d2), g2, b.zero_mor(x3, zero))
    dses = Conflation(beta, gamma)
    ecat.check_conflation(dses)
    verify(
        substructure_member(ecat, dses, SubstructureTag.SPLIT01),
        f"{x.label}: split preenvelope conflation does not split in degrees 0 and 1",
    )
    return dses


class SplitConflationSubcat(Subcategory):
    """The full subcategory of split conflations inside the conflation
    category; each approximation is a map of its conflation, built once."""

    def __init__(self, ecat: ConflCategory, label: str = "S(M)"):
        super().__init__(ecat, label)

    def contains(self, x: ConflObj) -> bool:
        return conflation_split(self.cat.base, x.ses) is not None

    def membership_witness(self, x: ConflObj) -> Optional[ConflMor]:
        """An isomorphism onto the canonical split conflation, when one exists."""
        b = self.cat.base
        split = conflation_split(b, x.ses)
        if split is None:
            return None
        retr, _ = split
        target = self.cat.split_obj(x.t1, x.t3)
        _, (j1, j2), _ = self.cat._pair(x.t1, x.t3)
        phi2 = b.add(b.compose(j1, retr), b.compose(j2, x.d2))
        return ConflMor(x, target, b.identity(x.t1), phi2, b.identity(x.t3))

    def precover(self, x: ConflObj) -> ConflMor:
        return self.precover_conflation(x)[0].defl

    def preenvelope(self, x: ConflObj) -> ConflMor:
        return self.preenvelope_conflation(x)[0].incl

    @memo(key=obj_key)
    def precover_conflation(self, x: ConflObj) -> tuple[Conflation, None]:
        """(s_precover(x), None), built once per object: it always exists."""
        return s_precover(self.cat, x), None

    @memo(key=obj_key)
    def preenvelope_conflation(self, x: ConflObj) -> tuple[Conflation, None]:
        """(s_preenvelope(x), None), built once per object: it always exists."""
        return s_preenvelope(self.cat, x), None

    def is_hom_exact(self, c: Conflation, side: str) -> bool:
        """Degree (-1, 0) splitting (covariant), degree (0, 1) splitting
        (contravariant): against a split a -> a (+) c -> c, exactness is that
        of two degree components against a and c (`split_hom_exact`), which
        a split component has; the converse is re-verified, bounded-
        exhaustively, by `check_hom_exactness_matches_splitting`."""
        self.cat.check_conflation(c)
        if side == "covariant":
            return substructure_member(self.cat, c, SubstructureTag.SPLIT0M1)
        if side == "contravariant":
            return substructure_member(self.cat, c, SubstructureTag.SPLIT01)
        raise ValueError(f"unknown side {side!r}")

    def sample_objects(self, bound: int) -> list[ConflObj]:
        """Canonical split conflations with all vertex dimensions <= bound."""
        b = self.cat.base
        reps = b.enumerate_objects(bound)
        out = []
        for a in reps:
            for c in reps:
                if any(a.dims[v] + c.dims[v] > bound for v in b.quiver.vertices):
                    continue
                out.append(self.cat.split_obj(a, c))
        out.sort(key=lambda o: (o.total_dim, o.key))
        return out

    @memo(key=lambda family: tuple(t.key for t in family))
    def test_groups(self, family: list[ConflObj]) -> list[SplitTestGroup]:
        """The family's nonzero members, in order, packed greedily into groups
        of total dimension at most TEST_GROUP_DIM (a larger member is a group
        of its own), each with its canonical split sum; built once per family.

        The zero conflation contributes no morphism, so it is in no group.  A
        member that is not canonical split is a ValueError: the sum is built
        from the end terms alone."""
        ecat = self.cat
        packs, total = [], 0
        for t in family:
            _require_canonical_split(ecat, t)
            dim = t.total_dim
            if dim == 0:
                continue
            if packs and total + dim <= TEST_GROUP_DIM:
                packs[-1].append(t)
                total += dim
            else:
                packs.append([t])
                total = dim
        return [SplitTestGroup(self._split_sum(ms), tuple(ms)) for ms in packs]

    def _split_sum(self, members: list[ConflObj]) -> ConflObj:
        """The canonical split conflation on (+ first terms, + last terms),
        one registered base sum per end; a lone member stands for itself."""
        if len(members) == 1:
            return members[0]
        b = self.cat.base
        return self.cat.split_obj(b.direct_sum([t.t1 for t in members])[0], b.direct_sum([t.t3 for t in members])[0])


# ---------------------------------------------------------------------------
# instance generators and theorem harnesses
# ---------------------------------------------------------------------------

def nonsplit_with_split_ends(ecat: ConflCategory) -> Conflation:
    """A degreewise conflation with split end terms that does not split in degree 0.

    Both ends lie in the split subcategory while the middle degree is a
    nonsplit conflation of the base, so the sequence is in the full
    structure but not in the degree-0-splitting one.
    """
    b = ecat.base
    candidates = (o.ses for bound in (1, 2) for o in ecat.enumerate_objects(bound))
    mid = next((ses for ses in candidates if conflation_split(b, ses) is None), None)
    if mid is None:
        raise ValueError("base category has no nonsplit conflation at small dimensions")
    x1, x2, x3 = mid.incl.src, mid.incl.dst, mid.defl.dst
    y = ecat.make_obj(mid)
    zero = b.zero_obj()
    p = ecat.split_obj(x1, zero)
    q = ecat.split_obj(zero, x3)
    incl = ConflMor(p, y, b.identity(x1), mid.incl, b.zero_mor(zero, x3))
    defl = ConflMor(y, q, b.zero_mor(x1, zero), mid.defl, b.identity(x3))
    dses = Conflation(incl, defl)
    ecat.check_conflation(dses)
    verify(substructure_member(ecat, dses, SubstructureTag.FULL), "obstruction is not a degreewise conflation")
    verify(not substructure_member(ecat, dses, SubstructureTag.SPLIT0), "obstruction splits in degree 0")
    return dses


@dataclass
class BiconditionalReport:
    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)


def check_hom_exactness_matches_splitting(
    ecat: ConflCategory,
    dses: Conflation,
    bound: int = 1,
    test_objects: Optional[list[ConflObj]] = None,
) -> tuple[bool, bool, bool, bool]:
    """Bounded-exhaustive hom-exactness vs degree-splitting, both dualities.

    Returns (cov_exact, in_split0m1, contra_exact, in_split01) and raises
    VerificationError if either biconditional or a lift formula fails.  The
    test family (canonical split objects, by default those of the bound) is
    tested a group at a time through the sums of `test_groups`: the rank of
    g o - on Hom(+ t_i, Y) is the sum of the members' ranks, each at most
    its dim Hom(t_i, Z), so the sum is hom-exact exactly when every member
    is.  The covariant family always contains the split precover source of
    the end term as well, which the converse direction needs, so the bounded
    decision is complete; dually for the inflation.  The base decides each
    test object on two degree components (`ConflCategory.split_hom_exact`);
    the degree splittings, decided once, give memberships and lift sections.
    """
    sub = ecat.split_sub
    z_obj: ConflObj = dses.defl.dst
    x_obj: ConflObj = dses.incl.src
    if test_objects is None:
        test_objects = sub.sample_objects(bound)
    groups = sub.test_groups(test_objects)
    cov = _hom_exact_by_group(ecat, dses, groups, "covariant") and ecat.split_hom_exact(
        dses, sub.precover(z_obj).src, "covariant"
    )
    contra = _hom_exact_by_group(ecat, dses, groups, "contravariant") and ecat.split_hom_exact(
        dses, sub.preenvelope(x_obj).dst, "contravariant"
    )
    s1, s2, s3 = (ecat.degree_split(dses, d) for d in DEGREES)
    member_down = s1 is not None and s2 is not None
    member_up = s2 is not None and s3 is not None
    verify(cov == member_down, "covariant hom-exactness disagrees with degree (-1,0) splitting")
    verify(contra == member_up, "contravariant hom-exactness disagrees with degree (0,1) splitting")
    if member_down:
        _lift_formula_by_group(_verify_deflation_lift_formula, ecat, dses, groups, s1[1], s2[1])
    if member_up:
        _lift_formula_by_group(_verify_inflation_lift_formula, ecat, dses, groups, s2[0], s3[0])
    return cov, member_down, contra, member_up


def _hom_exact_by_group(ecat: ConflCategory, dses: Conflation, groups: list[SplitTestGroup], side: str) -> bool:
    """Is dses hom-exact against every member of every group?  One test per
    group sum; a sum whose left-exactness check fails is re-tested member by
    member, in order, as a test of the members alone would have gone."""
    for g in groups:
        try:
            exact = ecat.split_hom_exact(dses, g.sum, side)
        except VerificationError:
            if all(ecat.split_hom_exact(dses, t, side) for t in g.members):
                raise
            exact = False
        if not exact:
            return False
    return True


def _lift_formula_by_group(
    lift_formula, ecat: ConflCategory, dses: Conflation, groups: list[SplitTestGroup], m1, m2
) -> int:
    """lift_formula on each group sum in turn, returning the basis morphisms
    lifted (Hom dimensions add, so the members' total).  A sum that fails is
    re-checked member by member, in order, so the error raised is the first
    failing member's, and the sum's own only if no member fails."""
    count = 0
    for g in groups:
        try:
            count += lift_formula(ecat, dses, [g.sum], m1, m2)
        except VerificationError:
            lift_formula(ecat, dses, g.members, m1, m2)
            raise
    return count


def _require_canonical_split(ecat: ConflCategory, t_obj: ConflObj) -> None:
    """The lift formulas and the split-end exactness test hold for canonical
    split test objects only; any other would silently get wrong checks."""
    if not ecat._is_canonical_split_obj(t_obj):
        raise ValueError(f"test object {t_obj.label} is not a canonical split conflation")


def _verify_deflation_lift_formula(ecat: ConflCategory, dses: Conflation, test_objects, s1: RepMor, s2: RepMor) -> int:
    """The closed-form lift through the deflation g: Y -> Z, from sections
    s1, s2 of its degree -1 and 0 components, checked on a whole hom basis
    at once: for h: T -> Z with T canonical split,
    u = (s1 h1, d1 s1 h1 p1 + s2 h2 j2 p2, d2 s2 h2 j2) is a chain map
    T -> Y with g o u = h.  Returns the number of basis morphisms lifted;
    a test object that is not canonical split is a ValueError."""
    b = ecat.base
    g: ConflMor = dses.defl
    y_obj, z_obj = g.src, g.dst
    count = 0
    for t_obj in test_objects:
        _require_canonical_split(ecat, t_obj)
        t1, _, t3 = t_obj.terms()
        _, (j1, j2), (p1, p2) = ecat._pair(t1, t3)
        hs = ecat.hom_basis(t_obj, z_obj)
        if not hs:
            continue
        h1, h2, _ = _degree_columns(t_obj, z_obj, hs.rows)
        u1 = b.compose_rows(s1, h1, t1)
        s2b = b.compose_rows(s2, b.precompose_rows(h2, j2, z_obj.t2), t3)
        u2 = b.precompose_rows(b.compose_rows(y_obj.d1, u1, t1), p1, y_obj.t2) + b.precompose_rows(s2b, p2, y_obj.t2)
        u3 = b.compose_rows(y_obj.d2, s2b, t3)
        us = np.hstack([u1, u2 % ecat.p, u3])
        defect = square_defect(t_obj, y_obj, us)
        if defect is not None:
            raise VerificationError(f"deflation lift formula from {t_obj.label}: {defect}")
        if not np.array_equal(ecat.compose_rows(g, us, t_obj), hs.rows):
            raise VerificationError(f"deflation lift formula fails from {t_obj.label}")
        count += len(hs)
    return count


def _verify_inflation_lift_formula(ecat: ConflCategory, dses: Conflation, test_objects, r2: RepMor, r3: RepMor) -> int:
    """The dual closed-form extension along the inflation f: X -> Y, from
    retractions r2, r3 of its degree 0 and 1 components, checked on a whole
    hom basis at once: for h: X -> T with T canonical split,
    u = (p1 h2 r2 d1, j1 p1 h2 r2 + j2 h3 r3 d2, h3 r3) is a chain map
    Y -> T with u o f = h.  Returns the number of basis morphisms extended;
    a test object that is not canonical split is a ValueError."""
    b = ecat.base
    f: ConflMor = dses.incl
    x_obj, y_obj = f.src, f.dst
    count = 0
    for t_obj in test_objects:
        _require_canonical_split(ecat, t_obj)
        t1, _, t3 = t_obj.terms()
        _, (j1, j2), (p1, p2) = ecat._pair(t1, t3)
        hs = ecat.hom_basis(x_obj, t_obj)
        if not hs:
            continue
        _, h2, h3 = _degree_columns(x_obj, t_obj, hs.rows)
        ar = b.precompose_rows(b.compose_rows(p1, h2, x_obj.t2), r2, t1)
        u3 = b.precompose_rows(h3, r3, t3)
        u2 = b.compose_rows(j1, ar, y_obj.t2) + b.compose_rows(j2, b.precompose_rows(u3, y_obj.d2, t3), y_obj.t2)
        u1 = b.precompose_rows(ar, y_obj.d1, t1)
        us = np.hstack([u1, u2 % ecat.p, u3])
        defect = square_defect(y_obj, t_obj, us)
        if defect is not None:
            raise VerificationError(f"inflation extension formula to {t_obj.label}: {defect}")
        if not np.array_equal(ecat.precompose_rows(us, f, t_obj), hs.rows):
            raise VerificationError(f"inflation extension formula fails to {t_obj.label}")
        count += len(hs)
    return count


def factor_split0_conflation(ecat: ConflCategory, dses: Conflation) -> tuple[Conflation, Conflation]:
    """Factor a degree-0-splitting conflation through the two one-sided structures.

    Pushing the inflation out along the split preenvelope of its source
    yields 0 -> Y -> C -> Q1 -> 0 splitting in degrees (0,1) and
    0 -> Q0 -> C -> Z -> 0 splitting in degrees (-1,0), exhibiting the
    inflation as a composite of inflations from the two substructures.
    dses must be a checked conflation; the two steps are checked here.
    """
    if not substructure_member(ecat, dses, SubstructureTag.SPLIT0):
        raise ValueError("conflation does not split in degree 0")
    f: ConflMor = dses.incl
    g: ConflMor = dses.defl
    x_obj, y_obj, z_obj = f.src, f.dst, g.dst
    env, _ = ecat.split_sub.preenvelope_conflation(x_obj)
    r, delta = env.incl, env.defl  # X -> Q0 -> Q1
    c_obj, t_mor, s_mor = ecat.pushout(r, f)  # t: Q0 -> C, s: Y -> C
    u = _induced_from_pushout(ecat, t_mor, s_mor, delta, ecat.zero_mor(y_obj, delta.dst))
    step1 = Conflation(s_mor, u)
    ecat.check_conflation(step1)
    w = _induced_from_pushout(ecat, t_mor, s_mor, ecat.zero_mor(r.dst, z_obj), g)
    step2 = Conflation(t_mor, w)
    ecat.check_conflation(step2)
    verify(substructure_member(ecat, step1, SubstructureTag.SPLIT01), "first step does not split in degrees 0, 1")
    verify(substructure_member(ecat, step2, SubstructureTag.SPLIT0M1), "second step does not split in degrees -1, 0")
    # the inflation factors as the composite of the two step inflations
    verify(
        ecat.mor_eq(ecat.compose(s_mor, f), ecat.compose(t_mor, r)),
        "the inflation does not factor through the two steps",
    )
    return step1, step2


def _induced_from_pushout(ecat: ConflCategory, t_mor: ConflMor, s_mor: ConflMor, a: ConflMor, bmor: ConflMor) -> ConflMor:
    """Unique u with u o t = a and u o s = b out of a pushout: (t s) is epi."""
    total, _, _ = ecat.direct_sum([t_mor.src, s_mor.src])
    return _factor_epi(ecat, ecat.costack([t_mor, s_mor], total), ecat.costack([a, bmor], total))


@dataclass
class SplitPctReport:
    passed: bool
    objects_checked: int
    lift_tests: int
    failures: list[str] = field(default_factory=list)


def verify_splitting_pseudo_cluster_tilting(
    ecat: ConflCategory,
    bound: int = 1,
    test_bound: Optional[int] = None,
) -> SplitPctReport:
    """Both split approximation conflations exist and pass lift tests, exhaustively.

    For every conflation object x with vertex dims <= bound: the split
    precover (preenvelope) conflation is valid and lies in the expected
    substructure (checked when it is built), and every morphism from (to)
    every bounded split object factors through it.  Two independent paths
    decide the factoring: one solve per side and group of split objects
    (`test_groups`: a morphism lifts from a sum exactly when its restriction
    to each member does) shows that a lift exists, and the closed-form lift
    through the canonical sections (1, (0;1)) of the precover deflation,
    dually the retractions ((1|0), 1) of the preenvelope inflation, is
    re-verified on every group sum's hom basis.  A group that fails either
    check is re-checked member by member, in order, and its members'
    failures are recorded.
    """
    b = ecat.base
    sub = ecat.split_sub
    test_bound = bound if test_bound is None else test_bound
    groups = sub.test_groups(sub.sample_objects(test_bound))
    objs = ecat.enumerate_objects(bound)
    report = SplitPctReport(passed=True, objects_checked=len(objs), lift_tests=0)
    for x in objs:
        try:
            pre, _ = sub.precover_conflation(x)
            env, _ = sub.preenvelope_conflation(x)
        except VerificationError as exc:
            report.failures.append(str(exc))
            continue
        alpha, beta = sub.precover(x), sub.preenvelope(x)
        for g in groups:
            failed = _lift_failures(ecat, x, alpha, beta, g.sum)
            if failed:
                report.failures += [m for t in g.members for m in _lift_failures(ecat, x, alpha, beta, t)] or failed
        x1, x2, x3 = x.terms()
        sides = (
            (_verify_deflation_lift_formula, pre, b.identity(x1), ecat._pair(x1, x2)[1][1]),
            (_verify_inflation_lift_formula, env, ecat._pair(x2, x3)[2][0], b.identity(x3)),
        )
        for lift_formula, dses, m1, m2 in sides:
            try:
                report.lift_tests += _lift_formula_by_group(lift_formula, ecat, dses, groups, m1, m2)
            except VerificationError as exc:
                report.failures.append(f"{x.label}: {exc}")
    report.passed = not report.failures
    return report


def _lift_failures(ecat: ConflCategory, x: ConflObj, alpha: ConflMor, beta: ConflMor, s: ConflObj) -> list[str]:
    """Which of the two approximations of x, the precover alpha: P0 -> x and
    the preenvelope beta: x -> Q0, some morphism from (to) s does not factor
    through: every basis morphism at once, one solve per side."""
    failed = []
    p0, q0 = alpha.src, beta.dst
    incoming = ecat.hom_basis(s, x)
    through = ecat.compose_flat(alpha, ecat.hom_basis(s, p0), s, p0)
    if ff.solve_right(through, span_matrix(ecat, incoming, s, x)) is None:
        failed.append(f"{x.label}: precover lift fails against {s.label}")
    outgoing = ecat.hom_basis(x, s)
    through = ecat.precompose_flat(ecat.hom_basis(q0, s), beta, q0, s)
    if ff.solve_right(through, span_matrix(ecat, outgoing, x, s)) is None:
        failed.append(f"{x.label}: preenvelope lift fails against {s.label}")
    return failed


@dataclass
class SubstructureVerdict:
    tag: str
    pseudo_cluster_tilting: bool
    self_orthogonal: bool
    quotient_abelian: bool
    cluster_quotient: bool
    consistent: bool


@dataclass
class ClusterQuotientReport:
    passed: bool
    abelian_verdict: str
    split0_sequences_checked: int
    # a nonsplit conflation with split ends, None when none exists at small bounds
    obstruction: Optional[Conflation]
    separated: bool = True
    verdicts: list[SubstructureVerdict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    note: str = (
        "cluster quotient = pseudo-cluster-tilting + self-orthogonal for the "
        "substructure + abelian quotient; uniqueness is checked over the five "
        "named substructures only"
    )


def cluster_quotient_harness(
    ecat: ConflCategory,
    bound: int = 1,
    cap: int = 4096,
    seed: Optional[int] = None,
) -> ClusterQuotientReport:
    """Abelian quotient by split conflations, and degree-0 splitting as the
    unique named substructure making the pair a cluster quotient.

    Self-orthogonality is decided by `approx.is_self_orthogonal` alone: on
    the degree-0-splitting sequences between bounded split objects, and per
    substructure on its members among those sequences."""
    from .quotient import verify_abelian

    sub = ecat.split_sub
    sample = ecat.enumerate_objects(bound)
    abelian = verify_abelian(sub, sample, cap=cap, seed=seed)
    # enumerate degreewise conflations between bounded split objects once
    split_objs = sub.sample_objects(bound)
    sequences = [d for q in split_objs for x in split_objs for d in ecat.enumerate_extensions(q, x, cap)]
    split0 = [d for d in sequences if substructure_member(ecat, d, SubstructureTag.SPLIT0)]
    try:
        obstruction = nonsplit_with_split_ends(ecat)
    except ValueError:
        obstruction = None
    report = ClusterQuotientReport(
        passed=abelian.passed,
        abelian_verdict=abelian.verdict,
        split0_sequences_checked=len(split0),
        obstruction=obstruction,
        # when every bounded object splits, the degree-splitting substructures
        # coincide on the sample and cannot be told apart at this bound
        separated=any(not sub.contains(x) for x in sample),
    )
    if not abelian.passed:
        report.failures.extend(abelian.failures)
    if not is_self_orthogonal(sub, split0).passed:
        report.passed = False
        report.failures.append("a degree-0-splitting conflation between split objects does not split")

    for tag in SubstructureTag:
        pseudo = all(
            substructure_member(ecat, sub.precover_conflation(x)[0], tag)
            and substructure_member(ecat, sub.preenvelope_conflation(x)[0], tag)
            for x in sample
        )
        orth = is_self_orthogonal(sub, [d for d in sequences if substructure_member(ecat, d, tag)]).passed
        cq = pseudo and orth and abelian.passed
        if report.separated:
            expected = tag == SubstructureTag.SPLIT0
        else:
            # without a nonsplit bounded object the five substructures
            # agree on the sample; only the positive split0 claim remains
            expected = cq if tag != SubstructureTag.SPLIT0 else True
        consistent = cq == expected
        if not consistent:
            report.passed = False
            report.failures.append(f"substructure {tag.value}: cluster-quotient verdict {cq}, expected {expected}")
        report.verdicts.append(
            SubstructureVerdict(
                tag=tag.value,
                pseudo_cluster_tilting=pseudo,
                self_orthogonal=orth,
                quotient_abelian=abelian.passed,
                cluster_quotient=cq,
                consistent=consistent,
            )
        )
    if report.separated and obstruction is None:
        report.passed = False
        report.failures.append("no nonsplit conflation with split ends found at small bounds")
    if not report.separated:
        report.note += "; bound too small to separate the substructures on this base"
    return report


def sweep_hom_exactness_biconditional(
    ecat: ConflCategory,
    bound: int = 2,
    test_bound: int = 1,
    cap: int = 4096,
) -> BiconditionalReport:
    """Run the hom-exactness/degree-splitting biconditional over every
    enumerated degreewise conflation with vertex dims <= bound.

    A check caches no conflation hom basis of an extension's middle: the base
    decides hom-exactness on degree components, and the lift formulas read
    only the end terms' hom-spaces, so memory does not grow with extensions."""
    sub = ecat.split_sub
    objs = ecat.enumerate_objects(bound)
    test_objects = sub.sample_objects(test_bound)
    report = BiconditionalReport(passed=True, checked=0)
    for z in objs:
        for x in objs:
            if any(x.t2.dims[v] + z.t2.dims[v] > bound for v in ecat.base.quiver.vertices):
                continue
            for d in ecat.enumerate_extensions(z, x, cap):
                try:
                    check_hom_exactness_matches_splitting(ecat, d, test_objects=test_objects)
                except VerificationError as exc:
                    report.failures.append(f"{x.label} -> {z.label}: {exc}")
                report.checked += 1
    report.passed = not report.failures
    return report
