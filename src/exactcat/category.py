"""The base class of the one host category, and linear algebra over hom-spaces.

The host is `repcat.RepCategory`, the representations of a quiver over F_p;
the category of conflations is the same host on Q x A3 with relations
(`conflcat.ConflCategory`), so the quotient, approximation and class
machinery runs unchanged on both.  Its base class `Category` holds the
memoized hom bases, the flat-vector morphism arithmetic and the limits
built from kernels and cokernels: pullback, pushout and image, on the
canonical biproducts of `stack`/`costack`.  Every per-owner cache is an
`fflinalg.memo` store on its owner, living as long as the owner.

Objects and morphisms are read by their attributes: `x.key`, `x.label`,
`x.dimv` (dims tuple), `x.total_dim`; `f.src`, `f.dst` and the coordinate
vector `f.vec`, one read-only int64 vector holding the blocks y_i x x_i of
f: x -> y row-major one after another (`fflinalg.BlockMaps`), vertex blocks
for a representation map, degree-then-vertex blocks for a chain map.  So
composition, sums, multiples, linear combinations and equality are a few
array operations, and every factorization/exactness question is F_p
linear algebra on these vectors.

A hom-space into or out of a registered direct sum is kept summand-wise
(`HomBasis`): its basis is the bases of the summands' hom-spaces with where
each summand starts, and compose_flat, precompose_flat and combine work
through these parts, so the dense basis of, say, Hom(K, G^n) for a precover
G^n is never built unless a caller asks for its rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from . import fflinalg as ff
from .fflinalg import FpMatrix, VerificationError, memo, obj_key, verify  # noqa: F401 (VerificationError re-exported)


class EnumerationBound(Exception):
    """An exhaustive enumeration was refused; .required carries the size."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


class ConditionError(Exception):
    """A precover/preenvelope conflation condition failed where required."""

    def __init__(self, condition: str, obj_label: str, reason: str):
        super().__init__(f"condition {condition} fails at {obj_label}: {reason}")
        self.condition = condition
        self.obj_label = obj_label
        self.reason = reason


@dataclass(frozen=True)
class Conflation:
    """A kernel-cokernel pair 0 -> A -> B -> C -> 0 in a host category."""

    incl: Any
    defl: Any

    def terms(self):
        return self.incl.src, self.incl.dst, self.defl.dst


class HomBasis(Sequence):
    """A basis of Hom(x, y), used as the list of its morphisms; their vectors
    are the rows of .rows.

    A basis of a hom-space into or out of a registered direct sum is kept
    summand-wise: its parts are (sub-basis, summand, start), the basis of
    Hom(x, s) placed by the canonical injection of the summand s of y that
    starts at start (into), resp. of Hom(s, y) placed by the projection of
    the summand s of x.  Such a basis stores no dense rows:
    `Category.compose_flat`, `precompose_flat` and `combine` work through the
    parts (on the rows of nested parts), and .rows and the morphisms are
    assembled only when asked for, then cached.
    """

    __slots__ = ("cat", "x", "y", "parts", "into", "_len", "_rows", "_mors", "_placements")

    def __init__(self, cat: "Category", x, y, rows: Optional[np.ndarray] = None, parts: Sequence = (), into: bool = True):
        self.cat, self.x, self.y = cat, x, y
        self.parts, self.into = list(parts), into
        self._len = len(rows) if rows is not None else sum(len(hb) for hb, _, _ in self.parts)
        self._rows = rows
        self._mors: Optional[list] = None
        self._placements: dict = {}

    @property
    def rows(self) -> np.ndarray:
        """len x flat_dim(x, y) read-only array of the basis vectors."""
        if self._rows is None:
            self._rows = _frozen(self._assemble())
        return self._rows

    def _assemble(self) -> np.ndarray:
        """The dense rows of a summand-wise basis, each part copied into place."""
        rows = np.zeros((self._len, self.cat.flat_dim(self.x, self.y)), dtype=np.int64)
        for lo, hi, hb, at in self.placements(*self.own_side()):
            rows[lo:hi, at] = hb.rows
        return rows

    def own_side(self) -> tuple:
        """The (other, post) under which placements() places the parts in
        the maps x -> y themselves."""
        return (self.x if self.into else self.y).dimv, not self.into

    def placements(self, other: tuple, post: bool) -> list:
        """(lo, hi, sub-basis, positions) for each nonempty part, cached.

        For a flat map h: y -> other (post) resp. other -> x, the positions
        are where the part's composites with h land among the maps x -> other
        (other -> y), or, when h acts on the sum's side, the coordinates of h
        that the part meets (g o inj_s, resp. proj_s o m)."""
        key = (other, post)
        hit = self._placements.get(key)
        if hit is None:
            total = (self.y if self.into else self.x).dimv
            hit, lo = [], 0
            for hb, s, start in self.parts:
                hi = lo + len(hb)
                if hi > lo:
                    hit.append((lo, hi, hb, self.cat.blocks.summand_positions(other, s.dimv, total, start, not post)))
                lo = hi
            self._placements[key] = hit
        return hit

    def _morphisms(self) -> list:
        if self._mors is None:
            self._mors = [self.cat._mor(self.x, self.y, r) for r in self.rows]
        return self._mors

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._morphisms()[i]

    def __iter__(self):
        return iter(self._morphisms())


# Morphisms per batch in compose_flat/precompose_flat; bounds the temporaries
# of one batch whatever the hom-space dimension.
FLAT_CHUNK = 256


class Category:
    """The base class of `repcat.RepCategory`, which supplies `_mor`,
    `_solve_hom_basis`, `direct_sum`, `kernel` and `cokernel`.

    The base class memoizes the hom bases and keeps hom-spaces of registered
    direct sums summand-wise (see `HomBasis`), which keeps both the linear
    systems and the stored bases small when approximation constructions
    build large biproducts.  Morphism arithmetic works on the flat vectors
    (see the module docstring), with the composition plans of `self.blocks`.
    """

    p: int
    blocks: ff.BlockMaps

    def __init__(self):
        self._sum_registry: dict = {}

    def _register_sum(self, total, summands) -> None:
        """Record a biproduct whose injections and projections are canonical
        (see _offsets)."""
        # zero summands would alias the total's key and loop the decomposition
        parts = [(s, before) for s, before in zip(summands, _offsets(summands)) if s.total_dim > 0]
        if len(parts) > 1:
            self._sum_registry[total.key] = parts

    @memo(key=obj_key)
    def hom_basis(self, x, y) -> HomBasis:
        dst_sum = self._sum_registry.get(y.key)
        src_sum = self._sum_registry.get(x.key)
        # Hom(x, (+) s_i) = (+) inj_i Hom(x, s_i) and Hom((+) s_i, y) =
        # (+) Hom(s_i, y) proj_i, kept part by part
        if dst_sum is not None:
            return HomBasis(self, x, y, parts=[(self.hom_basis(x, s), s, start) for s, start in dst_sum])
        if src_sum is not None:
            return HomBasis(self, x, y, parts=[(self.hom_basis(s, y), s, start) for s, start in src_sum], into=False)
        return HomBasis(self, x, y, _frozen(self._solve_hom_basis(x, y)))

    # -- morphisms -------------------------------------------------------
    def flat_dim(self, x, y) -> int:
        return self.blocks.size(x.dimv, y.dimv)

    def identity(self, x):
        return self._mor(x, x, self.blocks.identity(x.dimv))

    def zero_mor(self, x, y):
        return self._mor(x, y, self.blocks.zeros(self.blocks.size(x.dimv, y.dimv)))

    def compose(self, g, f):
        x = f.src
        return self._mor(x, g.dst, _frozen(self.blocks.compose(g.vec, f.vec, x.dimv, f.dst.dimv, g.dst.dimv, self.p)))

    def add(self, f, g):
        r = f.vec + g.vec
        r %= self.p
        return self._mor(f.src, f.dst, _frozen(r))

    def neg(self, f):
        r = -f.vec
        r %= self.p
        return self._mor(f.src, f.dst, _frozen(r))

    def scale(self, f, c: int):
        r = f.vec * (int(c) % self.p)
        r %= self.p
        return self._mor(f.src, f.dst, _frozen(r))

    # kept for perfbench/layertrace.py: Tracer._observe reads cat.obj_dim(cat.src(precover))
    def src(self, f):
        return f.src

    def compose_rows(self, g, rows: np.ndarray, x) -> np.ndarray:
        """Rows g o f_i, reduced, for the rows f_i: x -> src(g) of rows."""
        out = self.blocks.left_stack(g.vec, rows, x.dimv, g.src.dimv, g.dst.dimv)
        out %= self.p
        return out

    def precompose_rows(self, rows: np.ndarray, m, z) -> np.ndarray:
        """Rows f_i o m, reduced, for the rows f_i: dst(m) -> z of rows."""
        out = self.blocks.right_stack(rows, m.vec, m.src.dimv, m.dst.dimv, z.dimv)
        out %= self.p
        return out

    def compose_flat(self, g, fs: Sequence, x, y) -> FpMatrix:
        """Matrix whose columns are the vectors of g o f for the morphisms f: x -> y in fs."""
        return self._flat_columns(fs, x, y, g.vec, g.dst.dimv, True)

    def precompose_flat(self, fs: Sequence, m, x, y) -> FpMatrix:
        """Matrix whose columns are the vectors of f o m for the morphisms f: x -> y in fs."""
        return self._flat_columns(fs, x, y, m.vec, m.src.dimv, False)

    def _flat_columns(self, fs, x, y, h: np.ndarray, other: tuple, post: bool) -> FpMatrix:
        """The columns h o f for a flat h: y -> other (post) resp. f o h for
        h: other -> x, for the maps f: x -> y of fs.

        A summand-wise basis goes part by part, on the parts' rows.  When h
        acts on the sum's side it is cut down to the summand (g o inj_s,
        resp. proj_s o m) and the part's columns are written straight into
        the output; otherwise the part is composed with h and its
        coordinates placed at the summand's positions."""
        xd, yd = x.dimv, y.dimv
        out = np.zeros((self.blocks.size(xd, other) if post else self.blocks.size(other, yd), len(fs)), dtype=np.int64)
        parts = fs.parts if isinstance(fs, HomBasis) else None
        if not parts:
            self._fill_columns(out, stacked_rows(self, fs, x, y), xd, yd, h, other, post)
            return ff.from_reduced(self.p, out)
        for lo, hi, hb, at in fs.placements(other, post):
            if post == fs.into:
                self._fill_columns(out[:, lo:hi], hb.rows, hb.x.dimv, hb.y.dimv, h[at], other, post)
            else:
                part = np.empty((len(at), hi - lo), dtype=np.int64)
                self._fill_columns(part, hb.rows, hb.x.dimv, hb.y.dimv, h, other, post)
                out[at, lo:hi] = part
        return ff.from_reduced(self.p, out)

    def _fill_columns(self, out: np.ndarray, rows: np.ndarray, x: tuple, y: tuple, h: np.ndarray, other: tuple, post: bool) -> None:
        """out[:, i] = the reduced composite of h with rows[i] (a map x -> y),
        FLAT_CHUNK rows at a time."""
        for lo in range(0, len(rows), FLAT_CHUNK):
            chunk = rows[lo : lo + FLAT_CHUNK]
            r = self.blocks.left_stack(h, chunk, x, y, other) if post else self.blocks.right_stack(chunk, h, other, x, y)
            r %= self.p
            out[:, lo : lo + len(chunk)] = r.T

    def stack(self, fs: Sequence, total):
        """<f_1,...,f_k> = sum inj_i f_i: common src -> total, the canonical
        biproduct of the targets; each f_i only fills its summand's rows."""
        return self._place(fs, total, True)

    def costack(self, fs: Sequence, total):
        """(f_1 ... f_k) = sum f_i proj_i: total -> common dst, the canonical
        biproduct of the sources; each f_i only fills its summand's columns."""
        return self._place(fs, total, False)

    def _place(self, fs, total, into: bool):
        ends = [f.dst if into else f.src for f in fs]
        other = fs[0].src if into else fs[0].dst
        x, y = (other, total) if into else (total, other)
        vec = np.zeros(self.flat_dim(x, y), dtype=np.int64)
        for f, s, before in zip(fs, ends, _offsets(ends)):
            vec[self.blocks.summand_positions(other.dimv, s.dimv, total.dimv, before, into)] = f.vec
        return self._mor(x, y, _frozen(vec))

    def mor_eq(self, f, g) -> bool:
        return f.vec.tobytes() == g.vec.tobytes()

    def mor_components(self, f) -> list[np.ndarray]:
        """Component matrices; f is invertible iff every component is."""
        return self.blocks.split(f.vec, f.src.dimv, f.dst.dimv)

    def combine(self, basis: Sequence, coeffs: np.ndarray, x, y):
        """sum coeffs[i] * basis[i]: x -> y, over the nonzero coefficients only
        (a solve's coefficients live on its pivot columns); a summand-wise
        basis combines part by part."""
        coeffs = np.asarray(coeffs, dtype=np.int64) % self.p
        used = np.flatnonzero(coeffs)
        if not used.size:
            return self.zero_mor(x, y)
        parts = basis.parts if isinstance(basis, HomBasis) else None
        if not parts:
            r = coeffs[used] @ stacked_rows(self, basis, x, y)[used]
        else:
            r = np.zeros(self.flat_dim(x, y), dtype=np.int64)
            for lo, hi, hb, at in basis.placements(*basis.own_side()):
                if coeffs[lo:hi].any():
                    r[at] = coeffs[lo:hi] @ hb.rows
        r %= self.p
        return self._mor(x, y, _frozen(r))

    # -- exact structure ---------------------------------------------------
    def is_inflation(self, f) -> bool:
        """Every component injective."""
        return all(ff.array_rank(m, self.p) == m.shape[1] for m in self.mor_components(f))

    def is_deflation(self, f) -> bool:
        """Every component surjective."""
        return all(ff.array_rank(m, self.p) == m.shape[0] for m in self.mor_components(f))

    def pullback(self, f, g) -> tuple[Any, Any, Any]:
        """Fiber product of f: x -> z and g: y -> z with its two projections:
        the kernel of (f, -g): x (+) y -> z.  The square f p1 = g p2 is
        checked: a sign lost in (f, -g) breaks it over F_p for p > 2."""
        if f.dst is not g.dst and f.dst.key != g.dst.key:
            raise ValueError("pullback: f and g do not share a target")
        total, _, (p1, p2) = self.direct_sum([f.src, g.src])
        k_obj, k = self.kernel(self.costack([f, self.neg(g)], total))
        l1, l2 = self.compose(p1, k), self.compose(p2, k)
        verify(self.mor_eq(self.compose(f, l1), self.compose(g, l2)), "pullback: the square does not commute")
        return k_obj, l1, l2

    def pushout(self, f, g) -> tuple[Any, Any, Any]:
        """Fiber coproduct of f: x -> y and g: x -> z with its two injections:
        the cokernel of <f, -g>: x -> y (+) z.  The square i1 f = i2 g is
        checked, as for the pullback."""
        if f.src is not g.src and f.src.key != g.src.key:
            raise ValueError("pushout: f and g do not share a source")
        total, (i1, i2), _ = self.direct_sum([f.dst, g.dst])
        c_obj, c, _ = self.cokernel(self.stack([f, self.neg(g)], total))
        l1, l2 = self.compose(c, i1), self.compose(c, i2)
        verify(self.mor_eq(self.compose(l1, f), self.compose(l2, g)), "pushout: the square does not commute")
        return c_obj, l1, l2

    def image(self, f) -> tuple[Any, Any]:
        """Image subobject with its inclusion into dst: the kernel of the cokernel."""
        return self.kernel(self.cokernel(f)[1])


def _offsets(summands: Sequence) -> list[tuple]:
    """Where each summand of a canonical biproduct starts: in every block,
    after the coordinates of the summands before it."""
    out = []
    before = (0,) * len(summands[0].dimv) if summands else ()
    for s in summands:
        out.append(before)
        before = tuple(b + d for b, d in zip(before, s.dimv))
    return out


def _frozen(vec: np.ndarray) -> np.ndarray:
    vec.setflags(write=False)
    return vec


def stacked_rows(cat: Category, mors: Sequence, x, y) -> np.ndarray:
    """len(mors) x flat_dim(x, y) array whose rows are the vectors of mors
    (the .rows of a HomBasis)."""
    if isinstance(mors, HomBasis):
        return mors.rows
    if not mors:
        return np.zeros((0, cat.flat_dim(x, y)), dtype=np.int64)
    return np.stack([f.vec for f in mors])


class Subcategory:
    """The base class of `approx.AddSubcat` and
    `conflcat.SplitConflationSubcat`, additive full subcategories with
    approximation data.

    Each supplies membership, the precover and preenvelope, their
    conflations 0 -> P1 -> P0 -> x -> 0 and 0 -> x -> Q0 -> Q1 -> 0 with
    outer terms in the subcategory (when they exist), sample objects and
    is_hom_exact(c, side), the exact decision of Hom(sub,-)- resp.
    Hom(-,sub)-exactness of c, which checks that c is a conflation,
    ValueError if not.  The ideal of the morphisms factoring through the
    subcategory is derived here from the precover: f: x -> y factors
    through the subcategory exactly when it factors through the precover
    of y (Auslander-Smalo, J. Algebra 1980).

    It also holds the quotient's memos, filled by `quotient`: the coset
    projection of each hom-space, and the quotient kernel, cokernel and
    zero test of each morphism, so that the sweeps over the same
    subcategory build each of them once.
    """

    def __init__(self, cat: Category, label: str):
        self.cat = cat
        self.label = label

    @property
    def is_trivial(self) -> bool:
        """True when the ideal is zero, i.e. the quotient is the host itself."""
        return False

    def ideal_spanning(self, x, y) -> list:
        """A spanning set of the ideal, redundant but cheap: the composites of
        the precover of y with a basis of Hom(x, P0)."""
        return compose_with_basis(self.cat, self.precover(y), x)

    def ideal_basis(self, x, y) -> list:
        """Basis of the morphisms x -> y factoring through the subcategory."""
        return span_basis(self.cat, self.ideal_spanning(x, y), x, y)

    def is_ideal_member(self, f) -> bool:
        """Does f factor through the subcategory, i.e. through the precover of its target?"""
        return solve_precompose(self.cat, self.precover(f.dst), f) is not None


# ---------------------------------------------------------------------------
# generic linear-algebra helpers over hom-spaces
# ---------------------------------------------------------------------------

def span_matrix(cat: Category, mors: Sequence, x, y) -> FpMatrix:
    """Matrix whose columns are the vectors of the morphisms x -> y in mors."""
    return ff.from_reduced(cat.p, stacked_rows(cat, mors, x, y).T)


def flat_column(cat: Category, f) -> FpMatrix:
    """The vector of f as a one-column matrix."""
    return ff.from_reduced(cat.p, f.vec.reshape(-1, 1))


def _solve_combination(cat: Category, cols: FpMatrix, basis: Sequence, g, x, y) -> Optional[Any]:
    """sum c_i basis_i: x -> y for a solution c of cols @ c = g.vec, or None."""
    sol = ff.solve_right(cols, flat_column(cat, g))
    if sol is None:
        return None
    return cat.combine(basis, sol.a[:, 0], x, y)


def span_basis(cat: Category, mors: Sequence, x, y) -> list:
    """Subset of mors forming a basis of their span: the left-to-right greedy
    choice, which is the set of pivot columns of their coordinate matrix."""
    _, pivots, _ = ff.rref(span_matrix(cat, mors, x, y))
    return [mors[c] for c in pivots]


def compose_with_basis(cat: Category, g, x) -> list:
    """The morphisms g o u: x -> dst(g), u over the basis of Hom(x, src(g)) in
    its order, as the columns of one compose_flat."""
    y = g.src
    rows = cat.compose_flat(g, cat.hom_basis(x, y), x, y).a.T.copy()
    rows.setflags(write=False)
    return [cat._mor(x, g.dst, r) for r in rows]


def solve_precompose(cat: Category, e, g) -> Optional[Any]:
    """u with e o u = g, where e: Y -> Z, g: X -> Z; None if impossible."""
    x, y = g.src, e.src
    basis = cat.hom_basis(x, y)
    return _solve_combination(cat, cat.compose_flat(e, basis, x, y), basis, g, x, y)


def solve_precompose_pair(cat: Category, e1, g1, e2, g2) -> Optional[Any]:
    """u with e1 o u = g1 and e2 o u = g2 simultaneously, or None."""
    x, y = g1.src, e1.src
    basis = cat.hom_basis(x, y)
    cols = ff.vstack([cat.compose_flat(e1, basis, x, y), cat.compose_flat(e2, basis, x, y)])
    rhs = ff.vstack([flat_column(cat, g1), flat_column(cat, g2)])
    sol = ff.solve_right(cols, rhs)
    if sol is None:
        return None
    return cat.combine(basis, sol.a[:, 0], x, y)


def solve_postcompose(cat: Category, m, g) -> Optional[Any]:
    """u with u o m = g, where m: X -> Y, g: X -> Z; None if impossible."""
    y, z = m.dst, g.dst
    basis = cat.hom_basis(y, z)
    return _solve_combination(cat, cat.precompose_flat(basis, m, y, z), basis, g, y, z)


def conflation_key(c: Conflation) -> tuple:
    """The keys of the three terms and the two maps' bytes: equal keys, equal
    conflations."""
    a, b, z = c.terms()
    return (a.key, b.key, z.key, c.incl.vec.tobytes(), c.defl.vec.tobytes())


@memo(key=conflation_key)
def conflation_split(cat: Category, c: Conflation) -> Optional[tuple[Any, Any]]:
    """(retraction of incl, section of defl) when c splits, else None.

    The two solvabilities are equivalent; both witnesses are computed and
    their consistency checked.  Each conflation is decided once: the result
    is memoized on cat, keyed by the three object keys and the two maps.
    """
    retr = solve_postcompose(cat, c.incl, cat.identity(c.incl.src))
    sect = solve_precompose(cat, c.defl, cat.identity(c.defl.dst))
    verify(
        (retr is None) == (sect is None),
        "conflation: a retraction of the inflation without a section of the deflation, or vice versa",
    )
    return None if retr is None else (retr, sect)


def hom_exact(cat: Category, c: Conflation, t, side: str) -> bool:
    """Is c Hom(t,-)-exact (side='covariant') or Hom(-,t)-exact ('contravariant')?

    Right-exactness is the actual test; left-exactness is automatic and
    verified as a sanity check.
    """
    a, b, z = c.terms()
    if side == "covariant":
        dom_basis = cat.hom_basis(t, b)
        target_dim = len(cat.hom_basis(t, z))
        rank = cat.compose_flat(c.defl, dom_basis, t, b).rank()
        verify(len(cat.hom_basis(t, a)) == len(dom_basis) - rank, "hom_exact: Hom(t, -) is not left exact on c")
        return rank == target_dim
    if side == "contravariant":
        dom_basis = cat.hom_basis(b, t)
        target_dim = len(cat.hom_basis(a, t))
        rank = cat.precompose_flat(dom_basis, c.incl, b, t).rank()
        verify(len(cat.hom_basis(z, t)) == len(dom_basis) - rank, "hom_exact: Hom(-, t) is not left exact on c")
        return rank == target_dim
    raise ValueError(f"unknown side {side!r}")


def enumerate_hom(cat: Category, x, y, cap: int = 4096, rng=None) -> tuple[list, bool]:
    """All morphisms x -> y when p^dim <= cap, else basis + seeded samples.

    Returns (morphisms, exhaustive flag).
    """
    basis = cat.hom_basis(x, y)
    coeff_sets, exhaustive = ff.linear_combinations(cat.p, basis, cap)
    mors = [cat.combine(basis, cs, x, y) for cs in coeff_sets]
    if not exhaustive and rng is not None:
        for _ in range(min(cap, 64)):
            cs = rng.integers(0, cat.p, size=len(basis))
            mors.append(cat.combine(basis, cs, x, y))
    return mors, exhaustive


def two_sided_inverse(cat: Category, f) -> Optional[Any]:
    """g with g o f = id and f o g = id, or None when f is not an isomorphism."""
    x, y = f.src, f.dst
    if x.total_dim != y.total_dim:
        return None
    g = solve_precompose(cat, f, cat.identity(y))
    if g is None or not cat.mor_eq(cat.compose(g, f), cat.identity(x)):
        return None
    return g


def find_iso(cat: Category, x, y, cap: int = 4096) -> Optional[Any]:
    """Search an isomorphism x -> y by enumerating the hom-space."""
    if x.total_dim != y.total_dim:
        return None
    mors, exhaustive = enumerate_hom(cat, x, y, cap)
    for f in mors:
        if two_sided_inverse(cat, f) is not None:
            return f
    if not exhaustive:
        raise EnumerationBound("iso search not exhaustive", cap)
    return None
