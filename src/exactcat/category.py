"""Generic additive-category contract shared by the two hosts.

The quotient, approximation and conflation-class machinery only ever talks
to a host category through this interface, so the same code runs unchanged
on quiver representations and on the category of conflations built on top
of them.  Morphisms are opaque host values; the one structural requirement
is an injective linear coordinate map (`flatten`) per hom-space, which
turns every factorization/exactness question into F_p linear algebra.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from . import fflinalg as ff
from .fflinalg import FpMatrix


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

    def terms(self, cat: "Category"):
        return cat.src(self.incl), cat.dst(self.incl), cat.dst(self.defl)


class Category(ABC):
    """Host-category operations used by the generic machinery.

    Hom-space solving is delegated to `_solve_hom_basis`; the base class
    caches results and decomposes hom-spaces of registered direct sums
    summand-wise, which keeps the linear systems small when approximation
    constructions build large biproducts.
    """

    p: int

    def __init__(self):
        self._hom_cache: dict = {}
        self._sum_registry: dict = {}

    def _register_sum(self, total, summands, injs, projs) -> None:
        # zero summands would alias the total's key and loop the decomposition
        triples = [
            (s, i, p)
            for s, i, p in zip(summands, injs, projs)
            if self.obj_dim(s) > 0
        ]
        if len(triples) > 1:
            self._sum_registry[self.obj_key(total)] = tuple(zip(*triples))

    def hom_basis(self, x, y) -> list:
        ck = (self.obj_key(x), self.obj_key(y))
        cached = self._hom_cache.get(ck)
        if cached is not None:
            return cached
        dst_sum = self._sum_registry.get(ck[1])
        src_sum = self._sum_registry.get(ck[0])
        if dst_sum is not None:
            summands, injs, _ = dst_sum
            basis = [self.compose(inj, h) for s, inj in zip(summands, injs) for h in self.hom_basis(x, s)]
        elif src_sum is not None:
            summands, _, projs = src_sum
            basis = [self.compose(h, proj) for s, proj in zip(summands, projs) for h in self.hom_basis(s, y)]
        else:
            basis = self._solve_hom_basis(x, y)
        self._hom_cache[ck] = basis
        return basis

    @abstractmethod
    def _solve_hom_basis(self, x, y) -> list: ...

    # -- objects ---------------------------------------------------------
    @abstractmethod
    def obj_key(self, x) -> Any: ...

    @abstractmethod
    def obj_dim(self, x) -> int: ...

    @abstractmethod
    def dim_profile(self, x) -> tuple[int, ...]:
        """Componentwise dimension vector; isomorphic objects share it."""

    @abstractmethod
    def obj_label(self, x) -> str: ...

    @abstractmethod
    def zero_obj(self): ...

    def is_zero_obj(self, x) -> bool:
        return self.obj_dim(x) == 0

    @abstractmethod
    def direct_sum(self, xs: Sequence) -> tuple[Any, list, list]:
        """Biproduct with canonical injections and projections."""

    # -- morphisms -------------------------------------------------------
    @abstractmethod
    def flatten(self, f) -> np.ndarray: ...

    @abstractmethod
    def flat_dim(self, x, y) -> int: ...

    @abstractmethod
    def identity(self, x): ...

    @abstractmethod
    def zero_mor(self, x, y): ...

    @abstractmethod
    def compose(self, g, f): ...

    @abstractmethod
    def add(self, f, g): ...

    @abstractmethod
    def neg(self, f): ...

    @abstractmethod
    def scale(self, f, c: int): ...

    @abstractmethod
    def src(self, f): ...

    @abstractmethod
    def dst(self, f): ...

    def sub(self, f, g):
        return self.add(f, self.neg(g))

    def compose_flat(self, g, fs: Sequence, x, y) -> FpMatrix:
        """Matrix whose columns are flatten(g o f) for the morphisms f: x -> y in fs."""
        return span_matrix(self, [self.compose(g, f) for f in fs], x, self.dst(g))

    def precompose_flat(self, fs: Sequence, m, x, y) -> FpMatrix:
        """Matrix whose columns are flatten(f o m) for the morphisms f: x -> y in fs."""
        return span_matrix(self, [self.compose(f, m) for f in fs], self.src(m), y)

    def mor_eq(self, f, g) -> bool:
        return bool(np.array_equal(self.flatten(f), self.flatten(g)))

    @abstractmethod
    def mor_components(self, f) -> list[np.ndarray]:
        """Component matrices; f is invertible iff every component is."""

    def combine(self, basis: Sequence, coeffs: np.ndarray, x, y):
        out = self.zero_mor(x, y)
        for c, b in zip(coeffs, basis):
            if c % self.p:
                out = self.add(out, self.scale(b, int(c)))
        return out

    # -- exact structure ---------------------------------------------------
    @abstractmethod
    def is_inflation(self, f) -> bool: ...

    @abstractmethod
    def is_deflation(self, f) -> bool: ...

    @abstractmethod
    def check_conflation(self, c: Conflation) -> None: ...

    @abstractmethod
    def kernel(self, f) -> tuple[Any, Any]: ...

    @abstractmethod
    def cokernel(self, f) -> tuple[Any, Any]: ...

    @abstractmethod
    def pullback(self, f, g) -> tuple[Any, Any, Any]: ...

    @abstractmethod
    def pushout(self, f, g) -> tuple[Any, Any, Any]: ...

    # -- enumeration -------------------------------------------------------
    @abstractmethod
    def enumerate_subobjects(self, x, bound: int) -> list: ...

    @abstractmethod
    def enumerate_extensions(self, z, x, cap: int) -> list[Conflation]: ...


class Subcategory(ABC):
    """An additive full subcategory with approximation data.

    `ideal_basis` spans the morphisms factoring through the subcategory;
    `precover_conflation`/`preenvelope_conflation` produce, when they exist,
    a conflation 0 -> P1 -> P0 -> x -> 0 (resp. 0 -> x -> Q0 -> Q1 -> 0)
    with both outer terms in the subcategory whose deflation (inflation) is
    a precover (preenvelope).
    """

    def __init__(self, cat: Category, label: str):
        self.cat = cat
        self.label = label
        # (x key, y key) -> hom basis, its coordinate matrix and the coset
        # projection, filled by quotient._coset_projection
        self._coset_cache: dict = {}

    @property
    def is_trivial(self) -> bool:
        """True when the ideal is zero, i.e. the quotient is the host itself."""
        return False

    @abstractmethod
    def ideal_basis(self, x, y) -> list: ...

    def ideal_spanning(self, x, y) -> list:
        """A spanning set of the ideal; may be redundant but cheap."""
        return self.ideal_basis(x, y)

    @abstractmethod
    def is_ideal_member(self, f) -> bool:
        """Does f factor through the subcategory?"""

    @abstractmethod
    def contains(self, x) -> bool: ...

    @abstractmethod
    def precover(self, x): ...

    @abstractmethod
    def preenvelope(self, x): ...

    @abstractmethod
    def precover_conflation(self, x) -> tuple[Optional[Conflation], Optional[str]]: ...

    @abstractmethod
    def preenvelope_conflation(self, x) -> tuple[Optional[Conflation], Optional[str]]: ...

    @abstractmethod
    def is_hom_exact(self, c: Conflation, side: str) -> bool:
        """Exact decision of Hom(sub,-)- resp. Hom(-,sub)-exactness of c."""

    @abstractmethod
    def sample_objects(self, bound: int) -> list: ...


# ---------------------------------------------------------------------------
# generic linear-algebra helpers over hom-spaces
# ---------------------------------------------------------------------------

def span_matrix(cat: Category, mors: Sequence, x, y) -> FpMatrix:
    n = cat.flat_dim(x, y)
    if not mors:
        return FpMatrix.zeros(cat.p, n, 0)
    cols = np.stack([cat.flatten(f) for f in mors], axis=1)
    return ff.from_reduced(cat.p, cols)


def flat_column(cat: Category, f) -> FpMatrix:
    """flatten(f) as a one-column matrix."""
    return ff.from_reduced(cat.p, cat.flatten(f).reshape(-1, 1))


def _solve_combination(cat: Category, cols: FpMatrix, basis: Sequence, g, x, y) -> Optional[Any]:
    """sum c_i basis_i: x -> y for a solution c of cols @ c = flatten(g), or None."""
    sol = ff.solve_right(cols, flat_column(cat, g))
    if sol is None:
        return None
    return cat.combine(basis, sol.a[:, 0], x, y)


def span_basis(cat: Category, mors: Sequence, x, y) -> list:
    """Subset of mors forming a basis of their span: the left-to-right greedy
    choice, which is the set of pivot columns of their coordinate matrix."""
    _, pivots, _ = ff.rref(span_matrix(cat, mors, x, y))
    return [mors[c] for c in pivots]


def solve_precompose(cat: Category, e, g) -> Optional[Any]:
    """u with e o u = g, where e: Y -> Z, g: X -> Z; None if impossible."""
    x, y = cat.src(g), cat.src(e)
    basis = cat.hom_basis(x, y)
    return _solve_combination(cat, cat.compose_flat(e, basis, x, y), basis, g, x, y)


def solve_precompose_pair(cat: Category, e1, g1, e2, g2) -> Optional[Any]:
    """u with e1 o u = g1 and e2 o u = g2 simultaneously, or None."""
    x, y = cat.src(g1), cat.src(e1)
    basis = cat.hom_basis(x, y)
    cols = ff.vstack([cat.compose_flat(e1, basis, x, y), cat.compose_flat(e2, basis, x, y)])
    rhs = ff.vstack([flat_column(cat, g1), flat_column(cat, g2)])
    sol = ff.solve_right(cols, rhs)
    if sol is None:
        return None
    return cat.combine(basis, sol.a[:, 0], x, y)


def solve_postcompose(cat: Category, m, g) -> Optional[Any]:
    """u with u o m = g, where m: X -> Y, g: X -> Z; None if impossible."""
    y, z = cat.dst(m), cat.dst(g)
    basis = cat.hom_basis(y, z)
    return _solve_combination(cat, cat.precompose_flat(basis, m, y, z), basis, g, y, z)


def conflation_split(cat: Category, c: Conflation) -> Optional[tuple[Any, Any]]:
    """(retraction of incl, section of defl) when c splits, else None.

    The two solvabilities are equivalent; both witnesses are returned and
    their consistency asserted.
    """
    a, b, z = c.terms(cat)
    retr = solve_postcompose(cat, c.incl, cat.identity(a))
    sect = solve_precompose(cat, c.defl, cat.identity(z))
    assert (retr is None) == (sect is None)
    if retr is None:
        return None
    return retr, sect


def hom_exact(cat: Category, c: Conflation, t, side: str) -> bool:
    """Is c Hom(t,-)-exact (side='covariant') or Hom(-,t)-exact ('contravariant')?

    Right-exactness is the actual test; left-exactness is automatic and
    asserted as a sanity check.
    """
    a, b, z = c.terms(cat)
    if side == "covariant":
        dom_basis = cat.hom_basis(t, b)
        target_dim = len(cat.hom_basis(t, z))
        rank = cat.compose_flat(c.defl, dom_basis, t, b).rank()
        assert len(cat.hom_basis(t, a)) == len(dom_basis) - rank
        return rank == target_dim
    if side == "contravariant":
        dom_basis = cat.hom_basis(b, t)
        target_dim = len(cat.hom_basis(a, t))
        rank = cat.precompose_flat(dom_basis, c.incl, b, t).rank()
        assert len(cat.hom_basis(z, t)) == len(dom_basis) - rank
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


def find_iso(cat: Category, x, y, cap: int = 4096) -> Optional[Any]:
    """Search an isomorphism x -> y by enumerating the hom-space."""
    if cat.obj_dim(x) != cat.obj_dim(y):
        return None
    mors, exhaustive = enumerate_hom(cat, x, y, cap)
    for f in mors:
        g = solve_precompose(cat, f, cat.identity(y))
        if g is not None and cat.mor_eq(cat.compose(g, f), cat.identity(x)):
            return f
    if not exhaustive:
        raise EnumerationBound("iso search not exhaustive", cap)
    return None
