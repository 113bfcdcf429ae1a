"""Additive subcategories add(G) and their approximation theory.

A subcategory is presented by finitely many generators and is implicitly
closed under finite sums and summands.  Precovers and preenvelopes, the
two conflation conditions (a precover deflation with kernel in the
subcategory, dually a preenvelope inflation with cokernel in it),
pseudo-cluster-tilting verdicts and self-orthogonality tests all live here
and are generic over the host category; the factorization ideal is
derived from the precover on `category.Subcategory`.  `AddSubcat`
memoizes (`fflinalg.memo`) what it builds per object and per conflation,
except the preenvelope: its one caller, the preenvelope conflation, is kept.

The precover of x is built from a generating set of Hom(add G, x) as a
right End(add G)-module, picked pivot-greedily from the hom bases, not from
the whole bases; membership, ideal membership, the ideal's spanning sets
and the precover conflation all run on it, so they solve systems sized by
that generating set.  The preenvelope is still the coevaluation of the
whole bases of Hom(x, G_i).

`AddSubcat` also plans the pads of the quotient's block-completion iso
search: the generator multisets, keyed by their iso profile (the dimension
vector, then dim Hom(G_i, -) and dim Hom(-, G_i) per generator), an
additive invariant that isomorphic objects share.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from . import fflinalg as ff
from .category import (
    Category,
    ConditionError,
    Conflation,
    Subcategory,
    conflation_key,
    conflation_split,
    hom_exact,
    solve_precompose,
    span_matrix,
    verify,
)
from .fflinalg import memo, obj_key


class AddSubcat(Subcategory):
    """add(G) for a finite generator list G_1,...,G_k of any host category."""

    def __init__(self, cat: Category, generators: Sequence, label: str = "P"):
        super().__init__(cat, label)
        self.generators = list(generators)
        sums = self.generators if self.generators else [cat.zero_obj()]
        self.sum, self._sum_injs, self._sum_projs = cat.direct_sum(sums)

    @property
    def is_trivial(self) -> bool:
        # add(G) is zero exactly when the sum of G is, however many zero
        # generators name it
        return self.sum.total_dim == 0

    # -- approximations ------------------------------------------------------
    @memo(key=obj_key)
    def precover(self, x):
        """One generator copy per element of a generating set of Hom(add G, x)
        as a right End(add G)-module, chosen pivot-greedily.

        For each generator g in order, the maps g -> x already reached are
        the composites h o e of the pieces h: g_j -> x chosen so far with
        e in Hom(g, g_j).  The next piece is the first basis element of
        Hom(g, x) whose pivot in one elimination of [reached | basis] falls
        past the reached block; its composites with End(g) join the reached
        ones.  When dim End(g) = 1 those composites are the line through the
        piece, so every such pivot is taken at once: one at a time would
        pick the same ones.  The elimination that finds no new pivot proves
        that every map g -> x factors through the pieces, so every map from
        add(G) to x factors through their costack, a precover
        (Auslander-Smalo, "Preprojective modules over Artin algebras",
        J. Algebra 1980).  Its source is never larger than the evaluation
        of the whole hom bases.
        """
        cat = self.cat
        pieces, mors = [], []
        for g in self.generators:
            basis = cat.hom_basis(g, x)
            if not basis:
                continue
            brick = len(cat.hom_basis(g, g)) == 1
            reached = [
                cat.compose_flat(h, cat.hom_basis(g, g_j), g, g_j)
                for g_j, h in zip(pieces, mors)
                if cat.hom_basis(g, g_j)
            ]
            candidates = span_matrix(cat, basis, g, x)
            while True:
                done = sum(m.cols for m in reached)
                _, pivots, _ = ff.rref(ff.hstack(reached + [candidates]))
                new = [c - done for c in pivots if c >= done]
                picked = new if brick else new[:1]
                pieces += [g] * len(picked)
                mors += [basis[c] for c in picked]
                if brick or not new:
                    break
                reached.append(cat.compose_flat(mors[-1], cat.hom_basis(g, g), g, g))
        if not pieces:
            return cat.zero_mor(cat.zero_obj(), x)
        power, _, _ = cat.direct_sum(pieces)
        return cat.costack(mors, power)

    def preenvelope(self, x):
        """Canonical coevaluation: one generator copy per Hom(x, G_i) basis element."""
        cat = self.cat
        pieces, mors = [], []
        for g in self.generators:
            for h in cat.hom_basis(x, g):
                pieces.append(g)
                mors.append(h)
        if not pieces:
            return cat.zero_mor(x, cat.zero_obj())
        power, _, _ = cat.direct_sum(pieces)
        return cat.stack(mors, power)

    # -- ideal -------------------------------------------------------------
    # defined once on Subcategory; aliased here because Tracer.install
    # (perfbench/layertrace.py) wraps only what the traced class itself defines
    ideal_basis = Subcategory.ideal_basis
    is_ideal_member = Subcategory.is_ideal_member

    @memo(key=obj_key)
    def contains(self, x) -> bool:
        """x in add(G), i.e. the precover of x is a split deflation (id_x
        factors through add(G) iff through the precover); decided once per
        object."""
        if x.total_dim == 0:
            return True
        cat = self.cat
        return solve_precompose(cat, self.precover(x), cat.identity(x)) is not None

    @memo(key=obj_key)
    def precover_conflation(self, x) -> tuple[Optional[Conflation], Optional[str]]:
        """0 -> K -> G^n -> x -> 0 with K in add(G), when it exists.

        Decided on the generating-set precover beta: if any epi precover
        exists, beta is epi (the epi factors through it).  The kernels of
        any two epi precovers agree up to add(G)-summands (Schanuel): for
        epi precovers b: P -> x and b': P' -> x, the pullback of b and b'
        is an extension of P' by ker b, split because b' factors through
        the precover b, and likewise an extension of P by ker b'.  So
        ker b (+) P' = ker b' (+) P, and ker b lies in add(G) exactly when
        ker b' does: testing the kernel of beta decides the condition,
        whichever generating set was picked.
        """
        cat = self.cat
        beta = self.precover(x)
        if not cat.is_deflation(beta):
            return None, f"canonical precover of {x.label} is not a deflation"
        k_obj, k_mor = cat.kernel(beta)
        if not self.contains(k_obj):
            return None, f"kernel of the canonical precover of {x.label} is not in add({self.label})"
        return Conflation(k_mor, beta), None

    @memo(key=obj_key)
    def preenvelope_conflation(self, x) -> tuple[Optional[Conflation], Optional[str]]:
        """0 -> x -> G^m -> C -> 0 with C in add(G), when it exists."""
        cat = self.cat
        alpha = self.preenvelope(x)
        if not cat.is_inflation(alpha):
            return None, f"canonical preenvelope of {x.label} is not an inflation"
        c_obj, c_mor, _ = cat.cokernel(alpha)
        if not self.contains(c_obj):
            return None, f"cokernel of the canonical preenvelope of {x.label} is not in add({self.label})"
        return Conflation(alpha, c_mor), None

    # testing against the generator sum covers every object of add(G);
    # each conflation is decided once per side
    @memo(key=lambda c, side: (conflation_key(c), side))
    def is_hom_exact(self, c: Conflation, side: str) -> bool:
        self.cat.check_conflation(c)
        return hom_exact(self.cat, c, self.sum, side)

    @memo
    def multiset_sum(self, ms: tuple):
        """The sum of the generators indexed by the multiset ms (a sorted
        index tuple, see generator_multisets), built at most once."""
        cat, gens = self.cat, self.generators
        return cat.direct_sum([gens[i] for i in ms])[0] if ms else cat.zero_obj()

    def iso_profile(self, x) -> tuple:
        """An additive isomorphism invariant of x: its dimension vector, then
        dim Hom(G_i, x) and then dim Hom(x, G_i) for each generator G_i.
        Isomorphic objects share it, and the profile of a direct sum is the
        sum of the profiles, because Hom is additive in each argument."""
        cat, gens = self.cat, self.generators
        return (
            *x.dimv,
            *(len(cat.hom_basis(g, x)) for g in gens),
            *(len(cat.hom_basis(x, g)) for g in gens),
        )

    @memo
    def block_plan(self, extra_dim_cap: int) -> tuple[list, dict]:
        """The pads of the block-completion iso search, built once per cap.

        Returns (order, by_profile): order lists (multiset, iso profile)
        for every generator multiset of total dimension <= extra_dim_cap,
        by total dimension and then multiset; by_profile maps an iso
        profile to its multisets in generator_multisets order.  A
        multiset's profile is the sum of its generators' profiles, so only
        the generators' own hom bases are read.  The sums themselves are
        built lazily by multiset_sum."""
        gens = self.generators
        gen_profiles = [self.iso_profile(g) for g in gens]
        zero = (0,) * (len(self.cat.zero_obj().dimv) + 2 * len(gens))
        multisets = generator_multisets([g.total_dim for g in gens], extra_dim_cap)
        profile = {ms: tuple(map(sum, zip(zero, *(gen_profiles[i] for i in ms)))) for ms in multisets}
        by_profile: dict = {}
        for ms in multisets:
            by_profile.setdefault(profile[ms], []).append(ms)
        order = sorted(multisets, key=lambda ms: (sum(gens[i].total_dim for i in ms), ms))
        return [(ms, profile[ms]) for ms in order], by_profile

    def sample_objects(self, bound: int) -> list:
        """Multiset sums of generators with total dimension <= bound."""
        out = [self.multiset_sum(ms) for ms in generator_multisets([g.total_dim for g in self.generators], bound)]
        seen, uniq = set(), []
        for o in out:
            k = o.key
            if k not in seen:
                seen.add(k)
                uniq.append(o)
        uniq.sort(key=lambda o: (o.total_dim, o.key))
        return uniq


# ---------------------------------------------------------------------------
# module-level operations (generic over Subcategory)
# ---------------------------------------------------------------------------

def generator_multisets(dims: Sequence[int], cap: int) -> list[tuple[int, ...]]:
    """Every multiset of generator indices whose dims sum to at most cap, as
    a sorted index tuple: the empty one first, then depth-first.  Zero
    generators are left out: they add no new sum, and would make the walk
    endless."""
    out = [()]
    stack = [((), 0, 0)]
    while stack:
        ms, start, dim = stack.pop()
        for i in range(start, len(dims)):
            d = dim + dims[i]
            if dims[i] and d <= cap:
                nxt = ms + (i,)
                out.append(nxt)
                stack.append((nxt, i, d))
    return out


def extend_to_inflation(f, sub: Subcategory) -> tuple[Conflation, Any]:
    """Conflation 0 -> X -> Y (+) Q -> Z -> 0 around f: X -> Y, Hom(-,sub)-exact.

    Requires the preenvelope conflation at X; returns the conflation and the
    canonical injection Y -> Y (+) Q.
    """
    cat = sub.cat
    x, y = f.src, f.dst
    up, reason = sub.preenvelope_conflation(x)
    if up is None:
        raise ConditionError("preenvelope-conflation", x.label, reason or "")
    alpha = up.incl
    q0 = alpha.dst
    _, (iy, iq), _ = cat.direct_sum([y, q0])
    m = cat.add(cat.compose(iy, f), cat.neg(cat.compose(iq, alpha)))
    verify(cat.is_inflation(m), "extend_to_inflation: (f; -preenvelope) is not an inflation")
    z_obj, c, _ = cat.cokernel(m)
    confl = Conflation(m, c)
    # is_hom_exact checks that confl is a conflation
    verify(sub.is_hom_exact(confl, "contravariant"), "extend_to_inflation: the conflation is not Hom(-, sub)-exact")
    return confl, iy


def extend_to_deflation(f, sub: Subcategory) -> tuple[Conflation, Any]:
    """Conflation 0 -> K -> Y (+) P -> Z -> 0 around f: Y -> Z, Hom(sub,-)-exact."""
    cat = sub.cat
    y, z = f.src, f.dst
    down, reason = sub.precover_conflation(z)
    if down is None:
        raise ConditionError("precover-conflation", z.label, reason or "")
    beta = down.defl
    p0 = beta.src
    _, (iy, ip), (py, pp) = cat.direct_sum([y, p0])
    d = cat.add(cat.compose(f, py), cat.compose(beta, pp))
    verify(cat.is_deflation(d), "extend_to_deflation: (f | precover) is not a deflation")
    k_obj, k = cat.kernel(d)
    confl = Conflation(k, d)
    # is_hom_exact checks that confl is a conflation
    verify(sub.is_hom_exact(confl, "covariant"), "extend_to_deflation: the conflation is not Hom(sub, -)-exact")
    return confl, iy


@dataclass
class ConditionReport:
    """Per-object verdicts for the two conflation conditions on a testset."""

    sub_label: str
    passed: bool
    testset_labels: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    note: str = (
        "verdict relative to the listed testset; maximality of the subcategory "
        "is not verified"
    )


def is_pseudo_cluster_tilting(sub: Subcategory, testset: Sequence) -> ConditionReport:
    """Both conflation conditions at every object of the testset.

    The verdict is testset-relative: the host category has infinitely many
    objects, so this is evidence at the stated bound, not a universal claim.
    """
    report = ConditionReport(sub_label=sub.label, passed=True)
    for x in testset:
        lab = x.label
        report.testset_labels.append(lab)
        down, down_reason = sub.precover_conflation(x)
        up, up_reason = sub.preenvelope_conflation(x)
        if down is None:
            report.passed = False
            report.failures.append(f"{lab}: precover condition: {down_reason}")
        if up is None:
            report.passed = False
            report.failures.append(f"{lab}: preenvelope condition: {up_reason}")
        if down is not None and up is not None:
            report.witnesses[lab] = (down, up)
    return report


@dataclass
class OrthogonalityReport:
    passed: bool
    checked: int
    witness: Optional[Conflation] = None


def is_self_orthogonal(sub: Subcategory, conflations: Sequence[Conflation]) -> OrthogonalityReport:
    """Does every listed conflation with both end terms in the subcategory split?"""
    cat = sub.cat
    checked = 0
    for c in conflations:
        a, _, z = c.terms()
        if not (sub.contains(a) and sub.contains(z)):
            continue
        checked += 1
        if conflation_split(cat, c) is None:
            return OrthogonalityReport(passed=False, checked=checked, witness=c)
    return OrthogonalityReport(passed=True, checked=checked)
