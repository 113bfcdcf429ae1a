"""Two conflation classes decided by exhaustive subobject search.

A conflation is in class S when some subobject of its first term produces,
by taking quotients, a grid whose middle column is covariantly hom-exact
for the subcategory and whose bottom row is contravariantly hom-exact;
class T is the dual, driven by a quotient of the last term.  The unknown
subobject determines the entire grid by quotients, so searching all
subobjects of the first term decides membership outright within the
enumeration bound; that completeness argument is what turns the diagram
condition into a decision procedure.

Both searches read the subobjects of a term, each with its cokernel and
that cokernel's vertexwise section, from one memo on the category
(`subobject_quotients`), so a term is enumerated once however many
conflations start or end at it.  The row of a class-S grid is induced on
the quotients in closed form: with sections l1 of c1 and l2 of c2,
m = (c2 a) l1 and n = b l2, the unique maps with m c1 = c2 a and n c2 = b
(c1 and c2 are epimorphisms).  Each is checked to be a morphism that
factors its map; no hom-space is solved for them.

The crosscheck harness ties the classes to the quotient's abelianness:
the subcategory is self-orthogonal for class S over a bounded universe of
extensions exactly when the bounded abelianness sweep passes.  It works on
glue rows (`RepCategory.extension_glues`): every cocycle of a pair is
counted, the split ones are decided from the glue by the coboundary test
(`RepCategory.split_glues`, a checked preimage under the coboundary map for
a split row, a checked functional that separates a nonsplit row from the
coboundaries), and only a nonsplit row gets a middle term, built and
checked (`RepCategory.glued_extension`), and a class-S search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .approx import AddSubcat, is_pseudo_cluster_tilting
from .category import (
    Category,
    Conflation,
    Subcategory,
    solve_precompose_pair,
    verify,
)
from .fflinalg import memo
from .quotient import VerifyReport, verify_abelian
from .repcat import square_defect


@dataclass
class ClassWitness:
    """The reducing subobject/quotient with the two derived conflations."""

    kind: str  # "S" or "T"
    reducer: object  # the subobject inclusion (S) or test quotient kernel inclusion (T)
    column: Conflation
    row: Conflation
    grid: dict

    def validate(self, sub: Subcategory) -> None:
        # is_hom_exact checks that column and row are conflations
        cat = sub.cat
        for name, (lhs, rhs) in self.grid.items():
            verify(cat.mor_eq(lhs, rhs), f"witness grid square {name} does not commute")
        covariant, contravariant = (self.column, self.row) if self.kind == "S" else (self.row, self.column)
        verify(sub.is_hom_exact(covariant, "covariant"), f"class {self.kind} witness: not Hom(sub, -)-exact")
        verify(sub.is_hom_exact(contravariant, "contravariant"), f"class {self.kind} witness: not Hom(-, sub)-exact")


@dataclass
class ClassSearch:
    member: Optional[ClassWitness]
    examined: list[tuple[str, bool, bool]] = field(default_factory=list)

    @property
    def is_member(self) -> bool:
        return self.member is not None


@memo(key=lambda x, bound: (x.key, bound))
def subobject_quotients(cat: Category, x, bound: int) -> list[tuple]:
    """(u, M, c, section) for every subobject u: U -> x, in enumeration
    order: the cokernel c: x -> M of u and its vertexwise section
    (`RepCategory.cokernel`).  Both searches read it, once per term and
    bound on the category; the bound is part of the key, so a bound the
    enumeration refuses is refused on every call."""
    return [(u, *cat.cokernel(u)) for u in cat.enumerate_subobjects(x, bound)]


def _through_epi(cat: Category, g, c, section: np.ndarray):
    """The h with h o c = g, for the cokernel c: x -> M of a map that g
    kills, given c's vertexwise section: h = g o section, vertex by vertex,
    unique because c is an epimorphism.  h is checked to be a morphism
    that factors g."""
    m = c.dst
    vec = cat.blocks.compose(g.vec, section, m.dimv, c.src.dimv, g.dst.dimv, cat.p)
    vec.setflags(write=False)
    h = cat._mor(m, g.dst, vec)
    verify(
        square_defect(m, g.dst, vec[None, :]) is None and cat.mor_eq(cat.compose(h, c), g),
        "class S search: the quotient maps do not factor",
    )
    return h


def in_class_s(s: Conflation, sub: Subcategory, bound: int = 8) -> ClassSearch:
    """Search all subobjects of the first term for a reducing grid.

    Absence is a decision, not a heuristic: every membership diagram is
    generated by such a subobject.  The row's maps are induced on the
    quotients in closed form from the cokernels' sections.
    """
    cat = sub.cat
    s1, s2, s3 = s.terms()
    a, b = s.incl, s.defl
    result = ClassSearch(member=None)
    for u, _, c1, section1 in subobject_quotients(cat, s1, bound):
        au = cat.compose(a, u)
        _, c2, section2 = cat.cokernel(au)
        column = Conflation(au, c2)
        m = _through_epi(cat, cat.compose(c2, a), c1, section1)
        n = _through_epi(cat, b, c2, section2)
        row = Conflation(m, n)
        # is_hom_exact checks that column and row are conflations
        col_ok = sub.is_hom_exact(column, "covariant")
        row_ok = sub.is_hom_exact(row, "contravariant")
        result.examined.append((u.src.label, col_ok, row_ok))
        if col_ok and row_ok:
            witness = ClassWitness(
                kind="S",
                reducer=u,
                column=column,
                row=row,
                grid={
                    "subobject-killed-by-deflation": (cat.compose(b, au), cat.zero_mor(u.src, s3)),
                    "first-quotient-square": (cat.compose(m, c1), cat.compose(c2, a)),
                    "second-quotient-square": (cat.compose(n, c2), b),
                },
            )
            witness.validate(sub)
            result.member = witness
            return result
    return result


def in_class_t(s: Conflation, sub: Subcategory, bound: int = 8) -> ClassSearch:
    """Dual search over quotients of the last term (via their kernels)."""
    cat = sub.cat
    t1, t2, t3 = s.terms()
    a, b = s.incl, s.defl
    result = ClassSearch(member=None)
    for w, v_obj, cv, _ in subobject_quotients(cat, t3, bound):
        n3_obj = w.src
        n2_obj, n_mor, q_mor = cat.pullback(b, w)
        t_mor = solve_precompose_pair(
            cat, n_mor, a, q_mor, cat.zero_mor(t1, n3_obj)
        )
        verify(t_mor is not None, "class T search: the first term does not factor through the pullback")
        row = Conflation(t_mor, q_mor)
        column = Conflation(n_mor, cat.compose(cv, b))
        # is_hom_exact checks that row and column are conflations
        row_ok = sub.is_hom_exact(row, "covariant")
        col_ok = sub.is_hom_exact(column, "contravariant")
        result.examined.append((v_obj.label, col_ok, row_ok))
        if col_ok and row_ok:
            witness = ClassWitness(
                kind="T",
                reducer=w,
                column=column,
                row=row,
                grid={
                    "kernel-into-middle": (cat.compose(n_mor, t_mor), a),
                    "pullback-square": (cat.compose(b, n_mor), cat.compose(w, q_mor)),
                    "column-vanishing": (
                        cat.compose(column.defl, n_mor),
                        cat.zero_mor(n2_obj, v_obj),
                    ),
                },
            )
            witness.validate(sub)
            result.member = witness
            return result
    return result


@dataclass
class CrosscheckReport:
    self_orthogonal_wrt_s: bool
    abelian: VerifyReport
    consistent: bool
    conflations_examined: int
    in_subcat_pairs: int
    nonsplit_members: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.consistent and not self.failures


def abelianness_crosscheck(
    sub: Subcategory,
    sample: Sequence,
    bound: int = 5,
    subobject_bound: int = 8,
    cap: int = 4096,
    seed: Optional[int] = None,
) -> CrosscheckReport:
    """Self-orthogonality w.r.t. class S over bounded extensions vs abelianness.

    Verdict A: every enumerated conflation between bounded subcategory
    objects that lies in class S splits.  Verdict B: the bounded
    regular-implies-iso sweep passes.  The two must agree.  Every cocycle
    counts as examined; only the nonsplit ones (`split_glues`) get a middle
    and a class-S search.
    """
    cat = sub.cat
    universe = sub.sample_objects(bound)
    verdict_a = True
    examined = 0
    pairs = 0
    nonsplit_members: list[str] = []
    failures: list[str] = []
    for z in universe:
        for x in universe:
            if z.total_dim + x.total_dim > bound:
                continue
            pairs += 1
            glues, rows = cat.extension_glues(z, x, cap)
            examined += len(rows)
            if not (sub.contains(x) and sub.contains(z)):
                continue
            # a split conflation cannot falsify verdict A: only the nonsplit
            # glues get a middle
            for i, row in enumerate(rows[~cat.split_glues(z, x, rows)]):
                s = cat.glued_extension(z, x, glues, row, check_pair=i == 0)
                search = in_class_s(s, sub, subobject_bound)
                if search.is_member:
                    verdict_a = False
                    nonsplit_members.append(
                        f"nonsplit class-S conflation with subcategory ends: "
                        f"{x.label} -> {z.label}"
                    )
    abelian = verify_abelian(sub, sample, cap=cap, seed=seed)
    consistent = verdict_a == abelian.passed
    if not consistent:
        failures.append(
            f"class-S self-orthogonality ({verdict_a}) disagrees with abelianness ({abelian.passed})"
        )
    return CrosscheckReport(
        self_orthogonal_wrt_s=verdict_a,
        abelian=abelian,
        consistent=consistent,
        conflations_examined=examined,
        in_subcat_pairs=pairs,
        nonsplit_members=nonsplit_members,
        failures=failures,
    )


@dataclass
class RandomSearchReport:
    counterexample_found: bool
    tried: int
    detail: str


def random_crosscheck_search(
    cat: Category,
    candidate_objects: Sequence,
    sample: Sequence,
    tries: int = 20,
    seed: int = 0,
    cap: int = 4096,
) -> RandomSearchReport:
    """Randomized hunt for a pseudo-cluster-tilting subcategory with
    non-abelian quotient; a negative outcome is reported as such, never as
    a theorem."""
    rng = np.random.default_rng(seed)
    pool = list(candidate_objects)
    tried = 0
    for _ in range(tries):
        if not pool:
            break
        k = int(rng.integers(1, min(len(pool), 4) + 1))
        idx = sorted(rng.choice(len(pool), size=k, replace=False).tolist())
        gens = [pool[i] for i in idx]
        sub = AddSubcat(cat, gens, label="R")
        pct = is_pseudo_cluster_tilting(sub, sample)
        if not pct.passed:
            continue
        tried += 1
        verdict = verify_abelian(sub, sample, cap=cap, seed=seed)
        if not verdict.passed:
            return RandomSearchReport(
                counterexample_found=True,
                tried=tried,
                detail=f"non-abelian quotient for generators {[g.label for g in gens]}",
            )
    return RandomSearchReport(
        counterexample_found=False,
        tried=tried,
        detail=f"no counterexample found ({tried} pseudo-cluster-tilting candidates tried)",
    )
