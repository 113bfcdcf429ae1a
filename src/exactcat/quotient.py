"""The additive quotient of a host category by a subcategory ideal.

Morphism classes are host morphisms modulo the span of maps factoring
through the subcategory.  Kernels come from pulling back along a precover
deflation, cokernels from pushing out along a preenvelope inflation; the
engine re-verifies the universal properties instead of assuming them, and
the semi-abelian / abelian certificates sweep entire hom-spaces.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Optional, Sequence

import numpy as np

from . import fflinalg as ff
from .approx import extend_to_inflation
from .category import (
    Category,
    ConditionError,
    Subcategory,
    enumerate_hom,
    flat_column,
    span_matrix,
    verify,
)
from .fflinalg import memo, obj_key

ENUM_CAP = 4096


@dataclass
class QMor:
    """A quotient-category morphism, carried by a chosen host representative."""

    sub: Subcategory
    rep: Any

    @property
    def cat(self) -> Category:
        return self.sub.cat

    @property
    def src(self):
        return self.rep.src

    @property
    def dst(self):
        return self.rep.dst


@dataclass
class QHomSpace:
    dim: int
    hom_dim: int
    ideal_dim: int


def qhom(sub: Subcategory, x, y) -> QHomSpace:
    """Dimension of Hom(x,y) modulo the ideal."""
    cat = sub.cat
    hom = cat.hom_basis(x, y)
    ideal = sub.ideal_basis(x, y)
    if not hom:
        return QHomSpace(0, 0, 0)
    # pivot-greedy: the ideal basis, then each hom basis element not in the
    # span of the ideal and of the ones chosen before it
    _, pivots, _ = ff.rref(span_matrix(cat, list(ideal) + list(hom), x, y))
    ideal_dim = sum(1 for c in pivots if c < len(ideal))
    # the ideal lies in Hom(x,y), so the pivots must be exactly dim Hom(x,y) many
    verify(len(pivots) == len(hom), f"qhom: {len(pivots)} pivots for a {len(hom)}-dimensional hom-space")
    return QHomSpace(len(hom) - ideal_dim, len(hom), ideal_dim)


def _qmor_key(f: QMor) -> tuple:
    """The memo key of a quotient morphism: its two object keys and its
    representative's bytes.  A sweep asks for the same kernels, cokernels
    and zero tests many times (q_coim_im builds them, then the mono and epi
    tests and the next sweep ask again)."""
    return (f.src.key, f.dst.key, f.rep.vec.tobytes())


def q_is_zero(f: QMor) -> bool:
    return _is_zero(f.sub, f)


@memo(key=_qmor_key)
def _is_zero(sub: Subcategory, f: QMor) -> bool:
    return sub.is_ideal_member(f.rep)


@memo(key=obj_key)
def _coset_projection(sub: Subcategory, x, y):
    """(hom basis, flat hom matrix, coset projection matrix), memoized on sub."""
    cat = sub.cat
    hom = cat.hom_basis(x, y)
    hmat = span_matrix(cat, hom, x, y)
    # the hom coordinates of every ideal element, one column each
    mat = ff.solve_right(hmat, span_matrix(cat, sub.ideal_spanning(x, y), x, y))
    verify(mat is not None, "coset projection: an ideal element lies outside its hom-space")
    proj, _ = ff.quotient_space(cat.p, len(hom), mat)
    return hom, hmat, proj


def q_class_key(f: QMor) -> bytes:
    """Canonical key of the ideal coset of f (for memoizing class-invariant verdicts)."""
    cat = f.cat
    hom, hmat, proj = _coset_projection(f.sub, f.src, f.dst)
    coords = ff.solve_right(hmat, flat_column(cat, f.rep))
    verify(coords is not None, "class key: a morphism lies outside its hom-space basis")
    return (proj @ coords).key


def q_is_iso(f: QMor) -> Optional[QMor]:
    """Inverse class of f, solving g o f = id and f o g = id modulo the ideal.

    One linear system over Hom(Y,X) coordinates plus ideal coordinates at
    both endpoints.
    """
    cat, sub = f.cat, f.sub
    x, y = f.src, f.dst
    basis = cat.hom_basis(y, x)
    # columns (flatten(h o f); flatten(f o h)) for h in the basis, then the
    # ideal spanning sets of End(x) and End(y) in their own blocks
    hom_cols = ff.vstack([cat.precompose_flat(basis, f.rep, y, x), cat.compose_flat(f.rep, basis, y, x)])
    ideal_cols = ff.block_diag(
        [span_matrix(cat, sub.ideal_spanning(x, x), x, x), span_matrix(cat, sub.ideal_spanning(y, y), y, y)],
        cat.p,
    )
    rhs = ff.vstack([flat_column(cat, cat.identity(x)), flat_column(cat, cat.identity(y))])
    sol = ff.solve_right(ff.hstack([hom_cols, ideal_cols]), rhs)
    if sol is None:
        return None
    g = cat.combine(basis, sol.a[: len(basis), 0], y, x)
    return QMor(sub, g)


@dataclass
class BlockWitness:
    """An invertible completion [[f, b], [c, d]] : X (+) P -> Y (+) Q."""

    pad_src: Any  # P, a sum of generators
    pad_dst: Any  # Q, a sum of generators
    total: Any  # the completed host morphism X(+)P -> Y(+)Q
    inverse: Any


def q_is_iso_blocksearch(f: QMor, extra_dim_cap: int = 6, combo_cap: int = 4096) -> Optional[BlockWitness]:
    """Independent iso test: search an invertible block completion of f.

    f is invertible in the quotient iff some [[f,b],[c,d]] with the pads P,Q
    in the subcategory is invertible in the host.  The pads range over
    generator multisets of total dimension <= extra_dim_cap, and Q only over
    those with profile(Q) = profile(X) + profile(P) - profile(Y), for the iso
    profile of `AddSubcat.iso_profile`: an invertible completion is an
    isomorphism X (+) P -> Y (+) Q, and isomorphic objects have equal
    profiles, so a pair left out has no invertible completion.  For each
    pair the p^n choices of (b,c,d), n the number of basis maps placed, are
    enumerated only when p^n <= combo_cap.
    The multisets, their profiles and the search order are planned once
    per subcategory and cap (`AddSubcat.block_plan`), and each pad is built
    at most once per subcategory (`AddSubcat.multiset_sum`); a skipped pair
    assembles nothing.
    A returned witness is unconditionally sound.  None is not a proof that
    f is not invertible: it means that no completion was found among the
    pad pairs searched, and a pair with p^n > combo_cap is skipped silently.
    """
    sub = f.sub
    if not hasattr(sub, "generators"):
        raise ValueError("block search needs a finitely generated subcategory")
    px, py = sub.iso_profile(f.src), sub.iso_profile(f.dst)
    order, by_profile = sub.block_plan(extra_dim_cap)
    for p_ms, p_profile in order:
        need = tuple(a + b - c for a, b, c in zip(px, p_profile, py))
        if any(v < 0 for v in need):
            continue
        for q_ms in by_profile.get(need, []):
            w = _try_block_completion(f, sub.multiset_sum(p_ms), sub.multiset_sum(q_ms), combo_cap)
            if w is not None:
                return w
    return None


def _try_block_completion(f: QMor, p_obj, q_obj, combo_cap) -> Optional[BlockWitness]:
    """The first invertible [[f, b], [c, d]]: X (+) P -> Y (+) Q, or None.

    (b, c, d) = sum of coefficients times the bases of Hom(P, Y), Hom(X, Q)
    and Hom(P, Q).  The size test p^n > combo_cap reads only the lengths of
    the three bases, so a skipped pair assembles no rows.  Every block is
    written straight into the flat map X (+) P -> Y (+) Q; all p^n
    coefficient tuples are tested one vertex component at a time, each in
    one batched elimination, and the witness is the first tuple
    (lexicographic) at which every component is invertible.  The two sums
    are built only for a witness.
    """
    cat = f.cat
    p, blocks = cat.p, cat.blocks
    x, y = f.src, f.dst
    homs = (cat.hom_basis(p_obj, y), cat.hom_basis(x, q_obj), cat.hom_basis(p_obj, q_obj))
    n = sum(map(len, homs))
    if p**n > combo_cap:
        return None
    # square component by component: the pads balance the dimension vectors
    src = tuple(a + b for a, b in zip(x.dimv, p_obj.dimv))  # X (+) P
    dst = tuple(a + b for a, b in zip(y.dimv, q_obj.dimv))  # Y (+) Q
    at0 = (0,) * len(src)
    # (rows, source summand, target summand, where the two start)
    corners = [
        (f.rep.vec[None, :], x.dimv, y.dimv, at0, at0),
        (homs[0].rows, p_obj.dimv, y.dimv, x.dimv, at0),
        (homs[1].rows, x.dimv, q_obj.dimv, at0, y.dimv),
        (homs[2].rows, p_obj.dimv, q_obj.dimv, x.dimv, y.dimv),
    ]
    # row 0 is f, rows 1..n the placed basis maps b, c, d
    placed = np.zeros((n + 1, blocks.size(src, dst)), dtype=np.int64)
    lo = 0
    for rows, s, t, s_at, t_at in corners:
        placed[lo : lo + len(rows), blocks.corner_positions(s, t, src, dst, s_at, t_at)] = rows
        lo += len(rows)
    base, lifted = placed[0], placed[1:]
    coeffs = _coefficient_tuples(p, n)
    alive = np.arange(len(coeffs))
    for o, r, _ in blocks.layout(src, dst)[0]:
        if r == 0:
            continue
        comp = slice(o, o + r * r)
        # necessary conditions: the column (row) span over all completions
        # must already be full
        span = placed[:, comp].reshape(n + 1, r, r)
        if ff.array_rank(span.transpose(1, 0, 2).reshape(r, -1), p) < r or ff.array_rank(span.reshape(-1, r), p) < r:
            return None
        stack = coeffs[alive] @ lifted[:, comp] + base[comp]
        stack %= p
        alive = alive[ff.invertible_stack(stack.reshape(-1, r, r), p)]
        if not alive.size:
            return None
    vec = coeffs[alive[0]] @ lifted + base
    vec %= p
    vec.setflags(write=False)
    total = cat._mor(cat.direct_sum([x, p_obj])[0], cat.direct_sum([y, q_obj])[0], vec)
    inv = _two_sided_inverse(cat, total)
    verify(inv is not None, "block search: a componentwise invertible completion has no two-sided inverse")
    return BlockWitness(p_obj, q_obj, total, inv)


@lru_cache(maxsize=None)
def _coefficient_tuples(p: int, n: int) -> np.ndarray:
    """Every coefficient tuple of F_p^n, one row each, in lexicographic
    order, read-only; built once per (p, n), and the block search asks only
    for p^n <= combo_cap."""
    coeffs = np.arange(p**n)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    coeffs.setflags(write=False)
    return coeffs


def _two_sided_inverse(cat: Category, f) -> Optional[Any]:
    from .category import solve_precompose

    x, y = f.src, f.dst
    if x.total_dim != y.total_dim:
        return None
    g = solve_precompose(cat, f, cat.identity(y))
    if g is None or not cat.mor_eq(cat.compose(g, f), cat.identity(x)):
        return None
    return g


def q_kernel(f: QMor) -> QMor:
    """Kernel class: pull f back along a precover deflation of its target.

    With a zero ideal the quotient is the host itself, so the host kernel
    is the kernel.  Memoized per morphism on the subcategory.
    """
    return _kernel(f.sub, f)


@memo(key=_qmor_key)
def _kernel(sub: Subcategory, f: QMor) -> QMor:
    cat = sub.cat
    if sub.is_trivial:
        _, k = cat.kernel(f.rep)
        return QMor(sub, k)
    y = f.dst
    down, reason = sub.precover_conflation(y)
    if down is None:
        raise ConditionError("precover-conflation", y.label, reason or "")
    _, k, _ = cat.pullback(f.rep, down.defl)
    return QMor(sub, k)


def q_cokernel(f: QMor) -> QMor:
    """Cokernel class: deflation of the preenvelope-extended conflation at
    the source.  Memoized per morphism on the subcategory."""
    return _cokernel(f.sub, f)


@memo(key=_qmor_key)
def _cokernel(sub: Subcategory, f: QMor) -> QMor:
    cat = sub.cat
    if sub.is_trivial:
        _, c, _ = cat.cokernel(f.rep)
        return QMor(sub, c)
    confl, iy = extend_to_inflation(f.rep, sub)
    return QMor(sub, cat.compose(confl.defl, iy))


@dataclass
class CoimImData:
    hat: QMor
    kernel: QMor
    cokernel: QMor
    coim: Any
    im: Any
    coim_proj: QMor  # X -> Coim
    im_incl: QMor  # Im -> Y
    unique: bool


def q_coim_im(f: QMor) -> CoimImData:
    """The canonical mediating class Coim f -> Im f, with uniqueness verified."""
    cat, sub = f.cat, f.sub
    k = q_kernel(f)
    coim_proj = q_cokernel(QMor(sub, k.rep))
    c = q_cokernel(f)
    im_incl = q_kernel(QMor(sub, c.rep))
    coim = coim_proj.dst
    im = im_incl.src
    x, y = f.src, f.dst
    basis = cat.hom_basis(coim, im)
    # columns: im_incl o h o coim_proj for h in the basis, then the ideal of Hom(x, y)
    through = [cat.compose(im_incl.rep, cat.compose(h, coim_proj.rep)) for h in basis]
    mat = span_matrix(cat, through + list(sub.ideal_spanning(x, y)), x, y)
    sol = ff.solve_right(mat, flat_column(cat, f.rep))
    verify(sol is not None, "coimage-image: no mediating morphism Coim f -> Im f")
    hat = cat.combine(basis, sol.a[: len(basis), 0], coim, im)
    # uniqueness modulo the ideal: every nullspace direction in the hat
    # coordinates must itself be an ideal element of Hom(Coim, Im)
    null = ff.kernel_basis(mat)
    unique = True
    for j in range(null.cols):
        delta = cat.combine(basis, null.a[: len(basis), j], coim, im)
        if not sub.is_ideal_member(delta):
            unique = False
            break
    return CoimImData(
        hat=QMor(sub, hat),
        kernel=k,
        cokernel=c,
        coim=coim,
        im=im,
        coim_proj=coim_proj,
        im_incl=im_incl,
        unique=unique,
    )


def q_is_mono(f: QMor) -> bool:
    return q_is_zero(q_kernel(f))


def q_is_epi(f: QMor) -> bool:
    return q_is_zero(q_cokernel(f))


@dataclass
class VerifyReport:
    passed: bool
    checked: int
    sampled: bool
    failures: list[str] = field(default_factory=list)
    pair_count: int = 0

    @property
    def verdict(self) -> str:
        if not self.passed:
            return "fail"
        return "sampled-pass" if self.sampled else "pass"


def _sweep_classes(sub: Subcategory, sample: Sequence, cap: int, seed: Optional[int], decide) -> VerifyReport:
    """Enumerate the morphisms between sample objects and decide each quotient class once.

    decide(qf) returns a failure message or None; verdicts are
    coset-invariant, so a class already decided is only counted.
    """
    cat = sub.cat
    rng = np.random.default_rng(seed) if seed is not None else None
    report = VerifyReport(passed=True, checked=0, sampled=False, pair_count=len(sample) ** 2)
    seen: set = set()
    for x in sample:
        for y in sample:
            mors, exhaustive = enumerate_hom(cat, x, y, cap, rng)
            report.sampled = report.sampled or not exhaustive
            for m in mors:
                qf = QMor(sub, m)
                report.checked += 1
                key = (x.key, y.key, q_class_key(qf))
                if key in seen:
                    continue
                seen.add(key)
                failure = decide(qf)
                if failure is not None:
                    report.passed = False
                    report.failures.append(failure)
    return report


def _mor_label(f: QMor) -> str:
    return f"{f.src.label} -> {f.dst.label}"


def verify_semiabelian(sub: Subcategory, sample: Sequence, cap: int = ENUM_CAP, seed: Optional[int] = None) -> VerifyReport:
    """Every mediating class over the sample is both monic and epic."""

    def decide(qf: QMor) -> Optional[str]:
        data = q_coim_im(qf)
        if data.unique and q_is_mono(data.hat) and q_is_epi(data.hat):
            return None
        return f"mediating class of {_mor_label(qf)} is not regular"

    return _sweep_classes(sub, sample, cap, seed, decide)


def iso_agreement_sweep(sub: Subcategory, sample: Sequence, cap: int = ENUM_CAP, seed: Optional[int] = None) -> VerifyReport:
    """Two-sided-inverse solving vs block-completion search, every morphism.

    The two isomorphism tests are independent decision paths; they must
    agree on the whole enumerated hom-space of every sample pair.
    """

    def decide(qf: QMor) -> Optional[str]:
        solved = q_is_iso(qf) is not None
        searched = q_is_iso_blocksearch(qf) is not None
        if solved == searched:
            return None
        return f"iso tests disagree on {_mor_label(qf)} (solver {solved}, block search {searched})"

    return _sweep_classes(sub, sample, cap, seed, decide)


def verify_abelian(sub: Subcategory, sample: Sequence, cap: int = ENUM_CAP, seed: Optional[int] = None) -> VerifyReport:
    """Every regular class over the sample is invertible."""

    def decide(qf: QMor) -> Optional[str]:
        if not (q_is_mono(qf) and q_is_epi(qf)) or q_is_iso(qf) is not None:
            return None
        return f"regular non-invertible class {_mor_label(qf)}"

    return _sweep_classes(sub, sample, cap, seed, decide)
