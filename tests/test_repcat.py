import numpy as np
import pytest

from exactcat import fflinalg as ff
from exactcat.category import (
    EnumerationBound,
    conflation_split,
    enumerate_hom,
    find_iso,
    hom_exact,
    solve_postcompose,
    solve_precompose,
)
from exactcat.conflcat import ConflCategory, conflation_quiver
from exactcat.fflinalg import FpMatrix
from exactcat.repcat import Arrow, Quiver, RepCategory, RepMor, RepObj, a_n, op_conflation, opposite, square_defect


def test_hom_dims_a2(a2):
    cat, o = a2
    assert len(cat.hom_basis(o["P1"], o["S1"])) == 1
    assert len(cat.hom_basis(o["S1"], o["P1"])) == 0
    assert len(cat.hom_basis(o["S2"], o["P1"])) == 1
    assert len(cat.hom_basis(o["P1"], o["S2"])) == 0


def test_identity_in_hom_span(a3):
    cat, o = a3
    for x in o.values():
        basis = cat.hom_basis(x, x)
        flat = np.stack([f.vec for f in basis], axis=1)
        target = cat.identity(x).vec
        assert ff.solve_right(FpMatrix(2, flat), FpMatrix(2, target.reshape(-1, 1))) is not None


def test_kernel_of_identity_is_zero(a2):
    cat, o = a2
    k_obj, _ = cat.kernel(cat.identity(o["P1"]))
    assert k_obj.total_dim == 0


def test_kernel_of_deflation_is_sub(a2):
    cat, o = a2
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    k_obj, k = cat.kernel(pi)
    assert k_obj.dimv == o["S2"].dimv
    assert find_iso(cat, k_obj, o["S2"]) is not None
    assert cat.compose(pi, k).is_zero()


def test_cokernel_of_inflation_is_quotient(a2):
    cat, o = a2
    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    c_obj, c, _ = cat.cokernel(iota)
    assert find_iso(cat, c_obj, o["S1"]) is not None
    assert cat.compose(c, iota).is_zero()


def test_kernel_universal_property_exhaustive(a2):
    cat, o = a2
    objs = list(o.values())
    for x in objs:
        for y in objs:
            for f in enumerate_hom(cat, x, y)[0]:
                k_obj, k = cat.kernel(f)
                for t in objs:
                    basis = cat.hom_basis(t, k_obj)
                    if basis:
                        # uniqueness: post-composition with the kernel
                        # inclusion is injective on Hom(t, K)
                        cols = np.stack([cat.compose(k, b).vec for b in basis], axis=1)
                        assert FpMatrix(2, cols).rank() == len(basis)
                    for g in enumerate_hom(cat, t, x)[0]:
                        if not cat.compose(f, g).is_zero():
                            continue
                        h = solve_precompose(cat, k, g)
                        assert h is not None, "morphism killed by f must factor through the kernel"


def test_pullback_along_identity(a2):
    cat, o = a2
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    p_obj, p1, p2 = cat.pullback(pi, cat.identity(o["S1"]))
    assert find_iso(cat, p_obj, o["P1"]) is not None


def test_pushout_along_identity(a2):
    cat, o = a2
    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    p_obj, i1, i2 = cat.pushout(iota, cat.identity(o["S2"]))
    assert find_iso(cat, p_obj, o["P1"]) is not None


# -- pullback, pushout and image: the generic constructions of Category -------

def _a3_objects(p):
    """The six indecomposable representations of A3 over F_p."""
    cat = RepCategory(a_n(3), p)
    one = FpMatrix(p, [[1]])
    return cat, {
        "P1": cat.obj({"1": 1, "2": 1, "3": 1}, {"a1": one, "a2": one}, name="P1"),
        "P2": cat.obj({"2": 1, "3": 1}, {"a2": one}, name="P2"),
        "S3": cat.obj({"3": 1}, name="S3"),
        "S1": cat.obj({"1": 1}, name="S1"),
        "I2": cat.obj({"1": 1, "2": 1}, {"a1": one}, name="I2"),
        "S2": cat.obj({"2": 1}, name="S2"),
    }


def _limit_cases(host, p):
    """(cat, (f, g) sharing a target, (f, g) sharing a source, test objects).

    For the pullback f is a deflation and g is nonzero, for the pushout f is
    an inflation and g is nonzero, so the comparison legs g o p2 and i2 o g
    are nonzero and the sign of -g shows at p = 3.  On the conflation host f
    is the split precover (resp. preenvelope) of the nonsplit conflation
    S2 -> P1 -> S1 of A2, as in the quotient's kernels and cokernels.
    """
    if host == "rep":
        cat, o = _a3_objects(p)
        pb = (cat.hom_basis(o["P1"], o["S1"])[0], cat.hom_basis(o["I2"], o["S1"])[0])
        po = (cat.hom_basis(o["P2"], o["P1"])[0], cat.hom_basis(o["P2"], o["S2"])[0])
        return cat, pb, po, list(o.values())
    base = RepCategory(a_n(2), p)
    one = FpMatrix(p, [[1]])
    p1 = base.obj({"1": 1, "2": 1}, {"a1": one}, name="P1")
    s1, s2, zero = base.obj({"1": 1}, name="S1"), base.obj({"2": 1}, name="S2"), base.zero_obj()
    ecat = ConflCategory(base)
    n = ecat.make_obj(base.conflation(base.hom_basis(s2, p1)[0], base.hom_basis(p1, s1)[0]), name="N")
    w = ecat.split_obj(s2, s1)
    g_in, g_out = ecat.hom_basis(w, n), ecat.hom_basis(n, w)
    pb = (ecat.split_sub.precover(n), ecat.combine(g_in, np.ones(len(g_in)), w, n))
    po = (ecat.split_sub.preenvelope(n), ecat.combine(g_out, np.ones(len(g_out)), n, w))
    tests = [n, w] + [ecat.split_obj(a, c) for a, c in ((zero, s1), (s2, zero), (zero, p1), (s1, s2))]
    return ecat, pb, po, tests


def _exhaustive_hom(cat, x, y):
    mors, exhaustive = enumerate_hom(cat, x, y)
    assert exhaustive
    return mors


def _vertexwise_pullback(cat, f, g):
    """The former RepCategory.pullback, kept as the reference: per vertex the
    kernel of [f_v | -g_v], the arrow maps induced from x (+) y."""
    x, y = f.src, g.src
    bases, p1c, p2c = {}, {}, {}
    for v in cat.quiver.vertices:
        k = ff.kernel_basis(ff.hstack([f.comp(v), -g.comp(v)]))
        bases[v] = k
        p1c[v] = FpMatrix(cat.p, k.a[: x.dims[v], :])
        p2c[v] = FpMatrix(cat.p, k.a[x.dims[v] :, :])
    maps = {}
    for a in cat.quiver.arrows:
        diag = ff.block_diag([x.maps[a.name], y.maps[a.name]], cat.p)
        maps[a.name] = ff.solve_right(bases[a.dst], diag @ bases[a.src])
    pobj = RepObj(cat.quiver, cat.p, {v: bases[v].cols for v in cat.quiver.vertices}, maps)
    return pobj, RepMor(pobj, x, p1c), RepMor(pobj, y, p2c)


def _vertexwise_pushout(cat, f, g):
    """The former RepCategory.pushout, kept as the reference: per vertex the
    quotient of y_v (+) z_v by the span of [f_v; -g_v]."""
    y, z = f.dst, g.dst
    projs, lifts = {}, {}
    for v in cat.quiver.vertices:
        stacked = ff.vstack([f.comp(v), -g.comp(v)])
        projs[v], lifts[v] = ff.quotient_space(cat.p, y.dims[v] + z.dims[v], stacked)
    maps = {}
    for a in cat.quiver.arrows:
        diag = ff.block_diag([y.maps[a.name], z.maps[a.name]], cat.p)
        maps[a.name] = projs[a.dst] @ diag @ lifts[a.src]
    pobj = RepObj(cat.quiver, cat.p, {v: projs[v].rows for v in cat.quiver.vertices}, maps)
    i1c = {v: FpMatrix(cat.p, projs[v].a[:, : y.dims[v]]) for v in cat.quiver.vertices}
    i2c = {v: FpMatrix(cat.p, projs[v].a[:, y.dims[v] :]) for v in cat.quiver.vertices}
    return pobj, RepMor(y, pobj, i1c), RepMor(z, pobj, i2c)


def _same_limit(got, want):
    return got[0].key == want[0].key and all(a.vec.tobytes() == b.vec.tobytes() for a, b in zip(got[1:], want[1:]))


LIMIT_CASES = [pytest.param(host, p, id=f"{host}-p{p}") for host in ("rep", "confl") for p in (2, 3)]


@pytest.mark.parametrize("host, p", LIMIT_CASES)
def test_pullback_square_and_factorization_oracle(host, p):
    cat, (f, g), _, tests = _limit_cases(host, p)
    x, y = f.src, g.src
    pb, p1, p2 = cat.pullback(f, g)
    assert cat.mor_eq(cat.compose(f, p1), cat.compose(g, p2))
    assert cat.compose(g, p2).vec.any()
    if host == "rep":
        assert _same_limit((pb, p1, p2), _vertexwise_pullback(cat, f, g))
    # every commuting cone from a test object factors through <p1, p2>, and
    # there are exactly as many cones as maps into the pullback: uniquely
    xy, _, _ = cat.direct_sum([x, y])
    legs = cat.stack([p1, p2], xy)
    for t in tests:
        cones = [
            cat.stack([g1, g2], xy)
            for g1 in _exhaustive_hom(cat, t, x)
            for g2 in _exhaustive_hom(cat, t, y)
            if cat.mor_eq(cat.compose(f, g1), cat.compose(g, g2))
        ]
        assert len(cones) == p ** len(cat.hom_basis(t, pb))
        assert all(solve_precompose(cat, legs, c) is not None for c in cones)


@pytest.mark.parametrize("host, p", LIMIT_CASES)
def test_pushout_square_and_factorization_oracle(host, p):
    cat, _, (f, g), tests = _limit_cases(host, p)
    y, z = f.dst, g.dst
    po, i1, i2 = cat.pushout(f, g)
    assert cat.mor_eq(cat.compose(i1, f), cat.compose(i2, g))
    assert cat.compose(i2, g).vec.any()
    if host == "rep":
        assert _same_limit((po, i1, i2), _vertexwise_pushout(cat, f, g))
    yz, _, _ = cat.direct_sum([y, z])
    legs = cat.costack([i1, i2], yz)
    for t in tests:
        cocones = [
            cat.costack([h1, h2], yz)
            for h1 in _exhaustive_hom(cat, y, t)
            for h2 in _exhaustive_hom(cat, z, t)
            if cat.mor_eq(cat.compose(h1, f), cat.compose(h2, g))
        ]
        assert len(cocones) == p ** len(cat.hom_basis(po, t))
        assert all(solve_postcompose(cat, legs, c) is not None for c in cocones)


@pytest.mark.parametrize("host", ["rep", "confl"])
def test_pullback_and_pushout_refuse_unmatched_ends(host):
    cat, (f, _), (h, _), _ = _limit_cases(host, 3)
    with pytest.raises(ValueError, match="share a target"):
        cat.pullback(f, cat.identity(f.src))
    with pytest.raises(ValueError, match="share a source"):
        cat.pushout(h, cat.identity(h.dst))


def _same_span(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    rank = ff.array_rank(a, p)
    return rank == ff.array_rank(b, p) == ff.array_rank(np.hstack([a, b]), p)


def _assert_image(cat, f, comps):
    """cat.image(f) spans, in every block, the column space of f's block
    (the old column-space image took the pivot columns of f's block); its
    inclusion is mono and f factors through it."""
    _, m = cat.image(f)
    assert all(_same_span(a, b, cat.p) for a, b in zip(comps(m), comps(f)))
    assert cat.is_inflation(m)
    assert solve_precompose(cat, m, f) is not None


@pytest.mark.parametrize("p", [2, 3])
def test_image_is_the_column_space(p):
    cat, o = _a3_objects(p)
    objs = list(o.values()) + [cat.direct_sum([o["P1"], o["I2"]])[0]]
    for x in objs:
        for y in objs:
            for f in _exhaustive_hom(cat, x, y):
                _assert_image(cat, f, cat.mor_components)


@pytest.mark.parametrize("p", [2, 3])
def test_confl_image_and_subobject_tops(p):
    cat, _, (beta, _), tests = _limit_cases("confl", p)
    base = cat.base
    for x in tests + [beta.dst]:
        for u in cat.enumerate_subobjects(x):
            # the top term of a subobject is the image of its middle term
            _, u2, m = u.components()
            top = base.compose(x.d2, u2)
            assert all(_same_span(a, b, p) for a, b in zip(base.mor_components(m), base.mor_components(top)))
            # a monomorphism is its own image; a deflation's image is its target
            _assert_image(cat, u, cat.mor_components)
    for c in cat.enumerate_extensions(tests[1], tests[0]):
        _assert_image(cat, c.defl, cat.mor_components)


def test_split_detection(a2):
    cat, o = a2
    total, injs, projs = cat.direct_sum([o["S2"], o["S1"]])
    split = cat.conflation(injs[0], projs[1])
    found = conflation_split(cat, split)
    assert found is not None
    retr, sect = found
    assert cat.mor_eq(cat.compose(retr, split.incl), cat.identity(o["S2"]))
    assert cat.mor_eq(cat.compose(split.defl, sect), cat.identity(o["S1"]))

    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    assert conflation_split(cat, cat.conflation(iota, pi)) is None

    degenerate = cat.conflation(cat.identity(o["P1"]), cat.zero_mor(o["P1"], cat.zero_obj()))
    assert conflation_split(cat, degenerate) is not None


def test_hom_exact_examples(a2):
    cat, o = a2
    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    s = cat.conflation(iota, pi)
    assert hom_exact(cat, s, o["P1"], "covariant")
    assert hom_exact(cat, s, o["P1"], "contravariant")
    assert not hom_exact(cat, s, o["S1"], "covariant")
    total, injs, projs = cat.direct_sum([o["S2"], o["S1"]])
    split = cat.conflation(injs[0], projs[1])
    for t in o.values():
        assert hom_exact(cat, split, t, "covariant")
        assert hom_exact(cat, split, t, "contravariant")


def test_enumerate_subobjects_examples(a3):
    cat, o = a3
    subs = cat.enumerate_subobjects(o["P2"])
    assert len(subs) == 3
    profiles = sorted(m.src.dimv for m in subs)
    assert profiles == [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
    assert len(cat.enumerate_subobjects(cat.zero_obj())) == 1
    assert len(cat.enumerate_subobjects(o["S1"])) == 2


def test_enumerate_subobjects_bound_refusal(a3):
    cat, o = a3
    big = cat.direct_sum([o["P1"]] * 3)[0]
    with pytest.raises(EnumerationBound) as exc:
        cat.enumerate_subobjects(big, bound=8)
    assert exc.value.required == 9


def euler_form(cat, z, x):
    total = sum(z.dims[v] * x.dims[v] for v in cat.quiver.vertices)
    for a in cat.quiver.arrows:
        total -= z.dims[a.src] * x.dims[a.dst]
    return total


def count_extension_classes(cat, exts):
    """Oracle: count equivalence classes of extensions by direct search."""
    classes = []
    for s in exts:
        matched = False
        for rep in classes:
            # equivalence: a middle iso commuting with both legs
            from exactcat.category import solve_precompose_pair

            phi = _extension_equiv(cat, s, rep)
            if phi is not None:
                matched = True
                break
        if not matched:
            classes.append(s)
    return len(classes)


def _extension_equiv(cat, s, t):
    import numpy as np

    from exactcat.fflinalg import FpMatrix

    y1, y2 = s.incl.dst, t.incl.dst
    basis = cat.hom_basis(y1, y2)
    cols = [
        np.concatenate(
            [cat.compose(h, s.incl).vec, cat.compose(t.defl, h).vec]
        )
        for h in basis
    ]
    rhs = np.concatenate([t.incl.vec, s.defl.vec])
    if not cols:
        return None
    sol = ff.solve_right(FpMatrix(cat.p, np.stack(cols, 1)), FpMatrix(cat.p, rhs.reshape(-1, 1)))
    if sol is None:
        return None
    phi = cat.combine(basis, sol.a[:, 0], y1, y2)
    # such a comparison map is automatically an isomorphism
    return phi


def test_enumerate_extensions_matches_ext_dimension(a2):
    cat, o = a2
    # dim Ext(S1, S2) = 1: two classes, split plus the nonsplit one
    exts = cat.enumerate_extensions(o["S1"], o["S2"])
    assert len(exts) == 2
    ext_dim = len(cat.hom_basis(o["S1"], o["S2"])) - euler_form(cat, o["S1"], o["S2"])
    assert ext_dim == 1
    assert count_extension_classes(cat, exts) == 2**ext_dim
    split_flags = sorted(conflation_split(cat, s) is not None for s in exts)
    assert split_flags == [False, True]

    # no arrow back: extensions of S2 by S1 all split
    exts = cat.enumerate_extensions(o["S2"], o["S1"])
    assert len(exts) == 1
    assert conflation_split(cat, exts[0]) is not None

    # extensions by the zero object: the unique 0 -> x -> x -> 0 -> 0
    exts = cat.enumerate_extensions(cat.zero_obj(), o["P1"])
    assert len(exts) == 1
    assert exts[0].defl.dst.total_dim == 0


def test_enumerate_extensions_class_count_a3(a3):
    cat, o = a3
    for zn, xn in [("S1", "P2"), ("I2", "S3"), ("S1", "I2"), ("S1", "S2")]:
        z, x = o[zn], o[xn]
        exts = cat.enumerate_extensions(z, x)
        ext_dim = len(cat.hom_basis(z, x)) - euler_form(cat, z, x)
        assert count_extension_classes(cat, exts) == 2**ext_dim


def test_direct_sum_biproduct_identities(a2):
    cat, o = a2
    total, injs, projs = cat.direct_sum([o["P1"], o["S2"]])
    assert total.dimv == (1, 2)
    for i, inj in enumerate(injs):
        for j, proj in enumerate(projs):
            comp = cat.compose(proj, inj)
            if i == j:
                assert cat.mor_eq(comp, cat.identity(inj.src))
            else:
                assert comp.is_zero()
    acc = cat.zero_mor(total, total)
    for inj, proj in zip(injs, projs):
        acc = cat.add(acc, cat.compose(inj, proj))
    assert cat.mor_eq(acc, cat.identity(total))
    with_zero = cat.direct_sum([o["P1"], cat.zero_obj()])[0]
    assert with_zero.key == o["P1"].key


def test_hom_exact_matches_sum_closure(a2):
    cat, o = a2
    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    s = cat.conflation(iota, pi)
    g = o["P1"]
    assert hom_exact(cat, s, g, "covariant")
    # closure: exactness for g gives exactness for finite sums of copies
    for k in (2, 3):
        power = cat.direct_sum([g] * k)[0]
        assert hom_exact(cat, s, power, "covariant")


def test_opposite_transport(a3, a3_nonsplit):
    cat, o = a3
    opcat = opposite(cat)
    s = a3_nonsplit
    op_s = op_conflation(opcat, s)
    opcat.check_conflation(op_s)
    assert conflation_split(opcat, op_s) is None
    # dimensions swap ends
    assert op_s.incl.src.dimv == s.defl.dst.dimv


# kA3/rad^2: the path a1 then a2 is zero
RAD2 = [(1, "a1", "a2")]


def satisfies(x, relation):
    """Does the representation x satisfy the relation (its signed paths sum to zero)?"""
    total = sum(sign * (x.maps[beta].a @ x.maps[alpha].a) for sign, alpha, beta in relation)
    return not (total % x.p).any()


def test_bound_quiver_extensions_are_the_free_ones_satisfying_the_relations():
    """Over kA3/rad^2 (F_2) the glue system bound by the relation yields
    exactly the free host's middles that satisfy it, in the same order, on
    every pair of bound-1 ends that satisfy it."""
    free = RepCategory(a_n(3), 2)
    bound = RepCategory(Quiver(free.quiver.vertices, free.quiver.arrows, (RAD2,)), 2)
    ends = [x for x in free.enumerate_objects(1) if satisfies(x, RAD2)]
    assert len(ends) == 12
    middles = 0
    for z in ends:
        for x in ends:
            got = [c.incl.dst.key for c in bound.enumerate_extensions(z, x)]
            want = [c.incl.dst.key for c in free.enumerate_extensions(z, x) if satisfies(c.incl.dst, RAD2)]
            assert got == want
            middles += len(got)
    assert middles == 241


def test_relations_are_paths_of_the_quiver_and_reverse_in_the_opposite():
    q = a_n(3)
    with pytest.raises(ValueError, match="parallel paths"):
        Quiver(q.vertices, q.arrows, ([(1, "a2", "a1")],))
    with pytest.raises(ValueError, match="parallel paths"):
        Quiver(q.vertices, q.arrows + (Arrow("b", "2", "1"),), ([(1, "a1", "a2"), (1, "a1", "b")],))
    assert opposite(RepCategory(Quiver(q.vertices, q.arrows, (RAD2,)))).quiver.relations == (((1, "a2", "a1"),),)


def test_the_conflation_quiver_carries_its_relations_and_the_base_ones():
    """d_t a = a d_t per arrow and degree pair, d2 d1 = 0 per vertex, and
    the relations of the base in each of the three degrees."""
    q = a_n(3)
    assert len(conflation_quiver(q).relations) == 2 * len(q.arrows) + len(q.vertices)
    bound = Quiver(q.vertices, q.arrows, (RAD2,))
    assert conflation_quiver(bound).relations[-3:] == tuple(((1, f"a1@{t}", f"a2@{t}"),) for t in (1, 2, 3))


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def a2_rep(draw, max_dim=2):
    d1 = draw(st.integers(0, max_dim))
    d2 = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.integers(0, 1), min_size=d1 * d2, max_size=d1 * d2))
    return d1, d2, entries


@given(a2_rep(), a2_rep())
@settings(max_examples=40, deadline=None)
def test_random_morphisms_respect_rank_nullity(r1, r2):
    cat = RepCategory(a_n(2), 2)

    def build(r):
        d1, d2, entries = r
        m = FpMatrix(2, np.array(entries, dtype=np.int64).reshape(d2, d1))
        return cat.obj({"1": d1, "2": d2}, {"a1": m})

    x, y = build(r1), build(r2)
    for f in cat.hom_basis(x, y):
        k_obj, k = cat.kernel(f)
        c_obj, c, _ = cat.cokernel(f)
        assert cat.compose(f, k).is_zero()
        assert cat.compose(c, f).is_zero()
        for v in cat.quiver.vertices:
            rank = f.comp(v).rank()
            assert k_obj.dims[v] == x.dims[v] - rank
            assert c_obj.dims[v] == y.dims[v] - rank


def test_cyclic_quiver_supported():
    from exactcat.repcat import Quiver, Arrow

    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    cat = RepCategory(q, 2)
    x = cat.obj({"1": 1, "2": 1}, {"a": FpMatrix(2, [[1]]), "b": FpMatrix(2, [[1]])})
    assert len(cat.hom_basis(x, x)) >= 1
    k_obj, _ = cat.kernel(cat.identity(x))
    assert k_obj.total_dim == 0


@pytest.mark.parametrize(
    "order, failing",
    [(("e", "f", "g"), "f"), (("g", "e", "f"), "g"), (("e", "f"), "f"), (("e",), None)],
)
def test_square_defect_names_the_first_failing_square_past_empty_ones(order, failing):
    # e: 1 -> 2 has an empty square (x_1 = 0); f: 2 -> 3 and g: 3 -> 2 both
    # fail for a map with different components at 2 and 3
    ends = {"e": ("1", "2"), "f": ("2", "3"), "g": ("3", "2")}
    q = Quiver(("1", "2", "3"), tuple(Arrow(n, *ends[n]) for n in order))
    one = FpMatrix(2, [[1]])
    x = RepObj(q, 2, {"2": 1, "3": 1}, {n: one for n in order if n != "e"})
    y = RepObj(q, 2, {"1": 1, "2": 1, "3": 1}, {n: one for n in order})
    good, bad = [1, 1], [1, 0]  # flat x -> y: the 1 x 0 block, then phi_2, phi_3
    assert square_defect(x, y, np.array([good], dtype=np.int64)) is None
    want = None if failing is None else f"arrow {failing}: commuting-square law violated"
    assert square_defect(x, y, np.array([good, bad], dtype=np.int64)) == want
    assert square_defect(x, y, np.zeros((0, 2), dtype=np.int64)) is None


def _square_defect_every_arrow(x, y, rows):
    """square_defect before empty squares were skipped: every arrow, in order."""
    k = rows.shape[0]
    mats = {
        v: rows[:, o : o + r * c].reshape(k, r, c)
        for v, (o, r, c) in zip(x.quiver.vertices, x.quiver.blocks.layout(x.dimv, y.dimv)[0])
    }
    for a in x.quiver.arrows:
        diff = mats[a.dst] @ x.maps[a.name].a - y.maps[a.name].a @ mats[a.src]
        if (diff % x.p).any():
            return f"arrow {a.name}: commuting-square law violated"
    return None


@given(st.sampled_from(ff.SUPPORTED_PRIMES), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_square_defect_matches_every_arrow_oracle(p, seed):
    # four vertices, six arrows (loops and parallel arrows allowed), dims in
    # 0..2 so that empty squares sit among non-empty ones; the zero rows pass
    rng = np.random.default_rng(seed)
    vs = ("1", "2", "3", "4")
    q = Quiver(vs, tuple(Arrow(f"a{i}", *rng.choice(vs, 2)) for i in range(6)))

    def rep():
        dims = {v: int(rng.integers(0, 3)) for v in vs}
        maps = {a.name: FpMatrix(p, rng.integers(0, p, size=(dims[a.dst], dims[a.src]))) for a in q.arrows}
        return RepObj(q, p, dims, maps)

    x, y = rep(), rep()
    n = q.blocks.size(x.dimv, y.dimv)
    rows = rng.integers(0, p, size=(int(rng.integers(0, 4)), n)) * (rng.random((1, 1)) < 0.8)
    assert square_defect(x, y, rows) == _square_defect_every_arrow(x, y, rows)
