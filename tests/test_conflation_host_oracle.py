"""The conflation category as representations of Q x A3, against the
degreewise host it replaced.

`ConflCategory` inherits hom solving, kernels, cokernels, direct sums, the
conflation check and the extension glue from `RepCategory` on the product
quiver Q x A3 bound by its relations.  The degreewise constructions it used
to carry are kept here as the oracle: the hom solve over three degrees plus
the differential equations, the kernel and cokernel built degree by degree
with the induced differentials factored through the mono/epi, the direct
sum of the three term sums, the explicit extension system with its
assembly, and the chain-map check.  On the A2 and A3 fixtures at bound 1
and on A2 over F_3 both sides must agree byte for byte, and in the same
order.
"""
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from exactcat import fflinalg as ff
from exactcat.category import Conflation, solve_postcompose, solve_precompose, verify
from exactcat.cli import parse_spec
from exactcat.conflcat import ConflCategory, ConflMor, ConflObj
from exactcat.fflinalg import FpMatrix
from exactcat.repcat import RepCategory, RepMor, a_n, block_triangular, check_squares

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "exactcat" / "fixtures"


# -- the degreewise host, as it was ------------------------------------------------

def degree_columns(x, y, rows):
    """The column slices of rows (flat maps x -> y) holding degrees 1, 2, 3."""
    out, lo = [], 0
    for xt, yt in zip(x.terms(), y.terms()):
        hi = lo + xt.quiver.blocks.size(xt.dimv, yt.dimv)
        out.append(rows[:, lo:hi])
        lo = hi
    return out


def chain_map_defect(x, y, rows):
    """None when every row of rows, a flat map x -> y, is a chain map
    (d_y o f_t = f_(t+1) o d_x for t = 1, 2), else which square fails."""
    b = x.t1.quiver.blocks
    xs, ys = x.terms(), y.terms()
    f = degree_columns(x, y, rows)
    for t, dx, dy, which in ((0, x.d1, y.d1, "first"), (1, x.d2, y.d2, "second")):
        lhs = b.left_stack(dy.vec, f[t], xs[t].dimv, ys[t].dimv, ys[t + 1].dimv)
        rhs = b.right_stack(f[t + 1], dx.vec, xs[t].dimv, xs[t + 1].dimv, ys[t + 1].dimv)
        if ((lhs - rhs) % xs[0].p).any():
            return f"{which} square of the chain map does not commute"
    return None


def degreewise_hom_solve(ecat, x, y):
    """Unknowns per degree and vertex, the arrow squares of each degree and
    the differential squares per vertex."""
    quiver = ecat.base.quiver
    degrees = list(zip(x.terms(), y.terms()))
    system = ff.BlockSystem(ecat.p)
    for t, (xt, yt) in enumerate(degrees, start=1):
        for v in quiver.vertices:
            system.unknown((t, v), yt.dims[v], xt.dims[v])
        for a in quiver.arrows:
            system.equation((1, None, (t, a.dst), xt.maps[a.name].a), (-1, yt.maps[a.name].a, (t, a.src), None))
    for t, xdiff, ydiff in ((1, x.d1, y.d1), (2, x.d2, y.d2)):
        for v in quiver.vertices:
            system.equation((1, ydiff.comp(v).a, (t, v), None), (-1, None, (t + 1, v), xdiff.comp(v).a))
    rows = system.kernel().a.T.copy()
    for (xt, yt), cols in zip(degrees, degree_columns(x, y, rows)):
        check_squares(xt, yt, cols)
    assert chain_map_defect(x, y, rows) is None
    return rows


def degreewise_check_conflation(ecat, c):
    if c.incl.dst.key != c.defl.src.key:
        raise ValueError("conflation: incl.dst != defl.src")
    for d in (0, 1, 2):
        ecat.base.check_conflation(Conflation(c.incl.components()[d], c.defl.components()[d]))


def factor_mono(cat, m, g):
    u = solve_precompose(cat, m, g)
    verify(u is not None, "no factorization through the monomorphism")
    return u


def factor_epi(cat, e, g):
    u = solve_postcompose(cat, e, g)
    verify(u is not None, "no factorization through the epimorphism")
    return u


def degreewise_kernel(ecat, f):
    b = ecat.base
    (_, m1), (_, m2), (_, m3) = [b.kernel(c) for c in f.components()]
    d1 = factor_mono(b, m2, b.compose(f.src.d1, m1))
    d2 = factor_mono(b, m3, b.compose(f.src.d2, m2))
    obj = ecat.make_obj(Conflation(d1, d2))
    return obj, ConflMor(obj, f.src, m1, m2, m3)


def degreewise_cokernel(ecat, f):
    b = ecat.base
    (_, e1), (_, e2), (_, e3) = [b.cokernel(c) for c in f.components()]
    d1 = factor_epi(b, e1, b.compose(e2, f.dst.d1))
    d2 = factor_epi(b, e2, b.compose(e3, f.dst.d2))
    obj = ecat.make_obj(Conflation(d1, d2))
    return obj, ConflMor(f.dst, obj, e1, e2, e3)


def degreewise_direct_sum(ecat, xs):
    b = ecat.base
    t1, i1, p1 = b.direct_sum([x.t1 for x in xs])
    t2, i2, p2 = b.direct_sum([x.t2 for x in xs])
    t3, i3, p3 = b.direct_sum([x.t3 for x in xs])
    d1, d2 = b.zero_mor(t1, t2), b.zero_mor(t2, t3)
    for k, x in enumerate(xs):
        d1 = b.add(d1, b.compose(i2[k], b.compose(x.d1, p1[k])))
        d2 = b.add(d2, b.compose(i3[k], b.compose(x.d2, p2[k])))
    total = ConflObj(ecat.quiver, Conflation(d1, d2))
    injs = [ConflMor(x, total, i1[k], i2[k], i3[k], check=False) for k, x in enumerate(xs)]
    projs = [ConflMor(total, x, p1[k], p2[k], p3[k], check=False) for k, x in enumerate(xs)]
    return total, injs, projs


def degreewise_extensions(ecat, z, x, cap=4096):
    """Glue blocks per arrow and degree, connecting blocks per vertex between
    degrees, and the chain-map and d2 d1 = 0 equations written out."""
    quiver = ecat.base.quiver
    p = ecat.p
    xt, zt = x.terms(), z.terms()
    xd, zd = {1: x.d1, 2: x.d2}, {1: z.d1, 2: z.d2}
    system = ff.BlockSystem(p)
    for t in (1, 2, 3):
        for a in quiver.arrows:
            system.unknown(("e", t, a.name), xt[t - 1].dims[a.dst], zt[t - 1].dims[a.src])
    for t in (1, 2):
        for v in quiver.vertices:
            system.unknown(("c", t, v), xt[t].dims[v], zt[t - 1].dims[v])
    for t in (1, 2):
        for a in quiver.arrows:
            i, j = a.src, a.dst
            system.equation(
                (1, xt[t].maps[a.name].a, ("c", t, i), None),
                (1, None, ("e", t + 1, a.name), zd[t].comp(i).a),
                (-1, xd[t].comp(j).a, ("e", t, a.name), None),
                (-1, None, ("c", t, j), zt[t - 1].maps[a.name].a),
            )
    for v in quiver.vertices:
        system.equation((1, xd[2].comp(v).a, ("c", 1, v), None), (1, None, ("c", 2, v), zd[1].comp(v).a))
    null = system.kernel()
    assert p**null.cols <= cap
    out = []
    for coeffs in product(range(p), repeat=null.cols):
        vec = (null.a @ np.array(coeffs, dtype=np.int64)) % p if null.cols else np.zeros(system.n, dtype=np.int64)
        out.append(assemble_extension(ecat, z, x, system.blocks(vec)))
    return out


def assemble_extension(ecat, z, x, blocks):
    quiver = ecat.base.quiver
    xt, zt = x.terms(), z.terms()
    mids, incs, prjs = [], [], []
    for t in (1, 2, 3):
        glue = {a.name: blocks[("e", t, a.name)] for a in quiver.arrows}
        mid, inc, prj = ecat.base.glued_middle(xt[t - 1], zt[t - 1], glue, check=False)
        mids.append(mid)
        incs.append(inc)
        prjs.append(prj)
    diffs = []
    for t, xdiff, zdiff in ((1, x.d1, z.d1), (2, x.d2, z.d2)):
        comps = {
            v: FpMatrix(ecat.p, block_triangular(xdiff.comp(v).a, blocks[("c", t, v)], zdiff.comp(v).a))
            for v in quiver.vertices
        }
        diffs.append(RepMor(mids[t - 1], mids[t], comps))
    mid_obj = ecat.make_obj(Conflation(diffs[0], diffs[1]))
    c = Conflation(ConflMor(x, mid_obj, *incs), ConflMor(mid_obj, z, *prjs))
    degreewise_check_conflation(ecat, c)
    return c


# -- comparisons ---------------------------------------------------------------------

def fixture_cat(name):
    if name == "a2-f3":
        return RepCategory(a_n(2), 3)
    return parse_spec(str(FIXTURES / f"{name}.json")).cat


def same_mor(f, g):
    return f.src.key == g.src.key and f.dst.key == g.dst.key and f.vec.tobytes() == g.vec.tobytes()


def same_sequence(c, d):
    return same_mor(c.incl, d.incl) and same_mor(c.defl, d.defl)


def extension_mismatch(ecat, pairs):
    """The first pair (z, x) whose extension lists differ, or None."""
    for z, x in pairs:
        try:
            got = ecat.enumerate_extensions(z, x)
        except ValueError:
            return z, x
        want = degreewise_extensions(ecat, z, x)
        if len(got) != len(want) or not all(same_sequence(c, d) for c, d in zip(got, want)):
            return z, x
    return None


CASES = ["a2_base", "a2-f3", "a3_projinj"]
# every pair on A2; on A3, to keep the suite fast, the pairs whose first
# object is among every fourth one.  The full comparison, every pair on all
# three, passes as well.
STRIDE = {"a2_base": 1, "a2-f3": 1, "a3_projinj": 4}


@pytest.fixture(scope="module", params=CASES)
def host(request):
    ecat = ConflCategory(fixture_cat(request.param))
    return request.param, ecat, ecat.enumerate_objects(1)


def test_hom_bases_match_the_degreewise_solve(host):
    """The inherited solve on Q x A3 against the degreewise one, on every
    pair at bound 1: the same rows, byte for byte."""
    _, ecat, objs = host
    for x in objs:
        for y in objs:
            got = RepCategory._solve_hom_basis(ecat, x, y)
            want = degreewise_hom_solve(ecat, x, y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (x, y)


def outcome(construct, f):
    """(object, morphism) of a kernel or cokernel construction, or the
    message of the ValueError refusing it: the vertex-wise kernel of a chain
    map need not have exact rows, and then there is no conflation."""
    try:
        return construct(f)
    except ValueError as exc:
        return str(exc)


def test_kernels_cokernels_and_sums_match_the_degreewise_ones(host):
    """Kernels and cokernels of every hom-basis chain map, and the direct
    sum of every pair, are the degreewise ones; where the rows of a kernel
    or cokernel are not exact, both refuse it alike."""
    name, ecat, objs = host
    built = refused = 0
    for x in objs[:: STRIDE[name]]:
        for y in objs:
            for f in ecat.hom_basis(x, y):
                for new, old in ((ecat.kernel, degreewise_kernel), (ecat.cokernel, degreewise_cokernel)):
                    got, want = outcome(new, f), outcome(lambda g: old(ecat, g), f)
                    if isinstance(want, str):
                        assert got == want
                        refused += 1
                        continue
                    (k_new, m_new), (k_old, m_old) = got, want
                    assert isinstance(k_new, ConflObj) and isinstance(m_new, ConflMor)
                    assert k_new.key == k_old.key and same_mor(m_new, m_old)
                    built += 1
            (s_new, i_new, p_new), (s_old, i_old, p_old) = ecat.direct_sum([x, y]), degreewise_direct_sum(ecat, [x, y])
            assert s_new.key == s_old.key
            assert all(same_mor(f, g) for f, g in zip(i_new + p_new, i_old + p_old))
    assert built > 0 and refused > 0


def test_extension_lists_match_the_explicit_system(host):
    """The glue enumeration bound by the relations yields the extensions of
    the explicit degreewise system, in the same order."""
    name, ecat, objs = host
    pairs = [(z, x) for z in objs[:: STRIDE[name]] for x in objs]
    assert extension_mismatch(ecat, pairs) is None


@pytest.mark.parametrize("dropped", range(4))
def test_dropping_a_relation_is_detected(dropped):
    """Mutation check of the comparison: the A2 host without one of its four
    relations no longer reproduces the explicit extension system."""
    ecat = ConflCategory(fixture_cat("a2_base"))
    assert len(ecat.relations) == 4
    objs = ecat.enumerate_objects(1)
    ecat.relations = ecat.relations[:dropped] + ecat.relations[dropped + 1 :]
    assert extension_mismatch(ecat, [(z, x) for z in objs for x in objs]) is not None


def test_a_broken_chain_map_square_is_rejected():
    """Both checks reject a map that fails either chain-map square, and an
    object whose differential is no base morphism is refused."""
    base = RepCategory(a_n(2), 3)
    ecat = ConflCategory(base)
    p1 = base.obj({"1": 1, "2": 1}, {"a1": FpMatrix(3, [[1]])})
    s1 = base.obj({"1": 1})
    x = ecat.split_obj(s1, p1)
    ids = [base.identity(t) for t in x.terms()]
    zeros = [base.zero_mor(t, t) for t in x.terms()]
    for comps, which in (((ids[0], zeros[1], zeros[2]), "d1"), ((zeros[0], zeros[1], ids[2]), "d2")):
        bad = ConflMor(x, x, *comps, check=False)
        assert chain_map_defect(x, x, bad.vec[None, :]) is not None
        with pytest.raises(ValueError, match=rf"arrow {which}\("):
            ConflMor(x, x, *comps)
    maps = dict(x.maps)
    maps["d1(1)"] = FpMatrix(3, [[0], [1]])  # into P1: d1 no longer commutes with a1
    with pytest.raises(ValueError, match="commuting-square"):
        ecat.obj(x.dims, maps)
