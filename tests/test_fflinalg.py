import tracemalloc
from contextlib import ExitStack, contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exactcat import fflinalg as ff
from exactcat import category
from exactcat.conflcat import ConflCategory
from exactcat.fflinalg import FpMatrix
from exactcat.repcat import RepCategory, a_n


def mat(p, rows):
    return FpMatrix(p, rows)


def test_rref_identity_f2():
    m = FpMatrix.identity(2, 2)
    red, pivots, rank = ff.rref(m)
    assert red == m
    assert pivots == (0, 1)
    assert rank == 2


def test_rref_zero():
    m = FpMatrix.zeros(2, 3, 2)
    red, pivots, rank = ff.rref(m)
    assert red == m
    assert pivots == ()
    assert rank == 0


def test_rref_rank_one():
    red, pivots, rank = ff.rref(mat(2, [[1, 1], [1, 1]]))
    assert red == mat(2, [[1, 1], [0, 0]])
    assert pivots == (0,)
    assert rank == 1


def test_solve_right_identity():
    b = mat(2, [[1, 0], [1, 1]])
    assert ff.solve_right(FpMatrix.identity(2, 2), b) == b


def test_solve_right_free_variable_zeroed():
    a = mat(2, [[1, 1]])
    b = mat(2, [[1]])
    x = ff.solve_right(a, b)
    # oracle: of the candidate vectors, exactly (1,0) and (0,1) solve;
    # the deterministic choice zeroes the free variable
    solutions = [v.tolist() for v in ff.all_vectors(2, 2) if (a.a @ v) % 2 == 1]
    assert solutions == [[0, 1], [1, 0]]
    assert x == mat(2, [[1], [0]])


def test_solve_right_unsolvable():
    assert ff.solve_right(FpMatrix.zeros(2, 2, 2), mat(2, [[1], [0]])) is None


def test_solve_right_shape_mismatch():
    with pytest.raises(ValueError):
        ff.solve_right(FpMatrix.zeros(2, 2, 2), FpMatrix.zeros(2, 3, 1))


def test_kernel_identity():
    k = ff.kernel_basis(FpMatrix.identity(2, 3))
    assert k.a.shape == (3, 0)


def test_kernel_zero():
    k = ff.kernel_basis(FpMatrix.zeros(2, 3, 3))
    assert k == FpMatrix.identity(2, 3)


def test_kernel_rank_one():
    k = ff.kernel_basis(mat(2, [[1, 1]]))
    # oracle: the only nonzero kernel vector over F_2 is (1,1)
    assert k == mat(2, [[1], [1]])


def test_quotient_space_full():
    proj, lift = ff.quotient_space(2, 2, FpMatrix.identity(2, 2))
    assert proj.a.shape == (0, 2)
    assert lift.a.shape == (2, 0)


def test_quotient_space_empty():
    proj, lift = ff.quotient_space(2, 2, FpMatrix.zeros(2, 2, 0))
    assert proj == FpMatrix.identity(2, 2)


def test_quotient_space_line():
    sub = mat(2, [[1], [1]])
    proj, lift = ff.quotient_space(2, 2, sub)
    assert proj.a.shape == (1, 2)  # rank-nullity
    assert (proj @ sub).is_zero()
    assert proj @ lift == FpMatrix.identity(2, 1)


@st.composite
def fp_matrix(draw, max_dim=6, primes=(2, 3)):
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return FpMatrix(p, np.array(entries, dtype=np.int64).reshape(rows, cols))


@given(fp_matrix())
@settings(max_examples=80, deadline=None)
def test_rref_idempotent_and_rank(m):
    red, pivots, rank = ff.rref(m)
    red2, pivots2, rank2 = ff.rref(red)
    assert red2 == red
    assert pivots2 == pivots
    assert rank2 == rank


@given(fp_matrix(max_dim=4), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_right_exact_or_certified_unsolvable(a, data):
    cols = data.draw(st.integers(1, 2))
    entries = data.draw(
        st.lists(st.integers(0, a.p - 1), min_size=a.rows * cols, max_size=a.rows * cols)
    )
    b = FpMatrix(a.p, np.array(entries, dtype=np.int64).reshape(a.rows, cols))
    x = ff.solve_right(a, b)
    if x is not None:
        assert a @ x == b
    else:
        assert ff.hstack([a, b]).rank() > a.rank()


@given(fp_matrix())
@settings(max_examples=80, deadline=None)
def test_kernel_basis_properties(a):
    k = ff.kernel_basis(a)
    assert (a @ k).is_zero()
    assert k.cols == a.cols - a.rank()
    assert k.rank() == k.cols


@given(fp_matrix(max_dim=5))
@settings(max_examples=60, deadline=None)
def test_quotient_space_properties(m):
    proj, lift = ff.quotient_space(m.p, m.rows, m)
    assert proj.rows == m.rows - m.rank()
    assert (proj @ m).is_zero()
    assert proj @ lift == FpMatrix.identity(m.p, proj.rows)
    assert proj.rank() == proj.rows


def test_scalar_rejects_composite_modulus():
    # a 1x1 matrix is the engine's scalar; a composite or unsupported modulus is refused
    with pytest.raises(ValueError):
        FpMatrix(6, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(11, [[1]])


def _greedy_by_rank(s, cands):
    """The rank-per-candidate greedy loop the pivot rule replaced: the
    indices of the candidates that enlarge the span of s and those kept."""
    cur, rank, kept = s, s.rank(), []
    for j in range(cands.cols):
        cand = ff.hstack([cur, FpMatrix(s.p, cands.a[:, j : j + 1])])
        if cand.rank() > rank:
            kept.append(j)
            cur, rank = cand, cand.rank()
    return kept


@given(fp_matrix(max_dim=5, primes=(2, 3, 5)), st.data())
@settings(max_examples=80, deadline=None)
def test_pivot_greedy_matches_rank_loop(s, data):
    k = data.draw(st.integers(0, 6))
    entries = data.draw(st.lists(st.integers(0, s.p - 1), min_size=s.rows * k, max_size=s.rows * k))
    cands = FpMatrix(s.p, np.array(entries, dtype=np.int64).reshape(s.rows, k))
    _, pivots, _ = ff.rref(ff.hstack([s, cands]))
    assert [c - s.cols for c in pivots if c >= s.cols] == _greedy_by_rank(s, cands)
    assert sum(1 for c in pivots if c < s.cols) == s.rank()


def test_all_subspaces_counts():
    assert len(ff.all_subspaces(2, 2)) == ff.count_subspaces(2, 2) == 5
    assert len(ff.all_subspaces(2, 3)) == ff.count_subspaces(2, 3) == 16
    assert len(ff.all_subspaces(3, 2)) == ff.count_subspaces(3, 2) == 6
    # canonical: all distinct as column spans
    seen = set()
    for inc in ff.all_subspaces(2, 3):
        red, _, _ = ff.rref(inc.transpose())
        seen.add(red.key)
    assert len(seen) == 16


# -- the small-matrix kernel against the array kernel -------------------------

@st.composite
def reduced_array(draw, max_dim=24):
    """(p, a): a random int64 array over F_p, up to 24 x 24, often of low rank.

    Low-rank products make pivots skip columns; the sizes reach both sides
    of SMALL_ELIM_ENTRIES, and 0 x n and n x 0 shapes occur.
    """
    p = draw(st.sampled_from(ff.SUPPORTED_PRIMES))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    inner = draw(st.integers(0, max(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols))
    return p, (a % p).astype(np.int64)


@given(reduced_array())
@settings(max_examples=200, deadline=None)
def test_list_elimination_matches_array_elimination(pa):
    p, a = pa
    rows = a.tolist()
    pivots = ff._rref_rows(rows, a.shape[1], p)
    red, pivots_np = ff._rref_numpy(a, p)
    assert pivots == pivots_np
    assert np.array_equal(np.array(rows, dtype=np.int64).reshape(a.shape), red)
    red_dispatch, pivots_dispatch = ff._rref_array(a, p)
    assert pivots_dispatch == pivots and np.array_equal(red_dispatch, red)


@given(reduced_array())
@settings(max_examples=200, deadline=None)
def test_rank_only_path_matches_pivot_count(pa):
    p, a = pa
    pivots = ff._rref_numpy(a, p)[1]
    assert ff._rank_rows(a.tolist(), a.shape[1], p) == len(pivots)
    assert ff.array_rank(a, p) == len(pivots)
    assert FpMatrix(p, a).rank() == len(pivots)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (300, 0), (0, 300)])
@pytest.mark.parametrize("p", ff.SUPPORTED_PRIMES)
def test_elimination_of_empty_shapes(shape, p):
    a = np.zeros(shape, dtype=np.int64)
    for red, pivots in (ff._rref_array(a, p), ff._rref_numpy(a, p)):
        assert red.shape == shape and pivots == ()
    assert ff.array_rank(a, p) == 0


def test_threshold_sits_between_tested_sizes():
    # reduced_array reaches 24 x 24 = 576 entries, so both paths are exercised
    assert 0 < ff.SMALL_ELIM_ENTRIES < 24 * 24


def test_trusted_results_are_read_only_and_zeros_identity_check_p():
    m = FpMatrix(3, [[1, 2], [0, 1]])
    for r in (m @ m, m + m, m - m, -m, m.scale(2), ff.rref(m)[0], FpMatrix.zeros(3, 2, 2)):
        assert not r.a.flags.writeable
    with pytest.raises(ValueError):
        FpMatrix.identity(4, 2)


# -- the store of small eliminations --------------------------------------------

SMALL_ELIMINATIONS = ("array_rank", "rref", "kernel_basis", "solve_right", "quotient_space")


def _elimination_args(name, p, a, b):
    """Fresh arguments of one public elimination on the arrays a and b."""
    m = ff.from_reduced(p, a.copy())
    return {
        "array_rank": (a.copy(), p),
        "rref": (m,),
        "kernel_basis": (m,),
        "solve_right": (m, ff.from_reduced(p, b.copy())),
        "quotient_space": (p, a.shape[0], m),
    }[name]


def _results_equal(got, want):
    if isinstance(want, tuple):
        return len(got) == len(want) and all(_results_equal(g, w) for g, w in zip(got, want))
    if isinstance(want, FpMatrix):
        return isinstance(got, FpMatrix) and got.a.shape == want.a.shape and got == want
    return got == want


def _read_only(result):
    if isinstance(result, tuple):
        return all(_read_only(r) for r in result)
    return not isinstance(result, FpMatrix) or not result.a.flags.writeable


@given(reduced_array(max_dim=16), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_small_eliminations_are_kept_by_input_value(pa, consistent, data):
    """Every public elimination returns what its uncached body returns; an
    input of at most SMALL_ELIM_ENTRIES entries is kept, so an equal input
    built afresh gets the identical read-only result, and a larger one
    leaves the store as it was."""
    p, a = pa
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cols = data.draw(st.integers(0, 3))
    b = a @ rng.integers(0, p, size=(a.shape[1], cols)) % p if consistent else rng.integers(0, p, size=(a.shape[0], cols))
    for name in SMALL_ELIMINATIONS:
        fn = getattr(ff, name)
        args = _elimination_args(name, p, a, b)
        want = fn.__wrapped__(*args)
        size = len(fn.store)
        got = fn(*args)
        assert _results_equal(got, want), name
        assert _read_only(got), name
        if fn.entries(*args) <= ff.SMALL_ELIM_ENTRIES:
            assert fn(*_elimination_args(name, p, a, b)) is got, name
        else:
            assert len(fn.store) == size, name
            assert _results_equal(fn(*args), want), name


@pytest.mark.parametrize("p", ff.SUPPORTED_PRIMES)
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (13, 12), (13, 0)])
def test_small_elimination_store_covers_empty_shapes_and_bypasses_large_ones(p, shape):
    """0 x n and n x 0 inputs are kept like any other; a 13 x 12 input (156
    entries) and the quotient of a 13-dimensional space (169) are not."""
    a = np.zeros(shape, dtype=np.int64)
    b = np.zeros((shape[0], 1), dtype=np.int64)
    for name in SMALL_ELIMINATIONS:
        fn = getattr(ff, name)
        args = _elimination_args(name, p, a, b)
        size = len(fn.store)
        got = fn(*args)
        assert _results_equal(got, fn.__wrapped__(*args)), name
        if fn.entries(*args) > ff.SMALL_ELIM_ENTRIES:
            assert len(fn.store) == size, name
        else:
            assert fn(*_elimination_args(name, p, a, b)) is got, name
            assert len(fn.store) >= 1, name


# -- batched composition against one composite per morphism --------------------

def _flat_columns(cat, mors, x, y):
    """The reference: flatten every composite separately."""
    if not mors:
        return np.zeros((cat.flat_dim(x, y), 0), dtype=np.int64)
    return np.stack([m.vec for m in mors], axis=1)


def _combination(cat, basis, x, y, rng):
    return cat.combine(basis, rng.integers(0, cat.p, size=len(basis)), x, y)


@st.composite
def rep_triple(draw):
    """(cat, x, y, z, rng): random A3 representations, zero vertices included."""
    p = draw(st.sampled_from(ff.SUPPORTED_PRIMES))
    cat = RepCategory(a_n(3), p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objs = []
    for _ in range(3):
        dims = {v: draw(st.integers(0, 2)) for v in cat.quiver.vertices}
        maps = {
            a.name: FpMatrix(p, rng.integers(0, p, size=(dims[a.dst], dims[a.src])))
            for a in cat.quiver.arrows
        }
        objs.append(cat.obj(dims, maps))
    return (cat, *objs, rng)


def _check_flat_composition(cat, x, y, z, rng, repeat=1):
    # fs: x -> y; compose with g: y -> z, and precompose fs' : y -> z with f: x -> y
    fs = list(cat.hom_basis(x, y)) * repeat
    gs = list(cat.hom_basis(y, z)) * repeat
    g = _combination(cat, cat.hom_basis(y, z), y, z, rng)
    f = _combination(cat, cat.hom_basis(x, y), x, y, rng)
    got = cat.compose_flat(g, fs, x, y)
    assert np.array_equal(got.a, _flat_columns(cat, [cat.compose(g, h) for h in fs], x, z))
    got = cat.precompose_flat(gs, f, y, z)
    assert np.array_equal(got.a, _flat_columns(cat, [cat.compose(h, f) for h in gs], x, z))
    # empty lists keep the row count of the target hom-space
    assert cat.compose_flat(g, [], x, y).a.shape == (cat.flat_dim(x, z), 0)
    assert cat.precompose_flat([], f, y, z).a.shape == (cat.flat_dim(x, z), 0)


@given(rep_triple())
@settings(max_examples=60, deadline=None)
def test_rep_flat_composition_matches_per_morphism(triple):
    _check_flat_composition(*triple)


def test_rep_flat_composition_across_chunks():
    # more morphisms than one batch holds
    cat = RepCategory(a_n(2), 3)
    x = cat.obj({"1": 2, "2": 2}, {"a1": FpMatrix(3, [[1, 0], [0, 0]])})
    repeat = category.FLAT_CHUNK // len(cat.hom_basis(x, x)) + 1
    _check_flat_composition(cat, x, x, x, np.random.default_rng(0), repeat=repeat)


def test_confl_flat_composition_matches_per_morphism():
    cat = RepCategory(a_n(2), 2)
    ecat = ConflCategory(cat)
    objs = ecat.enumerate_objects(1)
    rng = np.random.default_rng(1)
    for x, y, z in product(objs[:6], repeat=3):
        _check_flat_composition(ecat, x, y, z, rng)


@st.composite
def small_square_pair(draw):
    p = draw(st.sampled_from([2, 3]))
    r, c = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    a = np.array(draw(st.lists(st.integers(0, p - 1), min_size=r * r, max_size=r * r)), dtype=np.int64)
    b = np.array(draw(st.lists(st.integers(0, p - 1), min_size=c * c, max_size=c * c)), dtype=np.int64)
    return p, a.reshape(r, r), b.reshape(c, c)


@given(small_square_pair())
@settings(max_examples=60, deadline=None)
def test_block_system_kernel_matches_brute_force(case):
    # unknowns X, Y (r x c): A X = X B and Y = A X B, against every (X, Y) over F_p
    p, a, b = case
    r, c = a.shape[0], b.shape[0]
    system = ff.BlockSystem(p)
    system.unknown("X", r, c)
    system.unknown("Y", r, c)
    system.equation((1, a, "X", None), (-1, None, "X", b))
    system.equation((1, None, "Y", None), (-1, a, "X", b))
    null = system.kernel()
    assert null.rows == system.n == 2 * r * c
    span = {tuple(null.a @ np.array(t, dtype=np.int64) % p) for t in product(range(p), repeat=null.cols)}
    solutions = set()
    for vals in product(range(p), repeat=2 * r * c):
        vec = np.array(vals, dtype=np.int64)
        blk = system.blocks(vec)
        x, y = blk["X"], blk["Y"]
        if not ((a @ x - x @ b) % p).any() and np.array_equal(y, a @ x @ b % p):
            solutions.add(tuple(vals))
    assert span == solutions
    assert len(solutions) == p**null.cols  # the kernel columns are independent


@given(st.sampled_from([2, 3]), st.lists(st.integers(0, 3), min_size=4, max_size=4), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_kron_matches_numpy(p, shape, seed):
    # shapes include zero-size dims; entries are reduced or negated, as in BlockSystem terms
    m, n, q, s = shape
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(m, n), dtype=np.int64)
    b = rng.integers(0, p, size=(q, s), dtype=np.int64)
    for sign in (1, -1):
        got, want = ff.kron(sign * a, b), np.kron(sign * a, b)
        assert got.shape == want.shape == (m * q, n * s)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(ff.kron(a, sign * b.T), np.kron(a, sign * b.T))


def test_block_system_rejects_mismatched_terms():
    system = ff.BlockSystem(2)
    system.unknown("X", 2, 1)
    with pytest.raises(ValueError):
        system.equation((1, None, "X", None), (1, np.eye(3, dtype=np.int64), "X", None))


# -- the batched invertibility kernel against the rank ------------------------------

@st.composite
def square_stack(draw, p):
    """k random n x n matrices over F_p, k <= 64 and n <= 5, as one (k, n, n) stack.

    Each matrix is uniform, of low rank (a product through a narrower inner
    dimension), or has a zero column or a repeated row, so singular and
    invertible matrices both occur at every p.
    """
    n = draw(st.integers(0, 5))
    k = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, p, size=(k, n, n))
    for m in stack:
        kind = rng.integers(4)
        if kind == 1 and n:
            m[:, rng.integers(n)] = 0
        elif kind == 2 and n > 1:
            i, j = rng.choice(n, 2, replace=False)
            m[i] = m[j]
        elif kind == 3:
            inner = rng.integers(0, n + 1)
            m[:] = rng.integers(0, p, size=(n, inner)) @ rng.integers(0, p, size=(inner, n)) % p
    return stack.astype(np.int64)


@pytest.mark.parametrize("p", ff.SUPPORTED_PRIMES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_invertible_stack_matches_rank(p, data):
    stack = data.draw(square_stack(p))
    before = stack.copy()
    got = ff.invertible_stack(stack, p)
    assert got.dtype == bool and got.shape == (len(stack),)
    assert got.tolist() == [ff.array_rank(m, p) == stack.shape[1] for m in stack]
    assert np.array_equal(stack, before)  # the input is not touched


# -- the pruned array kernel against the unpruned elimination ------------------

def _rref_unpruned(a, p):
    """The array elimination before column pruning: every column of a copy
    reduced mod p, one vectorised row update per pivot."""
    m = a % p
    rows, cols = m.shape
    inv = ff._INVERSES[p]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        v = int(m[r, c])
        if v != 1:
            m[r] = m[r] * inv[v] % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        if others.size:
            m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def _kernel_unpruned(a, p):
    red, pivots = _rref_unpruned(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    out = np.zeros((a.shape[1], len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for r, pc in enumerate(pivots):
            out[pc, j] = (-red[r, fc]) % p
    return out


def _solve_unpruned(a, b, p):
    red, pivots = _rref_unpruned(np.hstack([a, b]), p)
    if any(c >= a.shape[1] for c in pivots):
        return None
    x = np.zeros((a.shape[1], b.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = red[r, a.shape[1] :]
    return x


@contextmanager
def _patched(name, value):
    saved = getattr(ff, name)
    setattr(ff, name, value)
    try:
        yield
    finally:
        setattr(ff, name, saved)


@st.composite
def prunable_array(draw):
    """(p, a): an array over F_p whose columns are zero or drawn from a few
    distinct sparse columns, up to 40 x 160, so both sides of PRUNE_ENTRIES
    occur, and at most rows columns of low rank."""
    p = draw(st.sampled_from(ff.SUPPORTED_PRIMES))
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, p, size=(rows, draw(st.integers(1, 12))))
    pool *= rng.random(pool.shape) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    a = pool[:, rng.integers(0, pool.shape[1], size=cols)]
    a *= rng.random(cols) >= draw(st.sampled_from([0.0, 0.3, 0.8]))
    return p, a.astype(np.int64)


def _column_sums(a):
    """Colliding column keys: many distinct columns share a sum, and only
    the zero column has sum 0, so every merge rests on the exact comparison."""
    return a.sum(axis=0)


PRUNING = {
    "threshold": [],
    "everywhere": [("PRUNE_ENTRIES", 0)],
    "colliding keys": [("PRUNE_ENTRIES", 0), ("_column_keys", _column_sums)],
}


@given(prunable_array(), st.sampled_from(sorted(PRUNING)), st.data())
@settings(max_examples=150, deadline=None)
def test_pruned_kernel_matches_unpruned_oracle(pa, mode, data):
    p, a = pa
    j = data.draw(st.integers(0, a.shape[1] - 1))
    # a right-hand side equal to a column of a, beside a random one
    rhs = np.hstack([a[:, j : j + 1], np.random.default_rng(j).integers(0, p, size=(a.shape[0], 1))])
    m = ff.from_reduced(p, a.copy())
    with ExitStack() as stack:
        for name, value in PRUNING[mode]:
            stack.enter_context(_patched(name, value))
        # the uncached bodies: a kept result of an earlier example would
        # stand in for the patched path
        red, pivots, rank = ff.rref.__wrapped__(m)
        kernel = ff.kernel_basis.__wrapped__(m)
        got_rank = ff.array_rank.__wrapped__(a, p)
        x_col = ff.solve_right.__wrapped__(m, ff.from_reduced(p, rhs[:, :1].copy()))
        x_both = ff.solve_right.__wrapped__(m, ff.from_reduced(p, rhs))
    red_o, pivots_o = _rref_unpruned(a, p)
    assert pivots == pivots_o and rank == got_rank == len(pivots_o)
    assert np.array_equal(red.a, red_o)
    assert np.array_equal(kernel.a, _kernel_unpruned(a, p))
    assert np.array_equal(x_col.a, _solve_unpruned(a, rhs[:, :1], p))
    want = _solve_unpruned(a, rhs, p)
    assert (x_both is None) == (want is None)
    if want is not None:
        assert np.array_equal(x_both.a, want)


def test_distinct_columns_merge_zero_and_repeated_columns_only():
    # zero columns 0 and 3; columns 2 and 5 repeat column 1; column 6 shares
    # column 1's sum but not its entries
    a = np.array([[0, 1, 1, 0, 2, 1, 0], [0, 0, 0, 0, 1, 0, 1]], dtype=np.int64)
    for patches in PRUNING.values():
        with ExitStack() as stack:
            stack.enter_context(_patched("PRUNE_ENTRIES", 0))
            for name, value in patches:
                stack.enter_context(_patched(name, value))
            first, where = ff._distinct_columns(a)
            assert ff._distinct_columns(np.eye(3, dtype=np.int64)) is None
        assert first.tolist() == [0, 1, 4, 6]
        assert where.tolist() == [0, 1, 1, 0, 2, 1, 3]
    assert ff._distinct_columns(a) is None  # below PRUNE_ENTRIES


def test_wide_sparse_solve_peaks_below_half_the_system():
    # shaped like the systems AddSubcat.contains solves: most columns zero,
    # the rest repeats of a few hundred distinct columns of about one entry
    rng = np.random.default_rng(5)
    rows, cols, p = 800, 5000, 2
    pool = (rng.random((rows, 600)) < 0.003).astype(np.int64)
    a = ff.from_reduced(p, pool[:, rng.integers(0, 600, size=cols)] * (rng.random(cols) < 0.3))
    b = a @ FpMatrix(p, (rng.random((cols, 1)) < 0.01).astype(np.int64))
    tracemalloc.start()
    try:
        x = ff.solve_right(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a @ x == b
    assert peak < a.a.nbytes / 2, f"solve_right peaked at {peak} bytes for a {a.a.nbytes}-byte system"


def _quotient_space_two_eliminations(p, ambient_dim, sub_basis):
    """quotient_space before the single elimination: proj read off a second
    solve, full⁻¹ = solve_right(full, I)."""
    aug = np.hstack([sub_basis.a, np.eye(ambient_dim, dtype=np.int64)])
    _, pivots, _ = ff.rref(ff.from_reduced(p, aug))
    base_cols = sum(1 for c in pivots if c < sub_basis.cols)
    lift = aug[:, list(pivots[base_cols:])]
    inv = ff.solve_right(ff.from_reduced(p, aug[:, list(pivots)]), FpMatrix.identity(p, ambient_dim))
    return inv.a[base_cols:, :], lift


@given(fp_matrix(max_dim=7, primes=ff.SUPPORTED_PRIMES))
@settings(max_examples=120, deadline=None)
def test_quotient_space_matches_two_elimination_oracle(m):
    proj, lift = ff.quotient_space(m.p, m.rows, m)
    proj_o, lift_o = _quotient_space_two_eliminations(m.p, m.rows, m)
    assert np.array_equal(proj.a, proj_o) and np.array_equal(lift.a, lift_o)


# -- summand positions, against the per-block numpy build they replaced -------------

def numpy_summand_positions(blocks, x, s, total, before, into):
    """BlockMaps.summand_positions as it was: one np.arange per block, or an
    outer sum per block, concatenated."""
    parts = [np.zeros(0, dtype=np.int64)]
    if into:
        for (o, _, c), s_i, b_i in zip(blocks.layout(x, total)[0], s, before):
            parts.append(o + b_i * c + np.arange(s_i * c))
    else:
        for (o, r, c), s_i, b_i in zip(blocks.layout(total, x)[0], s, before):
            parts.append((o + b_i + np.arange(r)[:, None] * c + np.arange(s_i)[None, :]).reshape(-1))
    return np.concatenate(parts)


@st.composite
def summand_in_sum(draw):
    """(x, s, total, before): dims tuples of r blocks, with the summand s of
    total starting at before in every block."""
    r = draw(st.integers(0, 5))
    dims = st.lists(st.integers(0, 4), min_size=r, max_size=r)
    x, s, before, after = (tuple(draw(dims)) for _ in range(4))
    total = tuple(b + d + a for b, d, a in zip(before, s, after))
    return x, s, total, before


@given(summand_in_sum(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_summand_positions_match_the_numpy_build(args, into):
    blocks = ff.BlockMaps()
    got = blocks.summand_positions(*args, into)
    want = numpy_summand_positions(blocks, *args, into)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert blocks.summand_positions(*args, into) is got
