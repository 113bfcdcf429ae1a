"""Exact dense linear algebra over a prime field F_p.

Everything else in the engine reduces to the four primitives here:
reduced row echelon form, deterministic linear solving, kernel bases and
quotient-space splittings.  All arithmetic is integer arithmetic mod p on
int64 arrays; there is no floating point anywhere.  `verify` and
`VerificationError`, the explicit checks that survive `python -O`, and
`memo`, the one per-owner cache, live here at the bottom layer so that
these primitives can use them too; `category` re-exports the checks.
`by_value`, beside `memo`, keeps the small eliminations (below).

Nearly every matrix the engine builds is tiny (most have at most four
entries), so the kernel keeps per-matrix overhead low:

* Trusted construction.  The public `FpMatrix(p, data)` copies its input,
  reduces it mod p and checks p.  Results computed here from matrices that
  are already valid (products, sums, eliminations, stacks, zeros and
  identities) go through `from_reduced(p, arr)`, which does none of that.
  The invariant its callers keep: they hand over a fresh 2-D int64 array
  with entries in [0, p), for a supported p, and never mutate it
  afterwards.  The array is made read-only on the way in.
* Small elimination.  A matrix with at most SMALL_ELIM_ENTRIES entries is
  eliminated on Python int lists; a larger one on an int64 array, with one
  vectorised row update per pivot.  `array_rank` counts pivots by forward
  elimination alone and builds no reduced matrix; `invertible_stack` runs
  that forward elimination on a whole stack of square matrices at once,
  vectorised across the stack.  The threshold is the
  largest entry count at which the list path was faster on every square,
  wide and tall shape timed by `scripts/elim_threshold.py`, for p = 2 and
  p = 3: 144 entries.  Between 144 and about 300 entries the faster path
  depends on the shape and on p; from 400 entries on, arrays win.
* One working copy, distinct columns only.  The array path eliminates one
  fresh copy in place; its input is already reduced (the `from_reduced`
  invariant), so there is no `% p` copy.  From PRUNE_ENTRIES entries on,
  the copy holds only the first occurrence of each distinct column.  This
  changes no result: rref(A) = T·A column by column, so a repeated
  column's RREF column is that of its first occurrence (a zero column's is
  0), and the greedy pivots never land on a zero or repeated column, which
  lies in the span of the columns before it.  `rref` and `kernel_basis`
  scatter the reduced columns back to full width, `array_rank` needs no
  scatter, and `solve_right` prunes A before it builds [A' | b], so A is
  never copied whole.  The systems `AddSubcat.contains` solves are like
  that: the largest one on a seeded `precover-large` benchmark spec has
  832 rows and 2,304 columns, 69% of them zero.  The threshold is
  measured by `scripts/elim_threshold.py`: pruning wins on every wide
  shape with zero and repeated columns it times from a few hundred
  entries on (192 and 432 in two runs), but the search for repeats costs
  under 10% on every dense shape, where it finds none, only from 4,096
  entries on (up to 50% below), and replaying every array-path matrix of
  one `paper` and one `quotient-p3` op was fastest with the threshold
  between 2,000 and 10,000 entries: 4,096.
* Small eliminations once per process.  The five public eliminations
  (`array_rank`, `rref`, `kernel_basis`, `solve_right`, `quotient_space`)
  keep their results by input value, p plus the inputs' shapes and bytes,
  when the matrix they eliminate has at most SMALL_ELIM_ENTRIES entries
  (`by_value`); a hit returns the same read-only result.  The same small
  questions come back all the time: on a seeded `classes-p2` benchmark
  spec 92% of the small `array_rank` calls and 97% of the small
  `quotient_space` calls repeat an earlier input
  (`scripts/kernel_repeats.py`).  Nothing larger is kept, so the large
  systems of `AddSubcat.contains` pass by.  These stores are module-level
  and live for the process, the one exception to the per-owner rule of
  `memo`: a result depends on the input value alone, and a store keeps no
  owner alive.

Three shared patterns sit on top of the primitives:

* One block-equation builder.  `BlockSystem` declares matrix unknowns in
  order (row-major, one after another), takes each equation as signed
  terms A·X_k·B (a missing A or B is the identity), assembles it with
  vec(AXB) = (A ⊗ Bᵀ)·vec(X), returns the kernel through `kernel_basis`
  and splits a kernel vector back into blocks.  Hom-spaces and extensions,
  of representations and of conflations, are all solved through it.
* Pivot-greedy spans.  The pivot columns of rref([S | c_1 ... c_k]) are
  exactly the candidates a left-to-right greedy pass keeps (each one not
  in the span of S and the kept ones before it), so one elimination
  chooses a basis of a span (`category.span_basis`), coset
  representatives (`quotient.qhom`) and a complement (`quotient_space`).
* Flat block maps.  `BlockMaps` stores a block-diagonal linear map as one
  vector (its blocks row-major, one after another, the BlockSystem
  unknown order) and composes such vectors, one at a time or a stack of
  them against one fixed map; the host keeps every morphism this way.
"""
from __future__ import annotations

from functools import update_wrapper
from itertools import combinations, product
from operator import attrgetter
from typing import Iterator, Optional, Sequence

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)


class VerificationError(Exception):
    """A re-verified mathematical claim failed (an explicit check, so it
    survives `python -O`, unlike an assert)."""


def verify(ok: bool, message: str) -> None:
    """Raise VerificationError(message) unless ok."""
    if not ok:
        raise VerificationError(message)


def obj_key(*objs):
    """The memo key of one object, its .key, or of several, the tuple of their keys."""
    return objs[0].key if len(objs) == 1 else tuple(o.key for o in objs)


_MISS = object()


class _Store(dict):
    """The results of one memoized function on one owner.  A missing key
    reads as _MISS: a miss raises no exception, and a hit makes no call."""

    def __missing__(self, key):
        return _MISS


def memo(fn=None, *, key=None):
    """Decorator: fn(owner, *args) is computed once per key and kept in a
    store on the owner, its first argument (see memo_store).

    key None keys by the tuple of the other arguments, obj_key by their
    .key (built inline for two objects), any other key function by
    key(*args).  Every result is kept, None and False included.  A store
    lives as long as its owner and keeps nothing else alive."""
    if fn is None:
        return lambda fn: memo(fn, key=key)
    arity = fn.__code__.co_argcount - 1  # the owner aside
    if key is obj_key and arity == 1:
        key = attrgetter("key")
    pair = key is obj_key and arity == 2

    def cached(owner, *args):
        if key is None:
            k = args
        elif pair:
            k = (args[0].key, args[1].key)
        else:
            k = key(*args)
        try:
            store = owner._memos[cached]
        except (AttributeError, KeyError):
            store = memo_store(owner, cached)
        hit = store[k]
        if hit is _MISS:
            hit = store[k] = fn(owner, *args)
        return hit

    return update_wrapper(cached, fn)


def memo_store(owner, fn) -> dict:
    """The store key -> result of the memoized function fn on owner (empty
    until fn is first called there); an owner keeps its stores in _memos."""
    if not hasattr(owner, "_memos"):
        owner._memos = {}
    return owner._memos.setdefault(fn, _Store())


def by_value(entries, key):
    """Decorator: a small elimination fn(*args) is computed once per input
    value and kept for the life of the process.

    entries(*args) is the size of the matrix fn eliminates; above
    SMALL_ELIM_ENTRIES the call is computed and nothing is kept.  key(*args)
    is the input value: p, the inputs' shapes and their bytes
    (`FpMatrix.key`).  A hit returns the same read-only result.  The store
    is module-level, the one exception to memo's per-owner rule: the result
    depends on the input value alone, and the store keeps no owner alive.
    It is the decorated function's `.store`; `.__wrapped__` is the uncached
    body."""

    def decorate(fn):
        store = _Store()

        def cached(*args):
            if entries(*args) > SMALL_ELIM_ENTRIES:
                return fn(*args)
            k = key(*args)
            hit = store[k]
            if hit is _MISS:
                hit = store[k] = fn(*args)
            return hit

        cached.store = store
        cached.entries = entries
        return update_wrapper(cached, fn)

    return decorate


def _check_modulus(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported characteristic {p}; supported: {SUPPORTED_PRIMES}")


class FpMatrix:
    """Immutable dense matrix over F_p, stored as an int64 array mod p."""

    __slots__ = ("p", "a", "_key")

    def __init__(self, p: int, data):
        _check_modulus(p)
        arr = np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr %= p
        arr.flags.writeable = False
        self.p = p
        self.a = arr
        self._key = None

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        _check_modulus(p)
        return from_reduced(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        _check_modulus(p)
        return from_reduced(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def key(self) -> bytes:
        if self._key is None:
            self._key = self.a.tobytes()
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and self.key == other.key
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.key))

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.a.tolist()})"

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        r = self.a + other.a
        r %= self.p
        return from_reduced(self.p, r)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        r = self.a - other.a
        r %= self.p
        return from_reduced(self.p, r)

    def __neg__(self) -> "FpMatrix":
        r = -self.a
        r %= self.p
        return from_reduced(self.p, r)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        a, b = self.a, other.a
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        if a.size == 0 or b.size == 0:
            # an empty result or an empty inner dimension: the zero matrix,
            # at a fraction of the cost of numpy's matmul set-up
            return from_reduced(self.p, np.zeros((a.shape[0], b.shape[1]), dtype=np.int64))
        r = a @ b
        r %= self.p
        return from_reduced(self.p, r)

    def scale(self, c: int) -> "FpMatrix":
        r = self.a * (int(c) % self.p)
        r %= self.p
        return from_reduced(self.p, r)

    def transpose(self) -> "FpMatrix":
        return from_reduced(self.p, self.a.T.copy())

    def is_zero(self) -> bool:
        return not self.a.any()

    def rank(self) -> int:
        return array_rank(self.a, self.p)


_new_object = object.__new__


def from_reduced(p: int, arr: np.ndarray) -> FpMatrix:
    """Trusted FpMatrix constructor: no copy, no reduction, no modulus check.

    The caller hands over a fresh 2-D int64 array with entries in [0, p),
    for a supported p, and never mutates it afterwards; the array is made
    read-only here.
    """
    m = _new_object(FpMatrix)
    arr.setflags(write=False)
    m.p = p
    m.a = arr
    m._key = None
    return m


def hstack(mats: Sequence[FpMatrix]) -> FpMatrix:
    return from_reduced(mats[0].p, np.hstack([m.a for m in mats]))


def vstack(mats: Sequence[FpMatrix]) -> FpMatrix:
    return from_reduced(mats[0].p, np.vstack([m.a for m in mats]))


def block_diag(mats: Sequence[FpMatrix], p: int) -> FpMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return from_reduced(p, out)


# Matrices with at most this many entries are eliminated on Python int
# lists, larger ones on int64 arrays; measured, see the module docstring.
SMALL_ELIM_ENTRIES = 144
# Array-path matrices with at least this many entries eliminate their
# distinct columns only; measured, see the module docstring.
PRUNE_ENTRIES = 4096

_INVERSES = {p: (0,) + tuple(pow(v, p - 2, p) for v in range(1, p)) for p in SUPPORTED_PRIMES}


def _rref_rows(rows: list[list[int]], ncols: int, p: int) -> tuple[int, ...]:
    """Reduce rows (entries in [0, p)) in place to RREF; return the pivot columns."""
    inv = _INVERSES[p]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        row = rows[i]
        rows[i] = rows[r]
        if row[c] != 1:
            s = inv[row[c]]
            row = [x * s % p for x in row]
        rows[r] = row
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], row)]
        pivots.append(c)
        r += 1
    return tuple(pivots)


def _rank_rows(rows: list[list[int]], ncols: int, p: int) -> int:
    """Rank of rows (entries in [0, p)) by forward elimination, destroying rows."""
    inv = _INVERSES[p]
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        row = rows[i]
        rows[i] = rows[r]
        s = inv[row[c]]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                f = f * s % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], row)]
        r += 1
    return r


def _column_keys(a: np.ndarray) -> np.ndarray:
    """One weighted sum per column of a 2-D array with entries in [0, p).
    The weights are positive and below 2^31, so the key is exact (no
    overflow) and 0 only for the zero column."""
    weights = np.arange(1, a.shape[0] + 1, dtype=np.int64) * 2654435761 % 2147483647 + 1
    return np.einsum("i,ij->j", weights, a)


def _distinct_columns(a: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(first, where) for a 2-D array with entries in [0, p): the ascending
    indices of the columns that equal no earlier column, and for every
    column the position in first of the column it equals.  None when the
    array is below PRUNE_ENTRIES or every column is distinct.

    Equal keys (`_column_keys`) only propose repeats: a column is merged
    with the first column of its key after an exact comparison, chunked so
    that nothing of full size is allocated, and a collision keeps the
    column.  Key 0 is exactly the zero column and needs no comparison.
    """
    rows, cols = a.shape
    if rows * cols < PRUNE_ENTRIES:
        return None
    keys = _column_keys(a)
    _, first_of_key, key_index = np.unique(keys, return_index=True, return_inverse=True)
    rep = first_of_key[key_index]
    candidates = np.flatnonzero((rep != np.arange(cols)) & (keys != 0))
    step = max(1, (1 << 17) // max(rows, 1))
    for s in range(0, len(candidates), step):
        chunk = candidates[s : s + step]
        differ = chunk[(a[:, chunk] != a[:, rep[chunk]]).any(axis=0)]
        rep[differ] = differ
    first = np.flatnonzero(rep == np.arange(cols))
    if len(first) == cols:
        return None
    position = np.empty(cols, dtype=np.intp)
    position[first] = np.arange(len(first))
    return first, position[rep]


def _rref_numpy(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF (a fresh array) and pivot columns of a 2-D array with entries in
    [0, p), eliminating one working copy of its distinct columns only."""
    distinct = _distinct_columns(a)
    if distinct is None:
        m = a.copy()
        return m, _eliminate(m, p)
    first, where = distinct
    m = a[:, first]
    pivots = _eliminate(m, p)
    return m[:, where], tuple(first[list(pivots)].tolist())


def _eliminate(m: np.ndarray, p: int) -> tuple[int, ...]:
    """Reduce m (writable, entries in [0, p)) in place to RREF, one
    vectorised row update per pivot; return the pivot columns."""
    rows, cols = m.shape
    inv = _INVERSES[p]
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
    return tuple(pivots)


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """RREF (a fresh array) and pivot columns of a 2-D array with entries in [0, p)."""
    if a.size <= SMALL_ELIM_ENTRIES:
        rows = a.tolist()
        pivots = _rref_rows(rows, a.shape[1], p)
        return np.array(rows, dtype=np.int64).reshape(a.shape), pivots
    return _rref_numpy(a, p)


@by_value(lambda a, p: a.size, lambda a, p: (p, a.shape, a.tobytes()))
def array_rank(a: np.ndarray, p: int) -> int:
    """Rank over F_p of a 2-D array with entries in [0, p); builds no reduced matrix."""
    if a.size <= SMALL_ELIM_ENTRIES:
        return _rank_rows(a.tolist(), a.shape[1], p)
    distinct = _distinct_columns(a)
    return len(_eliminate(a.copy() if distinct is None else a[:, distinct[0]], p))


def invertible_stack(stack: np.ndarray, p: int) -> np.ndarray:
    """bool[k]: which matrices of a (k, n, n) stack (entries in [0, p)) are invertible.

    One forward elimination for the whole stack, vectorised across it: at
    column c every matrix still in play finds its own pivot at or below row
    c, swaps it up and clears the rows beneath; a matrix without a pivot is
    singular and leaves play.
    """
    k, n = stack.shape[:2]
    inv = np.array(_INVERSES[p], dtype=np.int64)
    m = stack.copy()
    alive = np.arange(k)
    for c in range(n):
        nz = m[:, c:, c] != 0
        has = nz.any(axis=1)
        if not has.all():
            m, nz, alive = m[has], nz[has], alive[has]
        if not alive.size:
            break
        at = np.arange(alive.size)
        piv = c + nz.argmax(axis=1)
        pivot_rows = m[at, piv]
        m[at, piv] = m[:, c]
        # the pivot row scaled to a leading 1, from column c on
        row = pivot_rows[:, c:] * inv[pivot_rows[:, c]][:, None] % p
        below = m[:, c + 1 :, c:]
        below -= below[:, :, :1] * row[:, None, :]
        below %= p
    ok = np.zeros(k, dtype=bool)
    ok[alive] = True
    return ok


def _one_entries(m: FpMatrix) -> int:
    return m.a.size


def _one_key(m: FpMatrix) -> tuple:
    return (m.p, m.a.shape, m.key)


@by_value(_one_entries, _one_key)
def rref(m: FpMatrix) -> tuple[FpMatrix, tuple[int, ...], int]:
    """Unique reduced row echelon form, pivot columns (ascending), rank."""
    red, pivots = _rref_array(m.a, m.p)
    return from_reduced(m.p, red), pivots, len(pivots)


@by_value(lambda a, b: a.a.size + b.a.size, lambda a, b: (a.p, a.a.shape, b.a.shape, a.key, b.key))
def solve_right(a: FpMatrix, b: FpMatrix) -> Optional[FpMatrix]:
    """Some X with a @ X = b, or None if inconsistent.

    Deterministic: free variables are set to 0, so the result is the unique
    solution with support on the pivot columns of a.
    """
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: {a.rows} vs {b.rows}")
    p = a.p
    # pivots never land on a repeated column, so only a's distinct columns
    # enter the one working copy [a' | b]
    distinct = _distinct_columns(a.a)
    aug = np.hstack([a.a if distinct is None else a.a[:, distinct[0]], b.a])
    n = aug.shape[1] - b.cols
    if aug.size <= SMALL_ELIM_ENTRIES:
        red, pivots = _rref_array(aug, p)
    else:
        red, pivots = aug, _eliminate(aug, p)
    pivots_a = [c for c in pivots if c < n]
    if len(pivots_a) != len(pivots):
        return None  # a pivot landed in the b block: inconsistent
    if distinct is not None:
        pivots_a = distinct[0][pivots_a].tolist()
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    for r, c in enumerate(pivots_a):
        x[c] = red[r, n:]
    return from_reduced(p, x)


@by_value(_one_entries, _one_key)
def kernel_basis(a: FpMatrix) -> FpMatrix:
    """Matrix whose columns are the canonical basis of {x : a @ x = 0}."""
    p = a.p
    red, pivots = _rref_array(a.a, p)
    n = a.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    out = np.zeros((n, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for r, pc in enumerate(pivots):
            out[pc, j] = (-red[r, fc]) % p
    return from_reduced(p, out)


@by_value(
    lambda p, n, sub_basis: n * (sub_basis.a.shape[1] + n),
    lambda p, n, sub_basis: (p, n, sub_basis.a.shape, sub_basis.key),
)
def quotient_space(p: int, ambient_dim: int, sub_basis: FpMatrix) -> tuple[FpMatrix, FpMatrix]:
    """Projection and section for k^ambient_dim / colspan(sub_basis).

    proj is surjective with kernel exactly the column span; lift satisfies
    proj @ lift = identity on the quotient.
    """
    if sub_basis.rows != ambient_dim:
        raise ValueError("sub_basis rows must equal ambient dimension")
    # pivot-greedy: a basis of the span, then the unit vectors that extend it
    aug = np.hstack([sub_basis.a, np.eye(ambient_dim, dtype=np.int64)])
    red, pivots = _rref_array(aug, p)
    base_cols = sum(1 for c in pivots if c < sub_basis.cols)
    lift = from_reduced(p, aug[:, list(pivots[base_cols:])])
    # aug contains the identity, so it has full row rank, its pivot columns
    # form the invertible full = [base | lift], and rref(aug) = full⁻¹ · aug:
    # the right block of rref(aug) is full⁻¹, and proj is its rows past base
    proj = from_reduced(p, red[base_cols:, sub_basis.cols :].copy())
    verify((proj @ sub_basis).is_zero(), "quotient_space: the projection does not kill the subspace")
    verify(proj @ lift == FpMatrix.identity(p, lift.cols), "quotient_space: the lift does not split the projection")
    return proj, lift


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product a ⊗ b of two 2-D arrays, as np.kron, by one
    broadcast product instead of np.kron's general n-D route."""
    (m, n), (q, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * q, n * s)


class BlockSystem:
    """Homogeneous linear equations in matrix unknowns over F_p.

    Unknowns are declared in order, each under a key with its shape; the
    flat unknown vector holds them one after another, each row-major.  An
    equation is a sum of signed terms sign * A @ X_key @ B = 0, where an A
    or B of None is the identity, assembled as vec(A X B) = (A ⊗ Bᵀ) vec(X).
    """

    def __init__(self, p: int):
        self.p = p
        self.layout: dict = {}  # key -> (offset, rows, cols)
        self.n = 0
        self._equations: list = []  # (row count, [(offset, coefficient block)])
        self._rows = 0

    def unknown(self, key, rows: int, cols: int) -> None:
        self.layout[key] = (self.n, rows, cols)
        self.n += rows * cols

    def equation(self, *terms) -> None:
        """Add sum(sign * A @ X_key @ B) = 0, one term (sign, A, key, B) each."""
        shapes = set()
        for _, a, key, b in terms:
            _, r, c = self.layout[key]
            shapes.add((r if a is None else a.shape[0], c if b is None else b.shape[1]))
        if len(shapes) != 1:
            raise ValueError(f"equation terms disagree in shape: {sorted(shapes)}")
        r, c = shapes.pop()
        if r * c == 0:
            return
        parts = []
        for sign, a, key, b in terms:
            o, xr, xc = self.layout[key]
            if xr * xc:
                left = np.eye(xr, dtype=np.int64) if a is None else a
                right = np.eye(xc, dtype=np.int64) if b is None else b
                parts.append((o, sign * kron(left, right.T)))
        self._equations.append((r * c, parts))
        self._rows += r * c

    def kernel(self) -> FpMatrix:
        """Columns: the canonical basis of the solution space (see kernel_basis)."""
        system = np.zeros((self._rows, self.n), dtype=np.int64)
        r0 = 0
        for rows, parts in self._equations:
            for o, block in parts:
                system[r0 : r0 + rows, o : o + block.shape[1]] += block
            r0 += rows
        system %= self.p
        return kernel_basis(from_reduced(self.p, system))

    def blocks(self, vec: np.ndarray) -> dict:
        """A flat unknown vector split into its matrix blocks, by key."""
        return {key: vec[o : o + r * c].reshape(r, c) for key, (o, r, c) in self.layout.items()}


class BlockMaps:
    """Block-diagonal linear maps stored as flat coordinate vectors.

    A map k^s_1 (+) ... (+) k^s_r -> k^d_1 (+) ... (+) k^d_r sending block i
    into block i is its r matrices d_i x s_i, each row-major, one after
    another: the order in which a BlockSystem declaring them block by block
    lays out its unknowns.  Source and target are named by their dims tuples
    (s_1, ..., s_r) and (d_1, ..., d_r); layouts, identities, summand
    injections and projections and composition plans depend on nothing else
    and are built once per tuple pair (triple).
    Composition g o f multiplies block by block, skipping blocks whose
    product is empty; nothing block-diagonal is ever stored.
    """

    @memo
    def layout(self, src: tuple, dst: tuple) -> tuple[tuple, int]:
        """((offset, rows, cols) per block, total length) of the maps src -> dst."""
        blocks, o = [], 0
        for c, r in zip(src, dst):
            blocks.append((o, r, c))
            o += r * c
        return tuple(blocks), o

    def size(self, src: tuple, dst: tuple) -> int:
        return self.layout(src, dst)[1]

    def split(self, vec: np.ndarray, src: tuple, dst: tuple) -> list[np.ndarray]:
        """The block matrices of a flat map (views of vec)."""
        return [vec[o : o + r * c].reshape(r, c) for o, r, c in self.layout(src, dst)[0]]

    @memo
    def summand_positions(self, x: tuple, s: tuple, total: tuple, before: tuple, into: bool) -> np.ndarray:
        """Where the coordinates of a flat map x -> s (into) or s -> x land in
        the flat map x -> total (resp. total -> x) composed with the canonical
        injection (projection) of the summand s of total that starts at
        before: rows, resp. columns, before_i onwards of every block i.

        Runs (start, length), one per block (per row of a block), written out
        by Python ranges: most are a few entries long, and often uncached."""
        if into:
            runs = [(o + b_i * c, s_i * c) for (o, _, c), s_i, b_i in zip(self.layout(x, total)[0], s, before)]
        else:
            blocks = self.layout(total, x)[0]
            runs = [(o + b_i + i * c, s_i) for (o, r, c), s_i, b_i in zip(blocks, s, before) for i in range(r)]
        return np.array([k for a, n in runs for k in range(a, a + n)], dtype=np.int64)

    @memo
    def corner_positions(self, s: tuple, t: tuple, src: tuple, dst: tuple, s_at: tuple, t_at: tuple) -> np.ndarray:
        """Where the coordinates of a flat map s -> t land in the flat map
        src -> dst inj_t o h o proj_s, for the summands s of src starting at
        s_at and t of dst starting at t_at."""
        outer = self.summand_positions(dst, s, src, s_at, False)
        return outer[self.summand_positions(s, t, dst, t_at, True)]

    @memo
    def summand_maps(self, s: tuple, total: tuple, before: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Flat canonical injection s -> total and projection total -> s of
        the summand s of total that starts at before (read-only), built once
        per (s, total, before)."""
        inj = np.zeros(self.size(s, total), dtype=np.int64)
        inj[self.summand_positions(s, s, total, before, True)] = self.identity(s)
        prj = np.zeros(self.size(total, s), dtype=np.int64)
        prj[self.summand_positions(s, s, total, before, False)] = self.identity(s)
        inj.setflags(write=False)
        prj.setflags(write=False)
        return inj, prj

    @memo
    def identity(self, dims: tuple) -> np.ndarray:
        out = np.concatenate([np.eye(d, dtype=np.int64).reshape(-1) for d in dims] or [np.zeros(0, np.int64)])
        out.setflags(write=False)
        return out

    @memo
    def zeros(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.int64)
        out.setflags(write=False)
        return out

    def compose(self, g: np.ndarray, f: np.ndarray, x: tuple, y: tuple, z: tuple, p: int) -> np.ndarray:
        """Flat g o f, reduced, for flat maps f: x -> y and g: y -> z."""
        n, products = self._plan(x, y, z)
        out = np.zeros(n, dtype=np.int64)
        for gs, g_shape, fs, f_shape, hs in products:
            out[hs] = (g[gs].reshape(g_shape) @ f[fs].reshape(f_shape)).reshape(-1)
        out %= p
        return out

    def left_stack(self, g: np.ndarray, rows: np.ndarray, x: tuple, y: tuple, z: tuple) -> np.ndarray:
        """Unreduced k x len(h) array whose row i is flat g o f_i, for the rows
        f_i: x -> y of rows and a flat map g: y -> z."""
        n, products = self._plan(x, y, z)
        k = len(rows)
        out = np.zeros((k, n), dtype=np.int64)
        if k:
            # one batched matmul per block: a fixed block against a k-stack
            for gs, g_shape, fs, f_shape, hs in products:
                out[:, hs] = (g[gs].reshape(g_shape) @ rows[:, fs].reshape(k, *f_shape)).reshape(k, -1)
        return out

    def right_stack(self, rows: np.ndarray, m: np.ndarray, x: tuple, y: tuple, z: tuple) -> np.ndarray:
        """Unreduced k x len(h) array whose row i is flat f_i o m, for the rows
        f_i: y -> z of rows and a flat map m: x -> y."""
        n, products = self._plan(x, y, z)
        k = len(rows)
        out = np.zeros((k, n), dtype=np.int64)
        if k:
            for gs, g_shape, fs, f_shape, hs in products:
                out[:, hs] = (rows[:, gs].reshape(k, *g_shape) @ m[fs].reshape(f_shape)).reshape(k, -1)
        return out

    @memo
    def _plan(self, x: tuple, y: tuple, z: tuple):
        """(len of h, per-block products) for h = g o f, f: x -> y and
        g: y -> z; built once per dims triple."""
        f_blocks, _ = self.layout(x, y)
        g_blocks, _ = self.layout(y, z)
        h_blocks, n = self.layout(x, z)
        # only blocks with a nonzero product do any work
        products = tuple(
            (
                slice(go, go + z_i * y_i), (z_i, y_i),
                slice(fo, fo + y_i * x_i), (y_i, x_i),
                slice(ho, ho + z_i * x_i),
            )
            for (fo, y_i, x_i), (go, z_i, _), (ho, _, _) in zip(f_blocks, g_blocks, h_blocks)
            if z_i * y_i * x_i
        )
        return n, products


def all_vectors(p: int, n: int) -> Iterator[np.ndarray]:
    for tup in product(range(p), repeat=n):
        yield np.array(tup, dtype=np.int64)


def count_subspaces(p: int, n: int) -> int:
    total = 0
    for k in range(n + 1):
        num = 1
        for i in range(k):
            num *= (p**n - p**i)
        den = 1
        for i in range(k):
            den *= (p**k - p**i)
        total += num // den if k else 1
    return total


def all_subspaces(p: int, n: int) -> list[FpMatrix]:
    """Inclusion matrices (n x k, columns a canonical basis) of every subspace.

    Enumerated via reduced-echelon normal forms, so each subspace appears
    exactly once and the order is deterministic.
    """
    out = []
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free_positions = []
            for r in range(k):
                for c in range(pivots[r] + 1, n):
                    if c not in pivots:
                        free_positions.append((r, c))
            for vals in product(range(p), repeat=len(free_positions)):
                m = np.zeros((k, n), dtype=np.int64)
                for r in range(k):
                    m[r, pivots[r]] = 1
                for (r, c), v in zip(free_positions, vals):
                    m[r, c] = v
                out.append(from_reduced(p, m.T))
    return out


def linear_combinations(p: int, basis: list, cap: int) -> tuple[list, bool]:
    """All F_p-combinations of basis elements when p^len(basis) <= cap.

    Returns (coefficient vectors, exhaustive flag); above the cap, only the
    zero vector and the unit vectors are returned and the flag is False.
    """
    n = len(basis)
    if p**n <= cap:
        return [np.array(t, dtype=np.int64) for t in product(range(p), repeat=n)], True
    vecs = [np.zeros(n, dtype=np.int64)]
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        vecs.append(e)
    return vecs, False
