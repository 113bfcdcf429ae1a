"""Finite-dimensional quiver representations over F_p: the one host category.

Objects assign an F_p vector space to every vertex and a matrix to every
arrow; morphisms are vertex-wise matrices making every arrow square commute.
The exact structure is all short exact sequences (the category is abelian),
so kernels and cokernels are computed vertex-wise with induced arrow maps;
pullbacks, pushouts and images are the generic ones of `Category`, built
from them.

A quiver may carry relations, each a signed sum of paths of length 2.
`RepCategory` builds every object through `self.obj` and every morphism
through `self._mor`/`self.mor`, so a subclass inherits the whole host: the
category of conflations (`conflcat.ConflCategory`) is the representations
of the bound quiver Q x A3 whose rows are exact.  Extensions are enumerated
as glue blocks on the split coordinates, one block per arrow and one
equation per relation of the quiver, one conflation per solution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

import numpy as np

from . import fflinalg as ff
from .category import Category, Conflation, EnumerationBound, verify
from .fflinalg import FpMatrix


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Quiver:
    """Vertices, arrows and relations.  A relation is a list of signed paths
    (sign, alpha, beta), the arrow alpha then the arrow beta, summing to
    zero; every path of a relation runs between the same two vertices."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple = ()
    # coordinate layouts and composition plans of the vertex-wise maps between
    # its representations (and of chain maps between conflations of them)
    blocks: ff.BlockMaps = field(default_factory=ff.BlockMaps, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.src not in vs or a.dst not in vs:
                raise ValueError(f"arrow {a.name} references unknown vertex")
        # stored as tuples, so that a bound quiver stays hashable
        relations = tuple(tuple(tuple(t) for t in r) for r in self.relations)
        object.__setattr__(self, "relations", relations)
        by_name = {a.name: a for a in self.arrows}
        for r in relations:
            paths = [(by_name.get(alpha), by_name.get(beta)) for _, alpha, beta in r]
            if not all(a and b and a.dst == b.src for a, b in paths) or len({(a.src, b.dst) for a, b in paths}) > 1:
                raise ValueError(f"relation {r} is not a sum of parallel paths of length 2")


def a_n(n: int) -> Quiver:
    """Linear quiver 1 -> 2 -> ... -> n."""
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    return Quiver(vertices, arrows)


class RepObj:
    """A representation: dims per vertex, one matrix per arrow."""

    __slots__ = ("quiver", "p", "dims", "dimv", "maps", "name", "_key")

    def __init__(self, quiver: Quiver, p: int, dims: dict[str, int], maps: dict[str, FpMatrix], name: str = ""):
        self.quiver = quiver
        self.p = p
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        self.dimv = tuple(self.dims[v] for v in quiver.vertices)
        self.maps = {}
        for a in quiver.arrows:
            m = maps.get(a.name)
            if m is None:
                m = FpMatrix.zeros(p, self.dims[a.dst], self.dims[a.src])
            if m.a.shape != (self.dims[a.dst], self.dims[a.src]):
                raise ValueError(
                    f"arrow {a.name}: matrix shape {m.a.shape} != "
                    f"({self.dims[a.dst]}, {self.dims[a.src]})"
                )
            self.maps[a.name] = m
        self.name = name
        self._key = None

    @property
    def key(self):
        if self._key is None:
            self._key = (self.dimv, tuple(self.maps[a.name].key for a in self.quiver.arrows))
        return self._key

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        dims = ",".join(str(self.dims[v]) for v in self.quiver.vertices)
        return f"rep({dims})"

    def __eq__(self, other):
        return isinstance(other, RepObj) and self.p == other.p and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"<RepObj {self.label}>"


_new_object = object.__new__


class RepMor:
    """A morphism of representations: one matrix per vertex, squares commute.

    Stored as one read-only flat vector `vec`, the vertex components
    row-major in vertex order (see category).  The public constructor takes
    the components by vertex and, with check, tests every arrow square;
    `_trusted` wraps a vector that is already known to be a morphism.
    """

    __slots__ = ("src", "dst", "vec")

    def __init__(self, src: RepObj, dst: RepObj, comps: dict[str, FpMatrix], check: bool = True):
        vec = flat_map(src, dst, comps)
        self.src = src
        self.dst = dst
        self.vec = vec
        if check:
            check_squares(src, dst, vec[None, :])

    @classmethod
    def _trusted(cls, src: RepObj, dst: RepObj, vec: np.ndarray) -> "RepMor":
        """Trusted constructor: vec is a reduced, read-only flat morphism src -> dst."""
        f = _new_object(cls)
        f.src = src
        f.dst = dst
        f.vec = vec
        return f

    def comp(self, v: str) -> FpMatrix:
        """The component at vertex v (a view of the vector)."""
        q = self.src.quiver
        block = q.blocks.split(self.vec, self.src.dimv, self.dst.dimv)[q.vertices.index(v)]
        return ff.from_reduced(self.src.p, block)

    def is_zero(self) -> bool:
        return not self.vec.any()

    def __repr__(self):
        return f"<RepMor {self.src.label} -> {self.dst.label}>"


def flat_map(src: RepObj, dst: RepObj, comps: dict[str, FpMatrix]) -> np.ndarray:
    """The read-only flat vector of the vertex-wise map src -> dst with
    component comps[v] at each vertex v (absent: zero); shapes checked."""
    parts = [np.zeros(0, dtype=np.int64)]
    for v in src.quiver.vertices:
        shape = (dst.dims[v], src.dims[v])
        m = comps.get(v)
        if m is None:
            parts.append(np.zeros(shape[0] * shape[1], dtype=np.int64))
        elif m.a.shape != shape:
            raise ValueError(f"vertex {v}: component shape {m.a.shape} != {shape}")
        else:
            parts.append(m.a.reshape(-1))
    vec = np.concatenate(parts)
    vec.setflags(write=False)
    return vec


def square_defect(x: RepObj, y: RepObj, rows: np.ndarray) -> Optional[str]:
    """None when every row of rows, a flat map x -> y, makes every arrow
    square commute, else which arrow fails; one batched product per arrow end.
    The square of an arrow i -> j is empty, so commutes, when y_j x_i = 0."""
    k = rows.shape[0]
    xd, yd = x.dims, y.dims
    arrows = [a for a in x.quiver.arrows if yd[a.dst] * xd[a.src]]
    if not arrows:
        return None
    used = {a.src for a in arrows} | {a.dst for a in arrows}
    mats = {
        v: rows[:, o : o + r * c].reshape(k, r, c)
        for v, (o, r, c) in zip(x.quiver.vertices, x.quiver.blocks.layout(x.dimv, y.dimv)[0])
        if v in used
    }
    for a in arrows:
        diff = mats[a.dst] @ x.maps[a.name].a - y.maps[a.name].a @ mats[a.src]
        if (diff % x.p).any():
            return f"arrow {a.name}: commuting-square law violated"
    return None


def check_squares(x: RepObj, y: RepObj, rows: np.ndarray) -> None:
    """Raise ValueError unless every row of rows, a flat map x -> y, makes
    every arrow square commute (see square_defect)."""
    defect = square_defect(x, y, rows)
    if defect is not None:
        raise ValueError(defect)


def block_triangular(a: np.ndarray, b, d: np.ndarray) -> np.ndarray:
    """[[a, b], [0, d]] as a fresh int64 array; b None is the zero block."""
    out = np.zeros((a.shape[0] + d.shape[0], a.shape[1] + d.shape[1]), dtype=np.int64)
    out[: a.shape[0], : a.shape[1]] = a
    if b is not None:
        out[: a.shape[0], a.shape[1] :] = b
    out[a.shape[0] :, a.shape[1] :] = d
    return out


class RepCategory(Category):
    """The abelian category of representations of one quiver over F_p."""

    _mor = staticmethod(RepMor._trusted)

    def __init__(self, quiver: Quiver, p: int = 2):
        super().__init__()
        if p not in ff.SUPPORTED_PRIMES:
            raise ValueError(f"unsupported characteristic {p}")
        self.quiver = quiver
        self.p = p
        self.blocks = quiver.blocks
        self._zero = self.obj({}, name="0")

    # -- objects ---------------------------------------------------------
    def obj(self, dims: dict[str, int], maps: dict[str, FpMatrix] | None = None, name: str = "") -> RepObj:
        """The object with these vertex dims and arrow maps (absent: zero)."""
        return RepObj(self.quiver, self.p, dims, maps or {}, name)

    # kept for perfbench/layertrace.py: Tracer._observe reads cat.obj_dim(cat.src(precover))
    def obj_dim(self, x: RepObj) -> int:
        return x.total_dim

    def zero_obj(self) -> RepObj:
        return self._zero

    def direct_sum(self, xs: Sequence[RepObj]) -> tuple[RepObj, list[RepMor], list[RepMor]]:
        dims = {v: sum(x.dims[v] for x in xs) for v in self.quiver.vertices}
        maps = {
            a.name: ff.block_diag([x.maps[a.name] for x in xs], self.p) if xs else FpMatrix.zeros(self.p, 0, 0)
            for a in self.quiver.arrows
        }
        total = self.obj(dims, maps)
        injs, projs = [], []
        before = (0,) * len(self.quiver.vertices)
        for x in xs:
            inj, prj = self.summand_maps(x, total, before)
            injs.append(inj)
            projs.append(prj)
            before = tuple(b + d for b, d in zip(before, x.dimv))
        self._register_sum(total, xs)
        return total, injs, projs

    def summand_maps(self, x: RepObj, total: RepObj, before: tuple) -> tuple[RepMor, RepMor]:
        """The inclusion x -> total and the projection total -> x of a summand
        whose coordinates start at before[v] in every vertex v."""
        inj, prj = self.blocks.summand_maps(x.dimv, total.dimv, before)
        return self._mor(x, total, inj), self._mor(total, x, prj)

    def glued_middle(self, x: RepObj, z: RepObj, glue: dict, check: bool = True) -> tuple[RepObj, RepMor, RepMor]:
        """x -> Y -> z on the coordinates x (+) z, Y_a = [[x_a, glue_a], [0, z_a]].

        glue maps an arrow name to its x.dims[dst] x z.dims[src] block (absent:
        zero, the plain biproduct); returns Y with the canonical inclusion and
        projection.
        """
        dims = {v: x.dims[v] + z.dims[v] for v in self.quiver.vertices}
        maps = {
            a.name: FpMatrix(self.p, block_triangular(x.maps[a.name].a, glue.get(a.name), z.maps[a.name].a))
            for a in self.quiver.arrows
        }
        mid = self.obj(dims, maps)
        inc, _ = self.summand_maps(x, mid, (0,) * len(self.quiver.vertices))
        _, prj = self.summand_maps(z, mid, x.dimv)
        if check:
            check_squares(x, mid, inc.vec[None, :])
            check_squares(mid, z, prj.vec[None, :])
        return mid, inc, prj

    # -- morphisms -------------------------------------------------------
    def mor(self, src: RepObj, dst: RepObj, comps: dict[str, FpMatrix]) -> RepMor:
        """The morphism with component comps[v] at every vertex v, its squares checked."""
        vec = flat_map(src, dst, comps)
        check_squares(src, dst, vec[None, :])
        return self._mor(src, dst, vec)

    def _solve_hom_basis(self, x: RepObj, y: RepObj) -> np.ndarray:
        # one unknown block y_v x x_v per vertex v, declared in flat order so
        # that kernel columns are morphisms, and the commuting square
        # y_a X_i = X_j x_a of every arrow a: i -> j
        system = ff.BlockSystem(self.p)
        for v in self.quiver.vertices:
            system.unknown(v, y.dims[v], x.dims[v])
        for a in self.quiver.arrows:
            system.equation((1, None, a.dst, x.maps[a.name].a), (-1, y.maps[a.name].a, a.src, None))
        rows = system.kernel().a.T.copy()
        check_squares(x, y, rows)
        return rows

    # -- exact structure ---------------------------------------------------
    def check_conflation(self, c: Conflation) -> None:
        incl, defl = c.incl, c.defl
        if incl.dst is not defl.src and incl.dst.key != defl.src.key:
            raise ValueError("conflation: incl.dst != defl.src")
        if self.compose(defl, incl).vec.any():
            raise ValueError("conflation: defl o incl != 0")
        incl_ranks = [ff.array_rank(m, self.p) for m in self.mor_components(incl)]
        defl_ranks = [ff.array_rank(m, self.p) for m in self.mor_components(defl)]
        if tuple(incl_ranks) != incl.src.dimv:
            raise ValueError("conflation: incl not vertex-wise injective")
        if tuple(defl_ranks) != defl.dst.dimv:
            raise ValueError("conflation: defl not vertex-wise surjective")
        for v, ri, rd, n in zip(self.quiver.vertices, incl_ranks, defl_ranks, incl.dst.dimv):
            if ri + rd != n:
                raise ValueError(f"conflation: not exact in the middle at vertex {v}")

    def conflation(self, incl: RepMor, defl: RepMor) -> Conflation:
        c = Conflation(incl, defl)
        self.check_conflation(c)
        return c

    def kernel(self, f: RepMor) -> tuple[RepObj, RepMor]:
        bases = {v: ff.kernel_basis(f.comp(v)) for v in self.quiver.vertices}
        dims = {v: bases[v].cols for v in self.quiver.vertices}
        maps = {}
        for a in self.quiver.arrows:
            rhs = f.src.maps[a.name] @ bases[a.src]
            sol = ff.solve_right(bases[a.dst], rhs)
            verify(sol is not None, f"kernel: arrow {a.name} does not preserve the vertex kernels")
            maps[a.name] = sol
        k_obj = self.obj(dims, maps)
        return k_obj, self.mor(k_obj, f.src, bases)

    def cokernel(self, f: RepMor) -> tuple[RepObj, RepMor, np.ndarray]:
        """(C, c, section): the cokernel c: f.dst -> C, and the flat
        vertexwise section C -> f.dst of c (c_v section_v = 1 at every vertex
        v; not a morphism in general) that induces C's arrow maps."""
        projs, lifts = {}, {}
        for v in self.quiver.vertices:
            proj, lift = ff.quotient_space(self.p, f.dst.dims[v], f.comp(v))
            projs[v], lifts[v] = proj, lift
        dims = {v: projs[v].rows for v in self.quiver.vertices}
        maps = {}
        for a in self.quiver.arrows:
            maps[a.name] = projs[a.dst] @ f.dst.maps[a.name] @ lifts[a.src]
        c_obj = self.obj(dims, maps)
        return c_obj, self.mor(f.dst, c_obj, projs), flat_map(c_obj, f.dst, lifts)

    # -- enumeration -------------------------------------------------------
    def enumerate_subobjects(self, x: RepObj, bound: int = 8) -> list[RepMor]:
        """One inclusion per subrepresentation, in a canonical order.

        Works vertex-by-vertex over all subspace tuples, keeping the
        arrow-stable ones; refuses above the total-dimension bound so that
        membership decisions built on it stay decisions.
        """
        if x.total_dim > bound:
            raise EnumerationBound(
                f"subobject enumeration needs bound >= {x.total_dim}, have {bound}",
                x.total_dim,
            )
        per_vertex = {v: ff.all_subspaces(self.p, x.dims[v]) for v in self.quiver.vertices}
        out = []
        vs = list(self.quiver.vertices)
        for combo in product(*(per_vertex[v] for v in vs)):
            incl = dict(zip(vs, combo))
            maps = {}
            for a in self.quiver.arrows:
                # the restricted arrow map; None when the subspaces are not arrow-stable
                maps[a.name] = ff.solve_right(incl[a.dst], x.maps[a.name] @ incl[a.src])
                if maps[a.name] is None:
                    break
            else:
                sub = self.obj({v: incl[v].cols for v in vs}, maps)
                out.append(self.mor(sub, x, incl))
        out.sort(key=lambda m: (m.src.total_dim, m.src.key, m.vec.tobytes()))
        return out

    def enumerate_extensions(self, z: RepObj, x: RepObj, cap: int = 4096) -> list[Conflation]:
        """All middle structures 0 -> x -> Y -> z -> 0 on the split coordinates.

        One glue block e_a: z_i -> x_j per arrow a: i -> j, and one equation
        per relation: Y_beta Y_alpha has the corner x_beta e_alpha + e_beta
        z_alpha, so the signed sum of these corners is zero.  Every
        equivalence class of extensions appears (any extension is equivalent
        to one with canonical inclusion/projection and a glue block per
        arrow); the split one is the all-zero glue, and the rest follow the
        coefficient tuples on the kernel basis.  Each middle and its squares
        are checked; the canonical maps are the pair's vectors
        (`BlockMaps.summand_maps`), so the pair is checked as a conflation
        once, on the first.
        """
        system = ff.BlockSystem(self.p)
        for a in self.quiver.arrows:
            system.unknown(a.name, x.dims[a.dst], z.dims[a.src])
        for relation in self.quiver.relations:
            system.equation(
                *(
                    term
                    for sign, alpha, beta in relation
                    for term in ((sign, x.maps[beta].a, alpha, None), (sign, None, beta, z.maps[alpha].a))
                )
            )
        null = system.kernel()
        count = self.p**null.cols
        if count > cap:
            raise EnumerationBound(f"extension enumeration needs cap >= {count}", count)
        out = []
        for coeffs in product(range(self.p), repeat=null.cols):
            vec = null.a @ np.array(coeffs, dtype=np.int64) % self.p
            _, inc, prj = self.glued_middle(x, z, system.blocks(vec))
            out.append(Conflation(inc, prj) if out else self.conflation(inc, prj))
        return out

    def enumerate_objects(self, max_dim: int, cap: int = 100_000) -> list[RepObj]:
        """All representations with every vertex dimension <= max_dim."""
        vs = list(self.quiver.vertices)
        out = []
        for dims_tuple in product(range(max_dim + 1), repeat=len(vs)):
            dims = dict(zip(vs, dims_tuple))
            layout = ff.BlockSystem(self.p)  # one map block per arrow, no equations
            for a in self.quiver.arrows:
                layout.unknown(a.name, dims[a.dst], dims[a.src])
            if self.p**layout.n > cap:
                raise EnumerationBound("object enumeration cap exceeded", self.p**layout.n)
            for vals in product(range(self.p), repeat=layout.n):
                blocks = layout.blocks(np.array(vals, dtype=np.int64))
                out.append(self.obj(dims, {a: FpMatrix(self.p, m) for a, m in blocks.items()}))
                if len(out) > cap:
                    raise EnumerationBound("object enumeration cap exceeded", len(out))
        return out


def opposite(cat: RepCategory) -> RepCategory:
    """The opposite representation category: arrows and relation paths reversed."""
    q = cat.quiver
    arrows = tuple(Arrow(a.name, a.dst, a.src) for a in q.arrows)
    relations = tuple(tuple((sign, beta, alpha) for sign, alpha, beta in r) for r in q.relations)
    return RepCategory(Quiver(q.vertices, arrows, relations), cat.p)


def op_obj(opcat: RepCategory, x: RepObj) -> RepObj:
    maps = {a: m.transpose() for a, m in x.maps.items()}
    return RepObj(opcat.quiver, x.p, dict(x.dims), maps, name=x.name)


def op_mor(opcat: RepCategory, f: RepMor) -> RepMor:
    comps = {v: f.comp(v).transpose() for v in opcat.quiver.vertices}
    return RepMor(op_obj(opcat, f.dst), op_obj(opcat, f.src), comps)


def op_conflation(opcat: RepCategory, c: Conflation) -> Conflation:
    return Conflation(op_mor(opcat, c.defl), op_mor(opcat, c.incl))
