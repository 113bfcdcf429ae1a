"""Seeded spec generator for the benchmark workloads.

Every workload fixes a set of isomorphism classes (interval modules of the
line quiver A_n and direct sums of them) and then applies a random change
of basis at every vertex of every object, drawn from the seed.  The
program therefore sees different matrices for every seed, while every
verdict, every quotient hom dimension and every report counter depends
only on the isomorphism classes and stays the same.

Generation uses only the standard library, so a spec can be produced and
checked without importing the program under test.
"""
from __future__ import annotations

import json
import random

# Indecomposables of A_n with arrows a_k : k -> k+1, as closed intervals of
# vertices.  Names follow the bundled fixtures.
A3_INTERVALS = {
    "P1": (1, 3),
    "P2": (2, 3),
    "S3": (3, 3),
    "S1": (1, 1),
    "I2": (1, 2),
    "S2": (2, 2),
}
A2_INTERVALS = {"P1": (1, 2), "S1": (1, 1), "S2": (2, 2)}


def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _mat_inv(m, p):
    """Inverse of a square matrix mod p, or None when it is singular."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] % p), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [v * inv % p for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _random_gl(rng: random.Random, n: int, p: int):
    """A uniformly random invertible n x n matrix mod p and its inverse."""
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = _mat_inv(g, p)
        if inv is not None:
            return g, inv


class _Rep:
    """A direct sum of interval modules, kept as per-vertex summand lists."""

    def __init__(self, n: int, intervals):
        self.n = n
        # at each vertex, the indices of the summands that live there
        self.at = {v: [k for k, (i, j) in enumerate(intervals) if i <= v <= j] for v in range(1, n + 1)}

    def dim(self, v: int) -> int:
        return len(self.at[v])

    def arrow_matrix(self, v: int):
        """Standard-basis matrix of a_v : v -> v+1 (rows: v+1, cols: v)."""
        src, dst = self.at[v], self.at[v + 1]
        return [[int(s == d) for s in src] for d in dst]


def _component(src: _Rep, dst: _Rep, pairs, v: int):
    """Matrix at vertex v of the map sending summand s to summand d for (s, d) in pairs."""
    rows, cols = dst.at[v], src.at[v]
    return [[int((s, d) in pairs) for s in cols] for d in rows]


def _base_change(rng: random.Random, rep: _Rep, p: int):
    return {v: _random_gl(rng, rep.dim(v), p) for v in range(1, rep.n + 1) if rep.dim(v)}


def _object_json(rep: _Rep, basis, p: int) -> dict:
    dims = {str(v): rep.dim(v) for v in range(1, rep.n + 1) if rep.dim(v)}
    maps = {}
    for v in range(1, rep.n):
        if rep.dim(v) and rep.dim(v + 1):
            g_dst, _ = basis[v + 1]
            _, g_src_inv = basis[v]
            maps[f"a{v}"] = _mat_mul(_mat_mul(g_dst, rep.arrow_matrix(v), p), g_src_inv, p)
    return {"dims": dims, "maps": maps}


def _morphism_json(reps, bases, src: str, dst: str, pairs, p: int) -> dict:
    comps = {}
    s_rep, d_rep = reps[src], reps[dst]
    for v in range(1, s_rep.n + 1):
        if s_rep.dim(v) and d_rep.dim(v):
            m = _component(s_rep, d_rep, pairs, v)
            comps[str(v)] = _mat_mul(_mat_mul(bases[dst][v][0], m, p), bases[src][v][1], p)
    return {"src": src, "dst": dst, "comps": comps}


def make_spec(
    key: str,
    n: int,
    p: int,
    objects: dict,
    subcategories: dict,
    conflations: dict | None = None,
    permute: tuple = (),
) -> dict:
    """Build one spec document; `key` seeds every random choice.

    objects maps a name to a list of interval names (a direct sum);
    subcategories maps a name to its generator list; the subcategories named
    in `permute` get their generator order shuffled by the seed.
    conflations maps a name to (A, B, C, incl pairs, proj pairs), with pairs
    of (source summand index, target summand index) over identity maps.
    """
    intervals = A3_INTERVALS if n == 3 else A2_INTERVALS
    rng = random.Random(f"exactcat-bench/{key}")
    reps = {name: _Rep(n, [intervals[s] for s in parts]) for name, parts in sorted(objects.items())}
    bases = {name: _base_change(rng, rep, p) for name, rep in reps.items()}
    subs = {}
    for name, gens in sorted(subcategories.items()):
        gens = list(gens)
        if name in permute:
            rng.shuffle(gens)
        subs[name] = gens
    confls = {}
    for name, (a, b, c, incl, proj) in sorted((conflations or {}).items()):
        confls[name] = {
            "incl": _morphism_json(reps, bases, a, b, set(incl), p),
            "proj": _morphism_json(reps, bases, b, c, set(proj), p),
        }
    return {
        "schema": "exactcat/1",
        "field": {"char": p},
        "quiver": {
            "vertices": [str(v) for v in range(1, n + 1)],
            "arrows": [{"name": f"a{v}", "from": str(v), "to": str(v + 1)} for v in range(1, n)],
        },
        "objects": {name: _object_json(reps[name], bases[name], p) for name in sorted(reps)},
        "subcategories": subs,
        "conflations": confls,
        "tasks": [],
    }


def spec_bytes(spec: dict) -> bytes:
    return (json.dumps(spec, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
