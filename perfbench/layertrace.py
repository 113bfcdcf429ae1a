"""Per-layer tracing from outside the program, by attribute replacement.

`install` wraps the public functions listed in TARGETS.  A span wrapper
records (name, parent, start, end) in flat in-memory arrays; a count
wrapper only counts calls, for functions called millions of times.  Module
functions are replaced in every exactcat module that holds a reference to
them (the modules import each other's functions by name); methods are
replaced on their class.  A target that no longer exists is listed as
absent and its metrics read 0.

The block-completion search in quotient.py eliminates through the private
fflinalg._rref_array, so those eliminations appear only inside the
q_is_iso_blocksearch span and not in the fflinalg.elim.* counts.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = ("fflinalg", "category", "repcat", "approx", "quotient", "classes", "conflcat", "cli")

ELIM_BUCKETS = ((4, "le4"), (64, "le64"), (None, "gt64"))


def _elim_entries(name, args):
    if name == "solve_right":
        a, b = args[0], args[1]
        return a.rows * (a.cols + b.cols)
    if name == "quotient_space":
        return args[1] * args[2].cols
    return args[0].a.size


# (metric prefix, module, attribute path, kind).  kind "span" records spans,
# "count" only counts calls.
TARGETS = (
    ("fflinalg.FpMatrix", "fflinalg", "FpMatrix.__init__", "count"),
    ("fflinalg.matmul", "fflinalg", "FpMatrix.__matmul__", "count"),
    ("fflinalg.rref", "fflinalg", "rref", "span"),
    ("fflinalg.solve_right", "fflinalg", "solve_right", "span"),
    ("fflinalg.kernel_basis", "fflinalg", "kernel_basis", "span"),
    ("fflinalg.quotient_space", "fflinalg", "quotient_space", "span"),
    ("category.hom_basis", "category", "Category.hom_basis", "count"),
    ("repcat.hom_solve", "repcat", "RepCategory._solve_hom_basis", "span"),
    ("repcat.enumerate_subobjects", "repcat", "RepCategory.enumerate_subobjects", "span"),
    ("repcat.enumerate_extensions", "repcat", "RepCategory.enumerate_extensions", "span"),
    ("repcat.cokernel", "repcat", "RepCategory.cokernel", "span"),
    ("approx.precover", "approx", "AddSubcat.precover", "span"),
    ("approx.contains", "approx", "AddSubcat.contains", "span"),
    ("approx.is_ideal_member", "approx", "AddSubcat.is_ideal_member", "span"),
    ("approx.ideal_basis", "approx", "AddSubcat.ideal_basis", "count"),
    ("quotient.qhom", "quotient", "qhom", "span"),
    ("quotient.q_is_iso", "quotient", "q_is_iso", "span"),
    ("quotient.q_is_iso_blocksearch", "quotient", "q_is_iso_blocksearch", "span"),
    ("quotient.q_coim_im", "quotient", "q_coim_im", "span"),
    ("quotient.q_is_mono", "quotient", "q_is_mono", "span"),
    ("quotient.verify_semiabelian", "quotient", "verify_semiabelian", "span"),
    ("quotient.verify_abelian", "quotient", "verify_abelian", "span"),
    ("quotient.iso_agreement_sweep", "quotient", "iso_agreement_sweep", "span"),
    ("classes.in_class_s", "classes", "in_class_s", "span"),
    ("classes.in_class_t", "classes", "in_class_t", "span"),
    ("classes.abelianness_crosscheck", "classes", "abelianness_crosscheck", "span"),
    ("conflcat.hom_solve", "conflcat", "ConflCategory._solve_hom_basis", "span"),
    ("conflcat.enumerate_extensions", "conflcat", "ConflCategory.enumerate_extensions", "span"),
    (
        "conflcat.check_hom_exactness_matches_splitting",
        "conflcat",
        "check_hom_exactness_matches_splitting",
        "span",
    ),
    (
        "conflcat.verify_splitting_pseudo_cluster_tilting",
        "conflcat",
        "verify_splitting_pseudo_cluster_tilting",
        "span",
    ),
    ("conflcat.sweep_hom_exactness_biconditional", "conflcat", "sweep_hom_exactness_biconditional", "span"),
    ("conflcat.cluster_quotient_harness", "conflcat", "cluster_quotient_harness", "span"),
    ("cli.parse_spec", "cli", "parse_spec", "span"),
    ("cli.cmd.check_pct", "cli", "cmd_check_pct", "span"),
    ("cli.cmd.quotient", "cli", "cmd_quotient", "span"),
    ("cli.cmd.classes", "cli", "cmd_classes", "span"),
    ("cli.cmd.confl", "cli", "cmd_confl", "span"),
    ("cli.cmd.iso_agreement", "cli", "cmd_iso_agreement", "span"),
    ("cli.cmd.verify_paper", "cli", "cmd_verify_paper", "span"),
)

# A sweep decides each quotient class once, by one call of its decision
# function; (sweep, decision) pairs of direct parent and child spans.
DECISIONS = (
    ("quotient.verify_semiabelian", "quotient.q_coim_im"),
    ("quotient.verify_abelian", "quotient.q_is_mono"),
    ("quotient.iso_agreement_sweep", "quotient.q_is_iso_blocksearch"),
)
SWEEPS = tuple(s for s, _ in DECISIONS)
# layers with at least one span target, the ones that have a self time
SPAN_LAYERS = tuple(layer for layer in LAYERS if any(t[1] == layer and t[3] == "span" for t in TARGETS))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.gt64_spans: list[int] = []
        self.absent: list[str] = []

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _max(self, key: str, v: int) -> None:
        if v > self.maxima.get(key, 0):
            self.maxima[key] = v

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        short = name.rsplit(".", 1)[1]
        elim = name.startswith("fflinalg.") and short in ("rref", "solve_right", "kernel_basis", "quotient_space")
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            span_start.append(t0)  # appended last, so idx indexes all four arrays
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_end[idx] = t1
                stack.pop()
            tracer._observe(name, short, elim, args, result, idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, short, elim, args, result, idx) -> None:
        if elim:
            entries = _elim_entries(short, args)
            for limit, bucket in ELIM_BUCKETS:
                if limit is None or entries <= limit:
                    self._count(f"fflinalg.elim.{bucket}")
                    break
            if entries > 64:
                self.gt64_spans.append(idx)
            self._max("fflinalg.elim.max_entries", entries)
        elif name in ("repcat.enumerate_subobjects", "repcat.enumerate_extensions"):
            self._count(f"{name}.yield", len(result))
        elif name == "approx.precover":
            cat = args[0].cat
            self._max("approx.precover.max_dim", cat.obj_dim(cat.src(result)))
        elif name in ("classes.in_class_s", "classes.in_class_t"):
            self._count("classes.subobjects_examined", len(result.examined))
        elif name in SWEEPS:
            self._count("quotient.morphisms_checked", result.checked)

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"exactcat.{m}") for m in LAYERS}
        for name, mod_name, attr, kind in TARGETS:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = owner.__dict__.get(leaf) if owner is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapped = make(name, fn)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("exactcat") and getattr(mod, leaf, None) is fn:
                    setattr(mod, leaf, wrapped)

    def metrics(self, time_scale: float, pause_starts: list[float], pauses: list[float]) -> dict:
        """Per-layer calls, busy_s and self_s for one traced op.

        pause_starts/pauses are the calibration samples taken during the op:
        each is subtracted from every span open while it ran, and the times
        that remain are multiplied by time_scale.
        """
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        start, end = np.array(self.span_start), np.array(self.span_end)
        paused = np.concatenate(([0.0], np.cumsum(pauses)))
        starts = np.array(pause_starts)
        paused = paused[np.searchsorted(starts, end)] - paused[np.searchsorted(starts, start)]
        dur = (end - start - paused) * time_scale
        n_names = len(self.names)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(names, minlength=n_names)
        # a span nested in a span of the same name is not busy time twice
        parent_name = np.full(len(names), -1)
        parent_name[has_parent] = names[parents[has_parent]]
        # nor is a large elimination nested in another (quotient_space calls solve_right)
        outer = np.ones(len(names), dtype=bool)
        gt64 = np.zeros(len(names), dtype=bool)
        gt64[self.gt64_spans] = True
        outer_gt64 = gt64.copy()
        anc = parents.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            at = np.where(live, anc, 0)
            outer[live & (names[at] == names)] = False
            outer_gt64[live & gt64[at]] = False
            anc = np.where(live, parents[at], -1)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=n_names)
        selfs = np.bincount(names, weights=self_time, minlength=n_names)

        out: dict[str, float] = {}
        for name, _, _, kind in TARGETS:
            if kind == "count":
                out[f"{name}.calls"] = self.counts.get(name, 0)
                continue
            nid = self.names.index(name) if name in self.names else None
            out[f"{name}.calls"] = int(calls[nid]) if nid is not None else 0
            out[f"{name}.busy_s"] = float(busy[nid]) if nid is not None else 0.0
        for layer in SPAN_LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = float(selfs[ids].sum()) if ids else 0.0
        for key in (
            "fflinalg.elim.le4",
            "fflinalg.elim.le64",
            "fflinalg.elim.gt64",
            "repcat.enumerate_subobjects.yield",
            "repcat.enumerate_extensions.yield",
            "classes.subobjects_examined",
        ):
            out[key] = self.counts.get(key, 0)
        out["fflinalg.elim.gt64.busy_s"] = float(dur[outer_gt64].sum())
        out["fflinalg.elim.max_entries"] = self.maxima.get("fflinalg.elim.max_entries", 0)
        out["approx.precover.max_dim"] = self.maxima.get("approx.precover.max_dim", 0)

        solves = out["repcat.hom_solve.calls"] + out["conflcat.hom_solve.calls"]
        hom_calls = out["category.hom_basis.calls"]
        out["category.hom_basis.hit_ratio"] = 1.0 - solves / hom_calls if hom_calls else 0.0
        decided = 0
        for sweep, decision in DECISIONS:
            if sweep in self.names and decision in self.names:
                s, d = self.names.index(sweep), self.names.index(decision)
                decided += int(np.count_nonzero((names == d) & (parent_name == s)))
        checked = self.counts.get("quotient.morphisms_checked", 0)
        out["quotient.classes_decided"] = decided
        out["quotient.dedup_ratio"] = decided / checked if checked else 0.0
        out["trace.spans"] = len(names)
        return out

    def save(self, path: str) -> None:
        """Write every span (name, parent, start, end) out as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
        )
