"""Command-line front end: parse category specs, run suites, emit reports.

Spec files are JSON documents with schema "exactcat/1"; reports are JSON
with schema "exactcat-report/1".  Reports are byte-deterministic across
runs: enumeration orders are canonical and wall-clock timing goes to
stderr only.  Exit codes: 0 all verdicts pass, 1 a verification failed,
2 an enumeration bound was refused.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Optional

from . import classes as confclasses
from . import quotient as qt
from .approx import AddSubcat, is_pseudo_cluster_tilting, is_self_orthogonal
from .category import ConditionError, Conflation, EnumerationBound, VerificationError, conflation_split, verify
from .conflcat import (
    ConflCategory,
    SubstructureTag,
    cluster_quotient_harness,
    factor_split0_conflation,
    substructure_member,
    sweep_hom_exactness_biconditional,
    verify_splitting_pseudo_cluster_tilting,
)
from .fflinalg import SUPPORTED_PRIMES, FpMatrix
from .repcat import Quiver, Arrow, RepCategory, RepMor, RepObj

SPEC_SCHEMA = "exactcat/1"
REPORT_SCHEMA = "exactcat-report/1"


class SpecValidationError(Exception):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class SpecDocument:
    path: str
    cat: RepCategory
    objects: dict[str, RepObj]
    subcategories: dict[str, AddSubcat]
    conflations: dict[str, Conflation]
    tasks: list[dict] = field(default_factory=list)


def parse_spec(path: str) -> SpecDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecValidationError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError([f"malformed JSON in {path}: {exc}"]) from exc
    return build_spec(raw, path)


def _typed(node: dict, key: str, kind: type, where: str, errors: list[str]):
    """node[key] if it is a JSON object (kind dict) or array (kind list), else
    an error and an empty one."""
    val = node.get(key, kind())
    if isinstance(val, kind):
        return val
    errors.append(f"{where}{key} must be a JSON {'object' if kind is dict else 'array'}, got {type(val).__name__}")
    return kind()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _name(v, where: str, errors: list[str]) -> Optional[str]:
    """A vertex or arrow name, a JSON string or integer, as a string; else
    None and an error."""
    if isinstance(v, str) or _is_int(v):
        return str(v)
    errors.append(f"{where} {v!r} is not a JSON string or integer")
    return None


def _matrix(char: int, rows, want: tuple[int, int], where: str, errors: list[str]) -> Optional[FpMatrix]:
    """A rectangular list of integer rows of shape want as a matrix over F_char,
    or None and an error."""
    if not (
        isinstance(rows, list)
        and all(isinstance(r, list) for r in rows)
        and len({len(r) for r in rows}) <= 1
        and all(_is_int(e) for r in rows for e in r)
    ):
        errors.append(f"{where}: matrix must be a rectangular list of integer rows")
        return None
    m = FpMatrix(char, [[e % char for e in r] for r in rows]) if rows else FpMatrix.zeros(char, 0, 0)
    if m.a.shape != want:
        errors.append(f"{where}: matrix shape {m.a.shape} does not match {want}")
        return None
    return m


def build_spec(raw: dict, path: str = "<memory>") -> SpecDocument:
    if not isinstance(raw, dict):
        raise SpecValidationError([f"spec must be a JSON object, got {type(raw).__name__}"])
    errors: list[str] = []
    if raw.get("schema") != SPEC_SCHEMA:
        errors.append(f"schema must be {SPEC_SCHEMA!r}, got {raw.get('schema')!r}")
    char = _typed(raw, "field", dict, "", errors).get("char", 2)
    if not _is_int(char) or char not in SUPPORTED_PRIMES:
        errors.append(f"unsupported characteristic {char}; supported: {list(SUPPORTED_PRIMES)}")
        char = 2
    qspec = _typed(raw, "quiver", dict, "", errors)
    vertices = [_name(v, "quiver.vertices: vertex", errors) for v in _typed(qspec, "vertices", list, "quiver.", errors)]
    vertices = [v for v in vertices if v is not None]
    arrows = []
    for a in _typed(qspec, "arrows", list, "quiver.", errors):
        if not isinstance(a, dict):
            errors.append(f"quiver.arrows: entry {a!r} is not a JSON object")
            continue
        name, src, dst = (_name(a.get(k), f"quiver.arrows: arrow {k}", errors) for k in ("name", "from", "to"))
        if None in (name, src, dst):
            continue
        if src not in vertices or dst not in vertices:
            errors.append(f"arrow {name}: endpoint not a declared vertex")
        else:
            arrows.append(Arrow(name, src, dst))
    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
    except ValueError as exc:
        errors.append(str(exc))
        quiver = Quiver(tuple(dict.fromkeys(vertices)), ())
    cat = RepCategory(quiver, char)

    objects: dict[str, RepObj] = {}
    for name, spec in sorted(_typed(raw, "objects", dict, "", errors).items()):
        if not isinstance(spec, dict):
            errors.append(f"object {name}: must be a JSON object")
            continue
        dims = _typed(spec, "dims", dict, f"object {name}: ", errors)
        bad_dims = sorted(v for v, d in dims.items() if not _is_int(d) or d < 0)
        if bad_dims:
            errors.append(f"object {name}: dims at {bad_dims} must be non-negative integers")
            continue
        unknown = [v for v in dims if v not in vertices]
        if unknown:
            errors.append(f"object {name}: unknown vertices {unknown}")
            continue
        maps = {}
        bad = False
        for aname, rows in _typed(spec, "maps", dict, f"object {name}: ", errors).items():
            arrow = next((a for a in arrows if a.name == aname), None)
            if arrow is None:
                errors.append(f"object {name}: unknown arrow {aname}")
                bad = True
                continue
            want = (dims.get(arrow.dst, 0), dims.get(arrow.src, 0))
            m = _matrix(char, rows, want, f"object {name}, arrow {aname}", errors)
            if m is None:
                bad = True
                continue
            maps[aname] = m
        if bad:
            continue
        try:
            objects[name] = cat.obj(dims, maps, name=name)
        except ValueError as exc:
            errors.append(f"object {name}: {exc}")

    subcategories: dict[str, AddSubcat] = {}
    for name, gens in sorted(_typed(raw, "subcategories", dict, "", errors).items()):
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            errors.append(f"subcategory {name}: generators must be a list of object names")
            continue
        missing = [g for g in gens if g not in objects]
        if missing:
            errors.append(f"subcategory {name}: unknown objects {missing}")
            continue
        subcategories[name] = AddSubcat(cat, [objects[g] for g in gens], label=name)

    def parse_mor(cname: str, part: str, spec) -> Optional[RepMor]:
        where = f"conflation {cname}.{part}"
        if not isinstance(spec, dict):
            errors.append(f"{where}: must be a JSON object")
            return None
        ends = [spec.get("src"), spec.get("dst")]
        if not all(isinstance(e, str) and e in objects for e in ends):
            errors.append(f"{where}: unknown src/dst object")
            return None
        src, dst = objects[ends[0]], objects[ends[1]]
        comps = {}
        for v, rows in _typed(spec, "comps", dict, f"{where}: ", errors).items():
            if v not in vertices:
                errors.append(f"{where}: unknown vertex {v}")
                return None
            comps[v] = _matrix(char, rows, (dst.dims[v], src.dims[v]), f"{where}, vertex {v}", errors)
            if comps[v] is None:
                return None
        try:
            return RepMor(src, dst, comps)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
            return None

    conflations: dict[str, Conflation] = {}
    for name, spec in sorted(_typed(raw, "conflations", dict, "", errors).items()):
        if not isinstance(spec, dict):
            errors.append(f"conflation {name}: must be a JSON object")
            continue
        incl = parse_mor(name, "incl", spec.get("incl", {}))
        proj = parse_mor(name, "proj", spec.get("proj", {}))
        if incl is None or proj is None:
            continue
        try:
            conflations[name] = cat.conflation(incl, proj)
        except ValueError as exc:
            errors.append(f"conflation {name}: {exc}")

    tasks = list(_typed(raw, "tasks", list, "", errors))
    for t in tasks:
        ok = isinstance(t, dict) and isinstance(t.get("subcategory", ""), str)
        if not ok or not all(_is_int(t.get(k, 0)) and t.get(k, 0) >= 0 for k in ("bound", "test_bound", "harness_bound")):
            errors.append(f"task {t!r}: must be a JSON object with a string subcategory and non-negative integer bounds")
    if errors:
        raise SpecValidationError(errors)
    return SpecDocument(
        path=path,
        cat=cat,
        objects=objects,
        subcategories=subcategories,
        conflations=conflations,
        tasks=tasks,
    )


def serialize_spec(doc: SpecDocument) -> dict:
    """Canonical JSON form; parse(serialize(parse(x))) is a fixed point."""
    cat = doc.cat
    quiver = cat.quiver
    out: dict[str, Any] = {
        "schema": SPEC_SCHEMA,
        "field": {"char": cat.p},
        "quiver": {
            "vertices": list(quiver.vertices),
            "arrows": [{"name": a.name, "from": a.src, "to": a.dst} for a in quiver.arrows],
        },
        "objects": {},
        "subcategories": {},
        "conflations": {},
        "tasks": doc.tasks,
    }
    for name, obj in sorted(doc.objects.items()):
        out["objects"][name] = {
            "dims": {v: obj.dims[v] for v in quiver.vertices if obj.dims[v]},
            "maps": {
                a.name: obj.maps[a.name].a.tolist()
                for a in quiver.arrows
                if obj.dims[a.src] and obj.dims[a.dst]
            },
        }
    for name, sub in sorted(doc.subcategories.items()):
        out["subcategories"][name] = [g.name for g in sub.generators]
    for name, confl in sorted(doc.conflations.items()):
        out["conflations"][name] = {
            "incl": _mor_json(cat, confl.incl),
            "proj": _mor_json(cat, confl.defl),
        }
    return out


def _mor_json(cat: RepCategory, f: RepMor) -> dict:
    return {
        "src": f.src.name or f.src.label,
        "dst": f.dst.name or f.dst.label,
        "comps": {
            v: f.comp(v).a.tolist()
            for v in cat.quiver.vertices
            if f.src.dims[v] and f.dst.dims[v]
        },
    }


def _confl_json(c: Conflation) -> dict:
    a, b, z = c.terms()
    return {
        "terms": [a.label, b.label, z.label],
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _resolve_sub(doc: SpecDocument, name: Optional[str], command: str) -> AddSubcat:
    if name is None:
        for t in doc.tasks:
            if t.get("command") == command and "subcategory" in t:
                name = t["subcategory"]
                break
    if name is None and len(doc.subcategories) == 1:
        name = next(iter(doc.subcategories))
    if name is None or name not in doc.subcategories:
        raise SpecValidationError([f"{command}: unknown or missing subcategory {name!r}"])
    return doc.subcategories[name]


def cmd_check_pct(doc: SpecDocument, args) -> dict:
    sub = _resolve_sub(doc, args.subcategory, "check-pct")
    names = args.testset.split(",") if args.testset else sorted(doc.objects)
    unknown = [n for n in names if n not in doc.objects]
    if unknown:
        raise SpecValidationError([f"check-pct: unknown testset objects {unknown}"])
    testset = [doc.objects[n] for n in names]
    report = is_pseudo_cluster_tilting(sub, testset)
    confls = list(doc.conflations.values())
    orth = is_self_orthogonal(sub, confls)
    return {
        "name": "check-pct",
        "subcategory": sub.label,
        "verdict": "pass" if report.passed else "fail",
        "testset": report.testset_labels,
        "failures": report.failures,
        "witness_objects": sorted(report.witnesses),
        "self_orthogonal_on_named_conflations": orth.passed,
        "note": report.note,
    }


def cmd_quotient(doc: SpecDocument, args) -> dict:
    sub = _resolve_sub(doc, args.subcategory, "quotient")
    names = sorted(doc.objects)
    table = {
        x: {y: qt.qhom(sub, doc.objects[x], doc.objects[y]).dim for y in names} for x in names
    }
    sample = [doc.objects[n] for n in names]
    semi = qt.verify_semiabelian(sub, sample, cap=args.cap, seed=args.seed)
    ab = qt.verify_abelian(sub, sample, cap=args.cap, seed=args.seed)
    ok = semi.passed and ab.passed
    verdict = "pass" if ok else "fail"
    if ok and (semi.sampled or ab.sampled):
        verdict = "sampled-pass"
    return {
        "name": "quotient",
        "subcategory": sub.label,
        "verdict": verdict,
        "qhom_table": table,
        "semiabelian": {"verdict": semi.verdict, "checked": semi.checked, "failures": semi.failures},
        "abelian": {"verdict": ab.verdict, "checked": ab.checked, "failures": ab.failures},
    }


def cmd_classes(doc: SpecDocument, args) -> dict:
    sub = _resolve_sub(doc, args.subcategory, "classes")
    bound = args.bound if args.bound is not None else _task_default(doc, "classes", "bound", 5)
    names = [args.conflation] if args.conflation else sorted(doc.conflations)
    items = []
    ok = True
    for name in names:
        if name not in doc.conflations:
            raise SpecValidationError([f"classes: unknown conflation {name!r}"])
        c = doc.conflations[name]
        s_res = confclasses.in_class_s(c, sub, args.subobject_bound)
        t_res = confclasses.in_class_t(c, sub, args.subobject_bound)
        cov, contra = sub.is_hom_exact(c, "covariant"), sub.is_hom_exact(c, "contravariant")
        # either hom-exactness forces membership in both classes
        if cov or contra:
            verify(s_res.is_member, "hom-exact conflation missing from class S")
            verify(t_res.is_member, "hom-exact conflation missing from class T")
        split = conflation_split(sub.cat, c) is not None
        items.append(
            {
                "conflation": name,
                "terms": _confl_json(c)["terms"],
                "splits": split,
                "in_class_S": s_res.is_member,
                "in_class_T": t_res.is_member,
                "class_S_search": [
                    {"subobject": lab, "column_exact": colv, "row_exact": rowv}
                    for lab, colv, rowv in s_res.examined
                ],
                "class_T_search": [
                    {"quotient": lab, "column_exact": colv, "row_exact": rowv}
                    for lab, colv, rowv in t_res.examined
                ],
                "hom_exact": {"covariant": cov, "contravariant": contra},
            }
        )
    sample = [doc.objects[n] for n in sorted(doc.objects)]
    cross = confclasses.abelianness_crosscheck(
        sub, sample, bound=bound, subobject_bound=args.subobject_bound, cap=args.cap, seed=args.seed
    )
    ok = ok and cross.passed
    report = {
        "name": "classes",
        "subcategory": sub.label,
        "verdict": "pass" if ok else "fail",
        "bound": bound,
        "memberships": items,
        "crosscheck": {
            "self_orthogonal_wrt_S": cross.self_orthogonal_wrt_s,
            "abelian": cross.abelian.verdict,
            "consistent": cross.consistent,
            "conflations_examined": cross.conflations_examined,
            "nonsplit_class_S_members": cross.nonsplit_members,
            "failures": cross.failures,
        },
    }
    tries = getattr(args, "search_random", 0)
    if tries:
        hunt = confclasses.random_crosscheck_search(
            sub.cat, sample, sample, tries=tries, seed=args.seed, cap=args.cap
        )
        report["random_search"] = {
            "counterexample_found": hunt.counterexample_found,
            "detail": hunt.detail,
        }
        if hunt.counterexample_found:
            report["verdict"] = "fail"
    return report


def _task_default(doc: SpecDocument, command: str, key: str, fallback):
    for t in doc.tasks:
        if t.get("command") == command and key in t:
            return t[key]
    return fallback


def cmd_confl(doc: SpecDocument, args) -> dict:
    bound = args.bound if args.bound is not None else _task_default(doc, "confl", "bound", 1)
    test_bound = (
        args.test_bound
        if args.test_bound is not None
        else _task_default(doc, "confl", "test_bound", min(bound, 1))
    )
    harness_bound = _task_default(doc, "confl", "harness_bound", min(bound, 1))
    # below 1 the sweeps and the harness check only the zero object, or test
    # against the zero conflation alone, and would pass having checked nothing
    for name, value in (("bound", bound), ("test bound", test_bound), ("harness bound", harness_bound)):
        if value < 1:
            raise EnumerationBound(f"confl: the {name} must be at least 1, got {value}", 1)
    ecat = ConflCategory(doc.cat)
    pct = verify_splitting_pseudo_cluster_tilting(ecat, bound=bound, test_bound=test_bound)
    bic = sweep_hom_exactness_biconditional(ecat, bound=bound, test_bound=test_bound)
    harness = cluster_quotient_harness(ecat, bound=harness_bound, cap=args.cap, seed=args.seed)
    sub = ecat.split_sub
    factored = 0
    for x in ecat.enumerate_objects(min(bound, 1)):
        factor_split0_conflation(ecat, sub.precover_conflation(x)[0])
        factored += 1
    obstruction = harness.obstruction
    obstruction_info = None
    if obstruction is not None:
        obstruction_info = {
            "middle_degree_terms": _confl_json(ecat.degree_component(obstruction, 2)),
            "in_full": substructure_member(ecat, obstruction, SubstructureTag.FULL),
            "in_split0": substructure_member(ecat, obstruction, SubstructureTag.SPLIT0),
        }
    ok = pct.passed and bic.passed and harness.passed and obstruction_info is not None
    return {
        "name": "confl",
        "verdict": "pass" if ok else "fail",
        "bound": bound,
        "test_bound": test_bound,
        "split_pseudo_cluster_tilting": {
            "verdict": "pass" if pct.passed else "fail",
            "objects_checked": pct.objects_checked,
            "lift_tests": pct.lift_tests,
            "failures": pct.failures,
        },
        "hom_exactness_biconditional": {
            "verdict": "pass" if bic.passed else "fail",
            "checked": bic.checked,
            "failures": bic.failures,
        },
        "inflation_factorizations": factored,
        "cluster_quotient": {
            "verdict": "pass" if harness.passed else "fail",
            "abelian": harness.abelian_verdict,
            "split0_sequences_checked": harness.split0_sequences_checked,
            "obstruction_found": obstruction is not None,
            "substructures_separated": harness.separated,
            "substructures": [
                {
                    "tag": v.tag,
                    "pseudo_cluster_tilting": v.pseudo_cluster_tilting,
                    "self_orthogonal": v.self_orthogonal,
                    "quotient_abelian": v.quotient_abelian,
                    "cluster_quotient": v.cluster_quotient,
                    "consistent": v.consistent,
                }
                for v in harness.verdicts
            ],
            "failures": harness.failures,
            "note": harness.note,
        },
        "obstruction": obstruction_info,
    }


def cmd_iso_agreement(doc: SpecDocument, args) -> dict:
    sample = [doc.objects[n] for n in sorted(doc.objects)]
    items = []
    ok = True
    for name in sorted(doc.subcategories):
        sub = doc.subcategories[name]
        rep = qt.iso_agreement_sweep(sub, sample, cap=args.cap, seed=args.seed)
        ok = ok and rep.passed
        items.append(
            {
                "subcategory": name,
                "verdict": rep.verdict,
                "checked": rep.checked,
                "failures": rep.failures,
            }
        )
    return {"name": "iso-agreement", "verdict": "pass" if ok else "fail", "subcategories": items}


def _fixture_path(name: str) -> str:
    return str(resources.files("exactcat.fixtures") / name)


def cmd_verify_paper(args) -> dict:
    """Run every suite on the bundled fixtures.

    Each fixture's tasks run in their own scope, and its document (with the
    caches of its categories) is released before the next fixture: the
    caches hold reference cycles (a hom basis and its category, a quotient
    morphism and the quotient memo), so one collection frees them."""
    t0 = time.monotonic()
    tasks = _a3_tasks(args)
    gc.collect()
    tasks += _a2_tasks(args)
    verdicts = {t["verdict"] for t in tasks}
    ok = verdicts <= {"pass", "sampled-pass"}
    print(f"verify-paper wall time: {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return {
        "name": "verify-paper",
        "verdict": "pass" if ok else "fail",
        "fixtures": ["a2_base.json", "a3_projinj.json"],
        "tasks": tasks,
    }


def _fixture_args(args, subcategory: str) -> argparse.Namespace:
    ns = argparse.Namespace(**vars(args))
    ns.subcategory = subcategory
    ns.testset = None
    ns.conflation = None
    return ns


def _a3_tasks(args) -> list[dict]:
    a3 = parse_spec(_fixture_path("a3_projinj.json"))
    ns = _fixture_args(args, "P")
    tasks = [cmd_check_pct(a3, ns), cmd_quotient(a3, ns)]
    ns.bound = 5
    tasks += [cmd_classes(a3, ns), cmd_iso_agreement(a3, ns)]
    return [dict(t, fixture="a3") for t in tasks]


def _a2_tasks(args) -> list[dict]:
    a2 = parse_spec(_fixture_path("a2_base.json"))
    ns = _fixture_args(args, "all")
    ns.bound = 2 if args.bound is None else args.bound
    tasks = [cmd_confl(a2, ns)]
    ns.bound = 4
    tasks += [cmd_classes(a2, ns), cmd_iso_agreement(a2, ns)]
    return [dict(t, fixture="a2") for t in tasks]


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

def render_text(report: dict, out) -> None:
    def walk(node, indent=0):
        pad = "  " * indent
        if isinstance(node, dict):
            for k, v in node.items():
                if isinstance(v, (dict, list)) and v:
                    print(f"{pad}{k}:", file=out)
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}", file=out)
        elif isinstance(node, list):
            for item in node:
                if isinstance(item, (dict, list)):
                    walk(item, indent)
                    print(f"{pad}-", file=out)
                else:
                    print(f"{pad}- {item}", file=out)

    walk(report)


def nonnegative(text: str) -> int:
    """argparse type of the bounds, caps and seeds: a non-negative integer
    (a negative one would sweep nothing and pass, or fail inside numpy)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


EXIT_BY_VERDICT = {"pass": 0, "sampled-pass": 0, "fail": 1, "refused-bound": 2}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="exactcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_spec=True):
        if with_spec:
            p.add_argument("spec", help="JSON spec file (schema exactcat/1)")
        p.add_argument("--bound", type=nonnegative, default=None, help="enumeration bound")
        p.add_argument("--test-bound", dest="test_bound", type=nonnegative, default=None)
        p.add_argument("--subobject-bound", dest="subobject_bound", type=nonnegative, default=8)
        p.add_argument("--cap", type=nonnegative, default=4096, help="hom-space enumeration cap")
        p.add_argument("--seed", type=nonnegative, default=0, help="sampling seed")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("check-pct", help="precover/preenvelope conflation conditions")
    common(p)
    p.add_argument("--subcategory", default=None)
    p.add_argument("--testset", default=None, help="comma-separated object names")

    p = sub.add_parser("quotient", help="qhom table and semi-abelian/abelian certificates")
    common(p)
    p.add_argument("--subcategory", default=None)

    p = sub.add_parser("classes", help="conflation class memberships and crosscheck")
    common(p)
    p.add_argument("--subcategory", default=None)
    p.add_argument("--conflation", default=None)
    p.add_argument(
        "--search-random",
        dest="search_random",
        type=nonnegative,
        default=0,
        help="also hunt for a non-abelian counterexample among N random subcategories",
    )

    p = sub.add_parser("confl", help="conflation-category harnesses")
    common(p)

    p = sub.add_parser("iso-agreement", help="two independent iso tests must agree")
    common(p)

    p = sub.add_parser("verify-paper", help="run all suites on the bundled fixtures")
    common(p, with_spec=False)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify-paper":
            report = cmd_verify_paper(args)
        else:
            doc = parse_spec(args.spec)
            handler = {
                "check-pct": cmd_check_pct,
                "quotient": cmd_quotient,
                "classes": cmd_classes,
                "confl": cmd_confl,
                "iso-agreement": cmd_iso_agreement,
            }[args.command]
            report = handler(doc, args)
    except SpecValidationError as exc:
        report = {"name": args.command, "verdict": "fail", "errors": exc.errors}
    except (VerificationError, ConditionError) as exc:
        # a failed check, or a conflation condition a command requires,
        # outside the sweeps that record theirs per item
        report = {"name": args.command, "verdict": "fail", "errors": [str(exc)]}
    except EnumerationBound as exc:
        report = {
            "name": args.command,
            "verdict": "refused-bound",
            "error": str(exc),
            "required": exc.required,
        }
    payload = {"schema": REPORT_SCHEMA, "command": args.command, "report": report}
    payload["verdict"] = report["verdict"]
    payload["exit_code"] = EXIT_BY_VERDICT[report["verdict"]]
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            if args.format == "json":
                fh.write(text)
            else:
                render_text(payload, fh)
    else:
        if args.format == "json":
            sys.stdout.write(text)
        else:
            render_text(payload, sys.stdout)
    return payload["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main())
