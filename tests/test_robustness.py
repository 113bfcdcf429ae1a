"""Cross-characteristic and exotic-quiver checks.

The bundled fixtures live over F_2, where sign errors are invisible; these
tests re-run the core machinery over F_3 and on quivers with parallel
arrows and loops.
"""
import ast
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import exactcat

from exactcat import quotient as qt
from exactcat.approx import AddSubcat
from exactcat.category import conflation_split
from exactcat.conflcat import (
    ConflCategory,
    SubstructureTag,
    cluster_quotient_harness,
    nonsplit_with_split_ends,
    s_precover,
    s_preenvelope,
    substructure_member,
    sweep_hom_exactness_biconditional,
    verify_splitting_pseudo_cluster_tilting,
)
from exactcat.fflinalg import FpMatrix
from exactcat.repcat import Arrow, Quiver, RepCategory, a_n


@pytest.fixture(scope="module")
def a2_f3():
    cat = RepCategory(a_n(2), 3)
    objs = {
        "P1": cat.obj({"1": 1, "2": 1}, {"a1": FpMatrix(3, [[1]])}, name="P1"),
        "S1": cat.obj({"1": 1}, name="S1"),
        "S2": cat.obj({"2": 1}, name="S2"),
    }
    return cat, objs


def test_f3_base_category(a2_f3):
    cat, o = a2_f3
    twisted = cat.obj({"1": 1, "2": 1}, {"a1": FpMatrix(3, [[2]])}, name="P1'")
    assert len(cat.hom_basis(o["P1"], twisted)) == 1  # isomorphic twist
    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    ses = cat.conflation(iota, pi)
    assert conflation_split(cat, ses) is None
    exts = cat.enumerate_extensions(o["S1"], o["S2"])
    assert len(exts) == 3  # one glue scalar over F_3
    assert sum(conflation_split(cat, e) is not None for e in exts) == 1


def test_f3_conflation_category(a2_f3):
    cat, o = a2_f3
    ecat = ConflCategory(cat)
    iota = cat.hom_basis(o["S2"], o["P1"])[0]
    pi = cat.hom_basis(o["P1"], o["S1"])[0]
    x = ecat.make_obj(cat.conflation(iota, pi))
    pre = s_precover(ecat, x)
    env = s_preenvelope(ecat, x)
    assert substructure_member(ecat, pre, SubstructureTag.SPLIT0M1)
    assert substructure_member(ecat, env, SubstructureTag.SPLIT01)
    nonsplit_with_split_ends(ecat)
    assert verify_splitting_pseudo_cluster_tilting(ecat, bound=1).passed
    assert sweep_hom_exactness_biconditional(ecat, bound=1, test_bound=1).passed
    harness = cluster_quotient_harness(ecat, bound=1, cap=1024)
    assert harness.passed and harness.separated
    assert [v.tag for v in harness.verdicts if v.cluster_quotient] == ["split0"]


def test_f3_quotient_and_iso_agreement(a2_f3):
    cat, o = a2_f3
    sub = AddSubcat(cat, [o["P1"]], label="addP1")
    assert qt.qhom(sub, o["S2"], o["S2"]) == 1
    assert qt.iso_agreement_sweep(sub, list(o.values())).verdict == "pass"


def test_kronecker_extension_oracle():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    cat = RepCategory(q, 2)
    s1 = cat.obj({"1": 1}, name="S1")
    s2 = cat.obj({"2": 1}, name="S2")
    p1 = cat.obj(
        {"1": 1, "2": 2},
        {"a": FpMatrix(2, [[1], [0]]), "b": FpMatrix(2, [[0], [1]])},
        name="P1",
    )
    assert len(cat.hom_basis(p1, p1)) == 1
    assert len(cat.hom_basis(p1, s2)) == 0

    def euler(z, x):
        total = sum(z.dims[v] * x.dims[v] for v in q.vertices)
        for a in q.arrows:
            total -= z.dims[a.src] * x.dims[a.dst]
        return total

    # two parallel arrows make the extension space two-dimensional
    assert len(cat.hom_basis(s1, s2)) - euler(s1, s2) == 2
    exts = cat.enumerate_extensions(s1, s2)
    assert len(exts) == 4
    assert sum(conflation_split(cat, e) is not None for e in exts) == 1

    harness = cluster_quotient_harness(ConflCategory(cat), bound=1, cap=2048)
    assert harness.passed and harness.separated
    assert [v.tag for v in harness.verdicts if v.cluster_quotient] == ["split0"]


def test_loop_quiver_degenerate_bound_is_reported():
    q = Quiver(("1",), (Arrow("l", "1", "1"),))
    cat = RepCategory(q, 2)
    j2 = cat.obj({"1": 2}, {"l": FpMatrix(2, [[0, 1], [0, 0]])}, name="J2")
    assert len(cat.enumerate_subobjects(j2)) == 3  # 0, the socle, everything

    # at bound 1 every conflation object splits: the substructures cannot
    # be separated and the harness must say so instead of failing
    harness = cluster_quotient_harness(ConflCategory(cat), bound=1, cap=2048)
    assert harness.passed
    assert not harness.separated
    assert "separate" in harness.note
    winners = [v.tag for v in harness.verdicts if v.cluster_quotient]
    assert "split0" in winners and len(winners) > 1


def test_no_assert_in_the_package():
    """Every verification is an explicit check: `python -O` strips an assert."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(exactcat.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_import_in_the_package():
    """Every name a module imports is used in it, so an import a change left
    behind cannot pass for a dependency.  `__init__.py` re-exports, as does
    an import marked `# noqa`; `__future__` imports are directives."""
    found = []
    for path in sorted(Path(exactcat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                marked = "# noqa" in lines[node.lineno - 1] or "# noqa" in lines[alias.lineno - 1]
                if name not in used and not marked:
                    found.append(f"{path.name}:{alias.lineno}: {name}")
    assert found == []


def _is_empty_dict(node) -> bool:
    """`{}` or `dict()`."""
    if isinstance(node, ast.Dict):
        return not node.keys
    call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"
    return call and not (node.args or node.keywords)


def test_no_memo_dict_is_declared_in_an_init():
    """A result kept per owner is memoized with `fflinalg.memo`, not in a
    dict an `__init__` declares: an `__init__` that assigns an empty dict to
    a private attribute is reported, unless the dict is one of these."""
    exempt = {
        # a registry: direct_sum records each biproduct's summands in it
        ("Category", "_sum_registry"),
        # a slotted per-basis table, which a per-owner store cannot live on
        ("HomBasis", "_placements"),
    }
    found = []
    for path in sorted(Path(exactcat.__file__).parent.glob("*.py")):
        classes = [c for c in ast.walk(ast.parse(path.read_text(), filename=str(path))) if isinstance(c, ast.ClassDef)]
        for cls in classes:
            inits = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            for node in (n for init in inits for n in ast.walk(init)):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for t in targets:
                    mine = isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
                    if mine and t.attr.startswith("_") and _is_empty_dict(node.value) and (cls.name, t.attr) not in exempt:
                        found.append(f"{path.name}:{node.lineno}: {cls.name}.{t.attr}")
    assert found == []


def _cap_address_space_2_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_one_vertex_dims_4_check_pct_fits_in_2_gib(tmp_path):
    """add(X) for X = k^4 on one vertex.  The precover of X is X^4 and the
    cokernel of the preenvelope X -> X^16 is covered by X^60, where the
    evaluation of the whole hom bases took X^16 and X^240, so the contains
    solve on that cokernel fits under a 2 GiB address-space cap.  At dims 5
    it still asks for 7.7 GiB."""
    spec = {
        "schema": "exactcat/1",
        "field": {"char": 2},
        "quiver": {"vertices": ["1"], "arrows": []},
        "objects": {"X": {"dims": {"1": 4}}},
        "subcategories": {"P": ["X"]},
    }
    path, out = tmp_path / "spec.json", tmp_path / "report.json"
    path.write_text(json.dumps(spec))
    res = subprocess.run(
        [sys.executable, "-m", "exactcat", "check-pct", str(path), "--subcategory", "P", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=540,
        preexec_fn=_cap_address_space_2_gib,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["verdict"] == "pass"


# -- an F_3 sign flip on the quotient and classes paths, with and without -O --------

SIGN_FLIP_MAIN = """
import sys
from exactcat import category, cli
# every negation dropped: each -g of a pullback or pushout becomes +g, which
# F_2 cannot see
category.Category.neg = lambda self, f: f
sys.exit(cli.main([sys.argv[2], sys.argv[1], "--subcategory", "P", "--out", sys.argv[3]]))
"""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("command", ["quotient", "classes"])
def test_f3_sign_flip_fails_the_quotient_and_classes_reports(tmp_path, command, optimize):
    # A3 over F_3 with a conflation (specgen key "7.3")
    spec = Path(__file__).parent / "golden" / "seeded_classes_f3_7_3.json"
    out = tmp_path / "report.json"
    argv = [sys.executable] + (["-O"] if optimize else []) + ["-c", SIGN_FLIP_MAIN, str(spec), command, str(out)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail" and payload["exit_code"] == 1
    assert any("square does not commute" in e for e in payload["report"]["errors"])
