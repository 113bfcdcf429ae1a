import json
import subprocess
import sys
from pathlib import Path

import pytest

from exactcat import approx, category, classes as cl, cli, conflcat, quotient, repcat
from exactcat.approx import AddSubcat
from exactcat.category import Conflation, EnumerationBound, solve_postcompose
from exactcat.conflcat import ConflCategory, SplitConflationSubcat
from exactcat.repcat import op_conflation, opposite


def test_split_conflations_are_members(a3, a3_sub):
    cat, o = a3
    total, injs, projs = cat.direct_sum([o["P2"], o["S1"]])
    split = cat.conflation(injs[0], projs[1])
    s_res = cl.in_class_s(split, a3_sub)
    assert s_res.is_member
    assert s_res.member.reducer.src.total_dim == 0  # the zero subobject works first
    assert cl.in_class_t(split, a3_sub).is_member


def test_hom_exact_conflations_are_members(a3, a3_sub):
    cat, o = a3
    for x in (o["S2"], o["S1"], o["I2"]):
        down = a3_sub.precover_conflation(x)[0]
        up = a3_sub.preenvelope_conflation(x)[0]
        assert a3_sub.is_hom_exact(down, "covariant")  # precover conflations are covariantly hom-exact
        assert a3_sub.is_hom_exact(up, "contravariant")
        for s in (down, up):
            assert cl.in_class_s(s, a3_sub).is_member
            assert cl.in_class_t(s, a3_sub).is_member


def test_three_subobject_refutation(a3_sub, a3_nonsplit):
    res = cl.in_class_s(a3_nonsplit, a3_sub)
    assert not res.is_member
    assert len(res.examined) == 3  # subobjects of P2: 0, S3, P2
    verdicts = {lab: (col, row) for lab, col, row in res.examined}
    assert verdicts["rep(0,0,0)"] == (True, False)  # row needs P2-maps to extend over P1
    assert verdicts["rep(0,0,1)"][0] is False  # column blocked: no map I2 -> P1
    assert verdicts["rep(0,1,1)"][0] is False  # column blocked: no map S1 -> P1


def test_dual_class_on_nonsplit(a3_sub, a3_nonsplit):
    res = cl.in_class_t(a3_nonsplit, a3_sub)
    assert not res.is_member  # consistent with the abelian quotient


def test_duality_consistency(a3, a3_sub, a3_nonsplit):
    cat, o = a3
    opcat = opposite(cat)
    op_sub = AddSubcat(opcat, [__import__("exactcat.repcat", fromlist=["op_obj"]).op_obj(opcat, g) for g in a3_sub.generators], label="Pop")
    conflations = [a3_nonsplit]
    total, injs, projs = cat.direct_sum([o["P2"], o["S1"]])
    conflations.append(cat.conflation(injs[0], projs[1]))
    conflations.append(a3_sub.precover_conflation(o["S2"])[0])
    for s in conflations:
        op_s = op_conflation(opcat, s)
        assert cl.in_class_t(s, a3_sub).is_member == cl.in_class_s(op_s, op_sub).is_member
        assert cl.in_class_s(s, a3_sub).is_member == cl.in_class_t(op_s, op_sub).is_member


def test_monotone_consistency_on_extensions(a3, a3_sub):
    cat, o = a3
    for z in a3_sub.generators[:3]:
        for x in a3_sub.generators[:3]:
            for s in cat.enumerate_extensions(z, x):
                # hom-exactness on either side forces membership in both classes
                if a3_sub.is_hom_exact(s, "covariant") or a3_sub.is_hom_exact(s, "contravariant"):
                    assert cl.in_class_s(s, a3_sub).is_member
                    assert cl.in_class_t(s, a3_sub).is_member


def test_subobject_bound_refusal(a3_sub, a3_nonsplit):
    with pytest.raises(EnumerationBound):
        cl.in_class_s(a3_nonsplit, a3_sub, bound=1)


def test_abelianness_crosscheck_a3(a3, a3_sub):
    cat, o = a3
    rep = cl.abelianness_crosscheck(a3_sub, list(o.values()), bound=5)
    assert rep.passed
    assert rep.self_orthogonal_wrt_s
    assert rep.abelian.passed
    assert rep.conflations_examined > 100
    # the nonsplit conflation between subcategory objects exists but is not
    # in class S, so it never falsifies the self-orthogonality verdict
    assert rep.nonsplit_members == []


def test_crosscheck_on_conflation_host(a2):
    cat, o = a2
    ecat = ConflCategory(cat)
    sub = SplitConflationSubcat(ecat)
    sample = ecat.enumerate_objects(1)
    rep = cl.abelianness_crosscheck(sub, sample, bound=2, subobject_bound=8, cap=512)
    assert rep.passed
    assert rep.self_orthogonal_wrt_s
    assert rep.abelian.passed


def test_class_membership_on_conflation_host(a2):
    cat, o = a2
    ecat = ConflCategory(cat)
    sub = SplitConflationSubcat(ecat)
    # a split-in-degree-0 sequence between split objects is hom-exact both
    # ways, hence in both classes
    x = ecat.split_obj(o["S2"], o["S1"])
    pre, _ = sub.precover_conflation(x)
    assert cl.in_class_s(pre, sub).is_member
    assert cl.in_class_t(pre, sub).is_member


def test_random_search_reports_honestly(a3, a3_sub):
    cat, o = a3
    pool = list(o.values())
    rep = cl.random_crosscheck_search(cat, pool, pool, tries=12, seed=7)
    assert not rep.counterexample_found
    assert "no counterexample found" in rep.detail


# -- the class-S search's induced maps against hom-space solves ---------------------

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "exactcat" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
CLASSES_RUNS = {
    "a2": [str(FIXTURES / "a2_base.json")],
    "a3": [str(FIXTURES / "a3_projinj.json")],
    "classes-p2": [str(GOLDEN / "seeded_classes_p2.json"), "--subcategory", "P", "--bound", "5"],
}


def in_class_s_by_solves(s, sub, bound):
    """The class-S search with the row's maps m and n solved on the hom-spaces
    (m o c1 = c2 o a, n o c2 = b), as before the closed form: the examined
    list, and the bytes of (m, n) per examined subobject."""
    cat = sub.cat
    a, b = s.incl, s.defl
    examined, maps = [], []
    for u in cat.enumerate_subobjects(s.incl.src, bound):
        au = cat.compose(a, u)
        _, c1, _ = cat.cokernel(u)
        _, c2, _ = cat.cokernel(au)
        m = solve_postcompose(cat, c1, cat.compose(c2, a))
        n = solve_postcompose(cat, c2, b)
        col_ok = sub.is_hom_exact(Conflation(au, c2), "covariant")
        row_ok = sub.is_hom_exact(Conflation(m, n), "contravariant")
        examined.append((u.src.label, col_ok, row_ok))
        maps.append((m.vec.tobytes(), n.vec.tobytes()))
        if col_ok and row_ok:
            break
    return examined, maps


@pytest.mark.parametrize("run", sorted(CLASSES_RUNS))
def test_closed_form_induced_maps_match_the_hom_space_solves(monkeypatch, tmp_path, run):
    """On every conflation `classes` searches (the named ones and every
    extension of its crosscheck), m = (c2 o a) o section1 and n = b o section2
    are the vectors the hom-space solves return, byte for byte, and the
    examined list is the solves' one."""
    searched = []
    real_search, real_through = cl.in_class_s, cl._through_epi

    def recording_search(s, sub, bound=8):
        maps = []
        monkeypatch.setattr(cl, "_through_epi", lambda *a: maps.append(real_through(*a)) or maps[-1])
        try:
            result = real_search(s, sub, bound)
        finally:
            monkeypatch.setattr(cl, "_through_epi", real_through)
        searched.append((s, sub, bound, result.examined, [(m.vec.tobytes(), n.vec.tobytes()) for m, n in zip(maps[::2], maps[1::2])]))
        return result

    monkeypatch.setattr(cl, "in_class_s", recording_search)
    assert cli.main(["classes", *CLASSES_RUNS[run], "--out", str(tmp_path / "r.json")]) == 0
    assert len(searched) > 1
    for s, sub, bound, examined, maps in searched:
        assert (examined, maps) == in_class_s_by_solves(s, sub, bound)


def test_class_searches_solve_nothing_and_enumerate_each_term_once(monkeypatch, tmp_path):
    """On the seeded classes-p2 spec, no search calls solve_postcompose, and
    subobjects are enumerated once per distinct (term, bound)."""
    depth, solves, terms, enumerations = [0], [0], set(), [0]
    real_post = category.solve_postcompose

    def counted_post(*args):
        solves[0] += depth[0] > 0
        return real_post(*args)

    for module in (approx, category, cl, conflcat, quotient, repcat):
        if hasattr(module, "solve_postcompose"):
            monkeypatch.setattr(module, "solve_postcompose", counted_post)
    for name in ("in_class_s", "in_class_t"):
        real = getattr(cl, name)

        def search(s, sub, bound=8, real=real, end=0 if name == "in_class_s" else 2):
            terms.add((s.terms()[end].key, bound))
            depth[0] += 1
            try:
                return real(s, sub, bound)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cl, name, search)
    real_enum = repcat.RepCategory.enumerate_subobjects

    def counted_enum(self, x, bound=8):
        enumerations[0] += 1
        return real_enum(self, x, bound)

    monkeypatch.setattr(repcat.RepCategory, "enumerate_subobjects", counted_enum)
    assert cli.main(["classes", *CLASSES_RUNS["classes-p2"], "--out", str(tmp_path / "r.json")]) == 0
    assert solves[0] == 0
    assert enumerations[0] == len(terms) < 20


@pytest.mark.parametrize("spec", [GOLDEN / "seeded_classes_p2.json", FIXTURES / "a3_projinj.json"])
def test_crosscheck_builds_a_middle_for_each_nonsplit_extension_only(monkeypatch, tmp_path, spec):
    """The crosscheck examines 553 extensions and builds the middles of the
    90 nonsplit ones, no other, with no conflation_split call: the split
    ones are decided from their glue rows (`split_glues`).  The counts do
    not depend on the bases, so the seeded spec and the fixture, the same
    subcategory in other bases and another generator order, agree."""
    inside, middles, splits, searches = [False], [0], [0], [0]
    real_cross, real_middle, real_split, real_search = (
        cl.abelianness_crosscheck,
        repcat.RepCategory.glued_middle,
        category.conflation_split,
        cl.in_class_s,
    )

    def crosscheck(*args, **kwargs):
        inside[0] = True
        try:
            return real_cross(*args, **kwargs)
        finally:
            inside[0] = False

    def counted(counter, real):
        def call(*args, **kwargs):
            counter[0] += inside[0]
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(cl, "abelianness_crosscheck", crosscheck)
    monkeypatch.setattr(repcat.RepCategory, "glued_middle", counted(middles, real_middle))
    for module in (approx, category, cl, cli, conflcat, quotient, repcat):
        if hasattr(module, "conflation_split"):
            monkeypatch.setattr(module, "conflation_split", counted(splits, real_split))
    monkeypatch.setattr(cl, "in_class_s", counted(searches, real_search))
    out = tmp_path / "r.json"
    assert cli.main(["classes", str(spec), "--subcategory", "P", "--bound", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["crosscheck"]["conflations_examined"] == 553
    assert (middles[0], searches[0], splits[0]) == (90, 90, 0)


FAULT_MAIN = """
import sys
import numpy as np
from exactcat import cli, repcat
real = repcat.RepCategory.cokernel

def zero_section(self, f):
    c_obj, c, section = real(self, f)
    return c_obj, c, np.zeros_like(section)

repcat.RepCategory.cokernel = zero_section
sys.exit(cli.main(["classes", sys.argv[1], "--out", sys.argv[2]]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_zeroed_cokernel_section_fails_the_classes_report(tmp_path, optimize):
    """A wrong section induces maps that do not factor the quotient maps:
    the check is explicit, so `classes` fails with exit 1 and no traceback,
    under python -O too."""
    out = tmp_path / "classes.json"
    argv = [sys.executable] + (["-O"] if optimize else []) + ["-c", FAULT_MAIN, str(FIXTURES / "a3_projinj.json"), str(out)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail" and payload["exit_code"] == 1
    assert any("class S search: the quotient maps do not factor" in e for e in payload["report"]["errors"])


TAMPER_MAIN = """
import sys
import numpy as np
from exactcat import cli, fflinalg, repcat
real_split, real_kernel, real_solve = repcat.RepCategory.split_glues, fflinalg.kernel_basis, fflinalg.solve_right

def extra_functional(a):
    # one more left-kernel vector of the coboundary: the sum of the coordinates
    k = real_kernel(a)
    return fflinalg.from_reduced(k.p, np.hstack([k.a, np.ones((k.rows, 1), dtype=np.int64)]))

def shifted_preimage(a, b):
    h = real_solve(a, b)
    return None if h is None else fflinalg.from_reduced(h.p, (h.a + 1) % h.p)

name, wrong = {"functional": ("kernel_basis", extra_functional), "preimage": ("solve_right", shifted_preimage)}[sys.argv[1]]

def tampered(self, z, x, rows):
    real = getattr(fflinalg, name)
    setattr(fflinalg, name, wrong)
    try:
        return real_split(self, z, x, rows)
    finally:
        setattr(fflinalg, name, real)

repcat.RepCategory.split_glues = tampered
sys.exit(cli.main(["classes", sys.argv[2], "--subcategory", "P", "--bound", "5", "--out", sys.argv[3]]))
"""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize(
    "certificate, message",
    [
        ("functional", "split_glues: a functional does not vanish on the coboundaries"),
        ("preimage", "split_glues: a glue marked split has no preimage under the coboundary"),
    ],
)
def test_a_wrong_split_certificate_fails_the_classes_report(tmp_path, certificate, message, optimize):
    """A wrong functional (one that does not kill the coboundaries) or a
    wrong preimage of the split glues inside split_glues is caught by its
    explicit check: `classes` fails with exit 1 and no traceback, under
    python -O too."""
    out = tmp_path / "classes.json"
    spec = GOLDEN / "seeded_classes_p2.json"
    argv = [sys.executable] + (["-O"] if optimize else []) + ["-c", TAMPER_MAIN, certificate, str(spec), str(out)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail" and payload["exit_code"] == 1
    assert payload["report"]["errors"] == [message]
