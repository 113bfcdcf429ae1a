"""Acceptance suite: one test per criterion, exact verdicts, stated budgets.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
as they complete).  All checks are exact finite-field computations; the
only tolerances are wall-clock budgets.
"""
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from exactcat import classes as cl
from exactcat import fflinalg as ff
from exactcat import quotient as qt
from exactcat.category import conflation_split, enumerate_hom
from exactcat.conflcat import (
    ConflCategory,
    cluster_quotient_harness,
    sweep_hom_exactness_biconditional,
    verify_splitting_pseudo_cluster_tilting,
)
from exactcat.fflinalg import FpMatrix

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "exactcat" / "fixtures"
# the bytes of the verify-paper report; perfbench/expected.json pins the
# same digest for every benchmark seed
VERIFY_PAPER_SHA256 = "9eab3ec7be7bba7d774d8abbddd2a14ac1f5a4ade1d4df7f54f8549ab04927bc"


def announce(number, name, started):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.monotonic() - started:.1f}s)")


def factor_mod_ideal_unique(sub, through, g):
    """Does g factor through `through` modulo the ideal, uniquely?

    Returns (exists, unique): solvability of through o h + ideal = g, and
    whether any two solutions differ by an ideal element.
    """
    cat = sub.cat
    t = g.src
    mid = through.src
    basis = cat.hom_basis(t, mid)
    cols = [cat.compose(through, h).vec for h in basis]
    cols += [i.vec for i in sub.ideal_spanning(t, through.dst)]
    width = cat.flat_dim(t, through.dst)
    mat = FpMatrix(cat.p, np.stack(cols, axis=1)) if cols else FpMatrix.zeros(cat.p, width, 0)
    sol = ff.solve_right(mat, FpMatrix(cat.p, g.vec.reshape(-1, 1)))
    if sol is None:
        return False, True
    null = ff.kernel_basis(mat)
    unique = True
    for j in range(null.cols):
        delta = cat.combine(basis, null.a[: len(basis), j], t, mid)
        if not sub.is_ideal_member(delta):
            unique = False
            break
    return True, unique


def cofactor_mod_ideal_unique(sub, through, g):
    """Dual: solvability and uniqueness of h o through + ideal = g."""
    cat = sub.cat
    t = g.dst
    mid = through.dst
    basis = cat.hom_basis(mid, t)
    cols = [cat.compose(h, through).vec for h in basis]
    cols += [i.vec for i in sub.ideal_spanning(through.src, t)]
    width = cat.flat_dim(through.src, t)
    mat = FpMatrix(cat.p, np.stack(cols, axis=1)) if cols else FpMatrix.zeros(cat.p, width, 0)
    sol = ff.solve_right(mat, FpMatrix(cat.p, g.vec.reshape(-1, 1)))
    if sol is None:
        return False, True
    null = ff.kernel_basis(mat)
    unique = True
    for j in range(null.cols):
        delta = cat.combine(basis, null.a[: len(basis), j], mid, t)
        if not sub.is_ideal_member(delta):
            unique = False
            break
    return True, unique


def test_acceptance_1_quotient_kernels_cokernels_universal(a3, a3_sub):
    """Quotient kernels and cokernels satisfy the full universal property
    against every enumerated quotient morphism of the fixture."""
    started = time.monotonic()
    cat, o = a3
    P = a3_sub
    indecs = [o[n] for n in sorted(o)]
    for x in indecs:
        for y in indecs:
            for f_host in enumerate_hom(cat, x, y)[0]:
                k = qt.q_kernel(P, f_host)
                assert qt.q_is_zero(P, cat.compose(f_host, k))
                c = qt.q_cokernel(P, f_host)
                assert qt.q_is_zero(P, cat.compose(c, f_host))
                for t in indecs:
                    for g in enumerate_hom(cat, t, x)[0]:
                        kills = qt.q_is_zero(P, cat.compose(f_host, g))
                        exists, unique = factor_mod_ideal_unique(P, k, g)
                        assert exists == kills, "kernel factorizations are exactly the killed maps"
                        if exists:
                            assert unique, "kernel factorization must be unique modulo the ideal"
                    for g in enumerate_hom(cat, y, t)[0]:
                        killed = qt.q_is_zero(P, cat.compose(g, f_host))
                        exists, unique = cofactor_mod_ideal_unique(P, c, g)
                        assert exists == killed
                        if exists:
                            assert unique
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"
    announce(1, "quotient kernel/cokernel universal property", started)


def test_acceptance_2_semiabelian_certificate(a3, a3_sub):
    """Every mediating coimage-to-image class over the fixture is regular."""
    started = time.monotonic()
    cat, o = a3
    report = qt.verify_semiabelian(a3_sub, [o[n] for n in sorted(o)])
    assert report.verdict == "pass", report.failures
    assert not report.sampled
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"
    announce(2, "semi-abelian certificate", started)


def test_acceptance_3_abelian_iff_self_orthogonal(a3, a3_sub, a3_nonsplit):
    """Self-orthogonality over class S agrees with abelianness, and the
    nonsplit conflation with subcategory ends is refuted from class S by
    its full subobject search."""
    started = time.monotonic()
    cat, o = a3
    P = a3_sub
    report = cl.abelianness_crosscheck(P, [o[n] for n in sorted(o)], bound=5)
    assert report.self_orthogonal_wrt_s is True
    assert report.abelian.verdict == "pass"
    assert report.consistent

    s = a3_nonsplit
    ends = (s.incl.src, s.defl.dst)
    assert all(P.contains(e) for e in ends)
    assert conflation_split(cat, s) is None
    search = cl.in_class_s(s, P)
    assert not search.is_member
    assert len(search.examined) == 3
    assert all(not (col and row) for _, col, row in search.examined)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    announce(3, "abelian iff self-orthogonal over class S", started)


def test_acceptance_4_split_approximations(a2):
    """Split precovers/preenvelopes pass every lift test and land in the
    expected one-sided substructures, for all conflation objects and split
    test objects with vertex dimensions at most 2."""
    started = time.monotonic()
    cat, _ = a2
    ecat = ConflCategory(cat)
    report = verify_splitting_pseudo_cluster_tilting(ecat, bound=2, test_bound=2)
    assert report.passed, report.failures[:3]
    assert report.objects_checked == 153
    # Hom dimensions add over each test group's sum, so grouping keeps the count
    assert report.lift_tests == 80_528
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    announce(4, "split approximations exhaustive", started)


def test_acceptance_5_hom_exactness_iff_degree_splitting(a2):
    """Bounded-exhaustive hom-exactness equals degree splitting, both
    dualities, for every enumerated degreewise conflation with vertex
    dimensions at most 2.  The test family always includes the canonical
    split cover of the relevant end term, which makes the bounded decision
    complete."""
    started = time.monotonic()
    cat, _ = a2
    ecat = ConflCategory(cat)
    report = sweep_hom_exactness_biconditional(ecat, bound=2, test_bound=1)
    assert report.passed, report.failures[:3]
    assert report.checked > 1000
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    announce(5, "hom-exactness iff degree splitting", started)


def test_acceptance_6_cluster_quotient_harness(a2):
    """The quotient by split conflations is abelian; degree-0-splitting
    sequences between split objects split; the obstruction with split ends
    exists; and exactly the degree-0 substructure is a cluster quotient."""
    started = time.monotonic()
    cat, _ = a2
    ecat = ConflCategory(cat)
    report = cluster_quotient_harness(ecat, bound=1)
    assert report.passed, report.failures[:3]
    assert report.abelian_verdict == "pass"
    assert report.split0_sequences_checked > 0
    assert report.obstruction is not None
    tags = {v.tag: v for v in report.verdicts}
    assert not tags["full"].self_orthogonal
    winners = [v.tag for v in report.verdicts if v.cluster_quotient]
    assert winners == ["split0"]
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"budget exceeded: {elapsed:.1f}s"
    announce(6, "cluster quotient uniquely at degree-0 splitting", started)


def test_acceptance_7_iso_tests_agree(a2, a3, a3_sub):
    """The solver-based and block-completion isomorphism tests agree on
    every enumerated morphism of both fixtures."""
    started = time.monotonic()
    cat3, o3 = a3
    report = qt.iso_agreement_sweep(a3_sub, [o3[n] for n in sorted(o3)])
    assert report.verdict == "pass", report.failures[:3]

    cat2, o2 = a2
    from exactcat.approx import AddSubcat

    sample2 = [o2[n] for n in sorted(o2)]
    for gens, label in [
        (["P1"], "addP1"),
        (["P1", "S2"], "proj"),
        (["P1", "S1", "S2"], "all"),
    ]:
        sub = AddSubcat(cat2, [o2[g] for g in gens], label=label)
        report = qt.iso_agreement_sweep(sub, sample2)
        assert report.verdict == "pass", (label, report.failures[:3])
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    announce(7, "independent isomorphism tests agree", started)


def test_acceptance_8_qhom_golden_table():
    """The quotient command reproduces the golden hom-dimension table."""
    started = time.monotonic()
    golden = json.loads((Path(__file__).parent / "golden" / "a3_qhom_table.json").read_text())
    res = subprocess.run(
        [sys.executable, "-m", "exactcat", "quotient", str(FIXTURES / "a3_projinj.json"), "--subcategory", "P"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["report"]["qhom_table"] == golden
    assert payload["report"]["qhom_table"]["S2"]["S2"] == 1
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"
    announce(8, "quotient dimension golden table", started)


def test_acceptance_9_verify_paper_end_to_end(tmp_path):
    """The bundled verification suite exits 0 with byte-identical reports
    across runs, and those bytes are the recorded ones."""
    started = time.monotonic()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    res1 = subprocess.run(
        [sys.executable, "-m", "exactcat", "verify-paper", "--out", str(out1)],
        capture_output=True,
        text=True,
        timeout=590,
    )
    assert res1.returncode == 0, res1.stderr[-2000:]
    res2 = subprocess.run(
        [sys.executable, "-m", "exactcat", "verify-paper", "--out", str(out2)],
        capture_output=True,
        text=True,
        timeout=590,
    )
    assert res2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == VERIFY_PAPER_SHA256
    payload = json.loads(out1.read_text())
    assert payload["verdict"] == "pass"
    assert {t["name"] for t in payload["report"]["tasks"]} == {
        "check-pct",
        "quotient",
        "classes",
        "iso-agreement",
        "confl",
    }
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"budget exceeded: {elapsed:.1f}s"
    announce(9, "bundled verification end to end", started)
