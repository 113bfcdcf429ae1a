"""Split test families checked a group at a time, against the per-member
checks they replaced.

The hom-exactness biconditional and the split-approximation sweep test a
family of canonical split conflations through the direct sums of its
groups (`SplitConflationSubcat.test_groups`), and re-check a failing group
member by member.  The per-member code they used to run is kept here as
the oracle: one hom-exactness test, one lift-existence solve per side and
one closed-form lift per test object.  On the A2 fixture both must give the
same verdicts and counts, and, with a check made to fail, the same failure
lists in the same order.
"""
import re

import pytest

from exactcat import conflcat
from exactcat import fflinalg as ff
from exactcat.category import VerificationError, conflation_key, hom_exact, span_matrix, verify
from exactcat.conflcat import (
    TEST_GROUP_DIM,
    ConflCategory,
    SplitPctReport,
    SubstructureTag,
    check_hom_exactness_matches_splitting,
    substructure_member,
    sweep_hom_exactness_biconditional,
    verify_splitting_pseudo_cluster_tilting,
)


# -- the per-member checks, as they were -------------------------------------------

def per_member_check(ecat, dses, bound=1, test_objects=None):
    sub = ecat.split_sub
    z_obj, x_obj = dses.defl.dst, dses.incl.src
    if test_objects is None:
        test_objects = sub.sample_objects(bound)
    cov_family = test_objects + [sub.precover(z_obj).src]
    contra_family = test_objects + [sub.preenvelope(x_obj).dst]
    cov = all(hom_exact(ecat, dses, t, "covariant") for t in cov_family)
    member_down = substructure_member(ecat, dses, SubstructureTag.SPLIT0M1)
    contra = all(hom_exact(ecat, dses, t, "contravariant") for t in contra_family)
    member_up = substructure_member(ecat, dses, SubstructureTag.SPLIT01)
    verify(cov == member_down, "covariant hom-exactness disagrees with degree (-1,0) splitting")
    verify(contra == member_up, "contravariant hom-exactness disagrees with degree (0,1) splitting")
    if member_down:
        s1, s2 = (ecat.degree_split(dses, d)[1] for d in (1, 2))
        conflcat._verify_deflation_lift_formula(ecat, dses, test_objects, s1, s2)
    if member_up:
        r2, r3 = (ecat.degree_split(dses, d)[0] for d in (2, 3))
        conflcat._verify_inflation_lift_formula(ecat, dses, test_objects, r2, r3)
    return cov, member_down, contra, member_up


def per_member_sweep(ecat, bound=1, test_bound=None):
    b = ecat.base
    sub = ecat.split_sub
    test_bound = bound if test_bound is None else test_bound
    samples = sub.sample_objects(test_bound)
    objs = ecat.enumerate_objects(bound)
    report = SplitPctReport(passed=True, objects_checked=len(objs), lift_tests=0)
    for x in objs:
        try:
            pre, _ = sub.precover_conflation(x)
            env, _ = sub.preenvelope_conflation(x)
        except VerificationError as exc:
            report.failures.append(str(exc))
            continue
        alpha, beta = sub.precover(x), sub.preenvelope(x)
        p0, q0 = alpha.src, beta.dst
        for s in samples:
            incoming = ecat.hom_basis(s, x)
            through = ecat.compose_flat(alpha, ecat.hom_basis(s, p0), s, p0)
            if ff.solve_right(through, span_matrix(ecat, incoming, s, x)) is None:
                report.failures.append(f"{x.label}: precover lift fails against {s.label}")
            outgoing = ecat.hom_basis(x, s)
            through = ecat.precompose_flat(ecat.hom_basis(q0, s), beta, q0, s)
            if ff.solve_right(through, span_matrix(ecat, outgoing, x, s)) is None:
                report.failures.append(f"{x.label}: preenvelope lift fails against {s.label}")
        x1, x2, x3 = x.terms()
        sides = (
            (conflcat._verify_deflation_lift_formula, pre, b.identity(x1), ecat._pair(x1, x2)[1][1]),
            (conflcat._verify_inflation_lift_formula, env, ecat._pair(x2, x3)[2][0], b.identity(x3)),
        )
        for lift_formula, dses, m1, m2 in sides:
            try:
                report.lift_tests += lift_formula(ecat, dses, samples, m1, m2)
            except VerificationError as exc:
                report.failures.append(f"{x.label}: {exc}")
    report.passed = not report.failures
    return report


def outcome(check, *args, **kwargs):
    """The verdict tuple of a biconditional check, or its error message."""
    try:
        return check(*args, **kwargs)
    except VerificationError as exc:
        return str(exc)


def paired_checks(monkeypatch):
    """Make the biconditional sweep run the grouped and the per-member check
    on every extension it enumerates; returns the list of their outcomes."""
    pairs = []
    grouped = conflcat.check_hom_exactness_matches_splitting

    def both(ecat, dses, bound=1, test_objects=None):
        got = outcome(grouped, ecat, dses, bound, test_objects)
        pairs.append((got, outcome(per_member_check, ecat, dses, bound, test_objects)))
        if isinstance(got, str):
            raise VerificationError(got)
        return got

    monkeypatch.setattr(conflcat, "check_hom_exactness_matches_splitting", both)
    return pairs


# -- agreement ----------------------------------------------------------------------

def test_grouped_biconditional_matches_per_member_at_bound_2(a2, monkeypatch):
    """Every extension at bound 2, against the 11 split objects of bound 1
    in 2 groups: the same (cov, member_down, contra, member_up)."""
    ecat = ConflCategory(a2[0])
    pairs = paired_checks(monkeypatch)
    report = sweep_hom_exactness_biconditional(ecat, bound=2, test_bound=1)
    assert report.passed and report.checked == 1462 == len(pairs)
    assert all(got == want for got, want in pairs)
    # both verdicts occur on each side, so neither branch is vacuous
    assert {got[0] for got, _ in pairs} == {got[2] for got, _ in pairs} == {True, False}


def test_grouped_checks_match_per_member_across_many_groups(a2, monkeypatch):
    """Bound 1 against the 99 split objects of bound 2, which make 45
    groups: the biconditional's verdicts, and the split-approximation
    sweep's lift_tests, objects_checked and verdict, agree."""
    ecat = ConflCategory(a2[0])
    assert len(ecat.split_sub.test_groups(ecat.split_sub.sample_objects(2))) == 45
    grouped = verify_splitting_pseudo_cluster_tilting(ecat, bound=1, test_bound=2)
    want = per_member_sweep(ecat, bound=1, test_bound=2)
    assert (grouped.passed, grouped.objects_checked, grouped.lift_tests, grouped.failures) == (
        want.passed,
        want.objects_checked,
        want.lift_tests,
        want.failures,
    )
    assert grouped.passed and grouped.lift_tests > 0
    pairs = paired_checks(monkeypatch)
    report = sweep_hom_exactness_biconditional(ecat, bound=1, test_bound=2)
    assert report.passed and report.checked == len(pairs) > 0
    assert all(got == want for got, want in pairs)


# -- failure diagnostics ------------------------------------------------------------

def zero_second_map(monkeypatch, name):
    """Hand the named lift formula a zero second section (retraction): it
    then fails for every test object with a morphism through that degree."""
    real = getattr(conflcat, name)

    def wrong(ecat, dses, tests, m1, m2):
        return real(ecat, dses, tests, m1, ecat.base.zero_mor(m2.src, m2.dst))

    monkeypatch.setattr(conflcat, name, wrong)


def zero_precover_deflation(monkeypatch):
    """Replace each split precover's deflation by zero: a lift then exists
    from a test object only when it has no morphism to the object."""
    real = conflcat.SplitConflationSubcat.precover

    def wrong(self, x):
        return self.cat.zero_mor(real(self, x).src, x)

    monkeypatch.setattr(conflcat.SplitConflationSubcat, "precover", wrong)


INJECTIONS = {
    "deflation-section": lambda mp: zero_second_map(mp, "_verify_deflation_lift_formula"),
    "inflation-retraction": lambda mp: zero_second_map(mp, "_verify_inflation_lift_formula"),
    "precover-deflation": zero_precover_deflation,
}


def named_after_the_first_of_its_group(ecat, failures):
    """Do some failures name a member that is not the first of its (multi-
    member) group, so the member-by-member re-check skipped a passing one?"""
    groups = ecat.split_sub.test_groups(ecat.split_sub.sample_objects(1))
    later = [re.escape(t.label) for g in groups for t in g.members[1:]]
    return any(re.search(rf"(from|to|against) ({'|'.join(later)})(:|$)", m) for m in failures)


@pytest.mark.parametrize("injection", sorted(INJECTIONS))
def test_failures_are_the_per_member_ones(a2, monkeypatch, injection):
    """With a check made to fail, the grouped sweeps record byte-identical
    failure lists to the per-member ones, at bound 1 on the A2 fixture."""
    INJECTIONS[injection](monkeypatch)
    ecat = ConflCategory(a2[0])
    grouped = verify_splitting_pseudo_cluster_tilting(ecat, bound=1)
    want = per_member_sweep(ecat, bound=1)
    assert grouped.failures and repr(grouped.failures) == repr(want.failures)
    assert (grouped.objects_checked, grouped.lift_tests) == (want.objects_checked, want.lift_tests)
    assert named_after_the_first_of_its_group(ecat, grouped.failures)
    if injection == "precover-deflation":
        return  # the biconditional reads no split precover deflation
    grouped = sweep_hom_exactness_biconditional(ecat, bound=1)
    monkeypatch.setattr(conflcat, "check_hom_exactness_matches_splitting", per_member_check)
    want = sweep_hom_exactness_biconditional(ecat, bound=1)
    assert grouped.failures and repr(grouped.failures) == repr(want.failures)
    assert grouped.checked == want.checked


# -- group shape and work --------------------------------------------------------------

def test_groups_partition_the_nonzero_members_in_order(a2):
    """For the bound-2 family: consecutive runs of the nonzero members, each
    of total dimension at most TEST_GROUP_DIM, summed to a canonical split
    conflation of that dimension; the zero object is in no group, and the
    groups are built once per family."""
    ecat = ConflCategory(a2[0])
    sub = ecat.split_sub
    family = sub.sample_objects(2)
    groups = sub.test_groups(family)
    assert len(family) == 99 and len(groups) == 45
    assert [t for g in groups for t in g.members] == [t for t in family if t.total_dim > 0]
    assert family[0].total_dim == 0
    for g in groups:
        dim = sum(t.total_dim for t in g.members)
        assert dim <= TEST_GROUP_DIM and g.sum.total_dim == dim
        assert ecat._is_canonical_split_obj(g.sum)
        assert len(g.members) > 1 or g.sum is g.members[0]
    assert sub.test_groups(sub.sample_objects(2)) is groups
    assert len(sub.test_groups(sub.sample_objects(1))) == 2


def test_groups_refuse_a_member_that_is_not_canonical_split(a2):
    cat, o = a2
    ecat = ConflCategory(cat)
    x = ecat.make_obj(cat.conflation(cat.hom_basis(o["S2"], o["P1"])[0], cat.hom_basis(o["P1"], o["S1"])[0]), name="X")
    with pytest.raises(ValueError, match=r"test object X is not a canonical split"):
        ecat.split_sub.test_groups(ecat.split_sub.sample_objects(1) + [x])


def test_each_component_decision_is_made_once_and_only_on_the_base(a2, monkeypatch):
    """Exactness against a split test object is decided on degree components
    by the base: a sweep makes no conflation-level hom_exact call, decides
    each (component, end, side) at most once per category, and a second
    sweep on the same category decides nothing anew."""
    ecat = ConflCategory(a2[0])
    calls = []
    real = conflcat.hom_exact
    monkeypatch.setattr(conflcat, "hom_exact", lambda *args: calls.append(args) or real(*args))
    report = sweep_hom_exactness_biconditional(ecat, bound=2, test_bound=1)
    assert report.passed and report.checked == 1462
    assert calls and all(cat is ecat.base for cat, _, _, _ in calls)
    keys = [(conflation_key(c), t.key, side) for _, c, t, side in calls]
    assert len(set(keys)) == len(keys) == len(ecat._component_exact)
    assert {side for *_, side in keys} == {"covariant", "contravariant"}
    calls.clear()
    assert sweep_hom_exactness_biconditional(ecat, bound=2, test_bound=1) == report
    assert not calls


def test_a_sum_failing_its_left_exactness_check_is_retested_per_member(a2, monkeypatch):
    """The base's left-exactness check names no test object.  When it fails
    on a group sum's end the members decide, in order: a member that is not
    hom-exact before any failing one is the verdict, as a per-member test
    would have stopped there; members that all pass leave the sum's error."""
    ecat = ConflCategory(a2[0])
    groups = ecat.split_sub.test_groups(ecat.split_sub.sample_objects(1))
    assert all(len(g.members) > 1 for g in groups)
    members = groups[0].members
    # the end term of the sum that no member has: its base decision fails
    sum_end = groups[0].sum.t3.key
    assert sum_end not in {e.key for t in members for e in (t.t1, t.t3)}

    def run(not_exact):
        ecat = ConflCategory(a2[0])
        dses = conflcat.nonsplit_with_split_ends(ecat)

        def he(cat, comp, end, side):
            assert cat is ecat.base
            if end.key == sum_end:
                raise VerificationError("sum not left exact")
            return end.key not in not_exact

        monkeypatch.setattr(conflcat, "hom_exact", he)
        tested = []
        real = ecat.split_hom_exact
        ecat.split_hom_exact = lambda c, t, side: tested.append(t) or real(c, t, side)
        try:
            return conflcat._hom_exact_by_group(ecat, dses, groups, "covariant")
        finally:
            assert tested[0] is groups[0].sum and tested[1:] == list(members[: len(tested) - 1])

    # the second member's degree 0 decision, against its end S1, fails; the first has no end S1
    assert members[1].t3.key not in {members[0].t1.key, members[0].t3.key}
    assert run({members[1].t3.key}) is False
    with pytest.raises(VerificationError, match="sum not left exact"):
        run(set())
