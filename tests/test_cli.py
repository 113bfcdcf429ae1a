import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from exactcat import cli
from exactcat.cli import SpecValidationError, build_spec, parse_spec, serialize_spec

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "exactcat" / "fixtures"
A2 = str(FIXTURES / "a2_base.json")
A3 = str(FIXTURES / "a3_projinj.json")


def run_cli(*argv, timeout=540):
    return subprocess.run(
        [sys.executable, "-m", "exactcat", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_parse_bundled_fixture():
    doc = parse_spec(A3)
    assert set(doc.objects) == {"P1", "P2", "S3", "S1", "I2", "S2"}
    assert set(doc.subcategories) == {"P"}
    assert set(doc.conflations) == {"ext_P2_S1"}
    assert doc.cat.p == 2


def test_parse_empty_objects_is_valid():
    raw = {
        "schema": "exactcat/1",
        "field": {"char": 2},
        "quiver": {"vertices": ["1"], "arrows": []},
    }
    doc = build_spec(raw)
    assert doc.objects == {}


def test_parse_reports_all_errors():
    raw = {
        "schema": "exactcat/0",
        "field": {"char": 4},
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [{"name": "a1", "from": "1", "to": "2"}],
        },
        "objects": {
            "bad": {"dims": {"1": 1, "2": 1}, "maps": {"a1": [[1, 0]]}},
            "ghost": {"dims": {"9": 1}},
        },
        "subcategories": {"S": ["missing"]},
    }
    with pytest.raises(SpecValidationError) as exc:
        build_spec(raw)
    messages = "\n".join(exc.value.errors)
    assert "schema" in messages
    assert "characteristic 4" in messages
    assert "bad" in messages and "a1" in messages and "(1, 2)" in messages and "(1, 1)" in messages
    assert "unknown vertices" in messages
    assert "missing" in messages
    assert len(exc.value.errors) >= 5


def test_roundtrip_idempotent():
    doc = parse_spec(A3)
    canon = serialize_spec(doc)
    again = serialize_spec(build_spec(canon))
    assert json.dumps(canon, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_check_pct_exit_zero():
    res = run_cli("check-pct", A3, "--subcategory", "P")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "pass"
    assert payload["schema"] == "exactcat-report/1"


def test_check_pct_failure_exit_one():
    res = run_cli("check-pct", A2, "--subcategory", "addP1")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "fail"
    assert any("S2" in f for f in payload["report"]["failures"])


def test_quotient_table_matches_golden():
    golden = json.loads((Path(__file__).parent / "golden" / "a3_qhom_table.json").read_text())
    res = run_cli("quotient", A3, "--subcategory", "P")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["report"]["qhom_table"] == golden


def test_classes_refused_bound_exit_two():
    res = run_cli("classes", A3, "--subcategory", "P", "--conflation", "ext_P2_S1", "--subobject-bound", "1")
    assert res.returncode == 2
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "refused-bound"
    assert payload["report"]["required"] >= 2


@pytest.mark.parametrize(
    "flags, task, message",
    [
        (["--bound", "0"], {}, "the bound must be at least 1, got 0"),
        (["--test-bound", "0"], {}, "the test bound must be at least 1, got 0"),
        ([], {"bound": 0}, "the bound must be at least 1, got 0"),
        ([], {"test_bound": 0}, "the test bound must be at least 1, got 0"),
        ([], {"harness_bound": 0}, "the harness bound must be at least 1, got 0"),
    ],
    ids=["bound-flag", "test-bound-flag", "spec-bound", "spec-test-bound", "spec-harness-bound"],
)
def test_confl_refuses_a_sweep_that_checks_nothing(tmp_path, flags, task, message):
    """Bound 0 checks only the zero object, test bound 0 tests against the
    zero conflation alone, and harness bound 0 runs the cluster-quotient
    harness on the zero sequence alone; from a flag or from the spec's
    confl task, each is a refused-bound report (exit 2, required 1), not a
    pass."""
    raw = json.loads(Path(A2).read_text())
    for t in raw["tasks"]:
        if t["command"] == "confl":
            t.update(task)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    assert cli.main(["confl", str(spec), *flags, "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "refused-bound" and payload["exit_code"] == 2
    assert payload["report"]["required"] == 1
    assert payload["report"]["error"] == f"confl: {message}"


def test_unknown_subcategory_fails():
    res = run_cli("quotient", A3, "--subcategory", "nope")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert "nope" in "".join(payload["report"]["errors"])


def test_confl_deterministic_across_runs(tmp_path):
    """Two separate confl runs write byte-identical reports."""
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    res1 = run_cli("confl", A2, "--bound", "1", "--out", str(out1))
    res2 = run_cli("confl", A2, "--bound", "1", "--out", str(out2))
    assert res1.returncode == 0 and res2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_jobs_option_is_a_usage_error(capsys):
    """--jobs was removed (the sweeps run in one thread); argparse refuses it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-paper", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["confl", A2, "--bound", "-1"],
        ["confl", A2, "--test-bound", "-2"],
        ["quotient", A3, "--cap", "-5"],
        ["quotient", A3, "--seed", "-1"],
        ["verify-paper", "--seed", "-1"],
        ["classes", A3, "--search-random", "-1"],
        ["classes", A3, "--subcategory", "P", "--subobject-bound", "-1"],
    ],
    ids=["bound", "test-bound", "cap", "seed", "verify-paper-seed", "search-random", "subobject-bound"],
)
def test_negative_counts_are_a_usage_error(argv, capsys):
    """A negative bound, subobject bound, cap, seed or search count is refused
    by argparse (exit 2, the flag named), not swept as nothing and passed, or
    handed to numpy."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be a non-negative integer" in err



@pytest.mark.parametrize(
    "command, flag",
    [
        *((c, f) for c in ("quotient", "iso-agreement") for f in ("--bound", "--test-bound", "--subobject-bound")),
        *(("check-pct", f) for f in ("--bound", "--test-bound", "--subobject-bound", "--cap")),
        ("classes", "--test-bound"),
        ("confl", "--subobject-bound"),
    ],
)
def test_unread_flags_are_a_usage_error(command, flag, capsys):
    """A flag the command never reads is not offered: argparse refuses it
    (exit 2, the flag named) instead of accepting a knob that does nothing."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, A2 if command == "confl" else A3, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

def test_check_pct_unknown_testset_objects_are_a_validation_error():
    res = run_cli("check-pct", A3, "--subcategory", "P", "--testset", "P1,NOPE,GONE")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "fail"
    errors = "".join(payload["report"]["errors"])
    assert "NOPE" in errors and "GONE" in errors and "P1" not in errors


def test_text_format_renders():
    res = run_cli("check-pct", A3, "--subcategory", "P", "--format", "text")
    assert res.returncode == 0
    assert "verdict: pass" in res.stdout


def test_exit_codes_match_verdicts():
    from exactcat.cli import EXIT_BY_VERDICT

    assert EXIT_BY_VERDICT == {
        "pass": 0,
        "sampled-pass": 0,
        "fail": 1,
        "refused-bound": 2,
    }


def test_fixture_reports_match_golden_sha256(tmp_path):
    """Five fixture reports, regenerated in-process, keep their recorded bytes."""
    golden = json.loads((Path(__file__).parent / "golden" / "fixture_report_sha256.json").read_text())
    for name, case in golden.items():
        command, spec, *rest = case["argv"]
        out = tmp_path / f"{name}.json"
        assert cli.main([command, str(FIXTURES / spec), *rest, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"], name


def test_seeded_reports_match_golden_sha256(tmp_path):
    """Reports on seeded benchmark-shape specs keep their recorded bytes.

    The fixtures hold bricks only; these specs (perfbench/specgen.make_spec
    with the quotient-p3, classes-p2 and precover-large workload shapes,
    keys golden.1, golden.2 and golden.3) have non-brick objects such as
    S2 (+) P2 and the generator X = P1 (+) S1^2 (+) S2, whose precovers are
    smaller than the evaluation of the whole hom bases.
    """
    golden_dir = Path(__file__).parent / "golden"
    golden = json.loads((golden_dir / "seeded_report_sha256.json").read_text())
    for name, case in golden.items():
        command, spec, *rest = case["argv"]
        out = tmp_path / f"{name}.json"
        assert cli.main([command, str(golden_dir / spec), *rest, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"], name


@pytest.mark.parametrize("name", ["a2_iso_agreement", "a3_iso_agreement"])
def test_iso_agreement_golden_sha256_under_optimize(tmp_path, name):
    """Under python -O, where asserts are stripped, the iso-agreement reports keep their bytes."""
    case = json.loads((Path(__file__).parent / "golden" / "fixture_report_sha256.json").read_text())[name]
    command, spec, *rest = case["argv"]
    out = tmp_path / f"{name}.json"
    argv = [sys.executable, "-O", "-m", "exactcat", command, str(FIXTURES / spec), *rest, "--out", str(out)]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=540)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"], name


def _a2_spec():
    return {
        "schema": "exactcat/1",
        "field": {"char": 2},
        "quiver": {"vertices": ["1", "2"], "arrows": [{"name": "a1", "from": "1", "to": "2"}]},
        "objects": {
            "P1": {"dims": {"1": 1, "2": 1}, "maps": {"a1": [[1]]}},
            "S1": {"dims": {"1": 1}},
            "S2": {"dims": {"2": 1}},
        },
        "subcategories": {"P": ["P1"]},
        "conflations": {
            "ext": {
                "incl": {"src": "S2", "dst": "P1", "comps": {"2": [[1]]}},
                "proj": {"src": "P1", "dst": "S1", "comps": {"1": [[1]]}},
            }
        },
        "tasks": [{"command": "classes", "subcategory": "P", "bound": 2}],
    }


def _with(path, value):
    """A copy of the A2 spec with the entry at path (a key list) replaced."""

    def make():
        spec = _a2_spec()
        node = spec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return spec

    return make


MALFORMED_SPECS = {
    "non-integer dims": (_with(["objects", "S1", "dims"], {"1": "a"}), "S1"),
    "fractional dims": (_with(["objects", "S1", "dims"], {"1": 1.5}), "S1"),
    "negative dims": (_with(["objects", "S1", "dims"], {"1": -1}), "S1"),
    "ragged matrix": (_with(["objects", "P1", "maps", "a1"], [[1, 0], [1]]), "a1"),
    "non-object top level": (lambda: [_a2_spec()], "JSON object"),
    "objects as a list": (_with(["objects"], ["P1", "S1"]), "objects"),
    "arrow entry not an object": (_with(["quiver", "arrows"], ["a1"]), "arrows"),
    "arrow without a name": (_with(["quiver", "arrows"], [{"from": "1", "to": "2"}]), "arrow name None"),
    "vertex name a list": (_with(["quiver", "vertices"], ["1", "2", ["x"]]), "vertex ['x']"),
    "generator string": (_with(["subcategories", "P"], "P1"), "subcategory P"),
    "conflation not an object": (_with(["conflations", "ext"], "P1"), "conflation ext"),
    "ragged component": (_with(["conflations", "ext", "incl", "comps", "2"], [[1], []]), "ext.incl"),
    "task bound not an integer": (_with(["tasks", 0, "bound"], "5"), "task"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_malformed_spec_is_a_validation_error(case):
    make, needle = MALFORMED_SPECS[case]
    with pytest.raises(SpecValidationError) as exc:
        build_spec(make())
    assert any(needle in e for e in exc.value.errors), exc.value.errors


def test_an_empty_list_is_a_map_with_no_rows():
    """[] is the only JSON form of a 0 x n matrix: an object map into a zero
    space and a conflation component into one parse as 0 x n, and [] stays
    refused where the map has rows."""
    spec = _a2_spec()
    spec["objects"]["T"] = {"dims": {"1": 2}, "maps": {"a1": []}}
    spec["conflations"]["ext"]["proj"]["comps"]["2"] = []
    doc = build_spec(spec)
    assert doc.objects["T"].maps["a1"].a.shape == (0, 2)
    defl = doc.conflations["ext"].defl
    assert defl.comp("2").a.shape == (0, 1) and defl.vec.tolist() == [1]
    spec["objects"]["P1"]["maps"]["a1"] = []
    with pytest.raises(SpecValidationError) as exc:
        build_spec(spec)
    assert "object P1, arrow a1: matrix shape (0, 1) does not match (1, 1)" in exc.value.errors


def test_malformed_spec_lists_every_problem():
    spec = _a2_spec()
    spec["objects"]["S1"]["dims"] = {"1": 1.5}
    spec["objects"]["P1"]["maps"]["a1"] = [[1, 0], [1]]
    spec["subcategories"]["P"] = "P1"
    spec["quiver"]["arrows"].append("a2")
    with pytest.raises(SpecValidationError) as exc:
        build_spec(spec)
    for needle in ("object S1", "arrow a1", "subcategory P", "quiver.arrows"):
        assert any(needle in e for e in exc.value.errors), (needle, exc.value.errors)


def test_malformed_spec_cli_reports_without_traceback(tmp_path):
    path = tmp_path / "bad.json"
    spec = _a2_spec()
    spec["objects"]["S1"]["dims"] = {"1": "a"}
    path.write_text(json.dumps(spec))
    res = run_cli("quotient", str(path))
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "fail"
    assert any("S1" in e for e in payload["report"]["errors"])


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("command", ["quotient", "classes"])
def test_failed_precover_condition_is_a_fail_report(tmp_path, command, optimize):
    """add(S2) on A2 has no precover conflation at P1: the quotient and class
    commands, which require it, report the failed condition and exit 1."""
    spec = json.loads(Path(A2).read_text())
    spec["subcategories"] = {"P": ["S2"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [sys.executable] + (["-O"] if optimize else []) + ["-m", "exactcat", command, str(path), "--subcategory", "P"]
    res = subprocess.run(argv, capture_output=True, text=True, timeout=540)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    payload = json.loads(res.stdout)
    assert payload["verdict"] == "fail" and payload["exit_code"] == 1
    assert any("condition precover-conflation fails" in e for e in payload["report"]["errors"])


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, width=16) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@given(st.sampled_from(list(_paths(_a2_spec()))), JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_fuzzed_spec_parses_or_is_a_validation_error(path, value):
    """Any JSON value anywhere in a valid spec: a document or a SpecValidationError, nothing else."""
    try:
        build_spec(_with(list(path), value)())
    except SpecValidationError:
        pass


def test_zero_generators_name_the_zero_subcategory():
    """add(Z) for a zero object Z is add() itself: the quotient and class
    reports of the two agree apart from the label (A2 over F_3)."""
    raw = {
        "schema": "exactcat/1",
        "field": {"char": 3},
        "quiver": {"vertices": ["1", "2"], "arrows": [{"name": "a1", "from": "1", "to": "2"}]},
        "objects": {
            "P1": {"dims": {"1": 1, "2": 1}, "maps": {"a1": [[1]]}},
            "S1": {"dims": {"1": 1}},
            "S2": {"dims": {"2": 1}},
            "Z": {"dims": {}},
        },
        "subcategories": {"E": [], "Zs": ["Z"]},
        "conflations": {
            "ext": {
                "incl": {"src": "S2", "dst": "P1", "comps": {"2": [[1]]}},
                "proj": {"src": "P1", "dst": "S1", "comps": {"1": [[1]]}},
            }
        },
    }
    args = dict(cap=4096, seed=0, bound=None, subobject_bound=8, conflation=None, search_random=0)
    for command in (cli.cmd_quotient, cli.cmd_classes):
        reports = {}
        for name in ("E", "Zs"):
            report = command(build_spec(raw), argparse.Namespace(subcategory=name, **args))
            assert report.pop("subcategory") == name
            reports[name] = json.dumps(report, sort_keys=True)
        assert reports["E"] == reports["Zs"]
        assert json.loads(reports["E"])["verdict"] == "pass"


def test_iso_agreement_refuses_a_spec_without_subcategories(tmp_path):
    """With no subcategory the iso-agreement sweep checks nothing, so the
    command refuses the spec (exit 1, a fail report), as check-pct does
    without one, instead of passing with an empty list."""
    raw = {
        "schema": "exactcat/1",
        "field": {"char": 2},
        "quiver": {"vertices": ["1", "2"], "arrows": [{"name": "a1", "from": "1", "to": "2"}]},
        "objects": {"S1": {"dims": {"1": 1}}, "S2": {"dims": {"2": 1}}},
        "subcategories": {},
    }
    with pytest.raises(SpecValidationError) as exc:
        cli.cmd_iso_agreement(build_spec(raw), argparse.Namespace(cap=4096, seed=0))
    assert exc.value.errors == ["iso-agreement: the spec names no subcategory"]
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(json.dumps(raw))
    assert cli.main(["iso-agreement", str(spec), "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "fail"
    assert payload["report"]["errors"] == ["iso-agreement: the spec names no subcategory"]
