"""Benchmark workloads: seeded specs, command lines and output checks.

A workload is one closed-loop caller issuing a fixed list of exactcat
commands, one after another, at the CLI defaults (--jobs 1, --cap 4096).
One iteration of that list is an "op"; each op runs in a fresh process on
a spec generated from (seed, op index), so no cache can carry over between
ops.  Every check below compares seed-invariant facts of the reports
(verdicts, exit codes, the qhom table, work counters) with values recorded
in expected.json, and the `paper` report with its golden sha256.
"""
from __future__ import annotations

import hashlib
import json
import os

from specgen import make_spec, spec_bytes

HERE = os.path.dirname(os.path.abspath(__file__))

A3_SIX = {name: [name] for name in ("P1", "P2", "S3", "S1", "I2", "S2")}
A3_P = {"P": ["P1", "P2", "S3", "S1", "I2"]}


def _quotient_p3(key: str) -> dict:
    return make_spec(key, 3, 3, {**A3_SIX, "X": ["S2", "P2"]}, A3_P)


def _classes_p2(key: str) -> dict:
    return make_spec(
        key,
        3,
        2,
        {**A3_SIX, "X": ["S2", "P2", "I2"], "Y": ["P1", "S2", "S2"]},
        A3_P,
        {"ext_P2_S1": ("P2", "P1", "S1", [(0, 0)], [(0, 0)])},
        permute=("P",),
    )


def _precover_large(key: str) -> dict:
    objects = {"P1": ["P1"], "S1": ["S1"], "S2": ["S2"], "X": ["P1", "S1", "S1", "S2"]}
    return make_spec(key, 2, 2, objects, {"addX": ["X"]})


# name -> (spec builder or None for the bundled fixtures, command lines).
# "{spec}" and "{seed}" are filled in per op.  The sizes keep every run
# within the benchmark's time budget: quotient-p3 leaves out Y = I2+S2 and
# classes-p2 runs --bound 5, not 6.  precover-large must not grow: with
# X = P1^2+S1+S2 one op needs 2.3 GB.
WORKLOADS = {
    "paper": (None, [["verify-paper", "--seed", "{seed}"]]),
    "quotient-p3": (
        _quotient_p3,
        [
            ["quotient", "{spec}", "--subcategory", "P", "--seed", "{seed}"],
            ["iso-agreement", "{spec}", "--seed", "{seed}"],
        ],
    ),
    "classes-p2": (
        _classes_p2,
        [["classes", "{spec}", "--subcategory", "P", "--bound", "5", "--seed", "{seed}"]],
    ),
    "precover-large": (
        _precover_large,
        [["check-pct", "{spec}", "--subcategory", "addX", "--seed", "{seed}"]],
    ),
}

# Report fields compared with expected.json wherever they occur.
CHECKED_KEYS = (
    "verdict",
    "exit_code",
    "qhom_table",
    "failures",
    "testset",
    "in_class_S",
    "in_class_T",
    "splits",
    "consistent",
    "checked",
    "lift_tests",
    "objects_checked",
    "conflations_examined",
    "split0_sequences_checked",
)
# The report's own work counters; a testset counts one per object checked.
WORK_KEYS = ("checked", "lift_tests", "objects_checked", "conflations_examined", "split0_sequences_checked")


def op_inputs(workload: str, seed: int, op: int, workdir: str) -> tuple[list[str], list[list[str]]]:
    """Write the op's spec (if any) and return (spec paths, command lines)."""
    builder, commands = WORKLOADS[workload]
    paths = []
    spec = ""
    if builder is not None:
        data = spec_bytes(builder(f"{seed}.{op}"))
        spec = os.path.join(workdir, f"{workload}.json")  # overwritten by every op
        with open(spec, "wb") as fh:
            fh.write(data)
        paths.append(spec)
    argvs = [[a.format(spec=spec, seed=seed) for a in argv] for argv in commands]
    return paths, argvs


def projection(node, path: str = "") -> dict:
    """The CHECKED_KEYS leaves of a report, keyed by their JSON path."""
    out = {}
    if isinstance(node, dict):
        for k, v in node.items():
            sub = f"{path}/{k}"
            if k in CHECKED_KEYS:
                out[sub] = v
            elif isinstance(v, (dict, list)):
                out.update(projection(v, sub))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out.update(projection(v, f"{path}/{i}"))
    return out


def work_done(node) -> int:
    if isinstance(node, dict):
        total = sum(v for k, v in node.items() if k in WORK_KEYS and isinstance(v, int))
        if isinstance(node.get("testset"), list):
            total += len(node["testset"])
        return total + sum(work_done(v) for k, v in node.items() if isinstance(v, (dict, list)))
    if isinstance(node, list):
        return sum(work_done(v) for v in node)
    return 0


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_report(expected: dict, workload: str, index: int, text: str, exit_code: int) -> list[str]:
    """Problems with one command's output; an empty list means correct."""
    want = expected[workload][index]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "sha256" in want:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != want["sha256"]:
            problems.append(f"report sha256 {digest} != golden {want['sha256']}")
    try:
        got = projection(json.loads(text))
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    for path, value in want["fields"].items():
        if got.get(path) != value:
            problems.append(f"{path}: got {got.get(path)!r}, expected {value!r}")
    return problems
