"""exactcat benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in workloads.py.  Each op of a workload runs in
a fresh process (child.py) under a 2 GiB address-space cap, against the
sources in src/.  Ops repeat, one after another, until S seconds have
passed; every report is checked against expected.json.

--trace 0 prints the end-to-end metrics:
  wall_s        median op time from the first command's start to the last
                report, set-up excluded, at reference machine speed (see
                child.py; the measured times go to stderr);
  setup_s       median of SETUP_PROBES fresh processes timing the import of
                exactcat plus parse_spec of the op's specs, numpy imported
                untimed beforehand, at reference machine speed; one untimed
                probe first writes exactcat's bytecode cache;
  peak_rss_mb   median per-op peak resident memory;
  checks_per_s  median of the reports' own work counters per second of wall_s.
--trace 1 alternates untraced and traced ops and prints the per-layer
metrics of layertrace.py (median over traced ops, times at reference speed),
trace.overhead_s, the traced minus the untraced median wall_s, and
run.wall_s and run.wall_measured_s, the untraced median op time at reference
speed and as measured.  The spans of the last traced op are written to
.perfbench_work/.

The reference-speed times are only valid while the program runs a single
Python thread (see child.py).  Metric names and units are the ones declared
in BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted (command invocations), failed (commands whose exit code or
checked output was wrong) and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from workloads import WORKLOADS, check_report, load_expected, op_inputs, work_done  # noqa: E402

MEM_CAP_BYTES = 2 << 30  # precover-large peaks near 1 GiB of address space
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # every process of a run ends within this


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def run_child(task: dict, timeout: float):
    """Run child.py on one task; its result, or None if it failed or timed out."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(task)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        preexec_fn=_cap_memory,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"benchmark: {task['mode']} process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"benchmark: {task['mode']} process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.decode("utf-8").splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "exactcat", "cli.py")):
        print(f"benchmark: no exactcat sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    expected = load_expected()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    specs, _ = op_inputs(args.workload, args.seed, 0, workdir)
    setup = []
    for _ in range(1 + SETUP_PROBES):  # the first probe writes the bytecode cache
        r = run_child({"root": ROOT, "mode": "setup", "specs": specs}, deadline - time.monotonic())
        if r is None:
            return 2
        setup.append(r)
    setup = setup[1:]
    print(
        f"benchmark: set-up {statistics.median(r['setup_raw_s'] for r in setup):.4f} s measured,"
        f" {statistics.median(r['setup_s'] for r in setup):.4f} s at reference speed",
        file=sys.stderr,
    )

    walls, raw_walls, traced_walls, rss, rates, layers = [], [], [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    op = 0
    while True:
        traced = bool(args.trace) and op % 2 == 1
        specs, commands = op_inputs(args.workload, args.seed, op, workdir)
        task = {
            "root": ROOT,
            "mode": "op",
            "specs": specs,
            "commands": commands,
            "trace": traced,
            "spans": os.path.join(workdir, f"spans-{args.workload}.npz"),
        }
        r = run_child(task, deadline - time.monotonic())
        attempted += len(commands)
        if r is None:
            failed += len(commands)
            break
        work = 0
        for index, out in enumerate(r["outputs"]):
            problems = check_report(expected, args.workload, index, out["report"], out["exit_code"])
            for problem in problems:
                print(f"benchmark: op {op} command {index}: {problem}", file=sys.stderr)
            failed += bool(problems)
            if not problems:
                work += work_done(json.loads(out["report"]))
        if traced:
            traced_walls.append(r["wall_s"])
            layers.append(r["layers"])
            if r["absent"]:
                print(f"benchmark: absent from this program: {', '.join(r['absent'])}", file=sys.stderr)
        else:
            walls.append(r["wall_s"])
            raw_walls.append(r["wall_raw_s"])
            rss.append(r["rss_mb"])
            rates.append(work / r["wall_s"])
        print(
            f"benchmark: op {op}{' traced' if traced else ''}: wall {r['wall_raw_s']:.3f} s measured,"
            f" {r['wall_s']:.3f} s at reference speed",
            file=sys.stderr,
        )
        op += 1
        now = time.monotonic()
        if not walls or (args.trace and not traced_walls):
            continue
        if now - start >= args.seconds or deadline - now < 1.5 * r["wall_raw_s"]:
            break

    if not walls or (args.trace and not layers):
        values = {}
    elif args.trace:
        values = {name: statistics.median(op_layers[name] for op_layers in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        values["run.wall_s"] = statistics.median(walls)
        values["run.wall_measured_s"] = statistics.median(raw_walls)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in setup),
            "peak_rss_mb": statistics.median(rss),
            "checks_per_s": statistics.median(rates),
        }
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind] if values}
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
