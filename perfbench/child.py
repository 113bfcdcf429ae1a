"""One benchmark process: a set-up probe or one op, run against <root>/src.

Usage: python3 child.py TASK_JSON.  TASK_JSON holds root, mode ("setup" or
"op"), the spec paths and command lines of the op, and for an op whether to
trace and where to write the spans.  The result is one JSON line on stdout;
the program's own reports are captured, not printed.

Op times are reported twice: as measured, and rescaled to a reference
machine speed.  The host of a small VM slows its vCPUs by up to 2x for
seconds at a time, so raw op times of one input spread by 25-30% between
runs.  A fixed calibration loop that does not use exactcat is timed every
CALIBRATE_EVERY_S during an op (from a SIGALRM handler, so the samples see
the same vCPU state the op sees); its time is subtracted from the op and the
op is rescaled to the speed at which the loop takes REFERENCE_S.  A set-up
probe is too short to sample during; it is rescaled by SETUP_SAMPLES
samples taken before it and as many after.  The op samples share the
interpreter with the program, so they are only taken while the program
runs a single Python thread (another thread would hold the GIL during a
sample and make the machine look slower); an op with no sample fails.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import threading
import time
import traceback

CALIBRATE_EVERY_S = 0.1
REFERENCE_S = 0.002  # one calibration loop at reference speed
SETUP_SAMPLES = 3


def _calibrate(np) -> float:
    """Time 1000 small numpy products, the operation mix exactcat spends its time on."""
    a = np.array([[1, 0], [1, 1]], dtype=np.int64)
    acc = 0
    t0 = time.perf_counter()
    for i in range(1000):
        b = (a @ a) % 2
        acc += int(b[1, 0]) + (i & 3)
    return time.perf_counter() - t0


def _speed(samples: list[float]) -> float:
    """Mean machine speed relative to reference (reference seconds per wall second)."""
    return REFERENCE_S * sum(1.0 / s for s in samples) / len(samples)


class SpeedSampler:
    """Calibration samples (start, duration) taken on SIGALRM while the `with` body runs."""

    def __init__(self, np):
        self.np = np
        self.starts: list[float] = []
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        if threading.active_count() > 1:
            return
        try:
            start = time.perf_counter()
            self.samples.append(_calibrate(self.np))
            self.starts.append(start)
        except Exception:  # never raise into the program under test
            pass

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        if not self.samples:
            raise RuntimeError("no calibration sample was taken: the op ran more than one thread throughout")
        return _speed(self.samples)


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from exactcat import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"exactcat imported from {cli.__file__}, not from {src}")
    return cli


def setup(task: dict) -> dict:
    """Time the import of exactcat and parse_spec of the op's specs (the bundled fixtures when it has none).

    numpy is imported first and untimed: its import cost belongs to the
    environment, and with its OpenBLAS thread start-up it took two thirds
    of the probe and most of the probe's spread between runs.
    """
    import numpy as np

    samples = [_calibrate(np) for _ in range(SETUP_SAMPLES)]
    t0 = time.perf_counter()
    cli = _import_cli(task["root"])
    paths = task["specs"]
    if not paths:
        from importlib import resources

        fixtures = resources.files("exactcat.fixtures")
        paths = sorted(str(f) for f in fixtures.iterdir() if f.name.endswith(".json"))
    for path in paths:
        cli.parse_spec(path)
    raw = time.perf_counter() - t0
    samples += [_calibrate(np) for _ in range(SETUP_SAMPLES)]
    return {"setup_raw_s": raw, "setup_s": raw * _speed(samples)}


def op(task: dict) -> dict:
    cli = _import_cli(task["root"])
    import numpy as np

    tracer = None
    if task["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    outputs = []
    with SpeedSampler(np) as sampler:
        t0 = time.perf_counter()
        for argv in task["commands"]:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                code = None
            outputs.append({"exit_code": code, "report": buf.getvalue()})
        raw = time.perf_counter() - t0
    factor = sampler.factor()
    result = {
        "wall_raw_s": raw,
        "wall_s": (raw - sum(sampler.samples)) * factor,
        "speed_factor": factor,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(factor, sampler.starts, sampler.samples)
        result["absent"] = tracer.absent
        tracer.save(task["spans"])
    return result


if __name__ == "__main__":
    task = json.loads(sys.argv[1])
    result = setup(task) if task["mode"] == "setup" else op(task)
    sys.stdout.write(json.dumps(result) + "\n")
