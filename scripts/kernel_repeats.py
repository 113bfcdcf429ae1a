"""How often the F_p kernel is asked the same question, for one command.

Runs one exactcat command line in this process, with the five public
eliminations of `fflinalg` (`array_rank`, `rref`, `kernel_basis`,
`solve_right` and `quotient_space`) counted at entry, and prints per entry
point and size bucket the calls, the distinct inputs and the repeat share,
the part of the calls whose input equals an earlier one.  That share is
what the store of small eliminations (`fflinalg.by_value`) can save.

The size of a call is the entry count of the matrix it eliminates, the
`.entries` its store reads.  The buckets are: at most SMALL_ELIM_ENTRIES
(144; the calls the store keeps), at most PRUNE_ENTRIES (4,096), and
larger.  A store hit still counts as a call, and nested calls count too
(`BlockSystem.kernel` calls `kernel_basis`).  An input is its p, shapes and
bytes, kept as a digest.  The command's report is discarded; the exit code
is the command's.

    PYTHONPATH=src python scripts/kernel_repeats.py classes SPEC --subcategory P --bound 5
    PYTHONPATH=src python scripts/kernel_repeats.py verify-paper --seed 1
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys

import numpy as np

from exactcat import cli
from exactcat import fflinalg as ff

ENTRY_POINTS = ("array_rank", "rref", "kernel_basis", "solve_right", "quotient_space")
BUCKETS = ((ff.SMALL_ELIM_ENTRIES, f"<={ff.SMALL_ELIM_ENTRIES}"), (ff.PRUNE_ENTRIES, f"<={ff.PRUNE_ENTRIES}"), (None, "larger"))


def bucket(entries: int) -> str:
    return next(name for limit, name in BUCKETS if limit is None or entries <= limit)


def digest(args) -> bytes:
    """The input's value: p and every matrix argument's shape and bytes."""
    h = hashlib.blake2b(digest_size=16)
    for arg in args:
        a = arg.a if isinstance(arg, ff.FpMatrix) else arg
        if isinstance(a, np.ndarray):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(arg).encode())
        h.update(b"|")
    return h.digest()


def counted(name: str, fn, seen: dict):
    def wrapper(*args):
        count = seen.setdefault((name, bucket(fn.entries(*args))), [0, set()])
        count[0] += 1
        count[1].add(digest(args))
        return fn(*args)

    return wrapper


def install(seen: dict) -> None:
    """Replace each entry point in every exactcat module that holds it."""
    modules = [m for n, m in sys.modules.items() if n == "exactcat" or n.startswith("exactcat.")]
    for name in ENTRY_POINTS:
        fn = getattr(ff, name)
        wrapper = counted(name, fn, seen)
        for module in modules:
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapper)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    seen: dict = {}
    install(seen)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(f"{'entry point':<16}{'bucket':>8}{'calls':>10}{'distinct':>10}{'repeat':>9}")
    order = [name for _, name in BUCKETS]
    for (name, b), (calls, inputs) in sorted(seen.items(), key=lambda kv: (ENTRY_POINTS.index(kv[0][0]), order.index(kv[0][1]))):
        share = (calls - len(inputs)) / calls
        print(f"{name:<16}{b:>8}{calls:>10}{len(inputs):>10}{share:>9.1%}")
    print(f"exactcat {' '.join(argv)}: exit {code}")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
