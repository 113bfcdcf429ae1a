"""Micro-benchmark behind fflinalg.SMALL_ELIM_ENTRIES and PRUNE_ENTRIES.

Part 1 times Gaussian elimination on Python int lists (`_rref_rows`, plus
the list <-> array conversions `_rref_array` pays) against the int64-array
path without pruning (one copy, `_eliminate`) on random matrices of the
shapes the engine eliminates: square, wide (solve_right's augmented
systems) and tall.  It prints the largest entry count at which the list
path still wins on every shape measured up to that size.

Part 2 times the array path without and with the column pruning of
`_rref_numpy` (PRUNE_ENTRIES forced to 0) on wide matrices shaped like the
systems `AddSubcat.contains` solves: most columns zero, most of the rest
repeats of a few distinct sparse columns.  Dense random matrices of the
same shapes, whose columns are (nearly) all distinct, show what the search
for repeats costs when it finds nothing.  It prints the smallest entry
count from which pruning wins on every prunable shape at least that large,
and the one from which the search costs under 10% on every dense shape.

    PYTHONPATH=src python scripts/elim_threshold.py [--repeat N]
"""
from __future__ import annotations

import argparse
import timeit

import numpy as np

from exactcat import fflinalg as ff

SHAPES = [
    (1, 1), (2, 2), (2, 4), (4, 2), (3, 3), (4, 4), (4, 8), (8, 4), (6, 6), (8, 8),
    (6, 12), (12, 6), (10, 10), (12, 12), (8, 24), (24, 8), (14, 14), (16, 16),
    (12, 24), (20, 20), (16, 32), (24, 24), (32, 32), (16, 64), (48, 48),
]
WIDE_SHAPES = [
    (8, 24), (12, 36), (16, 48), (20, 80), (24, 96), (32, 128), (40, 160),
    (48, 192), (64, 256), (96, 384), (128, 640), (200, 1000),
]


def list_path(a: np.ndarray, p: int):
    rows = a.tolist()
    pivots = ff._rref_rows(rows, a.shape[1], p)
    return np.array(rows, dtype=np.int64).reshape(a.shape), pivots


def array_path(a: np.ndarray, p: int):
    m = a.copy()
    return m, ff._eliminate(m, p)


def pruned_path(a: np.ndarray, p: int):
    saved, ff.PRUNE_ENTRIES = ff.PRUNE_ENTRIES, 0
    try:
        return ff._rref_numpy(a, p)
    finally:
        ff.PRUNE_ENTRIES = saved


def prunable(rng, rows: int, cols: int, p: int) -> np.ndarray:
    """About 60% zero columns; the rest drawn from rows/4 distinct sparse columns."""
    pool = rng.integers(0, p, size=(rows, max(1, rows // 4))) * (rng.random((rows, max(1, rows // 4))) < 0.2)
    a = pool[:, rng.integers(0, pool.shape[1], size=cols)] * (rng.random(cols) >= 0.6)
    return a.astype(np.int64)


def compare(fns, mats, p: int, repeat: int) -> list[float]:
    """Per-matrix seconds of each fn, the minimum over interleaved repeats."""
    number = max(1, 4000 // mats[0].size)
    best = [float("inf")] * len(fns)
    for _ in range(repeat):
        for i, fn in enumerate(fns):
            t = timeit.timeit(lambda: [fn(m, p) for m in mats], number=number)
            best[i] = min(best[i], t / (number * len(mats)))
    return best


def crossover_below(wins: dict[int, bool]) -> int:
    """The largest entry count up to which every shape won."""
    out = 0
    for entries in sorted(wins):
        if not wins[entries]:
            break
        out = entries
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repeats; the minimum is kept")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    wins: dict[int, bool] = {}
    for p in (2, 3):
        for rows, cols in SHAPES:
            mats = [rng.integers(0, p, size=(rows, cols)).astype(np.int64) for _ in range(20)]
            t_list, t_array = compare((list_path, array_path), mats, p, args.repeat)
            entries = rows * cols
            wins[entries] = wins.get(entries, True) and t_list < t_array
            print(
                f"p={p} {rows:3d}x{cols:<3d} entries={entries:5d} "
                f"lists={t_list * 1e6:9.1f} us  arrays={t_array * 1e6:9.1f} us  "
                f"lists/arrays={t_list / t_array:5.2f}"
            )
    print(f"lists win on every shape up to {crossover_below(wins)} entries")

    losses: dict[int, bool] = {}
    cheap: dict[int, bool] = {}
    for p in (2, 3):
        for rows, cols in WIDE_SHAPES:
            count = max(2, 20000 // (rows * cols))
            for kind, make in (
                ("prunable", lambda: prunable(rng, rows, cols, p)),
                ("dense", lambda: rng.integers(0, p, size=(rows, cols)).astype(np.int64)),
            ):
                mats = [make() for _ in range(count)]
                t_full, t_pruned = compare((array_path, pruned_path), mats, p, args.repeat)
                entries = rows * cols
                if kind == "prunable":
                    losses[-entries] = losses.get(-entries, True) and t_pruned < t_full
                else:
                    cheap[-entries] = cheap.get(-entries, True) and t_pruned < 1.1 * t_full
                print(
                    f"p={p} {kind:8s} {rows:3d}x{cols:<4d} entries={entries:6d} "
                    f"full={t_full * 1e6:9.1f} us  pruned={t_pruned * 1e6:9.1f} us  "
                    f"pruned/full={t_pruned / t_full:5.2f}"
                )
    for found, what in ((losses, "pruning wins on every prunable shape"), (cheap, "the search costs under 10% on every dense shape")):
        start = -crossover_below(found)
        print(f"{what} from {start} entries on" if start else f"not {what}: it fails on the largest")


if __name__ == "__main__":
    main()
