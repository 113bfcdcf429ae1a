"""Micro-benchmark behind fflinalg.SMALL_ELIM_ENTRIES.

Times Gaussian elimination on Python int lists (`_rref_rows`, plus the
list <-> array conversions `_rref_array` pays) against the int64-array
path (`_rref_numpy`) on random matrices of the shapes the engine
eliminates: square, wide (solve_right's augmented systems) and tall.
Prints one line per shape and, last, the largest entry count at which the
list path still wins on every shape measured up to that size.

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


def list_path(a: np.ndarray, p: int):
    rows = a.tolist()
    pivots = ff._rref_rows(rows, a.shape[1], p)
    return np.array(rows, dtype=np.int64).reshape(a.shape), pivots


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repeats; the minimum is kept")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    wins: dict[int, bool] = {}
    for p in (2, 3):
        for rows, cols in SHAPES:
            mats = [rng.integers(0, p, size=(rows, cols)).astype(np.int64) for _ in range(20)]
            number = max(1, 2000 // (rows * cols))
            t_list, t_array = (
                min(timeit.repeat(lambda: [fn(m, p) for m in mats], number=number, repeat=args.repeat))
                / (number * len(mats))
                for fn in (list_path, ff._rref_numpy)
            )
            entries = rows * cols
            wins[entries] = wins.get(entries, True) and t_list < t_array
            print(
                f"p={p} {rows:3d}x{cols:<3d} entries={entries:5d} "
                f"lists={t_list * 1e6:9.1f} us  arrays={t_array * 1e6:9.1f} us  "
                f"lists/arrays={t_list / t_array:5.2f}"
            )
    crossover = 0
    for entries in sorted(wins):
        if not wins[entries]:
            break
        crossover = entries
    print(f"lists win on every shape up to {crossover} entries")


if __name__ == "__main__":
    main()
