"""Time the two routes of the exact elimination and fit the floor that picks them.

The script eliminates int64 matrices of the kinds the library eliminates
with linalg._eliminate: square forms of full and of half rank, the
[M | I] of an inverse, and the tall stacks of the two-step rank tests.
Each is timed twice, once with linalg.ELIMINATION_FLOOR out of reach
(every step on Python ints) and once at 0 (the steps Hadamard's bound
allows on int64, the rest on Python ints), and the script prints one
JSON line per (kind, rows, cols, rank) with the cells of its nonzero rows
and the best of five medians in microseconds: python_us and int64_us.

Entries come from products of factors with entries in -1..1, as small as
the certificates' own; at the larger sizes the bound stops the int64
steps partway.  The last line is the fitted floor: of the measured cell
counts, the one that minimises the summed log time when every
elimination from that many cells up takes the int64 steps, beside the
ELIMINATION_FLOOR in force.

    PYTHONPATH=src python3 tools/elimination_crossover.py
"""

import json
import math
import random
import statistics
import sys
import time

import numpy as np

from quadlie import linalg, scalars

SIZES = range(2, 17)
TALL = range(2, 6)


def _draw(rows, cols, rng):
    return np.array([[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.int64)


def _matrices(rng):
    """(kind, matrix) pairs: square forms of full and of half rank, the
    [M | I] of an inverse, and the tall stacks of the two-step rank tests.
    A matrix of rank r is a rows x r times an r x cols matrix with entries
    in -1..1; an inverted M is unit lower times unit upper triangular."""
    for n in SIZES:
        for rank in sorted({n, n // 2}):
            yield "square", _draw(n, rank, rng) @ _draw(rank, n, rng)
        lower = np.tril(_draw(n, n, rng), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(_draw(n, n, rng), 1) + np.eye(n, dtype=np.int64)
        yield "inverse", np.concatenate([lower @ upper, np.eye(n, dtype=np.int64)], axis=1)
    for n in TALL:
        yield "tall", _draw(n * n, n, rng) @ _draw(n, n, rng)


def _time_us(A, floor):
    linalg.ELIMINATION_FLOOR = floor
    reps = max(1, 20000 // (1 + A.num.size))
    best = float("inf")
    for _ in range(5):
        samples = []
        for _ in range(reps):
            t = time.perf_counter()
            linalg._eliminate(A)
            samples.append(time.perf_counter() - t)
        best = min(best, statistics.median(samples))
    return best * 1e6


def _fit(rows):
    """The floor among the measured cell counts (or none reached) that
    minimises the summed log time over every measured elimination."""
    pairs = [(row["cells"], row["python_us"], row["int64_us"]) for row in rows]

    def cost(floor):
        return sum(math.log(i if c >= floor else p) for c, p, i in pairs)

    candidates = sorted({c for c, _, _ in pairs}) + [sys.maxsize]
    return min(candidates, key=cost)


def main():
    rng = random.Random(0)
    saved = linalg.ELIMINATION_FLOOR
    rows = []
    try:
        for kind, num in _matrices(rng):
            A = scalars.ScaledArray(num)
            row = {
                "kind": kind,
                "rows": num.shape[0],
                "cols": num.shape[1],
                "rank": len(linalg._eliminate(A)[1]),
                "cells": int(num.any(axis=1).sum()) * num.shape[1],
                "python_us": round(_time_us(A, sys.maxsize), 2),
                "int64_us": round(_time_us(A, 0), 2),
            }
            rows.append(row)
            print(json.dumps(row), flush=True)
    finally:
        linalg.ELIMINATION_FLOOR = saved
    floor = _fit(rows)
    print(json.dumps({"fitted_elimination_floor": None if floor == sys.maxsize else floor,
                      "ELIMINATION_FLOOR": linalg.ELIMINATION_FLOOR}), flush=True)


if __name__ == "__main__":
    main()
