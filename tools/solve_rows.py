"""Time the integrator per accepted step as the number of rows grows.

For each field (the e2-motion geodesic field, and the invariant-form field
of a flat phi metric on V + V* of dimension 6) and each row count B, the
script times one _solve call of B runs that start together:

- B = 1 is one 1-D run, forward from the first seed;
- B >= 2 is the block of completeness_probe over B/2 seeds, each run
  forward and backward.

Seeds are uniform on [-1, 1] from a fixed generator; tol is 1e-10; e2
runs to |t| = 30 and phi to |t| = 50.  It prints one JSON line per (field,
B): the accepted and rejected steps per row, read off the call's per-row
records, the field calls and the row evaluations per row (a call on a
(B, n) block evaluates B rows), and the best of five medians of the wall
time in microseconds, per accepted step over all rows:

    PYTHONPATH=src python3 tools/solve_rows.py
"""

import json
import random
import statistics
import time
from fractions import Fraction

import numpy as np

from quadlie import catalog, levi_civita, quadratic_euler_field
from quadlie import dynamics

ROWS = (1, 2, 8, 32, 64)
TOL = 1e-10


def _fields():
    e2 = catalog("e2-motion")
    yield "e2", dynamics._field_from(levi_civita(e2.algebra, e2.metric))[0], 3, 30.0
    ts = catalog("two-step-volume")
    phi = tuple(tuple(Fraction(v) for v in row) for row in ((1, 2, 0), (0, 1, 0), (3, 0, 1)))
    iso, _metric, _ = ts.oracles["metric_family"](phi)
    yield "phi", quadratic_euler_field(ts.algebra, iso)[0], 6, 50.0


def _counted(field, tally):
    def f(x):
        x = np.asarray(x)
        tally[0] += 1
        tally[1] += x.shape[0] if x.ndim == 2 else 1
        return field(x)

    return f


def _job(field, seeds, horizon, rows):
    """The _solve call of B rows: one 1-D run, or each seed both ways."""
    if rows == 1:
        return lambda: dynamics._solve(field, np.array(seeds[0]), 0.0, horizon, TOL)
    block, ends = np.repeat(seeds, 2, axis=0), [horizon, -horizon] * len(seeds)
    return lambda: dynamics._solve(field, block, 0.0, ends, TOL)


def main():
    rng = random.Random(0)
    for name, field, n, horizon in _fields():
        pool = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(max(ROWS) // 2)]
        for rows in ROWS:
            seeds = pool[: max(1, rows // 2)]
            tally = [0, 0]
            runs = _job(_counted(field, tally), seeds, horizon, rows)()
            steps = sum(run.accepted for run in runs)
            rejected = sum(run.rejected for run in runs)
            job = _job(field, seeds, horizon, rows)
            reps = max(3, 400 // steps)
            best = float("inf")
            for _ in range(5):
                samples = []
                for _ in range(reps):
                    t = time.perf_counter()
                    job()
                    samples.append(time.perf_counter() - t)
                best = min(best, statistics.median(samples))
            print(json.dumps({
                "field": name, "rows": rows, "steps_per_row": round(steps / rows, 2),
                "rejected_per_row": round(rejected / rows, 2),
                "calls_per_row": round(tally[0] / rows, 2),
                "row_evals_per_row": round(tally[1] / rows, 2),
                "us_per_step": round(best * 1e6 / steps, 2),
            }), flush=True)


if __name__ == "__main__":
    main()
