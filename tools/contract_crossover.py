"""Time exact scalars.contract entering int64 against its object path.

The work rule of scalars._fits_int64 decides only when object operands
enter int64: an operand already on int64 pays no cast and skips it.  For
each spec the library contracts and each size n (every label of length n)
the script times the same contraction of object operands twice: once
with scalars.INT64_WORK_FLOOR and scalars.INT64_WORK_PER_ENTRY at 0, so
any contraction whose bound fits converts its operands and runs on int64
(the bound check and the operand casts included; the result stays on
int64), and once with the floor out of reach, so it runs on objects.
Numerators are drawn from -9..9, as small as the certificates' own.  It
prints one JSON line per (spec, n) with the multiply-add count ("work"),
the entries the rule counts (operands and result), the best of five
medians in microseconds for each path, and their ratio.  The rule was
fitted to these lines when the result was still cast back to Python
ints, so it errs towards objects: int64 where
work >= INT64_WORK_FLOOR + INT64_WORK_PER_ENTRY * entries.

    PYTHONPATH=src python3 tools/contract_crossover.py
"""

import json
import random
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from quadlie import scalars

# every spec the library contracts, read off its sources
SPECS = sorted(
    {
        spec
        for path in Path(scalars.__file__).parent.glob("*.py")
        for spec in re.findall(r'contract\(\s*"([^"]+)"', path.read_text())
    }
)
SIZES = range(2, 13)


def _operands(spec, n, rng):
    labels = spec.split("->")[0].split(",")
    return [
        scalars.ScaledArray(
            np.array([rng.randint(-9, 9) for _ in range(n ** len(lab))], dtype=object).reshape(
                (n,) * len(lab)
            ),
            1,
        )
        for lab in labels
    ]


def _time_us(spec, ops, floor):
    scalars.INT64_WORK_FLOOR, scalars.INT64_WORK_PER_ENTRY = floor, 0
    reps = max(1, 2000 // (1 + ops[0].num.size))
    best = float("inf")
    for _ in range(5):
        samples = []
        for _ in range(reps):
            t = time.perf_counter()
            scalars.contract(spec, *ops)
            samples.append(time.perf_counter() - t)
        best = min(best, statistics.median(samples))
    return best * 1e6


def main():
    rng = random.Random(0)
    saved = scalars.INT64_WORK_FLOOR, scalars.INT64_WORK_PER_ENTRY
    try:
        for spec in SPECS:
            chars = set(spec.split("->")[0]) - {","}
            for n in SIZES:
                work = n ** len(chars)
                if work > 120_000:
                    break
                ops = _operands(spec, n, rng)
                obj = _time_us(spec, ops, sys.maxsize)
                i64 = _time_us(spec, ops, 0)
                entries = sum(op.num.size for op in ops) + n ** len(spec.split("->")[1])
                row = {"spec": spec, "n": n, "work": work, "entries": entries,
                       "object_us": round(obj, 2),
                       "int64_us": round(i64, 2), "object_over_int64": round(obj / i64, 3)}
                print(json.dumps(row), flush=True)
    finally:
        scalars.INT64_WORK_FLOOR, scalars.INT64_WORK_PER_ENTRY = saved


if __name__ == "__main__":
    main()
