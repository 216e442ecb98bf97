"""Time the two routes of scalars.contract and fit the floor that picks them.

For each spec the library contracts that _plan can lower to one matrix
product, and each size n (every label of length n), the script times the
same contraction on both routes and prints one JSON line per (spec, n)
with the multiply-add count ("work") and the best of five medians in
microseconds: einsum_us and matmul_us in binary64 (float64 operands) and
exact_einsum_us and exact_matmul_us in exact mode (int64 operands, where
the float64 lane and the int64 einsum meet), once with
scalars.LOWERING_FLOOR out of reach and once at 0.

Numerators are drawn from -9..9, as small as the certificates' own, so
every lowered exact contraction fits 2**53.  The last line is the fitted
lowering floor: of the measured work counts, the one that minimises the
summed log time over both modes when every contraction from that work up
is lowered, beside the LOWERING_FLOOR in force.

    PYTHONPATH=src python3 tools/contract_crossover.py
"""

import json
import math
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
SIZES = range(2, 17)
MAX_WORK = 120_000


def _operands(spec, n, rng):
    labels = spec.split("->")[0].split(",")
    return [
        scalars.ScaledArray(
            np.array([rng.randint(-9, 9) for _ in range(n ** len(lab))], dtype=np.int64).reshape(
                (n,) * len(lab)
            ),
            1,
        )
        for lab in labels
    ]


def _time_us(spec, ops, lowering_floor=sys.maxsize):
    scalars.LOWERING_FLOOR = lowering_floor
    scalars._plan.cache_clear()
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


def _lowerable(spec):
    inputs, output = spec.split("->")
    shapes = [(2,) * len(lab) for lab in inputs.split(",")]
    scalars.LOWERING_FLOOR = 0
    scalars._plan.cache_clear()
    return scalars._plan(spec, *shapes).lower is not None


def _fit(rows):
    """The floor among the measured work counts (or none reached) that
    minimises the summed log time of the lowered rows, both modes."""
    pairs = [
        (row["work"], row[einsum], row[matmul])
        for row in rows
        for einsum, matmul in (("einsum_us", "matmul_us"), ("exact_einsum_us", "exact_matmul_us"))
    ]

    def cost(floor):
        return sum(math.log(m if w >= floor else e) for w, e, m in pairs)

    candidates = sorted({w for w, _, _ in pairs}) + [sys.maxsize]
    return min(candidates, key=cost)


def main():
    rng = random.Random(0)
    saved = scalars.LOWERING_FLOOR
    rows = []
    try:
        for spec in filter(_lowerable, SPECS):
            chars = set(spec.split("->")[0]) - {","}
            for n in SIZES:
                work = n ** len(chars)
                if work > MAX_WORK:
                    break
                ints = _operands(spec, n, rng)
                floats = [a.to_float() for a in ints]
                row = {"spec": spec, "n": n, "work": work}
                for prefix, args in (("", floats), ("exact_", ints)):
                    row[prefix + "einsum_us"] = round(_time_us(spec, args), 2)
                    row[prefix + "matmul_us"] = round(_time_us(spec, args, lowering_floor=0), 2)
                rows.append(row)
                print(json.dumps(row), flush=True)
    finally:
        scalars.LOWERING_FLOOR = saved
        scalars._plan.cache_clear()
    floor = _fit(rows)
    print(json.dumps({"fitted_lowering_floor": None if floor == sys.maxsize else floor,
                      "LOWERING_FLOOR": scalars.LOWERING_FLOOR}), flush=True)


if __name__ == "__main__":
    main()
