"""Time each piece of an analysis in process.

An analysis, as the benchmark's certify workload runs one, builds V + V*
from an alternating theta (build_two_step) and one metric per phi
(two_step_metric), reads the table back as nested tuples (L.c), validates
those (validate_algebra, whose intake is scalars.read), reports the
structure (structure_report), checks the pairing's ad-invariance and
takes each metric's signature.  An analysis of a catalog model starts
from the built model and skips the builds and the tuples.

Inputs, drawn from random.Random(0):

- two-step exact: 24 thetas on V of dimension 3, a multiple in {+-1, +-2}
  of the volume form, each with one or two unimodular integer phis;
- two-step binary64: the same thetas and phis as floats;
- two-step m=5: 8 alternating thetas on V of dimension 5 with entries
  in {+-1, +-2} and no kernel direction, one phi each;
- catalog: the models of CATALOG with an invariant form, built once,
  each with its metric when it has one.

For each kind and piece it prints one JSON line: the microseconds per
analysis, the best of REPEATS passes over all inputs of the kind;
piece "tuples" is ScaledArray.tuples, which a fresh L.c runs once, and
piece "analysis" is the whole of one.  It uses only what every quadlie
tree since the Python-int catalog tables has, so the same script
measures an older tree by pointing PYTHONPATH at it:

    PYTHONPATH=src python3 tools/analysis_parts.py
"""

import itertools
import json
import random
import time
from fractions import Fraction

from quadlie import (
    TwoStepSpec,
    build_two_step,
    catalog,
    check_ad_invariance,
    signature,
    structure_report,
    two_step_metric,
    validate_algebra,
    volume_theta,
)
from quadlie.errors import RankDeficientTheta
from quadlie.scalars import read

REPEATS = 40
CATALOG = ("e2-motion", "oscillator(1)", "oscillator(1,2)", "dim4-b", "dim5-nilpotent",
           "two-step-volume", "a-d(1)", "a-d-double(1)")
STEPS = (1, 2, -1, -2)


def _unimodular(rng, m):
    """Unit lower times unit upper triangular, entries of the factors in
    STEPS below and above the diagonal."""
    lower = [[1 if i == j else rng.choice(STEPS) if j < i else 0 for j in range(m)] for i in range(m)]
    upper = [[lower[j][i] for j in range(m)] for i in range(m)]
    return tuple(tuple(sum(lower[i][k] * upper[k][j] for k in range(m)) for j in range(m))
                 for i in range(m))


def _alternating(rng, m):
    """An alternating theta on V of dimension m whose V + V* builds."""
    while True:
        th = [[[0] * m for _ in range(m)] for _ in range(m)]
        for idx in itertools.combinations(range(m), 3):
            v = rng.choice(STEPS)
            for perm in itertools.permutations(range(3)):
                sign = (-1) ** sum(perm[a] > perm[b] for a, b in itertools.combinations(range(3), 2))
                th[idx[perm[0]]][idx[perm[1]]][idx[perm[2]]] = sign * v
        try:
            build_two_step(TwoStepSpec(m, th))
            return th
        except RankDeficientTheta:
            continue


def _as(values, kind):
    if isinstance(values, (list, tuple)):
        return tuple(_as(v, kind) for v in values)
    return kind(values)


def two_step_inputs():
    rng = random.Random(0)
    volume = volume_theta(3)
    exact, floats = [], []
    for i in range(24):
        s = Fraction(rng.choice(STEPS))
        theta = _as(volume, lambda v: s * v)
        phis = [_as(_unimodular(rng, 3), Fraction) for _ in range(1 + i % 2)]
        exact.append((3, theta, phis))
        floats.append((3, _as(theta, float), [_as(phi, float) for phi in phis]))
    wide = [(5, _alternating(rng, 5), [_unimodular(rng, 5)]) for _ in range(8)]
    return {"two-step exact": exact, "two-step binary64": floats, "two-step m=5": wide}


def two_step_pieces(m, theta, phis):
    """(piece, call) in the order of an analysis, each call on the
    outputs of the pieces before it, built once."""
    L, k = build_two_step(TwoStepSpec(m, theta))
    mets = [two_step_metric(TwoStepSpec(m, theta, phi)) for phi in phis]
    c = L.array.tuples()
    return [
        ("build_two_step", lambda: build_two_step(TwoStepSpec(m, theta))),
        ("two_step_metric", lambda: [two_step_metric(TwoStepSpec(m, theta, phi)) for phi in phis]),
        ("tuples", lambda: L.array.tuples()),
        ("read", lambda: read(c, 3)),
        ("validate_algebra", lambda: validate_algebra(c, L.labels)),
        ("structure_report", lambda: structure_report(L)),
        ("check_ad_invariance", lambda: check_ad_invariance(L, k)),
        ("signature", lambda: [signature(g) for _, g, _ in mets]),
    ]


def two_step_analysis(m, theta, phis):
    L, k = build_two_step(TwoStepSpec(m, theta))
    mets = [two_step_metric(TwoStepSpec(m, theta, phi)) for phi in phis]
    validate_algebra(L.c, L.labels)
    structure_report(L)
    check_ad_invariance(L, k)
    return [signature(g) for _, g, _ in mets]


def catalog_inputs():
    out = []
    for name in CATALOG:
        e = catalog(name)
        if e.quad_form is not None:
            out.append((e.algebra, e.quad_form, e.metric))
    return out


def catalog_pieces(L, k, metric):
    c = L.c
    forms = [k] if metric is None else [k, metric]
    return [
        ("read", lambda: read(c, 3)),
        ("validate_algebra", lambda: validate_algebra(c, L.labels)),
        ("structure_report", lambda: structure_report(L)),
        ("check_ad_invariance", lambda: check_ad_invariance(L, k)),
        ("signature", lambda: [signature(g) for g in forms]),
    ]


def catalog_analysis(L, k, metric):
    validate_algebra(L.c, L.labels)
    structure_report(L)
    check_ad_invariance(L, k)
    return [signature(g) for g in ([k] if metric is None else [k, metric])]


def best_us(calls, count):
    """Best of REPEATS passes of every call, in microseconds per analysis."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        for call in calls:
            call()
        best = min(best, time.perf_counter() - t)
    return round(best * 1e6 / count, 1)


def report(kind, inputs, pieces, analysis):
    parts = [pieces(*args) for args in inputs]
    for i, (piece, _) in enumerate(parts[0]):
        us = best_us([p[i][1] for p in parts], len(inputs))
        print(json.dumps({"kind": kind, "piece": piece, "us": us}), flush=True)
    us = best_us([lambda args=args: analysis(*args) for args in inputs], len(inputs))
    print(json.dumps({"kind": kind, "piece": "analysis", "us": us}), flush=True)


def main():
    for kind, inputs in two_step_inputs().items():
        report(kind, inputs, two_step_pieces, two_step_analysis)
    report("catalog", catalog_inputs(), catalog_pieces, catalog_analysis)


if __name__ == "__main__":
    main()
