"""Time conjugate_scan against the solve it is built on.

For each scan kind of the benchmark's flows workload (oscillator(1) on
(0, 16] with grid 64, oscillator(1,2) on (0, 14] with grid 128,
e2-motion on (0, 8] and a flat phi metric on V + V* of dimension 6 on
(0, 4], both with grid 32), a flat phi metric of dimension 10 on (0, 4]
with grid 32, and two kinds whose scans bisect sign changes, which no
benchmark window has (the Berger sphere, so(3) under diag(1, 1, 2), and
so(3) + so(3) under diag(1, 1, 1, 1, 1, 2), both on (0, 20] with grid
200), the script times, on the same seeds:

- conjugate_scan at tol 1e-10;
- the bare _solve of the same variation system from 0 to the window's
  end, kept as the scan's run is, and reading nothing.

The difference is what the scan spends reading the continuous extension,
taking determinants and refining its brackets.  Seeds come from a fixed
generator, drawn as the benchmark draws them (oscillators: x_-1 uniform
on [0.95, 1.05] and the rest on [-0.5, 0.5]; e2: x1, x2 uniform on
[-1, 1] and x3 in +-[0.9, 1.1]; phi: uniform on [-1, 1]; Berger:
(s, 0, 0) with s uniform on [0.7, 1.3], a one-parameter subgroup, whose
roots are all sign changes; so(3) + so(3): (0, 0, u, v, 0, 0) with u on
[0.75, 0.85] and v on [0.95, 1.05], whose roots are sign changes of the
Berger factor and double roots of the bi-invariant one).  It prints one
JSON line per kind: the best of five medians of each wall time in
milliseconds, averaged over the seeds, their difference, and the calls
of the continuous extension and the roots found per scan, so a change in
how a scan reads shows beside the roots it must keep:

    PYTHONPATH=src python3 tools/scan_reads.py
"""

import itertools
import json
import random
import statistics
import time

import numpy as np

from quadlie import catalog, dynamics, levi_civita, validate_algebra, validate_form
from quadlie.constructions import TwoStepSpec, build_two_step, two_step_metric
from quadlie.errors import RankDeficientTheta

TOL = 1e-10
SEEDS = 4


def _phi_product(rng, m):
    """The Levi-Civita product of a phi metric on V + V*, dim V = m, with
    theta of entries +-1, +-2 and phi = A A^T for a unit lower triangular A
of entries +-1."""
    while True:
        theta = [[[0] * m for _ in range(m)] for _ in range(m)]
        for idx in itertools.combinations(range(m), 3):
            v = rng.choice((-2, -1, 1, 2))
            for perm in itertools.permutations(range(3)):
                inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(3), 2))
                i, j, k = (idx[p] for p in perm)
                theta[i][j][k] = -v if inversions % 2 else v
        try:
            L, _ = build_two_step(TwoStepSpec(m, theta))
            break
        except RankDeficientTheta:
            continue
    lower = [[1 if i == j else rng.choice((-1, 1)) if j < i else 0 for j in range(m)]
             for i in range(m)]
    phi = [[sum(a * b for a, b in zip(lower[i], lower[j])) for j in range(m)] for i in range(m)]
    _, metric, _ = two_step_metric(TwoStepSpec(m, theta, phi))
    return levi_civita(L, metric)


def _so3_copies(diagonal):
    """The Levi-Civita product of k copies of so(3), [e1, e2] = e3 and
    cyclically in each, under the diagonal metric of the 3k given entries."""
    n = len(diagonal)
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for off in range(0, n, 3):
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c[off + i][off + j][off + k], c[off + j][off + i][off + k] = 1, -1
    metric = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return levi_civita(validate_algebra(c), validate_form(metric))


def _kinds(rng):
    def oscillator(n):
        return [rng.uniform(0.95, 1.05)] + [rng.uniform(-0.5, 0.5) for _ in range(n - 1)]

    def e2():
        return [rng.uniform(-1, 1), rng.uniform(-1, 1), rng.choice((-1, 1)) * rng.uniform(0.9, 1.1)]

    def uniform(n):
        return [rng.uniform(-1, 1) for _ in range(n)]

    for name, window, grid in (("oscillator(1)", (0, 16), 64), ("oscillator(1,2)", (0, 14), 128)):
        entry = catalog(name)
        P = levi_civita(entry.algebra, entry.quad_form)
        yield name, P, window, grid, [oscillator(P.dim) for _ in range(SEEDS)]
    entry = catalog("e2-motion")
    P = levi_civita(entry.algebra, entry.metric)
    yield "e2-motion", P, (0, 8), 32, [e2() for _ in range(SEEDS)]
    for m in (3, 5):
        P = _phi_product(rng, m)
        yield f"phi{2 * m}", P, (0, 4), 32, [uniform(2 * m) for _ in range(SEEDS)]
    yield "berger", _so3_copies((1, 1, 2)), (0, 20), 200, [
        [rng.uniform(0.7, 1.3), 0, 0] for _ in range(SEEDS)]
    yield "so3+berger", _so3_copies((1, 1, 1, 1, 1, 2)), (0, 20), 200, [
        [0, 0, rng.uniform(0.75, 0.85), rng.uniform(0.95, 1.05), 0, 0] for _ in range(SEEDS)]


def _best(job, reps):
    best = float("inf")
    for _ in range(5):
        samples = []
        for _ in range(reps):
            t = time.perf_counter()
            job()
            samples.append(time.perf_counter() - t)
        best = min(best, statistics.median(samples))
    return best


def main():
    rng = random.Random(0)
    for name, P, window, grid, seeds in _kinds(rng):
        n = P.dim
        Pf = dynamics._as_product(P)  # in binary64, as the scan reads it
        rhs = dynamics._jacobi_rhs(Pf.array.num, Pf.algebra.array.num)
        starts = [np.concatenate([x0, np.zeros(n * n), np.eye(n).reshape(-1)]) for x0 in seeds]

        def scan(x0):
            return dynamics.conjugate_scan(P, x0, window, grid=grid, tol=TOL)

        def solve(z0):
            return dynamics._solve(rhs, z0, 0.0, float(window[1]), TOL, keep=True)

        read, calls, roots = dynamics._Run.__call__, [0], 0

        def counted(self, t):
            calls[0] += 1
            return read(self, t)

        dynamics._Run.__call__ = counted
        try:
            for x0 in seeds:
                roots += len(scan(x0).roots)
        finally:
            dynamics._Run.__call__ = read
        scan_s = statistics.fmean(_best(lambda x0=x0: scan(x0), 10) for x0 in seeds)
        solve_s = statistics.fmean(_best(lambda z0=z0: solve(z0), 10) for z0 in starts)
        print(json.dumps({
            "kind": name, "n": n, "grid": grid,
            "scan_ms": round(scan_s * 1e3, 3),
            "solve_ms": round(solve_s * 1e3, 3),
            "rest_ms": round((scan_s - solve_s) * 1e3, 3),
            "read_calls": calls[0] / len(seeds),
            "roots": roots / len(seeds),
        }), flush=True)


if __name__ == "__main__":
    main()
