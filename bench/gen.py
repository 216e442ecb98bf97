"""Seeded inputs for the workloads.

Every generator takes a random.Random and returns plain Fractions or
floats; quadlie only ever sees the finished inputs.  Integer matrices are
built as products of unit triangular factors, so they are invertible by
construction and their exact inverses stay small, which keeps the cost of
one exact certificate close to the same from seed to seed.
"""

import itertools
from fractions import Fraction

STEPS = (-2, -1, 1, 2)


def _unit_lower(rng, n, nnz):
    A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(cells, min(nnz, len(cells))):
        A[i][j] = Fraction(rng.choice(STEPS))
    return A


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def congruent_metric(rng, n, negatives):
    """G = A^T D A with A unit lower triangular (n // 2 off-diagonal
    entries) and D = diag(+-1) carrying `negatives` minus signs, so the
    signature of G is that of D by Sylvester's law."""
    A = _unit_lower(rng, n, n // 2)
    neg = set(rng.sample(range(n), negatives))
    D = [Fraction(-1 if i in neg else 1) for i in range(n)]
    G = [[sum(A[k][i] * D[k] * A[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return G, (n - negatives, negatives, 0)


def unimodular(rng, m):
    """Invertible integer phi on V: unit lower times unit upper."""
    lower = _unit_lower(rng, m, m - 1)
    upper = _transpose(_unit_lower(rng, m, m - 1))
    return _mat_mul(lower, upper)


def rank(rows):
    rows = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def alternating(rng, m):
    """Random alternating theta on V with no kernel direction, so that
    V + V* is a corank-zero two-step algebra."""
    while True:
        th = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
        for idx in itertools.combinations(range(m), 3):
            v = Fraction(rng.choice(STEPS))
            for perm in itertools.permutations(range(3)):
                sign = -1 if sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3)) % 2 else 1
                i, j, k = (idx[p] for p in perm)
                th[i][j][k] = sign * v
        kernel_rows = [[th[i][j][k] for i in range(m)] for j in range(m) for k in range(m)]
        if rank(kernel_rows) == m:
            return th


def two_step_metric_matrix(phi):
    """<,> = k(u., .) with u = phi on V and phi^T on V*: [[0, phi^T], [phi, 0]]."""
    m = len(phi)
    G = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            G[i][m + j] = Fraction(phi[j][i])
            G[m + i][j] = Fraction(phi[i][j])
    return G


def nonzero_rational(rng):
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if v:
            return v


def dim4_slice_point(rng, on_b_zero):
    """(a, b, d, s00, s02, s03) with a d != 0 and b^2 + a d != 0."""
    while True:
        a, d = nonzero_rational(rng), nonzero_rational(rng)
        b = Fraction(0) if on_b_zero else nonzero_rational(rng)
        if b * b + a * d != 0:
            return a, b, d, *(Fraction(rng.randint(-3, 3)) for _ in range(3))


def dim4_slice_metric(a, b, d, s00, s02, s03):
    one, z = Fraction(1), Fraction(0)
    return [[s00, one, s02, s03], [one, z, z, z], [s02, z, a, b], [s03, z, b, -d]]


def uniform_vector(rng, n, lo=-1.0, hi=1.0):
    return [rng.uniform(lo, hi) for _ in range(n)]


def oscillator_seed(rng, n):
    """x_-1 near 1 and small other components: the frequencies, and so the
    cost of a scan or a variation field, stay close to the same."""
    return [rng.uniform(0.95, 1.05)] + uniform_vector(rng, n - 1, -0.5, 0.5)


def signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)

