"""Small dense linear algebra on the stored form of a matrix.

Every kernel takes its matrices and vectors as scalars.ScaledArrays, reads
the arithmetic mode from them and answers in ScaledArrays (or a count, a
scalar or a verdict).  Exact numerators are integers over one positive
denominator, and all exact work runs on those integers.  One
fraction-free (Bareiss) Gauss-Jordan elimination serves rank, nullspaces,
reduced row echelon forms, span bases, solving, inverses and
determinants.  It ends with every pivot equal to one integer d, so an
exact result is an integer matrix over d, returned in lowest terms over
its positive lcm denominator (what scalars.to_array builds from its
entries) with no Fraction built per entry.  The signature's congruence
sweep stays on integers the same way.  From ELIMINATION_FLOOR int64
numerators in nonzero rows, the elimination takes its first steps on
int64, as many as a bound read once allows: after k steps each entry is
a minor of order at most k + 1, so by Hadamard's inequality each product
in step k is at most the product of the k + 1 largest squared row norms.
The float path defers to numpy with the rank/kernel threshold fixed at
scalars.FLOAT_RTOL (1e-9) relative to the largest singular value.

A square matrix is singular exactly when rank(A) < n: in exact mode a
missing pivot, in binary64 a singular value at or below that threshold.
solve and inverse raise Singular on that one test; they and det raise
DimensionMismatch for a matrix that is not square.
"""

import math
from fractions import Fraction

import numpy as np

from . import scalars
from .errors import DimensionMismatch, Singular
from .scalars import FLOAT_RTOL, ScaledArray

__all__ = [
    "rank",
    "nullspace",
    "solve",
    "inverse",
    "divided",
    "det",
    "rref",
    "span_basis",
    "in_span",
    "same_span",
    "signature",
    "FLOAT_RTOL",
]

_INT64 = np.dtype(np.int64)
_INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# exact path

# _eliminate takes int64 steps from this many nonzero-row int64 entries;
# fitted with tools/elimination_crossover.py
ELIMINATION_FLOOR = 49


def _int64_steps(m, top):
    """The leading steps k of _eliminate on the nonzero int64 rows m, of
    largest |entry| top, for which twice the Hadamard bound fits int64."""
    # squared norms, on Python ints when one might not fit; no more steps
    # than columns
    rows = m if top * top * m.shape[1] <= _INT64_MAX else m.astype(object)
    bound, steps = 2, 0
    for sq in sorted((rows * rows).sum(axis=1).tolist(), reverse=True)[: m.shape[1]]:
        bound *= sq
        if bound > _INT64_MAX:
            break
        steps += 1
    return steps


def _eliminate(A):
    """Fraction-free Gauss-Jordan elimination of an exact matrix ScaledArray.

    The numerators are integers over one positive denominator, so their
    nonzero rows are eliminated as they are.  Pivoting on the first nonzero
    entry in column order, the row that holds it is swapped up and negated,
    which keeps the determinant, and Bareiss's exact division step (Bareiss
    1968, Math. Comp. 22) runs on every other row, above the pivot as well
    as below it.  Every entry stays an integer and every pivot ends equal
    to the last one, d.  Returns (R, pivots, d): the nonzero rows as an
    object array of ints, their pivot columns, and d (1 with no pivot).
    R / d is the reduced row echelon form of the matrix, and d is the
    determinant of the numerators of a square matrix of full rank.  A step
    on int64 is one update, (piv m - outer(f, prow)) // d, then prow again.
    """
    m = [row for row in A.num.tolist() if any(row)]
    ncols, steps = A.num.shape[1], 0
    if len(m) * ncols >= ELIMINATION_FLOOR and A.num.dtype == _INT64:
        rows = A.num[A.num.any(axis=1)]
        steps = _int64_steps(rows, A.top)
        m = rows if steps else m
    pivots, d = [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        if r < steps:
            nonzero = m[r:, c].nonzero()[0]
            if not nonzero.size:
                continue
            p = r + int(nonzero[0])
            if p != r:
                m[r], m[p] = -m[p], m[r].copy()
            piv, prow = m[r, c], m[r].copy()
            m = (piv * m - m[:, c, None] * prow) // d
            m[r] = prow
            d = int(piv)
        else:
            p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if p is None:
                continue
            if p != r:
                m[r], m[p] = [-v for v in m[p]], m[r]
            piv, prow = m[r][c], m[r]
            for i in range(len(m)):
                if i != r:
                    f = m[i][c]
                    m[i] = [(piv * x - f * y) // d for x, y in zip(m[i], prow)]
            d = piv
        pivots.append(c)
        if len(pivots) == steps:  # the bound allows no more int64 steps
            m = m.tolist()
    return np.array(m[: len(pivots)], dtype=object).reshape(len(pivots), ncols), pivots, d


def _reduced(N, d):
    """The exact ScaledArray N / d, for an array N of ints and an int
    d != 0, in lowest terms over its positive lcm denominator."""
    g = math.gcd(d, *N.flat)
    g = g if d > 0 else -g
    return ScaledArray(N // g, d // g)


def _square(A):
    rows, cols = A.num.shape
    if rows != cols:
        raise DimensionMismatch(f"a {rows} x {cols} matrix is not square")
    return rows


# ---------------------------------------------------------------------------
# kernels

def rank(A):
    if A.exact:
        return len(_eliminate(A)[1])
    if not A.num.size:
        return 0
    sing = np.linalg.svd(A.num, compute_uv=False)
    return int(np.count_nonzero(sing > FLOAT_RTOL * sing[0]))


def nullspace(A):
    """Kernel basis of A as rows: exact, one row per free column with 1
    there; binary64, the right singular vectors at or below the threshold."""
    ncols = A.num.shape[1]
    if not A.exact:
        _, sing, vt = np.linalg.svd(A.num)
        cutoff = FLOAT_RTOL * (sing[0] if sing.size else 0.0)
        keep = [i for i in range(len(vt)) if i >= sing.size or sing[i] <= cutoff]
        return ScaledArray(vt[keep])
    R, pivots, d = _eliminate(A)
    free = [c for c in range(ncols) if c not in pivots]
    N = np.zeros((len(free), ncols), dtype=object)
    N[range(len(free)), free] = d
    N[:, pivots] = -R[:, free].T
    return _reduced(N, d)


def solve(A, B):
    """The X with A X = B, for a vector B or, column by column, a matrix B,
    with one elimination.  Raises Singular when rank(A) < n, in either
    mode."""
    n = _square(A)
    if B.num.shape[0] != n:
        raise DimensionMismatch(f"right-hand side of height {B.num.shape[0]} for {n} rows")
    if not A.exact:
        if rank(A) < n:
            raise Singular("matrix is singular")
        return ScaledArray(np.linalg.solve(A.num, B.num))
    R, pivots, d = _eliminate(ScaledArray(np.concatenate([A.num, B.num.reshape(n, -1)], axis=1)))
    # the pivots of [A | B] in columns < n are those of A
    if sum(pc < n for pc in pivots) < n:
        raise Singular("matrix is singular")
    # [An | Bn] ends as [d I | W], so A = An / Ad and B = Bn / Bd give
    # X = (W / d) (Ad / Bd)
    return _reduced(R[:, n:] * A.den, d * B.den).reshape(B.num.shape)


def inverse(A):
    """solve(A, I), raising as solve."""
    return solve(A, scalars.eye(_square(A), A.exact))


def divided(A, k):
    """A / k for a positive int k: exact in lowest terms, binary64 entry by
    entry, exactly so when k is a power of two."""
    return _reduced(A.num, k * A.den) if A.exact else ScaledArray(A.num / k)


def det(A):
    n = _square(A)
    if not A.exact:
        return float(np.linalg.det(A.num)) if n else 1.0
    _, pivots, d = _eliminate(A)
    return Fraction(d, A.den**n) if len(pivots) == n else Fraction(0)


def rref(A):
    """Nonzero rows of the reduced row echelon form, exact only."""
    R, _, d = _eliminate(A)
    return _reduced(R, d)


def span_basis(V):
    """Canonical basis of the span of the rows: exact, the reduced row
    echelon form; binary64, the right singular vectors of the nonzero rows
    above the threshold."""
    if V.exact:
        return rref(V)
    V = V[np.any(V.num != 0, axis=1)]
    if not V.num.size:
        return V
    _, sing, vt = np.linalg.svd(V.num)
    keep = int(np.sum(sing > FLOAT_RTOL * sing[0]))
    return ScaledArray(vt[:keep])


def in_span(B, V):
    """Whether the vector V, or each row of the matrix V, lies in the span
    of the rows of B: one rank test per row."""
    V = V.reshape(-1, V.num.shape[-1])
    V = V[np.any(V.num != 0, axis=1)]
    if not len(V.num):
        return True
    if not B.num.size:
        return False
    r = rank(B)
    return all(rank(scalars.stack([B, V[i : i + 1]])) == r for i in range(len(V.num)))


def same_span(A, B):
    """Whether the rows of the two bases span the same space.  Exact bases
    are taken as span_basis returns them, canonical, so they span the same
    space exactly when they are equal; binary64 rows go through in_span
    both ways."""
    return A == B if A.exact else in_span(B, A) and in_span(A, B)


def signature(S):
    """(positive, negative, zero) inertia of a symmetric matrix.

    Exact: a congruence sweep over the integer numerators, which have the
    inertia of S since they share a positive denominator.  It splits off
    one square at a time: a pivot p replaces the active rows by |p| times
    their Schur complement, |p| a[i][j] - sign(p) a[i][d] a[d][j], divided
    by its content, so every entry stays an integer.  When the whole active
    diagonal vanishes it first mixes in an off-diagonal entry with a
    row+column addition.  Binary64: the eigenvalues, cut at 1e-9 of the
    largest.
    """
    if not S.exact:
        eig = np.linalg.eigvalsh(S.num)
        tol = FLOAT_RTOL * (float(np.max(np.abs(eig))) if eig.size else 0.0)
        pos, neg = int(np.sum(eig > tol)), int(np.sum(eig < -tol))
        return pos, neg, len(eig) - pos - neg
    a, n = S.num.tolist(), len(S.num)
    pos = neg = 0
    while a:
        d = next((i for i in range(len(a)) if a[i][i]), None)
        if d is None:
            pair = next(((i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v), None)
            if pair is None:
                break
            # e_d <- e_d + e_j makes the (d, d) entry 2 a[d][j] != 0
            d, j = pair
            a[d] = [v + w for v, w in zip(a[d], a[j])]
            for row in a:
                row[d] += row[j]
        prow = a.pop(d)
        col = [row.pop(d) for row in a]
        p = prow.pop(d)
        pos, neg = (pos + 1, neg) if p > 0 else (pos, neg + 1)
        s = 1 if p > 0 else -1
        a = [[abs(p) * v - s * c * w for v, w in zip(row, prow)] for row, c in zip(a, col)]
        g = math.gcd(*(v for row in a for v in row))
        if g > 1:
            a = [[v // g for v in row] for row in a]
    return pos, neg, n - pos - neg
