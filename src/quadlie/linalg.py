"""Small dense linear algebra on the stored form of a matrix.

Every kernel takes its matrices and vectors as scalars.ScaledArrays and
reads the arithmetic mode from them.  Exact numerators are integers over
one positive denominator, so one fraction-free (Bareiss) Gauss-Jordan
elimination runs on them as they are and serves rank, nullspaces, reduced
row echelon forms, span bases, solving, inverses and determinants.  It
ends with every pivot equal to one integer d, so an exact result is an
integer matrix over d, returned in lowest terms over its positive lcm
denominator (what scalars.to_array builds from its entries) with no
Fraction built per entry.  Sizes here are tiny (dimension <= 16 or so),
so clarity wins over asymptotics.  The float path defers to numpy with
the rank/kernel threshold fixed at 1e-9 relative to the largest singular
value.

A square matrix is singular exactly when rank(a) < n: in exact mode a
missing pivot, in binary64 a singular value at or below that threshold.
solve, solve_many and inverse raise Singular on that one test; they and
det raise DimensionMismatch for a matrix that is not square.

The public functions also take nested rows (or a vector) of one mode's
scalars, with the mode as their last argument, and then answer in nested
tuples; mat_vec, mat_mul, transpose and identity are nested helpers.
"""

import math
from fractions import Fraction

import numpy as np

from . import scalars
from .errors import DimensionMismatch, Singular
from .scalars import ScaledArray

__all__ = [
    "mat_vec",
    "mat_mul",
    "transpose",
    "identity",
    "rank",
    "nullspace",
    "solve",
    "solve_many",
    "inverse",
    "det",
    "rref",
    "span_basis",
    "in_span",
    "same_span",
    "signature",
    "exact_signature",
    "float_signature",
    "FLOAT_RTOL",
]

FLOAT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# helpers on nested rows (entries support +, *, comparison with 0)

def mat_vec(a, x):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def identity(n, exact=True):
    return scalars.eye(n, exact).tuples()


# ---------------------------------------------------------------------------
# nested rows in, nested tuples out

def _array(x, exact):
    """x as a ScaledArray: itself, or nested rows or a vector of one mode's
    scalars read in mode exact, an empty list as a 0 x 0 matrix; rows of
    unequal length raise DimensionMismatch."""
    if isinstance(x, ScaledArray):
        return x
    entries = np.array(x, dtype=object)
    if any(isinstance(v, (list, tuple)) for v in entries.flat):
        raise DimensionMismatch("rows of unequal length")
    if not entries.size:
        entries = entries.reshape(len(entries), 0)
    coerced = [scalars.coerce(v, exact) for v in entries.flat]
    return scalars.to_array(np.array(coerced, dtype=object).reshape(entries.shape), exact)


def _answer(x, result):
    """result as the caller gave x: a ScaledArray, or nested tuples."""
    return result if isinstance(x, ScaledArray) else result.tuples()


# ---------------------------------------------------------------------------
# exact path

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
    determinant of the numerators of a square matrix of full rank.
    """
    m = [row for row in A.num.tolist() if any(row)]
    ncols = A.num.shape[1]
    pivots, d = [], 1
    for c in range(ncols):
        r = len(pivots)
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
        if r + 1 == len(m):
            break
    return np.array(m[: len(pivots)], dtype=object).reshape(len(pivots), ncols), pivots, d


def _reduced(N, d):
    """The exact ScaledArray N / d, for an object array N of ints and an
    int d != 0, in lowest terms over its positive lcm denominator."""
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

def rank(a, exact=None):
    A = _array(a, exact)
    if A.exact:
        return len(_eliminate(A)[1])
    if not A.num.size:
        return 0
    sing = np.linalg.svd(A.num, compute_uv=False)
    return int(np.count_nonzero(sing > FLOAT_RTOL * sing[0]))


def nullspace(a, exact=None):
    """Kernel basis of a as rows: exact, one row per free column with 1
    there; binary64, the right singular vectors at or below the threshold."""
    A = _array(a, exact)
    ncols = A.num.shape[1]
    if not A.exact:
        _, sing, vt = np.linalg.svd(A.num)
        cutoff = FLOAT_RTOL * (sing[0] if sing.size else 0.0)
        keep = [i for i in range(len(vt)) if i >= sing.size or sing[i] <= cutoff]
        return _answer(a, ScaledArray(vt[keep]))
    R, pivots, d = _eliminate(A)
    free = [c for c in range(ncols) if c not in pivots]
    N = np.zeros((len(free), ncols), dtype=object)
    N[range(len(free)), free] = d
    N[:, pivots] = -R[:, free].T
    return _answer(a, _reduced(N, d))


def solve(a, b, exact=None):
    """The x with a x = b, for a vector b or, column by column, a matrix b,
    with one elimination.  Raises Singular when rank(a) < n, in either
    mode."""
    A, B = _array(a, exact), _array(b, exact)
    n = _square(A)
    if B.num.shape[0] != n:
        raise DimensionMismatch(f"right-hand side of height {B.num.shape[0]} for {n} rows")
    if not A.exact:
        if rank(A) < n:
            raise Singular("matrix is singular")
        return _answer(a, ScaledArray(np.linalg.solve(A.num, B.num)))
    R, pivots, d = _eliminate(ScaledArray(np.concatenate([A.num, B.num.reshape(n, -1)], axis=1)))
    # the pivots of [a | b] in columns < n are those of a
    if sum(pc < n for pc in pivots) < n:
        raise Singular("matrix is singular")
    # [An | Bn] ends as [d I | W], so a = An / Ad and b = Bn / Bd give
    # x = (W / d) (Ad / Bd)
    return _answer(a, _reduced(R[:, n:] * A.den, d * B.den).reshape(B.num.shape))


def solve_many(a, rhs_cols, exact=None):
    """solve against each of the right-hand columns, one elimination: the
    solutions, one row per column."""
    A, B = _array(a, exact), _array(rhs_cols, exact)
    return _answer(a, solve(A, B.transpose()).transpose())


def inverse(a, exact=None):
    """solve(a, I), raising as solve."""
    A = _array(a, exact)
    return _answer(a, solve(A, scalars.eye(_square(A), A.exact)))


def det(a, exact=None):
    A = _array(a, exact)
    n = _square(A)
    if not A.exact:
        return float(np.linalg.det(A.num)) if n else 1.0
    _, pivots, d = _eliminate(A)
    return Fraction(d, A.den**n) if len(pivots) == n else Fraction(0)


def rref(a):
    """Nonzero rows of the reduced row echelon form, exact only."""
    R, _, d = _eliminate(_array(a, True))
    return _answer(a, _reduced(R, d))


def span_basis(vectors, exact=None):
    """Canonical basis of the span of the rows: exact, the reduced row
    echelon form; binary64, the right singular vectors of the nonzero rows
    above the threshold."""
    V = _array(vectors, exact)
    if V.exact:
        return _answer(vectors, rref(V))
    V = V[np.any(V.num != 0, axis=1)]
    if not V.num.size:
        return _answer(vectors, V)
    _, sing, vt = np.linalg.svd(V.num)
    keep = int(np.sum(sing > FLOAT_RTOL * sing[0]))
    return _answer(vectors, ScaledArray(vt[:keep]))


def in_span(basis, v, exact=None):
    """Whether the vector v, or each row of the matrix v, lies in the span
    of the rows of basis: one rank test per row."""
    B, V = _array(basis, exact), _array(v, exact)
    V = V.reshape(-1, V.num.shape[-1])
    V = V[np.any(V.num != 0, axis=1)]
    if not len(V.num):
        return True
    if not B.num.size:
        return False
    r = rank(B)
    return all(rank(scalars.stack([B, V[i : i + 1]])) == r for i in range(len(V.num)))


def same_span(basis_a, basis_b, exact=None):
    """Whether the rows of the two bases span the same space.  Exact
    ScaledArrays are taken as span_basis returns them, canonical, so they
    span the same space exactly when they are equal; exact nested rows are
    reduced first.  Binary64 rows go through in_span both ways."""
    A, B = _array(basis_a, exact), _array(basis_b, exact)
    if not A.exact:
        return in_span(B, A) and in_span(A, B)
    if not isinstance(basis_a, ScaledArray):
        A, B = span_basis(A), span_basis(B)
    return A == B


def signature(s, exact=None):
    """(positive, negative, zero) inertia of a symmetric matrix.

    Exact: a congruence sweep over the numerators, which share a positive
    denominator.  It splits off one square at a time via the Schur
    complement of the active rows; when their whole diagonal vanishes it
    first mixes in an off-diagonal entry with a row+column addition.
    Binary64: the eigenvalues, cut at 1e-9 of the largest.
    """
    S = _array(s, exact)
    if not S.exact:
        eig = np.linalg.eigvalsh(S.num)
        tol = FLOAT_RTOL * (float(np.max(np.abs(eig))) if eig.size else 0.0)
        pos, neg = int(np.sum(eig > tol)), int(np.sum(eig < -tol))
        return pos, neg, len(eig) - pos - neg
    a = [[Fraction(v) for v in row] for row in S.num.tolist()]
    active, pos, neg = list(range(len(a))), 0, 0
    while active:
        d = next((i for i in active if a[i][i] != 0), None)
        if d is None:
            pair = next(((i, j) for i in active for j in active if a[i][j] != 0), None)
            if pair is None:
                break
            # e_d <- e_d + e_j makes the (d, d) entry 2 a[d][j] != 0
            d, j = pair
            for c in active:
                a[d][c] += a[j][c]
            for r in active:
                a[r][d] += a[r][j]
        pos, neg = (pos + 1, neg) if a[d][d] > 0 else (pos, neg + 1)
        active.remove(d)
        for i in active:
            if a[i][d] != 0:
                f = a[i][d] / a[d][d]
                for j in active:
                    a[i][j] -= f * a[d][j]
    return pos, neg, len(a) - pos - neg


def exact_signature(s):
    return signature(s, True)


def float_signature(s):
    return signature(s, False)
