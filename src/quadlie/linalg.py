"""Small dense linear algebra over Fraction or binary64 entries.

The exact path is hand-rolled.  One fraction-free (Bareiss) Gauss-Jordan
elimination over integers serves rank, nullspaces, reduced row echelon
forms, span bases, solving, inverses and determinants; a congruence sweep
gives signatures.  The elimination takes rows of ints or Fractions and
clears each row's denominators straight from their .numerator and
.denominator, so integer rows (the numerators of a ScaledArray) go in
as they are.  Sizes here are tiny (dimension <= 16 or so), so clarity
wins over asymptotics.  The float path defers to numpy with the
rank/kernel threshold fixed at 1e-9 relative to the largest singular value.

A square matrix is singular exactly when rank(a) < n: in exact mode a
missing pivot, in binary64 a singular value at or below that threshold.
solve, solve_many and inverse raise Singular on that one test.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import Singular

__all__ = [
    "mat_vec",
    "mat_mul",
    "transpose",
    "identity",
    "rank",
    "nullspace",
    "solve",
    "inverse",
    "det",
    "rref",
    "span_basis",
    "in_span",
    "same_span",
    "exact_signature",
    "float_signature",
    "FLOAT_RTOL",
]

FLOAT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# mode-agnostic helpers (entries support +, *, comparison with 0)

def mat_vec(a, x):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in a)


def mat_mul(a, b):
    n = len(b)
    m = len(b[0])
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(n)) for j in range(m)) for row in a
    )


def transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def identity(n, exact=True):
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


# ---------------------------------------------------------------------------
# exact path

def _eliminate(a):
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Entries are ints or Fractions, read through .numerator and
    .denominator with no Fraction built per entry, and each row is first
    cleared of denominators by their lcm.  Pivoting on
    the first nonzero entry in column order, Bareiss's exact division step
    (Bareiss 1968, Math. Comp. 22) then runs on every other row, above the
    pivot as well as below it, so every entry stays an integer.  Returns
    (rows, pivots, det): the nonzero integer rows, their pivot columns, and
    the determinant of a square matrix (0 when it is singular or not
    square).  Row r divided by rows[r][pivots[r]] is row r of the reduced
    row echelon form.
    """
    m = []
    scale = 1
    for row in a:
        den = math.lcm(*(v.denominator for v in row))
        scale *= den
        m.append([v.numerator * (den // v.denominator) for v in row])
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        piv, prow = m[r][c], m[r]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], prow)]
        prev = piv
        pivots.append(c)
        if r + 1 == nrows:
            break
    r = len(pivots)
    det = Fraction(sign * prev, scale) if r == nrows == ncols else Fraction(0)
    return m[:r], pivots, det


def exact_signature(s):
    """(positive, negative, zero) inertia of a symmetric Fraction matrix.

    Congruence sweep: split off one square at a time via the Schur
    complement; when the whole active diagonal vanishes, mix in an
    off-diagonal entry with a row+column addition first.
    """
    n = len(s)
    a = [[Fraction(v) for v in row] for row in s]
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        d = next((i for i in active if a[i][i] != 0), None)
        if d is None:
            pair = next(
                (
                    (i, j)
                    for ii, i in enumerate(active)
                    for j in active[ii + 1 :]
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            # e_i <- e_i + e_j makes the (i,i) entry 2*a[i][j] != 0
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            d = i
        piv = a[d][d]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        active.remove(d)
        drow = [a[d][j] for j in range(n)]
        for i in active:
            fi = a[i][d]
            for j in active:
                a[i][j] -= fi * drow[j] / piv
            a[i][d] = Fraction(0)
            a[d][i] = Fraction(0)
    return pos, neg, zero


# ---------------------------------------------------------------------------
# float path

def _float_rank(a):
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0
    sing = np.linalg.svd(arr, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    return int(np.count_nonzero(sing > FLOAT_RTOL * sing[0]))


def _float_nullspace(a):
    arr = np.asarray(a, dtype=float)
    _, sing, vt = np.linalg.svd(arr)
    cutoff = FLOAT_RTOL * (sing[0] if sing.size else 0.0)
    null_rows = [vt[i] for i in range(len(vt)) if i >= sing.size or sing[i] <= cutoff]
    return tuple(tuple(float(v) for v in row) for row in null_rows)


def float_signature(s):
    arr = np.asarray(s, dtype=float)
    eig = np.linalg.eigvalsh(arr)
    scale = float(np.max(np.abs(eig))) if eig.size else 0.0
    tol = FLOAT_RTOL * scale
    pos = int(np.sum(eig > tol))
    neg = int(np.sum(eig < -tol))
    return pos, neg, len(eig) - pos - neg


# ---------------------------------------------------------------------------
# dispatching wrappers

def rank(a, exact):
    return len(_eliminate(a)[1]) if exact else _float_rank(a)


def nullspace(a, exact):
    if not exact:
        return _float_nullspace(a)
    rows, pivots, _ = _eliminate(a)
    ncols = len(a[0]) if a else 0
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(tuple(v))
    return tuple(basis)


def solve(a, rhs, exact):
    """Solve a x = rhs for one right-hand side vector."""
    return solve_many(a, [rhs], exact)[0]


def solve_many(a, rhs_cols, exact):
    """Solve a X = B against several right-hand columns with one elimination.

    Raises Singular when rank(a) < n, in either mode.
    """
    n = len(a)
    if not exact:
        arr = np.asarray(a, dtype=float)
        if _float_rank(arr) < n:
            raise Singular("matrix is singular")
        x = np.linalg.solve(arr, np.asarray(rhs_cols, dtype=float).T)
        return tuple(tuple(float(v) for v in x[:, j]) for j in range(x.shape[1]))
    rows, pivots, _ = _eliminate(
        [list(a[i]) + [col[i] for col in rhs_cols] for i in range(n)]
    )
    # the pivots of [a | B] in columns < n are those of a
    if sum(pc < n for pc in pivots) < n:
        raise Singular("matrix is singular")
    return tuple(
        tuple(Fraction(rows[i][n + j], rows[i][i]) for i in range(n))
        for j in range(len(rhs_cols))
    )


def inverse(a, exact):
    """Columns of the inverse solve a X = I; raises Singular as solve_many."""
    return tuple(zip(*solve_many(a, identity(len(a), exact), exact)))


def det(a, exact):
    if exact:
        return _eliminate(a)[2]
    if len(a) == 0:
        return 1.0
    return float(np.linalg.det(np.asarray(a, dtype=float)))


def rref(a):
    """Nonzero rows of the reduced row echelon form, over Fraction."""
    rows, pivots, _ = _eliminate(a)
    return tuple(
        tuple(Fraction(v, row[pc]) for v in row) for row, pc in zip(rows, pivots)
    )


def span_basis(vectors, exact):
    """Canonical basis of the span of the given row vectors."""
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return ()
    if exact:
        return rref(vecs)
    arr = np.asarray(vecs, dtype=float)
    u, sing, vt = np.linalg.svd(arr)
    keep = int(np.sum(sing > FLOAT_RTOL * sing[0])) if sing.size else 0
    return tuple(tuple(float(v) for v in vt[i]) for i in range(keep))


def in_span(basis, v, exact):
    """Whether v lies in the span of the basis rows."""
    if all(x == 0 for x in v):
        return True
    if not basis:
        return False
    return rank(list(basis) + [list(v)], exact) == rank(list(basis), exact)


def same_span(basis_a, basis_b, exact):
    if exact:
        return rref(list(basis_a)) == rref(list(basis_b))
    return all(in_span(basis_b, v, False) for v in basis_a) and all(
        in_span(basis_a, v, False) for v in basis_b
    )
