"""Small dense linear algebra over Fraction or binary64 entries.

The exact path is hand-rolled: fraction-free (Bareiss) elimination for rank
and nullspaces, Gauss-Jordan for solving and inverses, and a congruence
sweep for signatures.  Sizes here are tiny (dimension <= 16 or so), so
clarity wins over asymptotics.  The float path defers to numpy with the
rank/kernel threshold fixed at 1e-9 relative to the largest singular value.
"""

from fractions import Fraction
from math import gcd

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

def _as_int_rows(a):
    """Clear denominators row by row; keeps row space and nullspace."""
    out = []
    for row in a:
        den = 1
        for v in row:
            f = Fraction(v)
            den = den * f.denominator // gcd(den, f.denominator)
        out.append([int(Fraction(v) * den) for v in row])
    return out


def _bareiss(a):
    """Fraction-free echelon form.  Returns (rows, pivot_columns)."""
    m = [row[:] for row in a]
    if not m or not m[0]:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def _exact_rank(a):
    ints = _as_int_rows(a)
    _, pivots = _bareiss(ints)
    return len(pivots)


def _exact_nullspace(a):
    ints = _as_int_rows(a)
    ech, pivots = _bareiss(ints)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r in range(len(ech) - 1, -1, -1):
            pc = pivots[r]
            s = sum(
                (Fraction(ech[r][j]) * v[j] for j in range(pc + 1, ncols)),
                Fraction(0),
            )
            v[pc] = -s / Fraction(ech[r][pc])
        basis.append(tuple(v))
    return tuple(basis)


def _exact_rref(a):
    """Reduced row echelon over Fraction.  Returns (nonzero_rows, pivots)."""
    m = [[Fraction(v) for v in row] for row in a]
    if not m or not m[0]:
        return (), []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r]), pivots


def _exact_solve_many(a, rhs_cols):
    """Solve a X = B for several columns at once.  Raises Singular."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for col in rhs_cols:
            aug[i].append(Fraction(col[i]))
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if p is None:
            raise Singular("matrix is singular")
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [aug[i][j] - f * aug[c][j] for j in range(n + len(rhs_cols))]
    return tuple(
        tuple(aug[i][n + j] for i in range(n)) for j in range(len(rhs_cols))
    )


def _exact_det(a):
    # clear denominators per row; det picks up the product of the scalings
    scale = Fraction(1)
    m = []
    for row in a:
        den = 1
        for v in row:
            f = Fraction(v)
            den = den * f.denominator // gcd(den, f.denominator)
        scale *= den
        m.append([int(Fraction(v) * den) for v in row])
    n = len(m)
    prev = 1
    sign = 1
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[c][c] * m[i][j] - m[i][c] * m[c][j]) // prev
            m[i][c] = 0
        prev = m[c][c]
    return Fraction(sign * m[n - 1][n - 1]) / scale


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
    return int(np.sum(sing > FLOAT_RTOL * sing[0]))


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
    if not a:
        return 0
    return _exact_rank(a) if exact else _float_rank(a)


def nullspace(a, exact):
    return _exact_nullspace(a) if exact else _float_nullspace(a)


def solve(a, rhs, exact):
    """Solve a x = rhs for one right-hand side vector."""
    if exact:
        return _exact_solve_many(a, [list(rhs)])[0]
    arr = np.asarray(a, dtype=float)
    if abs(np.linalg.det(arr)) == 0.0:
        raise Singular("matrix is singular")
    return tuple(float(v) for v in np.linalg.solve(arr, np.asarray(rhs, dtype=float)))


def solve_many(a, rhs_cols, exact):
    """Solve against several right-hand columns with one elimination."""
    if exact:
        return _exact_solve_many(a, [list(c) for c in rhs_cols])
    arr = np.asarray(a, dtype=float)
    b = np.asarray(rhs_cols, dtype=float).T
    sing = np.linalg.svd(arr, compute_uv=False)
    if sing[0] == 0.0 or sing[-1] <= FLOAT_RTOL * sing[0]:
        raise Singular("matrix is singular")
    x = np.linalg.solve(arr, b)
    return tuple(tuple(float(v) for v in x[:, j]) for j in range(x.shape[1]))


def inverse(a, exact):
    n = len(a)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    if exact:
        inv_cols = _exact_solve_many(a, cols)
        return tuple(
            tuple(inv_cols[j][i] for j in range(n)) for i in range(n)
        )
    arr = np.asarray(a, dtype=float)
    sing = np.linalg.svd(arr, compute_uv=False)
    if sing[0] == 0.0 or sing[-1] <= FLOAT_RTOL * sing[0]:
        raise Singular("matrix is singular")
    inv = np.linalg.inv(arr)
    return tuple(tuple(float(v) for v in row) for row in inv)


def det(a, exact):
    if exact:
        return _exact_det(a)
    return float(np.linalg.det(np.asarray(a, dtype=float)))


def rref(a):
    """Nonzero rows of the reduced row echelon form, over Fraction."""
    rows, _ = _exact_rref(a)
    return rows


def span_basis(vectors, exact):
    """Canonical basis of the span of the given row vectors."""
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return ()
    if exact:
        rows, _ = _exact_rref(vecs)
        return rows
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
    stacked = list(basis) + [list(v)]
    if exact:
        return _exact_rank(stacked) == _exact_rank(list(basis))
    return _float_rank(stacked) == _float_rank(list(basis))


def same_span(basis_a, basis_b, exact):
    if exact:
        ra, _ = _exact_rref(list(basis_a)) if basis_a else ((), [])
        rb, _ = _exact_rref(list(basis_b)) if basis_b else ((), [])
        return ra == rb
    return all(in_span(basis_b, v, False) for v in basis_a) and all(
        in_span(basis_a, v, False) for v in basis_b
    )
