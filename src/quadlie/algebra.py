"""Lie algebras presented by structure constants.

The table c[i][j] is the coefficient vector of [e_i, e_j], so the scalar
c[i][j][k] multiplies e_k.  Validation checks antisymmetry entrywise and
the Jacobi identity on basis triples.  In binary64 mode antisymmetry
accepts residuals up to 1e-9 max(1, |c|), |c| the largest structure
constant, and each Jacobi entry up to 1e-9 times the sum of the sizes of
its own terms plus max(1, |c|), as its rounding grows with those terms.

Every kernel here (bracket, ad, both validation tests, the spans of the
structure report and the unimodular trace) is one contraction over the
algebra's ScaledArray, the same code in both modes; the structure report
hands the contractions to linalg's kernels as ScaledArrays and builds its
nested bases only at the end.
"""

import math

import numpy as np

from . import linalg, scalars
from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    InvalidValue,
    JacobiViolation,
    ValidationError,
)

__all__ = [
    "LieAlgebra",
    "StructureReport",
    "as_algebra",
    "label_index",
    "validate_algebra",
    "bracket",
    "structure_report",
]


@scalars.record
class LieAlgebra(scalars.StoredTensor, view="c"):
    """A structure table stored as its ScaledArray; c is a read-only view."""

    array: scalars.ScaledArray  # c[i, j, k]: coefficient of e_k in [e_i, e_j]
    labels: tuple = ()

    def bracket(self, x, y):
        return bracket(self, x, y)

    def ad(self, x):
        """Matrix of ad_x acting on coordinate columns: rows k, columns j."""
        return scalars.left_mult(self.array, self.vector(x)).tuples()

    def basis_vector(self, i):
        return scalars.eye(self.dim, self.exact)[i].tuples()

    def label_index(self, name):
        return label_index(self.labels, name)


def as_algebra(L):
    """L itself when it is a LieAlgebra; DimensionMismatch for anything
    else, nested tables included (validate_algebra reads those)."""
    if not isinstance(L, LieAlgebra):
        raise DimensionMismatch(f"expected a Lie algebra, got {type(L).__name__}")
    return L


def label_index(labels, name):
    """Index of a coordinate name among labels: the label itself, else an
    integer index, else e<k>; ValidationError for an index out of range or
    any other name."""
    if name in labels:
        return labels.index(name)
    n = len(labels)
    try:
        k = int(name)
    except (TypeError, ValueError, OverflowError):
        try:
            k = int(name[1:]) if name.startswith("e") else -1
        except (AttributeError, TypeError, ValueError):
            k = -1
        if 0 <= k < n:
            return k
        raise ValidationError(f"unknown basis reference {name!r}") from None
    if 0 <= k < n:
        return k
    raise ValidationError(f"index {k} out of range for dimension {n}")


def validate_algebra(c, labels=None):
    """Build a LieAlgebra after checking shape, antisymmetry and Jacobi.

    Accepts a nested n x n x n table c[i][j][k] of ints, Fractions or
    floats, read by scalars.read, so its entries decide its mode: all-exact
    entries give an exact algebra, any float switches the whole table to
    binary64, and a mix of Fraction and float is rejected.  Also accepts
    a ScaledArray that library code has assembled.  An empty table is a
    DimensionMismatch, and a binary64 table whose Jacobi terms overflow
    binary64 an InvalidValue.
    """
    C = c if isinstance(c, scalars.ScaledArray) else scalars.read(c, 3)
    n, exact = C.num.shape[0], C.exact
    if n == 0:
        raise DimensionMismatch("empty structure table")
    lbl = tuple(labels) if labels else tuple(f"e{i}" for i in range(n))
    cmax = C.scale()

    with scalars._quiet(exact):
        # the residual is symmetric in (i, j), so the first violation in
        # index order has i <= j
        sym = C + C.transpose(1, 0, 2)
        bad = np.argwhere(sym.beyond(scalars.tolerance(exact, max(1.0, cmax))))
        if len(bad):
            i, j, k = bad[0].tolist()
            raise AntisymmetryViolation(i, j, k, sym.scalar(sym.num[i, j, k]))

        def cyclic(A):  # entry [i, j, k, m]: component m of [[e_i, e_j], e_k] + cyclic
            nested = scalars.contract("ija,akm->ijkm", A, A)
            return nested + nested.transpose(2, 0, 1, 3) + nested.transpose(1, 2, 0, 3)

        jac = cyclic(C)
        if not math.isfinite(jac.scale()):
            raise InvalidValue("the Jacobi identity's terms overflow binary64")
        # each entry's slack: the sizes of its terms, the sums over a of
        # |c_ija| |c_akm| and cyclic, plus max(1, |c|)
        sizes = 0 if exact else cyclic(scalars.ScaledArray(np.abs(C.num))).num + max(1.0, cmax)
        i, j, k, _ = np.ogrid[:n, :n, :n, :n]
        bad = np.argwhere(jac.beyond(scalars.tolerance(exact, sizes)) & (i < j) & (j < k))
    if len(bad):
        i, j, k, m = bad[0].tolist()
        raise JacobiViolation(i, j, k, m, jac.scalar(jac.num[i, j, k, m]))

    if len(lbl) != n:
        raise DimensionMismatch(f"{len(lbl)} labels for dimension {n}")
    return LieAlgebra(C, lbl)


def bracket(L, x, y):
    L = as_algebra(L)
    lx = scalars.left_mult(L.array, L.vector(x))
    return scalars.contract("kj,j->k", lx, L.vector(y)).tuples()


@scalars.record
class StructureReport:
    center: tuple
    derived: tuple
    lower_central: tuple
    nilpotency_class: int | None
    solvable: bool
    unimodular: bool
    abelian: bool


def brackets(L, X, Y):
    """t[a, b, k]: component k of [x_a, y_b], for the rows x_a of X and y_b
    of Y."""
    return scalars.contract("ajk,bj->abk", scalars.contract("ai,ijk->ajk", X, L.array), Y)


def _bracket_span(L, left, right):
    """Canonical basis of span{[v, w]} over the rows of left and right.  A
    binary64 bracket entry within 1e-9 * max(1, |c|) of zero is zero, so
    the rounding of a vanishing bracket spans nothing; span_basis's own
    threshold is relative to the brackets' largest singular value, which
    such rounding sets."""
    B = brackets(L, left, right).reshape(-1, L.dim)
    if not L.exact:
        tol = scalars.tolerance(False, max(1.0, L.array.scale()))
        B = scalars.ScaledArray(np.where(B.beyond(tol), B.num, 0.0))
    return linalg.span_basis(B)


def _series(full, derived, step):
    """full, derived, then step of each last term, up to the first
    stationary or empty term."""
    terms, nxt = [full], derived
    while not linalg.same_span(nxt, terms[-1]):
        terms.append(nxt)
        if not len(nxt.num):
            break
        nxt = step(nxt)
    return terms


def structure_report(L):
    """Center, derived algebra, lower central series and global flags.

    The series list starts at the whole algebra and ends at the first
    stationary term, so a nilpotent algebra of class m contributes m+1
    entries with an empty basis last.  Every basis is span_basis's, so in
    exact mode two terms span the same space exactly when they are equal.
    The whole algebra's basis is the identity, span_basis's own, and one
    span of [g, g] is the derived algebra and both series' second term.
    """
    n = as_algebra(L).dim
    exact = L.exact
    C = L.array
    full = scalars.eye(n, exact)

    # row (j, k) holds c[i][j][k] over i
    center = linalg.nullspace(C.transpose(1, 2, 0).reshape(n * n, n))

    derived = _bracket_span(L, full, full)
    series = _series(full, derived, lambda term: _bracket_span(L, full, term))
    nil_class = len(series) - 1 if not len(series[-1].num) else None
    dseries = _series(full, derived, lambda term: _bracket_span(L, term, term))
    solvable = not len(dseries[-1].num)

    traces = scalars.contract("ikk->i", C)
    tr_tol = scalars.tolerance(exact, max(1.0, C.scale()))
    unimodular = not traces.beyond(tr_tol).any()
    abelian = not np.count_nonzero(C.num)
    return StructureReport(
        center=center.tuples(),
        derived=derived.tuples(),
        lower_central=tuple(term.tuples() for term in series),
        nilpotency_class=nil_class,
        solvable=solvable,
        unimodular=unimodular,
        abelian=abelian,
    )
