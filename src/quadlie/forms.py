"""Symmetric bilinear forms and form-symmetric operators.

A quadratic algebra carries an ad-invariant nondegenerate form k; the
left-invariant metrics of interest arise as <x, y> = k(u(x), y) for an
invertible operator u that is self-adjoint with respect to k.  This module
owns the form bookkeeping: validation, signatures, ad-invariance checks
and the metric <-> operator translations.

A form and an operator are each stored as one ScaledArray, with the
nested matrix built only when read.  Signatures, ranks and inverses are
linalg kernels over those arrays, and G = K U, U^T K and K^{-1} G are
contractions.  A form or operator is inverted once, in either mode:
validate_form and metric_from_iso take linalg.inverse as their
singularity test, and the form or operator keeps the inverse.  Every
function reads a form through as_form and an operator through as_iso,
nested or not; each raises DimensionMismatch for an argument of another
kind or size.
"""

import numpy as np

from . import linalg, scalars
from .algebra import as_algebra
from .errors import Degenerate, DimensionMismatch, NotKSymmetric, NotSymmetric, Singular

__all__ = [
    "SymBilinearForm",
    "SymmetricIso",
    "as_form",
    "as_iso",
    "Signature",
    "AdInvarianceReport",
    "validate_form",
    "signature",
    "check_ad_invariance",
    "metric_from_iso",
    "iso_from_metric",
]


class _Matrix(scalars.StoredTensor, view="matrix"):
    """The form's and the operator's shared view and inverse."""

    @scalars._kept
    def inverse(self):
        """The inverse as a ScaledArray, computed once; Singular if none."""
        return linalg.inverse(self.array)


@scalars.record
class SymBilinearForm(_Matrix):
    """A form stored as its matrix's ScaledArray; matrix is a read-only view."""

    array: scalars.ScaledArray

    def apply(self, x, y):
        my = scalars.contract("ij,j->i", self.array, self.vector(y))
        return scalars.contract("i,i->", self.vector(x), my).tuples()


@scalars.record
class SymmetricIso(_Matrix):
    """Invertible operator self-adjoint for the ambient invariant form,
    stored as its matrix's ScaledArray; matrix is a read-only view.

    The matrix acts on coordinate columns: u(e_j) = sum_i matrix[i][j] e_i.
    SymmetricIso(dim, matrix, exact=None) takes a nested dim x dim matrix,
    read by scalars.read in mode exact, or in the mode of its entries when
    exact is None (DimensionMismatch for any other shape), or a ScaledArray
    that library code has assembled.  Its inverse is computed once, when
    first used; metric_from_iso uses it to check the operator.
    """

    array: scalars.ScaledArray

    def __init__(self, dim, matrix, exact=None):
        if not isinstance(matrix, scalars.ScaledArray):
            matrix = scalars.read(matrix, 2, dim, exact)
        object.__setattr__(self, "array", matrix)

    def apply(self, x):
        return scalars.contract("ij,j->i", self.array, self.vector(x)).tuples()

    def inverse_matrix(self):
        return self.inverse.tuples()

    def to_float(self):
        return self if not self.exact else SymmetricIso(self.dim, self.array.to_float())


def as_form(g, dim=None):
    """g as a SymBilinearForm: itself, or whatever validate_form takes;
    DimensionMismatch when dim is given and the form has another size."""
    form = g if isinstance(g, SymBilinearForm) else validate_form(g)
    if dim is not None and form.dim != dim:
        raise DimensionMismatch(f"form of size {form.dim} in dimension {dim}")
    return form


def as_iso(u, dim):
    """u as a SymmetricIso of size dim: itself, or a nested matrix whose
    entries decide its mode, as for every nested input; DimensionMismatch
    for any other size."""
    if not isinstance(u, SymmetricIso):
        u = SymmetricIso(dim, u)
    if u.dim != dim:
        raise DimensionMismatch(f"operator of size {u.dim} in dimension {dim}")
    return u


@scalars.record
class Signature:
    positive: int
    negative: int
    zero: int

    @property
    def index(self):
        return self.negative


@scalars.record
class AdInvarianceReport:
    invariant: bool
    max_residual: object


def validate_form(g):
    """Accept a square symmetric nondegenerate matrix as a form.

    Takes a nested n x n matrix, read by scalars.read, so its entries
    decide its mode, or a ScaledArray that library code has assembled; an
    empty matrix is a DimensionMismatch, and a binary64 matrix with an
    entry beyond binary64 an InvalidValue.  Exact mode demands literal
    symmetry; binary64 mode allows symmetry slack 1e-9 relative to the
    largest entry.  The form is degenerate when linalg.inverse finds it
    singular, its rank below its size, and otherwise keeps that inverse;
    the Degenerate report carries a kernel basis, exact or, in binary64,
    with the singular values cut at 1e-9 of the largest.
    """
    M = g if isinstance(g, scalars.ScaledArray) else scalars.read(g, 2)
    n, exact = M.num.shape[0], M.exact
    if n == 0:
        raise DimensionMismatch("empty form matrix")
    tol = scalars.tolerance(exact, max(1.0, scalars._finite(M, "form").scale()))
    # M - M^T is antisymmetric with a zero diagonal, so the first violation
    # in index order has i < j
    bad = np.argwhere((M - M.transpose()).beyond(tol))
    if len(bad):
        i, j = bad[0].tolist()
        raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    form = SymBilinearForm(M)
    try:  # the inverse tests M, and the form keeps it
        form.inverse
    except Singular:
        raise Degenerate(linalg.nullspace(M).tuples()) from None
    return form


def signature(g):
    return Signature(*linalg.signature(as_form(g).array))


def check_ad_invariance(L, k):
    """Whether k(ad_x y, z) + k(y, ad_x z) vanishes for all basis x.

    Matrix form per basis direction: K ad + ad^T K = 0.  The report keeps
    the worst residual entry so near-misses are visible in float mode;
    InvalidValue when a binary64 entry of the residual overflows.
    """
    L = as_algebra(L)
    L, form = scalars.common_mode(L, as_form(k, L.dim))
    exact = form.exact
    C, K = L.array, form.array
    # res[i, r, s]: entry (r, s) of K ad_i + ad_i^T K, ad_i[t][s] = c[i][s][t]
    with scalars._quiet(exact):
        res = scalars.contract("rt,ist->irs", K, C) + scalars.contract("irt,ts->irs", C, K)
    worst = scalars._finite(res, "ad-invariance residual").peak() or scalars.coerce(0, exact)
    tol = scalars.tolerance(exact, max(1.0, C.scale() * K.scale()))
    return AdInvarianceReport(invariant=worst <= tol, max_residual=worst)


def metric_from_iso(k, u):
    """Metric matrix G = K U from a k-symmetric invertible operator.

    Raises NotKSymmetric when U^T K differs from K U, i.e. when u fails
    self-adjointness, and then Singular when u has no inverse; the
    operator returned keeps its inverse.  InvalidValue when a binary64
    entry of K U or U^T K overflows.
    """
    form = as_form(k)
    form, iso = scalars.common_mode(form, as_iso(u, form.dim))
    K, U = form.array, iso.array
    with scalars._quiet(iso.exact):
        ku = scalars.contract("ij,jk->ik", K, U)
        res = ku - scalars.contract("ji,jk->ik", U, K)
    worst = scalars._finite(res, "metric K U").peak()
    tol = scalars.tolerance(iso.exact, max(1.0, K.scale() * U.scale()))
    if worst > tol:
        raise NotKSymmetric(f"operator is not self-adjoint, residual {worst}")
    try:  # the inverse tests U, and the operator keeps it
        iso.inverse
    except Singular:
        raise Singular("operator is not invertible") from None
    return iso, validate_form(ku)


def iso_from_metric(k, g):
    """Recover u = K^{-1} G; the round trip with metric_from_iso is exact."""
    form = as_form(k)
    form, metric = scalars.common_mode(form, as_form(g, form.dim))
    return SymmetricIso(form.dim, scalars.contract("ij,jk->ik", form.inverse, metric.array))
