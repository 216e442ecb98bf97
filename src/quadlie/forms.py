"""Symmetric bilinear forms and form-symmetric operators.

A quadratic algebra carries an ad-invariant nondegenerate form k; the
left-invariant metrics of interest arise as <x, y> = k(u(x), y) for an
invertible operator u that is self-adjoint with respect to k.  This module
owns the form bookkeeping: validation, signatures, ad-invariance checks
and the metric <-> operator translations.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, scalars
from .errors import Degenerate, DimensionMismatch, NotKSymmetric, NotSymmetric, Singular

__all__ = [
    "SymBilinearForm",
    "SymmetricIso",
    "Signature",
    "AdInvarianceReport",
    "validate_form",
    "signature",
    "check_ad_invariance",
    "metric_from_iso",
    "iso_from_metric",
]


@dataclass(frozen=True)
class SymBilinearForm:
    """A form stored as its matrix's ScaledArray; matrix is a read-only view."""

    array: scalars.ScaledArray

    @property
    def dim(self):
        return self.array.num.shape[0]

    @property
    def exact(self):
        return self.array.exact

    @cached_property
    def matrix(self):
        return self.array.tuples()

    def apply(self, x, y):
        my = scalars.contract("ij,j->i", self.array, scalars.vector(y, self.exact))
        return scalars.contract("i,i->", scalars.vector(x, self.exact), my).tuples()

    def to_float(self):
        return self if not self.exact else SymBilinearForm(self.array.to_float())


@dataclass(frozen=True)
class SymmetricIso:
    """Invertible operator self-adjoint for the ambient invariant form.

    The matrix acts on coordinate columns: u(e_j) = sum_i matrix[i][j] e_i.
    """

    dim: int
    matrix: tuple
    exact: bool

    def apply(self, x):
        xs = scalars.coerce_vector(x, self.exact)
        return linalg.mat_vec(self.matrix, xs)

    def inverse_matrix(self):
        return linalg.inverse(self.matrix, self.exact)

    def to_float(self):
        if not self.exact:
            return self
        return SymmetricIso(self.dim, scalars.coerce_matrix(self.matrix, False), False)


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    zero: int

    @property
    def index(self):
        return self.negative


@dataclass(frozen=True)
class AdInvarianceReport:
    invariant: bool
    max_residual: object


def validate_form(g):
    """Accept a square symmetric nondegenerate matrix as a form.

    Takes a nested square matrix of one mode's scalars, or a ScaledArray
    that library code has assembled.  Exact mode demands literal symmetry;
    binary64 mode allows symmetry slack 1e-9 relative to the largest
    entry.  The form is degenerate when its rank is below its size, with
    linalg's rank in either mode (in binary64 the singular values cut at
    1e-9 of the largest), and the Degenerate report carries a kernel basis.
    """
    if isinstance(g, scalars.ScaledArray):
        M = g
    else:
        n = len(g)
        if n == 0:
            raise DimensionMismatch("empty form matrix")
        for i, row in enumerate(g):
            if len(row) != n:
                raise DimensionMismatch(f"form row {i} has {len(row)} entries, expected {n}")
        M = scalars.to_array(g, scalars.decide_mode(scalars.flatten(g)))
    n, exact = M.num.shape[0], M.exact
    tol = scalars.tolerance(exact, max(1.0, M.scale()))
    # M - M^T is antisymmetric with a zero diagonal, so the first violation
    # in index order has i < j
    bad = np.argwhere((M - M.transpose()).beyond(tol))
    if len(bad):
        i, j = bad[0].tolist()
        raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    # the numerators share one positive denominator: same rank and kernel
    if linalg.rank(M.num.tolist(), exact) < n:
        raise Degenerate(linalg.nullspace(M.num.tolist(), exact))
    return SymBilinearForm(M)


def signature(g):
    form = g if isinstance(g, SymBilinearForm) else validate_form(g)
    # the positive common denominator leaves the inertia as it is
    rows = form.array.num.tolist()
    if form.exact:
        p, q, z = linalg.exact_signature(rows)
    else:
        p, q, z = linalg.float_signature(rows)
    return Signature(p, q, z)


def check_ad_invariance(L, k):
    """Whether k(ad_x y, z) + k(y, ad_x z) vanishes for all basis x.

    Matrix form per basis direction: K ad + ad^T K = 0.  The report keeps
    the worst residual entry so near-misses are visible in float mode.
    """
    form = k if isinstance(k, SymBilinearForm) else validate_form(k)
    if form.dim != L.dim:
        raise DimensionMismatch("form and algebra dimensions differ")
    exact = form.exact and L.exact
    if not exact:
        L, form = L.to_float(), form.to_float()
    C, K = L.array, form.array
    # res[i, r, s]: entry (r, s) of K ad_i + ad_i^T K, ad_i[t][s] = c[i][s][t]
    res = scalars.contract("rt,ist->irs", K, C) + scalars.contract("irt,ts->irs", C, K)
    worst = res.peak() or scalars.coerce(0, exact)
    tol = scalars.tolerance(exact, max(1.0, C.scale() * K.scale()))
    return AdInvarianceReport(invariant=worst <= tol, max_residual=worst)


def metric_from_iso(k, u):
    """Metric matrix G = K U from a k-symmetric invertible operator.

    Raises Singular when u is not invertible and NotKSymmetric when
    U^T K differs from K U, i.e. when u fails self-adjointness.
    """
    form = k if isinstance(k, SymBilinearForm) else validate_form(k)
    umat = u.matrix if isinstance(u, SymmetricIso) else None
    if umat is None:
        exact = form.exact and scalars.decide_mode(scalars.flatten(u))
        umat = scalars.coerce_matrix(u, exact)
    else:
        exact = form.exact and u.exact
    if len(umat) != form.dim:
        raise DimensionMismatch("operator and form dimensions differ")
    if not exact:
        form = form.to_float()
        umat = scalars.coerce_matrix(umat, False)

    K, U = form.array, scalars.to_array(umat, exact)
    ku = scalars.contract("ij,jk->ik", K, U)
    worst = (ku - scalars.contract("ji,jk->ik", U, K)).peak()
    tol = scalars.tolerance(exact, max(1.0, K.scale() * U.scale()))
    if worst > tol:
        raise NotKSymmetric(f"operator is not self-adjoint, residual {worst}")
    try:
        linalg.inverse(umat, exact)
    except Singular:
        raise Singular("operator is not invertible") from None
    return SymmetricIso(form.dim, umat, exact), validate_form(ku)


def iso_from_metric(k, g):
    """Recover u = K^{-1} G; the round trip with metric_from_iso is exact."""
    form = k if isinstance(k, SymBilinearForm) else validate_form(k)
    metric = g if isinstance(g, SymBilinearForm) else validate_form(g)
    if form.dim != metric.dim:
        raise DimensionMismatch("form and metric dimensions differ")
    exact = form.exact and metric.exact
    if not exact:
        form, metric = form.to_float(), metric.to_float()
    kinv = linalg.inverse(form.matrix, exact)
    return SymmetricIso(form.dim, linalg.mat_mul(kinv, metric.matrix), exact)
