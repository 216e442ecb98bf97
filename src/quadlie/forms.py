"""Symmetric bilinear forms and form-symmetric operators.

A quadratic algebra carries an ad-invariant nondegenerate form k; the
left-invariant metrics of interest arise as <x, y> = k(u(x), y) for an
invertible operator u that is self-adjoint with respect to k.  This module
owns the form bookkeeping: validation, signatures, ad-invariance checks
and the metric <-> operator translations.
"""

from dataclasses import dataclass
from functools import cached_property

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
    dim: int
    matrix: tuple
    exact: bool

    @cached_property
    def array(self):
        """The matrix as a ScaledArray, converted once per form."""
        return scalars.to_array(self.matrix, self.exact)

    def apply(self, x, y):
        my = scalars.contract("ij,j->i", self.array, scalars.vector(y, self.exact))
        return scalars.contract("i,i->", scalars.vector(x, self.exact), my).tuples()

    def to_float(self):
        if not self.exact:
            return self
        m = tuple(tuple(float(v) for v in row) for row in self.matrix)
        return SymBilinearForm(self.dim, m, False)


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
        m = tuple(tuple(float(v) for v in row) for row in self.matrix)
        return SymmetricIso(self.dim, m, False)


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

    Exact mode demands literal symmetry and a nonzero determinant;
    binary64 mode allows symmetry slack 1e-9 relative to the largest
    entry and requires the smallest singular value to clear 1e-9 times
    the largest.  Degeneracy reports carry a kernel basis.
    """
    n = len(g)
    if n == 0:
        raise DimensionMismatch("empty form matrix")
    for i, row in enumerate(g):
        if len(row) != n:
            raise DimensionMismatch(f"form row {i} has {len(row)} entries, expected {n}")
    exact = scalars.decide_mode(scalars.flatten(g))
    m = scalars.coerce_matrix(g, exact)
    gmax = scalars.max_abs(m)
    tol = scalars.tolerance(exact, max(1.0, float(gmax)))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(m[i][j] - m[j][i]) > tol:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    if exact:
        if linalg.det(m, True) == 0:
            raise Degenerate(linalg.nullspace(m, True))
    else:
        import numpy as np

        arr = np.asarray(m, dtype=float)
        sing = np.linalg.svd(arr, compute_uv=False)
        if sing[0] == 0.0 or sing[-1] <= linalg.FLOAT_RTOL * sing[0]:
            raise Degenerate(linalg.nullspace(m, False))
    return SymBilinearForm(n, m, exact)


def signature(g):
    form = g if isinstance(g, SymBilinearForm) else validate_form(g)
    if form.exact:
        p, q, z = linalg.exact_signature(form.matrix)
    else:
        p, q, z = linalg.float_signature(form.matrix)
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
    tol = scalars.tolerance(exact, max(1.0, float(C.peak()) * float(K.peak())))
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
        umat = tuple(tuple(float(v) for v in row) for row in umat)

    K, U = form.array, scalars.to_array(umat, exact)
    ku = scalars.contract("ij,jk->ik", K, U)
    worst = (ku - scalars.contract("ji,jk->ik", U, K)).peak()
    tol = scalars.tolerance(exact, max(1.0, float(K.peak()) * float(U.peak())))
    if worst > tol:
        raise NotKSymmetric(f"operator is not self-adjoint, residual {worst}")
    try:
        linalg.inverse(umat, exact)
    except Singular:
        raise Singular("operator is not invertible") from None
    iso = SymmetricIso(form.dim, umat, exact)
    metric = validate_form(ku.tuples())
    return iso, metric


def iso_from_metric(k, g):
    """Recover u = K^{-1} G; the round trip with metric_from_iso is exact."""
    form = k if isinstance(k, SymBilinearForm) else validate_form(k)
    metric = g if isinstance(g, SymBilinearForm) else validate_form(g)
    if form.dim != metric.dim:
        raise DimensionMismatch("form and metric dimensions differ")
    exact = form.exact and metric.exact
    fm = form.matrix if exact else form.to_float().matrix
    gm = metric.matrix if exact else metric.to_float().matrix
    kinv = linalg.inverse(fm, exact)
    return SymmetricIso(form.dim, linalg.mat_mul(kinv, gm), exact)
