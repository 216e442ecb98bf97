"""Lie algebras presented by structure constants.

The table c[i][j] is the coefficient vector of [e_i, e_j], so the scalar
c[i][j][k] multiplies e_k.  Validation checks antisymmetry entrywise and
the Jacobi identity on basis triples; in binary64 mode both tests accept
residuals up to 1e-9 relative to the largest structure constant.

Every kernel here (bracket, ad, both validation tests, the spans of the
structure report and the unimodular trace) is one contraction over the
algebra's cached ScaledArray view, the same code in both modes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, scalars
from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    JacobiViolation,
    ValidationError,
)

__all__ = ["LieAlgebra", "StructureReport", "validate_algebra", "bracket", "structure_report"]


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    c: tuple  # c[i][j][k]
    exact: bool
    labels: tuple = ()

    @cached_property
    def array(self):
        """The table as a ScaledArray, converted once per algebra."""
        return scalars.to_array(self.c, self.exact)

    def bracket(self, x, y):
        return bracket(self, x, y)

    def ad(self, x):
        """Matrix of ad_x acting on coordinate columns: rows k, columns j."""
        return scalars.left_mult(self.array, scalars.vector(x, self.exact)).tuples()

    def basis_vector(self, i):
        one = scalars.coerce(1, self.exact)
        zero = scalars.coerce(0, self.exact)
        return tuple(one if j == i else zero for j in range(self.dim))

    def label_index(self, name):
        """Resolve a coordinate label; falls back to integer and e<k> forms."""
        if name in self.labels:
            return self.labels.index(name)
        try:
            k = int(name)
        except ValueError:
            if name.startswith("e"):
                try:
                    k = int(name[1:])
                except ValueError:
                    raise ValidationError(f"unknown coordinate label {name!r}") from None
                if 0 <= k < self.dim:
                    return k
            raise ValidationError(f"unknown coordinate label {name!r}") from None
        if 0 <= k < self.dim:
            return k
        raise ValidationError(f"coordinate index {k} out of range for dimension {self.dim}")

    def to_float(self):
        if not self.exact:
            return self
        c = tuple(
            tuple(tuple(float(v) for v in row) for row in plane) for plane in self.c
        )
        return LieAlgebra(self.dim, c, False, self.labels)


def validate_algebra(c, labels=None):
    """Build a LieAlgebra after checking shape, antisymmetry and Jacobi.

    Accepts any nested sequence c[i][j][k] of ints, Fractions or floats.
    The arithmetic mode of the result is decided here once: all-exact
    entries give an exact algebra, any float switches the whole table to
    binary64, and a mix of Fraction and float is rejected.
    """
    n = len(c)
    if n == 0:
        raise DimensionMismatch("empty structure table")
    for i, plane in enumerate(c):
        if len(plane) != n:
            raise DimensionMismatch(f"row {i} has {len(plane)} entries, expected {n}")
        for j, row in enumerate(plane):
            if len(row) != n:
                raise DimensionMismatch(
                    f"entry ({i}, {j}) has {len(row)} coefficients, expected {n}"
                )
    exact = scalars.decide_mode(scalars.flatten(c))
    table = tuple(
        tuple(scalars.coerce_vector(row, exact) for row in plane) for plane in c
    )
    lbl = tuple(labels) if labels else tuple(f"e{i}" for i in range(n))
    L = LieAlgebra(n, table, exact, lbl)
    C = L.array
    cmax = float(C.peak())

    # the residual is symmetric in (i, j), so the first violation in
    # index order has i <= j
    sym = C + C.transpose(1, 0, 2)
    bad = np.argwhere(sym.beyond(scalars.tolerance(exact, max(1.0, cmax))))
    if len(bad):
        i, j, k = bad[0].tolist()
        raise AntisymmetryViolation(i, j, k, sym.scalar(sym.num[i, j, k]))

    # jac[i, j, k, m]: component m of [[e_i, e_j], e_k] + cyclic
    nested = scalars.contract("ija,akm->ijkm", C, C)
    jac = nested + nested.transpose(2, 0, 1, 3) + nested.transpose(1, 2, 0, 3)
    i, j, k, _ = np.ogrid[:n, :n, :n, :n]
    jac_tol = scalars.tolerance(exact, max(1.0, cmax) ** 2)
    bad = np.argwhere(jac.beyond(jac_tol) & (i < j) & (j < k))
    if len(bad):
        i, j, k, m = bad[0].tolist()
        raise JacobiViolation(i, j, k, m, jac.scalar(jac.num[i, j, k, m]))

    if len(lbl) != n:
        raise DimensionMismatch(f"{len(lbl)} labels for dimension {n}")
    return L


def bracket(L, x, y):
    if len(x) != L.dim or len(y) != L.dim:
        raise DimensionMismatch(
            f"vectors of length {len(x)}, {len(y)} in dimension {L.dim}"
        )
    ad_x = scalars.left_mult(L.array, scalars.vector(x, L.exact))
    return scalars.contract("kj,j->k", ad_x, scalars.vector(y, L.exact)).tuples()


@dataclass(frozen=True)
class StructureReport:
    center: tuple
    derived: tuple
    lower_central: tuple
    nilpotency_class: int | None
    solvable: bool
    unimodular: bool
    abelian: bool


def _bracket_span(L, left_basis, right_basis):
    """Canonical basis of span{[v, w]} over the two vector families."""
    if not left_basis or not right_basis:
        return ()
    left = scalars.to_array(left_basis, L.exact)
    right = scalars.to_array(right_basis, L.exact)
    ad_left = scalars.contract("ai,ijk->ajk", left, L.array)
    brackets = scalars.contract("ajk,bj->abk", ad_left, right).tuples()
    return linalg.span_basis([v for row in brackets for v in row], L.exact)


def structure_report(L):
    """Center, derived algebra, lower central series and global flags.

    The series list starts at the whole algebra and ends at the first
    stationary term, so a nilpotent algebra of class m contributes m+1
    entries with an empty basis last.
    """
    n = L.dim
    exact = L.exact
    full = tuple(L.basis_vector(i) for i in range(n))

    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([L.c[i][j][k] for i in range(n)])
    center = linalg.nullspace(rows, exact)

    derived = _bracket_span(L, full, full)

    series = [linalg.span_basis(full, exact)]
    while True:
        nxt = _bracket_span(L, full, series[-1])
        if linalg.same_span(nxt, series[-1], exact):
            break
        series.append(nxt)
        if not nxt:
            break
    nil_class = len(series) - 1 if series and not series[-1] else None

    dseries = [series[0]]
    while dseries[-1]:
        nxt = _bracket_span(L, dseries[-1], dseries[-1])
        if linalg.same_span(nxt, dseries[-1], exact):
            break
        dseries.append(nxt)
    solvable = not dseries[-1]

    C = L.array
    traces = scalars.contract("ikk->i", C)
    tr_tol = scalars.tolerance(exact, max(1.0, float(C.peak())))
    unimodular = not traces.beyond(tr_tol).any()
    abelian = not np.count_nonzero(C.num)
    return StructureReport(
        center=center,
        derived=derived,
        lower_central=tuple(series),
        nilpotency_class=nil_class,
        solvable=solvable,
        unimodular=unimodular,
        abelian=abelian,
    )
