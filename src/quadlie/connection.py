"""Left-invariant products: the metric connection, curvature, flatness.

The product tensor gamma[i][j][k] stores the coefficient of e_k in
e_i e_j.  For a metric <,> the product is fixed by the standard six-term
formula, which for left-invariant data collapses to

    2 <x y, z> = <[x, y], z> - <[y, z], x> + <[z, x], y>.

All n^2 right-hand sides are solved against the single matrix 2 G, so one
elimination (one inverse in exact mode, one factorization in binary64)
serves the whole tensor.  The right-hand sides, curvature and the
torsion, skew and left-symmetry residuals are einsum contractions over
the cached ScaledArray views of c, gamma and G, one expression per
quantity for both arithmetic modes.

Curvature uses the fixed sign convention

    R(x, y) z = L_[x,y] z - L_x L_y z + L_y L_x z,

and flatness in binary64 accepts a maximal entry of R up to
1e-9 * (1 + |gamma|^2 + |c| |gamma|) in the max norm.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg, scalars
from .algebra import LieAlgebra
from .errors import DimensionMismatch
from .forms import SymBilinearForm, SymmetricIso, validate_form

__all__ = [
    "ProductTensor",
    "CurvatureTensor",
    "FlatnessReport",
    "levi_civita",
    "product_from_iso",
    "curvature",
    "flatness_report",
    "product_report",
    "biinvariant_connection",
    "dim4_obstruction",
]


@dataclass(frozen=True)
class ProductTensor:
    algebra: LieAlgebra
    gamma: tuple  # gamma[i][j][k]
    metric: SymBilinearForm | None
    exact: bool

    @property
    def dim(self):
        return self.algebra.dim

    @cached_property
    def array(self):
        """gamma as a ScaledArray, converted once per product."""
        return scalars.to_array(self.gamma, self.exact)

    def mult(self, x, y):
        lx = scalars.left_mult(self.array, scalars.vector(x, self.exact))
        return scalars.contract("kj,j->k", lx, scalars.vector(y, self.exact)).tuples()

    def left_mult(self, x):
        """Matrix of y -> x y on coordinate columns (rows k, columns j)."""
        return scalars.left_mult(self.array, scalars.vector(x, self.exact)).tuples()

    def to_float(self):
        if not self.exact:
            return self
        g = tuple(
            tuple(tuple(float(v) for v in row) for row in plane) for plane in self.gamma
        )
        return ProductTensor(
            self.algebra.to_float(),
            g,
            self.metric.to_float() if self.metric is not None else None,
            False,
        )


@dataclass(frozen=True)
class CurvatureTensor:
    r: tuple  # r[i][j][k][l]: coefficient of e_l in R(e_i, e_j) e_k
    exact: bool

    @cached_property
    def array(self):
        """r as a ScaledArray, converted once per tensor."""
        return scalars.to_array(self.r, self.exact)

    def max_abs(self):
        return scalars.max_abs(self.r)

    def apply(self, x, y, z):
        r = scalars.contract("i,ijkl->jkl", scalars.vector(x, self.exact), self.array)
        r = scalars.contract("j,jkl->kl", scalars.vector(y, self.exact), r)
        return scalars.contract("k,kl->l", scalars.vector(z, self.exact), r).tuples()


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    max_residual: object
    torsion_ok: bool
    skew_ok: bool | None
    left_symmetric: bool
    mode: str
    tolerance: object


def levi_civita(L, g):
    """Metric product tensor of a left-invariant metric on L."""
    form = g if isinstance(g, SymBilinearForm) else validate_form(g)
    if form.dim != L.dim:
        raise DimensionMismatch("metric and algebra dimensions differ")
    exact = L.exact and form.exact
    if not exact:
        L = L.to_float()
        form = form.to_float()
    n = L.dim
    C, G = L.array, form.array
    two_g = tuple(tuple(2 * v for v in row) for row in form.matrix)
    # rhs[i][j][m] = <[e_i, e_j], e_m> - <[e_j, e_m], e_i> + <[e_m, e_i], e_j>
    rhs = (
        scalars.contract("ijk,km->ijm", C, G)
        - scalars.contract("jmk,ki->ijm", C, G)
        + scalars.contract("mik,kj->ijm", C, G)
    )
    sols = linalg.solve_many(two_g, [row for plane in rhs.tuples() for row in plane], exact)
    gamma = tuple(
        tuple(sols[i * n + j] for j in range(n)) for i in range(n)
    )
    return ProductTensor(L, gamma, form, exact)


def product_from_iso(L, k, u):
    """Same product through the operator route:

    2 x y = [x, y] + u^{-1}([x, u(y)] + [y, u(x)]).

    Kept separate from levi_civita so the two can cross-check each other.
    """
    form = k if isinstance(k, SymBilinearForm) else validate_form(k)
    iso = u if isinstance(u, SymmetricIso) else SymmetricIso(
        L.dim, scalars.coerce_matrix(u, L.exact and form.exact), L.exact and form.exact
    )
    exact = L.exact and form.exact and iso.exact
    if not exact:
        L = L.to_float()
        form = form.to_float()
        iso = iso.to_float()
    n = L.dim
    uinv = iso.inverse_matrix()
    half = Fraction(1, 2) if exact else 0.5
    gamma = []
    for i in range(n):
        ei = L.basis_vector(i)
        uei = iso.apply(ei)
        plane = []
        for j in range(n):
            ej = L.basis_vector(j)
            br = L.bracket(ei, ej)
            t1 = L.bracket(ei, iso.apply(ej))
            t2 = L.bracket(ej, uei)
            corr = linalg.mat_vec(uinv, tuple(a + b for a, b in zip(t1, t2)))
            plane.append(tuple(half * (a + b) for a, b in zip(br, corr)))
        gamma.append(tuple(plane))
    ku = linalg.mat_mul(form.matrix, iso.matrix)
    metric = validate_form(ku)
    return ProductTensor(L, tuple(gamma), metric, exact)


def _compose(P):
    """comp[i][j][k][l]: coefficient of e_l in e_i (e_j e_k)."""
    G = P.array
    return scalars.contract("jkm,iml->ijkl", G, G)


def _curvature_array(P, comp):
    """R as a ScaledArray, from comp = _compose(P)."""
    return (
        scalars.contract("ijm,mkl->ijkl", P.algebra.array, P.array)
        - comp
        + comp.transpose(1, 0, 2, 3)
    )


def curvature(P):
    """R[i][j][k][l] under R(x,y) = L_[x,y] - L_x L_y + L_y L_x."""
    return CurvatureTensor(_curvature_array(P, _compose(P)).tuples(), P.exact)


def product_report(P):
    """Torsion, metric skewness, left-symmetry and flatness of a product.

    Works for any product tensor, metric or not; flatness_report is the
    metric entry point.  In exact mode every verdict is an equality test;
    in binary64 the thresholds scale with the tensor norms.
    """
    C, G, exact = P.algebra.array, P.array, P.exact
    cmax, gmax = float(C.peak()), float(G.peak())

    torsion = G - G.transpose(1, 0, 2) - C
    torsion_ok = torsion.peak() <= scalars.tolerance(exact, max(1.0, cmax + 2 * gmax))

    skew_ok = None
    if P.metric is not None:
        K = P.metric.array
        kmax = float(K.peak())
        # <e_i e_j, e_l> + <e_j, e_i e_l>
        skew = scalars.contract("ijm,ml->ijl", G, K) + scalars.contract("jm,ilm->ijl", K, G)
        skew_ok = skew.peak() <= scalars.tolerance(exact, max(1.0, 2 * gmax * kmax))

    # associator (e_i e_j) e_k - e_i (e_j e_k), symmetric in i, j
    comp = _compose(P)
    assoc = scalars.contract("ijm,mkl->ijkl", G, G) - comp
    ls_res = (assoc - assoc.transpose(1, 0, 2, 3)).peak()
    left_symmetric = ls_res <= scalars.tolerance(exact, max(1.0, 2 * gmax * gmax + cmax * gmax))

    rmax = _curvature_array(P, comp).peak()
    tol_f = scalars.tolerance(exact, 1.0 + gmax * gmax + cmax * gmax)
    flat = rmax <= tol_f
    return FlatnessReport(
        flat=flat,
        max_residual=rmax,
        torsion_ok=torsion_ok,
        skew_ok=skew_ok,
        left_symmetric=left_symmetric,
        mode="exact" if exact else "binary64",
        tolerance=tol_f,
    )


def flatness_report(L, g):
    return product_report(levi_civita(L, g))


def biinvariant_connection(L):
    """Half-bracket product; it is the metric product of any ad-invariant
    metric and needs no form to write down."""
    half = Fraction(1, 2) if L.exact else 0.5
    gamma = tuple(
        tuple(tuple(half * v for v in row) for row in plane) for plane in L.c
    )
    return ProductTensor(L, gamma, None, L.exact)


def dim4_obstruction(a, b, d):
    """Three curvature components obstructing flatness for the
    indecomposable four-dimensional family.

    Inputs are the metric parameters on the two-dimensional slice fixed by
    the central direction; the family's metric matrix has block
    [[a, b], [b, -d]] there.  Requires b^2 + a d != 0 and a d != 0; the
    division raises ZeroDivisionError otherwise.  The first component is
    the full obstruction; the last two are the remaining diagonal
    components on the b = 0 slice.
    """
    exact = scalars.decide_mode([a, b, d])
    if exact:
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
    else:
        a, b, d = float(a), float(b), float(d)
    p1 = b * (-1 + a + d) / (b * b + a * d)
    p2 = (a * a + 2 * a * (-1 + d) - (-1 + d) * (1 + 3 * d)) / (4 * a * d)
    p3 = (3 * a * a - 2 * a * (1 + d) - (-1 + d) * (-1 + d)) / (4 * a * d)
    return p1, p2, p3
