"""Left-invariant products: the metric connection, curvature, flatness.

The product tensor gamma[i][j][k] stores the coefficient of e_k in
e_i e_j.  For a metric <,> the product is fixed by the standard six-term
formula, which for left-invariant data collapses to

    2 <x y, z> = <[x, y], z> - <[y, z], x> + <[z, x], y>.

All n^2 right-hand sides are solved against the single matrix 2 G: the
inverse the form holds, halved (exactly, in both modes), and one
contraction of it against the right-hand sides give the whole tensor.
The right-hand sides, gamma, curvature and the torsion, skew and
left-symmetry residuals are einsum contractions over the ScaledArrays
that store c, gamma and G, one expression per quantity for both
arithmetic modes.

Curvature uses the fixed sign convention

    R(x, y) z = L_[x,y] z - L_x L_y z + L_y L_x z,

and flatness in binary64 accepts a maximal entry of R up to
1e-9 * (1 + |gamma|^2 + |c| |gamma|) in the max norm.
"""

import numpy as np

from . import linalg, scalars
from .algebra import LieAlgebra, as_algebra
from .errors import DimensionMismatch, InvalidValue
from .forms import SymBilinearForm, as_form, as_iso, validate_form

__all__ = [
    "ProductTensor",
    "CurvatureTensor",
    "FlatnessReport",
    "as_product",
    "levi_civita",
    "product_from_iso",
    "curvature",
    "curvature_tolerance",
    "flatness_report",
    "product_report",
    "biinvariant_connection",
    "dim4_obstruction",
]


@scalars.record
class ProductTensor(scalars.StoredTensor, view="gamma"):
    """A product stored as its ScaledArray; gamma is a read-only view."""

    algebra: LieAlgebra
    array: scalars.ScaledArray  # gamma[i, j, k]: coefficient of e_k in e_i e_j
    metric: SymBilinearForm | None

    def mult(self, x, y):
        lx = scalars.left_mult(self.array, self.vector(x))
        return scalars.contract("kj,j->k", lx, self.vector(y)).tuples()

    def left_mult(self, x):
        """Matrix of y -> x y on coordinate columns (rows k, columns j)."""
        return scalars.left_mult(self.array, self.vector(x)).tuples()

    def to_float(self):
        if not self.exact:
            return self
        metric = self.metric.to_float() if self.metric is not None else None
        return ProductTensor(self.algebra.to_float(), self.array.to_float(), metric)


@scalars.record
class CurvatureTensor(scalars.StoredTensor, view="r"):
    """R stored as the ScaledArray it is computed as; r is a read-only view."""

    array: scalars.ScaledArray  # R[i, j, k, l]: coefficient of e_l in R(e_i, e_j) e_k

    def max_abs(self):
        return self.array.peak()

    def apply(self, x, y, z):
        x, y, z = map(self.vector, (x, y, z))
        r = scalars.contract("i,ijkl->jkl", x, self.array)
        r = scalars.contract("j,jkl->kl", y, r)
        return scalars.contract("k,kl->l", z, r).tuples()


@scalars.record
class FlatnessReport:
    flat: bool
    max_residual: object
    torsion_ok: bool
    skew_ok: bool | None
    left_symmetric: bool
    mode: str
    tolerance: object


def as_product(P):
    """P itself when it is a ProductTensor; DimensionMismatch otherwise."""
    if not isinstance(P, ProductTensor):
        raise DimensionMismatch("expected a product tensor")
    return P


def levi_civita(L, g):
    """Metric product tensor of a left-invariant metric on L; InvalidValue
    when a binary64 entry of it overflows."""
    L = as_algebra(L)
    L, form = scalars.common_mode(L, as_form(g, L.dim))
    # the product is unchanged when G is scaled by a constant, so G's
    # numerators stand in for G
    C, G = L.array, form.array.numerators()
    with scalars._quiet(L.exact):
        # rhs[i][j][m] = <[e_i, e_j], e_m> - <[e_j, e_m], e_i> + <[e_m, e_i], e_j>
        rhs = (
            scalars.contract("ijk,km->ijm", C, G)
            - scalars.contract("jmk,ki->ijm", C, G)
            + scalars.contract("mik,kj->ijm", C, G)
        )
        # inverse(2 G) for G's numerators: the form's inverse over 2 and G's
        # denominator, exact in both modes
        inv = linalg.divided(form.inverse, 2 * form.array.den)
        gamma = scalars.contract("mk,ijk->ijm", inv, rhs)
    scalars._finite(gamma, "Levi-Civita product")
    return ProductTensor(L, gamma, form)


def product_from_iso(L, k, u):
    """Same product through the operator route:

    2 x y = [x, y] + u^{-1}([x, u(y)] + [y, u(x)]).

    The brackets [e_i, u e_j] are one contraction of the table against u,
    [e_j, u e_i] their transpose, and u^{-1} is applied by one more; the
    metric Gram matrix G is never inverted.  Kept separate from
    levi_civita so the two can cross-check each other.  InvalidValue when
    a binary64 entry of the product or the metric overflows.
    """
    L = as_algebra(L)
    L, form, iso = scalars.common_mode(L, as_form(k, L.dim), as_iso(u, L.dim))
    C, U = L.array, iso.array
    with scalars._quiet(L.exact):
        # t[i][j][k]: component k of [e_i, u e_j]
        t = scalars.contract("ajk,bj->abk", C, U.transpose())
        twice = C + scalars.contract("mk,ijk->ijm", iso.inverse, t + t.transpose(1, 0, 2))
        G = scalars.contract("ij,jk->ik", form.array, U)
    product = scalars._finite(twice, "Levi-Civita product").half()
    return ProductTensor(L, product, validate_form(G))


def _curvature(C, G):
    comp = scalars.contract("jkm,iml->ijkl", G, G)  # e_i (e_j e_k)
    bracket = scalars.contract("ijm,mkl->ijkl", C, G)  # [e_i, e_j] e_k
    return bracket - comp + comp.transpose(1, 0, 2, 3)


def curvature(P):
    """R[i][j][k][l] under R(x,y) = L_[x,y] - L_x L_y + L_y L_x;
    InvalidValue when a binary64 entry of it overflows."""
    P = as_product(P)
    with scalars._quiet(P.exact):
        R = _curvature(P.algebra.array, P.array)
    return CurvatureTensor(scalars._finite(R, "curvature"))


def curvature_tolerance(P):
    """Slack of a zero-curvature verdict on P: none in exact mode,
    1e-9 * (1 + |gamma|^2 + |c| |gamma|) in binary64, max norms."""
    P = as_product(P)
    gmax = P.array.scale()
    return scalars.tolerance(P.exact, 1.0 + gmax * gmax + P.algebra.array.scale() * gmax)


def product_report(P):
    """Torsion, metric skewness, left-symmetry and flatness of a product.

    Works for any product tensor, metric or not; flatness_report is the
    metric entry point.  In exact mode every verdict is an equality test;
    in binary64 the thresholds scale with the tensor norms.
    """
    P = as_product(P)
    C, G, exact = P.algebra.array, P.array, P.exact
    cmax, gmax = C.scale(), G.scale()

    K = P.metric.array if P.metric is not None else None
    with scalars._quiet(exact):
        torsion = G - G.transpose(1, 0, 2) - C
        skew = None
        if K is not None:  # <e_i e_j, e_l> + <e_j, e_i e_l>
            skew = scalars.contract("ijm,ml->ijl", G, K) + scalars.contract("jm,ilm->ijl", K, G)
        R = _curvature(C, G)
        # the associator (e_i e_j) e_k - e_i (e_j e_k) is symmetric in i, j
        # exactly when R + T gamma vanishes, T the torsion; R itself when T
        # vanishes, as on every exact Levi-Civita product
        tpeak = torsion.peak()
        ls = R + scalars.contract("ijm,mkl->ijkl", torsion, G) if tpeak else R
    scalars._finite(torsion, "torsion")
    if skew is not None:
        scalars._finite(skew, "metric skewness")
    rmax = scalars._finite(R, "curvature").peak()
    ls_res = scalars._finite(ls, "left-symmetry residual").peak()

    torsion_ok = tpeak <= scalars.tolerance(exact, max(1.0, cmax + 2 * gmax))
    skew_ok = None
    if skew is not None:
        skew_ok = skew.peak() <= scalars.tolerance(exact, max(1.0, 2 * gmax * K.scale()))
    left_symmetric = ls_res <= scalars.tolerance(exact, max(1.0, 2 * gmax * gmax + cmax * gmax))

    tol_f = curvature_tolerance(P)
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
    return ProductTensor(as_algebra(L), L.array.half(), None)


def dim4_obstruction(a, b, d):
    """Three curvature components obstructing flatness for the
    indecomposable four-dimensional family.

    Inputs are the metric parameters on the two-dimensional slice fixed by
    the central direction; the family's metric matrix has block
    [[a, b], [b, -d]] there.  Requires b^2 + a d != 0 and a d != 0, and
    raises InvalidValue otherwise.  The first component is the full
    obstruction; the last two are the remaining diagonal components on
    the b = 0 slice.
    """
    exact = scalars.decide_mode([a, b, d])
    a, b, d = (scalars.coerce(v, exact) for v in (a, b, d))
    if b * b + a * d == 0 or a * d == 0:
        raise InvalidValue(f"need b^2 + a d != 0 and a d != 0, got a={a}, b={b}, d={d}")
    p1 = b * (-1 + a + d) / (b * b + a * d)
    p2 = (a * a + 2 * a * (-1 + d) - (-1 + d) * (1 + 3 * d)) / (4 * a * d)
    p3 = (3 * a * a - 2 * a * (1 + d) - (-1 + d) * (-1 + d)) / (4 * a * d)
    return p1, p2, p3
