"""Builders for the quadratic Lie algebra families.

Three constructions produce (algebra, invariant form) pairs:

  * double extensions of an abelian inner product space by a skew
    derivation, the oscillator algebras being the diagonal-block case;
  * two-step algebras V + V* from an alternating trilinear form on V,
    with corank-zero centers;
  * cotangent doubles A* + A with the duality pairing.

On top of these sit the operator families that make the geometric side
tick: metrics from an invertible map on V for the two-step family with
their conjugacy invariants, and the graded derivation pairs that force
flat products on three-step nilpotent algebras.

Tables and form matrices are assembled as numerator arrays over one
denominator (Python ints in exact mode, float64 in binary64) and handed to
the validators as ScaledArrays, the same code in both modes, unless the
build itself proves them valid.  Each identity is checked by one
contraction over the ScaledArrays and one np.argwhere, whose first hit in
row-major order is the first violation in index order; every product of
the derivation pairs (brackets, B diag B^{-1}, the product
d^{-1}[f x, d y]) is one scalars.contract.
"""

import math
from fractions import Fraction

import numpy as np

from . import linalg, scalars
from .algebra import LieAlgebra, as_algebra, brackets, structure_report, validate_algebra
from .connection import ProductTensor
from .errors import (
    DimensionMismatch,
    InvalidLambda,
    NoSolution,
    NotAntisymmetric,
    RankDeficientTheta,
    Singular,
    WrongClass,
    ZeroXMinusOne,
)
from .forms import SymBilinearForm, SymmetricIso, as_form, check_ad_invariance, validate_form

__all__ = [
    "OscillatorSpec",
    "TwoStepSpec",
    "FDerivationSpec",
    "SimilarityInvariants",
    "OscillatorJacobiForms",
    "build_oscillator",
    "build_double_extension",
    "build_two_step",
    "volume_theta",
    "two_step_metric",
    "similarity_invariants",
    "build_f_derivation",
    "build_cotangent_double",
    "oscillator_closed_forms",
]


@scalars.record
class OscillatorSpec:
    lams: tuple


@scalars.record
class TwoStepSpec:
    dim_v: int
    theta: tuple  # theta[i][j][k], fully antisymmetric
    phi: tuple | None = None


@scalars.record
class FDerivationSpec:
    grading: tuple  # three bases (G0, G1, G2)
    d_matrix: tuple
    f_matrix: tuple
    d_diagonal: tuple  # (alpha0, alpha1, alpha2)
    f_diagonal: tuple  # (a0, a1, a2)


@scalars.record
class SimilarityInvariants:
    char_poly: tuple  # monic, descending powers
    invariant_factor_degrees: tuple


def _size(m, what):
    """m when it is a positive integer, not a bool; DimensionMismatch
    otherwise."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise DimensionMismatch(f"{what} must be a positive integer, got {m!r}")
    return m


def build_double_extension(w_dim, k0, theta):
    """Extend an abelian metric space (W, k0) by a k0-skew map theta.

    Basis order: the rotation generator first, the new central direction
    second, then W.  The invariant form pairs the two new directions
    hyperbolically and restricts to k0 on W.  InvalidValue when a binary64
    entry of k0 theta overflows.
    """
    k0f = as_form(k0, _size(w_dim, "w_dim"))
    TH = scalars.read(theta, 2, w_dim)
    k0f, TH = scalars.common_mode(k0f, TH)
    exact, K0 = TH.exact, k0f.array

    with scalars._quiet(exact):
        k0th = scalars.contract("ij,jk->ik", K0, TH)
        skew = k0th + k0th.transpose()
    tol = scalars.tolerance(exact, max(1.0, K0.scale() * TH.scale()))
    bad = np.argwhere(scalars._finite(skew, "k0-skewness residual").beyond(tol))
    if len(bad):
        i, j = bad[0].tolist()
        raise NotAntisymmetric(f"theta is not k0-skew at entries ({i}, {j})")

    n = w_dim + 2
    # [w_i, w_j] = omega[i][j] e0 for i < j, omega = theta^T k0; its
    # denominator is a multiple of theta's.  The tables are filled and
    # scaled entry by entry, so theta, omega and k0 are read as Python ints.
    omega = scalars.contract("ji,jk->ik", TH, K0).wide()
    TH, K0 = TH.wide(), K0.wide()
    c = np.zeros((n, n, n), dtype=TH.num.dtype)
    c[0, 2:, 2:] = TH.num.T * (omega.den // TH.den)  # [e-1, w_j] = theta w_j
    i, j = np.triu_indices(w_dim, 1)
    c[2 + i, 2 + j, 1] = omega.num[i, j]
    # 0 - x keeps a binary64 zero at +0.0
    c[2:, 0] = 0 - c[0, 2:]
    c[2 + j, 2 + i] = 0 - c[2 + i, 2 + j]

    kmat = np.zeros((n, n), dtype=K0.num.dtype)
    kmat[0, 1] = kmat[1, 0] = K0.den  # 1 over the denominator of k0
    kmat[2:, 2:] = K0.num

    half = w_dim // 2
    labels = ["e-1", "e0"]
    if 2 * half == w_dim:
        labels += [f"e{j+1}" for j in range(half)] + [f"f{j+1}" for j in range(half)]
    else:
        labels += [f"w{j}" for j in range(w_dim)]
    L = validate_algebra(scalars.ScaledArray(c, omega.den), labels=tuple(labels))
    return L, validate_form(scalars.ScaledArray(kmat, K0.den))


def build_oscillator(spec):
    """Oscillator algebra for positive frequencies lams.

    W carries the standard inner product on pairs (e_j, f_j) and theta
    rotates each pair with speed lambda_j.
    """
    lams = scalars.read(spec.lams if isinstance(spec, OscillatorSpec) else spec, 1)
    if not lams.num.size:
        raise InvalidLambda("need at least one frequency")
    if (lams.num <= 0).any():
        raise InvalidLambda("frequencies must be positive")
    exact, lams = lams.exact, lams.tuples()
    m = len(lams)
    zero, one = scalars.coerce(0, exact), scalars.coerce(1, exact)
    k0 = np.full((2 * m, 2 * m), zero, dtype=object)
    np.fill_diagonal(k0, one)
    th = np.full((2 * m, 2 * m), zero, dtype=object)
    j = np.arange(m)
    th[m + j, j] = lams  # theta e_j = lam f_j
    th[j, m + j] = [-lam for lam in lams]  # theta f_j = -lam e_j
    return build_double_extension(2 * m, k0.tolist(), th.tolist())


def volume_theta(m=3):
    """Alternating sign tensor; only the three-dimensional one is total."""
    if m != 3:
        raise DimensionMismatch("volume form tensor is provided for dim 3")
    # the sign of the permutation (i, j, k) of (0, 1, 2), 0 on repeats
    return tuple(
        tuple(tuple(Fraction((i - j) * (j - k) * (k - i), 2) for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _alternating_theta(m, theta):
    """theta as a ScaledArray, after the checks of build_two_step: shape,
    alternation (the first violation in index order) and the two
    corank-zero rank tests."""
    _size(m, "dim_v")
    if theta == "volume":
        theta = volume_theta(m)
    T = scalars.read(theta, 3, m)
    tol = scalars.tolerance(T.exact, max(1.0, T.scale()))
    bad = np.argwhere(
        (T + T.transpose(1, 0, 2)).beyond(tol) | (T + T.transpose(0, 2, 1)).beyond(tol)
    )
    if len(bad):
        i, j, k = bad[0].tolist()
        raise NotAntisymmetric(f"theta is not alternating at ({i}, {j}, {k})")
    if linalg.rank(T.transpose(1, 2, 0).reshape(m * m, m)) < m:
        raise RankDeficientTheta("theta has a kernel direction in V")
    if linalg.rank(T.reshape(m * m, m)) < m:
        raise RankDeficientTheta("bracket image does not fill V*")
    return T


def _pairing(m, exact):
    """Duality pairing of V and V*, dim V = m, as a 2m x 2m ScaledArray."""
    return scalars.ScaledArray(np.roll(scalars.eye(2 * m, exact).num, m, axis=0))


def build_two_step(spec):
    """Two-step algebra V + V* with [x, y] = theta(x, y, .) in V*.

    The duality pairing is the invariant form.  Corank-zero demands that
    theta has no kernel vector in V and that the bracket image spans V*;
    otherwise RankDeficientTheta.  The table and the pairing are not
    validated again: the table is antisymmetric as theta passed its
    alternation test, at validate_algebra's own tolerance, and every
    Jacobi term is exactly 0, as every bracket lands in the central V*;
    the pairing is symmetric and nondegenerate as built.
    """
    if not isinstance(spec, TwoStepSpec):
        spec = TwoStepSpec(dim_v=len(scalars.read(spec, 3).num), theta=spec)
    m = spec.dim_v
    T = _alternating_theta(m, spec.theta)
    c = np.zeros((2 * m,) * 3, dtype=T.num.dtype)
    c[:m, :m, m:] = T.num
    labels = tuple([f"v{i+1}" for i in range(m)] + [f"d{i+1}" for i in range(m)])
    return LieAlgebra(scalars.ScaledArray(c, T.den), labels), SymBilinearForm(_pairing(m, T.exact))


def two_step_metric(spec):
    """Metric family on a two-step pair from an invertible map phi on V.

    u = phi on V and the transpose action on V*; the metric pairs the two
    halves through phi.  Isometry classes go by conjugacy of phi, so the
    conjugacy invariants ride along.  theta passes the checks of
    build_two_step; the algebra itself is not rebuilt, since an
    alternating theta always gives a Lie algebra.
    """
    if not isinstance(spec, TwoStepSpec) or spec.phi is None:
        raise DimensionMismatch("expected a TwoStepSpec that carries a phi")
    m = spec.dim_v
    PHI = scalars.read(spec.phi, 2, m)
    if linalg.rank(PHI) < m:
        raise Singular("phi is not invertible")
    T = _alternating_theta(m, spec.theta)
    # u = phi on V and phi^T on V*
    umat = np.zeros((2 * m, 2 * m), dtype=PHI.num.dtype)
    umat[:m, :m] = PHI.num
    umat[m:, m:] = PHI.num.T
    # G = K u for the pairing K, which swaps V and V*: u with the two
    # halves of its rows swapped, in binary64 when either phi or theta is
    _, G = scalars.common_mode(T, scalars.ScaledArray(np.roll(umat, m, axis=0), PHI.den))
    # G = [[0, phi^T], [phi, 0]] is symmetric, and nondegenerate as phi
    # is: in binary64 its singular values are phi's, each twice
    metric = SymBilinearForm(G)
    iso = SymmetricIso(2 * m, scalars.ScaledArray(umat, PHI.den))
    return iso, metric, _invariants(PHI)


def similarity_invariants(phi):
    """Conjugacy invariants of a rational matrix phi: its characteristic
    polynomial (monic, descending powers) and the degrees of the nonunit
    invariant factors of its characteristic matrix, in increasing order.

    phi is read by scalars.read, so its shape and entries raise the typed
    errors of every other nested intake; a binary64 entry is read
    exactly, as Fraction(v).  Over its lcm denominator d, phi = N / d with
    an integer matrix N, and lam I - N = d (lam / d I - phi) has the
    invariant factors of lam I - phi with lam scaled by d, so the same
    degrees.  A Smith form of lam I - N over Q[lam] (see _smith_diagonal)
    gives them, and its diagonal multiplies out to det(lam I - N) = p_N(lam)
    up to a constant, so p_phi(lam) = p_N(d lam) / d**m: the monic p_N with
    coefficient k divided by d**k.
    """
    return _invariants(scalars.read(phi, 2))


def _invariants(PHI):
    """similarity_invariants of a square ScaledArray PHI of either mode;
    a binary64 entry v is read exactly, as Fraction(v)."""
    if not PHI.exact:
        PHI = scalars.to_array([[Fraction(v) for v in row] for row in PHI.num.tolist()], True)
    diagonal = _smith_diagonal(PHI.num.tolist())
    p = [1]
    for q in diagonal:
        p = _pmul(p, q)
    m, lead, d = len(p) - 1, p[-1], PHI.den
    return SimilarityInvariants(
        char_poly=tuple(Fraction(p[m - k], lead * d**k) for k in range(m + 1)),
        # the diagonal divides down the line, so the degrees come sorted
        invariant_factor_degrees=tuple(len(q) - 1 for q in diagonal if len(q) > 1),
    )


# Polynomials over the integers in lam, as lists of coefficients in
# increasing powers with no trailing zero; [] is the zero polynomial.


def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _pcombine(c, x, q, y):
    """c x - q y, for an integer c."""
    qy = _pmul(q, y)
    width = max(len(x), len(qy))
    x, qy = x + [0] * (width - len(x)), qy + [0] * (width - len(qy))
    return _ptrim([c * u - v for u, v in zip(x, qy)])


def _pdiv(a, b):
    """Pseudo-division of a by b != 0 (Knuth, TAOCP vol. 2, 4.6.1,
    Algorithm R): (c, q, r) with c a = q b + r, deg r < deg b and c a
    power of the leading coefficient of b."""
    lb, n = b[-1], len(b)
    if n == 1:
        return lb, a, []
    c, q, r = 1, [0] * max(len(a) - n + 1, 0), a
    while len(r) >= n:
        s, lr = len(r) - n, r[-1]
        c, q = c * lb, [lb * x for x in q]
        q[s] += lr
        r = _ptrim([lb * x - lr * y for x, y in zip(r, [0] * s + b)])
    return c, q, r


def _clear_column(a):
    """Row operations a[r] <- (c a[r] - q a[0]) / g that leave in column 0
    the pseudo-remainder of each a[r][0] by the pivot a[0][0], with g the
    content of the new row; whether every remainder vanishes."""
    clear = True
    for r in range(1, len(a)):
        if a[r][0]:
            c, q, rem = _pdiv(a[r][0], a[0][0])
            row = [_pcombine(c, x, q, y) for x, y in zip(a[r], a[0])]
            g = math.gcd(*(v for x in row for v in x))
            a[r] = [[v // g for v in x] for x in row] if g > 1 else row
            clear = clear and not rem
    return clear


def _smith_diagonal(N):
    """The diagonal of a Smith form of lam I - N over Q[lam], for a square
    integer matrix N as nested lists, each entry an integer polynomial
    equal to its invariant factor up to a nonzero constant.

    Euclid's algorithm on the pseudo-remainders of integer polynomials,
    with every row and column operation invertible over Q[lam]: a nonzero
    entry of least degree becomes the pivot; row operations reduce its
    column to remainders, and a nonzero one is of lower degree and becomes
    the next pivot.  A constant pivot divides everything, so its row and
    column then leave as they are (a Schur complement step).  Otherwise
    the matrix is transposed, which keeps its Smith form, and the pivot's
    former row is reduced the same way; once both are clear, a row holding
    an entry the pivot does not divide is added to the pivot's row and the
    search goes on, else the pivot joins the diagonal.  The least degree
    falls at every repeat, so the loop ends.
    """
    a = [[[-v, 1] if i == j else _ptrim([-v]) for j, v in enumerate(row)] for i, row in enumerate(N)]
    diagonal = []
    while a:
        # ties go to the first entry in row order, so a pivot that is kept
        # stays the pivot
        _, i, j = min((len(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        if not _clear_column(a):
            continue
        if len(p) > 1:
            a = [list(col) for col in zip(*a)]
            if not _clear_column(a):
                continue
            rest = next((row for row in a[1:] if any(_pdiv(x, p)[2] for x in row[1:] if x)), None)
            if rest is not None:
                a[0] = [p] + rest[1:]
                continue
        diagonal.append(p)
        a = [row[1:] for row in a[1:]]
    return diagonal


def build_cotangent_double(L):
    """Coadjoint semidirect sum A* + A with the duality form.

    For a two-step A with corank-zero center this lands back in the
    two-step quadratic class at doubled dimension.  The pairing, symmetric
    and nondegenerate as built, is not validated again.
    """
    n = as_algebra(L).dim
    C = L.array.wide()
    c = np.zeros((2 * n,) * 3, dtype=C.num.dtype)
    # A occupies indices n..2n-1, the duals 0..n-1
    c[n:, n:, n:] = C.num
    # [x, delta^m] = - sum_j c[x][j][m] delta^j, and [delta^m, x] its
    # negative; 0 - x keeps a binary64 zero at +0.0
    c[n:, :n, :n] = 0 - C.num.transpose(0, 2, 1)
    c[:n, n:] = 0 - c[n:, :n].transpose(1, 0, 2)
    labels = tuple([f"d{l}" for l in L.labels] + list(L.labels))
    Ld = validate_algebra(scalars.ScaledArray(c, C.den), labels=labels)
    kf = SymBilinearForm(_pairing(n, L.exact))
    rep = check_ad_invariance(Ld, kf)
    if not rep.invariant:
        raise NoSolution("duality pairing failed ad-invariance")
    return Ld, kf


# ---------------------------------------------------------------------------
# graded derivation pairs on three-step algebras


def _extend_basis(inner, vectors):
    """The rows of vectors, in order, that each lie outside the span of the
    rows of inner and of the rows taken before them."""
    taken = []
    for i in range(len(vectors.num)):
        if not linalg.in_span(scalars.stack([inner, vectors[taken]]), vectors[i]):
            taken.append(i)
    return vectors[taken]


def build_f_derivation(L, k=None, a0=Fraction(4, 9)):
    """Derivation pair (f, d) acting by scalars on a grading adapted to
    the lower central series of a three-step nilpotent algebra.

    The grading is G0 = C^3, G1 a complement of C^3 in C^2, G2 a
    complement of C^2.  f scales the grades by (a0, 4/9, 2/3) and d by
    (alpha0, alpha1, 1/3); the derivation identity

        d[x, y] = [d x, f y] + [f x, d y]

    turns into one linear constraint alpha_r = a_q alpha_p + a_p alpha_q
    per grade triple (p, q, r) in which a graded bracket component occurs,
    which the builder collects and solves.  The product x y = d^{-1}[f x, d y]
    is then left-symmetric with zero curvature, and when an ad-invariant
    k is supplied the metric <x, y> = k(d x, d y) rides along.  A NaN or
    infinite a0 raises InvalidValue.
    """
    scalars.decide_mode([a0])
    rep = structure_report(L)
    if rep.nilpotency_class is None:
        raise WrongClass("algebra is not nilpotent")
    if rep.nilpotency_class != 3:
        raise WrongClass(
            f"need nilpotency class 3, found {rep.nilpotency_class}"
        )
    exact = L.exact
    n = L.dim
    C = L.array
    # C^2 and C^3 of the lower central series C^1, C^2, C^3, C^4 = 0
    c2, c3 = (scalars.to_array(term, exact) for term in rep.lower_central[1:3])

    g1 = _extend_basis(c3, c2)
    g2 = _extend_basis(scalars.stack([c3, g1]), scalars.eye(n, exact))
    grading = (rep.lower_central[2], g1.tuples(), g2.tuples())
    sizes = (len(c3.num), len(g1.num), len(g2.num))
    grade = np.repeat([0, 1, 2], sizes)

    X = scalars.stack([c3, g1, g2])  # rows are the graded basis
    B = X.transpose()
    Binv = linalg.inverse(B)
    fa = tuple(scalars.coerce(v, exact) for v in (a0, Fraction(4, 9), Fraction(2, 3)))
    # coords[a, b, r]: coordinate r of [x_a, x_b] in the graded basis x
    coords = scalars.contract("mk,ijk->ijm", Binv, brackets(L, X, X))

    # constraints alpha_r = a_q alpha_p + a_p alpha_q, one per grade triple
    # (p <= q, r) with a nonzero bracket component, as rows
    # [alpha0, alpha1 | rhs].  They take the exact constants in both modes:
    # only which triples occur depends on L.  A row depends on the triple
    # alone, and the reduced form ignores order and repeats.
    fq = (Fraction(a0), Fraction(4, 9), Fraction(2, 3))
    a, b, r = np.nonzero((coords.num != 0) & (grade[:, None, None] <= grade[None, :, None]))
    rows = []
    for p, q, r_ in set(zip(grade[a].tolist(), grade[b].tolist(), grade[r].tolist())):
        coef = [Fraction(0)] * 3  # of alpha0, alpha1, alpha2 = 1/3
        coef[r_] += 1
        coef[p] -= fq[q]
        coef[q] -= fq[p]
        rows.append([coef[0], coef[1], -coef[2] / 3])

    # a slot the reduced rows leave open keeps the default 4/9
    alphas = [Fraction(4, 9), Fraction(4, 9)]
    for row in linalg.rref(scalars.to_array(rows, True)).tuples():
        lead = next(j for j in range(3) if row[j] != 0)
        if lead == 2:
            raise NoSolution("graded constraints are inconsistent")
        if lead == 1 or row[1] == 0:
            alphas[lead] = row[2]
    da = tuple(scalars.coerce(v, exact) for v in (*alphas, Fraction(1, 3)))
    if 0 in da:
        raise NoSolution("derivation diagonal must be invertible")

    def op_matrix(diag):
        # acts as diag[g] on the grading summand g: B diag B^{-1}
        mid = scalars.to_array(np.diag(np.repeat(np.array(diag, dtype=object), sizes)), exact)
        return scalars.contract("ij,jk->ik", scalars.contract("ij,jk->ik", B, mid), Binv)

    D = op_matrix(da)
    Fm = op_matrix(fa)
    # rows D e_i and F e_i
    DT, FT = D.transpose(), Fm.transpose()

    # the derivation identity on all basis pairs, its slack from the sizes
    # of its terms
    fd = brackets(L, FT, DT)
    defect = scalars.contract("mk,ijk->ijm", D, C) - brackets(L, DT, FT) - fd
    sizes = D.scale() * C.scale() * (1 + 2 * Fm.scale())
    if defect.beyond(scalars.tolerance(exact, max(1.0, sizes))).any():
        raise NoSolution("derivation identity fails after solving")

    # f must be a homomorphism up to the center: every F[e_i, e_j] -
    # [F e_i, F e_j] lies in it (the center rows are a basis)
    hom = scalars.contract("mk,ijk->ijm", Fm, C) - brackets(L, FT, FT)
    center = scalars.to_array(rep.center, exact)
    if linalg.rank(scalars.stack([center, hom.reshape(n * n, n)])) > len(center.num):
        raise NoSolution("f fails the homomorphism-mod-center property")

    gamma = scalars.contract("mk,ijk->ijm", linalg.inverse(D), fd)

    spec = FDerivationSpec(
        grading=grading,
        d_matrix=D.tuples(),
        f_matrix=Fm.tuples(),
        d_diagonal=da,
        f_diagonal=fa,
    )
    metric = None
    if k is not None:
        kf = as_form(k, n)
        if not check_ad_invariance(L, kf).invariant:
            raise NoSolution("supplied form is not ad-invariant")
        kf, D = scalars.common_mode(kf, D)  # D is in L's mode
        gm = scalars.contract("ij,jk->ik", scalars.contract("ji,jk->ik", D, kf.array), D)
        metric = validate_form(gm)
    product = ProductTensor(L, gamma, metric)
    return spec, product, metric


# ---------------------------------------------------------------------------
# oscillator closed forms


class OscillatorJacobiForms:
    """Closed-form variation fields for oscillator metrics.

    Initial data: y(0) = 0 and y'(0) with amplitude r_j on each e_j
    direction (the f_j and central directions start at the uniquely
    compatible values).  Conjugate times sit at 2 pi k / (x_{-1}
    lambda_j); the halved times pi k / (x_{-1} lambda_j) for odd k are
    exposed separately because only the full periods survive scrutiny,
    and scans are expected to reject the halved family.
    """

    def __init__(self, lams, x0, r):
        self.lams = tuple(scalars.read(lams, 1, exact=False).num.tolist())
        m = len(self.lams)
        self.x0 = tuple(scalars.read(x0, 1, 2 * m + 2, False).num.tolist())
        self.r = tuple(scalars.read(r, 1, m, False).num.tolist())
        self.xm1 = self.x0[0]
        if self.xm1 == 0:
            raise ZeroXMinusOne("seed has no rotation component")
        self.omegas = tuple(self.xm1 * l for l in self.lams)

    @property
    def ydot0(self):
        m = len(self.lams)
        out = [0.0] * (2 * m + 2)
        for j, rj in enumerate(self.r):
            out[2 + j] = rj
        out[1] = -sum(
            rj * self.x0[2 + j] for j, rj in enumerate(self.r)
        ) / self.xm1
        return tuple(out)

    def __call__(self, t):
        m = len(self.lams)
        y = [0.0] * (2 * m + 2)
        y0 = 0.0
        for j, (rj, om, lam) in enumerate(zip(self.r, self.omegas, self.lams)):
            s, cdef = math.sin(om * t), 1.0 - math.cos(om * t)
            y[2 + j] = rj / om * s
            y[2 + m + j] = -rj / om * cdef
            xj = self.x0[2 + j]
            xcj = self.x0[2 + m + j]
            y0 += rj / (self.xm1**2 * lam) * (xcj * cdef - xj * s)
        y[1] = y0
        return tuple(y)

    def derivative(self, t):
        m = len(self.lams)
        yd = [0.0] * (2 * m + 2)
        y0d = 0.0
        for j, (rj, om, lam) in enumerate(zip(self.r, self.omegas, self.lams)):
            s, c = math.sin(om * t), math.cos(om * t)
            yd[2 + j] = rj * c
            yd[2 + m + j] = -rj * s
            xj = self.x0[2 + j]
            xcj = self.x0[2 + m + j]
            y0d += rj / self.xm1 * (xcj * s - xj * c)
        yd[1] = y0d
        return tuple(yd)

    def conjugate_times(self, window):
        return self._multiples(window, 2)

    def halved_times(self, window):
        return self._multiples(window, 1)

    def _multiples(self, window, first):
        """The times j pi / |omega| in the window (a, b], over every omega,
        for j = first, first + 2, ...: even j give the conjugate times,
        odd j the halved ones."""
        a, b = window
        out = set()
        for om in self.omegas:
            w = abs(om)
            j = first
            while (t := j * math.pi / w) <= b:
                if t > a:
                    out.add(t)
                j += 2
        return tuple(sorted(out))


def oscillator_closed_forms(lams, x0, r):
    return OscillatorJacobiForms(lams, x0, r)
