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
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, scalars
from .algebra import LieAlgebra, bracket, structure_report, validate_algebra
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
from .forms import SymBilinearForm, SymmetricIso, check_ad_invariance, validate_form

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


@dataclass(frozen=True)
class OscillatorSpec:
    lams: tuple


@dataclass(frozen=True)
class TwoStepSpec:
    dim_v: int
    theta: tuple  # theta[i][j][k], fully antisymmetric
    phi: tuple | None = None


@dataclass(frozen=True)
class FDerivationSpec:
    grading: tuple  # three bases (G0, G1, G2)
    d_matrix: tuple
    f_matrix: tuple
    d_diagonal: tuple  # (alpha0, alpha1, alpha2)
    f_diagonal: tuple  # (a0, a1, a2)


@dataclass(frozen=True)
class SimilarityInvariants:
    char_poly: tuple  # monic, descending powers
    invariant_factor_degrees: tuple


def build_double_extension(w_dim, k0, theta):
    """Extend an abelian metric space (W, k0) by a k0-skew map theta.

    Basis order: the rotation generator first, the new central direction
    second, then W.  The invariant form pairs the two new directions
    hyperbolically and restricts to k0 on W.
    """
    k0f = k0 if isinstance(k0, SymBilinearForm) else validate_form(k0)
    if k0f.dim != w_dim:
        raise DimensionMismatch("k0 size does not match W dimension")
    exact = k0f.exact and scalars.decide_mode(scalars.flatten(theta))
    th = scalars.coerce_matrix(theta, exact)
    if len(th) != w_dim or any(len(r) != w_dim for r in th):
        raise DimensionMismatch("theta size does not match W dimension")
    k0m = k0f.matrix if exact else k0f.to_float().matrix

    k0th = linalg.mat_mul(k0m, th)
    scale = max(
        1.0, float(scalars.max_abs(k0m)) * float(scalars.max_abs(th))
    )
    tol = scalars.tolerance(exact, scale)
    for i in range(w_dim):
        for j in range(w_dim):
            if abs(k0th[i][j] + k0th[j][i]) > tol:
                raise NotAntisymmetric(
                    f"theta is not k0-skew at entries ({i}, {j})"
                )

    n = w_dim + 2
    zero = scalars.coerce(0, exact)
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]

    def setb(i, j, vec):
        c[i][j] = list(vec)
        c[j][i] = [-v for v in vec]

    for j in range(w_dim):
        col = [th[i][j] for i in range(w_dim)]
        vec = [zero, zero] + col
        setb(0, 2 + j, vec)
    omega = linalg.mat_mul(linalg.transpose(th), k0m)
    for i in range(w_dim):
        for j in range(i + 1, w_dim):
            vec = [zero] * n
            vec[1] = omega[i][j]
            setb(2 + i, 2 + j, vec)

    kmat = [[zero] * n for _ in range(n)]
    one = scalars.coerce(1, exact)
    kmat[0][1] = one
    kmat[1][0] = one
    for i in range(w_dim):
        for j in range(w_dim):
            kmat[2 + i][2 + j] = k0m[i][j]

    half = w_dim // 2
    labels = ["e-1", "e0"]
    if 2 * half == w_dim:
        labels += [f"e{j+1}" for j in range(half)] + [f"f{j+1}" for j in range(half)]
    else:
        labels += [f"w{j}" for j in range(w_dim)]
    L = validate_algebra(c, labels=tuple(labels))
    return L, validate_form(kmat)


def build_oscillator(spec):
    """Oscillator algebra for positive frequencies lams.

    W carries the standard inner product on pairs (e_j, f_j) and theta
    rotates each pair with speed lambda_j.
    """
    lams = spec.lams if isinstance(spec, OscillatorSpec) else tuple(spec)
    if not lams:
        raise InvalidLambda("need at least one frequency")
    exact = scalars.decide_mode(lams)
    lams = scalars.coerce_vector(lams, exact)
    if any(l <= 0 for l in lams):
        raise InvalidLambda("frequencies must be positive")
    m = len(lams)
    w = 2 * m
    zero = scalars.coerce(0, exact)
    one = scalars.coerce(1, exact)
    k0 = [[one if i == j else zero for j in range(w)] for i in range(w)]
    th = [[zero] * w for _ in range(w)]
    for j, lam in enumerate(lams):
        th[m + j][j] = lam  # theta e_j = lam f_j
        th[j][m + j] = -lam  # theta f_j = -lam e_j
    return build_double_extension(w, k0, th)


def volume_theta(m=3):
    """Alternating sign tensor; only the three-dimensional one is total."""
    if m != 3:
        raise DimensionMismatch("volume form tensor is provided for dim 3")
    th = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k), s in (
        ((0, 1, 2), 1),
        ((1, 2, 0), 1),
        ((2, 0, 1), 1),
        ((0, 2, 1), -1),
        ((2, 1, 0), -1),
        ((1, 0, 2), -1),
    ):
        th[i][j][k] = Fraction(s)
    return tuple(tuple(tuple(row) for row in plane) for plane in th)


def build_two_step(spec):
    """Two-step algebra V + V* with [x, y] = theta(x, y, .) in V*.

    The duality pairing is the invariant form.  Corank-zero demands that
    theta has no kernel vector in V and that the bracket image spans V*;
    otherwise RankDeficientTheta.
    """
    if not isinstance(spec, TwoStepSpec):
        spec = TwoStepSpec(dim_v=len(spec), theta=spec)
    m = spec.dim_v
    th = spec.theta
    if th == "volume":
        th = volume_theta(m)
    exact = scalars.decide_mode(scalars.flatten(th))
    th = tuple(
        tuple(scalars.coerce_vector(row, exact) for row in plane) for plane in th
    )
    if len(th) != m or any(len(p) != m or any(len(r) != m for r in p) for p in th):
        raise DimensionMismatch("theta must be dim_v^3")
    tol = scalars.tolerance(exact, max(1.0, float(scalars.max_abs(th))))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if abs(th[i][j][k] + th[j][i][k]) > tol or abs(
                    th[i][j][k] + th[i][k][j]
                ) > tol:
                    raise NotAntisymmetric(
                        f"theta is not alternating at ({i}, {j}, {k})"
                    )

    rows_kernel = [
        [th[i][j][k] for i in range(m)] for j in range(m) for k in range(m)
    ]
    if linalg.rank(rows_kernel, exact) < m:
        raise RankDeficientTheta("theta has a kernel direction in V")
    image_rows = [
        [th[i][j][k] for k in range(m)] for i in range(m) for j in range(m)
    ]
    if linalg.rank(image_rows, exact) < m:
        raise RankDeficientTheta("bracket image does not fill V*")

    n = 2 * m
    zero = scalars.coerce(0, exact)
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c[i][j][m + k] = th[i][j][k]
    one = scalars.coerce(1, exact)
    kmat = [[zero] * n for _ in range(n)]
    for i in range(m):
        kmat[i][m + i] = one
        kmat[m + i][i] = one
    labels = tuple([f"v{i+1}" for i in range(m)] + [f"d{i+1}" for i in range(m)])
    L = validate_algebra(c, labels=labels)
    return L, validate_form(kmat)


def two_step_metric(spec):
    """Metric family on a two-step pair from an invertible map phi on V.

    u = phi on V and the transpose action on V*; the metric pairs the two
    halves through phi.  Isometry classes go by conjugacy of phi, so the
    conjugacy invariants ride along.
    """
    if spec.phi is None:
        raise DimensionMismatch("spec carries no phi")
    m = spec.dim_v
    exact = scalars.decide_mode(scalars.flatten(spec.phi))
    phi = scalars.coerce_matrix(spec.phi, exact)
    if len(phi) != m or any(len(r) != m for r in phi):
        raise DimensionMismatch("phi must act on V")
    try:
        linalg.inverse(phi, exact)
    except Singular:
        raise Singular("phi is not invertible") from None
    n = 2 * m
    zero = scalars.coerce(0, exact)
    umat = [[zero] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            umat[i][j] = phi[i][j]
            umat[m + i][m + j] = phi[j][i]
    _, kform = build_two_step(TwoStepSpec(spec.dim_v, spec.theta))
    if kform.exact != exact:
        kform = kform.to_float()
    gmat = linalg.mat_mul(kform.matrix, umat)
    iso = SymmetricIso(n, tuple(tuple(r) for r in umat), exact)
    metric = validate_form(gmat)
    return iso, metric, similarity_invariants(phi)


def similarity_invariants(phi):
    """Conjugacy invariants of a rational matrix: characteristic
    polynomial plus the degrees of the nonunit invariant factors of the
    characteristic matrix.  sympy is imported here, on first use, since
    nothing else needs it."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    lam = sympy.Symbol("lam")
    m = len(phi)
    sm = sympy.Matrix(
        [[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator) for v in row] for row in phi]
    )
    charpoly = sm.charpoly(lam).all_coeffs()
    cp = tuple(Fraction(int(c.p), int(c.q)) for c in charpoly)

    a = lam * sympy.eye(m) - sm
    snf = smith_normal_form(a, domain=sympy.QQ[lam])
    degs = []
    for i in range(m):
        p = sympy.Poly(snf[i, i], lam)
        if p.degree() >= 1:
            degs.append(int(p.degree()))
    return SimilarityInvariants(char_poly=cp, invariant_factor_degrees=tuple(sorted(degs)))


def build_cotangent_double(L):
    """Coadjoint semidirect sum A* + A with the duality form.

    For a two-step A with corank-zero center this lands back in the
    two-step quadratic class at doubled dimension.
    """
    n = L.dim
    exact = L.exact
    zero = scalars.coerce(0, exact)
    nn = 2 * n
    c = [[[zero] * nn for _ in range(nn)] for _ in range(nn)]
    # A part occupies indices n..2n-1, duals 0..n-1
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if L.c[i][j][k] != 0:
                    c[n + i][n + j][n + k] = L.c[i][j][k]
    # [x, delta^m] = - sum_j c[x][j][m] delta^j
    for i in range(n):
        for m_ in range(n):
            vec = [zero] * nn
            for j in range(n):
                if L.c[i][j][m_] != 0:
                    vec[j] = -L.c[i][j][m_]
            c[n + i][m_] = vec
            c[m_][n + i] = [-v for v in vec]
    one = scalars.coerce(1, exact)
    kmat = [[zero] * nn for _ in range(nn)]
    for i in range(n):
        kmat[i][n + i] = one
        kmat[n + i][i] = one
    labels = tuple([f"d{l}" for l in L.labels] + list(L.labels))
    Ld = validate_algebra(c, labels=labels)
    kf = validate_form(kmat)
    rep = check_ad_invariance(Ld, kf)
    if not rep.invariant:
        raise NoSolution("duality pairing failed ad-invariance")
    return Ld, kf


# ---------------------------------------------------------------------------
# graded derivation pairs on three-step algebras


def _extend_basis(exact, inner, vectors):
    """Grow a basis of span(inner) by vectors, returning the added ones."""
    base = list(inner)
    added = []
    r = linalg.rank(base, exact) if base else 0
    for v in vectors:
        cand = base + [list(v)]
        rr = linalg.rank(cand, exact)
        if rr > r:
            base = cand
            added.append(tuple(v))
            r = rr
    return added


def build_f_derivation(L, k=None, a0=Fraction(4, 9)):
    """Derivation pair (f, d) acting by scalars on a grading adapted to
    the lower central series of a three-step nilpotent algebra.

    The grading is G0 = C^3, G1 a complement of C^3 in C^2, G2 a
    complement of C^2.  f scales the grades by (a0, 4/9, 2/3) and d by
    (alpha0, alpha1, 1/3); the derivation identity

        d[x, y] = [d x, f y] + [f x, d y]

    turns into one linear constraint per graded bracket component, which
    the builder collects and solves.  The product x y = d^{-1}[f x, d y]
    is then left-symmetric with zero curvature, and when an ad-invariant
    k is supplied the metric <x, y> = k(d x, d y) rides along.
    """
    rep = structure_report(L)
    if rep.nilpotency_class is None:
        raise WrongClass("algebra is not nilpotent")
    if rep.nilpotency_class != 3:
        raise WrongClass(
            f"need nilpotency class 3, found {rep.nilpotency_class}"
        )
    exact = L.exact
    n = L.dim
    series = rep.lower_central  # C^1, C^2, C^3, C^4 = 0
    c2, c3 = series[1], series[2]

    g0 = [tuple(v) for v in c3]
    g1 = _extend_basis(exact, g0, c2)
    g2 = _extend_basis(
        exact, g0 + g1, [L.basis_vector(i) for i in range(n)]
    )
    grading = (tuple(g0), tuple(g1), tuple(g2))

    cols = [list(v) for v in g0 + g1 + g2]
    B = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))  # columns are basis
    Binv = linalg.inverse(B, exact)
    sizes = (len(g0), len(g1), len(g2))

    def grade_parts(vec):
        coords = linalg.mat_vec(Binv, vec)
        parts = []
        pos = 0
        for s in sizes:
            parts.append(tuple(coords[pos : pos + s]))
            pos += s
        return parts

    a2 = scalars.coerce(Fraction(2, 3), exact)
    a1 = scalars.coerce(Fraction(4, 9), exact)
    a0c = scalars.coerce(a0, exact)
    alpha2 = scalars.coerce(Fraction(1, 3), exact)
    fa = (a0c, a1, a2)

    # constraints: alpha_r = a_q alpha_p + a_p alpha_q for each graded
    # bracket component; unknowns alpha0, alpha1
    rows = []
    rhs = []
    graded_bases = (g0, g1, g2)
    zero = scalars.coerce(0, exact)
    one = scalars.coerce(1, exact)
    for p in range(3):
        for q in range(p, 3):
            for v in graded_bases[p]:
                for w in graded_bases[q]:
                    br = bracket(L, v, w)
                    if all(x == 0 for x in br):
                        continue
                    parts = grade_parts(br)
                    for r_ in range(3):
                        if all(x == 0 for x in parts[r_]):
                            continue
                        # alpha_r = a_q alpha_p + a_p alpha_q, split into
                        # unknown columns (alpha0, alpha1) and constants
                        row = [zero, zero]
                        const = zero
                        for idx, coef in ((r_, one), (p, -fa[q]), (q, -fa[p])):
                            if idx == 2:
                                const += coef * alpha2
                            else:
                                row[idx] = row[idx] + coef
                        rows.append(row)
                        rhs.append(-const)

    unknowns = [None, None]
    if rows:
        aug = [list(r) + [b] for r, b in zip(rows, rhs)]
        red, _ = _rref_rows(aug, exact)
        sol = _solve_two_unknowns(red, exact)
        if sol is None:
            raise NoSolution("graded constraints are inconsistent")
        unknowns = list(sol)
    default = scalars.coerce(Fraction(4, 9), exact)
    alpha0 = unknowns[0] if unknowns[0] is not None else default
    alpha1 = unknowns[1] if unknowns[1] is not None else default
    if alpha0 == 0 or alpha1 == 0 or alpha2 == 0:
        raise NoSolution("derivation diagonal must be invertible")
    da = (alpha0, alpha1, alpha2)

    def op_matrix(diag):
        # acts as diag[g] on the grading summand g; D = B diag B^{-1}
        blocks = []
        for gi, s in enumerate(sizes):
            blocks.extend([diag[gi]] * s)
        d_mid = tuple(
            tuple(
                blocks[i] if i == j else scalars.coerce(0, exact)
                for j in range(n)
            )
            for i in range(n)
        )
        return linalg.mat_mul(linalg.mat_mul(B, d_mid), Binv)

    D = op_matrix(da)
    Fm = op_matrix(fa)

    # verify the derivation identity exactly on all basis pairs
    tolv = scalars.tolerance(exact, 1.0)
    for i in range(n):
        for j in range(n):
            br = bracket(L, L.basis_vector(i), L.basis_vector(j))
            lhs = linalg.mat_vec(D, br)
            r1 = bracket(
                L,
                linalg.mat_vec(D, L.basis_vector(i)),
                linalg.mat_vec(Fm, L.basis_vector(j)),
            )
            r2 = bracket(
                L,
                linalg.mat_vec(Fm, L.basis_vector(i)),
                linalg.mat_vec(D, L.basis_vector(j)),
            )
            if any(abs(a - b - c_) > tolv for a, b, c_ in zip(lhs, r1, r2)):
                raise NoSolution("derivation identity fails after solving")

    # f must be a homomorphism up to the center
    center = rep.center
    for i in range(n):
        for j in range(i + 1, n):
            defect = tuple(
                a - b
                for a, b in zip(
                    linalg.mat_vec(Fm, bracket(L, L.basis_vector(i), L.basis_vector(j))),
                    bracket(
                        L,
                        linalg.mat_vec(Fm, L.basis_vector(i)),
                        linalg.mat_vec(Fm, L.basis_vector(j)),
                    ),
                )
            )
            if not linalg.in_span(center, defect, exact):
                raise NoSolution("f fails the homomorphism-mod-center property")

    Dinv = linalg.inverse(D, exact)
    gamma = []
    for i in range(n):
        fei = linalg.mat_vec(Fm, L.basis_vector(i))
        plane = []
        for j in range(n):
            dej = linalg.mat_vec(D, L.basis_vector(j))
            plane.append(tuple(linalg.mat_vec(Dinv, bracket(L, fei, dej))))
        gamma.append(tuple(plane))

    spec = FDerivationSpec(
        grading=grading,
        d_matrix=tuple(tuple(r) for r in D),
        f_matrix=tuple(tuple(r) for r in Fm),
        d_diagonal=da,
        f_diagonal=fa,
    )
    metric = None
    if k is not None:
        kf = k if isinstance(k, SymBilinearForm) else validate_form(k)
        inv_rep = check_ad_invariance(L, kf)
        if not inv_rep.invariant:
            raise NoSolution("supplied form is not ad-invariant")
        gm = linalg.mat_mul(
            linalg.mat_mul(linalg.transpose(D), kf.matrix), D
        )
        metric = validate_form(gm)
    product = ProductTensor(L, tuple(gamma), metric, exact)
    return spec, product, metric


def _rref_rows(aug, exact):
    if exact:
        rows = [[scalars.as_exact(v) for v in r] for r in aug]
        from .linalg import _exact_rref

        return _exact_rref(rows)
    import numpy as np

    arr = np.asarray(aug, dtype=float)
    # small fixed-size elimination with partial pivoting
    rows = arr.tolist()
    pivots = []
    r = 0
    ncols = len(rows[0])
    for c_ in range(ncols):
        p = max(range(r, len(rows)), key=lambda i: abs(rows[i][c_]), default=None)
        if p is None or abs(rows[p][c_]) < 1e-12:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        fac = rows[r][c_]
        rows[r] = [v / fac for v in rows[r]]
        for i in range(len(rows)):
            if i != r and abs(rows[i][c_]) > 0:
                f = rows[i][c_]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c_)
        r += 1
        if r == len(rows):
            break
    keep = [row for row in rows if any(abs(v) > 1e-12 for v in row)]
    return tuple(tuple(row) for row in keep), pivots


def _solve_two_unknowns(red, exact):
    """Read (alpha0, alpha1) off reduced rows of [c0 c1 | rhs]."""
    vals = [None, None]
    for row in red:
        lead = next((j for j in range(2) if row[j] != 0), None)
        if lead is None:
            if row[2] != 0:
                return None
            continue
        if lead == 1:
            vals[1] = row[2] / row[1]
    for row in red:
        lead = next((j for j in range(2) if row[j] != 0), None)
        if lead == 0:
            rhs = row[2]
            if row[1] != 0:
                if vals[1] is None:
                    continue
                rhs = rhs - row[1] * vals[1]
            vals[0] = rhs / row[0]
    return tuple(vals)


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
        self.lams = tuple(float(v) for v in lams)
        m = len(self.lams)
        if len(x0) != 2 * m + 2:
            raise DimensionMismatch(
                f"seed length {len(x0)} for {2 * m + 2}-dimensional algebra"
            )
        if len(r) != m:
            raise DimensionMismatch("one amplitude per frequency expected")
        self.x0 = tuple(float(v) for v in x0)
        self.r = tuple(float(v) for v in r)
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
        a, b = window
        out = set()
        for om in self.omegas:
            w = abs(om)
            k = 1
            while 2 * math.pi * k / w <= b:
                t = 2 * math.pi * k / w
                if t > a:
                    out.add(t)
                k += 1
        return tuple(sorted(out))

    def halved_times(self, window):
        a, b = window
        out = set()
        for om in self.omegas:
            w = abs(om)
            k = 1
            while math.pi * k / w <= b:
                if k % 2 == 1:
                    t = math.pi * k / w
                    if t > a:
                        out.add(t)
                k += 2
        return tuple(sorted(out))


def oscillator_closed_forms(lams, x0, r):
    return OscillatorJacobiForms(lams, x0, r)
