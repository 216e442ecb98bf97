"""Property tests for the tensor kernels on the families the builders make.

Inputs are drawn by hypothesis under a fixed, derandomized profile:
double extensions by a random skew theta, two-step algebras from a random
alternating theta, and cotangent doubles of a-d(d), each with the
invariant form, a random symmetric metric, or (two-step) a flat metric
from an invertible phi.  The references below are plain loops over
Fractions, independent of the contractions they check.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import _rowmath

from quadlie import (
    ProductTensor,
    TwoStepSpec,
    biinvariant_connection,
    build_cotangent_double,
    build_double_extension,
    build_f_derivation,
    build_two_step,
    catalog,
    check_ad_invariance,
    curvature,
    flatness_report,
    levi_civita,
    linalg,
    metric_from_iso,
    product_from_iso,
    product_report,
    scalars,
    structure_report,
    two_step_metric,
    validate_algebra,
    validate_form,
)
from quadlie.algebra import StructureReport, _bracket_span
from quadlie.errors import (
    AntisymmetryViolation,
    Degenerate,
    JacobiViolation,
    NotAntisymmetric,
    RankDeficientTheta,
)

settings.register_profile(
    "quadlie-kernels",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
PROFILE = settings.get_profile("quadlie-kernels")

small = st.integers(-3, 3)


@st.composite
def double_extensions(draw):
    w = draw(st.integers(2, 4))
    signs = [draw(st.sampled_from((1, -1))) for _ in range(w)]
    k0 = [[F(signs[i]) if i == j else F(0) for j in range(w)] for i in range(w)]
    skew = [[F(0)] * w for _ in range(w)]
    for i in range(w):
        for j in range(i + 1, w):
            v = F(draw(small), draw(st.integers(1, 2)))
            skew[i][j], skew[j][i] = v, -v
    # k0 is its own inverse, so theta = k0 skew is k0-skew
    theta = _rowmath.mat_mul(k0, skew)
    return build_double_extension(w, k0, theta)


def alternating(draw, m, entries):
    """An alternating theta on V of dimension m, one draw from entries per
    triple i < j < k."""
    theta = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                v = draw(entries)
                for (a, b, c), s in (
                    ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                    ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
                ):
                    theta[a][b][c] = s * v
    return theta


@st.composite
def two_step_algebras(draw, with_phi=False):
    m = draw(st.sampled_from((3, 5)))
    theta = alternating(draw, m, small.map(F))
    try:
        L, k = build_two_step(TwoStepSpec(m, theta))
    except RankDeficientTheta:
        assume(False)
    if not with_phi:
        return L, k
    phi = [[F(draw(small)) for _ in range(m)] for _ in range(m)]
    assume(linalg.det(scalars.to_array(phi, True)) != 0)
    _iso, metric, _inv = two_step_metric(TwoStepSpec(m, theta, phi))
    return L, metric


@st.composite
def cotangent_doubles(draw):
    base = catalog(f"a-d({draw(st.integers(1, 3))})").algebra
    return build_cotangent_double(base)


def random_metric(draw, n):
    g = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = F(draw(st.sampled_from((1, -1, 2))))
        for j in range(i + 1, n):
            if draw(st.booleans()):
                g[i][j] = g[j][i] = F(draw(small), 2)
    try:
        return validate_form(g)
    except Degenerate:
        assume(False)


@st.composite
def metric_pairs(draw, family):
    L, k = draw(family)
    metric = k if draw(st.booleans()) else random_metric(draw, L.dim)
    return L, metric


FAMILIES = [
    pytest.param(double_extensions(), 25, id="double-extension"),
    pytest.param(two_step_algebras(), 10, id="two-step"),
    pytest.param(two_step_algebras(with_phi=True), 10, id="two-step-phi"),
    pytest.param(cotangent_doubles(), 4, id="cotangent-double"),
]


def reference_curvature(c, gam):
    """R[i][j][k][l] = sum_m c_ijm g_mkl - g_jkm g_iml + g_ikm g_jml by plain
    loops, over integers: both tables are scaled by one denominator d, so
    each sum is an integer over d^2."""
    n = len(c)
    d = math.lcm(*(v.denominator for t in (c, gam) for p in t for r in p for v in r))
    ci = [[[int(v * d) for v in r] for r in p] for p in c]
    gi = [[[int(v * d) for v in r] for r in p] for p in gam]
    return tuple(
        tuple(
            tuple(
                tuple(
                    F(
                        sum(
                            ci[i][j][m] * gi[m][k][l]
                            - gi[j][k][m] * gi[i][m][l]
                            + gi[i][k][m] * gi[j][m][l]
                            for m in range(n)
                        ),
                        d * d,
                    )
                    for l in range(n)
                )
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_levi_civita_is_torsion_free_and_compatible(family, examples):
    @settings(PROFILE, max_examples=examples)
    @given(metric_pairs(family))
    def check(pair):
        L, g = pair
        P = levi_civita(L, g)
        n, c, gam, G = L.dim, L.c, P.gamma, g.matrix
        assert P.exact and all(isinstance(v, F) for plane in gam for row in plane for v in row)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert gam[i][j][k] - gam[j][i][k] == c[i][j][k]
                for l in range(n):
                    skew = sum(
                        (gam[i][j][m] * G[m][l] + G[j][m] * gam[i][l][m] for m in range(n)),
                        F(0),
                    )
                    assert skew == 0
        rep = product_report(P)
        assert rep.torsion_ok is True and rep.skew_ok is True

    check()


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_curvature_matches_plain_loops(family, examples):
    @settings(PROFILE, max_examples=min(examples, 6))
    @given(metric_pairs(family))
    def check(pair):
        L, g = pair
        P = levi_civita(L, g)
        R = curvature(P)
        assert R.r == reference_curvature(L.c, P.gamma)
        assert all(type(v) is F for a in R.r for b in a for row in b for v in row)
        rep = product_report(P)
        assert rep.max_residual == R.max_abs()
        assert rep.flat == (R.max_abs() == 0)

    check()


def inverse_of_twice_g_route(L, g):
    """gamma as levi_civita once took it in binary64: the three right-hand
    sides, then the inverse of 2 G."""
    C, G = L.array, g.array
    rhs = (
        scalars.contract("ijk,km->ijm", C, G)
        - scalars.contract("jmk,ki->ijm", C, G)
        + scalars.contract("mik,kj->ijm", C, G)
    )
    return scalars.contract("mk,ijk->ijm", linalg.inverse(G + G), rhs).tuples()


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_binary64_gamma_halves_the_forms_inverse_bit_for_bit(family, examples):
    # halving is exact in binary64 and LU with partial pivoting commutes
    # with a power-of-two scale, so the form's kept inverse over 2 gives
    # the route's gamma entry for entry, whatever the metric's scale
    @settings(PROFILE, max_examples=examples)
    @given(metric_pairs(family), st.sampled_from((1.0, 1e-3, 0.37, 7.1e2)))
    def check(pair, scale):
        L, g = pair
        Lf = L.to_float()
        gf = validate_form(scalars.ScaledArray(g.to_float().array.num * scale))
        assert levi_civita(Lf, gf).gamma == inverse_of_twice_g_route(Lf, gf)

    check()


def reference_verdicts(c, gam):
    """(torsion-free, left-symmetric, max |R|) of a product by plain loops
    over Fractions: gamma_ij - gamma_ji = c_ij, and the associator
    (e_i e_j) e_k - e_i (e_j e_k) symmetric in i, j."""
    idx = range(len(c))

    def assoc(i, j, k, l):
        return sum((gam[i][j][m] * gam[m][k][l] - gam[j][k][m] * gam[i][m][l] for m in idx), F(0))

    torsion_free = all(gam[i][j][k] - gam[j][i][k] == c[i][j][k] for i in idx for j in idx for k in idx)
    left_symmetric = all(
        assoc(i, j, k, l) == assoc(j, i, k, l) for i in idx for j in idx for k in idx for l in idx
    )
    rmax = max(abs(v) for a in reference_curvature(c, gam) for b in a for row in b for v in row)
    return torsion_free, left_symmetric, rmax


def check_report_against_loops(L, gam, exact):
    """product_report of the product gam over L, in the given mode, against
    reference_verdicts; returns the report."""
    P = ProductTensor(L, scalars.to_array(gam, True), None)
    if not exact:
        P = P.to_float()
    torsion_free, left_symmetric, rmax = reference_verdicts(L.c, gam)
    rep = product_report(P)
    assert (rep.torsion_ok, rep.left_symmetric, rep.flat) == (torsion_free, left_symmetric, rmax == 0)
    assert rep.skew_ok is None
    if exact:
        assert rep.max_residual == rmax
    else:
        assert math.isclose(rep.max_residual, float(rmax), rel_tol=1e-12)
    return rep


@pytest.mark.parametrize("exact", [True, False])
def test_upper_triangular_matrix_product_has_torsion_and_is_not_flat(exact):
    # basis E11, E12, E22 of the upper-triangular 2 x 2 matrices over the
    # abelian algebra: associative, so left-symmetric, but not commutative
    gam = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        gam[i][j][k] = F(1)
    L = validate_algebra([[[0] * 3 for _ in range(3)] for _ in range(3)])
    rep = check_report_against_loops(L, gam, exact)
    assert (rep.flat, rep.torsion_ok, rep.left_symmetric) == (False, False, True)


@st.composite
def random_products(draw):
    L = catalog(draw(st.sampled_from(("e2-motion", "dim4-b", "a-d(1)")))).algebra
    n = L.dim
    entries = st.builds(F, small, st.integers(1, 2))
    return L, [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("exact", [True, False])
def test_random_product_verdicts_match_plain_loops(exact):
    @settings(PROFILE, max_examples=8)
    @given(random_products())
    def check(case):
        check_report_against_loops(*case, exact)

    check()
    # a pinned draw that is neither torsion-free nor left-symmetric
    L = catalog("e2-motion").algebra
    gam = [[[F((i + 2 * j + 3 * k) % 5 - 2, 1 + (i + k) % 2) for k in range(3)]
            for j in range(3)] for i in range(3)]
    rep = check_report_against_loops(L, gam, exact)
    assert (rep.flat, rep.torsion_ok, rep.left_symmetric) == (False, False, False)


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_exact_and_binary64_flat_verdicts_agree(family, examples):
    @settings(PROFILE, max_examples=examples)
    @given(metric_pairs(family))
    def check(pair):
        L, g = pair
        exact = flatness_report(L, g)
        approx = flatness_report(L.to_float(), g.to_float())
        assert exact.mode == "exact" and approx.mode == "binary64"
        assert exact.flat == approx.flat
        assert exact.torsion_ok and approx.torsion_ok
        assert exact.skew_ok and approx.skew_ok
        assert type(approx.max_residual) in (int, float)

    check()


def structure_dims(rep):
    return (len(rep.center), len(rep.derived), [len(t) for t in rep.lower_central],
            rep.nilpotency_class, rep.solvable, rep.unimodular, rep.abelian)


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_exact_and_binary64_structure_reports_agree(family, examples):
    # the rounding of a vanishing bracket must not span a term of a series
    @settings(PROFILE, max_examples=examples)
    @given(family)
    def check(pair):
        L = pair[0]
        assert structure_dims(structure_report(L.to_float())) == structure_dims(structure_report(L))

    check()


# metric and structure constants scaled beyond int64: the object path
LAMBDA = F(2**70, 3**5)
MU = F(3**45, 7)


def scaled(table, s):
    return tuple(scaled(t, s) for t in table) if isinstance(table, tuple) else s * table


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_scaling_past_int64_scales_the_product_and_keeps_the_verdicts(family, examples):
    @settings(PROFILE, max_examples=min(examples, 8))
    @given(metric_pairs(family))
    def check(pair):
        L, g = pair
        P = levi_civita(L, g)
        rep = product_report(P)
        # the product of a metric is that of every constant multiple of it
        assert levi_civita(L, validate_form(scaled(g.matrix, LAMBDA))).gamma == P.gamma
        big = validate_algebra(scaled(L.c, MU))
        dtypes = []
        einsum = np.einsum

        def spy(spec, *ops):
            dtypes.extend(op.dtype for op in ops)
            return einsum(spec, *ops)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "einsum", spy)
            Q = levi_civita(big, g)
            big_rep = product_report(Q)
        # a nonzero entry of mu c lies beyond int64, so its kernels run on objects
        assert np.dtype(object) in dtypes or not any(big.array.num.flat)
        assert Q.gamma == scaled(P.gamma, MU)
        assert big_rep.max_residual == MU**2 * rep.max_residual
        verdicts = ("flat", "torsion_ok", "skew_ok", "left_symmetric", "mode", "tolerance")
        assert [getattr(big_rep, v) for v in verdicts] == [getattr(rep, v) for v in verdicts]

    check()


def test_a_zero_operand_beside_entries_beyond_int64_stays_exact():
    # a zero operand must not let the other operands' numerators onto int64
    n = 6
    zero = validate_algebra([[[0] * n for _ in range(n)] for _ in range(n)])
    g = validate_form([[(10**20 if i == n - 1 else 1) if i == j else 0 for j in range(n)]
                       for i in range(n)])
    P = levi_civita(zero, g)
    assert all(v == 0 for plane in P.gamma for row in plane for v in row)
    assert product_report(P).flat
    assert check_ad_invariance(zero, g).invariant
    osc = catalog("oscillator(1,2)")
    big = validate_algebra(scaled(osc.algebra.c, MU))
    R = curvature(levi_civita(big, osc.quad_form))
    assert R.max_abs() > 2**63
    e = [1] + [0] * (n - 1)
    assert R.apply([0] * n, e, e) == (F(0),) * n


def test_two_step_phi_metrics_are_flat():
    @settings(PROFILE, max_examples=10)
    @given(two_step_algebras(with_phi=True))
    def check(pair):
        L, metric = pair
        assert flatness_report(L, metric).flat

    check()


@st.composite
def two_step_isos(draw):
    """A two-step algebra, its pairing k, and the iso u and metric k(u., .)
    of an invertible phi; theta is read back off the table."""
    L, k = draw(two_step_algebras())
    m = L.dim // 2
    theta = [[row[m:] for row in plane[:m]] for plane in L.c[:m]]
    phi = [[F(draw(small)) for _ in range(m)] for _ in range(m)]
    assume(linalg.det(scalars.to_array(phi, True)) != 0)
    iso, metric, _ = two_step_metric(TwoStepSpec(m, theta, phi))
    return L, k, iso, metric


def test_operator_route_matches_levi_civita_on_the_two_step_family():
    @settings(PROFILE, max_examples=10)
    @given(two_step_isos())
    def check(case):
        L, k, iso, metric = case
        P = product_from_iso(L, k, iso)
        assert P.exact and P.gamma == levi_civita(L, metric).gamma
        assert all(type(v) is F for plane in P.gamma for row in plane for v in row)
        assert P.metric.matrix == metric.matrix

    check()


def test_binary64_builders_give_the_exact_tables_and_forms():
    def as_float(rows):
        return [[float(v) for v in row] for row in rows]

    @settings(PROFILE, max_examples=10)
    @given(double_extensions(), st.integers(1, 3))
    def check(ext, d):
        L, k = ext
        w = L.dim - 2
        # [e-1, w_j] = theta w_j, and k restricts to k0 on W
        theta = [[L.c[0][2 + j][2 + i] for j in range(w)] for i in range(w)]
        k0 = [row[2:] for row in k.matrix[2:]]
        Lf, kf = build_double_extension(w, as_float(k0), as_float(theta))
        assert not Lf.exact and Lf.c == L.to_float().c
        assert kf.matrix == k.to_float().matrix
        for base in (L, catalog(f"a-d({d})").algebra):
            double, pairing = build_cotangent_double(base)
            double_f, pairing_f = build_cotangent_double(base.to_float())
            assert not double_f.exact and double_f.c == double.to_float().c
            assert pairing_f.matrix == pairing.to_float().matrix

    check()


# --- first reported violation ------------------------------------------------


def first_violation(c):
    """The violation validate_algebra reports, found by the loops of the
    definition: antisymmetry over i <= j, then Jacobi over i < j < k, each
    in lexicographic order."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                r = c[i][j][k] + c[j][i][k]
                if r != 0:
                    return "antisymmetry", (i, j, k), r

    def br(x, y):
        return [
            sum((x[a] * y[b] * c[a][b][m] for a in range(n) for b in range(n)), F(0))
            for m in range(n)
        ]

    e = [[F(int(a == i)) for a in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                t1, t2, t3 = br(c[i][j], e[k]), br(c[j][k], e[i]), br(c[k][i], e[j])
                for m in range(n):
                    r = t1[m] + t2[m] + t3[m]
                    if r != 0:
                        return "jacobi", (i, j, k, m), r
    return None


def reported(c):
    try:
        validate_algebra(c)
    except AntisymmetryViolation as e:
        return "antisymmetry", (e.i, e.j, e.k), e.residual
    except JacobiViolation as e:
        return "jacobi", (e.i, e.j, e.k, e.component), e.residual
    return None


@st.composite
def tables(draw, antisymmetric):
    n = draw(st.integers(2, 5))
    entry = st.one_of(st.just(F(0)), st.builds(F, small, st.integers(1, 3)))
    c = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if antisymmetric:
        for i in range(n):
            c[i][i] = [F(0)] * n
            for j in range(i):
                c[i][j] = [-v for v in c[j][i]]
    return c


@settings(PROFILE, max_examples=60)
@given(st.booleans().flatmap(tables))
def test_reported_violation_is_the_first_in_loop_order(c):
    expect = reported(c)
    assert expect == first_violation(c)
    if expect is not None:
        kind, idx, residual = expect
        assert type(residual) is F
        assert all(type(v) is int for v in idx)


def test_pinned_violations():
    def table(n, entries):
        c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in entries.items():
            c[i][j][k] = F(v)
        return c

    # two asymmetric slots; the one with the smaller (i, j, k) is reported
    c = table(3, {(2, 1, 0): 1, (1, 2, 0): 1, (0, 2, 1): F(1, 2)})
    assert reported(c) == ("antisymmetry", (0, 2, 1), F(1, 2))
    # a nonzero diagonal bracket is an antisymmetry violation with i == j
    c = table(3, {(1, 1, 2): -3})
    assert reported(c) == ("antisymmetry", (1, 1, 2), F(-6))

    # [e0, e1] = e2, [e0, e2] = e0: the Jacobiator of (e0, e1, e2) is
    # [e2, e2] + [0, e0] + [-e0, e1] = -e2
    c = table(3, {(0, 1, 2): 1, (1, 0, 2): -1, (0, 2, 0): 1, (2, 0, 0): -1})
    assert reported(c) == ("jacobi", (0, 1, 2, 2), F(-1))
    assert reported(c) == first_violation(c)

    # binary64 tables report the same slot and residual
    cf = [[[float(v) for v in row] for row in plane] for plane in c]
    with pytest.raises(JacobiViolation) as info:
        validate_algebra(cf)
    e = info.value
    assert (e.i, e.j, e.k, e.component, e.residual) == (0, 1, 2, 2, -1.0)
    assert type(e.residual) is float


# --- one stored form per tensor -----------------------------------------------


def _float_each(nested):
    """float(Fraction) entry by entry: the binary64 view a conversion owes."""
    return tuple(map(_float_each, nested)) if isinstance(nested, tuple) else float(nested)


def _negative_zeros(nested):
    return [v for v in np.ravel(nested) if v == 0 and math.copysign(1.0, v) < 0]


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_binary64_views_are_the_float_of_each_fraction_and_hold_no_negative_zero(family, examples):
    @settings(PROFILE, max_examples=examples)
    @given(metric_pairs(family))
    def check(pair):
        L, metric = pair
        P = levi_civita(L, metric)
        Lf, metric_f, Pf = L.to_float(), metric.to_float(), P.to_float()
        # repr tells -0.0 from 0.0, so equal reprs are equal bits
        for exact_view, float_view in ((L.c, Lf.c), (metric.matrix, metric_f.matrix),
                                       (P.gamma, Pf.gamma)):
            assert repr(float_view) == repr(_float_each(exact_view))
        double, pairing = build_cotangent_double(Lf)
        solved = levi_civita(Lf, metric_f)
        for view in (Lf.c, metric_f.matrix, Pf.gamma, solved.gamma, double.c, pairing.matrix,
                     biinvariant_connection(Lf).gamma):
            assert not _negative_zeros(view)

    check()


def test_binary64_double_extensions_hold_no_negative_zero():
    @settings(PROFILE, max_examples=10)
    @given(double_extensions())
    def check(ext):
        L, k = ext
        w = L.dim - 2
        theta = [[float(L.c[0][2 + j][2 + i]) for j in range(w)] for i in range(w)]
        k0 = [[float(v) for v in row[2:]] for row in k.matrix[2:]]
        Lf, kf = build_double_extension(w, k0, theta)
        assert not _negative_zeros(Lf.c) and not _negative_zeros(kf.matrix)

    check()


def test_equal_tensors_over_different_denominators_are_equal_and_hash_equal():
    half = F(1, 2)
    # omega = theta^T k0 comes out over the denominator 2 with even numerators
    L, k = build_double_extension(2, [[half, 0], [0, half]], [[0, 2], [-2, 0]])
    again = validate_algebra(L.c, L.labels)
    assert L == again and hash(L) == hash(again) and len({L, again}) == 1
    # K u = I, reached over the denominator 2
    metric = metric_from_iso([[half, 0], [0, half]], [[2, 0], [0, 2]])[1]
    ident = validate_form([[1, 0], [0, 1]])
    assert metric == ident and hash(metric) == hash(ident)
    # the graded derivation product is the Levi-Civita product of its metric
    dim5 = catalog("dim5-nilpotent")
    _, P, flat = build_f_derivation(dim5.algebra, dim5.quad_form)
    Q = levi_civita(dim5.algebra, flat)
    assert P == Q and hash(P) == hash(Q)
    # an exact tensor never equals its binary64 copy, integer entries too
    L2, k2 = build_two_step(TwoStepSpec(3, "volume"))
    for obj in (L, k, L2, k2, P):
        assert obj != obj.to_float()


# --- builders that trust their own construction ------------------------------


def _same_array(a, b):
    """Equal values, lane and denominator."""
    return a.num.dtype == b.num.dtype and a.den == b.den and np.array_equal(a.num, b.num)


@st.composite
def alternating_thetas(draw):
    """(m, theta) for m = 3..5, exact with denominators up to 3 or binary64;
    a binary64 theta may depart from alternation by up to twice the 1e-9
    relative tolerance, which the builder and validate_algebra judge
    alike."""
    m = draw(st.integers(3, 5))
    exact = draw(st.booleans())
    theta = alternating(draw, m, st.builds(F, small, st.integers(1, 3)))
    if exact:
        return m, theta
    theta = [[[float(v) for v in row] for row in plane] for plane in theta]
    scale = max(1.0, max(abs(v) for plane in theta for row in plane for v in row))
    theta[0][1][2] += draw(st.sampled_from((0.0, 1e-12, 0.9e-9, 2e-9))) * scale
    return m, theta


def test_two_step_builds_equal_their_validation():
    @settings(PROFILE, max_examples=60)
    @given(alternating_thetas())
    def check(drawn):
        m, theta = drawn
        try:
            L, k = build_two_step(TwoStepSpec(m, theta))
        except (RankDeficientTheta, NotAntisymmetric):
            assume(False)
        again = validate_algebra(L.array, L.labels)
        assert again == L and _same_array(again.array, L.array)
        read = validate_algebra(L.c, L.labels)
        assert read == L and read.array.den == L.array.den
        assert read.array.num.dtype == L.array.num.dtype
        pairing = validate_form(k.array)
        assert pairing == k and _same_array(pairing.array, k.array)
        assert _same_array(pairing.inverse, k.inverse)
        assert check_ad_invariance(L, k).invariant

    check()


def test_cotangent_double_pairings_equal_their_validation():
    for base in [catalog(f"a-d({d})").algebra for d in (1, 2, -3)] + [catalog("dim4-b").algebra]:
        for A in (base, base.to_float()):
            _, k = build_cotangent_double(A)
            pairing = validate_form(k.array)
            assert pairing == k and _same_array(pairing.array, k.array)
            assert _same_array(pairing.inverse, k.inverse)


# --- structure reports against the series computed term by term ------------


def reference_report(L):
    """structure_report as it was computed before [g, g] was shared: the
    whole algebra through span_basis, and every term of both series
    spanned anew, the derived algebra included."""
    n, exact, C = L.dim, L.exact, L.array
    full = linalg.span_basis(scalars.eye(n, exact))
    center = linalg.nullspace(C.transpose(1, 2, 0).reshape(n * n, n))
    derived = _bracket_span(L, full, full)
    series = [full]
    while True:
        nxt = _bracket_span(L, full, series[-1])
        if linalg.same_span(nxt, series[-1]):
            break
        series.append(nxt)
        if not len(nxt.num):
            break
    dseries = [full]
    while len(dseries[-1].num):
        nxt = _bracket_span(L, dseries[-1], dseries[-1])
        if linalg.same_span(nxt, dseries[-1]):
            break
        dseries.append(nxt)
    traces = scalars.contract("ikk->i", C)
    tol = scalars.tolerance(exact, max(1.0, C.scale()))
    return StructureReport(
        center=center.tuples(),
        derived=derived.tuples(),
        lower_central=tuple(term.tuples() for term in series),
        nilpotency_class=len(series) - 1 if not len(series[-1].num) else None,
        solvable=not len(dseries[-1].num),
        unimodular=not traces.beyond(tol).any(),
        abelian=not np.count_nonzero(C.num),
    )


REPORTED = ["e2-motion", "oscillator(1)", "oscillator(1,2)", "oscillator(1/2,3)", "dim4-b",
            "dim5-nilpotent", "two-step-volume", "a-d(1)", "a-d(-2)", "a-d-double(1)"]


@pytest.mark.parametrize("name", REPORTED)
def test_structure_report_equals_the_term_by_term_series_on_the_catalog(name):
    L = catalog(name).algebra
    for A in (L, L.to_float()):
        assert structure_report(A) == reference_report(A)


@pytest.mark.parametrize("family, examples", FAMILIES)
def test_structure_report_equals_the_term_by_term_series_on_the_families(family, examples):
    @settings(PROFILE, max_examples=examples)
    @given(family)
    def check(pair):
        L = pair[0]
        for A in (L, L.to_float()):
            assert structure_report(A) == reference_report(A)

    check()
