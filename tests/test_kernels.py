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

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadlie import (
    TwoStepSpec,
    build_cotangent_double,
    build_double_extension,
    build_two_step,
    catalog,
    curvature,
    flatness_report,
    levi_civita,
    linalg,
    product_report,
    two_step_metric,
    validate_algebra,
    validate_form,
)
from quadlie.errors import (
    AntisymmetryViolation,
    Degenerate,
    JacobiViolation,
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
    theta = linalg.mat_mul(k0, skew)
    return build_double_extension(w, k0, theta)


@st.composite
def two_step_algebras(draw, with_phi=False):
    m = draw(st.sampled_from((3, 5)))
    theta = [[[F(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                v = F(draw(small))
                for (a, b, c), s in (
                    ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                    ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
                ):
                    theta[a][b][c] = s * v
    try:
        L, k = build_two_step(TwoStepSpec(m, theta))
    except RankDeficientTheta:
        assume(False)
    if not with_phi:
        return L, k
    phi = [[F(draw(small)) for _ in range(m)] for _ in range(m)]
    assume(linalg.det(phi, True) != 0)
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


def test_two_step_phi_metrics_are_flat():
    @settings(PROFILE, max_examples=10)
    @given(two_step_algebras(with_phi=True))
    def check(pair):
        L, metric = pair
        assert flatness_report(L, metric).flat

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
