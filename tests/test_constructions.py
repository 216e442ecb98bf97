"""Builder tests: oscillator, double extension, two-step, f-derivation."""

import math
from fractions import Fraction as F

import pytest

import _rowmath

from quadlie import connection, dynamics, linalg, scalars
from quadlie.algebra import structure_report, validate_algebra
from quadlie.catalog import catalog
from quadlie.constructions import (
    TwoStepSpec,
    build_cotangent_double,
    build_double_extension,
    build_f_derivation,
    build_oscillator,
    build_two_step,
    oscillator_closed_forms,
    similarity_invariants,
    two_step_metric,
    volume_theta,
)
from quadlie.errors import (
    DimensionMismatch,
    InvalidLambda,
    InvalidValue,
    NotAntisymmetric,
    RankDeficientTheta,
    WrongClass,
    ZeroXMinusOne,
)
from quadlie.forms import check_ad_invariance, signature, validate_form


def test_oscillator_build_frozen_brackets():
    L, K = build_oscillator((F(1),))
    assert L.dim == 4
    assert L.labels == ("e-1", "e0", "e1", "f1")
    assert L.c[0][2] == (0, 0, 0, 1)
    assert L.c[0][3] == (0, 0, -1, 0)
    assert L.c[2][3] == (0, 1, 0, 0)
    assert K.matrix[0][1] == 1 and K.matrix[2][2] == 1 and K.matrix[3][3] == 1
    assert check_ad_invariance(L, K).invariant
    srep = structure_report(L)
    assert srep.unimodular and srep.solvable


def test_oscillator_frequency_validation():
    with pytest.raises(InvalidLambda):
        build_oscillator(())
    with pytest.raises(InvalidLambda):
        build_oscillator((F(1), F(-2)))


def test_oscillator_matches_double_extension():
    lams = (F(1), F(3))
    m = len(lams)
    L_osc, K_osc = build_oscillator(lams)
    z = F(0)
    theta = [[z] * (2 * m) for _ in range(2 * m)]
    for j, lam in enumerate(lams):
        theta[m + j][j] = lam
        theta[j][m + j] = -lam
    k0 = [[F(1) if i == j else z for j in range(2 * m)] for i in range(2 * m)]
    L_ext, K_ext = build_double_extension(2 * m, k0, theta)
    assert L_ext.dim == L_osc.dim
    assert L_ext.c == L_osc.c
    assert K_ext.matrix == K_osc.matrix


def _double_extension_by_fractions(k0, theta):
    """The double extension's table and form, entry by entry in Fraction."""
    w = len(k0)
    n = w + 2
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for p in range(w):
        for q in range(w):
            c[0][2 + p][2 + q] = theta[q][p]  # [e-1, w_p] = theta w_p
            c[2 + p][0][2 + q] = -theta[q][p]
    for i in range(w):
        for j in range(i + 1, w):
            omega = sum(theta[l][i] * k0[l][j] for l in range(w))  # theta^T k0
            c[2 + i][2 + j][1], c[2 + j][2 + i][1] = omega, -omega
    k = [[F(0)] * n for _ in range(n)]
    k[0][1] = k[1][0] = F(1)
    for i in range(w):
        k[2 + i][2:] = k0[i]
    return c, k


def test_double_extension_of_numerators_near_int64_matches_fractions():
    # theta's numerators fit int64 and are stored there, but scaled to
    # omega's denominator 21 they would wrap
    z, big = F(0), F(2**61)
    k0 = [[F(1, 7) if i == j else z for j in range(3)] for i in range(3)]
    theta = [[z, big, z], [-big, z, F(1, 3)], [z, F(-1, 3), z]]
    L, k = build_double_extension(3, k0, theta)
    c, kmat = _double_extension_by_fractions(k0, theta)
    assert L.c == _tupled(c) and k.matrix == _tupled(kmat)


def _tupled(rows):
    return tuple(_tupled(r) for r in rows) if isinstance(rows, list) else rows


def test_double_extension_rejects_non_skew_theta():
    k0 = ((F(1), F(0)), (F(0), F(1)))
    theta = ((F(0), F(1)), (F(1), F(0)))
    with pytest.raises(NotAntisymmetric):
        build_double_extension(2, k0, theta)


def test_biinvariant_curvature_is_quarter_double_bracket():
    L, _K = build_oscillator((F(1),))
    R = connection.curvature(connection.biinvariant_connection(L))
    n = L.dim
    for i in range(n):
        for j in range(n):
            br = L.c[i][j]
            for k in range(n):
                for l in range(n):
                    expect = sum(br[m] * L.c[m][k][l] for m in range(n)) * F(1, 4)
                    assert R.r[i][j][k][l] == expect


def test_levi_civita_of_invariant_form_is_half_bracket():
    L, K = build_oscillator((F(1),))
    P = connection.levi_civita(L, K)
    for i in range(L.dim):
        for j in range(L.dim):
            assert P.gamma[i][j] == tuple(v * F(1, 2) for v in L.c[i][j])
    rep = connection.product_report(P)
    assert rep.torsion_ok and rep.skew_ok and not rep.flat


def test_two_step_volume_biinvariant_flat():
    L6, K6 = build_two_step(TwoStepSpec(3, "volume"))
    assert L6.dim == 6
    assert check_ad_invariance(L6, K6).invariant
    R6 = connection.curvature(connection.biinvariant_connection(L6))
    assert R6.max_abs() == 0
    srep = structure_report(L6)
    assert srep.nilpotency_class == 2 and srep.unimodular


def test_two_step_theta_validation():
    z = F(0)
    # all-zero tensor has a kernel direction
    theta0 = tuple(tuple((z,) * 3 for _ in range(3)) for _ in range(3))
    with pytest.raises(RankDeficientTheta):
        build_two_step(TwoStepSpec(3, theta0))
    # a symmetric slice is rejected before rank is considered
    bad = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    bad[0][1][0] = F(1)
    bad[1][0][0] = F(1)
    with pytest.raises(NotAntisymmetric):
        build_two_step(TwoStepSpec(3, tuple(tuple(tuple(r) for r in s) for s in bad)))
    with pytest.raises(DimensionMismatch):
        build_two_step(TwoStepSpec(4, "volume"))


def test_theta_violations_name_the_first_entry_in_index_order():
    # k0 theta + (k0 theta)^T for k0 = diag(1, -1, 1) is nonzero at (1, 2),
    # (2, 1) and (2, 2); the pair (0, 1) is k0-skew without being skew
    k0 = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    theta = [[0, 1, 0], [1, 0, 1], [0, -1, 1]]
    with pytest.raises(NotAntisymmetric, match=r"^theta is not k0-skew at entries \(1, 2\)$"):
        build_double_extension(3, k0, theta)

    # the volume form with theta[2][0][0] = 1 and theta[1][1][2] = 5: the
    # first failing triple is (0, 2, 0), whose swap partner is (2, 0, 0)
    th = [[list(row) for row in plane] for plane in volume_theta()]
    th[2][0][0] = F(1)
    th[1][1][2] = F(5)
    message = r"^theta is not alternating at \(0, 2, 0\)$"
    with pytest.raises(NotAntisymmetric, match=message):
        build_two_step(TwoStepSpec(3, th))
    phi = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(NotAntisymmetric, match=message):
        two_step_metric(TwoStepSpec(3, th, phi))


def test_two_step_metric_family():
    L6, _K6 = build_two_step(TwoStepSpec(3, "volume"))
    phi = ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    iso, metric, _inv = two_step_metric(TwoStepSpec(3, "volume", phi))
    for i in range(3):
        for j in range(3):
            assert iso.matrix[i][j] == phi[i][j]
            assert iso.matrix[3 + i][3 + j] == phi[j][i]
    rep = connection.flatness_report(L6, metric)
    assert rep.flat and rep.torsion_ok and rep.skew_ok and rep.left_symmetric
    sig = signature(metric)
    assert sig.positive == 3 and sig.negative == 3


def test_two_step_metric_requires_phi():
    with pytest.raises(DimensionMismatch):
        two_step_metric(TwoStepSpec(3, "volume"))


def test_similarity_invariants_frozen():
    jordan = ((F(2), F(1), F(0)), (F(0), F(2), F(0)), (F(0), F(0), F(3)))
    diag = ((F(2), F(0), F(0)), (F(0), F(2), F(0)), (F(0), F(0), F(3)))
    ij = similarity_invariants(jordan)
    idg = similarity_invariants(diag)
    assert ij.char_poly == (F(1), F(-7), F(16), F(-12))
    assert idg.char_poly == (F(1), F(-7), F(16), F(-12))
    assert ij.invariant_factor_degrees == (3,)
    assert idg.invariant_factor_degrees == (1, 2)
    assert ij != idg
    g = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(1), F(0), F(1)))
    ginv = linalg.inverse(scalars.to_array(g, True)).tuples()
    conj = _rowmath.mat_mul(_rowmath.mat_mul(g, jordan), ginv)
    assert similarity_invariants(conj) == ij


def test_cotangent_double():
    L6, _K6 = build_two_step(TwoStepSpec(3, "volume"))
    Ld, Kd = build_cotangent_double(L6)
    assert Ld.dim == 12
    srep = structure_report(Ld)
    assert srep.unimodular
    assert check_ad_invariance(Ld, Kd).invariant


def _three_step_with_invariant_form():
    z = F(0)
    c5 = [[[z] * 5 for _ in range(5)] for _ in range(5)]

    def setb(i, j, k, val):
        vec = list(c5[i][j])
        vec[k] = val
        c5[i][j] = vec
        c5[j][i] = [-v for v in vec]

    setb(4, 1, 2, F(1))
    setb(4, 2, 3, F(1))
    setb(1, 2, 0, F(1))
    L5 = validate_algebra(c5, labels=("e0", "e1", "e2", "e3", "e4"))
    k5 = [[z] * 5 for _ in range(5)]
    k5[0][4] = k5[4][0] = F(1)
    k5[1][3] = k5[3][1] = F(-1)
    k5[2][2] = F(1)
    return L5, validate_form(k5)


def test_f_derivation_flat_structure():
    L5, K5 = _three_step_with_invariant_form()
    assert check_ad_invariance(L5, K5).invariant
    spec5, P5, M5 = build_f_derivation(L5, K5)
    assert spec5.d_diagonal == (F(4, 9), F(4, 9), F(1, 3))
    assert spec5.f_diagonal == (F(4, 9), F(4, 9), F(2, 3))
    D = spec5.d_matrix
    assert [D[i][i] for i in range(5)] == [F(4, 9), F(1, 3), F(4, 9), F(4, 9), F(1, 3)]
    rep = connection.product_report(P5)
    assert rep.flat and rep.left_symmetric and rep.torsion_ok and rep.skew_ok
    sig = signature(M5)
    assert (sig.positive, sig.negative, sig.zero) == (3, 2, 0)


def test_f_derivation_in_binary64_gives_the_exact_diagonals():
    L5, K5 = _three_step_with_invariant_form()
    spec, P, M = build_f_derivation(L5.to_float(), K5.to_float())
    assert not P.exact and not M.exact
    assert spec.d_diagonal == (float(F(4, 9)), float(F(4, 9)), float(F(1, 3)))
    assert spec.f_diagonal == (float(F(4, 9)), float(F(4, 9)), float(F(2, 3)))
    assert all(type(v) is float for v in spec.d_diagonal + spec.f_diagonal)
    rep = connection.product_report(P)
    assert rep.flat and rep.left_symmetric and rep.torsion_ok and rep.skew_ok


@pytest.mark.parametrize("scale", [1e-3, 0.37, 1, 1.7e7, 1e9, 1e12, 1e50])
def test_f_derivation_in_binary64_builds_a_flat_product_at_every_scale(scale):
    # the derivation identity's slack follows the sizes of its terms, as
    # the Jacobi check's does, so a large table is no failed identity
    c = (catalog("dim5-nilpotent").algebra.array.to_float().num * scale).tolist()
    _, P, _ = build_f_derivation(validate_algebra(c))
    rep = connection.product_report(P)
    assert rep.flat and rep.left_symmetric and rep.torsion_ok


@pytest.mark.parametrize("a0", [math.nan, math.inf, -math.inf])
def test_f_derivation_rejects_a_non_finite_a0(a0):
    L5, K5 = _three_step_with_invariant_form()
    with pytest.raises(InvalidValue):
        build_f_derivation(L5.to_float(), K5.to_float(), a0=a0)
    with pytest.raises(InvalidValue):
        build_f_derivation(catalog("dim5-nilpotent").algebra.to_float(), a0=a0)


def test_f_derivation_rejects_abelian():
    z = F(0)
    c2 = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    L2 = validate_algebra(c2)
    k2 = [[F(1), z], [z, F(1)]]
    with pytest.raises(WrongClass):
        build_f_derivation(L2, validate_form(k2))


def test_closed_forms_match_integrated_jacobi():
    Lf, Kf = build_oscillator((1.0,))
    Pf = connection.levi_civita(Lf, Kf)
    x0 = (1.0, 0.5, 0.3, -0.4)
    forms = oscillator_closed_forms((1.0,), x0, (0.8,))
    y0 = (0.0, 0.0, 0.0, 0.0)
    t_eval = [k * 0.5 for k in range(21)]
    traj = dynamics.integrate_jacobi(
        Pf, x0, y0, forms.ydot0, (0.0, 10.0), tol=1e-12, t_eval=t_eval
    )
    worst = 0.0
    for idx, t in enumerate(traj.times):
        closed = forms(t)
        got = traj.states[idx]
        worst = max(worst, max(abs(a - b) for a, b in zip(closed, got)))
    assert worst < 1e-8


def test_closed_forms_reject_non_rotating_seed():
    with pytest.raises(ZeroXMinusOne):
        oscillator_closed_forms((1.0,), (0.0, 0.5, 0.3, -0.4), (0.8,))


def test_closed_form_times_match_scan():
    Lf, Kf = build_oscillator((1.0,))
    Pf = connection.levi_civita(Lf, Kf)
    x0 = (1.0, 0.5, 0.3, -0.4)
    forms = oscillator_closed_forms((1.0,), x0, (0.8,))
    ct = forms.conjugate_times((0.0, 13.0))
    assert all(abs(t - 2 * math.pi * k) < 1e-12 for k, t in zip((1, 2), ct))
    ht = forms.halved_times((0.0, 13.0))
    assert ht
    scan = dynamics.conjugate_scan(Pf, x0, (0.1, 13.0), grid=200, tol=1e-10)
    assert len(scan.roots) == 2
    for r, expect in zip(scan.roots, (2 * math.pi, 4 * math.pi)):
        assert abs(r.t - expect) < 1e-6
        assert len(r.kernel) == 2
    ann = dynamics.annotate_candidates(scan, ct, ht)
    assert all(hit is not None for _, hit in ann.primary_matches)
    assert all(hit is None for _, hit in ann.alternate_matches)


def test_volume_theta_shape():
    th = volume_theta(3)
    assert th[0][1] == (F(0), F(0), F(1))
    assert th[1][0] == (F(0), F(0), F(-1))
