"""Levi-Civita products, curvature, flatness certificates."""

import random
from fractions import Fraction

import pytest

from quadlie import (
    biinvariant_connection,
    catalog,
    curvature,
    dim4_obstruction,
    flatness_report,
    levi_civita,
    product_from_iso,
    product_report,
    validate_form,
)
from quadlie.errors import InvalidValue

F = Fraction


def test_plane_motion_product_identities():
    entry = catalog("e2-motion")
    P = levi_civita(entry.algebra, entry.metric)
    assert P.exact
    assert all(v == 0 for row in P.gamma[0] for v in row)
    assert all(v == 0 for row in P.gamma[1] for v in row)
    assert P.gamma[2] == entry.algebra.c[2]
    assert curvature(P).max_abs() == 0


def test_levi_civita_of_invariant_form_is_half_bracket():
    entry = catalog("oscillator(1)")
    P = levi_civita(entry.algebra, entry.quad_form)
    n = entry.algebra.dim
    for i in range(n):
        for j in range(n):
            assert P.gamma[i][j] == tuple(
                v * F(1, 2) for v in entry.algebra.c[i][j]
            )
    rep = product_report(P)
    assert rep.torsion_ok and rep.skew_ok
    assert not rep.flat
    assert curvature(P).max_abs() > 0


def test_torsion_identity_on_all_basis_pairs():
    for name in ("e2-motion", "oscillator(1,2)", "two-step-volume"):
        entry = catalog(name)
        P = levi_civita(entry.algebra, entry.metric)
        n = entry.algebra.dim
        for i in range(n):
            for j in range(n):
                diff = tuple(
                    a - b for a, b in zip(P.gamma[i][j], P.gamma[j][i])
                )
                assert diff == tuple(entry.algebra.c[i][j])


def test_metric_skew_identity():
    for name in ("e2-motion", "oscillator(1)", "two-step-volume"):
        entry = catalog(name)
        g = entry.metric
        P = levi_civita(entry.algebra, g)
        n = entry.algebra.dim

        def pair(u, v):
            return sum(
                g.matrix[a][b] * u[a] * v[b] for a in range(n) for b in range(n)
            )

        for i in range(n):
            left_rows = P.gamma[i]
            for j in range(n):
                for l in range(n):
                    lhs = pair(left_rows[j], entry.algebra.basis_vector(l))
                    rhs = pair(entry.algebra.basis_vector(j), left_rows[l])
                    assert lhs + rhs == 0


def test_product_from_iso_cross_checks_levi_civita():
    entry = catalog("two-step-volume")
    phi = ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    iso, metric, _ = entry.oracles["metric_family"](phi)
    P1 = levi_civita(entry.algebra, metric)
    P2 = product_from_iso(entry.algebra, entry.quad_form, iso)
    assert P1.gamma == P2.gamma


def test_biinvariant_connection_is_half_adjoint():
    entry = catalog("dim5-nilpotent")
    P = biinvariant_connection(entry.algebra)
    n = entry.algebra.dim
    for i in range(n):
        for j in range(n):
            assert P.gamma[i][j] == tuple(
                v * F(1, 2) for v in entry.algebra.c[i][j]
            )


def test_biinvariant_curvature_dichotomy():
    # two-step quadratic entries are flat, deeper or non-nilpotent ones are not
    for name in ("two-step-volume", "a-d-double(1)"):
        L = catalog(name).algebra
        assert curvature(biinvariant_connection(L)).max_abs() == 0
    for name in ("oscillator(1)", "dim4-b", "dim5-nilpotent"):
        L = catalog(name).algebra
        assert curvature(biinvariant_connection(L)).max_abs() > 0


def test_dim4_obstruction_values():
    assert dim4_obstruction(F(1), F(1), F(1)) == (F(1, 2), F(1, 4), F(-1, 4))
    assert dim4_obstruction(F(2), F(1, 3), F(5, 7)) == (
        F(36, 97),
        F(23, 35),
        F(31, 35),
    )


@pytest.mark.parametrize(
    "a, b, d", [(F(1), F(1), F(-1)), (F(0), F(1), F(1)), (F(1), F(0), F(0)), (2.0, 2.0, -2.0)]
)
def test_dim4_obstruction_off_its_domain_is_invalid(a, b, d):
    with pytest.raises(InvalidValue):
        dim4_obstruction(a, b, d)


def test_dim4_engine_curvature_matches_obstruction():
    entry = catalog("dim4-b")
    L, K = entry.algebra, entry.quad_form
    a, b, d = F(2), F(1, 3), F(5, 7)
    _iso, metric = entry.oracles["metric_family"](
        a, b, d, s00=F(1, 2), s02=F(-1), s03=F(2)
    )
    R = curvature(levi_civita(L, metric))

    def pair(u, v):
        return sum(
            K.matrix[i][j] * u[i] * v[j] for i in range(4) for j in range(4)
        )

    p1, _, _ = dim4_obstruction(a, b, d)
    got = pair(
        R.apply(L.basis_vector(2), L.basis_vector(0), L.basis_vector(0)),
        L.basis_vector(3),
    )
    assert got == p1 == F(36, 97)


def test_dim4_printed_product_report():
    entry = catalog("dim4-b")
    rep = product_report(entry.oracles["printed_product"])
    assert rep.mode == "exact"
    assert rep.left_symmetric
    assert rep.torsion_ok
    assert rep.skew_ok is None  # the product carries no metric


def test_flat_implies_left_symmetric():
    entry = catalog("two-step-volume")
    rng = random.Random(31)
    fam = entry.oracles["metric_family"]
    for _ in range(3):
        while True:
            phi = tuple(
                tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(3)
            )
            (r0, r1, r2) = phi
            det = (
                r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
                - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
                + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
            )
            if det != 0:
                break
        _iso, metric, _inv = fam(phi)
        rep = flatness_report(entry.algebra, metric)
        assert rep.flat
        assert rep.left_symmetric


def test_flatness_report_nonflat_carries_residual():
    entry = catalog("dim5-nilpotent")
    rep = flatness_report(entry.algebra, entry.metric)
    assert not rep.flat
    assert rep.max_residual > 0
    assert rep.mode == "exact"
    assert rep.tolerance == 0


def test_float_mode_flatness_certificate():
    g = validate_form(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]
    )
    entry = catalog("e2-motion")
    rep = flatness_report(entry.algebra.to_float(), g)
    assert rep.mode == "binary64"
    assert rep.flat
    assert rep.tolerance > 0


def test_curvature_tensor_apply_is_multilinear():
    entry = catalog("oscillator(1)")
    R = curvature(levi_civita(entry.algebra, entry.metric))
    L = entry.algebra
    x, y, z = L.basis_vector(0), L.basis_vector(2), L.basis_vector(3)
    two_x = tuple(2 * v for v in x)
    assert R.apply(two_x, y, z) == tuple(2 * v for v in R.apply(x, y, z))
    assert R.apply(x, y, z) == tuple(-v for v in R.apply(y, x, z))
