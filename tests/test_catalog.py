"""Catalog tests: name resolution, built-in models, and their oracles."""

import math
from fractions import Fraction as F

import pytest

from quadlie import connection, dynamics, linalg, scalars
from quadlie.algebra import structure_report
from quadlie.catalog import available, catalog
from quadlie.errors import UnknownName
from quadlie.forms import signature


def test_name_resolution():
    assert catalog("oscillator").name == "oscillator(1)"
    assert catalog("oscillator(1,2)").algebra.dim == 6
    assert catalog("oscillator( 1 , 1/2 )").name == "oscillator(1,1/2)"
    assert catalog("a-d(3)").metadata["parameter"].startswith("bracket parameter d = 3")
    assert catalog("a-d").name == "a-d(1)"


@pytest.mark.parametrize(
    "bad", ["nope", "oscillator(x)", "a-d(1,2)", "e2-motion(3)", "oscillator(1"]
)
def test_unknown_names_rejected(bad):
    with pytest.raises(UnknownName):
        catalog(bad)


def test_available_lists_seven_families():
    names = [n for n, _ in available()]
    assert len(names) == 7
    assert names[0] == "e2-motion"
    assert "dim4-b" in names and "two-step-volume" in names


def test_catalog_caches_entries():
    assert catalog("dim5-nilpotent") is catalog("dim5-nilpotent")
    assert catalog("oscillator(1)") is catalog("oscillator( 1 )")


def test_seed_keys():
    for name in ("e2-motion", "oscillator(1)", "dim5-nilpotent", "a-d-double(1)"):
        assert sorted(catalog(name).seeds.keys()) == ["builtin", "default"]
    assert catalog("a-d(1)").seeds == {}


def test_e2_connection_and_closed_form():
    e2 = catalog("e2-motion")
    P = connection.levi_civita(e2.algebra, e2.metric)
    assert all(v == 0 for row in P.gamma[0] for v in row)
    assert all(v == 0 for row in P.gamma[1] for v in row)
    assert P.gamma[2] == e2.algebra.c[2]
    assert connection.curvature(P).max_abs() == 0

    x0 = (0.7, -0.3, 1.3)
    geo = e2.oracles["geodesic"](x0)
    traj = dynamics.integrate_geodesic(P, x0, (0.0, 10.0), tol=1e-10)
    worst = max(
        max(abs(a - b) for a, b in zip(geo(t), s))
        for t, s in zip(traj.times, traj.states)
    )
    assert worst < 1e-8

    scan = dynamics.conjugate_scan(P, x0, (1e-3, 50.0), grid=200, tol=1e-10)
    assert scan.times == ()


def test_e2_group_oracles_consistent():
    e2 = catalog("e2-motion")
    x0 = (0.7, -0.3, 1.3)
    geo = e2.oracles["geodesic"](x0)
    mirror = e2.oracles["geodesic_mirror"](x0)
    assert max(abs(a - b) for a, b in zip(mirror(2.0), geo(-2.0))) < 1e-14

    # group curve derivative equals the translated algebra velocity
    gp = e2.oracles["group_geodesic"](x0)
    gpm = e2.oracles["group_geodesic_mirror"](x0)
    dl = e2.oracles["translation_differential"]
    h = 1e-6
    for t in (0.5, 1.7, 3.0):
        num = tuple((a - b) / (2 * h) for a, b in zip(gp(t + h), gp(t - h)))
        want = dl(gp(t), geo(t))
        assert max(abs(a - b) for a, b in zip(num, want)) < 1e-7
        numm = tuple((a - b) / (2 * h) for a, b in zip(gpm(t + h), gpm(t - h)))
        wantm = dl(gpm(t), mirror(t))
        assert max(abs(a - b) for a, b in zip(numm, wantm)) < 1e-7

    assert e2.oracles["exp_map"]((1.0, 2.0, 3.0)) == (1.0, 2.0, 3.0)
    assert max(
        abs(a - b) for a, b in zip(e2.oracles["exp_map_mirror"](x0), gpm(1.0))
    ) == 0

    prod = e2.oracles["group_product"]
    g1, g2, g3 = (0.3, 1.0, 0.7), (-0.2, 0.4, 1.9), (1.1, -0.5, 0.6)
    lhs = prod(prod(g1, g2), g3)
    rhs = prod(g1, prod(g2, g3))
    assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12


def test_oscillator_entry_oracles():
    osc = catalog("oscillator(1)")
    assert osc.quad_form is osc.metric
    prod = osc.oracles["group_product"]
    g1 = (0.2, 0.3 + 0.4j, 0.9)
    g2 = (-0.1, 1.0 - 0.2j, 0.4)
    g3 = (0.5, -0.6 + 0.1j, -1.2)
    lhs = prod(prod(g1, g2), g3)
    rhs = prod(g1, prod(g2, g3))
    assert all(abs(a - b) < 1e-12 for a, b in zip(lhs, rhs))
    ident = (0.0, 0j, 0.0)
    assert all(abs(a - b) < 1e-15 for a, b in zip(prod(ident, g1), g1))
    forms = osc.oracles["jacobi_forms"]((1.0, 0.0, 1.0, 0.0), (1.0,))
    assert abs(forms(math.pi / 2)[2] - 1.0) < 1e-15


def test_dim4_obstruction_matches_curvature_pairing():
    d4 = catalog("dim4-b")
    rep = structure_report(d4.algebra)
    assert rep.solvable and rep.unimodular
    pp = d4.oracles["printed_product"]
    fr = connection.product_report(pp)
    assert fr.torsion_ok and fr.left_symmetric and fr.skew_ok is None

    K4 = d4.quad_form

    def pair(u, v):
        return sum(
            K4.matrix[i][j] * u[i] * v[j] for i in range(4) for j in range(4)
        )

    e_m1 = (F(1), F(0), F(0), F(0))
    e1 = (F(0), F(0), F(1), F(0))
    e2v = (F(0), F(0), F(0), F(1))

    fam = d4.oracles["metric_family"]
    a, b, d = F(2), F(1, 3), F(5, 7)
    _iso, metric = fam(a, b, d, s00=F(1, 2), s02=F(-1), s03=F(2))
    R4 = connection.curvature(connection.levi_civita(d4.algebra, metric))
    p1, _p2, _p3 = d4.oracles["obstruction"](a, b, d)
    assert pair(R4.apply(e1, e_m1, e_m1), e2v) == p1

    _iso0, metric0 = fam(a, F(0), d)
    R40 = connection.curvature(connection.levi_civita(d4.algebra, metric0))
    _q1, q2, q3 = d4.oracles["obstruction"](a, F(0), d)
    assert pair(R40.apply(e1, e_m1, e_m1), e1) == q2
    assert pair(R40.apply(e2v, e_m1, e_m1), e2v) == q3


def test_dim5_exact_euler_and_backward_blowup():
    d5 = catalog("dim5-nilpotent")
    rep5 = structure_report(d5.algebra)
    assert rep5.nilpotency_class == 3 and rep5.unimodular
    field, evaluate = dynamics.quadratic_euler_field(d5.algebra, d5.iso)
    for c in (F(0), F(1), F(-2)):
        x, xdot = d5.oracles["solution_curve"](c)
        for k in range(0, 100, 7):
            t = F(k, 20)
            assert all(a == b for a, b in zip(xdot(t), evaluate(x(t))))
    seed = tuple(float(v) for v in d5.seeds["default"])
    traj = dynamics.integrate_geodesic(field, seed, (0.0, -5.0), tol=1e-10)
    assert traj.status.kind in ("blowup", "step-collapse")
    assert abs(traj.status.t - (-1.0)) < 1e-3


def test_dim5_flat_structure_oracle():
    d5 = catalog("dim5-nilpotent")
    spec5, P5, M5 = d5.oracles["flat_structure"]()
    assert spec5.d_diagonal == (F(4, 9), F(4, 9), F(1, 3))
    assert connection.product_report(P5).flat
    assert signature(M5).index == 2


def test_two_step_entry_metric_family():
    ts = catalog("two-step-volume")
    assert structure_report(ts.algebra).nilpotency_class == 2
    phi = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(3), F(0), F(1)))
    _iso, metric, _inv = ts.oracles["metric_family"](phi)
    assert connection.flatness_report(ts.algebra, metric).flat


def test_a_d_and_double():
    ad = catalog("a-d(3)")
    repa = structure_report(ad.algebra)
    assert repa.nilpotency_class == 2 and repa.unimodular
    assert ad.quad_form is None

    add = catalog("a-d-double(3)")
    assert add.algebra.dim == 12
    repd = structure_report(add.algebra)
    assert repd.nilpotency_class == 2 and repd.unimodular
    # corank zero: the derived subalgebra is exactly the center
    assert linalg.same_span(*(linalg.span_basis(scalars.to_array(rows, True))
                             for rows in (repd.lower_central[1], repd.center)))
    R = connection.curvature(connection.biinvariant_connection(add.algebra))
    assert R.max_abs() == 0


def test_quadratic_entries_carry_forms():
    for name in (
        "oscillator(1)",
        "oscillator(1,2)",
        "dim4-b",
        "dim5-nilpotent",
        "two-step-volume",
        "a-d-double(1)",
    ):
        entry = catalog(name)
        assert entry.quad_form is not None, name
        assert structure_report(entry.algebra).unimodular, name
    for name in ("e2-motion", "a-d(2)"):
        assert catalog(name).quad_form is None, name
