"""polynomial_geodesic_check's Taylor recurrence: exact at zero tolerance on
integer seeds, the same verdicts in binary64, and no integration."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadlie import SymmetricIso, catalog, dynamics, iso_from_metric, polynomial_geodesic_check
from quadlie import scalars

F = Fraction
PHI = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(3), F(0), F(1)))
VERDICT = ("certified", "nilpotency_class", "degree_bound", "derivative_spans_in_series")


def _two_step(phi=PHI):
    entry = catalog("two-step-volume")
    iso, _metric, _ = entry.oracles["metric_family"](phi)
    return entry.algebra, iso


def _dim5_flat():
    entry = catalog("dim5-nilpotent")
    return entry.algebra, iso_from_metric(entry.quad_form, entry.oracles["flat_structure"]()[2])


CASES = {"two-step-volume": _two_step, "dim5-nilpotent": _dim5_flat}


def _verdict(cert):
    return tuple(getattr(cert, name) for name in VERDICT)


def _assert_modes_agree(L, iso):
    exact = polynomial_geodesic_check(L, iso)
    approx = polynomial_geodesic_check(L, iso.to_float())
    assert _verdict(approx) == _verdict(exact)
    assert type(exact.taylor_max) is Fraction and exact.taylor_max == 0
    assert isinstance(approx.taylor_max, float) and approx.taylor_max <= 1e-7
    return exact


@pytest.mark.parametrize("mode", ["exact", "binary64"])
@pytest.mark.parametrize("name", list(CASES))
def test_the_check_integrates_nothing(name, mode, monkeypatch):
    L, iso = CASES[name]()

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial_geodesic_check integrated")

    monkeypatch.setattr(dynamics, "_solve", refuse)
    cert = polynomial_geodesic_check(L, iso if mode == "exact" else iso.to_float())
    assert cert.certified


@pytest.mark.parametrize("name, d, degree", [("two-step-volume", 2, 1), ("dim5-nilpotent", 3, 2)])
def test_both_modes_give_one_verdict_and_the_order_2d_plus_1(name, d, degree):
    cert = _assert_modes_agree(*CASES[name]())
    assert cert.certified and cert.nilpotency_class == d and cert.degree_bound == degree
    assert cert.taylor_order == 2 * d + 1


def test_the_binary64_two_step_certificate_is_the_exact_one():
    # the derivative spans read a vanishing binary64 bracket as zero
    L, iso = _two_step()
    cert = polynomial_geodesic_check(L, iso.to_float())
    assert cert.certified and cert.derivative_spans_in_series and cert.degree_bound == 1


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-3, 1e3, 1e6, 1e12])
def test_a_scaled_binary64_operator_keeps_the_exact_verdict(scale):
    # u and s u give the same field and the same derivative spans
    L, iso = _two_step()
    scaled = SymmetricIso(L.dim, scalars.ScaledArray(iso.to_float().array.num * scale))
    assert _verdict(polynomial_geodesic_check(L, scaled)) == _verdict(polynomial_geodesic_check(L, iso))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_two_step_operators_certify_alike_in_both_modes(entries):
    phi = [entries[0:3], entries[3:6], entries[6:9]]
    assume(round(np.linalg.det(np.array(phi, dtype=float))) != 0)
    cert = _assert_modes_agree(*_two_step(tuple(tuple(F(v) for v in row) for row in phi)))
    assert cert.certified and cert.degree_bound == 1


@pytest.mark.parametrize("mode", ["exact", "binary64"])
@pytest.mark.parametrize("name", list(CASES))
def test_a_planted_non_polynomial_table_is_not_certified(name, mode, monkeypatch):
    L, iso = CASES[name]()
    table_of = dynamics._euler_table

    def planted(L, iso):
        # x_0' gains x_0^2, whose solution x_0 / (1 - x_0 t) is no polynomial
        t = table_of(L, iso)
        num = t.num.copy()
        num[0, 0, 0] += t.den
        return scalars.ScaledArray(num, t.den)

    monkeypatch.setattr(dynamics, "_euler_table", planted)
    cert = polynomial_geodesic_check(L, iso if mode == "exact" else iso.to_float())
    assert not cert.certified and cert.taylor_max > 1e-7
    assert cert.derivative_spans_in_series  # the symbolic half never reads the table

