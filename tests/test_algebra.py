"""Structure-constant validation, bracket arithmetic, structure reports."""

import random
from fractions import Fraction

import pytest

from quadlie import bracket, catalog, linalg, scalars, structure_report, validate_algebra
from quadlie.errors import (
    AntisymmetryViolation,
    JacobiViolation,
    ValidationError,
)

F = Fraction


def same_span(rows_a, rows_b):
    """Whether two sets of exact rows span the same space."""
    return linalg.same_span(*(linalg.span_basis(scalars.to_array(r, True)) for r in (rows_a, rows_b)))


def zero_table(n):
    return [[[F(0)] * n for _ in range(n)] for _ in range(n)]


def set_bracket(c, i, j, k, val):
    row = list(c[i][j])
    row[k] = val
    c[i][j] = row
    c[j][i] = [-v for v in row]


def test_validate_accepts_abelian_and_defaults_labels():
    L = validate_algebra(zero_table(3))
    assert L.dim == 3
    assert L.labels == ("e0", "e1", "e2")
    assert L.exact


def test_validate_rejects_antisymmetry_violation():
    c = zero_table(2)
    c[0][1] = [F(1), F(0)]
    c[1][0] = [F(1), F(0)]
    with pytest.raises(AntisymmetryViolation):
        validate_algebra(c)


def test_validate_rejects_jacobi_violation():
    c = zero_table(3)
    set_bracket(c, 0, 1, 2, F(1))
    set_bracket(c, 0, 2, 0, F(1))
    with pytest.raises(JacobiViolation):
        validate_algebra(c)


def test_label_index_resolution():
    L = validate_algebra(zero_table(3), labels=("e-1", "e0", "e1"))
    assert L.label_index("e-1") == 0
    assert L.label_index("e0") == 1
    # a bare integer counts positions, not label suffixes
    assert L.label_index("2") == 2
    with pytest.raises(ValidationError):
        L.label_index("-1")
    with pytest.raises(ValidationError):
        L.label_index("zz")
    # e<k> falls back to the position when the label set is different
    two_step = catalog("two-step-volume").algebra
    assert two_step.labels[2] != "e2"
    assert two_step.label_index("e2") == 2


def test_bracket_is_bilinear_and_antisymmetric():
    L = catalog("oscillator(1,2)").algebra
    rng = random.Random(5)
    n = L.dim
    for _ in range(10):
        x = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        y = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        xy = bracket(L, x, y)
        yx = bracket(L, y, x)
        assert tuple(-v for v in yx) == tuple(xy)
        two_x = tuple(2 * v for v in x)
        assert bracket(L, two_x, y) == tuple(2 * v for v in xy)


def test_jacobi_identity_on_random_vectors():
    for name in ("oscillator(1)", "dim5-nilpotent", "e2-motion"):
        L = catalog(name).algebra
        rng = random.Random(7)
        n = L.dim
        for _ in range(5):
            x, y, z = (
                tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(3)
            )
            total = [
                a + b + c
                for a, b, c in zip(
                    bracket(L, x, bracket(L, y, z)),
                    bracket(L, y, bracket(L, z, x)),
                    bracket(L, z, bracket(L, x, y)),
                )
            ]
            assert all(v == 0 for v in total)


def test_structure_report_abelian():
    rep = structure_report(validate_algebra(zero_table(3)))
    assert rep.abelian
    assert rep.nilpotency_class == 1
    assert len(rep.center) == 3
    assert rep.solvable and rep.unimodular
    assert rep.derived == ()


def test_structure_report_oscillator():
    L = catalog("oscillator(1)").algebra
    rep = structure_report(L)
    assert rep.solvable
    assert rep.unimodular
    assert not rep.abelian
    assert rep.nilpotency_class is None  # not nilpotent
    # center is the single central direction
    center_expected = ((F(0), F(1), F(0), F(0)),)
    assert same_span(rep.center, center_expected)
    assert all(isinstance(v, Fraction) for vec in rep.center for v in vec)


def test_structure_report_three_step():
    L = catalog("dim5-nilpotent").algebra
    rep = structure_report(L)
    assert rep.nilpotency_class == 3
    assert rep.solvable and rep.unimodular
    expected = (
        (F(1), F(0), F(0), F(0), F(0)),
        (F(0), F(0), F(0), F(1), F(0)),
    )
    assert same_span(rep.center, expected)


def test_lower_central_series_shape():
    for name, cls in (("dim5-nilpotent", 3), ("two-step-volume", 2)):
        L = catalog(name).algebra
        rep = structure_report(L)
        series = rep.lower_central
        assert rep.nilpotency_class == cls
        assert len(series) == cls + 1
        assert series[-1] == ()
        assert len(series[-2]) > 0
        assert len(series) <= L.dim + 1
        # terms strictly shrink until the series dies
        for a, b in zip(series, series[1:]):
            assert len(a) > len(b)


def test_ad_matrix_matches_structure_constants():
    L = catalog("e2-motion").algebra
    n = L.dim
    for i in range(n):
        ad = L.ad(L.basis_vector(i))
        for j in range(n):
            col = tuple(ad[k][j] for k in range(n))
            assert col == tuple(L.c[i][j])


def test_to_float_conversion():
    L = catalog("dim5-nilpotent").algebra
    Lf = L.to_float()
    assert not Lf.exact
    assert Lf.labels == L.labels
    assert all(
        float(a) == b
        for p, pf in zip(L.c, Lf.c)
        for r, rf in zip(p, pf)
        for a, b in zip(r, rf)
    )


def test_float_mode_validation_tolerance():
    c = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1] = [0.0, 0.0, 1.0]
    c[1][0] = [0.0, 0.0, -1.0]
    L = validate_algebra(c)
    assert not L.exact
    assert L.labels == ("e0", "e1", "e2")
