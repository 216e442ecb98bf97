"""Symmetric bilinear forms, signatures, iso/metric conversions."""

import random
from fractions import Fraction

import pytest

import _rowmath

from quadlie import (
    catalog,
    check_ad_invariance,
    iso_from_metric,
    linalg,
    metric_from_iso,
    scalars,
    signature,
    validate_form,
)
from quadlie.errors import Degenerate, NotKSymmetric, NotSymmetric, Singular

F = Fraction


def test_validate_form_symmetric_exact():
    g = validate_form([[F(1), F(2)], [F(2), F(-1)]])
    assert g.exact and g.dim == 2
    assert g.matrix[0][1] == F(2)


def test_validate_form_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        validate_form([[F(1), F(2)], [F(3), F(1)]])


def test_validate_form_reports_the_first_asymmetry_in_row_order():
    g = [[F(0)] * 4 for _ in range(4)]
    g[1][2], g[0][3] = F(1), F(-1)
    with pytest.raises(NotSymmetric, match=r"entries \(0,3\) and \(3,0\) differ"):
        validate_form(g)
    gf = [[1.0, 2.0], [2.0 + 1e-12, 1.0]]
    assert validate_form(gf).matrix == ((1.0, 2.0), (2.0 + 1e-12, 1.0))
    with pytest.raises(NotSymmetric, match=r"entries \(0,1\) and \(1,0\) differ"):
        validate_form([[1.0, 2.0], [2.0 + 1e-6, 1.0]])


def test_validate_form_degenerate_reports_kernel():
    with pytest.raises(Degenerate) as exc:
        validate_form([[F(1), F(0)], [F(0), F(0)]])
    kernel = exc.value.kernel
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] == 0 and v[1] != 0


def test_signature_examples():
    lorentz = validate_form(
        [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(-1)]]
    )
    sig = signature(lorentz)
    assert (sig.positive, sig.negative, sig.zero) == (2, 1, 0)
    assert sig.index == 1

    hyperbolic = validate_form([[F(0), F(1)], [F(1), F(0)]])
    sig2 = signature(hyperbolic)
    assert (sig2.positive, sig2.negative, sig2.zero) == (1, 1, 0)
    assert sig2.index == 1


def test_signature_is_congruence_invariant():
    rng = random.Random(13)
    g = validate_form(
        [[F(2), F(1), F(0)], [F(1), F(-3), F(0)], [F(0), F(0), F(5)]]
    )
    base = signature(g)
    for _ in range(10):
        while True:
            p = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if linalg.det(scalars.to_array(p, True)) != 0:
                break
        congruent = _rowmath.mat_mul(
            _rowmath.mat_mul(_rowmath.transpose(p), g.matrix), p
        )
        assert signature(validate_form(congruent)) == base


def test_ad_invariance_holds_for_quadratic_entries():
    for name in ("oscillator(1,2)", "dim5-nilpotent", "two-step-volume"):
        entry = catalog(name)
        rep = check_ad_invariance(entry.algebra, entry.quad_form)
        assert rep.invariant
        assert rep.max_residual == 0


def test_ad_invariance_fails_for_plane_motion_metric():
    entry = catalog("e2-motion")
    rep = check_ad_invariance(entry.algebra, entry.metric)
    assert not rep.invariant
    assert rep.max_residual > 0


def test_ad_invariance_implies_pairing_associativity():
    from quadlie import bracket

    entry = catalog("oscillator(1,2)")
    L, k = entry.algebra, entry.quad_form
    rng = random.Random(3)
    n = L.dim

    def pair(u, v):
        return sum(
            k.matrix[i][j] * u[i] * v[j] for i in range(n) for j in range(n)
        )

    for _ in range(8):
        x, y, z = (
            tuple(F(rng.randint(-3, 3)) for _ in range(n)) for _ in range(3)
        )
        assert pair(bracket(L, x, y), z) == pair(x, bracket(L, y, z))


def test_metric_from_iso_and_recovery():
    entry = catalog("two-step-volume")
    k = entry.quad_form
    phi = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(3), F(0), F(1)))
    iso, metric, _ = entry.oracles["metric_family"](phi)
    rebuilt_iso, rebuilt_metric = metric_from_iso(k, iso.matrix)
    assert rebuilt_metric.matrix == metric.matrix
    assert rebuilt_iso.matrix == iso.matrix
    recovered = iso_from_metric(k, metric)
    assert recovered.matrix == iso.matrix


def test_metric_from_iso_rejects_non_self_adjoint_operator():
    entry = catalog("two-step-volume")
    k = entry.quad_form
    n = k.dim
    u = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    u[0][1] = F(1)  # breaks K U = U^T K for the duality pairing
    with pytest.raises(NotKSymmetric):
        metric_from_iso(k, u)


@pytest.mark.parametrize("exact", [True, False])
def test_metric_from_iso_rejects_a_singular_self_adjoint_operator(exact):
    # u = phi on V and phi^T on V* is self-adjoint for the duality pairing,
    # and singular with phi; K U is then a symmetric degenerate matrix
    entry = catalog("two-step-volume")
    k = entry.quad_form if exact else entry.quad_form.to_float()
    u = [[0] * 6 for _ in range(6)]
    # phi = [[1, 2, 0], [2, 4, 0], [0, 0, 1]], of rank 2
    for i, j, v in ((0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4), (2, 2, 1)):
        u[i][j] = u[3 + j][3 + i] = F(v) if exact else float(v)
    with pytest.raises(Singular) as e:
        metric_from_iso(k, u)
    assert type(e.value) is Singular and str(e.value) == "operator is not invertible"


def test_symmetric_iso_apply_and_inverse():
    entry = catalog("dim5-nilpotent")
    u = entry.iso
    n = u.dim
    x = tuple(F(i + 1) for i in range(n))
    y = u.apply(x)
    back = _rowmath.mat_vec(u.inverse_matrix(), y)
    assert tuple(back) == x


def test_float_form_validation():
    g = validate_form([[1.0, 0.0], [0.0, -1.0]])
    assert not g.exact
    sig = signature(g)
    assert (sig.positive, sig.negative, sig.zero) == (1, 1, 0)
