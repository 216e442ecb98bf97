"""Geodesic integration, variation fields, conjugate detection, probes."""

import math
import pathlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie import (
    ProductTensor,
    TwoStepSpec,
    annotate_candidates,
    biinvariant_connection,
    biinvariant_jacobi,
    build_oscillator,
    build_two_step,
    catalog,
    completeness_probe,
    conjugate_scan,
    energy_drift,
    euler_field,
    integrate_geodesic,
    integrate_jacobi,
    jacobi_route_gap,
    levi_civita,
    oscillator_closed_forms,
    polynomial_geodesic_check,
    quadratic_euler_field,
    reflection_equation_residual,
    right_invariant_reflection,
    two_step_metric,
    validate_algebra,
    validate_form,
    volume_theta,
)
from quadlie import dynamics, scalars
from quadlie.errors import InvalidSpan, SeriesNotPreserved

F = Fraction


def plane_motion_product():
    entry = catalog("e2-motion")
    return entry, levi_civita(entry.algebra, entry.metric)


def test_integrate_geodesic_matches_closed_form():
    entry, P = plane_motion_product()
    x0 = (0.7, -0.3, 1.3)
    closed = entry.oracles["geodesic"](x0)
    traj = integrate_geodesic(P, x0, (0.0, 10.0), tol=1e-10)
    assert traj.status.completed
    assert traj.status.kind == "completed"
    worst = max(
        max(abs(a - b) for a, b in zip(closed(t), s))
        for t, s in zip(traj.times, traj.states)
    )
    assert worst <= 1e-8
    assert traj.dim == 3
    assert traj.times[0] == 0.0 and traj.times[-1] == 10.0


def test_forced_evaluation_points_hit_exactly():
    _entry, P = plane_motion_product()
    t_eval = (0.5, 1.25, 2.0, 9.875)
    traj = integrate_geodesic(P, (0.5, 0.1, 1.0), (0.0, 10.0), tol=1e-8, t_eval=t_eval)
    for t in t_eval:
        assert t in traj.times


def test_state_at_interpolates_accepted_steps():
    entry, P = plane_motion_product()
    x0 = (0.7, -0.3, 1.3)
    traj = integrate_geodesic(P, x0, (0.0, 10.0), tol=1e-10, t_eval=(3.75,))
    state = traj.state_at(3.75)
    closed = entry.oracles["geodesic"](x0)
    assert max(abs(a - b) for a, b in zip(state, closed(3.75))) <= 1e-8
    with pytest.raises(KeyError, match="no recorded state at t=3.7"):
        traj.state_at(3.7)


@pytest.mark.parametrize("t1", [10.0, -10.0])
def test_dense_output_matches_closed_form_off_the_mesh(t1):
    entry, P = plane_motion_product()
    x0 = (0.7, -0.3, 1.3)
    closed = entry.oracles["geodesic"](x0)
    field, _ = dynamics._field_from(P)
    (dense,) = dynamics._solve(field, x0, 0.0, t1, 1e-10, keep=True)
    times = dense.times
    assert dense.status.completed
    # midpoints and thirds of every step sit strictly between mesh points
    probes = [a + f * (b - a) for a, b in zip(times, times[1:]) for f in (1 / 3, 0.5)]
    assert not set(probes) & set(times)
    worst = max(max(abs(p - q) for p, q in zip(dense(t), closed(t))) for t in probes)
    assert worst <= 1e-8


def test_energy_drift_small_on_curved_model():
    entry = catalog("oscillator(1,2)")
    P = levi_civita(entry.algebra, entry.metric)
    traj = integrate_geodesic(P, (1.0, 0.2, 0.4, -0.3, 0.6, 0.1), (0.0, 10.0), tol=1e-10)
    assert traj.status.completed
    assert energy_drift(P, traj) <= 1e-7


def test_backward_blowup_near_pole():
    entry = catalog("dim5-nilpotent")
    field, _evaluate = quadratic_euler_field(entry.algebra, entry.iso)
    seed = tuple(float(v) for v in entry.seeds["default"])
    traj = integrate_geodesic(field, seed, (0.0, -5.0), tol=1e-10)
    assert traj.status.kind in ("blowup", "step-collapse")
    assert not traj.status.completed
    assert abs(traj.status.t - (-1.0)) <= 1e-3


def test_times_and_stops_are_python_floats():
    # the step size comes out of numpy arithmetic; mesh times and stop
    # times must still be plain floats, as the reports print them
    entry = catalog("dim5-nilpotent")
    field, _evaluate = quadratic_euler_field(entry.algebra, entry.iso)
    seed = tuple(float(v) for v in entry.seeds["default"])
    traj = integrate_geodesic(field, seed, (0.0, -5.0), tol=1e-10)
    assert type(traj.status.t) is float
    assert all(type(t) is float for t in traj.times)
    report = completeness_probe(field, [seed], t_max=(-1.5, 5.0), tol=1e-10)
    res = report.results[0]
    assert type(res.forward.t) is float and type(res.backward.t) is float


def test_euler_field_of_a_field_callable_is_a_tuple_of_floats():
    entry = catalog("dim5-nilpotent")
    field, _evaluate = quadratic_euler_field(entry.algebra, entry.iso)
    x = (0.3, -0.2, 0.5, 0.1, -0.4)
    value = euler_field(field, x)
    assert all(type(v) is float for v in value)
    assert value == tuple(field(np.array(x)).tolist()) and any(value)


def test_euler_field_routes_agree():
    entry = catalog("dim5-nilpotent")
    P = levi_civita(entry.algebra, entry.metric).to_float()
    field, _evaluate = quadratic_euler_field(entry.algebra, entry.iso)
    for x in (
        (0.3, -0.2, 0.5, 0.1, -0.4),
        (1.0, 0.0, -1.0, 2.0, 0.5),
    ):
        a = euler_field(P, x)
        b = field(x)
        scale = max(1.0, max(abs(v) for v in a))
        assert max(abs(p - q) for p, q in zip(a, b)) <= 1e-12 * scale


def test_biinvariant_geodesics_are_constant():
    entry = catalog("oscillator(1)")
    P = biinvariant_connection(entry.algebra)
    exact_x = (F(1, 2), F(-3, 10), F(1, 5), F(9, 10))
    assert euler_field(P, exact_x) == (F(0), F(0), F(0), F(0))
    x0 = (0.5, -0.3, 0.2, 0.9)
    traj = integrate_geodesic(P, x0, (0.0, 5.0), tol=1e-10)
    assert all(state == x0 for state in traj.states)


def test_integrate_jacobi_zero_data_stays_zero():
    entry = catalog("oscillator(1)")
    P = levi_civita(entry.algebra, entry.metric)
    n = entry.algebra.dim
    zeros = (0.0,) * n
    traj = integrate_jacobi(P, (1.0, 0.5, 0.3, -0.4), zeros, zeros, (0.0, 5.0), tol=1e-10)
    assert traj.status.completed
    assert all(all(v == 0.0 for v in y) for y in traj.states)
    # base geodesic is carried along
    assert len(traj.base_states) == len(traj.times)


def test_integrate_jacobi_matches_closed_forms():
    for name, x0, r in (
        ("oscillator(1)", (1.0, 0.5, 0.3, -0.4), (0.8,)),
        ("oscillator(1,2)", (1.0, 0.5, 0.3, -0.2, -0.4, 0.1), (0.8, -0.6)),
    ):
        entry = catalog(name)
        P = levi_civita(entry.algebra, entry.metric)
        forms = entry.oracles["jacobi_forms"](x0, r)
        traj = integrate_jacobi(P, x0, (0.0,) * len(x0), forms.ydot0, (0.0, 10.0), tol=1e-12)
        # y against the closed form, y' against its derivative
        for closed, states in ((forms, traj.states), (forms.derivative, traj.derivative_states)):
            worst = max(
                max(abs(a - b) for a, b in zip(closed(t), s))
                for t, s in zip(traj.times, states)
            )
            assert worst <= 1e-8


def test_conjugate_scan_finds_double_touches():
    entry = catalog("oscillator(1)")
    P = levi_civita(entry.algebra, entry.metric)
    scan = conjugate_scan(P, (1.0, 0.5, 0.3, -0.4), (0.0, 13.0), grid=200, tol=1e-10)
    assert len(scan.roots) == 2
    for root, expect in zip(scan.roots, (2 * math.pi, 4 * math.pi)):
        assert abs(root.t - expect) <= 1e-6
        assert len(root.kernel) == 2
        assert root.via in ("touch", "sign-change")
    assert scan.times == tuple(r.t for r in scan.roots)
    assert scan.det_scale > 0
    assert len(scan.samples) >= 200


def test_conjugate_scan_integrates_once(monkeypatch):
    entry = catalog("oscillator(1)")
    P = levi_civita(entry.algebra, entry.metric)
    calls = []
    solve = dynamics._solve

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_solve", counted)
    scan = conjugate_scan(P, (1.0, 0.5, 0.3, -0.4), (0.0, 13.0), grid=200, tol=1e-10)
    assert len(scan.roots) == 2
    assert calls == [(0.0, 13.0)]


def test_conjugate_scan_polishes_every_touch_on_a_coarse_grid():
    # about 15 grid points per root spacing; the grid minimum next to the
    # first touch, at pi/0.99, sits at 1.1e-3 of the grid scale
    L, k = build_oscillator((F(2),))
    P = levi_civita(L, k)
    x0 = (0.99, 0.3, -0.2, 0.1)
    scan = conjugate_scan(P, x0, (0.0, 14.0), grid=64, tol=1e-10)
    expected = [j * math.pi / 0.99 for j in range(1, 5)]
    assert len(scan.roots) == len(expected)
    for root, t_star in zip(scan.roots, expected):
        assert abs(root.t - t_star) <= 1e-6
        assert len(root.kernel) == 2


def test_conjugate_scan_flat_model_has_no_roots():
    _entry, P = plane_motion_product()
    scan = conjugate_scan(P, (0.7, -0.3, 1.3), (0.0, 50.0), grid=200, tol=1e-10)
    assert scan.times == ()


def so3_copies_product(diagonal):
    """The Levi-Civita product of k copies of so(3), [e1, e2] = e3 and
    cyclically in each, under the diagonal metric of the 3k given entries."""
    n = len(diagonal)
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for off in range(0, n, 3):
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            c[off + i][off + j][off + k], c[off + j][off + i][off + k] = 1, -1
    metric = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return levi_civita(validate_algebra(c), validate_form(metric))


@pytest.mark.parametrize("s", [0.7, 1.0, 1.3])
def test_conjugate_scan_bisects_the_sign_changes_of_a_berger_sphere(s):
    # the seed (s, 0, 0) is a fixed point of x' = -x x, a one-parameter
    # subgroup, whose conjugate times include 2 pi k / s in closed form
    P = so3_copies_product((1, 1, 2))
    scan = conjugate_scan(P, (s, 0.0, 0.0), (0.0, 20.0), grid=200)
    assert all(r.via == "sign-change" and len(r.kernel) == 1 for r in scan.roots)
    periods = [2 * math.pi * k / s for k in range(1, math.floor(20.0 * s / (2 * math.pi)) + 1)]
    assert periods
    for t in periods:
        assert min(abs(r - t) for r in scan.times) <= 1e-8


def test_conjugate_scan_settles_touches_and_sign_changes_in_one_window(monkeypatch):
    # a bi-invariant so(3) turning at 0.8, whose conjugate times are double
    # roots, beside the Berger sphere above turning at 1
    P = so3_copies_product((1, 1, 1, 1, 1, 2))
    read, calls = dynamics._Run.__call__, []

    def counted(self, t):
        calls.append(np.size(t))
        return read(self, t)

    monkeypatch.setattr(dynamics._Run, "__call__", counted)
    scan = conjugate_scan(P, (0, 0, 0.8, 1, 0, 0), (0.0, 20.0), grid=200)
    expected = sorted(
        [(2 * math.pi * k / 0.8, "touch", 2) for k in (1, 2)]
        + [(t, "sign-change", 1) for t in (2 * math.pi, 4 * math.pi, 6 * math.pi)]
        + [(t, "sign-change", 1) for t in (8.5495645434, 15.193092040)]
    )
    assert [(r.via, len(r.kernel)) for r in scan.roots] == [e[1:] for e in expected]
    for root, (t, _, _) in zip(scan.roots, expected):
        assert abs(root.t - t) <= 1e-8
    # one read for the grid, one per round of the longest search (grid
    # step h: a bisection of width h, a golden section of width 2 h after
    # its first two points) and one for the searches' ends
    h = 20.0 / 200
    bisection = math.ceil(math.log2(h / 1e-10))
    golden = 1 + min(60, math.ceil(math.log(2 * h / 1e-10) / math.log((1 + math.sqrt(5)) / 2)))
    assert calls[0] == 200
    assert len(calls) <= 1 + max(bisection, golden) + 1


def test_conjugate_scan_rejects_bad_window():
    _entry, P = plane_motion_product()
    with pytest.raises(InvalidSpan):
        conjugate_scan(P, (0.7, -0.3, 1.3), (-1.0, 5.0))
    with pytest.raises(InvalidSpan):
        conjugate_scan(P, (0.7, -0.3, 1.3), (5.0, 1.0))


def test_annotate_candidates_matches_and_rejects():
    entry = catalog("oscillator(1)")
    P = levi_civita(entry.algebra, entry.metric)
    x0 = (1.0, 0.5, 0.3, -0.4)
    scan = conjugate_scan(P, x0, (0.0, 13.0), grid=200, tol=1e-10)
    forms = oscillator_closed_forms((1.0,), x0, (1.0,))
    primary = forms.conjugate_times((0.0, 13.0))
    halved = forms.halved_times((0.0, 13.0))
    ann = annotate_candidates(scan, primary, halved, match_tol=1e-6)
    assert ann.roots == scan.roots  # original scan is preserved
    assert [c for c, _ in ann.primary_matches] == list(primary)
    assert all(hit is not None for _, hit in ann.primary_matches)
    assert all(hit is None for _, hit in ann.alternate_matches)


def test_completeness_probe_complete_model():
    entry = catalog("two-step-volume")
    P = levi_civita(entry.algebra, entry.metric)
    seeds = [tuple(float(v) for v in entry.seeds["default"])]
    report = completeness_probe(P, seeds, t_max=1e3, tol=1e-10)
    assert not report.incomplete
    res = report.results[0]
    assert res.forward.completed and res.backward.completed
    assert report.span == (-1e3, 1e3)


def test_completeness_probe_detects_pole():
    entry = catalog("dim5-nilpotent")
    field, _ = quadratic_euler_field(entry.algebra, entry.iso)
    seed = tuple(float(v) for v in entry.seeds["default"])
    report = completeness_probe(field, [seed], t_max=(-1.5, 5.0), tol=1e-10)
    assert report.incomplete
    back = report.results[0].backward
    assert back.kind in ("blowup", "step-collapse")
    assert abs(back.t - (-1.0)) <= 1e-3

    with pytest.raises(InvalidSpan):
        completeness_probe(field, [seed], t_max=(1.0, 5.0), tol=1e-10)


def test_polynomial_geodesic_check_two_step():
    entry = catalog("two-step-volume")
    phi = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(3), F(0), F(1)))
    iso, _metric, _ = entry.oracles["metric_family"](phi)
    cert = polynomial_geodesic_check(entry.algebra, iso)
    assert cert.certified
    assert cert.nilpotency_class == 2
    assert cert.degree_bound == 1
    assert cert.derivative_spans_in_series
    assert cert.taylor_max == 0


def test_polynomial_geodesic_check_three_step_flat_iso():
    entry = catalog("dim5-nilpotent")
    _spec, _product, _metric = entry.oracles["flat_structure"]()
    # the flat structure's metric operator is diagonal and preserves the
    # descending series, certifying quadratic geodesics at class 3
    from quadlie import iso_from_metric

    iso = iso_from_metric(entry.quad_form, _metric)
    cert = polynomial_geodesic_check(entry.algebra, iso)
    assert cert.certified
    assert cert.nilpotency_class == 3
    assert cert.degree_bound == 2


def test_polynomial_geodesic_check_rejects_series_breaking_iso():
    entry = catalog("dim5-nilpotent")
    with pytest.raises(SeriesNotPreserved) as exc:
        polynomial_geodesic_check(entry.algebra, entry.iso)
    assert exc.value.index == 2


def test_reflection_routes_agree():
    entry, P = plane_motion_product()
    L = entry.algebra
    x0, y0 = (0.7, -0.3, 1.3), (0.2, 0.5, -0.1)
    gap = jacobi_route_gap(L, P, x0, y0, (0.0, 5.0), tol=1e-10)
    assert gap <= 1e-8
    refl = right_invariant_reflection(L, P, x0, y0, (0.0, 5.0), tol=1e-10)
    assert refl.status.completed
    assert reflection_equation_residual(L, P, refl) <= 1e-8


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.sampled_from(
        ["e2-motion", "oscillator(1,2)", "dim4-b", "dim5-nilpotent", "two-step-volume"]
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_reflection_residual_vanishes_exactly_when_the_product_is_torsion_free(name, seed, torsion):
    # y' = -[x, y] solves the variation equation of every torsion-free
    # product gamma = c / 2 + S, S symmetric in its first two indices, at
    # every (x, y), with no integration involved; a random torsion breaks
    # the identity (residuals 3.4 to 280 over 1,500 seeds per algebra).
    # The residual reads the integrator's variation table, so this pins it,
    # and the reference below writes the equation out term by term.
    L = catalog(name).algebra.to_float()
    n, c = L.dim, L.array.num
    rng = np.random.default_rng(seed)
    S = rng.uniform(-1, 1, (n, n, n))
    gam = c / 2 + S + S.transpose(1, 0, 2)
    if torsion:
        gam = gam + rng.uniform(-2, 2, (n, n, n))
    x, y = rng.uniform(-2, 2, (2, 8, n))
    traj = dynamics.JacobiTrajectory(
        times=tuple(range(8)), states=y.tolist(), base_states=x.tolist(),
        status=dynamics.TerminationStatus("completed", 7.0),
    )
    res = reflection_equation_residual(L, ProductTensor(L, scalars.ScaledArray(gam), None), traj)

    def mult(a, b, table):
        return np.einsum("i,j,ijk->k", a, b, table)

    ref = 0.0
    for xr, yr in zip(x, y):
        # y'' + 2 x y' - ([y, x] x + x [y, x] + [x x, y]), y'' = [x x, y] + [x, [x, y]]
        xx, yx = mult(xr, xr, gam), mult(yr, xr, c)
        ydd = mult(xx, yr, c) + mult(xr, mult(xr, yr, c), c)
        rhs = mult(yx, xr, gam) + mult(xr, yx, gam) + mult(xx, yr, c)
        ref = max(ref, np.abs(ydd + 2 * mult(xr, -mult(xr, yr, c), gam) - rhs).max())
    scale = max(np.abs(c).max(), np.abs(gam).max()) ** 2 * np.abs(x).max() ** 2 * np.abs(y).max()
    assert abs(res - ref) <= 1e-12 * scale
    if torsion:
        assert res > 1
    else:
        assert res <= 1e-10 * scale


def test_biinvariant_jacobi_runs():
    entry = catalog("oscillator(1)")
    L = entry.algebra
    traj = biinvariant_jacobi(
        L, (0.5, 0.0, 0.3, -0.2), (0.0, 0.0, 0.1, 0.0), (0.0, 0.0, 0.0, 0.2), (0.0, 3.0)
    )
    assert traj.status.completed


def test_tableau_matches_the_published_dop853_coefficients():
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    stages = coef.N_STAGES
    for s in range(1, coef.N_STAGES_EXTENDED):
        assert np.array_equal(dynamics._A[s, :s], coef.A[s, :s]), s
        assert not dynamics._A[s, s:].any(), s
    assert np.array_equal(dynamics._A[stages, :stages], coef.B)
    assert np.array_equal(dynamics._ERR, np.array([coef.E5, coef.E3]))
    assert np.array_equal(dynamics._D, coef.D)
    assert coef.INTERPOLATOR_POWER == len(dynamics._POWERS) == 7


def test_power_basis_reproduces_the_nested_interpolant():
    rng = np.random.default_rng(7)
    for x in (0.0, 0.137, 0.5, 0.871, 1.0):
        F_rows = rng.uniform(-1.0, 1.0, size=(7, 5))
        # Hairer's form: y0 + x (F0 + (1-x) (F1 + x (F2 + ...)))
        nested = np.zeros(5)
        for i, row in enumerate(F_rows[::-1]):
            nested = (nested + row) * (x if i % 2 == 0 else 1.0 - x)
        power = x ** dynamics._POWERS @ (dynamics._POWER_BASIS @ F_rows)
        assert np.max(np.abs(power - nested)) <= 1e-15


def test_sources_never_import_scipy_or_numpy_polynomial():
    src = pathlib.Path(dynamics.__file__).parent
    pattern = re.compile(r"^\s*(import|from)\s+(scipy|numpy\.polynomial)\b", re.M)
    for path in src.glob("*.py"):
        text = path.read_text()
        assert not pattern.search(text), path.name
        assert "np.polynomial" not in text, path.name


def _counted(field):
    calls = []

    def wrapped(x):
        calls.append(1)
        return field(x)

    return wrapped, calls


def test_step_count_gate_on_the_e2_geodesic():
    # the fifth-order DOPRI5 pair took 796 accepted steps and 4,778
    # evaluations on this run
    _entry, P = plane_motion_product()
    field, calls = _counted(dynamics._field_from(P)[0])
    (run,) = dynamics._solve(field, (0.3, -0.5, 1.0), 0.0, 30.0, 1e-10, keep=True)
    times = run.times
    assert run.status.completed
    assert len(times) - 1 <= 150
    # two evaluations for the initial step, then twelve per attempted step
    assert len(calls) <= 2 + 12 * 150


def test_step_count_gate_on_a_flat_phi_geodesic():
    # the geodesics of a flat phi metric on V + V* are lines, so the step
    # should grow to the window in a handful of steps
    phi = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(3), F(0), F(1)))
    L, _k = build_two_step(TwoStepSpec(3, volume_theta(3)))
    _iso, metric, _ = two_step_metric(TwoStepSpec(3, volume_theta(3), phi))
    P = levi_civita(L, metric)
    field, calls = _counted(dynamics._field_from(P)[0])
    x0 = (0.3, -0.5, 1.0, 0.2, 0.7, -0.4)
    (run,) = dynamics._solve(field, x0, 0.0, 50.0, 1e-10, keep=True)
    times, states = run.times, run.states
    assert run.status.completed
    assert len(times) - 1 <= 8
    assert len(calls) <= 2 + 12 * 8
    # and the line x0 + t x'(x0) is followed
    v = euler_field(P.to_float(), x0)
    for t, x in zip(times, states):
        assert max(abs(a + t * b - c) for a, b, c in zip(x0, v, x)) <= 1e-8


E2_SAMPLES = [0.1 * k for k in range(1, 150)]


def test_sample_times_leave_the_mesh_alone():
    # the rows at the mesh times of the bare run are bit for bit the same,
    # and every requested time adds one row
    _entry, P = plane_motion_product()
    x0 = (0.7, -0.3, 1.3)
    bare = integrate_geodesic(P, x0, (0.0, 15.0), tol=1e-10)
    sampled = integrate_geodesic(P, x0, (0.0, 15.0), tol=1e-10, t_eval=E2_SAMPLES)
    rows = dict(zip(sampled.times, sampled.states))
    assert all(rows[t] == s for t, s in zip(bare.times, bare.states))
    assert set(sampled.times) == set(bare.times) | set(E2_SAMPLES)
    assert list(sampled.times) == sorted(sampled.times)


def test_sample_rows_cost_at_most_three_evaluations_per_step():
    entry, P = plane_motion_product()
    x0 = (0.7, -0.3, 1.3)
    field, calls = _counted(dynamics._field_from(P)[0])
    bare = integrate_geodesic(field, x0, (0.0, 15.0), tol=1e-10)
    bare_calls = len(calls)
    sampled = integrate_geodesic(field, x0, (0.0, 15.0), tol=1e-10, t_eval=E2_SAMPLES)
    assert len(calls) - bare_calls <= bare_calls + 3 * (len(bare.times) - 1)
    closed = entry.oracles["geodesic"](x0)
    rows = dict(zip(sampled.times, sampled.states))
    worst = max(max(abs(a - b) for a, b in zip(rows[t], closed(t))) for t in E2_SAMPLES)
    assert worst <= 1e-8


def test_sampled_blowup_costs_one_read_step_per_sample():
    # four samples fall in at most four steps, three extra stages each
    entry = catalog("dim5-nilpotent")
    field, calls = _counted(quadratic_euler_field(entry.algebra, entry.iso)[0])
    seed = tuple(float(v) for v in entry.seeds["default"])
    integrate_geodesic(field, seed, (0.0, -5.0), tol=1e-10)
    bare_calls = len(calls)
    samples = (-0.2, -0.4, -0.6, -0.8)
    traj = integrate_geodesic(field, seed, (0.0, -5.0), tol=1e-10, t_eval=samples)
    assert len(calls) - bare_calls <= bare_calls + 12
    assert traj.status.kind in ("blowup", "step-collapse")
    assert abs(traj.status.t - (-1.0)) <= 1e-3
    assert set(samples) <= set(traj.times)
