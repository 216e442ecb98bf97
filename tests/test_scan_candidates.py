"""The touch candidates of a conjugate scan: which grid minima of
|det Y / t^n| are polished, on synthetic samples and on real scans."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie import catalog, dynamics, levi_civita

H = 0.25
TS = [H * i for i in range(1, 33)]  # the grid of a scan of (0, 8] with grid 32
TOL = 1e-10


def candidates(f, ts=TS, tol=TOL):
    fs = [f(t) for t in ts]
    return dynamics._touch_candidates(ts, fs, max(abs(v) for v in fs) or 1.0, tol)


def every_minimum(ts, fs, scale, tol):
    """every grid minimum of |f| without a sign change: the reference
    that the candidates are checked against where f is not flat"""
    return [
        (ts[i - 1], ts[i + 1])
        for i in range(1, len(ts) - 1)
        if abs(fs[i - 1]) > abs(fs[i]) <= abs(fs[i + 1])
        and fs[i - 1] * fs[i] >= 0 <= fs[i] * fs[i + 1]
    ]


def holds(brackets, r):
    return any(lo <= r <= hi for lo, hi in brackets)


@settings(max_examples=300, deadline=None)
@given(
    cell=st.integers(2, 28),
    offset=st.floats(0.0, 1.0, exclude_max=True),
    k=st.floats(1e-6, 1e6),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_a_double_root_anywhere_in_a_cell_is_kept(cell, offset, k, sign):
    r = TS[cell] + offset * H
    brackets = candidates(lambda t: sign * k * (t - r) ** 2 * (2.0 + math.cos(t)))
    assert holds(brackets, r)


@pytest.mark.parametrize("r", [2.0, 2.1, 2.125, 5.93])
def test_a_quartic_root_is_kept(r):
    assert holds(candidates(lambda t: (t - r) ** 4 * (1.5 + math.sin(t))), r)


def test_a_grid_zero_is_kept():
    fs = [math.cos(t) ** 2 + 0.1 for t in TS]
    fs[12] = 0.0
    assert (TS[11], TS[13]) in dynamics._touch_candidates(TS, fs, max(fs), TOL)


def test_a_flat_minimum_at_the_acceptance_level_is_kept():
    # a stretch at 1e-13 of the scale, flat to 1e-12 of its size
    fs = [1.0] * 10 + [1e-13 * (1.0 + 1e-12 * (i % 2)) for i in range(len(TS) - 20)] + [1.0] * 10
    brackets = dynamics._touch_candidates(TS, fs, 1.0, TOL)
    assert brackets == every_minimum(TS, fs, 1.0, TOL) != []


@pytest.mark.parametrize("noise", [1e-15, 1e-10])
@pytest.mark.parametrize("level", [1.0, -3.0, 1e-30, 1e30])
def test_a_constant_with_relative_noise_has_no_candidates(noise, level):
    rng = np.random.default_rng(3)
    fs = (level * (1.0 + noise * rng.uniform(-1, 1, len(TS)))).tolist()
    assert dynamics._touch_candidates(TS, fs, max(abs(v) for v in fs), TOL) == []


@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8, 1e-3, 0.5])
def test_a_rise_beyond_the_flat_level_is_kept(tol):
    rise = 2 * min(100 * tol, 1e-6)
    fs = [1.0 + rise * (i % 2) for i in range(len(TS))]
    brackets = dynamics._touch_candidates(TS, fs, max(fs), tol)
    assert brackets == every_minimum(TS, fs, max(fs), tol) != []


def test_an_unresolved_touch_root_is_kept():
    # sin^2 (t - 14.3) at step 1.5 reads 0.515, 0.415, 0.652 at 13.5, 15,
    # 16.5: the parabola through them stays above 0.3, the root is there
    ts = [1.5 * i for i in range(1, 21)]
    assert holds(candidates(lambda t: math.sin(t - 14.3) ** 2, ts), 14.3)


@settings(max_examples=200, deadline=None)
@given(
    r=st.floats(0.0, 8.0),
    step=st.floats(0.05, 3.0),
    depth=st.floats(1e-3, 0.3),
    width=st.floats(0.02, 2.0),
)
def test_every_minimum_of_a_varying_f_is_kept(r, step, depth, width):
    # roots of sin^2 on grids from well resolved to under two samples a
    # root, and shallow minima that stay above half the scale
    ts = [step * i for i in range(1, 41)]
    for f in (
        lambda t: math.sin(t - r) ** 2,
        lambda t: 1.0 + depth * math.cos((t - r) / width),
    ):
        fs = [f(t) for t in ts]
        scale = max(abs(v) for v in fs)
        assert dynamics._touch_candidates(ts, fs, scale, TOL) == every_minimum(ts, fs, scale, TOL)


def _count_reads(monkeypatch):
    read, calls = dynamics._Run.__call__, []

    def counted(self, t):
        calls.append(np.size(t))
        return read(self, t)

    monkeypatch.setattr(dynamics._Run, "__call__", counted)
    return calls


def _flat_phi_product():
    entry = catalog("two-step-volume")
    phi = ((1, 2, 0), (0, 1, 0), (3, 0, 1))
    _, metric, _ = entry.oracles["metric_family"](
        tuple(tuple(Fraction(v) for v in row) for row in phi)
    )
    return levi_civita(entry.algebra, metric)


@pytest.mark.parametrize("seed", [(0.3, -0.2, 0.5, 0.1, -0.4, 0.7), (-0.9, 0.4, 0.2, 0.8, 0.1, -0.6)])
def test_a_flat_phi_scan_makes_one_read(monkeypatch, seed):
    P = _flat_phi_product()
    calls = _count_reads(monkeypatch)
    rep = dynamics.conjugate_scan(P, seed, (0, 4), grid=32)
    assert rep.roots == ()
    assert calls == [32]


@pytest.mark.parametrize("seed", [(0.7, -0.3, 1.3), (-0.4, 0.9, -1.05)])
def test_an_e2_scan_makes_one_read(monkeypatch, seed):
    e2 = catalog("e2-motion")
    P = levi_civita(e2.algebra, e2.metric)
    calls = _count_reads(monkeypatch)
    rep = dynamics.conjugate_scan(P, seed, (0, 8), grid=32)
    assert rep.roots == ()
    assert calls == [32]


@pytest.mark.parametrize("x0", [
    (1.02, 0.3, -0.2, 0.1, 0.25, -0.15),
    (0.96, -0.4, 0.1, 0.3, -0.2, 0.45),
])
def test_oscillator_double_roots_are_still_touch_roots(x0):
    entry = catalog("oscillator(1,2)")
    P = levi_civita(entry.algebra, entry.quad_form)
    rep = dynamics.conjugate_scan(P, x0, (0, 14), grid=128)
    # 2 pi k / (x_-1 lambda) for lambda = 1, 2: the lambda = 1 times are
    # among the lambda = 2 ones, where both kernels add up
    expected = [math.pi * k / x0[0] for k in range(1, 20) if math.pi * k / x0[0] <= 14]
    assert [r.via for r in rep.roots] == ["touch"] * len(expected)
    for root, t, k in zip(rep.roots, expected, range(1, 20)):
        assert abs(root.t - t) <= 1e-6 * t
        assert len(root.kernel) == (4 if k % 2 == 0 else 2)


@pytest.mark.parametrize("name, window, grid", [
    ("oscillator(1,2)", (0, 14), 128),
    ("oscillator(1,2)", (0, 60), 40),  # about two samples a root spacing
    ("oscillator(1,3)", (0.5, 30), 16),
    ("e2-motion", (0, 8), 32),
])
def test_a_scan_reports_as_if_it_polished_every_minimum(monkeypatch, name, window, grid):
    entry = catalog(name)
    P = levi_civita(entry.algebra, entry.metric if name == "e2-motion" else entry.quad_form)
    x0 = [1.01] + [0.3 * (-1) ** i / (i + 1) for i in range(1, P.dim)]
    rep = dynamics.conjugate_scan(P, x0, window, grid=grid)
    monkeypatch.setattr(dynamics, "_touch_candidates", every_minimum)
    assert repr(dynamics.conjugate_scan(P, x0, window, grid=grid)) == repr(rep)
