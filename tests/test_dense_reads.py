"""Reads of the continuous extension: an array of times is read in one call,
and every row is bit for bit the read of its time alone, which is the
step-by-step formula below; the variation systems map a block of states
to the rows of their 1-D calls."""

import bisect
import math

import numpy as np
import pytest

from quadlie import catalog, dynamics, levi_civita


def _reference_read(dense, t):
    """One time read step by step: its step by bisection over the step
    starts, that step's three extra stages one field call each, then the
    polynomial of the continuous extension."""
    forward = dense.steps[0][1] > 0
    keys = [s[0] if forward else -s[0] for s in dense.steps]
    t0, h, y, y_new, K = dense.steps[max(bisect.bisect_right(keys, t if forward else -t) - 1, 0)]
    K = K.copy()
    hA = h * dynamics._AY
    hA[:, 16] = 1.0
    for s in range(13, 16):
        K[s] = dense.field(hA[s] @ K)
    dy = y_new - y
    F = np.empty((7, y.size))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2 * dy - h * (K[0] + K[12])
    F[3:] = h * (dynamics._D @ K[:16])
    return y + ((t - t0) / h) ** dynamics._POWERS @ (dynamics._POWER_BASIS @ F)


def _products():
    e2 = catalog("e2-motion")
    osc = catalog("oscillator(1,2)")
    return (
        dynamics._as_product(levi_civita(e2.algebra, e2.metric)),
        dynamics._as_product(levi_civita(osc.algebra, osc.quad_form)),
    )


def _system(name):
    """(field, start state) of the e2 geodesic, the scan's variation system
    of oscillator(1,2) and the reflection system of oscillator(1,2)."""
    e2, osc = _products()
    rng = np.random.default_rng(3)
    if name == "e2":
        return dynamics._field_from(e2)[0], np.array([0.7, -0.3, 1.3])
    n = osc.dim
    gam, carr = osc.array.num, osc.algebra.array.num
    x0 = np.concatenate([[1.02], rng.uniform(-0.5, 0.5, n - 1)])
    if name == "jacobi":
        z0 = np.concatenate([x0, np.zeros(n * n), np.eye(n).ravel()])
        return dynamics._jacobi_rhs(gam, carr), z0
    return dynamics._reflection_rhs(gam, carr), np.concatenate([x0, rng.uniform(-1, 1, n)])


def _run(field, z0, t1):
    (run,) = dynamics._solve(field, z0, 0.0, t1, 1e-10, keep=True)
    assert run.status.completed
    return run.times, run


@pytest.mark.parametrize("t1", [6.0, -6.0])
@pytest.mark.parametrize("name", ["e2", "jacobi", "reflection"])
def test_an_array_read_is_the_scalar_reads_row_for_row(name, t1):
    field, z0 = _system(name)
    times, block = _run(field, z0, t1)
    _, single = _run(field, z0, t1)
    rng = np.random.default_rng(11)
    # every mesh time, both ends included, and times off the mesh
    ts = times + [a + f * (b - a) for a, b in zip(times, times[1:]) for f in (1 / 3, 0.5)]
    ts += list(rng.uniform(*sorted((0.0, t1)), 40))
    ts = [float(t) for t in rng.permutation(ts)]
    rows = block(np.array(ts))
    assert rows.shape == (len(ts), z0.size)
    for t, row in zip(ts, rows):
        assert np.array_equal(row, single(t))
        assert np.array_equal(row, _reference_read(single, t))


def test_a_scalar_read_returns_one_state():
    field, z0 = _system("jacobi")
    _, dense = _run(field, z0, 2.0)
    state = dense(1.25)
    assert isinstance(state, np.ndarray) and state.shape == z0.shape
    assert dense(np.array([1.25])).shape == (1, z0.size)
    assert dense(np.array([])).shape == (0, z0.size)


def test_steps_that_are_not_read_get_no_extra_stages():
    field, z0 = _system("e2")
    times, dense = _run(field, z0, 10.0)
    assert len(times) > 8
    rows_per_call = []

    def counted(x):
        rows_per_call.append(1 if x.ndim == 1 else x.shape[0])
        return field(x)

    dense.field = counted
    mid = [0.5 * (a + b) for a, b in zip(times, times[1:])]
    dense(np.array([mid[5], mid[2], mid[5]]))
    assert rows_per_call == [2, 2, 2]
    assert np.flatnonzero(dense.read).tolist() == [2, 5]
    dense(np.array([mid[2], times[3] - 1e-9 * (times[3] - times[2])]))
    assert rows_per_call == [2, 2, 2]
    dense(mid[7])
    assert rows_per_call == [2, 2, 2, 1, 1, 1]
    assert np.flatnonzero(dense.read).tolist() == [2, 5, 7]


@pytest.mark.parametrize("columns", [1, 6])
def test_variation_fields_map_a_block_to_the_rows_of_their_single_calls(columns):
    _, osc = _products()
    n = osc.dim
    gam, carr = osc.array.num, osc.algebra.array.num
    rng = np.random.default_rng(5)
    jacobi = dynamics._jacobi_rhs(gam, carr)
    Z = rng.uniform(-1, 1, (7, n + 2 * n * columns))
    assert np.array_equal(jacobi(Z), np.array([jacobi(z) for z in Z]))
    assert jacobi(Z[0]).shape == (Z.shape[1],)
    reflection = dynamics._reflection_rhs(gam, carr)
    Z = rng.uniform(-1, 1, (7, 2 * n))
    assert np.array_equal(reflection(Z), np.array([reflection(z) for z in Z]))


def test_the_biinvariant_field_maps_a_block_to_the_rows_of_its_single_calls(monkeypatch):
    osc = catalog("oscillator(1,2)")
    n = osc.algebra.dim
    fields = []
    sampled = dynamics._sampled

    def capture(f, *args):
        fields.append(f)
        return sampled(f, *args)

    monkeypatch.setattr(dynamics, "_sampled", capture)
    rng = np.random.default_rng(8)
    x0, y0, ydot0 = rng.uniform(-1, 1, (3, n)).tolist()
    dynamics.biinvariant_jacobi(osc.algebra, x0, y0, ydot0, (0.0, 1.0))
    (field,) = fields
    Z = rng.uniform(-1, 1, (5, 2 * n))
    assert np.array_equal(field(Z), np.array([field(z) for z in Z]))
    assert field(Z[0]).shape == (2 * n,)


def test_a_scan_reads_its_refinements_in_lockstep(monkeypatch):
    # one read for the grid, one per round of the searches, which run in
    # lockstep (a golden section reads its first two points in one round),
    # and one at every search's end: far fewer than one read per iterate.
    # The bound below is looser: it has room for the bisections and the
    # golden sections one after the other, and for two more reads
    osc = catalog("oscillator(1)")
    P = levi_civita(osc.algebra, osc.quad_form)
    read, calls = dynamics._Run.__call__, []

    def counted(self, t):
        calls.append(np.size(t))
        return read(self, t)

    monkeypatch.setattr(dynamics._Run, "__call__", counted)
    rep = dynamics.conjugate_scan(P, (1.02, 0.3, -0.2, 0.1), (0, 16), grid=64)
    assert len(rep.roots) == 2
    bisection_rounds = math.ceil(math.log2(0.25 / 1e-10))
    assert calls[0] == 64
    assert len(calls) <= 1 + bisection_rounds + 1 + 60 + 1 + 1
    assert sum(calls) > 2 * len(calls)
