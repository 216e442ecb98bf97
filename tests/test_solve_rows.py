"""One _solve over a block of rows: every row ends as its own 1-D run does,
in status kind, stop time and accepted and rejected step counts, and a kept
row has that run's mesh and continuous extension."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadlie import catalog, completeness_probe, levi_civita, quadratic_euler_field
from quadlie import validate_algebra, validate_form
from quadlie import dynamics

F = Fraction


def _single_runs(field, seeds, ends, tol):
    """Each row as its own 1-D run: (statuses, [(accepted, rejected)])."""
    statuses, counts = [], []
    for seed, end in zip(seeds, ends):
        (run,) = dynamics._solve(field, seed, 0.0, end, tol)
        statuses.append(run.status)
        counts.append((run.accepted, run.rejected))
    return statuses, counts


def _assert_rows_match(field, seeds, ends, tol=1e-10):
    """Run the block, compare each row with its single run, and return the
    block's statuses."""
    seeds = [tuple(float(v) for v in s) for s in seeds]
    runs = dynamics._solve(field, np.array(seeds), 0.0, ends, tol)
    statuses = [run.status for run in runs]
    counts = [(run.accepted, run.rejected) for run in runs]
    single, single_counts = _single_runs(field, seeds, ends, tol)
    assert len(statuses) == len(seeds)
    for row, (a, b) in enumerate(zip(statuses, single)):
        assert (a.kind, a.t) == (b.kind, b.t), f"row {row}: {a} != {b}"
        assert type(a.t) is float
    assert counts == single_counts
    return statuses


def _both_ways(seeds, back, fwd):
    """The probe's block: each seed forward, then backward."""
    return [s for s in seeds for _ in range(2)], [fwd, back] * len(seeds)


def _product(name):
    entry = catalog(name)
    return levi_civita(entry.algebra, entry.metric)


def _field(P):
    return dynamics._field_from(P)[0]


def _phi_field():
    entry = catalog("two-step-volume")
    phi = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(3), F(0), F(1)))
    iso, _metric, _ = entry.oracles["metric_family"](phi)
    return quadratic_euler_field(entry.algebra, iso)[0]


def _aff():
    """aff(R): [e1, e2] = e2 with the metric [[0, 1], [1, 0]], exactly flat
    and incomplete.  x1' = x1^2, so a seed with x1 > 0 blows up forward at
    t = 1/x1, one with x1 < 0 backward, and x1 = 0 completes."""
    L = validate_algebra([[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    return levi_civita(L, validate_form([[0, 1], [1, 0]]))


SEEDS = {
    "e2-motion": [(0.7, -0.3, 1.3), (1.0, 0.0, 1.0), (-0.2, 0.9, 0.4)],
    "oscillator(1)": [(1.0, 0.5, 0.3, -0.4), (0.2, -0.7, 0.1, 0.9)],
}


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_catalog_rows_match_their_single_runs(name):
    field = _field(_product(name))
    seeds, ends = _both_ways(SEEDS[name], -20.0, 30.0)
    statuses = _assert_rows_match(field, seeds, ends)
    assert all(s.completed for s in statuses)


def test_phi_rows_match_their_single_runs():
    # the certify probe's kind of block: 32 seeds both ways on a flat phi
    # metric of V + V*
    rng = np.random.default_rng(3)
    seeds, ends = _both_ways(rng.uniform(-1, 1, (32, 6)).tolist(), -50.0, 50.0)
    statuses = _assert_rows_match(_phi_field(), seeds, ends)
    assert all(s.completed for s in statuses)


def test_dim5_blowup_rows_sit_next_to_completed_rows():
    entry = catalog("dim5-nilpotent")
    field, _ = quadratic_euler_field(entry.algebra, entry.iso)
    seed = tuple(float(v) for v in entry.seeds["default"])
    seeds, ends = _both_ways([seed, (0.3, -0.2, 0.5, 0.1, -0.4), (0.0,) * 5], -1.5, 5.0)
    statuses = _assert_rows_match(field, seeds, ends)
    back = statuses[1]
    assert back.kind in ("blowup", "step-collapse")
    assert abs(back.t - (-1.0)) <= 1e-3
    assert statuses[0].completed and statuses[4].completed and statuses[5].completed


def test_aff_mixed_block():
    field = _field(_aff())
    seeds, ends = _both_ways([(1.0, 0.0), (0.5, 0.5), (-1.0, 0.3), (0.0, 0.0)], -3.0, 3.0)
    statuses = _assert_rows_match(field, seeds, ends)
    kinds = [s.kind for s in statuses]
    assert kinds == ["blowup", "completed"] * 2 + ["completed", "blowup"] + ["completed"] * 2
    for row, pole in ((0, 1.0), (2, 2.0), (5, -1.0)):
        assert abs(statuses[row].t - pole) <= 1e-3


def test_aff_probe_reports_each_seed_as_its_single_runs():
    P = _aff()
    field = _field(P)
    seeds = [(1.0, 0.0), (0.5, 0.5), (-1.0, 0.3), (0.0, 0.0)]
    report = completeness_probe(P, seeds, t_max=3.0)
    assert report.incomplete
    for seed, res in zip(seeds, report.results):
        assert res.seed == seed
        single, _ = _single_runs(field, [seed, seed], [3.0, -3.0], 1e-10)
        assert (res.forward, res.backward) == tuple(single)
    assert report.results[3].forward.completed and report.results[3].backward.completed


def test_a_row_non_finite_at_the_start_stops_there_alone():
    # the field at (1e200, 0) overflows: that row blows up at t0 without a
    # step, and its neighbours run as they would alone
    field = _field(_aff())
    seeds = [(0.5, 0.5), (1e200, 0.0), (-1.0, 0.3)]
    ends = [3.0, 3.0, -3.0]
    runs = dynamics._solve(field, np.array(seeds), 0.0, ends, 1e-10)
    assert runs[1].status == dynamics.TerminationStatus("blowup", 0.0)
    assert (runs[1].accepted, runs[1].rejected) == (0, 0)
    _assert_rows_match(field, seeds, ends)
    (run,) = dynamics._solve(field, seeds[1], 0.0, 3.0, 1e-10, keep=True)
    assert (run.times, run.status) == ([0.0], runs[1].status) and len(run.states) == 1


def test_an_empty_seed_list_gives_an_empty_report():
    P = _product("e2-motion")
    for target in (P, _field(P)):
        report = completeness_probe(target, [], t_max=5.0)
        assert report.results == ()
        assert not report.incomplete
        assert report.span == (-5.0, 5.0)


def test_single_run_counts_match_its_mesh():
    # a 1-D run's accepted steps are its mesh intervals; the e2 probe of
    # criterion 9 keeps its counts when its two directions run as a block
    field = _field(_product("e2-motion"))
    x0 = (0.7, -0.3, 1.3)
    for end in (1e3, -1e3):
        (run,) = dynamics._solve(field, x0, 0.0, end, 1e-8, keep=True)
        assert run.status.completed
        assert run.accepted == len(run.times) - 1
    _assert_rows_match(field, [x0, x0], [1e3, -1e3], tol=1e-8)


def test_the_quadratic_field_takes_a_row_or_a_block():
    rng = np.random.default_rng(0)
    table = rng.standard_normal((4, 4, 4))
    field = dynamics._quadratic(table)
    xs = rng.standard_normal((5, 4))
    block = field(xs)
    assert block.shape == (5, 4)
    for x, row in zip(xs, block):
        assert np.array_equal(field(x), row)
        assert np.array_equal(field(x), x @ (x @ table.reshape(4, 16)).reshape(4, 4))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 5), min_size=1, max_size=6
    ),
    st.floats(0.5, 4.0),
)
def test_random_dim5_seeds_match_their_single_runs(seeds, horizon):
    entry = catalog("dim5-nilpotent")
    field, _ = quadratic_euler_field(entry.algebra, entry.iso)
    block, ends = _both_ways(seeds, -horizon, horizon)
    _assert_rows_match(field, block, ends)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 2), min_size=1, max_size=6))
def test_random_aff_seeds_match_their_single_runs(seeds):
    block, ends = _both_ways(seeds, -2.0, 2.0)
    statuses = _assert_rows_match(_field(_aff()), block, ends)
    for (x1, _), fwd, back in zip(seeds, statuses[::2], statuses[1::2]):
        if x1 > 0.55:  # the pole 1/x1 lies inside (0, 2), far enough from 2
            assert not fwd.completed and math.isclose(fwd.t, 1 / x1, abs_tol=1e-3)
        if x1 >= 0:
            assert back.completed


def _assert_kept_rows_match(field, seeds, ends, tol=1e-10):
    """Each row of a kept block has its own 1-D run's mesh, states, step
    counts and continuous extension, bit for bit."""
    block = np.array(seeds, dtype=float)
    runs = dynamics._solve(field, block, 0.0, ends, tol, keep=True)
    assert len(runs) == len(block)
    for row, (seed, end, run) in enumerate(zip(block, ends, runs)):
        (lone,) = dynamics._solve(field, seed, 0.0, end, tol, keep=True)
        assert (run.status, run.accepted, run.rejected) == (
            lone.status, lone.accepted, lone.rejected,
        ), f"row {row}"
        assert run.times == lone.times
        assert np.array_equal(np.array(run.states), np.array(lone.states))
        # reads off the mesh: a third and a half of the way through each step
        ts = [a + f * (b - a) for a, b in zip(lone.times, lone.times[1:]) for f in (1 / 3, 0.5)]
        if ts:
            assert np.array_equal(run(np.array(ts)), lone(np.array(ts)), equal_nan=True)
            assert np.array_equal(run(ts[-1]), lone(ts[-1]), equal_nan=True)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(*[st.floats(-2.0, 2.0, allow_nan=False)] * 5), min_size=1, max_size=5
    ),
    st.floats(0.5, 4.0),
)
def test_kept_dim5_rows_match_their_single_runs(seeds, horizon):
    entry = catalog("dim5-nilpotent")
    field, _ = quadratic_euler_field(entry.algebra, entry.iso)
    block, ends = _both_ways(seeds, -horizon, horizon)
    _assert_kept_rows_match(field, block, ends)


def test_kept_aff_mixed_block_matches_its_single_runs():
    field = _field(_aff())
    seeds, ends = _both_ways([(1.0, 0.0), (0.5, 0.5), (-1.0, 0.3), (0.0, 0.0)], -3.0, 3.0)
    _assert_kept_rows_match(field, seeds, ends)
