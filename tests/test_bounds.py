"""The bound an exact operation stores on its result.

+, - and contract keep the upper bound on the result's largest |numerator|
that decided its lane, and transpose, reshape and wide carry it.  These
tests check, over chains of those operations on operands spanning the
float64, int64 and object lanes, that a stored bound never understates
the exact top and that every result is the one the same operation gives
on copies of its operands that store nothing; and they pin how many
exact largest-entry reads one certificate makes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadlie import catalog, levi_civita, product_report, scalars, validate_form
from quadlie.scalars import ScaledArray

N = 5  # ijk,km->ijm on 5 x 5 x 5 runs as a matrix product (5**4 >= LOWERING_FLOOR)

# (spec, operand ranks); the first two lower at N, the others run as
# np.einsum: a label summed over both operands of rank 2 below the floor,
# a trace, and a single operand
SPECS = (
    ("ijk,km->ijm", (3, 2)),
    ("mk,ijk->ijm", (2, 3)),
    ("ijk,jkm->im", (3, 3)),
    ("ij,jk->ik", (2, 2)),
    ("ijj,jm->im", (3, 2)),
    ("ijk->kij", (3,)),
)

# largest |numerator| of an operand: small products stay on float64,
# medium ones on int64, and the largest reach Python ints
MAGNITUDES = (3, 2**20, 2**40, 2**62, 2**90)


def _exact_top(x):
    return max((abs(int(v)) for v in x.num.flat), default=0)


def _bare(x):
    """x with no top read and no bound stored: what every operation saw
    before bounds were kept."""
    out = object.__new__(ScaledArray)
    out.__dict__.update(num=x.num, den=x.den)
    return out


def _same(got, want):
    assert got.num.dtype == want.num.dtype
    assert got.num.shape == want.num.shape
    assert got.den == want.den
    assert all(int(a) == int(b) for a, b in zip(got.num.flat, want.num.flat))


def _bound_holds(x):
    bound = x.__dict__.get("bound")
    if bound is not None:
        assert bound >= _exact_top(x)


@st.composite
def operands(draw, rank):
    top = draw(st.sampled_from(MAGNITUDES))
    entries = draw(st.lists(st.integers(-top, top), min_size=N**rank, max_size=N**rank))
    den = draw(st.sampled_from((1, 2, 3, 7, 12)))
    return ScaledArray(np.array(entries, dtype=object).reshape((N,) * rank), den)


def _apply(step, args):
    kind, arg = step
    if kind == "add":
        return args[0] + args[1]
    if kind == "sub":
        return args[0] - args[1]
    if kind == "contract":
        return scalars.contract(arg, *args)
    if kind == "transpose":
        return args[0].transpose(*arg)
    if kind == "reshape":
        return args[0].reshape(-1).reshape(args[0].num.shape)
    return args[0].wide()


@st.composite
def chains(draw):
    """A pool of operands of ranks 2 and 3, then steps that each take
    operands from the pool by index and add their result to it."""
    pool = [draw(operands(2)), draw(operands(3)), draw(operands(3)), draw(operands(2))]
    steps = []
    ranks = [x.num.ndim for x in pool]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("add", "sub", "contract", "transpose", "reshape", "wide")))
        if kind in ("add", "sub"):
            rank = draw(st.sampled_from((2, 3)))
            picks = [i for i, r in enumerate(ranks) if r == rank]
            use = [draw(st.sampled_from(picks)), draw(st.sampled_from(picks))]
            steps.append(((kind, None), use))
            ranks.append(rank)
        elif kind == "contract":
            spec, need = draw(st.sampled_from(SPECS))
            use = [draw(st.sampled_from([i for i, r in enumerate(ranks) if r == k])) for k in need]
            steps.append(((kind, spec), use))
            ranks.append(len(spec.split("->")[1]))
        else:
            i = draw(st.sampled_from(range(len(ranks))))
            axes = tuple(draw(st.permutations(range(ranks[i])))) if kind == "transpose" else None
            steps.append(((kind, axes), [i]))
            ranks.append(ranks[i])
    return pool, steps


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.large_base_example])
@given(chains())
def test_stored_bounds_cover_top_and_change_no_result(chain):
    pool, steps = chain
    for step, use in steps:
        args = [pool[i] for i in use]
        if step[0] == "contract":  # the lane, not only the result, is the same
            plan = scalars._plan(step[1], *[x.num.shape for x in args])
            lane = scalars._lane(plan, [_bare(x) for x in args])[0]
            assert scalars._lane(plan, args)[0] == lane
        got = _apply(step, args)
        _same(got, _apply(step, [_bare(x) for x in args]))
        _bound_holds(got)
        pool.append(got)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large, HealthCheck.large_base_example])
@given(operands(3), operands(2), st.sampled_from(MAGNITUDES))
def test_a_bound_that_misses_int64_reads_the_exact_tops(a, b, loose):
    # a bound far above the true top must not move an operation off the
    # lane the exact tops give
    a.__dict__["bound"] = _exact_top(a) * loose
    b.__dict__["bound"] = _exact_top(b) * loose
    plan = scalars._plan("ijk,km->ijm", a.num.shape, b.num.shape)
    assert scalars._lane(plan, [a, b])[0] == scalars._lane(plan, [_bare(a), _bare(b)])[0]
    for got, want in (
        (scalars.contract("ijk,km->ijm", a, b), scalars.contract("ijk,km->ijm", _bare(a), _bare(b))),
        (a + a.transpose(1, 0, 2), _bare(a) + _bare(a).transpose(1, 0, 2)),
        (b - b.transpose(), _bare(b) - _bare(b).transpose()),
    ):
        _same(got, want)
        _bound_holds(got)


def test_rearranged_and_wide_tensors_carry_the_bound():
    half = scalars.eye(3, True).half()
    x = scalars.contract("ij,jk->ik", half, half)  # over 4
    bound = x.__dict__["bound"]
    for y in (x.transpose(), x.reshape(9), x.wide(), x.numerators()):
        assert y.__dict__["bound"] == bound
    assert x.numerators().den == 1 and x.numerators() == ScaledArray(x.num)


def test_a_stored_bound_leaves_repr_equality_hash_and_fields_alone():
    x = scalars.contract("ij,jk->ik", scalars.eye(3, True), scalars.eye(3, True))
    y = ScaledArray(x.num.copy(), x.den)
    assert "bound" in x.__dict__ and "bound" not in y.__dict__
    assert repr(x) == repr(y) and x == y and hash(x) == hash(y)
    assert [f.name for f in dataclasses.fields(x)] == ["num", "den"]


def test_binary64_results_store_no_bound():
    x = scalars.eye(4, False)
    for y in (x + x, x - x, scalars.contract("ij,jk->ik", x, x), x.numerators()):
        assert "bound" not in y.__dict__


# exact largest-entry reads (ScaledArray.top) in one certificate of each
# model of the benchmark's certify mix, validate_form -> levi_civita ->
# product_report on the catalog's metric (dim4-b: its invariant form); 21
# each (20 on dim4-b, whose 4 x 8 elimination reads none) before results
# kept their bounds
CERTIFICATE_READS = {
    "oscillator(1,2)": 7,
    "dim5-nilpotent": 7,
    "dim4-b": 6,
    "a-d-double(1)": 7,
}


@pytest.mark.parametrize("name", list(CERTIFICATE_READS))
def test_an_exact_certificate_reads_few_largest_entries(name, monkeypatch):
    e = catalog(name)
    L, G = e.algebra, (e.metric or e.quad_form).matrix

    def certificate():
        return product_report(levi_civita(L, validate_form(G)))

    want = certificate()  # the catalog's own reads are done by now
    sites = []
    read = ScaledArray.top.read

    def counted(x):
        sites.append(x)
        return read(x)

    monkeypatch.setattr(ScaledArray.top, "read", counted)
    assert certificate() == want
    assert len(sites) == CERTIFICATE_READS[name]
