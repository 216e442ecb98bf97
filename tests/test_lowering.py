"""Contractions lowered to one matrix product agree with np.einsum.

scalars.contract runs a two-operand contraction with a summed label and
no trace or batch label as one matrix product once its index sizes
multiply to scalars.LOWERING_FLOOR.  An exact one takes that route on
float64 only while (summed terms) times the product of the operands'
max(largest |numerator|, 1) is at most 2**53, and returns int64; past
that it stays on np.einsum.  These tests pin the 2**53 edge, and check
every two-operand spec the library contracts against the object-lane
np.einsum (exact, Fraction for Fraction) and against np.einsum within a
few ulps (binary64).
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadlie import scalars

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=12,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
INT64 = np.dtype(np.int64)
INT64_MAX = 2**63 - 1

# every two-operand spec the library passes to contract, read off its sources
SPECS = sorted(
    {
        spec
        for path in Path(scalars.__file__).parent.glob("*.py")
        for spec in re.findall(r'contract\(\s*"([^"]+)"', path.read_text())
        if spec.split("->")[0].count(",") == 1
    }
)

# (summed terms, largest |numerator| of each operand): the bound, their
# product, lands exactly on 2**53 ...
_AT = [(8, 2**25, 2**25), (2, 1, 2**52), (32, 2**24, 2**24)]
# ... or one above it; 2**53 + 1 = 3 * 107 * 28059810762433
_ABOVE = [(3, 107, 28059810762433), (107, 3, 28059810762433), (3, 1, 107 * 28059810762433)]


def _spied(spec, *arrays):
    """contract(spec, *arrays) and the operand dtypes of each np.einsum it
    called."""
    calls = []
    einsum = np.einsum

    def spy(s, *ops):
        calls.append({op.dtype for op in ops})
        return einsum(s, *ops)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "einsum", spy)
        out = scalars.contract(spec, *arrays)
    return out, calls


def _reference(spec, arrays):
    """The contraction on Python ints: np.einsum over object numerators."""
    nums = [a.wide().num for a in arrays]
    return scalars.ScaledArray(np.asarray(np.einsum(spec, *nums)), math.prod(a.den for a in arrays))


def _same(got, want):
    """got equals want numerator for numerator over one denominator, and
    hands out the same Fractions, by value, repr and hash."""
    assert got.den == want.den and list(map(int, got.num.flat)) == list(want.num.flat)
    assert got == want and hash(got) == hash(want)
    assert repr(got.tuples()) == repr(want.tuples())


@st.composite
def _edge(draw, cases):
    """Operands of "ij,jk->ik" above the lowering floor whose bound is one
    of cases; saturated operands put every result entry at the bound."""
    terms, top_a, top_b = draw(st.sampled_from(cases))
    side = math.isqrt(scalars.LOWERING_FLOOR // terms) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    saturate = draw(st.booleans())
    arrays = []
    for shape, top in (((side, terms), top_a), ((terms, side), top_b)):
        if saturate:
            num = np.full(shape, top * draw(st.sampled_from((1, -1))), dtype=np.int64)
        else:
            num = rng.integers(-top, top, size=shape, endpoint=True)
            num.flat[rng.integers(num.size)] = top
        arrays.append(scalars.ScaledArray(num, draw(st.integers(1, 3))))
    return arrays


@PROFILE
@given(_edge(_AT))
def test_a_lowered_contraction_at_2_to_53_runs_on_float64_and_returns_int64(arrays):
    spec = "ij,jk->ik"
    a, b = arrays
    assert scalars._plan(spec, a.num.shape, b.num.shape).lower is not None
    want = _reference(spec, arrays)
    for x, y in ((a, b), (a.wide(), b.wide()), (a, b.wide())):
        got, calls = _spied(spec, x, y)
        assert calls == [] and got.num.dtype == INT64
        _same(got, want)


@PROFILE
@given(_edge(_ABOVE))
def test_a_lowered_contraction_past_2_to_53_stays_on_einsum(arrays):
    spec = "ij,jk->ik"
    a, b = arrays
    want = _reference(spec, arrays)
    got, calls = _spied(spec, a, b)
    assert calls == [{INT64}] and got.num.dtype == INT64
    _same(got, want)
    # object operands whose entries fit: the same tensor on either lane
    for x, y in ((a.wide(), b.wide()), (a.wide(), b)):
        got, calls = _spied(spec, x, y)
        assert len(calls) == 1 and np.dtype(np.float64) not in calls[0]
        _same(got, want)


def test_a_saturated_sum_one_past_2_to_53_is_exact():
    # every result entry is 3 * 107 * 28059810762433 = 2**53 + 1, which
    # float64 cannot hold
    side = math.isqrt(scalars.LOWERING_FLOOR // 3) + 1
    a = scalars.ScaledArray(np.full((side, 3), 107, dtype=np.int64))
    b = scalars.ScaledArray(np.full((3, side), 28059810762433, dtype=np.int64))
    got = scalars.contract("ij,jk->ik", a, b)
    assert got.num.dtype == INT64 and set(map(int, got.num.flat)) == {2**53 + 1}


def _shape(labels, n):
    return (n,) * len(labels)


_TOPS = st.sampled_from([9, 2**20, 2**26, 2**40, 2**70])


@st.composite
def _exact_operands(draw, spec, n):
    arrays = []
    for labels in spec.split("->")[0].split(","):
        top = draw(_TOPS)
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        shape = _shape(labels, n)
        size = math.prod(shape)
        if top < 2**62:
            num = rng.integers(-top, top, size=shape, endpoint=True)
            if draw(st.booleans()):
                num = num.astype(object)
        else:  # beyond int64: Python ints, built from two int64 draws
            hi, lo = rng.integers(-(2**30), 2**30, size=size), rng.integers(0, 2**40, size=size)
            num = np.array([int(h) * 2**40 + int(l) for h, l in zip(hi, lo)], dtype=object)
            num = num.reshape(shape)
        den = draw(st.one_of(st.integers(1, 6), st.integers(2**63, 2**70)))
        arrays.append(scalars.ScaledArray(num, den))
    return arrays


@pytest.mark.parametrize("spec", SPECS)
def test_exact_contractions_equal_the_object_lane_einsum(spec):
    @PROFILE
    @given(st.integers(4, 12).flatmap(lambda n: _exact_operands(spec, n)))
    def check(arrays):
        got = scalars.contract(spec, *arrays)
        _same(got, _reference(spec, arrays))
        a, b = arrays
        # an int64 result stays int64: operands on int64 whose bound fits
        bound = scalars._plan(spec, a.num.shape, b.num.shape).terms * max(a.top, 1) * max(b.top, 1)
        if a.num.dtype == b.num.dtype == INT64 and bound <= INT64_MAX:
            assert got.num.dtype == INT64

    check()


@st.composite
def _float_operands(draw, spec, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    arrays = []
    for labels in spec.split("->")[0].split(","):
        num = rng.standard_normal(_shape(labels, n)) * 10.0 ** rng.integers(-3, 4)
        # signed zeros among the entries, so products of -0.0 meet
        num[rng.random(num.shape) < 0.3] = -0.0
        arrays.append(scalars.ScaledArray(num))
    return arrays


@pytest.mark.parametrize("spec", SPECS)
def test_binary64_contractions_are_within_a_few_ulps_of_einsum(spec):
    @PROFILE
    @given(st.integers(4, 12).flatmap(lambda n: _float_operands(spec, n)))
    def check(arrays):
        got = scalars.contract(spec, *arrays)
        want = np.einsum(spec, *(a.num for a in arrays))
        absolute = np.einsum(spec, *(np.abs(a.num) for a in arrays))
        a, b = arrays
        terms = scalars._plan(spec, a.num.shape, b.num.shape).terms
        # a sum of terms rounded products, in any order, lies within
        # about (terms + 1) * eps / 2 times the sum of |products| of the
        # exact sum, so two such sums lie within twice that of each other
        assert np.all(np.abs(got.num - want) <= (terms + 1) * np.finfo(float).eps * absolute)
        out = np.asarray(got.num)
        assert not np.any(np.signbit(out[out == 0]))

    check()


@pytest.mark.parametrize("spec", ["ijk,jk->i", "ijk,kj->i", "abc,cb->a", "ba,cb->ca", "ij,ij->"])
def test_specs_with_several_summed_labels_lower_in_either_order(spec):
    # the library's specs sum one label; these sum two, in one order or
    # in opposite orders, above the lowering floor
    inputs = spec.split("->")[0].split(",")
    n = math.isqrt(scalars.LOWERING_FLOOR) + 1
    rng = np.random.default_rng(0)
    nums = [rng.integers(-9, 9, size=_shape(labels, n), endpoint=True) for labels in inputs]
    assert scalars._plan(spec, *(num.shape for num in nums)).lower is not None
    exact = scalars.contract(spec, *(scalars.ScaledArray(num) for num in nums))
    assert exact.num.dtype == INT64
    _same(exact, _reference(spec, [scalars.ScaledArray(num) for num in nums]))
    floats = scalars.contract(spec, *(scalars.ScaledArray(num.astype(float)) for num in nums))
    assert np.array_equal(floats.num, np.einsum(spec, *nums))
