"""The two exact lanes of a ScaledArray agree: int64 numerators, which an
operation keeps only while its bound proves they fit, and Python ints,
which take numerators of any size.

Each operation must give the same tensor on either lane, Fraction for
Fraction, for numerators up to the int64 edge and denominators beyond
int64; every Fraction handed out must hold Python ints; and to_float must
round once.
"""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadlie import catalog, curvature, levi_civita, product_report, scalars, validate_algebra
from quadlie.errors import AntisymmetryViolation, JacobiViolation

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=80,
                   suppress_health_check=[HealthCheck.too_slow])
INT64 = np.dtype(np.int64)
INT64_MAX = 2**63 - 1

# numerators from 2**62 to 2**63 - 1 in size, beside small and middling ones
_BIG = st.integers(2**62, INT64_MAX)
_NUM = st.one_of(_BIG, _BIG.map(operator.neg), st.integers(-9, 9), st.integers(-(2**30), 2**30))
# denominators from 1 to beyond int64
_DEN = st.one_of(st.integers(1, 6), st.integers(2**63, 2**70))


def _lanes(values, shape, den):
    """The same exact tensor on the int64 lane and on Python ints."""
    return (
        scalars.ScaledArray(np.array(values, dtype=np.int64).reshape(shape), den),
        scalars.ScaledArray(np.array(values, dtype=object).reshape(shape), den),
    )


@st.composite
def tensors(draw, shape=(2, 3), num=_NUM, den=_DEN):
    size = math.prod(shape)
    return _lanes(draw(st.lists(num, min_size=size, max_size=size)), shape, draw(den))


def _fractions(x):
    if isinstance(x, Fraction):
        yield x
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _fractions(v)


def _python_ints(x):
    """Whether every Fraction in the nested value x holds Python ints."""
    return all(type(f.numerator) is int and type(f.denominator) is int for f in _fractions(x))


def _top(a):
    return max((abs(int(v)) for v in a.num.flat), default=0)


def _same(got, want):
    """got equals the Python-int result want numerator for numerator over
    the same denominator, so nothing wrapped, and by value and hash."""
    assert got.den == want.den and list(map(int, got.num.flat)) == list(want.num.flat)
    assert got == want and hash(got) == hash(want)
    assert got.tuples() == want.tuples() and _python_ints(got.tuples())


@PROFILE
@given(tensors(), tensors())
def test_sums_and_differences_agree_on_both_lanes(a, b):
    (ai, ao), (bi, bo) = a, b
    den = math.lcm(ai.den, bi.den)
    fits = max(_top(ai), 1) * (den // ai.den) + max(_top(bi), 1) * (den // bi.den) <= INT64_MAX
    for op in (operator.add, operator.sub):
        want = op(ao, bo)
        assert want.num.dtype == object
        for x, y in ((ai, bi), (ai, bo), (ao, bi)):
            got = op(x, y)
            _same(got, want)
            # int64 only when both operands are and the bound fits
            assert (got.num.dtype == INT64) == (x is ai and y is bi and fits)


_CONTRACTIONS = [
    ("ij,jk->ik", (2, 3), (3, 2)),
    ("i,i->", (3,), (3,)),
    ("ijk,i->kj", (2, 2, 2), (2,)),
]


@pytest.mark.parametrize("spec, left, right", _CONTRACTIONS, ids=[c[0] for c in _CONTRACTIONS])
def test_contractions_agree_on_both_lanes(spec, left, right):
    small = st.one_of(st.integers(-9, 9), st.integers(-(2**30), 2**30))

    @PROFILE
    @given(tensors(left, st.one_of(_NUM, small), st.integers(1, 6)),
           tensors(right, st.one_of(_NUM, small), _DEN))
    def check(a, b):
        (ai, ao), (bi, bo) = a, b
        want = scalars.contract(spec, ao, bo)
        terms = {"ij,jk->ik": 3, "i,i->": 3, "ijk,i->kj": 2}[spec]
        fits = terms * max(_top(ai), 1) * max(_top(bi), 1) <= INT64_MAX
        for x, y in ((ai, bi), (ai, bo), (ao, bi)):
            got = scalars.contract(spec, x, y)
            _same(got, want)
            # operands already on int64 stay there while the bound fits;
            # too little work here for an object operand to enter int64
            assert (got.num.dtype == INT64) == (x is ai and y is bi and fits)

    check()


@pytest.mark.parametrize("left, right", [((0, 3), (3, 2)), ((2, 0), (0, 2)), ((2, 3), (3, 0))])
def test_contractions_of_empty_operands_agree_on_both_lanes(left, right):
    (ai, ao), (bi, bo) = _lanes([1] * math.prod(left), left, 2), _lanes([1] * math.prod(right), right, 3)
    want = scalars.contract("ij,jk->ik", ao, bo)
    for x, y in ((ai, bi), (ai, bo), (ao, bi)):
        _same(scalars.contract("ij,jk->ik", x, y), want)


@PROFILE
@given(tensors(), st.integers(2, 2**70))
def test_reads_agree_on_both_lanes(a, k):
    ai, ao = a
    assert ai == ao and hash(ai) == hash(ao)
    # the same tensor over a multiple of its denominator, and another one
    assert ai == scalars.ScaledArray(ao.num * k, ao.den * k)
    assert ai != scalars.ScaledArray(ao.num * k + 1, ao.den * k)
    assert ai.tuples() == ao.tuples() and _python_ints(ai.tuples())
    peak = ai.peak()
    assert peak == ao.peak() and _python_ints([peak])
    assert peak == max(abs(f) for f in _fractions(ao.tuples()))
    assert ai.scalar(ai.num[0, 0]) == ao.tuples()[0][0] and _python_ints([ai.scalar(ai.num[0, 0])])
    assert ai.to_float() == ao.to_float()
    assert ai.to_float().tuples() == tuple(tuple(map(float, row)) for row in ao.tuples())


@pytest.mark.parametrize("den", [1, 3, 7, 2**63 + 1])
def test_to_float_rounds_once_past_2_to_53(den):
    n = 2**53 + 1
    for a in _lanes([n, -n], (2,), den):
        assert a.to_float().tuples() == (float(Fraction(n, den)), float(Fraction(-n, den)))
    # at den 3 a float of the numerator, divided, would land elsewhere
    assert float(n) / 3 != float(Fraction(n, 3))


def test_certificates_on_the_int64_lane_hand_out_python_ints():
    entry = catalog("oscillator(1,2,3)")
    P = levi_civita(entry.algebra, entry.quad_form)
    R = curvature(P)
    assert P.array.num.dtype == INT64 and R.array.num.dtype == INT64
    rep = product_report(P)
    e = (1,) + (0,) * (P.dim - 1)
    for value in (P.gamma, R.r, rep.max_residual, R.max_abs(), P.mult(e, e), R.apply(e, e, e)):
        assert _python_ints([value])
    assert any(f != 0 for f in _fractions(R.r))


def _table(scale):
    """An antisymmetric table times scale that fails Jacobi:
    [e0, e1] = e1, [e1, e2] = e1, [e0, e2] = e0."""
    c = np.zeros((3, 3, 3), dtype=np.int64)
    for i, j, k in ((0, 1, 1), (1, 2, 1), (0, 2, 0)):
        c[i, j, k], c[j, i, k] = scale, -scale
    return c


@pytest.mark.parametrize("scale", [1, 2**30, 2**62])
def test_violations_on_the_int64_lane_report_python_ints(scale):
    # 2**30 keeps the Jacobi residual on int64, 2**62 sends it to Python ints
    with pytest.raises(JacobiViolation) as err:
        validate_algebra(scalars.ScaledArray(_table(scale), 5))
    assert err.value.residual == Fraction(-(scale**2), 25)
    assert _python_ints([err.value.residual])
    skewed = _table(scale)
    skewed[1, 0, 1] = scale  # [e1, e0] = [e0, e1]: twice scale, past int64 at 2**62
    with pytest.raises(AntisymmetryViolation) as err:
        validate_algebra(scalars.ScaledArray(skewed, 5))
    assert err.value.residual == Fraction(2 * scale, 5)
    assert _python_ints([err.value.residual])
