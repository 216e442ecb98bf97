"""Dual arithmetic tower: mode decision, coercion, formatting."""

import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadlie import bracket, build_oscillator, levi_civita, linalg, scalars
from quadlie.errors import DimensionMismatch, InvalidValue, MixedModeError


def test_decide_mode_exact_for_integers_and_fractions():
    assert scalars.decide_mode([1, -3, Fraction(1, 2)]) is True
    assert scalars.decide_mode([0, 7]) is True


def test_decide_mode_binary64_when_any_float_appears():
    assert scalars.decide_mode([1, 0.5]) is False
    assert scalars.decide_mode([0.0]) is False


def test_decide_mode_rejects_fraction_float_mix():
    with pytest.raises(MixedModeError):
        scalars.decide_mode([Fraction(1, 2), 0.5])


@pytest.mark.parametrize("values, error", [
    ([math.nan, [1]], InvalidValue),
    ([[1], math.nan], DimensionMismatch),
    ([Fraction(1, 2), 0.5, math.inf], InvalidValue),
    ([Fraction(1, 2), 0.5, (1,)], DimensionMismatch),
    ([Fraction(1, 2), 0.5, np.array(1.0)], DimensionMismatch),
    ([Fraction(1, 2), 0.5, "x"], MixedModeError),
    ([0.5, True, math.nan], MixedModeError),
    ([np.float64(math.nan), "x"], InvalidValue),
    ([1, np.int64(1), [1]], MixedModeError),
    ([0.5, Fraction(1, 2)], MixedModeError),
])
def test_decide_mode_raises_for_the_first_bad_entry_then_for_the_mix(values, error):
    # each entry is typed on its own, in order; the Fraction-float mix is
    # judged only after every entry passed
    with pytest.raises(error):
        scalars.decide_mode(values)


def test_coerce_keeps_exact_values_exact():
    v = scalars.coerce(Fraction(2, 3), True)
    assert v == Fraction(2, 3) and isinstance(v, Fraction)
    assert scalars.coerce(4, True) == Fraction(4)


def test_coerce_float_mode_produces_floats():
    v = scalars.coerce(1, False)
    assert v == 1.0 and isinstance(v, float)


def test_as_exact_rejects_floats():
    assert scalars.as_exact(3) == Fraction(3)
    with pytest.raises(MixedModeError):
        scalars.as_exact(0.5)


def test_fmt_fractions_as_ratio_or_integer():
    assert scalars.fmt(Fraction(1, 3)) == "1/3"
    assert scalars.fmt(Fraction(-5, 7)) == "-5/7"
    assert scalars.fmt(Fraction(4)) == "4"


def test_fmt_floats_use_seventeen_significant_digits():
    assert scalars.fmt(0.1) == "0.10000000000000001"
    assert scalars.fmt(2.0) == "2"
    assert float(scalars.fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_scalar_to_json_types():
    assert scalars.scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalars.scalar_to_json(Fraction(4)) == "4"
    assert scalars.scalar_to_json(0.25) == 0.25


def test_read_in_a_given_mode_coerces_each_entry():
    m = scalars.read([[1, 2], [3, 4]], 2, exact=True).tuples()
    assert all(isinstance(v, Fraction) for row in m for v in row)
    mf = scalars.read([[1, 2], [3, 4]], 2, exact=False).tuples()
    assert all(isinstance(v, float) for row in mf for v in row)
    # binary64 takes Fractions, rounded, as the vector intakes always have
    assert scalars.read([Fraction(1, 3), 2.5], 1, exact=False) == scalars.read([1 / 3, 2.5], 1)
    with pytest.raises(MixedModeError):
        scalars.read([1, 0.5], 1, exact=True)


def test_read_decides_the_mode_from_the_entries():
    exact = scalars.read([[1, Fraction(1, 2)], [0, 3]], 2)
    assert exact.exact and exact.tuples() == ((1, Fraction(1, 2)), (0, 3))
    assert not scalars.read([[1, 0.5], [0, 3]], 2).exact
    with pytest.raises(InvalidValue):
        scalars.read([1.0, math.nan], 1)
    with pytest.raises(MixedModeError):
        scalars.read([Fraction(1, 2), 0.5], 1)


@pytest.mark.parametrize("value, ndim, n", [
    ([[1, 2], [3]], 2, None),  # ragged
    ([[1, 2], [3, 4, 5]], 2, None),
    ([[1, 2], [3, 4]], 2, 3),  # another length than asked for
    ([[[1], 2], [3, 4]], 2, None),  # too deep
    ([[1, [2]], [3, 4]], 2, None),
    ([[1, 2], [3, 4]], 3, None),  # too shallow
    ([1, 2], 2, None),
    (5, 1, None),
    ("ab", 1, None),
    (np.array(1.0), 1, None),  # a 0-d array has no length
])
@pytest.mark.parametrize("exact", [None, True, False])
def test_read_types_any_other_nesting_as_a_dimension_mismatch(value, ndim, n, exact):
    with pytest.raises(DimensionMismatch):
        scalars.read(value, ndim, n, exact)


def test_read_of_no_rows_is_a_0_by_0_matrix_with_determinant_one():
    empty = scalars.read([], 2)
    assert empty.num.shape == (0, 0) and empty.exact
    assert linalg.det(empty) == 1


def test_binary64_numpy_vectors_still_feed_the_vector_intakes():
    L, k = build_oscillator((1,))
    Pf = levi_civita(L, k).to_float()
    x, y = np.array([1.0, 0.5, 0.0, 2.0]), np.array([0.0, 1.0, 1.0, -1.0])
    assert Pf.mult(x, y) == Pf.mult(tuple(x.tolist()), tuple(y.tolist()))
    Lf = L.to_float()
    assert bracket(Lf, x, y) == bracket(Lf, tuple(x.tolist()), tuple(y.tolist()))


# ---------------------------------------------------------------------------
# both paths of scalars.contract: int64 when the bound fits, objects otherwise

_SPECS = sorted(
    {
        spec
        for path in Path(scalars.__file__).parent.glob("*.py")
        for spec in re.findall(r'contract\(\s*"([^"]+)"', path.read_text())
    }
)
# 2**63 - 1 = 7 * 7 * 73 * 127 * 337 * 92737 * 649657
_PRIMES = (7, 7, 73, 127, 337, 92737, 649657)


def _rest(*used):
    rest = list(_PRIMES)
    for p in used:
        rest.remove(p)
    return rest


# (summed terms, factors of the operands' largest |numerators|): the bound,
# terms times the product of those maxima, lands exactly on 2**63 - 1 ...
_AT_BOUND = [(math.prod(u), _rest(*u)) for u in ((7,), (73,), (127,), (7, 337))]
# ... or one above it, on 2**63
_ABOVE = [(2**k, [2] * (63 - k)) for k in (3, 6, 11)]


def _reference(spec, nums):
    """The contraction by plain loops over every index assignment, on
    Python ints."""
    inputs, output = spec.split("->")
    labels = inputs.split(",")
    sizes = {c: n for lab, num in zip(labels, nums) for c, n in zip(lab, num.shape)}
    order = sorted(sizes)
    out = {}
    for values in itertools.product(*(range(sizes[c]) for c in order)):
        at = dict(zip(order, values))
        term = 1
        for lab, num in zip(labels, nums):
            term *= int(num[tuple(at[c] for c in lab)])
        key = tuple(at[c] for c in output)
        out[key] = out.get(key, 0) + term
    shape = tuple(sizes[c] for c in output)
    return [out.get(idx, 0) for idx in itertools.product(*(range(n) for n in shape))]


def _spied(spec, arrays):
    """contract(spec, *arrays), the dtypes of each np.einsum call's
    operands and what each call returned."""
    calls = []
    einsum = np.einsum

    def spy(s, *ops):
        out = einsum(s, *ops)
        calls.append(({op.dtype for op in ops}, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "einsum", spy)
        out = scalars.contract(spec, *arrays)
    return out, calls


def _on_its_lane(out):
    """out holds its numerators on int64 exactly when every one fits."""
    fits = max((abs(int(v)) for v in out.num.flat), default=0) <= 2**63 - 1
    assert out.num.dtype == np.dtype(np.int64 if fits else object)


@st.composite
def _operands(draw, spec, case):
    """Operands of spec whose numerator bound is at 2**63 - 1 ("at-bound"),
    on 2**63 ("above"), or at 2**63 - 1 with every free label of size 1
    ("small")."""
    inputs, output = spec.split("->")
    labels = inputs.split(",")
    summed = sorted(set(inputs) - set(output) - {","})
    choices = _ABOVE if case == "above" else _AT_BOUND
    if case == "small" or any(len(set(lab)) < len(lab) for lab in labels):
        choices = choices[:1]  # a trace stays small as well
    elif output:
        choices = [(t, f) for t, f in choices if t < 1000]  # keeps the loops short
    terms, factors = draw(st.sampled_from(choices))
    sizes = dict.fromkeys(summed, 1) | {summed[0]: terms}
    sizes |= dict.fromkeys(output, 1 if case == "small" else 2)
    rng = random.Random(draw(st.integers(0, 2**32)))
    # split the bound's factors among the operands' largest |numerator|
    owners = [rng.randrange(len(labels)) for _ in factors]
    peaks = [math.prod(p for p, o in zip(factors, owners) if o == a) for a in range(len(labels))]
    saturate = draw(st.booleans())
    arrays = []
    for lab, peak in zip(labels, peaks):
        shape = tuple(sizes[c] for c in lab)
        count = math.prod(shape)
        if saturate:  # every term at the bound: one value per operand
            entries = [rng.choice((peak, -peak))] * count
        else:
            entries = [rng.randint(-peak, peak) for _ in range(count)]
            entries[rng.randrange(count)] = rng.choice((peak, -peak))
        num = np.array(entries, dtype=object).reshape(shape)
        arrays.append(scalars.ScaledArray(num, rng.randint(1, 3)))
    return arrays


@pytest.mark.parametrize("case", ["at-bound", "above", "small"])
@pytest.mark.parametrize("spec", _SPECS)
def test_contract_matches_plain_loops_on_both_paths(spec, case):
    @settings(derandomize=True, database=None, deadline=None, max_examples=6,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_operands(spec, case))
    def check(arrays):
        out, calls = _spied(spec, arrays)
        # int64 whenever the bound fits
        on_int64 = case != "above"
        assert [dtypes for dtypes, _ in calls] == [{np.dtype(np.int64 if on_int64 else object)}]
        assert out.exact and out.den == math.prod(a.den for a in arrays)
        _on_its_lane(out)
        assert list(out.num.flat) == _reference(spec, [a.num for a in arrays])

    check()


@pytest.mark.parametrize("spec", _SPECS)
def test_contract_keeps_objects_when_a_zero_operand_meets_entries_beyond_int64(spec):
    # the zero operand's peak is 0; the bound must still see 2**63 in the
    # others, each of which holds at least one entry of that size
    labels = spec.split("->")[0].split(",")
    rng = random.Random(spec)
    arrays = []
    for a, lab in enumerate(labels):
        count = 2 ** len(lab)
        if a == 0 and len(labels) > 1:
            entries = [0] * count
        else:
            entries = [rng.choice((2**63, -(2**63), rng.randint(-9, 9))) for _ in range(count)]
            entries[rng.randrange(count)] = rng.choice((2**63, -(2**63)))
        num = np.array(entries, dtype=object).reshape((2,) * len(lab))
        arrays.append(scalars.ScaledArray(num, 1))
    assert all(a.num.dtype == object for a in arrays[len(labels) > 1:])
    out, calls = _spied(spec, arrays)
    # the contraction ran on Python ints; its result is stored by the lane
    # rule, on int64 when it fits (a zero operand's product is zero)
    [(dtypes, computed)] = calls
    assert dtypes == {np.dtype(object)}
    # a bare Python int when the result has no index
    assert all(type(v) is int for v in np.asarray(computed, dtype=object).flat)
    _on_its_lane(out)
    assert list(out.num.flat) == _reference(spec, [a.num for a in arrays])


def test_contract_covers_the_specs_of_every_kernel():
    # left_mult and the connection, curvature and structure kernels
    assert {"ijk,i->kj", "mk,ijk->ijm", "jkm,iml->ijkl", "ikk->i", "i,i->"} <= set(_SPECS)
    assert all(spec.count("->") == 1 for spec in _SPECS)
    assert math.prod(_PRIMES) == 2**63 - 1


def test_scaled_arrays_compare_by_value_and_mode():
    num = np.array([[1, -2], [0, 3]], dtype=object)
    a, b = scalars.ScaledArray(num, 2), scalars.ScaledArray(3 * num, 6)
    assert a == b and hash(a) == hash(b)
    assert a != scalars.ScaledArray(num, 3)
    assert a.to_float() == scalars.ScaledArray(np.array([[0.5, -1.0], [0.0, 1.5]]))
    assert a != a.to_float() and a.half() == scalars.ScaledArray(num, 4)
    assert a.to_float().half() == a.half().to_float()
    with pytest.raises(InvalidValue):
        scalars.ScaledArray(np.array([10**400], dtype=object)).to_float()


def _tupled(x):
    """tolist()'s nesting as tuples, one level per recursion."""
    return tuple(map(_tupled, x)) if isinstance(x, list) else x


@pytest.mark.parametrize("shape", [(), (0,), (1,), (4,), (0, 3), (3, 0), (2, 0, 3), (2, 3, 0),
                                   (2, 3, 4), (1, 2, 1, 3)])
def test_tuples_nest_as_tolist_does_in_both_modes(shape):
    size = math.prod(shape)
    ints = np.arange(size).reshape(shape) - size // 2
    exact = scalars.ScaledArray(ints, 3)
    fractions = np.array([Fraction(int(v), 3) for v in ints.flat], dtype=object)
    assert exact.tuples() == _tupled(fractions.reshape(shape).tolist())
    # binary64 -0.0 reads as 0.0
    floats = np.where(ints % 3 == 0, -0.0, ints * 0.5)
    approx = scalars.ScaledArray(floats).tuples()
    assert approx == _tupled(floats.tolist())
    flat = [approx] if not shape else list(np.array(approx, dtype=float).flat)
    assert all(math.copysign(1.0, v) == 1.0 for v in flat if v == 0)
    if not shape:
        assert isinstance(exact.tuples(), Fraction) and isinstance(approx, float)
