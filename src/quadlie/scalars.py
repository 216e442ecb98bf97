"""Scalar plumbing for the two arithmetic modes.

Exact tensors hold fractions.Fraction values, approximate ones binary64
floats.  A tensor never mixes modes: construction inspects the entries
once, and ScaledArray.to_float is the one crossing from exact to binary64.
Ints are welcome in either mode and promote to the tensor's type.

A tensor is stored as a ScaledArray, and this module owns that choice: in
exact mode an object-dtype numpy array of Python ints over one common
denominator, in binary64 a float64 array over 1.  Every tensor kernel is
one np.einsum contraction over these arrays, the same expression in both
modes, and tuples() builds the read-only nested tuples of Fraction or
float that the tensor classes show as their c, matrix, gamma and r.

An exact contraction runs its einsum on int64 copies of the numerators
when the result provably fits: (number of summed terms) times the product
of each operand's largest |numerator| is at most 2**63 - 1, so no partial
sum can overflow.  The result comes back as Python ints.  The casts cost
about as much per entry as an object multiply-add, so the int64 path runs
only when the multiply-adds reach INT64_WORK_FLOOR plus
INT64_WORK_PER_ENTRY per entry converted (operands and result); smaller
contractions, a matrix times a vector for one, and any whose bound fails
stay on the object-dtype einsum, one Python-int operation per
multiply-add, which takes numerators of any size.  Exact verdicts take no
slack, so they never need a binary64 scale of their entries (see
ScaledArray.scale); converting an exact entry beyond binary64 raises
InvalidValue.

Nested input of every kind, a structure table, a form, an operator, a
builder's theta or phi and the vectors of the tensor methods, is read by
one function, read: it checks the shape level by level, types any other
nesting as a DimensionMismatch, and takes the mode the caller gives or
the one decide_mode finds in the entries.  to_array stays the reader of
rows that library code has built in a known mode.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, InvalidValue, MixedModeError

__all__ = [
    "decide_mode",
    "as_exact",
    "coerce",
    "fmt",
    "scalar_to_json",
    "tolerance",
    "common_mode",
    "ScaledArray",
    "to_array",
    "read",
    "eye",
    "stack",
    "contract",
    "left_mult",
]


_LEVEL = (list, tuple, np.ndarray)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def decide_mode(values):
    """True when every entry is exact (int or Fraction).

    A single float forces binary64 mode; a float meeting a Fraction in the
    same container is a hard error rather than a silent promotion, and a
    NaN or infinite float is rejected with InvalidValue.  A list, tuple
    or numpy array where a scalar belongs is a DimensionMismatch.
    """
    saw_float = False
    saw_frac = False
    for v in values:
        if isinstance(v, Fraction):
            saw_frac = True
        elif isinstance(v, float):
            if not math.isfinite(v):
                raise InvalidValue(f"non-finite entry {v!r}")
            saw_float = True
        elif isinstance(v, _LEVEL):
            raise DimensionMismatch(f"expected a scalar, got {v!r}")
        elif not _is_int(v):
            raise MixedModeError(f"unsupported scalar {v!r}")
    if saw_float and saw_frac:
        raise MixedModeError("exact rationals mixed with binary64 values")
    return not saw_float


def as_exact(v):
    if isinstance(v, Fraction):
        return v
    if _is_int(v):
        return Fraction(v)
    raise MixedModeError(f"binary64 value {v!r} used in an exact context")


def as_float(v):
    """v in binary64; InvalidValue when an exact v lies beyond its range,
    MixedModeError when v is no number."""
    try:
        return float(v)
    except OverflowError:
        raise InvalidValue(_BEYOND) from None
    except (TypeError, ValueError):
        raise MixedModeError(f"unsupported scalar {v!r}") from None


def coerce(v, exact):
    return as_exact(v) if exact else as_float(v)


def fmt(v):
    """Render a scalar for reports and files.

    Exact values serialize as integer or "p/q" strings so they survive a
    round trip; floats use 17 significant digits for the same reason.
    """
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if _is_int(v):
        return str(v)
    return f"{float(v):.17g}"


def scalar_to_json(v):
    """JSON payload for a scalar: string in exact mode, number otherwise."""
    if isinstance(v, Fraction) or _is_int(v):
        return fmt(v)
    return float(v)


def tolerance(exact, scale):
    """Slack of a verdict: none in exact mode, 1e-9 times scale in binary64."""
    return 0 if exact else 1e-9 * scale


def common_mode(*tensors):
    """The tensors in one arithmetic mode: as they are when every one is
    exact, else each one's to_float()."""
    if all(t.exact for t in tensors):
        return tensors
    return tuple(t.to_float() for t in tensors)


def _tupled(x):
    return tuple(map(_tupled, x)) if isinstance(x, list) else x


_fractions = np.frompyfunc(Fraction, 2, 1)
_ZERO = Fraction(0)
_BEYOND = "exact entry beyond the binary64 range"


@dataclass(frozen=True, eq=False)
class ScaledArray:
    """A tensor as it is stored: entry = num / den.

    Exact: num is an object array of Python ints and den a positive int.
    Binary64: num is a float64 array and den is 1.  Instances are never
    modified; arithmetic returns new ones.  Equality is by value and mode:
    the same tensor over two denominators is equal, and an exact tensor
    never equals a binary64 one.
    """

    num: np.ndarray
    den: int = 1

    @property
    def exact(self):
        return self.num.dtype == object

    def __eq__(self, other):
        return isinstance(other, ScaledArray) and self.exact == other.exact and (
            self.num.shape == other.num.shape
            and bool(np.all(self.num * other.den == other.num * self.den))
        )

    def __hash__(self):
        return hash((self.exact, self.tuples()))

    def to_float(self):
        """Each entry num / den correctly rounded, the float of its
        Fraction; InvalidValue when one lies beyond binary64."""
        try:
            return ScaledArray((self.num / self.den).astype(float)) if self.exact else self
        except OverflowError:
            raise InvalidValue(_BEYOND) from None

    def half(self):
        """The tensor over 2, exactly in both modes."""
        return ScaledArray(self.num, 2 * self.den) if self.exact else ScaledArray(self.num / 2)

    def _over(self, den):
        factor = den // self.den
        return self.num if factor == 1 else self.num * factor

    def __add__(self, other):
        den = math.lcm(self.den, other.den)
        return ScaledArray(self._over(den) + other._over(den), den)

    def __sub__(self, other):
        return self + ScaledArray(-other.num, other.den)

    def transpose(self, *axes):
        return ScaledArray(self.num.transpose(*axes), self.den)

    def reshape(self, *shape):
        return ScaledArray(self.num.reshape(*shape), self.den)

    def __getitem__(self, key):
        return ScaledArray(self.num[key], self.den)

    def scalar(self, v):
        """Entry value of the numerator v; binary64 reads -0.0 as 0.0, as
        the sums of plain loops give."""
        return Fraction(v, self.den) if self.exact else float(v) + 0.0

    def tuples(self):
        """Nested tuples of Fraction or float; a bare value when 0-d.  The
        exact zero entries share one Fraction, so a sparse tensor does not
        cost a Fraction per entry."""
        if not self.exact:
            return _tupled((self.num + 0.0).tolist())
        vals = np.full(self.num.shape, _ZERO, dtype=object)
        nonzero = self.num != 0
        vals[nonzero] = _fractions(self.num[nonzero], self.den)
        return _tupled(vals.tolist())

    def peak(self):
        """Largest |entry| in the entries' own type, integer 0 when every
        entry vanishes."""
        top = np.max(np.abs(self.num)) if self.num.size else 0
        return self.scalar(top) if top else 0

    def scale(self):
        """Largest |entry| as the binary64 scale of a tolerance; 0.0 in
        exact mode, whose verdicts take no slack and whose entries may lie
        beyond binary64."""
        return 0.0 if self.exact else float(self.peak())

    def beyond(self, tol):
        """Boolean mask of the entries with |entry| > tol."""
        return np.abs(self.num) > tol * self.den


def to_array(nested, exact):
    """ScaledArray of a nested container of one mode's scalars."""
    if exact:
        entries = np.array(nested, dtype=object)
        den = math.lcm(*(v.denominator for v in entries.flat))
        ints = [v.numerator * (den // v.denominator) for v in entries.flat]
        num = np.array(ints, dtype=object).reshape(entries.shape)
    else:
        try:
            num, den = np.array(nested, dtype=float), 1
        except OverflowError:  # an int beyond binary64
            raise InvalidValue(_BEYOND) from None
    num.flags.writeable = False
    return ScaledArray(num, den)


def read(value, ndim, n=None, exact=None):
    """ScaledArray of value, a nested array with ndim axes of length n, or
    of len(value) when n is None; the one reader of nested input (a
    document's arrays pass fileio's own reader first).

    A level is a list, tuple or numpy array, and any other nesting, a
    sequence among the entries included, is a DimensionMismatch.
    With exact None, decide_mode picks the mode from the entries, which
    to_array then takes as they are; with a mode given, each entry is
    coerced to it first.
    """
    try:
        n = len(value) if n is None else n
        entries = [value]
        for _ in range(ndim):
            if not all(isinstance(x, _LEVEL) and len(x) == n for x in entries):
                raise DimensionMismatch(f"expected {ndim} nested levels of {n} entries")
            entries = [v for x in entries for v in x]
    except TypeError:  # no length: a scalar or a 0-d numpy array
        raise DimensionMismatch(f"expected {ndim} nested levels of entries") from None
    if exact is None:
        exact = decide_mode(entries)
    elif any(isinstance(v, _LEVEL) for v in entries):
        raise DimensionMismatch("expected scalar entries, got a sequence")
    else:
        entries = [coerce(v, exact) for v in entries]
    return to_array(entries, exact).reshape((n,) * ndim)


def eye(n, exact):
    """The n x n identity as a ScaledArray."""
    return ScaledArray(np.eye(n, dtype=object if exact else float))


def stack(arrays):
    """The rows of ScaledArrays of one mode, one after another, over their
    common denominator."""
    den = math.lcm(*(a.den for a in arrays))
    return ScaledArray(np.concatenate([a._over(den) for a in arrays]), den)


# int64 pays once the multiply-adds reach INT64_WORK_FLOOR plus
# INT64_WORK_PER_ENTRY per entry it converts (the operands to int64, the
# result back), since a cast costs about an object multiply-add; fitted to
# per-spec, per-size timings from tools/contract_crossover.py
INT64_WORK_FLOOR = 256
INT64_WORK_PER_ENTRY = 1.5
_INT64_MAX = 2**63 - 1


def _fits_int64(spec, nums):
    """Whether the einsum of an explicit "in,in->out" spec over the exact
    numerators nums is worth running on int64 and provably fits it."""
    inputs, output = spec.split("->")
    sizes = {}
    for labels, num in zip(inputs.split(","), nums):
        sizes.update(zip(labels, num.shape))
    work = math.prod(sizes.values())
    out = math.prod(sizes[c] for c in output)
    entries = sum(num.size for num in nums) + out
    if work < INT64_WORK_FLOOR + INT64_WORK_PER_ENTRY * entries:
        return False
    bound = work // out  # the number of summed terms
    for num in nums:
        # at least 1, so the bound also covers each operand's own entries
        bound *= max(num.max(), -num.min(), 1)
    return bound <= _INT64_MAX


def contract(spec, *arrays):
    """np.einsum over the numerators, on int64 copies when an exact result
    provably fits and the work repays the casts; the denominators multiply.
    A binary64 result reads -0.0 as 0.0, as the sums of plain loops give."""
    nums = [a.num for a in arrays]
    dtype = nums[0].dtype
    if dtype == object and _fits_int64(spec, nums):
        nums = [n.astype(np.int64) for n in nums]
    num = np.asarray(np.einsum(spec, *nums)).astype(dtype, copy=False)
    return ScaledArray(num if dtype == object else num + 0.0, math.prod(a.den for a in arrays))


def left_mult(table, x):
    """Matrix of y -> x y for a bilinear table t[i][j][k] (the coefficient
    of e_k in e_i e_j), acting on coordinate columns: rows k, columns j.

    Serves ad_x (the bracket table) and L_x (a product tensor) alike, on
    ScaledArrays or on bare float64 arrays.
    """
    if isinstance(table, ScaledArray):
        return contract("ijk,i->kj", table, x)
    return np.einsum("ijk,i->kj", table, x)
