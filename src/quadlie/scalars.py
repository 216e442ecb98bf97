"""Scalar plumbing for the two arithmetic modes.

Exact containers hold fractions.Fraction entries, approximate ones hold
binary64 floats.  A container never mixes modes: construction inspects the
entries once, and to_float() on the owning object is the only crossing.
Ints are welcome in either mode and promote to the container's type.

For arithmetic a tensor is held as a ScaledArray, and this module owns
that choice: in exact mode an object-dtype numpy array of Python ints over
one common denominator (the lcm of the entries' denominators), in binary64
a float64 array over 1.  Every tensor kernel is one np.einsum contraction
over these arrays, the same expression in both modes, and tuples() is the
one way back to nested tuples of Fraction or float.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MixedModeError

__all__ = [
    "decide_mode",
    "as_exact",
    "coerce",
    "coerce_vector",
    "coerce_matrix",
    "fmt",
    "scalar_to_json",
    "max_abs",
    "flatten",
    "tolerance",
    "ScaledArray",
    "to_array",
    "vector",
    "contract",
    "left_mult",
]


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def decide_mode(values):
    """True when every entry is exact (int or Fraction).

    A single float forces binary64 mode; a float meeting a Fraction in the
    same container is a hard error rather than a silent promotion.
    """
    saw_float = False
    saw_frac = False
    for v in values:
        if isinstance(v, Fraction):
            saw_frac = True
        elif isinstance(v, float):
            saw_float = True
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


def coerce(v, exact):
    return as_exact(v) if exact else float(v)


def coerce_vector(xs, exact):
    return tuple(coerce(v, exact) for v in xs)


def coerce_matrix(rows, exact):
    return tuple(tuple(coerce(v, exact) for v in row) for row in rows)


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


def flatten(nested):
    """Yield scalars from arbitrarily nested sequences."""
    stack = [nested]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        else:
            yield item


def max_abs(nested):
    """Largest |entry| over a nested container, in the entries' own type.

    Empty input gives integer 0, which both modes accept.
    """
    best = 0
    for v in flatten(nested):
        a = -v if v < 0 else v
        if a > best:
            best = a
    return best


def tolerance(exact, scale):
    """Slack of a verdict: none in exact mode, 1e-9 times scale in binary64."""
    return 0 if exact else 1e-9 * scale


def _tupled(x):
    return tuple(map(_tupled, x)) if isinstance(x, list) else x


_fractions = np.frompyfunc(Fraction, 2, 1)


@dataclass(frozen=True, eq=False)
class ScaledArray:
    """A tensor held for arithmetic: entry = num / den.

    Exact: num is an object array of Python ints and den a positive int.
    Binary64: num is a float64 array and den is 1.  Instances are never
    modified; arithmetic returns new ones.
    """

    num: np.ndarray
    den: int = 1

    @property
    def exact(self):
        return self.num.dtype == object

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

    def scalar(self, v):
        """Entry value of the numerator v; binary64 reads -0.0 as 0.0, as
        the sums of plain loops give."""
        return Fraction(v, self.den) if self.exact else float(v) + 0.0

    def tuples(self):
        """Nested tuples of Fraction or float; a bare value when 0-d."""
        vals = _fractions(self.num, self.den) if self.exact else self.num + 0.0
        return _tupled(np.asarray(vals).tolist())

    def peak(self):
        """Largest |entry| in the entries' own type, integer 0 when every
        entry vanishes, as max_abs gives for the nested tuples."""
        top = np.max(np.abs(self.num)) if self.num.size else 0
        return self.scalar(top) if top else 0

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
        num, den = np.array(nested, dtype=float), 1
    num.flags.writeable = False
    return ScaledArray(num, den)


def vector(x, exact):
    """ScaledArray of a vector, coerced to the mode first."""
    return to_array(coerce_vector(x, exact), exact)


def contract(spec, *arrays):
    """np.einsum over the numerators; the denominators multiply."""
    nums = [a.num for a in arrays]
    num = np.asarray(np.einsum(spec, *nums), dtype=nums[0].dtype)
    return ScaledArray(num, math.prod(a.den for a in arrays))


def left_mult(table, x):
    """Matrix of y -> x y for a bilinear table t[i][j][k] (the coefficient
    of e_k in e_i e_j), acting on coordinate columns: rows k, columns j.

    Serves ad_x (the bracket table) and L_x (a product tensor) alike, on
    ScaledArrays or on bare float64 arrays in the integrator's inner loop.
    """
    if isinstance(table, ScaledArray):
        return ScaledArray(left_mult(table.num, x.num), table.den * x.den)
    return np.einsum("ijk,i->kj", table, x)
