"""Scalar plumbing for the two arithmetic modes.

Exact tensors hold fractions.Fraction values, approximate ones binary64
floats.  A tensor never mixes modes: construction inspects the entries
once, and ScaledArray.to_float is the one crossing from exact to binary64.
Ints are welcome in either mode and promote to the tensor's type.

A tensor is stored as a ScaledArray, and this module owns that choice: in
exact mode an array of integer numerators over one common denominator,
in binary64 a float64 array over 1.  Every tensor kernel is one call of
contract, the same expression in both modes, and tuples() builds the
read-only nested tuples of Fraction or float.  Each tensor class is a
record over StoredTensor, whose one ScaledArray field, array, gives its
size, mode, nested view (c, matrix, gamma or r), vector reads and
binary64 copy.

Every record of the package, tensors, reports, specs and results alike,
is made by record: what dataclasses.dataclass(frozen=True) makes, with no
code generated at import.  Its __init__ is a template function renamed to
the fields, as quick per call as dataclass's; its repr, == and hash read
one operator.attrgetter, slower per call and on no timed path.

contract plans each (spec, shapes) once.  Two operands with a summed
label and no trace, batch or one-sided summed label run as one matrix
product when the product of all index sizes reaches LOWERING_FLOOR, one
constant for both modes fitted with tools/contract_crossover.py; every
other contraction is one np.einsum.

An exact tensor lives on one of two lanes, by one rule its constructor
keeps: int64 numerators exactly when every one fits (largest |numerator|
at most 2**63 - 1, so -2**63 stays off int64 and abs cannot wrap), else
an object-dtype array of Python ints of any size; ScaledArray.wide alone
holds fitting numerators as Python ints.  Binary64 is the third lane,
float64.  Every operation proves a bound on its result from each
operand's largest |numerator| before it runs on machine numbers.  A
contraction's bound is max(summed terms, 1) times the product of each
operand's max(top, 1), so it covers every operand entry as well as every
partial sum; lowered, it runs on float64 when the bound is at most
2**53, so every product and partial sum is an integer float64 holds
exactly, in any order, else on int64 when it is at most 2**63 - 1, so no
partial sum can overflow.  + and - stay on int64 when each operand's
max(top, 1) times its factor to the common denominator, summed, fits
too; an operand on Python ints fails that bound unread.  An operation
whose bound fails runs on Python ints; its result returns to int64 when
it fits.
An exact result keeps the bound its operation proved, beside its cached
top and through transpose, reshape, wide and numerators, and the next
operation takes that bound in place of the operand's top: the exact top
(ScaledArray.top, an np.abs and a reduction, read once) is read only for
an operand with no bound, or when the bounds miss the best lane the
operation allows.  A bound never understates top, so every lane is the
one the exact tops give.
Every value handed out, by peak, scalar, tuples and to_float, is read
as Python ints, so no numpy integer reaches a Fraction; code outside
this module that computes with exact numerators reads them through wide,
so none wraps.  Exact verdicts take no slack, so they never need a
binary64 scale of their entries (see ScaledArray.scale); converting an
exact entry beyond binary64 raises InvalidValue.

Nested input of every kind, a structure table, a form, an operator, a
builder's theta or phi and the vectors of the tensor methods, is read by
one function, read: it checks the shape level by level, types any other
nesting as a DimensionMismatch, checks each entry by decide_mode's rule
and takes the mode the caller gives or the one decide_mode finds in the
entries.  to_array stays the reader of rows that library code has built
in a known mode.
"""

import contextlib
import dataclasses
import math
import operator
import types
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidValue, MixedModeError

__all__ = [
    "decide_mode",
    "as_exact",
    "coerce",
    "fmt",
    "scalar_to_json",
    "FLOAT_RTOL",
    "tolerance",
    "common_mode",
    "record",
    "ScaledArray",
    "StoredTensor",
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


def _kinds(values):
    """Whether values hold a float and whether a Fraction.  A NaN or
    infinite float is an InvalidValue, a list, tuple or numpy array a
    DimensionMismatch, and a bool or any other non-number a MixedModeError."""
    saw_float = False
    saw_frac = False
    for v in values:
        # float first: isinstance(v, Fraction) runs ABCMeta's check on others
        if isinstance(v, float):
            if not math.isfinite(v):
                raise InvalidValue(f"non-finite entry {v!r}")
            saw_float = True
        elif isinstance(v, Fraction):
            saw_frac = True
        elif isinstance(v, _LEVEL):
            raise DimensionMismatch(f"expected a scalar, got {v!r}")
        elif not _is_int(v):
            raise MixedModeError(f"unsupported scalar {v!r}")
    return saw_float, saw_frac


def decide_mode(values):
    """True when every entry is exact (int or Fraction), each checked by
    _kinds.  A single float forces binary64 mode; a float meeting a
    Fraction in the same container is a hard error rather than a silent
    promotion."""
    saw_float, saw_frac = _kinds(values)
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


# the relative slack of every binary64 verdict and rank cut
FLOAT_RTOL = 1e-9


def tolerance(exact, scale):
    """Slack of a verdict: none in exact mode, FLOAT_RTOL * scale in binary64."""
    return 0 if exact else FLOAT_RTOL * scale


def _quiet(exact):
    """np.errstate under which a binary64 entry beyond binary64 becomes inf,
    and inf - inf nan, with no numpy warning, for _finite to refuse; exact
    arithmetic skips it, and an errstate per sum or kernel slows the
    certificates."""
    return contextlib.nullcontext() if exact else np.errstate(invalid="ignore", over="ignore")


def _finite(x, what):
    """x, a ScaledArray; InvalidValue when a binary64 entry of it is not finite."""
    if not math.isfinite(x.scale()):
        raise InvalidValue(f"the {what} overflows binary64")
    return x


def common_mode(*tensors):
    """The tensors in one arithmetic mode: as they are when every one is
    exact, else each one's to_float()."""
    if all(t.exact for t in tensors):
        return tensors
    return tuple(t.to_float() for t in tensors)


def _nested(flat, shape):
    """Row-major values as nested tuples of this shape, built level by
    level from the innermost; a bare value when 0-d."""
    for k in range(len(shape) - 1, 0, -1):
        size = shape[k]
        flat = list(zip(*[iter(flat)] * size)) if size else [()] * math.prod(shape[:k])
    return tuple(flat) if shape else flat[0]


_fractions = np.frompyfunc(Fraction, 2, 1)
_ZERO = Fraction(0)
_BEYOND = "exact entry beyond the binary64 range"


_FLOAT = np.dtype(float)
_INT64 = np.dtype(np.int64)
_OBJECT = np.dtype(object)
_INT64_MAX = 2**63 - 1
# float64 holds every integer of magnitude at most 2**53 exactly
_FLOAT_EXACT = 2**53


def _aligned(x, y, op):
    """op, np.add or np.subtract, of two ScaledArrays of one mode over
    their common denominator.  Exact numerators stay on int64 when
    max(largest |numerator|, 1) times the factor to the common
    denominator, summed over the two, fits, so neither a factor nor a
    scaled entry nor a sum or difference of two can wrap; else, and at
    once when either is on Python ints, they are Python ints.  The sum is
    taken over the operands' bounds (ScaledArray.bound) and stored as the
    result's; each operand's exact top is read only when that sum misses
    int64, so the lane is the one the exact tops give."""
    a, b = x.num, y.num
    if a.dtype == _FLOAT:  # binary64, over 1
        return ScaledArray(op(a, b))
    den = math.lcm(x.den, y.den)
    fa, fb = den // x.den, den // y.den
    if _OBJECT in (a.dtype, b.dtype):  # Python ints; a bound only if stored
        ta, tb = x.__dict__.get("bound"), y.__dict__.get("bound")
        bound = None if ta is None or tb is None else max(ta, 1) * fa + max(tb, 1) * fb
        a, b = x.wide().num, y.wide().num
    else:
        bound = max(x.bound, 1) * fa + max(y.bound, 1) * fb
        if bound > _INT64_MAX:
            bound = max(x.top, 1) * fa + max(y.top, 1) * fb
            if bound > _INT64_MAX:
                a, b = x.wide().num, y.wide().num
    out = ScaledArray(op(a if fa == 1 else a * fa, b if fb == 1 else b * fb), den)
    if bound is not None:
        out.__dict__["bound"] = bound
    return out


class _kept:
    """functools.cached_property without its lock, which on Python 3.11
    costs about a third of a small tensor's largest-entry read."""

    def __init__(self, read, name=None):
        self.read = read
        self.name = name or read.__name__
        self.__doc__ = read.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.read(obj)
        return value


_set = object.__setattr__


# Templates of a record's __init__ for one to eight fields, the code
# dataclass generates but written over the names a0, a1, ...; record gives
# each class a copy of one with those names replaced by its field names (see
# _renamed), so that __init__ binds positions, keywords and defaults as any
# function does, and costs no more per call than dataclass's.
def _init1(self, a0):
    _set(self, "a0", a0)


def _init2(self, a0, a1):
    _set(self, "a0", a0)
    _set(self, "a1", a1)


def _init3(self, a0, a1, a2):
    _set(self, "a0", a0)
    _set(self, "a1", a1)
    _set(self, "a2", a2)


def _init4(self, a0, a1, a2, a3):
    _set(self, "a0", a0)
    _set(self, "a1", a1)
    _set(self, "a2", a2)
    _set(self, "a3", a3)


def _init5(self, a0, a1, a2, a3, a4):
    _set(self, "a0", a0)
    _set(self, "a1", a1)
    _set(self, "a2", a2)
    _set(self, "a3", a3)
    _set(self, "a4", a4)


def _init6(self, a0, a1, a2, a3, a4, a5):
    _set(self, "a0", a0)
    _set(self, "a1", a1)
    _set(self, "a2", a2)
    _set(self, "a3", a3)
    _set(self, "a4", a4)
    _set(self, "a5", a5)


def _init7(self, a0, a1, a2, a3, a4, a5, a6):
    _set(self, "a0", a0)
    _set(self, "a1", a1)
    _set(self, "a2", a2)
    _set(self, "a3", a3)
    _set(self, "a4", a4)
    _set(self, "a5", a5)
    _set(self, "a6", a6)


def _init8(self, a0, a1, a2, a3, a4, a5, a6, a7):
    _set(self, "a0", a0)
    _set(self, "a1", a1)
    _set(self, "a2", a2)
    _set(self, "a3", a3)
    _set(self, "a4", a4)
    _set(self, "a5", a5)
    _set(self, "a6", a6)
    _set(self, "a7", a7)


_INITS = (_init1, _init2, _init3, _init4, _init5, _init6, _init7, _init8)


def _renamed(template, names, qualname, defaults=None):
    """A copy of the function template with a0, a1, ... replaced by names
    wherever they stand: parameters and strings."""
    to = {f"a{k}": name for k, name in enumerate(names)}

    def rename(items):
        return tuple(to.get(x, x) if isinstance(x, str) else x for x in items)

    code = template.__code__
    code = code.replace(co_varnames=rename(code.co_varnames), co_consts=rename(code.co_consts),
                        co_name=qualname.rpartition(".")[2])
    if hasattr(code, "co_qualname"):  # Python 3.11+, named in TypeErrors
        code = code.replace(co_qualname=qualname)
    return types.FunctionType(code, template.__globals__, code.co_name, defaults)


def _refuse_assignment(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Class decorator: the record that dataclasses.dataclass(frozen=True)
    makes of cls, but made with no code generated and run through exec,
    which costs a class about 0.6-0.9 ms at import.

    The fields are the annotated class attributes, after those of any
    record base, a class attribute's value being the field's default; one
    to eight fields, and no field without a default after one with.  cls
    gains __init__, __repr__ as QualName(f=v, ...), __eq__ on the tuple of
    the fields (NotImplemented against another class), a __hash__ of that
    tuple, __match_args__, and a __setattr__ and __delattr__ raising
    FrozenInstanceError.  __init__ is the template above _renamed to the
    fields, as quick per call as dataclass's; __repr__, __eq__ and __hash__
    read the field tuple through one operator.attrgetter, slower per call
    than dataclass's and on no timed path.  A method that cls defines
    itself is kept (an __init__ then not built), as dataclass keeps it
    under init=False or eq=False.

    __dataclass_fields__ holds a dataclasses.field() per field, so that
    dataclasses.fields, replace, asdict and is_dataclass read a record as
    a dataclass.  That marks each field with dataclasses' private _FIELD
    sentinel, which those functions check.
    """
    own = cls.__dict__
    fields = {}
    for base in cls.__mro__[-1:0:-1]:
        fields.update(getattr(base, "__dataclass_fields__", {}))
    # cls.__annotations__, not own["__annotations__"]: from Python 3.14 a
    # class keeps its annotations behind __annotate__
    for name, kind in cls.__annotations__.items():
        f = dataclasses.field(default=own.get(name, dataclasses.MISSING))
        f.name, f.type, f._field_type = name, kind, dataclasses._FIELD
        fields[name] = f
    names = tuple(fields)
    if not 0 < len(names) <= len(_INITS):
        raise TypeError(f"a record takes 1 to {len(_INITS)} fields, not {len(names)}")
    required = [f.default is dataclasses.MISSING for f in fields.values()]
    if required != sorted(required, reverse=True):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with")
    get = operator.attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)
    template = ", ".join(f"{name}=%r" for name in names)

    def __repr__(self):
        return f"{self.__class__.__qualname__}({template % values(self)})"

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    methods = {
        "__repr__": __repr__,
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__setattr__": _refuse_assignment,
        "__delattr__": _refuse_deletion,
        "__match_args__": names,
    }
    if "__init__" not in own:
        defaults = tuple(f.default for f in fields.values() if f.default is not dataclasses.MISSING)
        init = _renamed(_INITS[len(names) - 1], names, f"{cls.__qualname__}.__init__", defaults)
        init.__annotations__ = {**{name: f.type for name, f in fields.items()}, "return": None}
        methods["__init__"] = init
    cls.__dataclass_fields__ = fields
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    return cls


class StoredTensor:
    """Base of a record (see record) storing a tensor as one ScaledArray
    field, array.  A subclass names its nested view, array.tuples() built on first
    read and kept, as in class LieAlgebra(StoredTensor, view="c")."""

    def __init_subclass__(cls, view=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if view is not None:
            setattr(cls, view, _kept(lambda self: self.array.tuples(), view))

    @property
    def dim(self):
        return self.array.num.shape[0]

    @property
    def exact(self):
        return self.array.exact

    def vector(self, x):
        """x read as a vector of this tensor's size, in its mode."""
        return read(x, 1, self.dim, self.exact)

    def to_float(self):
        """array in binary64, every other field kept; self when binary64."""
        return dataclasses.replace(self, array=self.array.to_float()) if self.exact else self


@record
class ScaledArray:
    """A tensor as it is stored: entry = num / den.

    Exact: num is int64 exactly when every numerator fits (the constructor
    narrows object arrays), else Python ints, and den a positive int.
    Binary64: num is a float64 array and den is 1.  Instances are never
    modified; arithmetic returns new ones.  Equality is by value and mode:
    the same tensor over two denominators or on two lanes is equal, and an
    exact tensor never equals a binary64 one.

    Beside the two fields, the instance dict holds top once read and
    bound, an upper bound on top: on an exact result of +, - or contract
    the one the operation proved, else top once read as bound.  Neither
    enters repr, ==, hash or dataclasses.fields.  The next operation reads
    bound in place of top (see _aligned and _lane), so only peak, scale
    and the operations whose bounds miss read the exact top.
    """

    num: np.ndarray
    den: int = 1

    def __init__(self, num, den=1):
        if num.dtype == _OBJECT:  # Python ints: on int64 when all fit
            try:
                small = num.astype(_INT64)
                num = small if not small.size or small.min() >= -_INT64_MAX else num
            except OverflowError:  # one beyond int64
                pass
        # frozen: the fields are set once, past the record's __setattr__
        self.__dict__.update(num=num, den=den)

    @property
    def exact(self):
        return self.num.dtype != _FLOAT

    @_kept
    def top(self):
        """Largest |numerator|, read once: a Python int in exact mode, a
        float in binary64, 0 with no entry.  No int64 entry is -2**63, so
        abs cannot wrap."""
        num = self.num
        top = np.maximum.reduce(np.abs(num), axis=None) if num.size else 0
        return float(top) if num.dtype == _FLOAT else int(top)

    @_kept
    def bound(self):
        """An upper bound on top: the one the operation that made this
        tensor proved, which it stored, else top itself."""
        return self.top

    def _as(self, num, **fields):
        """These numerators as num, rearranged or as Python ints, held as
        given (not narrowed), with this denominator unless fields give
        another, and the top read or bound stored, if any, which the
        numerators share, so no later operation reads them again."""
        out = object.__new__(ScaledArray)
        out.__dict__.update(self.__dict__, num=num, **fields)
        return out

    def numerators(self):
        """The numerators over 1, a positive multiple of this tensor, with
        its top read or bound stored kept; self when over 1."""
        return self if self.den == 1 else self._as(self.num, den=1)

    def wide(self):
        """The same tensor with exact numerators as Python ints, safe for
        any arithmetic; a tensor already on Python ints or in binary64 as
        it is.  The one way to hold numerators that fit int64 as Python
        ints."""
        return self._as(self.num.astype(object)) if self.num.dtype == _INT64 else self

    def __eq__(self, other):
        if not (isinstance(other, ScaledArray) and self.exact == other.exact):
            return False
        a, b = self.wide().num, other.wide().num
        return a.shape == b.shape and bool(np.all(a * other.den == b * self.den))

    def __hash__(self):
        return hash((self.exact, self.tuples()))

    def to_float(self):
        """Each entry num / den correctly rounded, the float of its
        Fraction; InvalidValue when one lies beyond binary64."""
        if not self.exact:
            return self
        try:
            return ScaledArray((self.wide().num / self.den).astype(float))
        except OverflowError:
            raise InvalidValue(_BEYOND) from None

    def half(self):
        """The tensor over 2, exactly in both modes."""
        return ScaledArray(self.num, 2 * self.den) if self.exact else ScaledArray(self.num / 2)

    def __add__(self, other):
        return _aligned(self, other, np.add)

    def __sub__(self, other):
        return _aligned(self, other, np.subtract)

    def transpose(self, *axes):
        return self._as(self.num.transpose(*axes))

    def reshape(self, *shape):
        return self._as(self.num.reshape(*shape))

    def __getitem__(self, key):
        return ScaledArray(self.num[key], self.den)

    def scalar(self, v):
        """Entry value of the numerator v; binary64 reads -0.0 as 0.0, as
        the sums of plain loops give."""
        return Fraction(int(v), self.den) if self.exact else float(v) + 0.0

    def tuples(self):
        """Nested tuples of Fraction or float; a bare value when 0-d.  The
        exact zero entries share one Fraction, so a sparse tensor does not
        cost a Fraction per entry."""
        if not self.exact:
            return _nested((self.num + 0.0).ravel().tolist(), self.num.shape)
        flat = self.num.ravel()
        vals = np.full(flat.size, _ZERO, dtype=object)
        nonzero = flat != 0
        # the object ufunc reads int64 entries as Python ints
        vals[nonzero] = _fractions(flat[nonzero], self.den)
        return _nested(vals.tolist(), self.num.shape)

    def peak(self):
        """Largest |entry| in the entries' own type, integer 0 when every
        entry vanishes."""
        return self.scalar(self.top) if self.top else 0

    def scale(self):
        """Largest |entry| as the binary64 scale of a tolerance; 0.0 in
        exact mode, whose verdicts take no slack and whose entries may lie
        beyond binary64."""
        return 0.0 if self.exact else self.top

    def beyond(self, tol):
        """Boolean mask of the entries with |entry| > tol."""
        return np.abs(self.num) > tol * self.den


def to_array(nested, exact):
    """ScaledArray of a nested container of one mode's scalars; exact ones,
    ints and Fractions, are read once each, and read's flat list as it is."""
    if exact:
        flat = isinstance(nested, list) and not (nested and isinstance(nested[0], _LEVEL))
        entries = nested if flat else np.array(nested, dtype=object)
        ratios = [v.as_integer_ratio() for v in (entries if flat else entries.flat)]
        den = math.lcm(*{d for _, d in ratios})
        ints = [n for n, _ in ratios] if den == 1 else [n * (den // d) for n, d in ratios]
        out = ScaledArray(np.array(ints, dtype=object).reshape(-1 if flat else entries.shape), den)
    else:
        try:
            out = ScaledArray(np.array(nested, dtype=float))
        except OverflowError:  # an int beyond binary64
            raise InvalidValue(_BEYOND) from None
    out.num.flags.writeable = False
    return out


def read(value, ndim, n=None, exact=None):
    """ScaledArray of value, a nested array with ndim axes of length n, or
    of len(value) when n is None; the one reader of nested input (a
    document's arrays pass fileio's own reader first).

    A level is a list, tuple or numpy array, and any other nesting, a
    sequence among the entries included, is a DimensionMismatch.
    Each entry passes decide_mode's checks.  With exact None, decide_mode
    picks the mode from the entries, which to_array then takes as they
    are; with a mode given, each entry is coerced to it first.
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
    else:
        _kinds(entries)
        entries = [coerce(v, exact) for v in entries]
    return to_array(entries, exact).reshape((n,) * ndim)


def eye(n, exact):
    """The n x n identity as a ScaledArray."""
    return ScaledArray(np.eye(n, dtype=_INT64 if exact else _FLOAT))


def stack(arrays):
    """The rows of ScaledArrays of one mode, one after another, over their
    common denominator."""
    den = math.lcm(*(a.den for a in arrays))
    rows = [a if a.den == den else ScaledArray(a.wide().num * (den // a.den), den) for a in arrays]
    return ScaledArray(np.concatenate([a.num for a in rows]), den)


# a lowerable contraction whose index sizes multiply to at least this runs
# as one matrix product, in both modes; fitted with
# tools/contract_crossover.py
LOWERING_FLOOR = 625


def _lowering(inputs, output, sizes):
    """The contraction of two operands as one matrix product, a function of
    their numerator arrays; None for other than two operands, a trace, a
    batch label, a label summed in one operand only, or no summed label.
    The left operand is the one that copies fewer entries, then the one
    whose result needs no transpose back."""
    if len(inputs) != 2:
        return None
    a, b = inputs
    if not (
        set(a) & set(b)
        and len(set(a)) == len(a)
        and len(set(b)) == len(b)
        and len(set(output)) == len(output)
        and set(output) == set(a) ^ set(b)
    ):
        return None

    def size(labels):
        return math.prod(sizes[c] for c in labels)

    def layout(x, y):
        """x's free labels, the summed ones in x's order, y's free labels."""
        return (
            "".join(c for c in x if c not in y),
            "".join(c for c in x if c in y),
            "".join(c for c in y if c not in x),
        )

    def cost(x, y):  # with x on the left
        left, summed, right = layout(x, y)
        copied = (x != left + summed) * size(x) + (y != summed + right) * size(y)
        return copied, output != left + right

    swap = cost(b, a) < cost(a, b)
    x, y = (b, a) if swap else (a, b)
    left, summed, right = layout(x, y)
    to_left = [x.index(c) for c in left + summed]
    to_right = [y.index(c) for c in summed + right]
    back = [(left + right).index(c) for c in output]
    rows, inner, cols = size(left), size(summed), size(right)
    shape = [sizes[c] for c in left + right]

    def lower(x, y):
        if swap:
            x, y = y, x
        z = x.transpose(to_left).reshape(rows, inner) @ y.transpose(to_right).reshape(inner, cols)
        return z.reshape(shape).transpose(back)

    return lower


class _Plan(NamedTuple):
    """How contract runs a spec on operands of given shapes."""

    lower: object  # the matrix product of _lowering, or None
    terms: int  # summed terms per result entry


@lru_cache(maxsize=1024)
def _plan(spec, *shapes):
    """The _Plan of an explicit "in,in->out" spec on operands of these
    shapes, worked out once; no lowering below LOWERING_FLOOR."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    sizes = {}
    for labels, shape in zip(inputs, shapes):
        sizes.update(zip(labels, shape))
    work = math.prod(sizes.values())
    lower = _lowering(inputs, output, sizes) if work >= LOWERING_FLOOR else None
    return _Plan(lower, math.prod(n for c, n in sizes.items() if c not in output))


def _lane(plan, arrays):
    """The dtype an exact contraction runs on, float64 (lowered, bound at
    most 2**53), int64 (bound at most 2**63 - 1) or object, and that bound
    on the result's largest |numerator|.  The bound is taken over the
    operands' bounds (ScaledArray.bound) first; their exact tops are read
    only when it misses the best lane the plan allows, so the lane is the
    one the exact tops give."""
    # max(.., 1), so the bound also covers each operand's own entries,
    # even with no summed term; loops, as math.prod over a generator takes
    # about a third longer here
    bound = max(plan.terms, 1)
    for a in arrays:
        bound *= max(a.bound, 1)
    if bound > (_FLOAT_EXACT if plan.lower else _INT64_MAX):
        bound = max(plan.terms, 1)
        for a in arrays:
            bound *= max(a.top, 1)
    if plan.lower and bound <= _FLOAT_EXACT:
        return _FLOAT, bound
    return (_INT64 if bound <= _INT64_MAX else _OBJECT), bound


def contract(spec, *arrays):
    """np.einsum(spec) over the numerators, or the same contraction as one
    matrix product where _plan lowers it; the denominators multiply.  A
    binary64 result reads -0.0 as 0.0, as the sums of plain loops give.  An
    exact one runs on the lane _lane picks, from the operands' stored
    bounds where they suffice, and stores _lane's bound; it is int64 from
    the float64 and int64 lanes, and from the object lane it is stored by
    the lane rule."""
    if len(arrays) == 2:  # most contractions: the plan's key needs no list
        nums = arrays[0].num, arrays[1].num
        plan = _plan(spec, nums[0].shape, nums[1].shape)
    else:
        nums = [a.num for a in arrays]
        plan = _plan(spec, *[num.shape for num in nums])
    if nums[0].dtype == _FLOAT:
        lower = plan.lower
        return ScaledArray(np.asarray(lower(*nums) if lower else np.einsum(spec, *nums)) + 0.0)
    den = math.prod(a.den for a in arrays)
    lane, bound = _lane(plan, arrays)
    nums = [n if n.dtype == lane else n.astype(lane) for n in nums]
    if lane == _FLOAT:
        out = ScaledArray(plan.lower(*nums).astype(_INT64), den)
    else:
        out = ScaledArray(np.asarray(np.einsum(spec, *nums)).astype(lane, copy=False), den)
    out.__dict__["bound"] = bound
    return out


def left_mult(table, x):
    """Matrix of y -> x y for a bilinear table t[i][j][k] (the coefficient
    of e_k in e_i e_j), acting on coordinate columns: rows k, columns j.

    Serves ad_x (the bracket table) and L_x (a product tensor) alike, on
    ScaledArrays in either mode.
    """
    return contract("ijk,i->kj", table, x)
