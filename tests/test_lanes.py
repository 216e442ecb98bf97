"""The two exact lanes of a ScaledArray agree: int64 numerators, which a
tensor holds exactly when every one fits, and Python ints, which take
numerators of any size (and, through wide(), fitting ones too).

Each operation must give the same tensor on either lane, Fraction for
Fraction, for numerators up to the int64 edge and denominators beyond
int64, and store it on the lane its numerators fit; every Fraction handed
out must hold Python ints; and to_float must round once.
"""

import dataclasses
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _rowmath
import quadlie
from quadlie import (
    ProductTensor,
    build_cotangent_double,
    build_double_extension,
    build_oscillator,
    build_two_step,
    catalog,
    check_ad_invariance,
    curvature,
    flatness_report,
    levi_civita,
    linalg,
    polynomial_geodesic_check,
    product_report,
    scalars,
    similarity_invariants,
    structure_report,
    two_step_metric,
    validate_algebra,
    validate_form,
)
from quadlie.errors import AntisymmetryViolation, Degenerate, JacobiViolation

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
    """The same exact tensor on the int64 lane and, through wide(), on
    Python ints."""
    small = scalars.ScaledArray(np.array(values, dtype=np.int64).reshape(shape), den)
    return small, small.wide()


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


def _on_its_lane(a):
    """a holds its numerators on int64 exactly when every one fits."""
    assert (a.num.dtype == INT64) == (_top(a) <= INT64_MAX)


def _same(got, want):
    """got equals the result want, computed on Python ints, numerator for
    numerator over the same denominator, so nothing wrapped, and by value
    and hash; both lie on the lane their numerators fit."""
    assert got.den == want.den and list(map(int, got.num.flat)) == list(map(int, want.num.flat))
    assert got == want and hash(got) == hash(want)
    assert got.tuples() == want.tuples() and _python_ints(got.tuples())
    _on_its_lane(got)
    _on_its_lane(want)


@PROFILE
@given(tensors(), tensors())
def test_sums_and_differences_agree_on_both_lanes(a, b):
    (ai, ao), (bi, bo) = a, b
    for op in (operator.add, operator.sub):
        want = op(ao, bo)
        for x, y in ((ai, bi), (ai, bo), (ao, bi)):
            _same(op(x, y), want)


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
            # int64 whenever the bound fits, on either lane of the operands
            assert got.num.dtype == INT64 or not fits

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


# ---------------------------------------------------------------------------
# stored tensors: int64 exactly when every numerator fits


@pytest.mark.parametrize("sign", [1, -1])
def test_to_array_stores_numerators_to_the_int64_edge_on_int64(sign):
    # over the lcm denominator 7, (2**63 - 1) / 7 becomes 2**63 - 1
    entries = [sign * Fraction(INT64_MAX // 7), Fraction(1, 7)]
    edge = scalars.to_array(entries, True)
    assert edge.den == 7 and edge.num.dtype == INT64
    assert int(edge.num[0]) == sign * INT64_MAX and edge.tuples() == tuple(entries)
    # over 2, 2**62 becomes 2**63: beyond int64, and so is -2**63 here
    entries = [sign * Fraction(2**62), Fraction(1, 2)]
    beyond = scalars.to_array(entries, True)
    assert beyond.den == 2 and beyond.num.dtype == object
    assert beyond.num[0] == sign * 2**63 and beyond.tuples() == tuple(entries)
    assert scalars.read(entries, 1) == beyond and scalars.read(entries, 1).num.dtype == object


@pytest.mark.parametrize("entries", [
    [Fraction(1, 2), Fraction(-1, 3), 5, Fraction(0)],
    [Fraction(2**70), Fraction(1, 3), -1],
    [Fraction(-(2**63)), 1],
    [Fraction(-(2**63) + 1), 1],
    [Fraction(-(2**63), 3), Fraction(1, 3)],
    [Fraction(INT64_MAX, 5), Fraction(-INT64_MAX, 5), Fraction(2, 5)],
    [Fraction(2**62, 3), Fraction(1, 2)],
    [0, 0, 0],
    [],
])
def test_to_array_reads_flat_and_nested_entries_alike(entries):
    # the reference: numerators over the lcm denominator, on int64 exactly
    # when every one is within +-(2**63 - 1)
    den = math.lcm(*(Fraction(v).denominator for v in entries))
    nums = [int(v * den) for v in entries]
    lane = INT64 if all(abs(v) <= INT64_MAX for v in nums) else np.dtype(object)
    n = len(entries)
    for nested, shape in ((entries, (n,)), (tuple(entries), (n,)), ([entries], (1, n)),
                          ([tuple(entries)] * 2, (2, n)), (np.array(entries, dtype=object), (n,))):
        got = scalars.to_array(nested, True)
        assert got.den == den and got.num.dtype == lane and got.num.shape == shape
        assert [int(v) for v in got.num.flat] == nums * (len(got.num.flat) // max(n, 1))
        assert not got.num.flags.writeable
    assert scalars.read(entries, 1, n) == got


def test_the_constructor_narrows_and_wide_alone_keeps_python_ints():
    fits = np.array([INT64_MAX, -INT64_MAX, 0], dtype=object)
    a = scalars.ScaledArray(fits, 3)
    assert a.num.dtype == INT64 and a.wide().num.dtype == object and a.wide() == a
    for beyond in (2**63, -(2**63), 2**70):
        b = scalars.ScaledArray(np.array([beyond, 1], dtype=object))
        assert b.num.dtype == object and b.num[0] == beyond
    assert scalars.ScaledArray(np.zeros((0, 3), dtype=object)).num.dtype == INT64


@pytest.mark.parametrize("n", [0, 1, 4])
def test_eye_is_int64(n):
    identity = scalars.eye(n, True)
    assert identity.num.dtype == INT64 and identity.den == 1
    assert identity == scalars.to_array(np.eye(n, dtype=int).astype(object), True)


_CATALOG = ["e2-motion", "oscillator(1,2)", "oscillator(1/2,3)", "dim4-b", "dim5-nilpotent",
            "two-step-volume", "a-d(1)", "a-d-double(1)", "a-d-double(-3)"]


@pytest.mark.parametrize("name", _CATALOG)
def test_catalog_tensors_are_int64(name):
    entry = catalog(name)
    stored = [entry.algebra, entry.quad_form, entry.metric, entry.iso]
    stored += [v for v in entry.oracles.values() if isinstance(v, ProductTensor)]
    for form in (entry.quad_form, entry.metric):
        if form is not None:
            P = levi_civita(entry.algebra, form)
            stored += [P, curvature(P)]
    for tensor in filter(None, stored):
        assert tensor.array.num.dtype == INT64, type(tensor).__name__


def test_builder_tensors_are_int64():
    volume = catalog("two-step-volume")
    built = [*build_oscillator((1, 2)), *build_two_step(quadlie.TwoStepSpec(3, "volume")),
             *build_cotangent_double(catalog("a-d(1)").algebra),
             *catalog("dim5-nilpotent").oracles["flat_structure"]()[1:]]
    phi = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    built += two_step_metric(quadlie.TwoStepSpec(dim_v=3, theta="volume", phi=phi))[:2]
    built += volume.oracles["metric_family"](phi)[:2]
    for tensor in built:
        assert tensor.array.num.dtype == INT64, type(tensor).__name__


def _a_d_by_fractions(d):
    """The a-d(d) table, entry by entry in Fraction."""
    c = [[[Fraction(0)] * 6 for _ in range(6)] for _ in range(6)]
    for (i, j, k), v in {(0, 1, 5): 1, (2, 3, 5): 1, (0, 2, 4): 1, (1, 3, 5): d}.items():
        c[i][j][k], c[j][i][k] = Fraction(v), Fraction(-v)
    return c


def _cotangent_double_by_fractions(c):
    """The cotangent double's table of the table c, duals first."""
    n = len(c)
    cd = [[[Fraction(0)] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for x in range(n):
        for j in range(n):
            for m in range(n):
                cd[n + x][n + j][n + m] = c[x][j][m]
                cd[n + x][m][j], cd[m][n + x][j] = -c[x][j][m], c[x][j][m]
    return cd


def _tupled(nested):
    return tuple(map(_tupled, nested)) if isinstance(nested, list) else nested


@pytest.mark.parametrize("d", [INT64_MAX, -INT64_MAX, 2**63, -(2**63), 2**70])
def test_catalog_parameters_at_the_int64_edge_match_fractions(d):
    # the parameter comes from a name, so it may lie beyond int64; -2**63
    # must stay off int64, where its negation and abs would wrap
    base = catalog(f"a-d({d})")
    want = _a_d_by_fractions(d)
    assert base.algebra.array.tuples() == _tupled(want)
    double = catalog(f"a-d-double({d})")
    assert double.algebra.array.tuples() == _tupled(_cotangent_double_by_fractions(want))
    assert check_ad_invariance(double.algebra, double.quad_form).invariant
    for tensor in (base.algebra, double.algebra, double.quad_form):
        _on_its_lane(tensor.array)
    assert (base.algebra.array.num.dtype == INT64) == (abs(d) <= INT64_MAX)


def _handed_out(x):
    """Every scalar in a result: the fields of a report, certificate or
    tensor class, the entries of sequences, dict values and the entries
    of each stored tensor."""
    if isinstance(x, scalars.ScaledArray):
        yield from _handed_out(x.tuples())
    elif dataclasses.is_dataclass(x):
        for field in dataclasses.fields(x):
            yield from _handed_out(getattr(x, field.name))
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _handed_out(v)
    elif isinstance(x, dict):
        for v in x.values():
            yield from _handed_out(v)
    else:
        yield x


def test_results_hand_out_no_numpy_integer():
    dim5 = catalog("dim5-nilpotent")
    L = dim5.algebra
    spec, flat, metric = dim5.oracles["flat_structure"]()
    results = [spec, flat, metric, structure_report(L), check_ad_invariance(L, dim5.quad_form),
               polynomial_geodesic_check(L, quadlie.iso_from_metric(dim5.quad_form, metric)),
               similarity_invariants([[1, 2], [3, 4]])]
    for name in _CATALOG:
        entry = catalog(name)
        results.append(structure_report(entry.algebra))
        for form in (entry.quad_form, entry.metric):
            if form is not None:
                P = levi_civita(entry.algebra, form)
                R = curvature(P)
                results += [P, R, product_report(P), flatness_report(entry.algebra, form),
                            R.max_abs(), quadlie.signature(form)]
    handed = list(_handed_out(results))
    assert not [v for v in handed if isinstance(v, np.generic)]
    assert _python_ints(handed) and any(isinstance(v, Fraction) for v in handed)


def test_a_contraction_with_no_summed_term_beside_entries_beyond_int64_stays_exact():
    # an empty summed label makes every result entry an empty sum, 0, but
    # the bound must still cover the third operand's own entries
    left = scalars.ScaledArray(np.zeros((0, 2), dtype=np.int64))
    mid = scalars.ScaledArray(np.zeros((0, 2, 2), dtype=np.int64))
    right = scalars.ScaledArray(np.array([[2**70, 1], [-(2**63), 1]], dtype=object))
    got = scalars.contract("ip,ijk,lk->pjl", left, mid, right)
    assert got.num.shape == (2, 2, 2) and got.num.dtype == INT64 and not got.num.any()


# ---------------------------------------------------------------------------
# the exact elimination: int64 steps and Python ints agree


def _eliminations(num, monkeypatch):
    """_eliminate of the int numerators num on Python ints (through wide())
    and with every elimination let onto int64, as far as the bound
    allows."""
    small = scalars.ScaledArray(np.array(num, dtype=object))
    monkeypatch.setattr(linalg, "ELIMINATION_FLOOR", 0)
    return linalg._eliminate(small.wide()), linalg._eliminate(small)


def _same_elimination(got, want):
    (R, pivots, d), (R0, pivots0, d0) = got, want
    assert pivots == pivots0 and d == d0 and type(d) is int
    assert R.shape == R0.shape and R.dtype == object and R.tolist() == R0.tolist()
    assert all(type(v) is int for v in R.flat)


# entries of one matrix: small with many zeros, so pivots swap, middling
# ones, which stop the int64 steps partway, those of _NUM, and small ones
# beside entries beyond int64
_ENTRIES = [st.sampled_from([0, 0, 0, 1, -1, 2]), st.integers(-9, 9), st.integers(-(2**20), 2**20),
            _NUM, st.one_of(st.integers(-9, 9), st.integers(-(2**70), -(2**63)))]


@st.composite
def matrices(draw):
    """An object array of ints of any shape from 0 x 1 up: tall, wide,
    one column, with zero rows, and of lower rank as a product of two
    factors."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        num = draw(st.sampled_from(_ENTRIES))
        return np.array([[draw(num) for _ in range(cols)] for _ in range(rows)],
                        dtype=object).reshape(rows, cols)
    rank = draw(st.integers(0, min(rows, cols)))
    left = np.array(draw(st.lists(st.integers(-3, 3), min_size=rows * rank, max_size=rows * rank)),
                    dtype=object).reshape(rows, rank)
    right = np.array([[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rank)],
                     dtype=object).reshape(rank, cols)
    return (left @ right).reshape(rows, cols)


@PROFILE
@given(matrices())
def test_eliminations_agree_on_both_lanes(num):
    with pytest.MonkeyPatch.context() as monkeypatch:
        python, lanes = _eliminations(num, monkeypatch)
    _same_elimination(lanes, python)


@pytest.mark.parametrize("rows, cols", [(4, 4), (6, 12), (12, 4), (9, 9)])
def test_sparse_eliminations_swap_rows_alike_on_both_lanes(rows, cols, monkeypatch):
    # mostly zero entries, so most steps swap the pivot row up and negate it
    rng = np.random.default_rng(rows * cols)
    swaps = 0
    for _ in range(40):
        num = rng.choice([0, 0, 0, 0, 1, -1, 3], size=(rows, cols)).astype(object)
        swaps += num[0, 0] == 0 and num[:, 0].any()
        python, lanes = _eliminations(num, monkeypatch)
        _same_elimination(lanes, python)
    assert swaps


# (2**31 - 1)**2 + 65535**2 + 362**2 + 5**2 = 2**62 - 1
_EDGE_ROW = [2**31 - 1, 65535, 362, 5]


@pytest.mark.parametrize("num, steps", [
    ([_EDGE_ROW], 1),  # twice the bound 2**63 - 2
    ([[2**31, 0, 0, 0]], 0),  # 2**63
    ([[0, 0, 0, 1], _EDGE_ROW], 2),  # 2**63 - 2 again
    ([[0, 0, 1, 1], _EDGE_ROW], 1),  # 2**64 - 4 at the second step
    ([[-INT64_MAX, 1], [1, 1]], 0),
])
def test_the_int64_steps_stop_at_the_hadamard_edge(num, steps, monkeypatch):
    A = scalars.ScaledArray(np.array(num, dtype=np.int64))
    monkeypatch.setattr(linalg, "ELIMINATION_FLOOR", 0)
    assert linalg._int64_steps(A.num, A.top) == steps
    python, lanes = _eliminations(num, monkeypatch)
    _same_elimination(lanes, python)


@pytest.mark.parametrize("entry", [INT64_MAX, -INT64_MAX, 2**63, -(2**63), 2**70])
def test_eliminations_beside_entries_to_and_beyond_the_int64_edge_agree(entry, monkeypatch):
    rng = np.random.default_rng(abs(entry) % 97)
    for rows, cols in ((3, 3), (6, 12), (12, 4)):
        num = rng.integers(-9, 10, size=(rows, cols)).astype(object)
        num[rows // 2, cols // 2] = entry
        python, lanes = _eliminations(num, monkeypatch)
        _same_elimination(lanes, python)


# ---------------------------------------------------------------------------
# one elimination per exact form


def _symmetric(n, rank, scale, rng):
    """A symmetric n x n matrix of the given rank, B^T D B with small
    integer B and D = diag(+-1), times the Fraction scale."""
    B = rng.integers(-2, 3, size=(rank, n)).astype(object)
    D = np.diag(rng.choice([-1, 1], size=rank)).astype(object)
    return [[Fraction(v) * scale for v in row] for row in (B.T @ D @ B).reshape(n, n).tolist()]


_SCALES = [Fraction(1), Fraction(3, 5), Fraction(2**70, 7)]


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_a_validated_form_holds_its_inverse(n, scale):
    rng = np.random.default_rng(n)
    for _ in range(5):
        M = _symmetric(n, n, scale, rng)
        try:
            form = validate_form(M)
        except Degenerate:  # B may be singular
            continue
        inverse = form.inverse
        assert inverse.tuples() == linalg.inverse(form.array).tuples()
        assert _python_ints(inverse.tuples())
        assert _rowmath.mat_mul(M, inverse.tuples()) == _rowmath.identity(n)
        # the binary64 form inverts when asked, as linalg does
        floats = form.to_float()
        assert floats.inverse.num.tobytes() == linalg.inverse(floats.array).num.tobytes()


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_the_degenerate_payload_is_the_nullspace(n, scale):
    rng = np.random.default_rng(n)
    for rank in (0, 1, n - 1):
        M = _symmetric(n, rank, scale, rng)
        with pytest.raises(Degenerate) as err:
            validate_form(M)
        kernel = err.value.kernel
        assert kernel == linalg.nullspace(scalars.read(M, 2)).tuples() and _python_ints(kernel)
        assert len(kernel) >= n - rank
        assert all(not any(_rowmath.mat_vec(M, v)) for v in kernel)


def test_a_metric_scaled_beyond_int64_certifies_identically():
    # the Levi-Civita product is unchanged when the metric is scaled
    entry = catalog("dim5-nilpotent")
    G = entry.metric.matrix
    scaled = [[v * Fraction(2**70, 7) for v in row] for row in G]
    P, big = levi_civita(entry.algebra, G), levi_civita(entry.algebra, scaled)
    assert big.metric.array.num.dtype == object
    assert big.gamma == P.gamma and _python_ints(big.gamma)
    assert product_report(big) == product_report(P)
    assert big.metric.inverse.tuples() == tuple(
        tuple(v * Fraction(7, 2**70) for v in row) for row in P.metric.inverse.tuples())


def test_two_step_metrics_are_the_forms_validate_form_accepts():
    spec = quadlie.TwoStepSpec(dim_v=3, theta="volume", phi=[[1, 2, 0], [0, 1, 0], [3, 0, 1]])
    # the volume form in binary64: the sign of the permutation (i, j, k)
    volume = [[[(i - j) * (j - k) * (k - i) / 2 for k in range(3)] for j in range(3)]
              for i in range(3)]
    for theta in ("volume", volume):
        _, metric, _ = two_step_metric(dataclasses.replace(spec, theta=theta))
        checked = validate_form(metric.array)
        assert metric == checked and metric.inverse.tuples() == checked.inverse.tuples()
