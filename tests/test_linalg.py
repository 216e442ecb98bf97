"""Exact and binary64 linear algebra kernels.

The kernels take and return ScaledArrays; each test builds its input from
nested rows with scalars.to_array and reads results with tuples().  The
property tests draw random rational matrices under a fixed, derandomized
hypothesis profile, square and not, with rank-deficient products A B
among them, and check facts that hold for any correct elimination:
against the input matrix, a plain Leibniz determinant, the definitions
of the reduced row echelon form and the nullspace, or a congruence sweep
over Fractions for the signature.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _rowmath

from quadlie import linalg, scalars
from quadlie.errors import DimensionMismatch, Singular

F = Fraction

settings.register_profile(
    "quadlie-linalg", derandomize=True, database=None, deadline=None
)
PROFILE = settings.get_profile("quadlie-linalg")

rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


def _rows(draw, nrows, ncols):
    return [[draw(rationals) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def matrices(draw, max_dim=5, square=False):
    """A random rational matrix; half of them the product of two factors
    through an inner dimension, which is rank deficient when it is below
    both sides."""
    nrows = draw(st.integers(1, max_dim))
    ncols = nrows if square else draw(st.integers(1, max_dim))
    if draw(st.booleans()):
        return _rows(draw, nrows, ncols)
    inner = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
    product = _rowmath.mat_mul(_rows(draw, nrows, inner), _rows(draw, inner, ncols))
    return [list(row) for row in product]


def leibniz_det(a):
    n = len(a)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def exact(rows):
    return scalars.to_array(rows, True)


def fraction_signature(g):
    """(positive, negative, zero) of a symmetric matrix of Fractions by a
    congruence sweep over Fractions: one Schur complement per diagonal
    pivot, and a row+column addition first when the active diagonal
    vanishes."""
    a = [[F(v) for v in row] for row in g]
    active, pos, neg = list(range(len(a))), 0, 0
    while active:
        d = next((i for i in active if a[i][i] != 0), None)
        if d is None:
            pair = next(((i, j) for i in active for j in active if a[i][j] != 0), None)
            if pair is None:
                break
            d, j = pair
            for c in active:
                a[d][c] += a[j][c]
            for r in active:
                a[r][d] += a[r][j]
        pos, neg = (pos + 1, neg) if a[d][d] > 0 else (pos, neg + 1)
        active.remove(d)
        for i in active:
            if a[i][d] != 0:
                f = a[i][d] / a[d][d]
                for j in active:
                    a[i][j] -= f * a[d][j]
    return pos, neg, len(a) - pos - neg


@st.composite
def symmetric_matrices(draw):
    """A symmetric rational matrix up to 7 x 7 with mixed denominators: a
    random one, possibly with its diagonal zeroed, or B D B^T through a
    lower rank."""
    n = draw(st.integers(1, 7))
    entries = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5, 6)))
    if draw(st.booleans()):
        g = [[draw(entries) for _ in range(n)] for _ in range(n)]
        g = [[g[i][j] + g[j][i] for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            for i in range(n):
                g[i][i] = F(0)
        return g
    r = draw(st.integers(0, n))
    b = [[draw(entries) for _ in range(r)] for _ in range(n)]
    d = [draw(st.sampled_from((F(1), F(-1), F(2, 3), F(-5, 2)))) for _ in range(r)]
    return [[sum((b[i][k] * d[k] * b[j][k] for k in range(r)), F(0)) for j in range(n)]
            for i in range(n)]


def lead(row):
    return next(j for j, v in enumerate(row) if v != 0)


def test_exact_solve_known_system():
    a = exact([[F(2), F(1)], [F(1), F(3)]])
    x = linalg.solve(a, exact((F(5), F(10))))
    assert x.tuples() == (F(1), F(3))


def test_exact_inverse_roundtrip():
    a = [[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(4)]]
    inv = linalg.inverse(exact(a)).tuples()
    prod = _rowmath.mat_mul(a, inv)
    ident = _rowmath.identity(3, True)
    assert prod == ident
    assert all(isinstance(v, Fraction) for row in inv for v in row)


def test_exact_det_and_singular():
    a = exact([[F(1), F(2)], [F(3), F(4)]])
    assert linalg.det(a) == F(-2)
    sing = exact([[F(1), F(2)], [F(2), F(4)]])
    assert linalg.det(sing) == 0
    with pytest.raises(Singular):
        linalg.inverse(sing)


def test_det_of_empty_matrix_is_one():
    assert linalg.det(scalars.read([], 2)) == 1
    assert isinstance(linalg.det(scalars.read([], 2)), Fraction)
    assert linalg.det(scalars.read([], 2, exact=False)) == 1.0
    assert isinstance(linalg.det(scalars.read([], 2, exact=False)), float)


def test_float_inverse_and_singular_guard():
    inv = linalg.inverse(scalars.to_array([[2.0, 0.0], [0.0, 4.0]], False)).tuples()
    assert abs(inv[0][0] - 0.5) < 1e-15 and abs(inv[1][1] - 0.25) < 1e-15
    with pytest.raises(Singular):
        linalg.inverse(scalars.to_array([[1.0, 2.0], [2.0, 4.0]], False))


def test_exact_rank_and_nullspace():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(exact(a)) == 2
    ns = linalg.nullspace(exact(a)).tuples()
    assert len(ns) == 1
    v = ns[0]
    assert all(isinstance(entry, Fraction) for entry in v)
    assert all(
        sum(row[j] * v[j] for j in range(3)) == 0 for row in a
    )


def test_exact_nullspace_stays_exact_even_with_trailing_pivot():
    # back-substitution with an empty tail must not degrade to floats
    a = exact([[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    ns = linalg.nullspace(a).tuples()
    assert ns == ((F(0), F(0), F(1)),)
    assert all(isinstance(entry, Fraction) for entry in ns[0])


def test_exact_signature_hyperbolic_pair():
    # a neutral pair has no diagonal pivot to start from
    g = exact([[F(0), F(1)], [F(1), F(0)]])
    assert linalg.signature(g) == (1, 1, 0)


def test_exact_signature_block_cases():
    g = exact([
        [F(0), F(1), F(0)],
        [F(1), F(0), F(0)],
        [F(0), F(0), F(2)],
    ])
    assert linalg.signature(g) == (2, 1, 0)
    deg = exact([[F(1), F(0)], [F(0), F(0)]])
    assert linalg.signature(deg) == (1, 0, 1)


def test_signature_matches_numpy_on_random_symmetric_matrices():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        g = [
            [m[i][j] + m[j][i] for j in range(n)]
            for i in range(n)
        ]
        pos, neg, zero = linalg.signature(exact(g))
        eig = np.linalg.eigvalsh(np.array(g, dtype=float))
        scale = max(1.0, float(np.max(np.abs(eig))))
        np_pos = int(np.sum(eig > 1e-9 * scale))
        np_neg = int(np.sum(eig < -1e-9 * scale))
        assert (pos, neg, zero) == (np_pos, np_neg, n - np_pos - np_neg)


@settings(PROFILE, max_examples=300)
@given(symmetric_matrices())
def test_integer_signature_matches_the_fraction_sweep(g):
    assert linalg.signature(exact(g)) == fraction_signature(g)


def test_float_signature_thresholds():
    g = scalars.to_array([[1.0, 0.0], [0.0, -2.0]], False)
    assert linalg.signature(g) == (1, 1, 0)
    g2 = scalars.to_array([[1.0, 0.0], [0.0, 1e-15]], False)
    assert linalg.signature(g2) == (1, 0, 1)


def test_span_helpers():
    basis = exact(((F(1), F(0), F(0)), (F(0), F(1), F(0))))
    assert linalg.in_span(basis, exact((F(2), F(-3), F(0))))
    assert not linalg.in_span(basis, exact((F(0), F(0), F(1))))
    other = exact(((F(1), F(1), F(0)), (F(1), F(-1), F(0))))
    assert linalg.same_span(linalg.span_basis(basis), linalg.span_basis(other))
    short = linalg.span_basis(
        exact(((F(1), F(2), F(0)), (F(2), F(4), F(0)), (F(0), F(0), F(3))))
    )
    assert len(short.tuples()) == 2


def test_solve_takes_a_matrix_right_hand_side():
    a = exact([[F(2), F(0)], [F(0), F(5)]])
    cols = exact([(F(2), F(5)), (F(4), F(10))])
    sols = linalg.solve(a, cols.transpose()).transpose()
    assert sols.tuples() == ((F(1), F(1)), (F(2), F(2)))


def test_float_solve_rejects_near_singular_matrices():
    # solve and inverse share the rank test, not det == 0
    a = scalars.to_array([[1.0, 2.0], [2.0, 4.0 + 1e-12]], False)
    with pytest.raises(Singular):
        linalg.solve(a, scalars.to_array((1.0, 1.0), False))
    with pytest.raises(Singular):
        linalg.solve(a, scalars.to_array([[1.0], [1.0]], False))
    with pytest.raises(Singular):
        linalg.inverse(a)


@settings(PROFILE, max_examples=200)
@given(matrices())
def test_nullspace_is_annihilated_and_has_full_size(a):
    ns = linalg.nullspace(exact(a)).tuples()
    assert len(ns) == len(a[0]) - linalg.rank(exact(a))
    for v in ns:
        assert all(isinstance(x, Fraction) for x in v)
        assert all(sum(row[j] * v[j] for j in range(len(v))) == 0 for row in a)


@settings(PROFILE, max_examples=200)
@given(matrices())
def test_rref_is_reduced_and_spans_the_rows(a):
    red = linalg.rref(exact(a)).tuples()
    assert len(red) == linalg.rank(exact(a))
    pivots = [lead(row) for row in red]
    assert pivots == sorted(set(pivots))
    for r, pc in enumerate(pivots):
        assert red[r][pc] == 1
        assert all(red[s][pc] == 0 for s in range(len(red)) if s != r)
    # each row of a is the combination of the reduced rows by its pivot entries
    for row in a:
        combo = [sum((row[pc] * red[r][j] for r, pc in enumerate(pivots)), F(0))
                 for j in range(len(row))]
        assert combo == row
    assert linalg.span_basis(exact(a)).tuples() == red


@settings(PROFILE, max_examples=200)
@given(matrices(max_dim=4, square=True))
def test_det_matches_leibniz(a):
    d = linalg.det(exact(a))
    assert isinstance(d, Fraction) and d == leibniz_det(a)


@settings(PROFILE, max_examples=200)
@given(matrices(max_dim=4, square=True), st.data())
def test_solve_is_exact_and_singular_exactly_when_det_vanishes(a, data):
    n = len(a)
    cols = [_rows(data.draw, 1, n)[0] for _ in range(data.draw(st.integers(1, 3)))]
    A, B = exact(a), exact(cols).transpose()
    if leibniz_det(a) == 0:
        for call in (
            lambda: linalg.solve(A, B),
            lambda: linalg.solve(A, B[:, 0]),
            lambda: linalg.inverse(A),
        ):
            with pytest.raises(Singular):
                call()
        return
    sols = linalg.solve(A, B).transpose().tuples()
    assert [_rowmath.mat_vec(a, x) for x in sols] == [tuple(c) for c in cols]
    assert linalg.solve(A, B[:, 0]).tuples() == sols[0]
    assert _rowmath.mat_mul(a, linalg.inverse(A).tuples()) == _rowmath.identity(n, True)


def _stored_form(result):
    """An exact kernel result is in its stored form: equal in num, lane
    and den to what to_array builds from its entries, lowest terms over
    the positive lcm denominator."""
    nested = result.tuples()
    if nested:  # to_array of an empty tuple has no columns to compare
        ref = scalars.to_array(nested, True)
        assert result.den == ref.den
        assert result.num.shape == ref.num.shape
        assert result.num.dtype == ref.num.dtype
        assert np.array_equal(result.num, ref.num)


@settings(PROFILE, max_examples=200)
@given(matrices())
def test_exact_kernels_return_rows_in_lowest_terms_over_the_lcm(a):
    A = exact(a)
    _stored_form(linalg.nullspace(A))
    _stored_form(linalg.rref(A))
    _stored_form(linalg.span_basis(A))


@settings(PROFILE, max_examples=200)
@given(matrices(max_dim=4, square=True), st.data())
def test_exact_inverse_and_solve_return_their_stored_form(a, data):
    n = len(a)
    if leibniz_det(a) == 0:
        return
    A = exact(a)
    _stored_form(linalg.inverse(A))
    cols = [_rows(data.draw, 1, n)[0] for _ in range(data.draw(st.integers(1, 3)))]
    B = exact(cols).transpose()
    _stored_form(linalg.solve(A, B))
    _stored_form(linalg.solve(A, B[:, 0]))
    assert linalg.det(A) == leibniz_det(a)


@settings(PROFILE, max_examples=100)
@given(matrices())
def test_binary64_kernels_share_one_threshold(a):
    A = scalars.to_array([[float(v) for v in row] for row in a], False)
    r, ncols = linalg.rank(A), len(a[0])
    ns, basis = linalg.nullspace(A).num, linalg.span_basis(A).num
    assert len(ns) == ncols - r and len(basis) == r
    assert np.allclose(A.num @ ns.T, 0, atol=1e-9 * max(1.0, np.abs(A.num).max()))
    assert np.allclose(basis @ basis.T, np.eye(r)) and np.allclose(basis @ ns.T, 0)
    assert linalg.in_span(A, A[0]) and linalg.in_span(linalg.span_basis(A), A)
    if len(a) == ncols and r == ncols:
        assert np.allclose(A.num @ linalg.inverse(A).num, np.eye(r))


def test_exact_same_span_compares_canonical_bases_by_value():
    basis = scalars.to_array([[F(2), F(4), F(0)], [F(0), F(0), F(3)]], True)
    canonical = linalg.span_basis(basis)
    assert canonical.tuples() == ((1, 2, 0), (0, 0, 1))
    assert linalg.same_span(canonical, linalg.span_basis(basis[::-1]))
    assert not linalg.same_span(canonical, linalg.span_basis(basis[:1]))


@pytest.mark.parametrize("exact_mode", [True, False])
def test_non_square_matrices_are_a_dimension_mismatch(exact_mode):
    one = 1 if exact_mode else 1.0
    wide = scalars.to_array([[one, 0, 0], [0, one, 0]], exact_mode)
    ident = scalars.to_array([[one, 0], [0, one]], exact_mode)
    for call in (
        lambda: linalg.inverse(wide),
        lambda: linalg.solve(wide, scalars.to_array([[one], [one]], exact_mode)),
        lambda: linalg.solve(wide, scalars.to_array([one, one], exact_mode)),
        lambda: linalg.det(wide),
        lambda: linalg.solve(ident, scalars.to_array([one, one, one], exact_mode)),
    ):
        with pytest.raises(DimensionMismatch):
            call()
