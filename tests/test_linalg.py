"""Exact and binary64 linear algebra kernels.

The property tests draw random rational matrices under a fixed,
derandomized hypothesis profile, square and not, with rank-deficient
products A B among them, and check facts that hold for any correct
elimination: against the input matrix, a plain Leibniz determinant, or
the definitions of the reduced row echelon form and the nullspace.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    product = linalg.mat_mul(_rows(draw, nrows, inner), _rows(draw, inner, ncols))
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


def lead(row):
    return next(j for j, v in enumerate(row) if v != 0)


def test_exact_solve_known_system():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = linalg.solve(a, (F(5), F(10)), True)
    assert x == (F(1), F(3))


def test_exact_inverse_roundtrip():
    a = [[F(2), F(1), F(0)], [F(1), F(3), F(1)], [F(0), F(1), F(4)]]
    inv = linalg.inverse(a, True)
    prod = linalg.mat_mul(a, inv)
    ident = linalg.identity(3, True)
    assert prod == ident
    assert all(isinstance(v, Fraction) for row in inv for v in row)


def test_exact_det_and_singular():
    a = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.det(a, True) == F(-2)
    sing = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.det(sing, True) == 0
    with pytest.raises(Singular):
        linalg.inverse(sing, True)


def test_det_of_empty_matrix_is_one():
    assert linalg.det([], True) == 1
    assert isinstance(linalg.det([], True), Fraction)
    assert linalg.det([], False) == 1.0
    assert isinstance(linalg.det([], False), float)


def test_float_inverse_and_singular_guard():
    inv = linalg.inverse([[2.0, 0.0], [0.0, 4.0]], False)
    assert abs(inv[0][0] - 0.5) < 1e-15 and abs(inv[1][1] - 0.25) < 1e-15
    with pytest.raises(Singular):
        linalg.inverse([[1.0, 2.0], [2.0, 4.0]], False)


def test_exact_rank_and_nullspace():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(a, True) == 2
    ns = linalg.nullspace(a, True)
    assert len(ns) == 1
    v = ns[0]
    assert all(isinstance(entry, Fraction) for entry in v)
    assert all(
        sum(row[j] * v[j] for j in range(3)) == 0 for row in a
    )


def test_exact_nullspace_stays_exact_even_with_trailing_pivot():
    # back-substitution with an empty tail must not degrade to floats
    a = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    ns = linalg.nullspace(a, True)
    assert ns == ((F(0), F(0), F(1)),)
    assert all(isinstance(entry, Fraction) for entry in ns[0])


def test_exact_signature_hyperbolic_pair():
    # a neutral pair has no diagonal pivot to start from
    g = [[F(0), F(1)], [F(1), F(0)]]
    assert linalg.exact_signature(g) == (1, 1, 0)


def test_exact_signature_block_cases():
    g = [
        [F(0), F(1), F(0)],
        [F(1), F(0), F(0)],
        [F(0), F(0), F(2)],
    ]
    assert linalg.exact_signature(g) == (2, 1, 0)
    deg = [[F(1), F(0)], [F(0), F(0)]]
    assert linalg.exact_signature(deg) == (1, 0, 1)


def test_signature_matches_numpy_on_random_symmetric_matrices():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        g = [
            [m[i][j] + m[j][i] for j in range(n)]
            for i in range(n)
        ]
        pos, neg, zero = linalg.exact_signature(g)
        eig = np.linalg.eigvalsh(np.array(g, dtype=float))
        scale = max(1.0, float(np.max(np.abs(eig))))
        np_pos = int(np.sum(eig > 1e-9 * scale))
        np_neg = int(np.sum(eig < -1e-9 * scale))
        assert (pos, neg, zero) == (np_pos, np_neg, n - np_pos - np_neg)


def test_float_signature_thresholds():
    g = [[1.0, 0.0], [0.0, -2.0]]
    assert linalg.float_signature(g) == (1, 1, 0)
    g2 = [[1.0, 0.0], [0.0, 1e-15]]
    assert linalg.float_signature(g2) == (1, 0, 1)


def test_span_helpers():
    basis = ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert linalg.in_span(basis, (F(2), F(-3), F(0)), True)
    assert not linalg.in_span(basis, (F(0), F(0), F(1)), True)
    other = ((F(1), F(1), F(0)), (F(1), F(-1), F(0)))
    assert linalg.same_span(basis, other, True)
    short = linalg.span_basis(
        ((F(1), F(2), F(0)), (F(2), F(4), F(0)), (F(0), F(0), F(3))), True
    )
    assert len(short) == 2


def test_solve_many_shares_one_elimination():
    a = [[F(2), F(0)], [F(0), F(5)]]
    cols = [(F(2), F(5)), (F(4), F(10))]
    sols = linalg.solve_many(a, cols, True)
    assert sols == ((F(1), F(1)), (F(2), F(2)))


def test_float_solve_rejects_near_singular_matrices():
    # solve takes the rank test of solve_many and inverse, not det == 0
    a = [[1.0, 2.0], [2.0, 4.0 + 1e-12]]
    with pytest.raises(Singular):
        linalg.solve(a, (1.0, 1.0), False)
    with pytest.raises(Singular):
        linalg.solve_many(a, [(1.0, 1.0)], False)
    with pytest.raises(Singular):
        linalg.inverse(a, False)


@settings(PROFILE, max_examples=200)
@given(matrices())
def test_nullspace_is_annihilated_and_has_full_size(a):
    ns = linalg.nullspace(a, True)
    assert len(ns) == len(a[0]) - linalg.rank(a, True)
    for v in ns:
        assert all(isinstance(x, Fraction) for x in v)
        assert all(sum(row[j] * v[j] for j in range(len(v))) == 0 for row in a)


@settings(PROFILE, max_examples=200)
@given(matrices())
def test_rref_is_reduced_and_spans_the_rows(a):
    red = linalg.rref(a)
    assert len(red) == linalg.rank(a, True)
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
    assert linalg.span_basis(a, True) == red


@settings(PROFILE, max_examples=200)
@given(matrices(max_dim=4, square=True))
def test_det_matches_leibniz(a):
    d = linalg.det(a, True)
    assert isinstance(d, Fraction) and d == leibniz_det(a)


@settings(PROFILE, max_examples=200)
@given(matrices(max_dim=4, square=True), st.data())
def test_solve_many_is_exact_and_singular_exactly_when_det_vanishes(a, data):
    n = len(a)
    cols = [_rows(data.draw, 1, n)[0] for _ in range(data.draw(st.integers(1, 3)))]
    if leibniz_det(a) == 0:
        for call in (
            lambda: linalg.solve_many(a, cols, True),
            lambda: linalg.solve(a, cols[0], True),
            lambda: linalg.inverse(a, True),
        ):
            with pytest.raises(Singular):
                call()
        return
    sols = linalg.solve_many(a, cols, True)
    assert [linalg.mat_vec(a, x) for x in sols] == [tuple(c) for c in cols]
    assert linalg.solve(a, cols[0], True) == sols[0]
    assert linalg.mat_mul(a, linalg.inverse(a, True)) == linalg.identity(n, True)


def _stored_form(kernel_result, nested):
    """The exact kernel result is the nested result's stored form: equal in
    num and den to what to_array builds, lowest terms over the positive lcm
    denominator."""
    assert kernel_result.tuples() == nested
    if nested:  # to_array of an empty tuple has no columns to compare
        ref = scalars.to_array(nested, True)
        assert kernel_result.den == ref.den
        assert kernel_result.num.shape == ref.num.shape
        assert all(type(v) is int for v in kernel_result.num.flat)
        assert np.array_equal(kernel_result.num, ref.num)


@settings(PROFILE, max_examples=200)
@given(matrices())
def test_exact_kernels_return_rows_in_lowest_terms_over_the_lcm(a):
    A = scalars.to_array(a, True)
    _stored_form(linalg.nullspace(A), linalg.nullspace(a, True))
    _stored_form(linalg.rref(A), linalg.rref(a))
    _stored_form(linalg.span_basis(A), linalg.span_basis(a, True))
    assert linalg.rank(A) == linalg.rank(a, True)


@settings(PROFILE, max_examples=200)
@given(matrices(max_dim=4, square=True), st.data())
def test_exact_inverse_and_solve_return_their_stored_form(a, data):
    n = len(a)
    if leibniz_det(a) == 0:
        return
    A = scalars.to_array(a, True)
    _stored_form(linalg.inverse(A), linalg.inverse(a, True))
    cols = [_rows(data.draw, 1, n)[0] for _ in range(data.draw(st.integers(1, 3)))]
    B = scalars.to_array(cols, True).transpose()
    X = linalg.solve(A, B)
    _stored_form(X.transpose(), linalg.solve_many(a, cols, True))
    _stored_form(linalg.solve(A, B[:, 0]), linalg.solve(a, cols[0], True))
    assert linalg.det(A) == linalg.det(a, True) == leibniz_det(a)


@settings(PROFILE, max_examples=100)
@given(matrices())
def test_binary64_nested_entry_points_read_the_kernels(a):
    af = [[float(v) for v in row] for row in a]
    A = scalars.to_array(af, False)
    assert linalg.nullspace(A).tuples() == linalg.nullspace(af, False)
    assert linalg.span_basis(A).tuples() == linalg.span_basis(af, False)
    assert linalg.rank(A) == linalg.rank(af, False)
    assert linalg.in_span(A, A[0]) and linalg.in_span(af, af[0], False)
    if len(a) == len(a[0]) and linalg.rank(A) == len(a):
        assert linalg.inverse(A).tuples() == linalg.inverse(af, False)


def test_exact_same_span_compares_canonical_bases_by_value():
    basis = scalars.to_array([[F(2), F(4), F(0)], [F(0), F(0), F(3)]], True)
    canonical = linalg.span_basis(basis)
    assert canonical.tuples() == ((1, 2, 0), (0, 0, 1))
    assert linalg.same_span(canonical, linalg.span_basis(basis[::-1]))
    assert not linalg.same_span(canonical, linalg.span_basis(basis[:1]))


@pytest.mark.parametrize("exact", [True, False])
def test_non_square_matrices_are_a_dimension_mismatch(exact):
    one = 1 if exact else 1.0
    wide = [[one, 0, 0], [0, one, 0]]
    for call in (
        lambda: linalg.inverse(wide, exact),
        lambda: linalg.solve_many(wide, [[one, one]], exact),
        lambda: linalg.solve(wide, [one, one], exact),
        lambda: linalg.det(wide, exact),
        lambda: linalg.solve([[one, 0], [0, one]], [one, one, one], exact),
    ):
        with pytest.raises(DimensionMismatch):
            call()
