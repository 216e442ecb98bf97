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

from quadlie import linalg
from quadlie.errors import Singular

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
