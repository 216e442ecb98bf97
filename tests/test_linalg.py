"""Exact and binary64 linear algebra kernels."""

import random
from fractions import Fraction

import numpy as np
import pytest

from quadlie import linalg
from quadlie.errors import Singular

F = Fraction


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
