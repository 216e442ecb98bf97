"""similarity_invariants against sympy's characteristic polynomial and
Smith normal form over QQ[lam], the test oracle.

Inputs are drawn by hypothesis under a fixed, derandomized profile:
random rational matrices, conjugates P J P^-1 of Jordan matrices whose
eigenvalues and block sizes repeat (so the invariant factors split), and
matrices of binary64 entries, each read exactly as Fraction(v).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _rowmath

from quadlie import linalg, scalars, similarity_invariants

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

F = Fraction

settings.register_profile(
    "quadlie-similarity", derandomize=True, database=None, deadline=None
)
PROFILE = settings.get_profile("quadlie-similarity")

rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


def oracle(phi):
    """(char_poly, invariant_factor_degrees) of phi by sympy."""
    lam = sympy.Symbol("lam")
    m = len(phi)
    sm = sympy.Matrix(m, m, [sympy.Rational(F(v).numerator, F(v).denominator) for row in phi for v in row])
    char_poly = tuple(F(int(c.p), int(c.q)) for c in sm.charpoly(lam).all_coeffs())
    snf = smith_normal_form(lam * sympy.eye(m) - sm, domain=sympy.QQ[lam])
    degrees = (sympy.Poly(snf[i, i], lam).degree() for i in range(m))
    return char_poly, tuple(sorted(d for d in degrees if d >= 1))


def agrees(phi):
    inv = similarity_invariants(phi)
    assert (inv.char_poly, inv.invariant_factor_degrees) == oracle(phi)
    return inv


@st.composite
def rational_matrices(draw):
    m = draw(st.integers(1, 6))
    return [[draw(rationals) for _ in range(m)] for _ in range(m)]


@st.composite
def jordan_conjugates(draw):
    """P J P^-1 for a Jordan matrix J over two eigenvalues with block
    sizes 1 to 3 and at most six rows, P unit lower times unit upper
    triangular."""
    eigenvalues = draw(st.lists(st.sampled_from([F(-1), F(0), F(1), F(2), F(1, 2)]), min_size=2, max_size=2))
    blocks = draw(st.lists(st.tuples(st.sampled_from(eigenvalues), st.integers(1, 3)), min_size=1, max_size=4))
    sizes, kept = 0, []
    for value, size in blocks:
        if sizes + size <= 6:
            kept.append((value, size))
            sizes += size
    m = sizes
    J = [[F(0)] * m for _ in range(m)]
    start = 0
    for value, size in kept:
        for i in range(start, start + size):
            J[i][i] = value
            if i + 1 < start + size:
                J[i][i + 1] = F(1)
        start += size
    ints = st.integers(-2, 2)
    lower = [[F(i == j) if j >= i else F(draw(ints)) for j in range(m)] for i in range(m)]
    upper = [[F(i == j) if j <= i else F(draw(ints)) for j in range(m)] for i in range(m)]
    P = _rowmath.mat_mul(lower, upper)
    return [list(row) for row in _rowmath.mat_mul(_rowmath.mat_mul(P, J), linalg.inverse(scalars.to_array(P, True)).tuples())]


@st.composite
def float_matrices(draw):
    m = draw(st.integers(1, 4))
    entries = st.one_of(
        st.integers(-16, 16).map(lambda k: k / 8),
        st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    )
    return [[draw(entries) for _ in range(m)] for _ in range(m)]


@settings(PROFILE, max_examples=60)
@given(rational_matrices())
def test_rational_matrices_match_sympy(phi):
    agrees(phi)


@settings(PROFILE, max_examples=60)
@given(jordan_conjugates())
def test_jordan_conjugates_match_sympy(phi):
    agrees(phi)


@settings(PROFILE, max_examples=30)
@given(float_matrices())
def test_binary64_entries_are_read_exactly(phi):
    inv = agrees(phi)
    assert inv == similarity_invariants([[F(v) for v in row] for row in phi])


@pytest.mark.parametrize("phi, degrees", [
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], (1, 1, 1)),
    ([[F(3, 2), 0, 0], [0, F(3, 2), 0], [0, 0, F(3, 2)]], (1, 1, 1)),
    ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], (2, 2)),
    ([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], (2, 2)),
    ([[2, 1, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 3, 0], [0, 0, 0, 0, 3]], (2, 3)),
])
def test_split_invariant_factors(phi, degrees):
    assert agrees(phi).invariant_factor_degrees == degrees
