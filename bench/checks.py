"""Reference computations the benchmark checks quadlie's outputs against.

Nothing here calls quadlie.  Exact checks clear denominators and work on
numpy object arrays of Python ints, so they stay exact and fast enough to
run after every timed operation.  Each check raises CheckFailed with the
first violation it finds.
"""

import json
import math
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.linalg import expm


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact tensors as (integer array, common denominator)


def scaled(nested):
    """Nested Fractions -> (object array of ints, denominator) with
    array / denominator equal to the input entry for entry."""
    arr = np.array(nested, dtype=object)
    flat = [Fraction(v) for v in arr.flat]
    den = lcm(*(v.denominator for v in flat)) if flat else 1
    ints = np.array([v.numerator * (den // v.denominator) for v in flat], dtype=object)
    return ints.reshape(arr.shape), den


def _first_nonzero(arr):
    idx = np.argwhere(arr != 0)
    return tuple(int(v) for v in idx[0]) if len(idx) else None


def check_levi_civita(c, G, gamma):
    """gamma is the Levi-Civita product of G on the algebra with table c.

    Torsion-freeness (gamma_ij - gamma_ji = c_ij) and metric compatibility
    (<e_i e_j, e_l> + <e_j, e_i e_l> = 0) fix the product uniquely, so
    passing both proves gamma is the product, not merely close to it.
    """
    Gam, dg = scaled(gamma)
    C, dc = scaled(c)
    Gm, _ = scaled(G)
    torsion = dc * (Gam - Gam.transpose(1, 0, 2)) - dg * C
    bad = _first_nonzero(torsion)
    require(bad is None, f"torsion: gamma_ij - gamma_ji != c_ij at {bad}")
    compat = np.tensordot(Gam, Gm, axes=([2], [0])) + np.tensordot(
        Gam, Gm, axes=([2], [1])
    ).transpose(0, 2, 1)
    bad = _first_nonzero(compat)
    require(bad is None, f"metric compatibility fails at (i, j, l) = {bad}")


def curvature(c, gamma):
    """R[i][j][k][l], the e_l coefficient of R(e_i, e_j) e_k, under
    R(x, y) = L_[x,y] - L_x L_y + L_y L_x, as (int array, denominator)."""
    Gam, dg = scaled(gamma)
    C, dc = scaled(c)
    cg = np.tensordot(C, Gam, axes=([2], [0]))  # sum_m c_ij^m gamma_mk^l
    gg = np.tensordot(Gam, Gam, axes=([2], [1]))  # [a,b,c,d] = sum_m G_ab^m G_cm^d
    R = dg * cg - dc * gg.transpose(2, 0, 1, 3) + dc * gg.transpose(0, 2, 1, 3)
    return R, dg * dg * dc


def check_flatness(c, gamma, flat, max_residual=None, program_r=None):
    """The verdict and the largest |R| agree with R recomputed from c and
    gamma; program_r, when given, must equal it entry for entry."""
    R, den = curvature(c, gamma)
    worst = Fraction(max((abs(v) for v in R.flat), default=0), den)
    require(flat == (worst == 0), f"flat verdict {flat} but max |R| = {worst}")
    if max_residual is not None:
        require(Fraction(max_residual) == worst,
                f"reported max |R| {max_residual} != recomputed {worst}")
    if program_r is not None:
        Rp, dp = scaled(program_r)
        bad = _first_nonzero(Rp * den - R * dp)
        require(bad is None, f"curvature entry {bad} differs from the recomputed one")
    return R, den


def close(a, b, tol):
    """Entrywise |a - b| <= tol * max(1, |b|), for floats or float arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def check_float_gamma(gamma_f, gamma_exact, tol=1e-9):
    ref = np.array([[[float(v) for v in row] for row in plane] for plane in gamma_exact])
    scale = max(1.0, float(np.max(np.abs(ref))))
    gap = float(np.max(np.abs(np.asarray(gamma_f, dtype=float) - ref)))
    require(gap <= tol * scale, f"binary64 product is {gap:.3g} off the exact one")


# ---------------------------------------------------------------------------
# closed forms and invariants


def obstruction(a, b, d):
    """Curvature components on the dim4-b slice with block [[a, b], [b, -d]]:
    <R(e1, e-1) e-1, e2>, and on b = 0 also <R(e1, e-1) e-1, e1> and
    <R(e2, e-1) e-1, e2>, all paired by the invariant form."""
    p1 = b * (a + d - 1) / (b * b + a * d)
    p2 = (a * a + 2 * a * (d - 1) - (d - 1) * (1 + 3 * d)) / (4 * a * d)
    p3 = (3 * a * a - 2 * a * (1 + d) - (d - 1) ** 2) / (4 * a * d)
    return p1, p2, p3


def charpoly(m):
    """Monic characteristic polynomial, descending powers, by
    Faddeev-LeVerrier over Fraction."""
    n = len(m)
    A = [[Fraction(v) for v in row] for row in m]
    coeffs = [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M <- A M + c_{k-1} I, c_k = -tr(A M) / k
        AM = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        M = [[AM[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        AM = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(AM[i][i] for i in range(n)) / k)
    return tuple(coeffs)


def ad_matrix(c, x):
    """Matrix of ad_x on coordinate columns: entry [k][j] = sum_i x_i c_ij^k."""
    return np.einsum("ijk,i->kj", np.asarray(c, dtype=float), np.asarray(x, dtype=float))


def geodesic_velocity(c, G, x):
    """x' for the geodesic field, from <x', z> = <[x, z], x>."""
    G = np.asarray(G, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.linalg.solve(G, ad_matrix(c, x).T @ G @ x)


def e2_state(x0, t):
    """Geodesic of diag(1, 1, -1) on the plane motions: x3 is constant and
    (x1, x2) rotates at rate x3."""
    x1, x2, x3 = x0
    cs, sn = math.cos(x3 * t), math.sin(x3 * t)
    return (x1 * cs + x2 * sn, -x1 * sn + x2 * cs, x3)


def dim5_state(cpar, t):
    """Exact solution on dim5-nilpotent; the pole sits at t = -1."""
    s = 1.0 + t
    return (0.0, -2.0 / s**2, 2.0 / s, -1.0, 1.0 - cpar * s**2)


def check_signature(sig, expected):
    got = (sig.positive, sig.negative, sig.zero)
    require(got == tuple(expected), f"signature {got}, expected {tuple(expected)}")


def check_energy(G, states, tol=1e-7):
    """<x, x> stays at its initial value along the states."""
    G = np.asarray(G, dtype=float)
    xs = np.asarray(states, dtype=float)
    e = np.einsum("ti,ij,tj->t", xs, G, xs)
    scale = max(1.0, float(np.max(np.abs(G))) * float(np.max(xs**2)))
    drift = float(np.max(np.abs(e - e[0])))
    require(drift <= tol * scale, f"<x, x> drifts by {drift:.3g} (scale {scale:.3g})")


def check_states(times, states, exact_state, tol):
    for t, s in zip(times, states):
        ref = exact_state(t)
        require(close(s, ref, tol), f"state at t={t} is {list(s)}, closed form {list(ref)}")


def check_jacobi_expm(c, x0, y0, ydot0, times, ys, ydots, tol=1e-8):
    """On a bi-invariant metric x stays at x0 and z = (y, y') solves
    z' = [[0, I], [0, -ad_x]] z, so z(t) = expm(t M) z(0)."""
    n = len(x0)
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = np.eye(n)
    M[n:, n:] = -ad_matrix(c, x0)
    z0 = np.concatenate([np.asarray(y0, float), np.asarray(ydot0, float)])
    for t, y, yd in zip(times, ys, ydots):
        ref = expm(t * M) @ z0
        got = np.concatenate([np.asarray(y, float), np.asarray(yd, float)])
        require(close(got, ref, tol), f"variation field at t={t} is off expm by "
                f"{float(np.max(np.abs(got - ref))):.3g}")


def oscillator_roots(x_minus1, lams, window):
    """Conjugate times 2 pi k / (x_-1 lambda_j) inside (a, b], merged."""
    a, b = window
    out = []
    for lam in lams:
        w = abs(x_minus1) * float(lam)
        k = 1
        while 2 * math.pi * k / w <= b:
            t = 2 * math.pi * k / w
            if t > a and all(abs(t - u) > 1e-9 * max(1.0, t) for u in out):
                out.append(t)
            k += 1
    return sorted(out)


def check_roots(found, expected, tol=1e-6):
    """The scan found exactly the expected times, each within tol."""
    found = sorted(float(t) for t in found)
    require(len(found) == len(expected),
            f"scan found {len(found)} roots {found}, expected {len(expected)} {expected}")
    for f, e in zip(found, expected):
        require(abs(f - e) <= tol * max(1.0, abs(e)), f"root {f} is not the expected {e}")


# ---------------------------------------------------------------------------
# command line output


def _reject_constant(token):
    raise CheckFailed(f"stdout carries the non-JSON token {token}")


def parse_report(stdout):
    """Strict JSON: NaN and Infinity tokens are refused."""
    try:
        return json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"stdout is not JSON: {e}") from None


def check_exit(code, expected, stderr=""):
    tail = stderr.strip().splitlines()[-1:] if stderr else []
    require(code == expected, f"exit code {code}, expected {expected} {tail}")
