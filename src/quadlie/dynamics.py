"""Geodesic and Jacobi dynamics for left-invariant products.

Everything here runs in binary64; exact tensors are converted on entry.
The workhorse is a Dormand-Prince 5(4) pair with PI step control, an
escape radius for blow-up detection and a minimal step for collapse
detection.  Requested sample times are hit exactly by clamping steps, so
trajectory rows at those times carry no interpolation error.

The geodesic field is x' = -x x.  The variation field along a geodesic
obeys

    y'' + 2 x y' = [y, x] x + x [y, x] + [x x, y],

and right-invariant reflections y' = -[x, y] solve it identically, which
gives an integration-free oracle for the second-order route.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, scalars
from .algebra import bracket, structure_report
from .connection import ProductTensor
from .errors import DimensionMismatch, InvalidSpan, InvalidValue, NotNilpotent
from .errors import SeriesNotPreserved, StepBudgetExhausted
from .forms import SymmetricIso

__all__ = [
    "TerminationStatus",
    "Trajectory",
    "JacobiTrajectory",
    "ProbeResult",
    "ProbeReport",
    "ConjugateRoot",
    "ConjugateReport",
    "PolynomialCertificate",
    "euler_field",
    "quadratic_euler_field",
    "integrate_geodesic",
    "completeness_probe",
    "integrate_jacobi",
    "biinvariant_jacobi",
    "right_invariant_reflection",
    "jacobi_route_gap",
    "reflection_equation_residual",
    "conjugate_scan",
    "annotate_candidates",
    "polynomial_geodesic_check",
    "energy_drift",
]

ESCAPE_RADIUS = 1e8
MIN_STEP = 1e-12
STEP_BUDGET = 5_000_000

# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_ERR = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
_STAGES = 7


@dataclass(frozen=True)
class TerminationStatus:
    kind: str  # "completed" | "blowup" | "step-collapse"
    t: float

    @property
    def completed(self):
        return self.kind == "completed"


@dataclass(frozen=True)
class Trajectory:
    times: tuple
    states: tuple
    status: TerminationStatus

    @property
    def dim(self):
        return len(self.states[0]) if self.states else 0

    def state_at(self, t):
        times = self.times
        lo, hi = 0, len(times)
        while lo < hi:
            mid = (lo + hi) // 2
            if times[mid] < t:
                lo = mid + 1
            else:
                hi = mid
        tol = 1e-9 * max(1.0, abs(t))
        for idx in (lo - 1, lo, lo + 1):
            if 0 <= idx < len(times) and abs(times[idx] - t) <= tol:
                return self.states[idx]
        raise KeyError(f"no recorded state at t={t}")


@dataclass(frozen=True)
class JacobiTrajectory(Trajectory):
    """states holds the variation vectors; the base point and the
    velocity of the variation ride along."""

    base_states: tuple = ()
    derivative_states: tuple = ()


def _as_product(P):
    if not isinstance(P, ProductTensor):
        raise DimensionMismatch("expected a product tensor")
    return P if not P.exact else P.to_float()


def _check_span(t_span):
    try:
        t0, t1 = float(t_span[0]), float(t_span[1])
    except (TypeError, ValueError, IndexError):
        raise InvalidSpan(f"bad time span {t_span!r}") from None
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvalidSpan("time span must be finite")
    if t0 == t1:
        raise InvalidSpan("time span is empty")
    return t0, t1


def _initial_step(f, y0, f0, direction, tol, span):
    scale = tol + tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = f(y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _solve(f, y0, t0, t1, tol, *, escape=ESCAPE_RADIUS, hmin=MIN_STEP, t_eval=()):
    """March from t0 to t1.  Returns (times, states, status) in step order.

    t_eval points must lie strictly between t0 and t1 in the direction of
    travel; each becomes an exact mesh point.  Raises InvalidValue for a
    tolerance that is not positive and finite or a non-finite initial
    state, and StepBudgetExhausted after STEP_BUDGET attempted steps.
    """
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise InvalidValue(f"tolerance must be positive and finite, got {tol}")
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    y = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidValue("initial state must be finite")
    f0 = f(y)
    if not np.all(np.isfinite(f0)):
        return [t0], [y.copy()], TerminationStatus("blowup", t0)
    h = _initial_step(f, y, f0, direction, tol, span)

    targets = sorted((float(t) for t in t_eval), reverse=(direction < 0))
    targets.append(t1)
    times = [t0]
    states = [y.copy()]
    t = t0
    k1 = f0
    facold = 1e-4
    rejected = False
    nsteps = 0
    while True:
        nsteps += 1
        if nsteps > STEP_BUDGET:
            raise StepBudgetExhausted(f"no end after {STEP_BUDGET} steps, at t={t}")
        hmin_eff = max(hmin, 10 * np.finfo(float).eps * max(1.0, abs(t)))
        if h < hmin_eff:
            return times, states, TerminationStatus("step-collapse", t)
        target = targets[0]
        if abs(target - t) <= hmin_eff:
            # close enough that a step would underflow; snap to the target
            t = target
            targets.pop(0)
            times.append(t)
            states.append(y.copy())
            if not targets:
                return times, states, TerminationStatus("completed", t1)
            continue
        clamped = (t + direction * h - target) * direction >= 0
        h_use = (target - t) if clamped else direction * h

        ks = [k1]
        ok = True
        for s in range(1, _STAGES):
            acc = y + h_use * sum(a * k for a, k in zip(_A[s], ks) if a != 0.0)
            ki = f(acc)
            if not np.all(np.isfinite(ki)):
                ok = False
                break
            ks.append(ki)
        if ok:
            y_new = y + h_use * sum(b * k for b, k in zip(_B5, ks) if b != 0.0)
            err_vec = h_use * sum(e * k for e, k in zip(_ERR, ks) if e != 0.0)
            sc = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((err_vec / sc) ** 2)))
            if not math.isfinite(err):
                ok = False
        if not ok:
            h = 0.1 * abs(h_use)
            rejected = True
            continue

        if err <= 1.0:
            t = target if clamped else t + h_use
            if clamped:
                targets.pop(0)
            y = y_new
            k1 = ks[6]  # FSAL: last stage is f at the accepted state
            times.append(t)
            states.append(y.copy())
            if not np.all(np.isfinite(y)):
                return times[:-1], states[:-1], TerminationStatus("blowup", times[-2])
            if float(np.max(np.abs(y))) > escape:
                return times, states, TerminationStatus("blowup", t)
            if clamped and not targets:
                return times, states, TerminationStatus("completed", t1)
            if err > 0:
                fac = 0.9 * err ** (-0.7 / 5) * facold ** (0.4 / 5)
            else:
                fac = 10.0
            fac = min(1.0 if rejected else 10.0, max(0.2, fac))
            facold = max(err, 1e-4)
            if clamped:
                # keep the cruising step; the clamp was about the mesh,
                # not about accuracy
                h = max(h, abs(h_use) * fac)
            else:
                h = abs(h_use) * fac
            rejected = False
        else:
            h = abs(h_use) * max(0.2, 0.9 * err ** (-0.2))
            rejected = True


def _field_from(P_or_field):
    if isinstance(P_or_field, ProductTensor):
        P = _as_product(P_or_field)
        gam = P.array.num

        def fld(x):
            lx = scalars.left_mult(gam, x)
            return -lx @ x

        return fld, P.dim
    if callable(P_or_field):
        return P_or_field, None
    raise DimensionMismatch("expected a product tensor or a field callable")


def euler_field(P, x):
    """Right-hand side of the geodesic equation at x: the vector -x x."""
    if isinstance(P, ProductTensor):
        xs = scalars.coerce_vector(x, P.exact)
        xx = P.mult(xs, xs)
        return tuple(-v for v in xx)
    fld, _ = _field_from(P)
    return tuple(float(v) for v in fld(np.asarray(x, dtype=float)))


def quadratic_euler_field(L, u):
    """The same field through the invariant-form route:

    x' = u^{-1} [u(x), x].

    Returned as a callable plus an exact evaluator for cross-checks.
    """
    iso = u if isinstance(u, SymmetricIso) else SymmetricIso(
        L.dim, scalars.coerce_matrix(u, L.exact), L.exact
    )
    exact = L.exact and iso.exact
    uinv = linalg.inverse(iso.matrix, exact)

    def evaluate(x):
        ux = linalg.mat_vec(iso.matrix, scalars.coerce_vector(x, exact))
        br = bracket(L, ux, scalars.coerce_vector(x, exact))
        return linalg.mat_vec(uinv, br)

    Lf = L.to_float()
    umat = np.asarray(iso.matrix, dtype=float)
    uinv_f = np.asarray(uinv, dtype=float)
    carr = Lf.array.num

    def field(x):
        ux = umat @ x
        ad_ux = scalars.left_mult(carr, ux)
        return uinv_f @ (ad_ux @ x)

    return field, evaluate


def _inner_targets(t_eval, t0, t1):
    lo, hi = (t0, t1) if t1 > t0 else (t1, t0)
    return [float(t) for t in t_eval if lo < float(t) < hi]


def integrate_geodesic(P, x0, t_span, tol=1e-10, t_eval=()):
    t0, t1 = _check_span(t_span)
    fld, dim = _field_from(P)
    if dim is not None and len(x0) != dim:
        raise DimensionMismatch(f"seed of length {len(x0)} in dimension {dim}")
    times, states, status = _solve(
        fld, [float(v) for v in x0], t0, t1, tol,
        t_eval=_inner_targets(t_eval, t0, t1),
    )
    if t1 < t0:
        times = times[::-1]
        states = states[::-1]
    return Trajectory(
        times=tuple(times),
        states=tuple(tuple(float(v) for v in s) for s in states),
        status=status,
    )


@dataclass(frozen=True)
class ProbeResult:
    seed: tuple
    forward: TerminationStatus
    backward: TerminationStatus


@dataclass(frozen=True)
class ProbeReport:
    results: tuple
    span: tuple
    tol: float

    @property
    def incomplete(self):
        return any(
            not (r.forward.completed and r.backward.completed) for r in self.results
        )


def completeness_probe(P, seeds, t_max=1e3, tol=1e-10):
    """Integrate each seed both ways and report how each run ended.

    t_max may be a finite number T (probe (-T, T)) or a finite pair
    (a, b) with a < 0 < b for an asymmetric window.
    """
    if isinstance(t_max, (tuple, list)):
        back, fwd = float(t_max[0]), float(t_max[1])
        if not (-math.inf < back < 0 < fwd < math.inf):
            raise InvalidSpan("probe window must be finite and straddle 0")
    else:
        fwd = float(t_max)
        back = -fwd
        if not 0 < fwd < math.inf:
            raise InvalidSpan("probe horizon must be positive and finite")
    fld, dim = _field_from(P)
    results = []
    for seed in seeds:
        if dim is not None and len(seed) != dim:
            raise DimensionMismatch(f"seed of length {len(seed)} in dimension {dim}")
        x0 = [float(v) for v in seed]
        _, _, fstat = _solve(fld, x0, 0.0, fwd, tol)
        _, _, bstat = _solve(fld, x0, 0.0, back, tol)
        results.append(
            ProbeResult(seed=tuple(float(v) for v in seed), forward=fstat, backward=bstat)
        )
    return ProbeReport(results=tuple(results), span=(back, fwd), tol=tol)


def _jacobi_rhs(gam, carr):
    n = gam.shape[0]

    def rhs(z):
        x = z[:n]
        ncols = (len(z) - n) // (2 * n)
        Y = z[n : n + n * ncols].reshape(n, ncols)
        Yd = z[n + n * ncols :].reshape(n, ncols)
        lx = scalars.left_mult(gam, x)
        rx = np.einsum("ijk,j->ki", gam, x)
        adx = scalars.left_mult(carr, x)
        xx = lx @ x
        adxx = scalars.left_mult(carr, xx)
        xdot = -xx
        ydot = Yd
        yddot = -2.0 * (lx @ Yd) - (rx + lx) @ (adx @ Y) + adxx @ Y
        return np.concatenate([xdot, ydot.reshape(-1), yddot.reshape(-1)])

    return rhs


def integrate_jacobi(P, x0, y0, ydot0, t_span, tol=1e-10, t_eval=()):
    """Second-order variation equation along the geodesic from x0."""
    t0, t1 = _check_span(t_span)
    P = _as_product(P)
    n = P.dim
    for v in (x0, y0, ydot0):
        if len(v) != n:
            raise DimensionMismatch(f"vector of length {len(v)} in dimension {n}")
    gam = P.array.num
    carr = P.algebra.array.num
    rhs = _jacobi_rhs(gam, carr)
    z0 = np.concatenate(
        [
            np.asarray(x0, dtype=float),
            np.asarray(y0, dtype=float),
            np.asarray(ydot0, dtype=float),
        ]
    )
    times, zs, status = _solve(
        rhs, z0, t0, t1, tol, t_eval=_inner_targets(t_eval, t0, t1)
    )
    if t1 < t0:
        times = times[::-1]
        zs = zs[::-1]
    return JacobiTrajectory(
        times=tuple(times),
        states=tuple(tuple(float(v) for v in z[n : 2 * n]) for z in zs),
        status=status,
        base_states=tuple(tuple(float(v) for v in z[:n]) for z in zs),
        derivative_states=tuple(tuple(float(v) for v in z[2 * n :]) for z in zs),
    )


def biinvariant_jacobi(L, x0, y0, ydot0, t_span, tol=1e-10):
    """Reduced variation equation for half-bracket products:

    y'' = [y', x0] with the base point frozen.  Serves as a second route
    to check the full system against on bi-invariant examples.
    """
    t0, t1 = _check_span(t_span)
    Lf = L.to_float()
    n = Lf.dim
    carr = Lf.array.num
    x0a = np.asarray(x0, dtype=float)
    adx0 = scalars.left_mult(carr, x0a)

    def rhs(z):
        y = z[:n]
        yd = z[n:]
        return np.concatenate([yd, -adx0 @ yd])

    z0 = np.concatenate([np.asarray(y0, dtype=float), np.asarray(ydot0, dtype=float)])
    times, zs, status = _solve(rhs, z0, t0, t1, tol)
    if t1 < t0:
        times = times[::-1]
        zs = zs[::-1]
    return JacobiTrajectory(
        times=tuple(times),
        states=tuple(tuple(float(v) for v in z[:n]) for z in zs),
        status=status,
        base_states=tuple(tuple(float(v) for v in x0a) for _ in zs),
        derivative_states=tuple(tuple(float(v) for v in z[n:]) for z in zs),
    )


def right_invariant_reflection(L, P, x0, y0, t_span, tol=1e-10):
    """First-order route: transport y by y' = -[x, y] along the geodesic.

    The resulting field solves the variation equation with initial
    velocity -[x0, y0]; no second-order integration is involved.
    """
    t0, t1 = _check_span(t_span)
    P = _as_product(P)
    n = P.dim
    if len(x0) != n or len(y0) != n:
        raise DimensionMismatch("seed lengths do not match the algebra dimension")
    gam = P.array.num
    carr = L.to_float().array.num

    def rhs(z):
        x = z[:n]
        y = z[n:]
        lx = scalars.left_mult(gam, x)
        adx = scalars.left_mult(carr, x)
        return np.concatenate([-(lx @ x), -(adx @ y)])

    z0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)])
    times, zs, status = _solve(rhs, z0, t0, t1, tol)
    if t1 < t0:
        times = times[::-1]
        zs = zs[::-1]

    ydots = []
    for z in zs:
        x = z[:n]
        y = z[n:]
        adx = scalars.left_mult(carr, x)
        ydots.append(tuple(float(v) for v in -(adx @ y)))
    return JacobiTrajectory(
        times=tuple(times),
        states=tuple(tuple(float(v) for v in z[n:]) for z in zs),
        status=status,
        base_states=tuple(tuple(float(v) for v in z[:n]) for z in zs),
        derivative_states=tuple(ydots),
    )


def jacobi_route_gap(L, P, x0, y0, t_span, tol=1e-10, samples=101):
    """Sup-norm gap between the two routes to the same variation field.

    Runs the first-order reflection and the second-order system from the
    matched initial data on a shared sample grid and returns the largest
    componentwise difference.  Small gaps certify both integrations.
    """
    t0, t1 = _check_span(t_span)
    grid = [t0 + (t1 - t0) * i / (samples - 1) for i in range(1, samples - 1)]
    P = _as_product(P)
    n = P.dim
    gam = P.array.num
    carr = L.to_float().array.num

    def rhs_refl(z):
        x = z[:n]
        y = z[n:]
        lx = scalars.left_mult(gam, x)
        adx = scalars.left_mult(carr, x)
        return np.concatenate([-(lx @ x), -(adx @ y)])

    z0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)])
    times_a, zs_a, status_a = _solve(rhs_refl, z0, t0, t1, tol, t_eval=grid)

    x0a = np.asarray(x0, dtype=float)
    adx0 = scalars.left_mult(carr, x0a)
    ydot0 = -(adx0 @ np.asarray(y0, dtype=float))
    rhs_full = _jacobi_rhs(gam, carr)
    z0b = np.concatenate([x0a, np.asarray(y0, dtype=float), ydot0])
    times_b, zs_b, status_b = _solve(rhs_full, z0b, t0, t1, tol, t_eval=grid)

    if not (status_a.completed and status_b.completed):
        return math.inf
    lookup_a = {t: z for t, z in zip(times_a, zs_a)}
    lookup_b = {t: z for t, z in zip(times_b, zs_b)}
    gap = 0.0
    for t in list(grid) + [t1]:
        ya = lookup_a[t][n:]
        yb = lookup_b[t][n : 2 * n]
        gap = max(gap, float(np.max(np.abs(ya - yb))))
    return gap


def reflection_equation_residual(L, P, traj):
    """Pointwise residual of the variation equation along a reflection.

    Uses the closed form of y'' available for transported fields, so the
    value reflects algebraic cancellation, not integration error.
    """
    P = _as_product(P)
    n = P.dim
    gam = P.array.num
    carr = L.to_float().array.num
    worst = 0.0
    for x, y in zip(traj.base_states, traj.states):
        xa = np.asarray(x)
        ya = np.asarray(y)
        lx = scalars.left_mult(gam, xa)
        rx = np.einsum("ijk,j->ki", gam, xa)
        adx = scalars.left_mult(carr, xa)
        xx = lx @ xa
        adxx = scalars.left_mult(carr, xx)
        yd = -(adx @ ya)
        # y'' = [xx, y] + [x, [x, y]] from differentiating y' = -[x, y]
        ydd = adxx @ ya + adx @ (adx @ ya)
        res = ydd + 2.0 * (lx @ yd) + (rx + lx) @ (adx @ ya) - adxx @ ya
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


@dataclass(frozen=True)
class ConjugateRoot:
    t: float
    kernel: tuple
    det_value: float
    via: str


@dataclass(frozen=True)
class ConjugateReport:
    roots: tuple
    window: tuple
    grid: int
    det_scale: float
    samples: tuple  # (t, det/t^n) pairs on the scan grid
    primary_matches: tuple | None = None
    alternate_matches: tuple | None = None

    @property
    def times(self):
        return tuple(r.t for r in self.roots)


def conjugate_scan(P, x0, t_window, grid=200, tol=1e-10):
    """Hunt zeros of t -> det Y(t) / t^n for the fundamental variation
    columns started as Y(0) = 0, Y'(0) = I.

    Grid sign changes are sharpened by bisection to width 1e-10; grid
    minima of |det| that do not change sign are polished by golden
    section and kept when the minimum sits at 1e-12 of the grid scale,
    which is how even-multiplicity crossings are caught.
    """
    a, b = float(t_window[0]), float(t_window[1])
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise InvalidSpan(f"bad scan window ({a}, {b})")
    if a < 0:
        raise InvalidSpan("scan window must sit at nonnegative times")
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral) or grid < 1:
        raise InvalidSpan(f"scan grid must be an integer >= 1, got {grid}")
    grid = int(grid)
    P = _as_product(P)
    n = P.dim
    gam = P.array.num
    carr = P.algebra.array.num
    rhs = _jacobi_rhs(gam, carr)

    # the last grid time is b itself, the end of the mesh, whatever the
    # rounding of a + (b - a) * grid / grid
    ts = [a + (b - a) * i / grid for i in range(grid)] + [b]
    ts = [t for t in ts if t > 0]
    z0 = np.concatenate(
        [np.asarray(x0, dtype=float), np.zeros(n * n), np.eye(n).reshape(-1)]
    )
    times, zs, status = _solve(rhs, z0, 0.0, b, tol, t_eval=[t for t in ts if t < b])
    if not status.completed:
        raise InvalidSpan(f"variation system left the window: {status.kind} at t={status.t}")
    cache = {t: z for t, z in zip(times, zs)}

    def y_matrix(z):
        return z[n : n + n * n].reshape(n, n)

    def f_of(t, z):
        return float(np.linalg.det(y_matrix(z))) / t**n

    fs = [f_of(t, cache[t]) for t in ts]
    scale = max(abs(v) for v in fs) or 1.0
    det_scale = max(abs(float(np.linalg.det(y_matrix(cache[t])))) for t in ts) or 1.0

    def eval_from(tg, t):
        if t == tg:
            return cache[tg]
        _, zz, st = _solve(rhs, cache[tg], tg, t, tol)
        if not st.completed:
            raise InvalidSpan(f"variation system diverged inside the window at t={st.t}")
        return zz[-1]

    roots = []

    def add_root(t_star, z_star, via):
        for r in roots:
            if abs(r.t - t_star) <= 1e-8 * max(1.0, b):
                return
        Y = y_matrix(z_star)
        u_, sing, vt = np.linalg.svd(Y)
        cut = 1e-8 * (sing[0] if sing.size else 0.0)
        kern = tuple(
            tuple(float(v) for v in vt[i])
            for i in range(n)
            if sing[i] <= cut
        )
        roots.append(
            ConjugateRoot(
                t=t_star,
                kernel=kern,
                det_value=float(np.linalg.det(Y)),
                via=via,
            )
        )

    for i in range(len(ts) - 1):
        f0, f1 = fs[i], fs[i + 1]
        if f0 == 0.0:
            add_root(ts[i], cache[ts[i]], "sign-change")
            continue
        if f0 * f1 < 0:
            lo, hi = ts[i], ts[i + 1]
            flo = f0
            zlo = cache[ts[i]]
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                zmid = eval_from(ts[i], mid)
                fmid = f_of(mid, zmid)
                if fmid == 0.0:
                    lo = hi = mid
                    zlo = zmid
                    break
                if flo * fmid < 0:
                    hi = mid
                else:
                    lo, flo, zlo = mid, fmid, zmid
            t_star = 0.5 * (lo + hi)
            add_root(t_star, eval_from(ts[i], t_star), "sign-change")

    for i in range(1, len(ts) - 1):
        if abs(fs[i]) >= abs(fs[i - 1]) or abs(fs[i]) > abs(fs[i + 1]):
            continue
        if fs[i - 1] * fs[i] < 0 or fs[i] * fs[i + 1] < 0:
            continue
        if abs(fs[i]) > 1e-3 * scale:
            continue
        invphi = (math.sqrt(5.0) - 1) / 2
        lo, hi = ts[i - 1], ts[i + 1]
        c1 = hi - invphi * (hi - lo)
        c2 = lo + invphi * (hi - lo)
        fc1 = abs(f_of(c1, eval_from(ts[i - 1], c1)))
        fc2 = abs(f_of(c2, eval_from(ts[i - 1], c2)))
        for _ in range(60):
            if hi - lo <= 1e-10:
                break
            if fc1 < fc2:
                hi, c2, fc2 = c2, c1, fc1
                c1 = hi - invphi * (hi - lo)
                fc1 = abs(f_of(c1, eval_from(ts[i - 1], c1)))
            else:
                lo, c1, fc1 = c1, c2, fc2
                c2 = lo + invphi * (hi - lo)
                fc2 = abs(f_of(c2, eval_from(ts[i - 1], c2)))
        t_star = 0.5 * (lo + hi)
        z_star = eval_from(ts[i - 1], t_star)
        if abs(f_of(t_star, z_star)) <= 1e-12 * scale:
            add_root(t_star, z_star, "touch")

    roots.sort(key=lambda r: r.t)
    return ConjugateReport(
        roots=tuple(roots),
        window=(a, b),
        grid=grid,
        det_scale=det_scale,
        samples=tuple(zip(ts, fs)),
    )


def annotate_candidates(report, primary, alternate=(), match_tol=1e-6):
    """Mark which closed-form candidate times the scan found.

    primary carries the expected conjugate times, alternate the times a
    competing closed form would predict; the annotation shows the former
    matched and the latter rejected, or exposes a genuine disagreement.
    """
    found = report.times

    def match(c):
        best = None
        for t in found:
            if abs(t - c) <= match_tol * max(1.0, abs(c)):
                if best is None or abs(t - c) < abs(best - c):
                    best = t
        return best

    prim = tuple((float(c), match(c)) for c in primary)
    alt = tuple((float(c), match(c)) for c in alternate)
    return replace(report, primary_matches=prim, alternate_matches=alt)


@dataclass(frozen=True)
class PolynomialCertificate:
    nilpotency_class: int
    degree_bound: int
    derivative_spans_in_series: bool
    divided_diff_order: int
    divided_diff_max: float
    certified: bool


def polynomial_geodesic_check(L, u, trials=3, seed=0, tol=1e-7):
    """Certify polynomial geodesics for a nilpotent algebra with a
    series-preserving operator.

    Symbolic half: the span X_p of p-th derivative values of the
    momentum-form field w' = [w, u^{-1} w] obeys the recursion
    X_p = sum over i+j=p-1 of [X_i, u^{-1} X_j]; each X_p must land in
    the (p+1)-st lower central term, and the first empty X_m bounds the
    coordinate degree by m - 1.  Numeric half: divided differences of
    order m+1 on integrated trajectories of x' = u^{-1}[u x, x] must
    vanish to 1e-7.
    """
    rep = structure_report(L)
    if rep.nilpotency_class is None:
        raise NotNilpotent("lower central series does not reach zero")
    m_class = rep.nilpotency_class
    iso = u if isinstance(u, SymmetricIso) else SymmetricIso(
        L.dim, scalars.coerce_matrix(u, L.exact), L.exact
    )
    exact = L.exact and iso.exact

    series = rep.lower_central
    for idx in range(1, len(series)):
        basis = series[idx]
        for v in basis:
            if not linalg.in_span(basis, iso.apply(v), exact):
                raise SeriesNotPreserved(idx + 1)

    uinv = linalg.inverse(iso.matrix, exact)
    n = L.dim
    spans = [linalg.span_basis([L.basis_vector(i) for i in range(n)], exact)]
    in_series = True
    while spans[-1]:
        p = len(spans)
        vecs = []
        for i in range(p):
            j = p - 1 - i
            if i >= len(spans) or j >= len(spans):
                continue
            for vv in spans[i]:
                for ww in spans[j]:
                    vecs.append(bracket(L, vv, linalg.mat_vec(uinv, ww)))
        nxt = linalg.span_basis(vecs, exact)
        term = series[p] if p < len(series) else ()
        for vv in nxt:
            if not linalg.in_span(term, vv, exact):
                in_series = False
        spans.append(nxt)
        if len(spans) > n + 2:
            break
    degree_bound = len(spans) - 2  # first empty span at index m means degree <= m-1

    field, _ = quadratic_euler_field(L, iso)
    order = m_class + 1
    npts = order + 1
    span_t = 2.0
    h = span_t / (npts - 1)
    grid = [i * h for i in range(1, npts - 1)]
    import random

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        x0 = [rng.uniform(-1, 1) for _ in range(n)]
        times, zs, status = _solve(
            field, x0, 0.0, span_t, 1e-12, t_eval=grid
        )
        if not status.completed:
            worst = math.inf
            continue
        lookup = {t: z for t, z in zip(times, zs)}
        samples = [np.asarray(x0, dtype=float)] + [lookup[t] for t in grid] + [lookup[span_t]]
        diff = [np.asarray(s) for s in samples]
        for _k in range(order):
            diff = [diff[i + 1] - diff[i] for i in range(len(diff) - 1)]
        dd = max(float(np.max(np.abs(d))) for d in diff) / (
            h**order * math.factorial(order)
        )
        worst = max(worst, dd)
    certified = in_series and worst <= tol and degree_bound <= m_class - 1
    return PolynomialCertificate(
        nilpotency_class=m_class,
        degree_bound=degree_bound,
        derivative_spans_in_series=in_series,
        divided_diff_order=order,
        divided_diff_max=worst,
        certified=certified,
    )


def energy_drift(P, traj):
    """Relative wander of <x, x> along a trajectory; needs a metric."""
    if P.metric is None:
        raise DimensionMismatch("product has no metric to conserve")
    G = np.asarray(P.metric.matrix if not P.metric.exact else P.metric.to_float().matrix)
    xs = np.asarray(traj.states, dtype=float)
    energies = np.einsum("ti,ij,tj->t", xs, G, xs)
    e0 = energies[0]
    scale = max(abs(e0), float(np.max(np.abs(G))) * float(np.max(xs**2)), 1e-300)
    return float(np.max(np.abs(energies - e0))) / scale
