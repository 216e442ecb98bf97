"""Geodesic and Jacobi dynamics for left-invariant products.

Everything here runs in binary64; exact tensors are converted on entry.
The workhorse is DOP853, the eighth-order Dormand-Prince method as coded
by Hairer, Norsett and Wanner (Solving ODEs I, II.10): twelve stages, the
field at the new state reused as the first stage of the next step, the
combined fifth/third-order error estimate and the plain step controller of
that code, with an escape radius for blow-up detection and a minimal step
for collapse detection.  A run marches from t0 to t1 on its own mesh and
clamps only its last step, onto t1.  Every state off that mesh (requested
trajectory rows, the grids of the route gap and of the divided
differences, the times of a conjugate scan) is read off the seventh-order
continuous extension of the method, whose three extra stages are
evaluated only for the steps that are read.

Each integrator field is one bilinear table, contracted once when the
field is built: the geodesic field, its invariant-form route, the
reflection system and, in (x, 1), the variation system.  An evaluation is
two small matrix products, and one more for the variation columns.

The geodesic field is x' = -x x.  The variation field along a geodesic
obeys

    y'' + 2 x y' = [y, x] x + x [y, x] + [x x, y],

and right-invariant reflections y' = -[x, y] solve it identically, which
gives an integration-free oracle for the second-order route.
"""

import bisect
import math
import numbers
import random
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

# DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, II.10; the
# coefficients of their DOP853 code).  _A[s] combines the stages before s,
# entry by entry {column: coefficient}.  Rows 1-11 give stages 1-11; row 12
# is the eighth-order solution, where stage 12 is evaluated (first same as
# last); rows 13-15 are the three extra stages of the continuous extension.
_A_ENTRIES = (
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    {
        0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2,
    },
    {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1,
    },
    {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    {
        0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022,
    },
    {
        0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    {
        0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2,
    },
    {
        0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3,
        12: -8.298e-3,
    },
    {
        0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1,
    },
    {
        0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878,
        7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149,
        14: -9.15095847217987001081870187138,
    },
)
_STAGES = 13  # the twelve stages and the first-same-as-last stage 12
_A = np.zeros((16, 16))
for _s, _row in enumerate(_A_ENTRIES, start=1):
    _A[_s, list(_row)] = list(_row.values())
# a step's stage array K keeps its start state as row 16 under the stages,
# so each stage state is one product h _AY[s] @ K once column 16 is set to 1
_AY = np.zeros((16, 17))
_AY[:, :16] = _A

# the two embedded error estimates, of orders 5 and 3; the third-order one
# is the eighth-order weights less Hairer's bhh
_E5 = np.zeros(_STAGES)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
_E3 = _A[12, :_STAGES].copy()
_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
_ERR = np.array([_E5, _E3])

# the seventh-order continuous extension: on a step from y0 with signed
# step h, at x = (t - t0) / h,
#   y(t) = y0 + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3
#          + x (F4 + (1-x) (F5 + x F6))))))
# with F0 = dy, F1 = h k0 - dy, F2 = 2 dy - h (k0 + k12) and F3..F6 the rows
# of h _D K over all sixteen stages.  _POWER_BASIS takes (F0, ..., F6) to the
# coefficients of x, x^2, ..., x^7 of the same polynomial.
_D = np.zeros((4, 16))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (
    (
        -0.84289382761090128651353491142e1, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1,
        0.21170345824450282767155149946e1, -0.87139158377797299206789907490,
        0.22404374302607882758541771650e1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2,
        -0.91946323924783554000451984436e1, -0.44360363875948939664310572000e1,
    ),
    (
        0.10427508642579134603413151009e2, 0.24228349177525818288430175319e3,
        0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3,
        -0.22113666853125306036270938578e2, 0.77334326684722638389603898808e1,
        -0.30674084731089398182061213626e2, -0.93321305264302278729567221706e1,
        0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2,
        -0.93529243588444783865713862664e1, 0.35816841486394083752465898540e2,
    ),
    (
        0.19985053242002433820987653617e2, -0.38703730874935176555105901742e3,
        -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3,
        -0.11573902539959630126141871134e2, 0.68812326946963000169666922661e1,
        -0.10006050966910838403183860980e1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2,
        0.84320405506677161018159903784e2, 0.11992291136182789328035130030e2,
    ),
    (
        -0.25693933462703749003312586129e2, -0.15418974869023643374053993627e3,
        -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3,
        0.93405324183624310003907691704e2, -0.37458323136451633156875139351e2,
        0.10409964950896230045147246184e3, 0.29840293426660503123344363579e2,
        -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2,
        -0.39177261675615439165231486172e2, -0.14972683625798562581422125276e3,
    ),
)
_POWER_BASIS = np.array(
    [
        [1, 1, 0, 0, 0, 0, 0],
        [0, -1, 1, 1, 0, 0, 0],
        [0, 0, -1, -2, 1, 1, 0],
        [0, 0, 0, 1, -2, -3, 1],
        [0, 0, 0, 0, 1, 3, -3],
        [0, 0, 0, 0, 0, -1, 3],
        [0, 0, 0, 0, 0, 0, -1],
    ],
    dtype=float,
)
_POWERS = np.arange(1, 8)


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
        lo = bisect.bisect_left(times, t)
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
    if h0 == 0.0:  # d1 overflowed; _solve reports the step collapse
        return 0.0
    y1 = y0 + h0 * direction * f0
    f1 = f(y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


class _Dense:
    """The continuous extension of one _solve run, to seventh order in the
    step.  _solve hands over its field and records each accepted step with
    its stages; the first call that lands in a step evaluates that step's
    three extra stages and coefficients, so unread steps cost nothing."""

    def __init__(self):
        self.field = None  # handed over by _solve
        self.keys = []  # start of each accepted step, times the direction
        # [start, signed step, start state, end state, stage array, (7, m)
        # coefficients or None until the step is read] per step
        self.steps = []

    def record(self, t, h, y, y_new, K):
        """K is the step's stage array: stages 0-12, zero rows for the three
        extra stages and the start state as row 16."""
        self.keys.append(t if h > 0 else -t)
        self.steps.append([t, h, y, y_new, K, None])

    def __call__(self, t):
        key = t if self.steps[0][1] > 0 else -t
        step = self.steps[max(bisect.bisect_right(self.keys, key) - 1, 0)]
        t0, h, y, y_new, K, C = step
        if C is None:
            hA = h * _AY
            hA[:, 16] = 1.0
            for s in range(_STAGES, 16):
                K[s] = self.field(hA[s] @ K)
            dy = y_new - y
            F = np.empty((7, y.size))
            F[0] = dy
            F[1] = h * K[0] - dy
            F[2] = 2 * dy - h * (K[0] + K[12])
            F[3:] = h * (_D @ K[:16])
            C = step[5] = _POWER_BASIS @ F
        return y + ((t - t0) / h) ** _POWERS @ C


def _solve(f, y0, t0, t1, tol, *, escape=ESCAPE_RADIUS, hmin=MIN_STEP, dense=None):
    """March from t0 to t1.  Returns (times, states, status) in step order.

    The controller sizes every step, and only the last is clamped, onto
    t1; a run that blows up or whose step collapses stops early.  A _Dense
    passed as dense is handed the field and records every accepted step,
    so that states between mesh points can be read off it afterwards.
    Raises InvalidValue for a tolerance that is not positive and finite or
    a non-finite initial state, and StepBudgetExhausted after STEP_BUDGET
    attempted steps.
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
        return [t0], [y], TerminationStatus("blowup", t0)
    h = _initial_step(f, y, f0, direction, tol, span)
    if dense is not None:
        dense.field = f

    times = [t0]
    states = [y]  # each state is a fresh array, never written in place
    t = t0
    k1 = f0
    rejected = False
    nsteps = 0
    # a stage past a blow-up may overflow; the one finiteness test per
    # attempt rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            nsteps += 1
            if nsteps > STEP_BUDGET:
                raise StepBudgetExhausted(f"no end after {STEP_BUDGET} steps, at t={t}")
            hmin_eff = max(hmin, 10 * np.finfo(float).eps * max(1.0, abs(t)))
            if h < hmin_eff:
                return times, states, TerminationStatus("step-collapse", t)
            if abs(t1 - t) <= hmin_eff:
                # close enough that a step would underflow; snap to t1
                times.append(t1)
                states.append(y)
                return times, states, TerminationStatus("completed", t1)
            last = (t + direction * h - t1) * direction >= 0
            h_use = (t1 - t) if last else direction * h

            # the stages, then the start state; rows not yet evaluated stay
            # zero, so each stage state is one product with the whole of K
            K = np.zeros((17, y.size))
            K[0] = k1
            K[16] = y
            hA = h_use * _AY
            hA[:, 16] = 1.0
            for s in range(1, _STAGES):
                y_new = hA[s] @ K
                K[s] = f(y_new)
            err = math.nan
            if np.isfinite(K[:_STAGES]).all():
                # the combined estimate of DOP853: the fifth-order error,
                # damped where the third-order one is large against it
                sc = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
                e5, e3 = np.square((_ERR @ K[:_STAGES]) / sc).sum(axis=1).tolist()
                denom = e5 + 0.01 * e3
                err = abs(h_use) * e5 / math.sqrt(denom * y.size) if denom > 0 else 0.0
            if not math.isfinite(err):
                h = 0.1 * abs(h_use)
                rejected = True
                continue

            if err <= 1.0:
                if dense is not None:
                    dense.record(t, h_use, y, y_new, K)
                t = t1 if last else t + h_use
                y = y_new
                k1 = K[12]  # FSAL: stage 12 is f at the accepted state
                times.append(t)
                states.append(y)
                if not np.all(np.isfinite(y)):
                    return times[:-1], states[:-1], TerminationStatus("blowup", times[-2])
                if float(np.max(np.abs(y))) > escape:
                    return times, states, TerminationStatus("blowup", t)
                if last:
                    return times, states, TerminationStatus("completed", t1)
                fac = 0.9 * err ** (-1 / 8) if err > 0 else 10.0
                h = abs(h_use) * min(1.0 if rejected else 10.0, max(0.2, fac))
                rejected = False
            else:
                h = abs(h_use) * max(0.2, 0.9 * err ** (-1 / 8))
                rejected = True


def _quadratic(table):
    """The map x -> sum_ij x_i x_j t[i][j] of a bilinear table t[i][j][k].

    The table is flattened once to (n, n p), so each evaluation is two
    small matrix products: x @ T gives the matrix of y -> sum_ij x_i y_j
    t[i][j] with rows j, and x @ that gives the value.
    """
    n, _, p = table.shape
    flat = np.ascontiguousarray(table.reshape(n, n * p))

    def field(x):
        return x @ (x @ flat).reshape(n, p)

    return field


def _field_from(P_or_field):
    if isinstance(P_or_field, ProductTensor):
        P = _as_product(P_or_field)
        return _quadratic(-P.array.num), P.dim
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

    # u^{-1} [u x, x] is bilinear in x: contract u, the bracket table and
    # u^{-1} into one table t[p][j][l] = sum_ik u_ip c_ijk (u^{-1})_lk
    umat = np.asarray(iso.matrix, dtype=float)
    uinv_f = np.asarray(uinv, dtype=float)
    table = np.einsum("ip,ijk,lk->pjl", umat, L.to_float().array.num, uinv_f)
    return _quadratic(table), evaluate


def _sampled(f, y0, t0, t1, tol, t_eval=()):
    """One _solve run as rows in increasing time: its mesh, plus each time
    of t_eval that the run covered and that is not a mesh time, read off
    the continuous extension."""
    wanted = set()
    for t in t_eval:
        try:
            ok = isinstance(t, numbers.Real) and not isinstance(t, bool) and math.isfinite(t)
        except OverflowError:  # an int or a Fraction beyond binary64
            ok = False
        if not ok:
            raise InvalidSpan(f"sample times must be finite reals, got {t!r}")
        wanted.add(float(t))
    dense = _Dense() if wanted else None
    times, states, status = _solve(f, y0, t0, t1, tol, dense=dense)
    # a run that snapped onto t1 at once has no step to read
    lo, hi = sorted((t0, times[-1])) if dense and dense.steps else (t0, t0)
    extra = [t for t in wanted.difference(times) if lo <= t <= hi]
    rows = sorted(zip(times + extra, states + [dense(t) for t in extra]), key=lambda r: r[0])
    return [t for t, _ in rows], [z for _, z in rows], status


def integrate_geodesic(P, x0, t_span, tol=1e-10, t_eval=()):
    """Integrate the geodesic x' = -x x from x0 over t_span.

    Rows, in increasing time: the solver's mesh up to where the run
    stopped, plus each distinct time of t_eval the run covered, read off
    the continuous extension; a requested mesh time keeps the mesh row,
    and times outside the span or past a blow-up are ignored.  Raises
    InvalidSpan for a bad span or an entry of t_eval that is not a finite
    real.
    """
    t0, t1 = _check_span(t_span)
    fld, dim = _field_from(P)
    if dim is not None and len(x0) != dim:
        raise DimensionMismatch(f"seed of length {len(x0)} in dimension {dim}")
    times, states, status = _sampled(fld, [float(v) for v in x0], t0, t1, tol, t_eval)
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
    """The geodesic x' = -x x with variation columns, z = (x, Y, Y') flat.

    The columns obey Y'' = A Y + B Y' with A = ad_{x x} - (R_x + L_x) ad_x,
    quadratic in x, and B = -2 L_x, linear in x.  With xa = (x, 1) both
    are quadratic in xa, so -x x and the rows of [A | B] come out of one
    bilinear table in xa.
    """
    n = gam.shape[0]
    # in (k, m) layout, A[k][m] = sum_ij x_i x_j a[i][j][k][m]
    a = np.einsum("ijp,pmk->ijkm", gam, carr) - np.einsum(
        "qik,jmq->ijkm", gam + gam.transpose(1, 0, 2), carr
    )
    geodesic = np.zeros((n + 1, n + 1, n))
    geodesic[:n, :n] = -gam
    rows = np.zeros((n + 1, n + 1, n, 2 * n))
    rows[:n, :n, :, :n] = a
    rows[:n, n, :, n:] = -2.0 * gam.transpose(0, 2, 1)
    table = np.concatenate([geodesic, rows.reshape(n + 1, n + 1, -1)], axis=2)
    quad = _quadratic(table)
    one = np.ones(1)

    def rhs(z):
        q = quad(np.concatenate((z[:n], one)))
        V = z[n:].reshape(2 * n, -1)  # Y over Y'
        yddot = q[n:].reshape(n, 2 * n) @ V
        return np.concatenate((q[:n], z[n + V.size // 2 :], yddot.reshape(-1)))

    return rhs


def _reflection_rhs(gam, carr):
    """The geodesic x' = -x x together with y' = -[x, y]: one bilinear
    table in z = (x, y)."""
    n = gam.shape[0]
    table = np.zeros((2 * n, 2 * n, 2 * n))
    table[:n, :n, :n] = -gam
    table[:n, n:, n:] = -carr
    return _quadratic(table)


def integrate_jacobi(P, x0, y0, ydot0, t_span, tol=1e-10, t_eval=()):
    """Second-order variation equation along the geodesic from x0.

    The rows are those of integrate_geodesic over the same span and
    t_eval: states hold the variation y, base_states the geodesic x and
    derivative_states y'.
    """
    t0, t1 = _check_span(t_span)
    P = _as_product(P)
    n = P.dim
    for v in (x0, y0, ydot0):
        if len(v) != n:
            raise DimensionMismatch(f"vector of length {len(v)} in dimension {n}")
    gam = P.array.num
    carr = P.algebra.array.num
    rhs = _jacobi_rhs(gam, carr)
    z0 = np.array([*x0, *y0, *ydot0], dtype=float)
    times, zs, status = _sampled(rhs, z0, t0, t1, tol, t_eval)
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
    times, zs, status = _sampled(rhs, z0, t0, t1, tol)
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
    rhs = _reflection_rhs(P.array.num, L.to_float().array.num)
    z0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)])
    times, zs, status = _sampled(rhs, z0, t0, t1, tol)
    return JacobiTrajectory(
        times=tuple(times),
        states=tuple(tuple(float(v) for v in z[n:]) for z in zs),
        status=status,
        base_states=tuple(tuple(float(v) for v in z[:n]) for z in zs),
        # y' = -[x, y] is the second half of the field
        derivative_states=tuple(tuple(float(v) for v in rhs(z)[n:]) for z in zs),
    )


def jacobi_route_gap(L, P, x0, y0, t_span, tol=1e-10, samples=101):
    """Sup-norm gap between the two routes to the same variation field.

    Runs the first-order reflection and the second-order system from the
    matched initial data and returns the largest componentwise difference
    of their continuous extensions at samples evenly spaced times from t0
    to t1, an integer of at least 2.  Small gaps certify both
    integrations.
    """
    t0, t1 = _check_span(t_span)
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 2:
        raise InvalidSpan(f"route-gap samples must be an integer >= 2, got {samples!r}")
    # t0 is left out, where the routes agree by construction; the last
    # time is t1 itself
    grid = [t0 + (t1 - t0) * i / (samples - 1) for i in range(1, samples - 1)] + [t1]
    P = _as_product(P)
    n = P.dim
    gam = P.array.num
    carr = L.to_float().array.num
    z0 = np.concatenate([np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)])
    rhs_a = _reflection_rhs(gam, carr)
    dense_a = _Dense()
    _, _, status_a = _solve(rhs_a, z0, t0, t1, tol, dense=dense_a)

    # the matched start: y'(0) = -[x0, y0], the second half of the field
    z0b = np.concatenate([z0, rhs_a(z0)[n:]])
    dense_b = _Dense()
    _, _, status_b = _solve(_jacobi_rhs(gam, carr), z0b, t0, t1, tol, dense=dense_b)

    if not (status_a.completed and status_b.completed):
        return math.inf
    if not dense_a.steps:
        raise InvalidSpan(f"span end {t1} is within the minimal step of {t0}")
    return max(float(np.max(np.abs(dense_a(t)[n:] - dense_b(t)[n : 2 * n]))) for t in grid)


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

    The variation system is integrated once, from 0 to the window's end,
    and every value below is read off the continuous extension of that
    run: the grid samples, the bisection of each grid sign change to
    width 1e-10, and the golden-section polish of every grid minimum of
    |det| that does not change sign, kept when the minimum sits at 1e-12
    of the grid scale, which is how even-multiplicity crossings are
    caught.
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
    rhs = _jacobi_rhs(P.array.num, P.algebra.array.num)

    # the last grid time is b itself, the end of the run, whatever the
    # rounding of a + (b - a) * grid / grid
    ts = [a + (b - a) * i / grid for i in range(grid)] + [b]
    ts = [t for t in ts if t > 0]
    z0 = np.concatenate(
        [np.asarray(x0, dtype=float), np.zeros(n * n), np.eye(n).reshape(-1)]
    )
    dense = _Dense()
    _, _, status = _solve(rhs, z0, 0.0, b, tol, dense=dense)
    if not status.completed:
        raise InvalidSpan(f"variation system left the window: {status.kind} at t={status.t}")
    if not dense.steps:
        raise InvalidSpan(f"scan window end {b} is within the minimal step of 0")

    def y_matrix(t):
        return dense(t)[n : n + n * n].reshape(n, n)

    def f_of(t):
        return float(np.linalg.det(y_matrix(t))) / t**n

    dets = np.linalg.det(np.array([y_matrix(t) for t in ts]))
    fs = [float(d) / t**n for d, t in zip(dets, ts)]
    scale = max(abs(v) for v in fs) or 1.0
    det_scale = float(np.max(np.abs(dets))) or 1.0

    roots = []

    def add_root(t_star, via):
        for r in roots:
            if abs(r.t - t_star) <= 1e-8 * max(1.0, b):
                return
        Y = y_matrix(t_star)
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
            add_root(ts[i], "sign-change")
            continue
        if f0 * f1 < 0:
            lo, hi = ts[i], ts[i + 1]
            flo = f0
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                fmid = f_of(mid)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            add_root(0.5 * (lo + hi), "sign-change")

    invphi = (math.sqrt(5.0) - 1) / 2
    for i in range(1, len(ts) - 1):
        if abs(fs[i]) >= abs(fs[i - 1]) or abs(fs[i]) > abs(fs[i + 1]):
            continue
        if fs[i - 1] * fs[i] < 0 or fs[i] * fs[i + 1] < 0:
            continue
        lo, hi = ts[i - 1], ts[i + 1]
        c1 = hi - invphi * (hi - lo)
        c2 = lo + invphi * (hi - lo)
        fc1 = abs(f_of(c1))
        fc2 = abs(f_of(c2))
        for _ in range(60):
            if hi - lo <= 1e-10:
                break
            if fc1 < fc2:
                hi, c2, fc2 = c2, c1, fc1
                c1 = hi - invphi * (hi - lo)
                fc1 = abs(f_of(c1))
            else:
                lo, c1, fc1 = c1, c2, fc2
                c2 = lo + invphi * (hi - lo)
                fc2 = abs(f_of(c2))
        t_star = 0.5 * (lo + hi)
        if abs(f_of(t_star)) <= 1e-12 * scale:
            add_root(t_star, "touch")

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
            for vv in spans[i]:
                for ww in spans[p - 1 - i]:
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
    grid = [i * h for i in range(1, npts - 1)] + [span_t]
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        x0 = [rng.uniform(-1, 1) for _ in range(n)]
        dense = _Dense()
        _, _, status = _solve(field, x0, 0.0, span_t, 1e-12, dense=dense)
        if not status.completed:
            worst = math.inf
            continue
        diff = [np.asarray(x0, dtype=float)] + [dense(t) for t in grid]
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
