"""Geodesic and Jacobi dynamics for left-invariant products.

Everything here runs in binary64; exact tensors are converted on entry.
The workhorse is DOP853, the eighth-order Dormand-Prince method as coded
by Hairer, Norsett and Wanner (Solving ODEs I, II.10): twelve stages, the
field at the new state reused as the first stage of the next step and the
combined fifth/third-order error estimate of that code.  The step
controller is the elementary one: the next step is 0.9 err^(-1/8) times
the last, the ratio kept in [0.2, 10] (the defaults of Hairer's DOPRI5
code; his DOP853 code keeps [1/3, 6]), no growth on the step after a
rejection and a tenfold cut after a non-finite estimate.  An escape
radius detects blow-up and a minimal step detects collapse.  A run
marches from t0 to t1 on its own mesh and clamps only its last step, onto
t1.  Every state off that mesh (requested trajectory rows, the grids of
the route gap and of the divided differences, the times of a conjugate
scan) is read off the seventh-order continuous extension of the method,
whose three extra stages are evaluated only for the steps that are read.
A read takes one time or a 1-D array of times and serves all of them at
once, each row bit for bit the read of its time alone; so a conjugate
scan runs all its root searches, bisections and golden sections alike,
in lockstep, one read and one stacked determinant per round, and settles
every root from one last read.  A scan on a flat metric, where
det Y / t^n is constant up to the solve's error, is one read of its grid.

One _solve serves a single run and a block of runs alike and returns one
record per row, a _Run: how the row stopped, its step counts and, when
kept, its mesh and continuous extension.  Given a (B, n) block with one
end per row, it runs every row in one step loop: each row keeps its own
time, step size, accept/reject decision and status and leaves the block
when it stops, while the stages, the field calls and the error norms are
each one array operation across the rows.  So a field callable maps
(..., n) states to (..., n), and the variation systems do too, each row
as its 1-D call; a read of the continuous extension calls the field on
the block of the steps it reads.  completeness_probe runs all its seeds,
both ways, as one block and polynomial_geodesic_check its trials as kept
blocks of TRIAL_BLOCK rows; every other entry point is a single run with
a 1-D state.

Each integrator field is one bilinear table, contracted once when the
field is built: the geodesic field, its invariant-form route, the
reflection system and, in (x, 1), the variation system.  An evaluation is
two small matrix products, and one more for the variation columns.

The geodesic field is x' = -x x.  The variation field along a geodesic
obeys

    y'' + 2 x y' = [y, x] x + x [y, x] + [x x, y],

and right-invariant reflections y' = -[x, y] solve it identically, which
gives an integration-free oracle for the second-order route: the
reflection residual evaluates the variation table that the integrator
runs on all the rows of a run at once, against the closed form of y''.
"""

import bisect
import math
import numbers
import random
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, scalars
from .algebra import as_algebra, brackets, structure_report
from .connection import ProductTensor, as_product
from .errors import DimensionMismatch, InvalidSpan, InvalidValue, NotNilpotent
from .errors import SeriesNotPreserved, StepBudgetExhausted
from .forms import as_iso

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
# attempted steps per row: the most that any run of the tests, the
# benchmark workloads or the CLI corpus takes is 34,868, a MAX_SPAN run on
# e2-motion at tol 1e-10 from the seed (0.7, -0.3, 1.3); with 43% margin, a
# row that the escape radius does not end stops within a few seconds (3.5 s
# for a dimension-12 field on a 2-core x86-64 host)
STEP_BUDGET = 50_000
# the longest run, in time units: ten times the CLI's default probe
# horizon; e2-motion takes about 27k DOP853 steps for it at tol 1e-10
MAX_SPAN = 1e4
# the most sample times of a scan grid or a route-gap comparison, each one
# read of the continuous extension
MAX_GRID = 10**5
# polynomial_geodesic_check integrates its trials in blocks of this many
# rows and drops a block's kept runs, about 11 kB a row, once read: any
# number of trials holds one block's runs at a time
TRIAL_BLOCK = 1000

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
_EPS = np.finfo(float).eps


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
    """P in binary64, as every integrator reads it."""
    return as_product(P).to_float()


def _bracket_table(L, n):
    """The structure constants of L as a float64 array; DimensionMismatch
    unless L is a Lie algebra of the product's dimension n."""
    L = as_algebra(L)
    if L.dim != n:
        raise DimensionMismatch(f"algebra of dimension {L.dim} for a product in dimension {n}")
    return L.to_float().array.num


def _trajectory(traj, n, kind=Trajectory):
    """[states], or [base_states, states] for a JacobiTrajectory, of a
    nonempty run of the given kind in dimension n, each a (rows, n) float
    array read by _seed_block; DimensionMismatch otherwise."""
    if not isinstance(traj, kind):
        raise DimensionMismatch(f"expected a {kind.__name__} in dimension {n}")
    fields = ("base_states", "states") if kind is JacobiTrajectory else ("states",)
    rows = [_seed_block(getattr(traj, name), n) for name in fields]
    if not len(rows[-1]) or len(rows[0]) != len(rows[-1]):
        raise DimensionMismatch(f"expected a nonempty {kind.__name__}, its rows paired")
    return rows


def _rows(a):
    """The rows of a 2-D array as a tuple of tuples of floats."""
    return tuple(map(tuple, a.tolist()))


def _finite_real(v):
    """Whether v is a real number, not a bool, that is finite in binary64."""
    try:
        # float named first: an isinstance against the numbers.Real ABC alone
        # takes about 0.4 us, and every entry of every seed is tested
        return isinstance(v, (float, numbers.Real)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int or a Fraction beyond binary64
        return False


def _positive(value, what):
    """InvalidValue unless value is a positive real, not a bool, that is
    finite in binary64."""
    if not (_finite_real(value) and value > 0):
        raise InvalidValue(f"{what} must be positive and finite, got {value!r}")


def _check_span(t_span):
    """(t0, t1) as floats of a pair of finite reals, not bools, that differ
    by at most MAX_SPAN.  Every span, scan window and probe horizon a
    caller hands in is read here, so InvalidSpan ends a malformed or
    longer run before its first step."""
    try:
        t0, t1 = t_span
    except (TypeError, ValueError):
        t0 = t1 = None
    if not (_finite_real(t0) and _finite_real(t1)):
        raise InvalidSpan(f"time span must be a pair of finite reals, got {t_span!r}")
    t0, t1 = float(t0), float(t1)
    if t0 == t1:
        raise InvalidSpan(f"time span ({t0:g}, {t1:g}) is empty")
    if abs(t1 - t0) > MAX_SPAN:
        raise InvalidSpan(f"time span ({t0:g}, {t1:g}) is longer than {MAX_SPAN:g}")
    return t0, t1


def _count(value, least, what):
    """value as an int when it is an integer, not a bool, from least to
    MAX_GRID; InvalidSpan otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidSpan(f"{what} must be an integer >= {least}, got {value!r}")
    if value > MAX_GRID:
        raise InvalidSpan(f"{what} {value} exceeds {MAX_GRID}")
    return int(value)


def _initial_step(f, y0, f0, directions, tol, spans):
    """Hairer's starting step for each row of y0, with one field call for
    all of them; a list of step sizes."""
    scale = tol + tol * np.abs(y0)

    def rms(a):
        """the root mean square of each row of a / scale, as a list"""
        r = np.sqrt(np.square(a / scale).sum(axis=-1) / a.shape[-1]).tolist()
        return r if y0.ndim > 1 else [r]

    d0s, d1s = rms(y0), rms(f0)
    h0s = [1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1 for d0, d1 in zip(d0s, d1s)]
    if not any(h0s):  # every d1 overflowed
        return h0s
    moves = [h0 * d for h0, d in zip(h0s, directions)]
    y1 = y0 + (moves[0] if y0.ndim == 1 else np.array(moves)[:, None]) * f0
    steps = []
    for h0, d1, d2, span in zip(h0s, d1s, rms(f(y1) - f0), spans):
        if h0 == 0.0:  # d1 overflowed; _solve reports the step collapse
            steps.append(0.0)
            continue
        d = max(d1, d2 / h0)
        h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** (1 / 8)
        steps.append(min(100 * h0, h1, span))
    return steps


class _Run:
    """One row of a _solve call: how it stopped (status, None while it
    runs), its accepted and rejected step counts and, when the call keeps
    its runs, its mesh (times in step order and the state at each, never
    written in place) and its continuous extension, to seventh order in
    the step.  _solve records each accepted step with its stages; reads
    come after the run.

    A read takes one time t, giving the (N,) state, or a 1-D array of m
    times, giving (m, N) rows, and each row is bit for bit the read of its
    time alone.  One searchsorted over the step starts, in the direction
    of the run, finds the step of every time.  The steps read for the
    first time get their three extra stages together, one field call per
    stage on the (S, N) block of those steps, and their coefficients are
    kept; unread steps cost nothing.  Then one vecmat of each time's
    powers against its step's coefficients gives the rows.
    """

    def __init__(self, field, t0, y0, keep):
        self.field = field
        self.status = None
        self.accepted = self.rejected = 0
        self.times, self.states = ([t0], [y0]) if keep else ([], [])
        self.keys = []  # start of each accepted step, times the direction
        # (start, signed step, start state, end state, stage array) per step
        self.steps = []
        # per step, from the first read on: whether it was read, and once
        # it is, its start, signed step, start state and (7, N)
        # coefficients (the arrays starts, h, y and C)
        self.read = None

    def record(self, t, h, y, y_new, K):
        """K is the step's stage array: stages 0-12, zero rows for the three
        extra stages and the start state as row 16."""
        self.keys.append(t if h > 0 else -t)
        self.steps.append((t, h, y, y_new, K))

    def __call__(self, t):
        if self.read is None or self.read.size != len(self.steps):
            m, size = len(self.steps), self.steps[0][2].size
            self.read = np.zeros(m, dtype=bool)
            self.starts, self.h = np.empty(m), np.empty(m)
            self.y, self.C = np.empty((m, size)), np.empty((m, 7, size))
            # the step of a time is the number of later step starts at or
            # before it, which clamps a time before the run onto step 0
            self.later_keys = np.array(self.keys[1:])
        t = np.asarray(t, dtype=float)
        key = t if self.steps[0][1] > 0 else -t
        i = np.searchsorted(self.later_keys, key, side="right")
        touched = np.ravel(i)
        fresh = touched[~self.read[touched]]
        if fresh.size:
            # sorted(set()) and not np.unique, whose first call imports numpy.ma
            self._coefficients(sorted(set(fresh.tolist())))
        x = (t - self.starts[i]) / self.h[i]
        return self.y[i] + np.vecmat(x[..., None] ** _POWERS, self.C[i])

    def _coefficients(self, fresh):
        """Fill in the steps of the list fresh, each as its own read would."""
        t0, h, y, y_new, K = map(np.array, zip(*(self.steps[k] for k in fresh)))
        hA = h[:, None, None] * _AY
        hA[..., 16] = 1.0
        for s in range(_STAGES, 16):
            K[:, s] = self.field(np.vecmat(hA[:, s], K))
        dy = y_new - y
        hs = h[:, None]
        F = np.empty((len(h), 7, y.shape[1]))
        F[:, 0] = dy
        F[:, 1] = hs * K[:, 0] - dy
        F[:, 2] = 2 * dy - hs * (K[:, 0] + K[:, 12])
        F[:, 3:] = hs[..., None] * (_D @ K[:, :16])
        self.C[fresh] = _POWER_BASIS @ F
        self.starts[fresh], self.h[fresh], self.y[fresh] = t0, h, y
        self.read[fresh] = True


def _solve(f, y0, t0, t1, tol, keep=False):
    """March from t0 to t1: one run for a 1-D y0, or one run per row of a
    (B, n) block y0 with per-row ends t1, a sequence of B times.  Returns
    one _Run per row, in row order: a list of one for a 1-D y0.

    The controller sizes every step, and only the last is clamped, onto
    the end; a run stops early when it blows up (a state not finite or
    past ESCAPE_RADIUS) or when its step falls below MIN_STEP.  Each row
    keeps its own time, step size, accept/reject decision, step budget and
    status, and leaves the block when it stops; across the rows the
    stages, field calls, finiteness test and error norms are each one
    array operation, so f maps (..., n) states to (..., n).  Every other
    operation acts on each row as it would on that row alone; with a field
    that does too, as _quadratic's does, a row ends exactly as its own 1-D
    run would, with the same mesh and the same continuous extension.  A
    1-D y0 runs without a row axis, which would cost every numpy call.

    With keep, each run records its mesh and every accepted step, so that
    states between mesh points can be read off it afterwards.  Raises
    InvalidValue for a tolerance that is not positive and finite or a
    non-finite initial state, and StepBudgetExhausted when a row reaches
    STEP_BUDGET attempted steps.
    """
    _positive(tol, "tolerance")
    y = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise InvalidValue("initial state must be finite")
    single = y.ndim == 1
    ends = [t1] if single else list(t1)
    n = y.shape[-1]

    def by_row(a):
        """a as a sequence of its rows, a 1-D run's a being its one row;
        by_row(a.tolist()) gives one Python value per row"""
        return [a] if single else a

    runs = [_Run(f, t0, row, keep) for row in by_row(y)]
    # per row: time, step size and whether its last attempt was rejected
    t = [t0] * len(ends)
    directions = [1.0 if end > t0 else -1.0 for end in ends]
    retry = [False] * len(ends)

    # a start state or a stage past a blow-up may overflow; the start's
    # finiteness test and the one test per attempt catch it
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = f(y)
        live = []  # the rows still running, in block order
        for i, ok in enumerate(by_row(np.isfinite(f0).all(axis=-1).tolist())):
            if ok:
                live.append(i)
            else:
                runs[i].status = TerminationStatus("blowup", t0)
        if len(live) < len(ends) and not single:
            y, f0 = y[live], f0[live]
        h = [0.0] * len(ends)
        if live:
            spans = [abs(ends[i] - t0) for i in live]
            steps = _initial_step(f, y, f0, [directions[i] for i in live], tol, spans)
            for i, step in zip(live, steps):
                h[i] = step

        k1 = f0
        while True:
            # stops before an attempt, then each moving row's signed step;
            # rows that stopped stay in the block until here
            moving, h_use, last = [], [], []
            for j, i in enumerate(live):
                run = runs[i]
                if run.status is not None:
                    continue
                ti, end = t[i], ends[i]
                if run.accepted + run.rejected >= STEP_BUDGET:
                    raise StepBudgetExhausted(f"no end after {STEP_BUDGET} steps, at t={ti}")
                hmin = max(MIN_STEP, 10 * _EPS * max(1.0, abs(ti)))
                if h[i] < hmin:
                    run.status = TerminationStatus("step-collapse", ti)
                elif abs(end - ti) <= hmin:
                    # close enough that a step would underflow; snap to the end
                    run.status = TerminationStatus("completed", end)
                    if keep:
                        run.times.append(end)
                        run.states.append(by_row(y)[j])
                else:
                    d = directions[i]
                    lst = (ti + d * h[i] - end) * d >= 0
                    moving.append(i)
                    h_use.append((end - ti) if lst else d * h[i])
                    last.append(lst)
            if not moving:
                break
            if len(moving) < len(live):
                rows = [j for j, i in enumerate(live) if runs[i].status is None]
                y, k1, live = y[rows], k1[rows], moving

            # the stages, then the start state; rows not yet evaluated stay
            # zero, so each stage state is one product with the whole of K
            K = np.zeros(y.shape[:-1] + (17, n))
            K[..., 0, :] = k1
            K[..., 16, :] = y
            # hA[s] is stage s's row of h _AY, for each row of a block
            hA = h_use[0] * _AY if single else np.array(h_use)[:, None] * _AY[:, None, :]
            hA[..., 16] = 1.0
            for s in range(1, _STAGES):
                y_new = np.vecmat(hA[s], K)
                K[..., s, :] = f(y_new)
            stages = K[..., :_STAGES, :]
            finite = by_row(np.isfinite(stages).all(axis=(-2, -1)).tolist())
            # the combined estimate of DOP853: the fifth-order error, damped
            # where the third-order one is large against it
            sc = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
            norms = np.square((_ERR @ stages) / sc[..., None, :]).sum(axis=-1)
            taken = []
            for j, ((e5, e3), ok) in enumerate(zip(by_row(norms.tolist()), finite)):
                i, hu = live[j], h_use[j]
                err = math.nan
                if ok:
                    denom = e5 + 0.01 * e3
                    err = abs(hu) * e5 / math.sqrt(denom * n) if denom > 0 else 0.0
                if err <= 1.0:
                    taken.append((j, err))
                    continue
                # a non-finite estimate shrinks the step tenfold
                fac = max(0.2, 0.9 * err ** (-1 / 8)) if math.isfinite(err) else 0.1
                h[i] = abs(hu) * fac
                retry[i] = True
                runs[i].rejected += 1
            if not taken:
                continue

            peaks = by_row(np.abs(y_new).max(axis=-1).tolist())
            if keep:
                ys, ys_new, Ks = by_row(y), by_row(y_new), by_row(K)
            for j, err in taken:
                i, hu = live[j], h_use[j]
                run = runs[i]
                t_prev = t[i]
                t[i] = ends[i] if last[j] else t_prev + hu
                run.accepted += 1
                if not math.isfinite(peaks[j]):
                    run.status = TerminationStatus("blowup", t_prev)
                    continue
                if keep:
                    state = ys_new[j]
                    run.record(t_prev, hu, ys[j], state, Ks[j])
                    run.times.append(t[i])
                    run.states.append(state)
                if peaks[j] > ESCAPE_RADIUS:
                    run.status = TerminationStatus("blowup", t[i])
                elif last[j]:
                    run.status = TerminationStatus("completed", ends[i])
                else:
                    fac = 0.9 * err ** (-1 / 8) if err > 0 else 10.0
                    h[i] = abs(hu) * min(1.0 if retry[i] else 10.0, max(0.2, fac))
                    retry[i] = False
            if len(taken) == len(live):
                y, k1 = y_new, K[..., 12, :]  # FSAL: stage 12 is f at the new state
            else:
                rows = [j for j, _ in taken]
                y, k1 = y.copy(), k1.copy()
                y[rows], k1[rows] = y_new[rows], K[rows, 12]
    return runs


def _quadratic(table):
    """The map x -> sum_ij x_i x_j t[i][j] of a bilinear table t[i][j][k],
    for a state x of shape (n,) or a block of rows (B, n).

    The table is flattened once to (n, n p), so each evaluation is two
    small vector-matrix products per row: x T gives the matrix of
    y -> sum_ij x_i y_j t[i][j] with rows j, and x times that gives the
    value.  Both are vecmat, row by row: a block product x @ T would run
    as one matrix product, whose rounding differs from that of the single
    row's.
    """
    n, _, p = table.shape
    flat = np.ascontiguousarray(table.reshape(n, n * p))
    one, block = (n, p), (-1, n, p)

    def field(x):
        rows = np.vecmat(x, flat)
        return np.vecmat(x, rows.reshape(one if rows.ndim == 1 else block))

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
        return tuple(-v for v in P.mult(x, x))
    fld, _ = _field_from(P)
    return tuple(float(v) for v in fld(_seed_block([x], None)[0]))


def quadratic_euler_field(L, u):
    """The same field through the invariant-form route:

    x' = u^{-1} [u(x), x].

    Returned as a callable plus an evaluator for cross-checks, exact when
    L and u are.  u^{-1} [u x, x] is bilinear in x, so both read one table
    t[p][j][l] = sum_ik u_ip c_ijk (u^{-1})_lk, a single contraction.
    """
    L = as_algebra(L)
    L, iso = scalars.common_mode(L, as_iso(u, L.dim))
    table = scalars.contract("ip,ijk,lk->pjl", iso.array, L.array, iso.inverse)

    def evaluate(x):
        xs = iso.vector(x)
        return scalars.contract("p,pjl,j->l", xs, table, xs).tuples()

    return _quadratic(table.to_float().num), evaluate


def _sampled(f, y0, t0, t1, tol, t_eval=()):
    """One kept _solve run as rows in increasing time: its mesh, plus each
    time of t_eval that the run covered and that is not a mesh time, read
    off the continuous extension.  Returns the times, the (rows, N) array
    of states and the status."""
    wanted = set()
    for t in t_eval:
        if not _finite_real(t):
            raise InvalidSpan(f"sample times must be finite reals, got {t!r}")
        wanted.add(float(t))
    (run,) = _solve(f, y0, t0, t1, tol, keep=True)
    # a run that snapped onto t1 at once has no step to read
    lo, hi = sorted((t0, run.times[-1])) if run.steps else (t0, t0)
    extra = [t for t in wanted.difference(run.times) if lo <= t <= hi]
    times = run.times + extra
    states = np.concatenate([run.states, run(np.array(extra))]) if extra else np.array(run.states)
    order = sorted(range(len(times)), key=times.__getitem__)
    return [times[k] for k in order], states[order], run.status


def integrate_geodesic(P, x0, t_span, tol=1e-10, t_eval=()):
    """Integrate the geodesic x' = -x x from x0 over t_span.

    Rows, in increasing time: the solver's mesh up to where the run
    stopped, plus each distinct time of t_eval the run covered, read off
    the continuous extension; a requested mesh time keeps the mesh row,
    and times outside the span or past a blow-up are ignored.  Raises
    InvalidSpan for a bad span or an entry of t_eval that is not a finite
    real, DimensionMismatch for a seed of the wrong length and
    InvalidValue for a seed entry that is not a finite real.
    """
    t0, t1 = _check_span(t_span)
    fld, dim = _field_from(P)
    times, states, status = _sampled(fld, _seed_block([x0], dim)[0], t0, t1, tol, t_eval)
    return Trajectory(times=tuple(times), states=_rows(states), status=status)


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


def _probe_window(t_max):
    """(back, fwd) of a probe horizon T, meaning (-T, T), or of a pair
    (a, b) with a < 0 < b.  The signs of finite real ends are read first,
    so a pair with an end at 0 fails as one that does not straddle 0; then
    each end is read by _check_span as a span from 0, so it is a finite
    real no more than MAX_SPAN from 0."""
    pair = isinstance(t_max, (tuple, list))
    if pair and len(t_max) != 2:
        raise InvalidSpan(f"probe window must be a pair (a, b), got {t_max!r}")
    ends = t_max if pair else (t_max,)
    if all(map(_finite_real, ends)) and not (ends[0] < 0 < ends[1] if pair else ends[0] > 0):
        raise InvalidSpan(
            "probe window must straddle 0" if pair else "probe horizon must be positive"
        )
    ends = [_check_span((0.0, end))[1] for end in ends]
    return tuple(ends) if pair else (-ends[0], ends[0])


def _seed_block(seeds, dim):
    """The seeds (or a run's rows) as one (B, n) block of floats, every row
    checked before any row runs: DimensionMismatch for a row that is not a
    vector of the field's dimension (or, for a bare field, of the first
    row's length), InvalidValue for an entry that is not a finite real."""
    try:
        seeds = list(seeds)
    except TypeError:
        raise DimensionMismatch(f"{seeds!r} is not a list of vectors") from None
    rows = []
    for seed in seeds:
        try:
            size = len(seed)
        except TypeError:
            raise DimensionMismatch(f"{seed!r} is not a vector") from None
        if dim is None:  # a bare field takes the first seed's length
            dim = size
        if size != dim:
            raise DimensionMismatch(f"vector of length {size} in dimension {dim}")
        if not all(map(_finite_real, seed)):
            raise InvalidValue(f"vector entries must be finite reals, got {seed!r}")
        rows.append([float(v) for v in seed])
    return np.array(rows, dtype=float).reshape(len(rows), dim or 0)


def completeness_probe(P, seeds, t_max=1e3, tol=1e-10):
    """Integrate each seed both ways and report how each run ended.

    t_max may be a finite number T (probe (-T, T)) or a finite pair
    (a, b) with a < 0 < b for an asymmetric window.  Every seed runs in
    both directions as one batch: a single _solve over the block of rows
    (seed 1 forward, seed 1 backward, seed 2 forward, ...), each row with
    its own step control, so each status is the one its own run would
    give.  Raises InvalidSpan for a bad window, DimensionMismatch for a
    seed of the wrong length and InvalidValue for a seed entry that is not
    a finite real, all before any run starts.
    """
    back, fwd = _probe_window(t_max)
    fld, dim = _field_from(P)
    block = _seed_block(seeds, dim)
    runs = []
    if len(block):
        runs = _solve(fld, np.repeat(block, 2, axis=0), 0.0, [fwd, back] * len(block), tol)
    results = tuple(
        ProbeResult(seed=tuple(seed), forward=runs[2 * k].status, backward=runs[2 * k + 1].status)
        for k, seed in enumerate(block.tolist())
    )
    return ProbeReport(results=results, span=(back, fwd), tol=tol)


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
    # xa = (x, 1) for each shape of the rows, kept from call to call, so
    # that a call only copies x in
    xas = {}

    def rhs(z):
        rows = z.shape[:-1]
        xa = xas.get(rows)
        if xa is None:
            xa = xas[rows] = np.ones(rows + (n + 1,))
        xa[..., :n] = z[..., :n]
        q = quad(xa)
        V = z[..., n:].reshape(rows + (2 * n, -1))  # Y over Y'
        yddot = q[..., n:].reshape(rows + (n, 2 * n)) @ V
        ydot = z[..., n + V.shape[-1] * n :]
        return np.concatenate((q[..., :n], ydot, yddot.reshape(rows + (-1,))), -1)

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
    z0 = _seed_block([x0, y0, ydot0], n).reshape(-1)
    rhs = _jacobi_rhs(P.array.num, P.algebra.array.num)
    times, zs, status = _sampled(rhs, z0, t0, t1, tol, t_eval)
    x, y, yd = np.split(zs, 3, axis=1)
    return JacobiTrajectory(times=tuple(times), states=_rows(y), status=status,
                            base_states=_rows(x), derivative_states=_rows(yd))


def biinvariant_jacobi(L, x0, y0, ydot0, t_span, tol=1e-10):
    """Reduced variation equation for half-bracket products:

    y'' = [y', x0] with the base point frozen.  Serves as a second route
    to check the full system against on bi-invariant examples.
    """
    t0, t1 = _check_span(t_span)
    Lf = as_algebra(L).to_float()
    n = Lf.dim
    x0a, y0a, ydot0a = _seed_block([x0, y0, ydot0], n)
    minus_adx0 = -np.einsum("ijk,i->kj", Lf.array.num, x0a)

    def rhs(z):
        yd = z[..., n:]
        return np.concatenate([yd, np.matvec(minus_adx0, yd)], -1)

    times, zs, status = _sampled(rhs, np.concatenate([y0a, ydot0a]), t0, t1, tol)
    y, yd = np.split(zs, 2, axis=1)
    return JacobiTrajectory(times=tuple(times), states=_rows(y), status=status,
                            base_states=_rows(x0a[None]) * len(times), derivative_states=_rows(yd))


def right_invariant_reflection(L, P, x0, y0, t_span, tol=1e-10):
    """First-order route: transport y by y' = -[x, y] along the geodesic.

    The resulting field solves the variation equation with initial
    velocity -[x0, y0]; no second-order integration is involved.
    """
    t0, t1 = _check_span(t_span)
    P = _as_product(P)
    n = P.dim
    z0 = _seed_block([x0, y0], n).reshape(-1)
    rhs = _reflection_rhs(P.array.num, _bracket_table(L, n))
    times, zs, status = _sampled(rhs, z0, t0, t1, tol)
    x, y = np.split(zs, 2, axis=1)
    # y' = -[x, y] is the second half of the field
    return JacobiTrajectory(times=tuple(times), states=_rows(y), status=status,
                            base_states=_rows(x), derivative_states=_rows(rhs(zs)[:, n:]))


def jacobi_route_gap(L, P, x0, y0, t_span, tol=1e-10, samples=101):
    """Sup-norm gap between the two routes to the same variation field.

    Runs the first-order reflection and the second-order system from the
    matched initial data and returns the largest componentwise difference
    of their continuous extensions at samples evenly spaced times from t0
    to t1, an integer of at least 2.  Small gaps certify both
    integrations.
    """
    t0, t1 = _check_span(t_span)
    samples = _count(samples, 2, "route-gap samples")
    # t0 is left out, where the routes agree by construction; the last
    # time is t1 itself
    grid = [t0 + (t1 - t0) * i / (samples - 1) for i in range(1, samples - 1)] + [t1]
    P = _as_product(P)
    n = P.dim
    gam = P.array.num
    carr = _bracket_table(L, n)
    z0 = _seed_block([x0, y0], n).reshape(-1)
    rhs_a = _reflection_rhs(gam, carr)
    (run_a,) = _solve(rhs_a, z0, t0, t1, tol, keep=True)

    # the matched start: y'(0) = -[x0, y0], the second half of the field
    z0b = np.concatenate([z0, rhs_a(z0)[n:]])
    (run_b,) = _solve(_jacobi_rhs(gam, carr), z0b, t0, t1, tol, keep=True)

    if not (run_a.status.completed and run_b.status.completed):
        return math.inf
    if not run_a.steps:
        raise InvalidSpan(f"span end {t1} is within the minimal step of {t0}")
    grid = np.array(grid)
    return float(np.max(np.abs(run_a(grid)[:, n:] - run_b(grid)[:, n : 2 * n])))


def reflection_equation_residual(L, P, traj):
    """Pointwise residual of the variation equation along a reflection.

    Uses the closed form of y'' available for transported fields, so the
    value reflects algebraic cancellation, not integration error: the
    largest entry over all rows of y'' - (A y + B y'), with A and B those
    of the integrator's own variation table.  Rows are read by _trajectory.
    """
    P = _as_product(P)
    n = P.dim
    gam = P.array.num
    carr = _bracket_table(L, n)
    x, y = _trajectory(traj, n, JacobiTrajectory)
    xd, yd = np.split(_reflection_rhs(gam, carr)(np.concatenate([x, y], 1)), 2, axis=1)
    # y'' = -[x', y] - [x, y'] from differentiating y' = -[x, y]
    ydd = -np.einsum("rsi,rsj,ijk->rk", np.stack([xd, x], 1), np.stack([y, yd], 1), carr)
    yddot = _jacobi_rhs(gam, carr)(np.concatenate([x, y, yd], 1))[:, 2 * n :]
    return float(np.max(np.abs(ydd - yddot)))


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


def _touch_candidates(ts, fs, scale, tol):
    """The (lo, hi) bracket of each grid minimum of |f| that may hold a
    root of even multiplicity, in grid order.

    A minimum is a grid time t_i with |f_i| < |f_{i-1}|, |f_i| <= |f_{i+1}|
    and no sign change on either side.  With g = |f_i| and d the rise
    max(|f_{i-1}|, |f_{i+1}|) - g, a minimum is dropped only when it is
    flat, d <= 100 tol g (at most 1e-6 g, so that a coarse tol never
    flattens a real dip), and above the acceptance level of a touch root,
    g - d > 1e-12 scale.  No rule on three samples bounds f between them
    (an f the grid does not resolve can dip to a root between samples of
    any values), so this one drops only minima whose samples differ by no
    more than the solve's own error: a det Y / t^n that is constant in
    exact arithmetic comes out of a solve at tol varying by up to about
    8 tol of its size (e2-motion, tol 1e-12 to 1e-8, windows to 1000),
    and by rounding on a flat phi metric.  A minimum that varies more is
    kept, and so is every root the samples show: a double root k (t - r)^2
    at s <= h/2 from its nearest grid time (step h) gives g = k s^2
    against d >= k h^2 >= 4 g, a quartic root d >= 16 g, a grid zero
    g = 0 < d.  A root between three samples that agree to 100 tol is the
    one case dropped.
    """
    brackets = []
    for i in range(1, len(ts) - 1):
        g0, g, g1 = abs(fs[i - 1]), abs(fs[i]), abs(fs[i + 1])
        if g >= g0 or g > g1:
            continue
        if fs[i - 1] * fs[i] < 0 or fs[i] * fs[i + 1] < 0:
            continue
        d = max(g0, g1) - g
        if d > min(100 * tol, 1e-6) * g or g - d <= 1e-12 * scale:
            brackets.append((ts[i - 1], ts[i + 1]))
    return brackets


def _bisect(lo, hi, f_lo):
    """Bisect a sign change of f on [lo, hi], where f(lo) = f_lo, to width
    1e-10, as a _lockstep search; returns the last bracket's midpoint."""
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        (f_mid,) = yield (mid,)
        if f_mid == 0.0:
            lo = hi = mid
        elif f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _golden(lo, hi):
    """Golden-section search for the minimum of |f| on [lo, hi], to width
    1e-10 or for 60 rounds past the first two points; as _bisect."""
    invphi = (math.sqrt(5.0) - 1) / 2
    c1, c2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = yield c1, c2
    for _ in range(60):
        if hi - lo <= 1e-10:
            break
        if abs(f1) < abs(f2):
            hi, c2, f2 = c2, c1, f1
            c1 = hi - invphi * (hi - lo)
            (f1,) = yield (c1,)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + invphi * (hi - lo)
            (f2,) = yield (c2,)
    return 0.5 * (lo + hi)


def _lockstep(searches, f):
    """Run generator searches to their ends together and return the value
    each returns, in order.  A search yields the tuple of times it needs
    next and is sent the list of f at them; f takes a list of times, and
    each round calls it once, on the times of every search still open."""
    ends = [None] * len(searches)
    sends = [(i, search, None) for i, search in enumerate(searches)]
    while sends:
        asks = []  # (index, search, times asked) of each search still open
        for i, search, values in sends:
            try:
                asks.append((i, search, search.send(values)))
            except StopIteration as stop:
                ends[i] = stop.value
        values = iter(f([t for *_, times in asks for t in times]) if asks else ())
        sends = [(i, search, [next(values) for _ in times]) for i, search, times in asks]
    return ends


def conjugate_scan(P, x0, t_window, grid=200, tol=1e-10):
    """Hunt zeros of t -> det Y(t) / t^n for the fundamental variation
    columns started as Y(0) = 0, Y'(0) = I.

    The variation system is integrated once, from 0 to the window's end,
    and every value is read off the continuous extension of that run: one
    read for the grid, then one per round of the searches, run in
    lockstep: a bisection of each grid sign change to width 1e-10 and a
    golden section of each grid minimum of |det| that does not change
    sign, which is how even-multiplicity crossings are caught
    (_touch_candidates says which minima it skips).  One last read at
    every search's end settles the roots: a polished minimum is one when
    it sits at 1e-12 of the grid scale, a root within 1e-8 of an earlier
    one (sign changes first) is dropped, and each root's determinant and
    kernel come from that read.  On a flat metric, where det Y / t^n is
    constant, the scan is one read of its grid.  Raises InvalidSpan for a
    window that is not a pair of finite reals 0 <= a < b, b at most
    MAX_SPAN, or a grid that is not an integer from 1 to MAX_GRID.
    """
    a, b = _check_span(t_window)
    if not a < b:
        raise InvalidSpan(f"bad scan window ({a}, {b})")
    if a < 0:
        raise InvalidSpan("scan window must sit at nonnegative times")
    grid = _count(grid, 1, "scan grid")
    _check_span((0.0, b))
    P = _as_product(P)
    n = P.dim
    rhs = _jacobi_rhs(P.array.num, P.algebra.array.num)

    # the last grid time is b itself, the end of the run, whatever the
    # rounding of a + (b - a) * grid / grid
    ts = [a + (b - a) * i / grid for i in range(grid)] + [b]
    ts = [t for t in ts if t > 0]
    z0 = np.concatenate([_seed_block([x0], n)[0], np.zeros(n * n), np.eye(n).reshape(-1)])
    (run,) = _solve(rhs, z0, 0.0, b, tol, keep=True)
    status = run.status
    if not status.completed:
        raise InvalidSpan(f"variation system left the window: {status.kind} at t={status.t}")
    if not run.steps:
        raise InvalidSpan(f"scan window end {b} is within the minimal step of 0")

    def read(times):
        """Y, det Y and det Y / t^n at each of times, from one read"""
        Ys = run(np.array(times))[:, n : n + n * n].reshape(-1, n, n)
        dets = np.linalg.det(Ys)
        return Ys, dets, [float(d) / t**n for d, t in zip(dets, times)]

    _, dets, fs = read(ts)
    scale = max(abs(v) for v in fs) or 1.0
    det_scale = float(np.max(np.abs(dets))) or 1.0

    # a bisection of each grid zero and each grid sign change, in grid
    # order, then a golden section of each touch candidate
    signs = [
        _bisect(ts[i], ts[i] if fs[i] == 0.0 else ts[i + 1], fs[i])
        for i in range(len(ts) - 1)
        if fs[i] == 0.0 or fs[i] * fs[i + 1] < 0
    ]
    touches = [_golden(lo, hi) for lo, hi in _touch_candidates(ts, fs, scale, tol)]
    ends = _lockstep(signs + touches, lambda times: read(times)[2])

    roots = []
    if ends:
        Ys, dets, fs_end = read(ends)
        _, sings, vts = np.linalg.svd(Ys)
        for k, (t_star, f, det, sing, vt) in enumerate(zip(ends, fs_end, dets, sings, vts)):
            via = "sign-change" if k < len(signs) else "touch"
            if via == "touch" and abs(f) > 1e-12 * scale:
                continue
            if any(abs(r.t - t_star) <= 1e-8 * max(1.0, b) for r in roots):
                continue
            cut = 1e-8 * (sing[0] if sing.size else 0.0)
            kern = tuple(tuple(vt[i].tolist()) for i in range(n) if sing[i] <= cut)
            roots.append(ConjugateRoot(t=t_star, kernel=kern, det_value=float(det), via=via))
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
    Both are read as a seed is, each a vector of finite reals, and
    match_tol, the relative distance of a match, must be positive and
    finite (InvalidValue).
    """
    if not isinstance(report, ConjugateReport):
        raise DimensionMismatch("expected a conjugate scan report")
    _positive(match_tol, "match_tol")
    found = report.times

    def match(c):
        near = [t for t in found if abs(t - c) <= match_tol * max(1.0, abs(c))]
        return min(near, key=lambda t: abs(t - c), default=None)

    prim, alt = (
        tuple((c, match(c)) for c in _seed_block([times], None)[0].tolist())
        for times in (primary, alternate)
    )
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
    vanish to tol.  trials, the number of trajectories, is an integer from
    1 to MAX_GRID (InvalidSpan); tol must be positive and finite and seed
    one that random.Random takes (InvalidValue).
    """
    trials = _count(trials, 1, "trials")
    _positive(tol, "tol")
    try:
        rng = random.Random(seed)
    except TypeError:
        raise InvalidValue(f"seed {seed!r} is not one random.Random takes") from None
    rep = structure_report(L)
    if rep.nilpotency_class is None:
        raise NotNilpotent("lower central series does not reach zero")
    m_class = rep.nilpotency_class
    L, iso = scalars.common_mode(L, as_iso(u, L.dim))
    n, exact = L.dim, iso.exact
    series = [scalars.to_array(term, exact).reshape(-1, n) for term in rep.lower_central]
    for idx in range(1, len(series)):
        basis = series[idx]
        image = scalars.contract("ij,aj->ai", iso.array, basis)  # the rows u(v)
        if not linalg.in_span(basis, image):
            raise SeriesNotPreserved(idx + 1)

    spans = [linalg.span_basis(scalars.eye(n, exact))]
    in_series = True
    while len(spans[-1].num):
        p = len(spans)
        # the brackets [v, u^{-1} w] over v in X_i and w in X_{p-1-i}
        vecs = [
            brackets(L, spans[i], scalars.contract("lk,bk->bl", iso.inverse, spans[p - 1 - i]))
            for i in range(p)
        ]
        nxt = linalg.span_basis(scalars.stack([v.reshape(-1, n) for v in vecs]))
        term = series[min(p, len(series) - 1)]  # the last term is empty
        in_series = in_series and linalg.in_span(term, nxt)
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
    seeds = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(trials)])
    worst = 0.0
    # each block's kept records are dropped once its differences are read
    for block in np.split(seeds, range(TRIAL_BLOCK, trials, TRIAL_BLOCK)):
        ends = [span_t] * len(block)
        for x0, run in zip(block, _solve(field, block, 0.0, ends, 1e-12, keep=True)):
            if not run.status.completed:
                worst = math.inf
                continue
            diff = np.diff(np.concatenate([x0[None], run(np.array(grid))]), n=order, axis=0)
            worst = max(worst, float(np.max(np.abs(diff))) / (h**order * math.factorial(order)))
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
    """Relative wander of <x, x> along a trajectory, its rows read by
    _trajectory; needs a metric."""
    if as_product(P).metric is None:
        raise DimensionMismatch("product has no metric to conserve")
    G = P.metric.to_float().array.num
    (xs,) = _trajectory(traj, P.dim)
    energies = np.einsum("ti,ij,tj->t", xs, G, xs)
    e0 = energies[0]
    scale = max(abs(e0), float(np.max(np.abs(G))) * float(np.max(xs**2)), 1e-300)
    return float(np.max(np.abs(energies - e0))) / scale
