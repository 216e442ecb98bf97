"""Timed, checked operations on quadlie's public functions.

An operation is one unit the end-to-end metrics count: an exact or a
binary64 certificate, an analysis, a probe, a scan, a trajectory, a file
round trip, a command.  Run.op times the operation alone, then checks its
output against the references in checks.py; a raised error or a failed
check makes the operation fail and stops the run after its round.
"""

import json
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

import checks
import gen
from checks import CheckFailed, require
from quadlie import fileio
from quadlie.algebra import structure_report, validate_algebra
from quadlie.connection import curvature, levi_civita, product_report
from quadlie.constructions import TwoStepSpec, build_two_step, two_step_metric
from quadlie.dynamics import (
    completeness_probe,
    conjugate_scan,
    integrate_geodesic,
    integrate_jacobi,
)
from quadlie.forms import check_ad_invariance, metric_from_iso, signature, validate_form

TOL = 1e-10  # integrator tolerance of every dynamics operation


class Run:
    """Operations of one run, in phases ("prepare", "round", "cold") that
    may be passed through several times.  A pass checks each output
    against the references, or, when it repeats the inputs of the first
    pass, requires the identical output; (phase, index) names an
    operation across passes.  Every operation is timed between two
    speed-reference samples."""

    def __init__(self, recorder, clock, starts):
        self.rec = recorder
        self.clock = clock  # in-process speed reference
        self.starts = starts  # speed reference for child interpreters
        self.ops = []  # (kind, start, end, phase, pass, child)
        self.first = {}  # (phase, index) -> output of the first pass
        self.failures = []
        self.begin("prepare", 0)
        self.evals = 0  # field evaluations through counted callables
        self.eval_spans = []  # (start, end) of the calls that used them
        self.first_round = {"mesh_points": 0}  # counts of the first round, exact per seed

    def begin(self, phase, npass, repeat=False):
        """Start a pass; repeat means the pass reruns the first one's inputs."""
        self.phase, self.npass, self.repeat, self.index = phase, npass, repeat, 0

    def op(self, kind, fn, check=None, child=False):
        key = (self.phase, self.index)
        self.index += 1
        label = f"{self.phase}{self.npass}.{kind}#{key[1]}"
        if child and self.starts.idle(1.0):
            self.starts.sample()
        self.clock.sample()
        start = perf_counter()
        end = None
        try:
            with self.rec.span(f"op.{kind}", op=label):
                result = fn()
            end = perf_counter()
            self.clock.sample()
            if child:
                self.starts.sample()
            if self.repeat:
                require(result == self.first[key], "output differs from the first pass")
            else:
                if check is not None:
                    check(result)
                self.first[key] = result
        except CheckFailed as e:
            self._fail(label, str(e))
        except Exception as e:  # a crash inside quadlie is a failed operation
            self._fail(label, f"{type(e).__name__}: {e}")
        else:
            self.ops.append((kind, start, end, self.phase, self.npass, child))
            return result
        self.ops.append((kind, start, end or perf_counter(), self.phase, self.npass, child))
        raise RoundFailed(label)

    def _fail(self, label, message):
        self.failures.append(f"{label}: {message}")
        print(f"FAILED {label}: {message}", file=sys.stderr)

    def seconds(self, phase):
        """[(kind, reference seconds)] of every operation of a phase."""
        return [(kind, (self.starts if child else self.clock).reference(start, end))
                for kind, start, end, phase_, _, child in self.ops if phase_ == phase]

    def counted(self, field):
        """The field callable, counting evaluations when tracing."""
        if not self.rec.enabled:
            return field

        def f(x):
            self.evals += 1
            return field(x)

        return f

    def timed_evals(self, fn):
        """Run fn, charging its time to the counted evaluations."""
        if not self.rec.enabled:
            return fn()
        start = perf_counter()
        try:
            return fn()
        finally:
            self.eval_spans.append((start, perf_counter()))

    def us_per_eval(self):
        return 1e6 * sum(self.clock.reference(s, e) for s, e in self.eval_spans) / self.evals

    def mesh(self, traj):
        """Called from checks, so repeated passes do not count."""
        if self.phase == "round" and self.npass == 0:
            self.first_round["mesh_points"] += len(traj.times) - 1


class RoundFailed(Exception):
    pass


def size_tag(n):
    return "small" if n <= 6 else "large"


def floats(matrix):
    return [[float(v) for v in row] for row in matrix]


# ---------------------------------------------------------------------------
# certificates


def certify_pair(run, L, Lf, G, expect_flat, sig=None, on_exact=None):
    """Exact certificate of G on L, then the same metric in binary64.

    Checks: gamma is the Levi-Civita product (torsion and compatibility in
    exact arithmetic); R recomputed from c and gamma decides the verdict
    and equals quadlie's curvature entry for entry; the verdict matches
    expect_flat when theory fixes it; the binary64 verdict and product
    match the exact ones.  Returns the exact product.
    """
    rec = run.rec
    tag = size_tag(L.dim)
    state = {}

    def exact():
        form = rec.call("forms.validate_form_ms", validate_form, G)
        P = rec.call(f"connection.levi_civita_ms.exact.{tag}", levi_civita, L, form)
        rep = rec.call(f"connection.product_report_ms.exact.{tag}", product_report, P)
        return form, P, rep

    def check_exact(res):
        form, P, rep = res
        require(rep.mode == "exact" and rep.tolerance == 0, "exact certificate left exact mode")
        checks.check_levi_civita(L.c, G, P.gamma)
        require(rep.torsion_ok and rep.skew_ok, "report denies torsion-freeness or compatibility")
        R = rec.call(f"connection.curvature_ms.exact.{tag}", curvature, P)
        state["R"] = checks.check_flatness(L.c, P.gamma, rep.flat, rep.max_residual, R.r)
        if expect_flat is not None:
            require(rep.flat == expect_flat, f"flat is {rep.flat}, theory says {expect_flat}")
        if sig is not None:
            checks.check_signature(rec.call("forms.signature_ms", signature, form), sig)
        if on_exact is not None:
            on_exact(state["R"])
        state["P"], state["flat"] = P, rep.flat

    _, P_exact, _ = run.op("exact_cert", exact, check_exact)

    Gf = floats(G)

    def binary64():
        form = rec.call("forms.validate_form_ms", validate_form, Gf)
        P = rec.call(f"connection.levi_civita_ms.binary64.{tag}", levi_civita, Lf, form)
        rep = rec.call(f"connection.product_report_ms.binary64.{tag}", product_report, P)
        return P, rep

    def check_float(res):
        P, rep = res
        require(rep.mode == "binary64", "binary64 certificate reports exact mode")
        require(rep.flat == state["flat"], f"binary64 verdict {rep.flat} != exact {state['flat']}")
        require(rep.torsion_ok and rep.skew_ok, "binary64 report denies torsion or compatibility")
        checks.check_float_gamma(P.gamma, state["P"].gamma)
        Rf = np.asarray(rec.call(f"connection.curvature_ms.binary64.{tag}", curvature, P).r)
        R, den = state["R"]
        ref = np.asarray([float(Fraction(v, den)) for v in R.flat]).reshape(R.shape)
        scale = max(1.0, float(np.max(np.abs(ref))), float(np.max(np.abs(np.asarray(P.gamma)))) ** 2)
        gap = float(np.max(np.abs(Rf - ref)))
        require(gap <= 1e-8 * scale, f"binary64 curvature is {gap:.3g} off the exact one")

    run.op("float_cert", binary64, check_float)
    return P_exact


# ---------------------------------------------------------------------------
# analyses


def check_two_step_structure(L, k, rep, inv, m):
    require(rep.unimodular, "quadratic algebra reported not unimodular")
    require(inv.invariant, "duality pairing reported not ad-invariant")
    require(len(rep.center) == m and len(rep.derived) == m,
            f"center {len(rep.center)}, derived {len(rep.derived)}, expected {m} each")
    require(rep.nilpotency_class == 2, f"nilpotency class {rep.nilpotency_class}, expected 2")
    pairing = [[Fraction(int(j == (i + m) % (2 * m))) for j in range(2 * m)] for i in range(2 * m)]
    require([list(r) for r in k.matrix] == pairing, "invariant form is not the duality pairing")


def two_step_table(theta):
    m = len(theta)
    c = [[[Fraction(0)] * (2 * m) for _ in range(2 * m)] for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c[i][j][m + k] = theta[i][j][k]
    return c


def analyse_two_step(run, m, theta, phis):
    """Build V + V* and its phi metrics, then validate, report, check the
    pairing and take signatures: one analysis."""
    rec = run.rec

    def analysis():
        L, k = rec.call("constructions.build_two_step_ms", build_two_step, TwoStepSpec(m, theta))
        mets = [rec.call("constructions.two_step_metric_ms", two_step_metric,
                         TwoStepSpec(m, theta, phi)) for phi in phis]
        rec.call("algebra.validate_algebra_ms", validate_algebra, L.c, L.labels)
        rep = rec.call("algebra.structure_report_ms", structure_report, L)
        inv = rec.call("forms.check_ad_invariance_ms", check_ad_invariance, L, k)
        sigs = [rec.call("forms.signature_ms", signature, g) for _, g, _ in mets]
        return L, k, mets, rep, inv, sigs

    def check(res):
        L, k, mets, rep, inv, sigs = res
        require([[list(r) for r in p] for p in L.c] == two_step_table(theta),
                "structure constants differ from theta")
        check_two_step_structure(L, k, rep, inv, m)
        for phi, (_, g, invariants), sig in zip(phis, mets, sigs):
            require([list(r) for r in g.matrix] == gen.two_step_metric_matrix(phi),
                    "phi metric differs from [[0, phi^T], [phi, 0]]")
            require(invariants.char_poly == checks.charpoly(phi), "characteristic polynomial of phi")
            checks.check_signature(sig, (m, m, 0))

    L, k, mets, _, _, _ = run.op("analysis", analysis, check)
    return L, k, mets


def analyse_quadratic(run, L, k, expect_class=None, metric=None, metric_sig=None):
    """Analysis of an algebra built earlier: validation, structure,
    ad-invariance and signatures."""
    rec = run.rec

    def analysis():
        rec.call("algebra.validate_algebra_ms", validate_algebra, L.c, L.labels)
        rep = rec.call("algebra.structure_report_ms", structure_report, L)
        inv = rec.call("forms.check_ad_invariance_ms", check_ad_invariance, L, k)
        ksig = rec.call("forms.signature_ms", signature, k)
        msig = rec.call("forms.signature_ms", signature, metric) if metric is not None else None
        return rep, inv, ksig, msig

    def check(res):
        rep, inv, ksig, msig = res
        require(rep.unimodular, "quadratic algebra reported not unimodular")
        require(inv.invariant and inv.max_residual == 0, "invariant form reported not ad-invariant")
        require(not rep.abelian, "catalog model reported abelian")
        if expect_class is not None:
            require(rep.nilpotency_class == expect_class,
                    f"nilpotency class {rep.nilpotency_class}, expected {expect_class}")
        require(ksig.zero == 0, "invariant form reported degenerate")
        if metric_sig is not None:
            checks.check_signature(msig, metric_sig)

    run.op("analysis", analysis, check)


# ---------------------------------------------------------------------------
# files


def round_trip(run, path, L, form, iso):
    """serialize_algebra, write, parse_algebra_file: the parsed algebra,
    form and iso equal the originals exactly."""
    rec = run.rec

    def trip():
        doc = rec.call("fileio.serialize_algebra_ms", fileio.serialize_algebra, L, form=form, iso=iso)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return rec.call("fileio.parse_algebra_file_ms", fileio.parse_algebra_file, path)

    def check(res):
        L2, f2, i2 = res
        require(L2.c == L.c and L2.exact == L.exact, "parsed structure constants differ")
        require(f2.matrix == form.matrix, "parsed form differs")
        require((i2 is None) == (iso is None) and (iso is None or i2.matrix == iso.matrix),
                "parsed iso differs")

    return run.op("roundtrip", trip, check)


def parse_doc(run, doc):
    """parse_algebra_file of a document written earlier; the studied
    metric (the form, or k(u., .) when the document has an iso) must equal
    the generated one.  Returns the algebra, form, iso and metric."""

    def parse():
        L, form, iso = run.rec.call("fileio.parse_algebra_file_ms", fileio.parse_algebra_file, doc.path)
        metric = form if iso is None else metric_from_iso(form, iso)[1]
        return L, form, iso, metric

    def check(res):
        L, _, _, metric = res
        expected = doc.G if L.exact else floats(doc.G)
        require([list(row) for row in metric.matrix] == expected,
                "parsed metric differs from the generated one")

    return run.op("parse", parse, check)


# ---------------------------------------------------------------------------
# dynamics


def probe_complete(run, target, seeds, horizon, counted=False):
    """completeness_probe on [-T, T]; flat metrics are complete both ways."""

    def probe():
        call = lambda: run.rec.call("dynamics.completeness_probe_ms", completeness_probe,
                                    target, seeds, t_max=horizon, tol=TOL)
        return run.timed_evals(call) if counted else call()

    def check(rep):
        require(len(rep.results) == len(seeds), "probe lost seeds")
        for res in rep.results:
            require(res.forward.completed and res.backward.completed,
                    f"flat metric incomplete: forward {res.forward}, backward {res.backward}")

    run.op("probe", probe, check)


def scan(run, P, x0, window, grid, expected):
    """conjugate_scan; the roots must be exactly `expected`."""

    def do():
        return run.rec.call("dynamics.conjugate_scan_ms", conjugate_scan, P, x0, window,
                            grid=grid, tol=TOL)

    run.op("scan", do, lambda rep: checks.check_roots(rep.times, expected))


def oscillator_scan(run, entry, P, rng, window, grid):
    """Scan an oscillator geodesic; x_-1 near 1 keeps every conjugate time
    well inside the window."""
    n = entry.algebra.dim
    lams = [float(v) for v in entry.oracles["frequencies"]]
    x0 = gen.oscillator_seed(rng, n)
    scan(run, P, x0, window, grid, checks.oscillator_roots(x0[0], lams, window))


def geodesic(run, target, x0, span, closed_form, G, t_eval=(), counted=False):
    """integrate_geodesic; states match the closed form to 1e-8 and keep
    <x, x> to 1e-7."""

    def integrate():
        call = lambda: run.rec.call("dynamics.integrate_geodesic_ms", integrate_geodesic,
                                    target, x0, span, tol=TOL, t_eval=t_eval)
        return run.timed_evals(call) if counted else call()

    def check(traj):
        require(traj.status.completed, f"geodesic stopped: {traj.status}")
        checks.check_states(traj.times, traj.states, closed_form, 1e-8)
        checks.check_energy(G, traj.states)
        run.mesh(traj)

    return run.op("trajectory", integrate, check)


def jacobi_biinvariant(run, entry, P, rng, horizon):
    """integrate_jacobi on a bi-invariant oscillator against expm, from
    y(0) = 0 and a unit y'(0), so every field has the same size."""
    n = entry.algebra.dim
    x0 = gen.oscillator_seed(rng, n)
    yd0 = np.asarray(gen.uniform_vector(rng, n))
    y0, yd0 = [0.0] * n, list(yd0 / np.linalg.norm(yd0))

    def integrate():
        return run.rec.call("dynamics.integrate_jacobi_ms", integrate_jacobi, P, x0, y0, yd0,
                            (0.0, horizon), tol=TOL)

    def check(traj):
        require(traj.status.completed, f"variation field stopped: {traj.status}")
        require(checks.close(traj.base_states, [x0] * len(traj.base_states), 1e-10),
                "bi-invariant geodesic moved")
        checks.check_jacobi_expm(entry.algebra.c, x0, y0, yd0, traj.times, traj.states,
                                 traj.derivative_states)
        run.mesh(traj)

    run.op("trajectory", integrate, check)


def dim5_blowup(run, field, cpar):
    """Backward geodesic on dim5-nilpotent from the exact solution at
    t = 0: it follows the solution and stops within 1e-3 of the pole."""
    x0 = checks.dim5_state(cpar, 0.0)

    def integrate():
        return run.timed_evals(lambda: run.rec.call(
            "dynamics.integrate_geodesic_ms", integrate_geodesic, field, x0, (0.0, -1.5),
            tol=TOL, t_eval=(-0.2, -0.4, -0.6, -0.8)))

    def check(traj):
        require(traj.status.kind in ("blowup", "step-collapse"), f"no blow-up: {traj.status}")
        require(abs(traj.status.t + 1.0) <= 1e-3, f"stopped at t={traj.status.t}, pole at -1")
        kept = [(t, s) for t, s in zip(traj.times, traj.states) if t >= -0.9]
        require(len(kept) >= 5, "too few states before the pole")
        checks.check_states([t for t, _ in kept], [s for _, s in kept],
                            lambda t: checks.dim5_state(cpar, t), 1e-6)
        run.mesh(traj)

    run.op("trajectory", integrate, check)
