"""The three workloads: certify, flows and cli.

A workload prepares its models once, then runs whole rounds of the same
operations until the measured time is spent.  Round r of certify and
flows draws new inputs from a generator seeded by (workload, seed, r), so
a run averages over several inputs of each kind; the cli rounds repeat
the same commands.  A seed fixes every input.
Every round runs every kind of operation, in the workload's own mix, so
every metric has a value on every workload; README.md says which
metrics each workload is meant to move.
"""

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import commands
import gen
import ops
from checks import require
from quadlie.catalog import catalog
from quadlie.connection import levi_civita
from quadlie.constructions import TwoStepSpec, build_two_step, two_step_metric
from quadlie.dynamics import quadratic_euler_field
from quadlie.forms import validate_form

# catalog entries each workload uses; setup_s builds exactly these
ENTRIES = {
    "certify": ("oscillator(1,2)", "dim5-nilpotent", "dim4-b", "a-d-double(1)"),
    "flows": ("e2-motion", "oscillator(1)", "oscillator(1,2)", "dim5-nilpotent"),
    "cli": ("e2-motion", "oscillator(1)", "oscillator(1,2)", "dim5-nilpotent"),
}

# the non-abelian quadratic models of the non-flat half
NONFLAT = ("oscillator(1,2)", "dim5-nilpotent", "dim4-b", "a-d-double(1)")


def rng_for(workload, seed, tag):
    return random.Random(f"{workload}/{seed}/{tag}")


def e2_seed(rng):
    """x3 near +-1 keeps the number of steps per unit time steady."""
    return (rng.uniform(-1, 1), rng.uniform(-1, 1), gen.signed(rng, 0.9, 1.1))


class FlatMetric:
    """A phi metric on V + V*.  The product maps V into V* and kills V*,
    so x' lies in V* and depends on the V part only: geodesics are the
    lines x0 + t x'(x0)."""

    def __init__(self, run, L, k, iso, phi, P=None):
        self.L, self.k, self.iso, self.phi = L, k, iso, phi
        self.G = gen.two_step_metric_matrix(phi)
        self.P = P if P is not None else levi_civita(L, self.G)
        self.field = run.counted(quadratic_euler_field(L, iso)[0])

    @classmethod
    def build(cls, run, rng, m, certify=False):
        """Built with quadlie's constructions; certify makes the product
        come from a checked exact and binary64 certificate."""
        theta, phi = gen.alternating(rng, m), gen.unimodular(rng, m)
        L, k = run.rec.call("constructions.build_two_step_ms", build_two_step, TwoStepSpec(m, theta))
        iso, _, _ = run.rec.call("constructions.two_step_metric_ms", two_step_metric,
                                 TwoStepSpec(m, theta, phi))
        return cls(run, L, k, iso, phi, P=certify_flat(run, L, phi) if certify else None)

    def line(self, x0):
        v = checks.geodesic_velocity(self.L.c, self.G, x0)
        return lambda t: np.asarray(x0) + t * v


def certify_flat(run, L, phi):
    m = len(phi)
    return ops.certify_pair(run, L, L.to_float(), gen.two_step_metric_matrix(phi), True,
                            sig=(m, m, 0))


@dataclass
class Doc:
    path: Path
    labels: tuple
    algebra: object  # the exact algebra the document was written from
    G: list  # the exact metric matrix
    flat: bool
    model: FlatMetric | None


def make_docs(run, outdir, rng):
    """The documents the commands read: two exact phi metrics on V + V*
    (dim V = 3 and 5) and one binary64 Lorentzian metric on
    oscillator(1,2), each written with serialize_algebra and read back."""
    docs = {}
    for key, m in (("exact6", 3), ("exact10", 5)):
        model = FlatMetric.build(run, rng, m)
        path = outdir / f"two-step-{m}.json"
        ops.round_trip(run, path, model.L, model.k, model.iso)
        docs[key] = Doc(path, model.L.labels, model.L, model.G, True, model)
    osc = catalog("oscillator(1,2)")
    G, _ = gen.congruent_metric(rng, osc.algebra.dim, 1)
    path = outdir / "oscillator-1-2-float.json"
    ops.round_trip(run, path, osc.algebra.to_float(), validate_form(ops.floats(G)), None)
    docs["float6"] = Doc(path, osc.algebra.labels, osc.algebra, G, False, None)
    return docs


class Workload:
    name = ""
    fresh_rounds = True  # each round draws new inputs; False: rounds repeat round 0

    def __init__(self, root, seed, outdir, run):
        self.root, self.seed, self.outdir, self.run = root, seed, outdir, run
        self.docs = make_docs(run, outdir, self.rng("docs"))

    def rng(self, tag):
        return rng_for(self.name, self.seed, tag)

    def round(self, r):
        raise NotImplementedError

    def round_rng(self, r):
        return self.rng(f"round{r}" if self.fresh_rounds else "round")

    def command_pass(self):
        for cmd in commands.plan(self.docs, self.rng("commands")):
            commands.run_command(self.run, self.root, cmd)


class Certify(Workload):
    """Exact certificates over generated families, and the same inputs in
    binary64; a small slice of dynamics on the round's flat metrics."""

    name = "certify"

    def __init__(self, *args):
        super().__init__(*args)
        self.models = {name: catalog(name) for name in NONFLAT}
        self.float_algebras = {name: e.algebra.to_float() for name, e in self.models.items()}
        for name, e in self.models.items():
            ops.analyse_quadratic(self.run, e.algebra, e.quad_form,
                                  expect_class=3 if name == "dim5-nilpotent" else None)
        self.osc = self.models["oscillator(1,2)"]
        self.osc_P = levi_civita(self.osc.algebra, self.osc.quad_form)

    def round(self, r):
        run, rng = self.run, self.round_rng(r)
        # flat half: phi metrics on V + V*.  Three analyses of dim V = 3
        # algebras, with one or two metrics; the dim V = 5 algebra and its
        # metric are built outside any analysis, since one such analysis
        # per round is too few to time steadily
        flats = []
        for count in (2, 1, 1):
            theta = gen.alternating(rng, 3)
            phis = [gen.unimodular(rng, 3) for _ in range(count)]
            L, k, mets = ops.analyse_two_step(run, 3, theta, phis)
            flats += [FlatMetric(run, L, k, iso, phi, certify_flat(run, L, phi))
                      for phi, (iso, _, _) in zip(phis, mets)]
        flats.append(FlatMetric.build(run, rng, 5, certify=True))
        # non-flat half: Riemannian and Lorentzian G = A^T D A; two of each
        # on a-d-double(1), whose certificate cost varies most with G
        for name, e in self.models.items():
            for negatives in (0, 1) * (2 if name == "a-d-double(1)" else 1):
                G, sig = gen.congruent_metric(rng, e.algebra.dim, negatives)
                ops.certify_pair(run, e.algebra, self.float_algebras[name], G, False, sig=sig)
        # dim4-b slice: curvature components are the obstruction polynomials
        dim4 = self.models["dim4-b"]
        for on_b_zero in (True, False):
            point = gen.dim4_slice_point(rng, on_b_zero)
            ops.certify_pair(run, dim4.algebra, self.float_algebras["dim4-b"],
                             gen.dim4_slice_metric(*point), False,
                             on_exact=lambda R, p=point: check_obstruction(dim4, p, R))
        # dynamics slice: the flat metrics are complete and conjugate-free
        first = flats[0]
        seeds = [gen.uniform_vector(rng, first.L.dim) for _ in range(32)]
        ops.probe_complete(run, first.field, seeds, 50.0, counted=True)
        for f in flats:
            x0 = gen.uniform_vector(rng, f.L.dim)
            ops.scan(run, f.P, x0, (0, 4), grid=32, expected=[])
            ops.geodesic(run, f.field, x0, (0.0, 10.0), f.line(x0), f.G, counted=True)
        for _ in range(3):
            ops.jacobi_biinvariant(run, self.osc, self.osc_P, rng, 5.0)
        ops.round_trip(run, self.outdir / "round.json", first.L, first.k, first.iso)


def check_obstruction(entry, point, Rpair):
    """<R(e1, e-1) e-1, e2> = p1, and on b = 0 the two diagonal components,
    all from R as the benchmark recomputed it."""
    R, den = Rpair
    a, b, d = point[:3]
    K = entry.quad_form.matrix
    em1, e1, e2 = (entry.algebra.labels.index(s) for s in ("e-1", "e1", "e2"))

    def pair(i, j):
        return sum(checks.Fraction(R[i][em1][em1][l], den) * K[l][j] for l in range(len(K)))

    p1, p2, p3 = checks.obstruction(a, b, d)
    require(pair(e1, e2) == p1, f"<R(e1,e-1)e-1, e2> = {pair(e1, e2)}, obstruction {p1}")
    if b == 0:
        require(pair(e1, e1) == p2, f"<R(e1,e-1)e-1, e1> = {pair(e1, e1)}, obstruction {p2}")
        require(pair(e2, e2) == p3, f"<R(e2,e-1)e-1, e2> = {pair(e2, e2)}, obstruction {p3}")


class Flows(Workload):
    """The binary64 integrator on models built once: long probes, scans,
    trajectories and the dim-5 blow-up; the models' certificates and
    analyses ride along."""

    name = "flows"

    def __init__(self, *args):
        super().__init__(*args)
        run, rng = self.run, self.rng("models")
        self.e2 = catalog("e2-motion")
        self.e2_P = levi_civita(self.e2.algebra, self.e2.metric)
        self.osc = {name: catalog(name) for name in ("oscillator(1)", "oscillator(1,2)")}
        self.osc_P = {name: levi_civita(e.algebra, e.quad_form) for name, e in self.osc.items()}
        self.dim5 = catalog("dim5-nilpotent")
        self.dim5_field = run.counted(quadratic_euler_field(self.dim5.algebra, self.dim5.iso)[0])
        _, self.dim5_flat, _ = self.dim5.oracles["flat_structure"]()
        self.two = {m: FlatMetric.build(run, rng, m) for m in (3, 5)}
        # (algebra, metric, verdict the theory fixes) for the certificates
        osc1 = self.osc["oscillator(1)"]
        self.certs = [(L, L.to_float(), G, flat) for L, G, flat in (
            (self.e2.algebra, self.e2.metric.matrix, True),
            (osc1.algebra, osc1.metric.matrix, False),
            (self.dim5.algebra, self.dim5.metric.matrix, None),
            (self.two[3].L, self.two[3].G, True),
            (self.two[5].L, self.two[5].G, True),
        )]

    def round(self, r):
        run, rng = self.run, self.round_rng(r)
        # completeness probes: e2 oscillates and takes many steps; the flat
        # nilpotent metrics have polynomial geodesics and take few
        ops.probe_complete(run, self.e2_P, [e2_seed(rng)], 30.0)
        for m, f in self.two.items():
            ops.probe_complete(run, f.field, [gen.uniform_vector(rng, 2 * m)], 1000.0, counted=True)
        ops.probe_complete(run, self.dim5_flat, [gen.uniform_vector(rng, 5)], 100.0)
        # conjugate scans: oscillators have roots, flat metrics none
        for name, e in self.osc.items():
            ops.oscillator_scan(run, e, self.osc_P[name], rng, *commands.SCAN_WINDOWS[name])
        ops.scan(run, self.e2_P, e2_seed(rng), (0, 8), grid=32, expected=[])
        ops.scan(run, self.two[3].P, gen.uniform_vector(rng, 6), (0, 4), grid=32, expected=[])
        # trajectories: many sample times on e2, none on the flat metrics
        x = e2_seed(rng)
        ops.geodesic(run, self.e2_P, x, (0.0, 15.0), lambda t: checks.e2_state(x, t),
                     self.e2.metric.matrix, t_eval=[0.1 * i for i in range(1, 150)])
        for m, f in self.two.items():
            x0 = gen.uniform_vector(rng, 2 * m)
            ops.geodesic(run, f.field, x0, (0.0, 10.0), f.line(x0), f.G, counted=True)
        for name, e in self.osc.items():
            ops.jacobi_biinvariant(run, e, self.osc_P[name], rng, 10.0)
        ops.dim5_blowup(run, self.dim5_field, rng.uniform(-2, 2))
        # the models' own certificates and analyses
        for L, Lf, G, flat in self.certs:
            ops.certify_pair(run, L, Lf, G, flat)
        for e in (*self.osc.values(), self.dim5):
            ops.analyse_quadratic(run, e.algebra, e.quad_form,
                                  expect_class=3 if e is self.dim5 else None)
        t3 = self.two[3]
        ops.analyse_quadratic(run, t3.L, t3.k, expect_class=2, metric=validate_form(t3.G),
                              metric_sig=(3, 3, 0))
        ops.round_trip(run, self.outdir / "round.json", t3.L, t3.k, t3.iso)


class Cli(Workload):
    """quadlie commands, each in a fresh interpreter, then the same work in
    process from the parsed documents."""

    name = "cli"
    fresh_rounds = False

    def __init__(self, *args):
        super().__init__(*args)
        self.e2 = catalog("e2-motion")
        self.e2_P = levi_civita(self.e2.algebra, self.e2.metric)
        self.osc1 = catalog("oscillator(1)")
        self.osc1_P = levi_civita(self.osc1.algebra, self.osc1.quad_form)

    def round(self, r):
        run, rng = self.run, self.round_rng(r)
        self.command_pass()
        for doc in self.docs.values():
            L, k, _, metric = ops.parse_doc(run, doc)
            if L.exact:
                if L.dim <= 6:
                    ops.analyse_quadratic(run, L, k, expect_class=2, metric=metric,
                                          metric_sig=(3, 3, 0))
                ops.certify_pair(run, L, L.to_float(), doc.G, doc.flat)
            else:
                ops.certify_pair(run, doc.algebra, L, doc.G, doc.flat)
        x = e2_seed(rng)
        ops.geodesic(run, self.e2_P, x, (0.0, 10.0), lambda t: checks.e2_state(x, t),
                     self.e2.metric.matrix)
        ops.oscillator_scan(run, self.osc1, self.osc1_P, rng, *commands.SCAN_WINDOWS["oscillator(1)"])
        flat = self.docs["exact6"].model
        ops.probe_complete(run, flat.field, [gen.uniform_vector(rng, 6)], 50.0, counted=True)
        ops.jacobi_biinvariant(run, self.osc1, self.osc1_P, rng, 5.0)


WORKLOADS = {"certify": Certify, "flows": Flows, "cli": Cli}
