"""Named example algebras with their closed-form data.

Each entry bundles an algebra with the forms and oracles that make it
useful as a test bed: an ad-invariant form when the algebra is
quadratic, a featured left-invariant metric, exact solution curves,
closed-form geodesics and variation fields, and seeds for the
integrators.  Everything stored is verified once at load.

Names accept parameters in parentheses: ``oscillator(1,2)`` builds the
frequency pair (1, 2), ``a-d(3)`` picks the bracket parameter 3.  Bare
``oscillator`` means frequency (1); bare ``a-d`` means parameter 1.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import connection, scalars
from .algebra import LieAlgebra, validate_algebra
from .connection import ProductTensor
from .constructions import (
    TwoStepSpec,
    build_cotangent_double,
    build_f_derivation,
    build_oscillator,
    build_two_step,
    oscillator_closed_forms,
    two_step_metric,
)
from .errors import UnknownName, ValidationError
from .forms import (
    SymBilinearForm,
    SymmetricIso,
    check_ad_invariance,
    iso_from_metric,
    metric_from_iso,
    validate_form,
)

__all__ = ["CatalogEntry", "catalog", "available"]


@scalars.record
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    quad_form: SymBilinearForm | None  # ad-invariant, when quadratic
    metric: SymBilinearForm | None  # featured left-invariant metric
    iso: object | None  # u with metric = k(u., .), when that is the source
    seeds: dict
    oracles: dict
    metadata: dict


def _entry(name, algebra, quad_form=None, metric=None, iso=None, seeds=None,
           oracles=None, metadata=None):
    if quad_form is not None:
        rep = check_ad_invariance(algebra, quad_form)
        if not rep.invariant:
            raise ValidationError(
                f"catalog entry {name!r} stores a non-invariant form"
            )
    return CatalogEntry(
        name=name,
        algebra=algebra,
        quad_form=quad_form,
        metric=metric,
        iso=iso,
        seeds=dict(seeds or {}),
        oracles=dict(oracles or {}),
        metadata=dict(metadata or {}),
    )


def _with_alias(seed):
    return {"default": seed, "builtin": seed}


def _table(n, brackets, labels):
    """The exact algebra with [e_i, e_j] = vec, the integer coefficient
    vector of brackets[(i, j)], and zero brackets elsewhere."""
    c = np.zeros((n, n, n), dtype=object)
    for (i, j), vec in brackets.items():
        c[i, j] = vec
        c[j, i] = -c[i, j]
    return validate_algebra(scalars.ScaledArray(c), labels=labels)


# ---------------------------------------------------------------------------
# planar motions


def _e2_rotation(x3t):
    return math.cos(x3t), math.sin(x3t)


def _e2_geodesic(x0):
    """Algebra-valued geodesic through the flat diag(1,1,-1) metric."""
    x1, x2, x3 = (float(v) for v in x0)

    def curve(t):
        c, s = _e2_rotation(x3 * t)
        return (x1 * c + x2 * s, -x1 * s + x2 * c, x3)

    return curve


def _e2_geodesic_mirror(x0):
    """Same flow with the rotation direction of e3 reversed.

    Equals _e2_geodesic at the reversed parameter; kept as the second
    half of the cross-check pair.
    """
    x1, x2, x3 = (float(v) for v in x0)

    def curve(t):
        c, s = _e2_rotation(x3 * t)
        return (x1 * c - x2 * s, x1 * s + x2 * c, x3)

    return curve


def _e2_group_product(g, h):
    x, y, al = (float(v) for v in g)
    xp, yp, be = (float(v) for v in h)
    c, s = _e2_rotation(al)
    return (x + xp * c - yp * s, y + xp * s + yp * c, al + be)


def _e2_translation_differential(g, v):
    al = float(g[2])
    v1, v2, v3 = (float(w) for w in v)
    c, s = _e2_rotation(al)
    return (v1 * c - v2 * s, v1 * s + v2 * c, v3)


def _e2_group_geodesic(x0):
    x1, x2, x3 = (float(v) for v in x0)

    def curve(t):
        return (t * x1, t * x2, t * x3)

    return curve


def _e2_group_geodesic_mirror(x0):
    x1, x2, x3 = (float(v) for v in x0)

    def curve(t):
        if x3 == 0:
            return (t * x1, t * x2, 0.0)
        c, s = _e2_rotation(2 * x3 * t)
        h1 = x1 / (2 * x3)
        h2 = x2 / (2 * x3)
        return (-h2 + h2 * c + h1 * s, h1 - h1 * c + h2 * s, x3 * t)

    return curve


def _e2_exp_map(v):
    return tuple(float(w) for w in v)


def _e2_exp_map_mirror(v):
    return _e2_group_geodesic_mirror(v)(1.0)


def _build_e2():
    L = _table(
        3,
        {(2, 0): (0, 1, 0), (2, 1): (-1, 0, 0)},  # [e3, e1] = e2, [e3, e2] = -e1
        ("e1", "e2", "e3"),
    )
    g = validate_form([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    return _entry(
        "e2-motion",
        L,
        metric=g,
        seeds=_with_alias((Fraction(1), Fraction(0), Fraction(1))),
        oracles={
            "geodesic": _e2_geodesic,
            "geodesic_mirror": _e2_geodesic_mirror,
            "group_geodesic": _e2_group_geodesic,
            "group_geodesic_mirror": _e2_group_geodesic_mirror,
            "exp_map": _e2_exp_map,
            "exp_map_mirror": _e2_exp_map_mirror,
            "group_product": _e2_group_product,
            "translation_differential": _e2_translation_differential,
        },
        metadata={
            "group": "rigid motions of the plane, identity component",
            "metric": "flat Lorentzian diag(1,1,-1); exponential map is the identity",
            "mirror_oracles": (
                "the *_mirror oracles solve the same flat geometry with the"
                " e3 rotation direction reversed; the algebra pair agrees"
                " under t -> -t and the group pair is self-consistent"
                " through the printed product"
            ),
        },
    )


# ---------------------------------------------------------------------------
# oscillator family


def _osc_group_product(lams):
    def product(g, h):
        lam = scalars.read(lams, 1, exact=False).num.tolist()
        s, t = float(g[0]), float(g[-1])
        sp, tp = float(h[0]), float(h[-1])
        zs = [complex(v) for v in g[1:-1]]
        zps = [complex(v) for v in h[1:-1]]
        if len(zs) != len(lam) or len(zps) != len(lam):
            raise ValidationError("group point has the wrong number of slots")
        rot = [cmath.exp(1j * t * l) for l in lam]
        mix = sum(
            (z.conjugate() * r * zp).imag for z, r, zp in zip(zs, rot, zps)
        )
        out_z = [z + r * zp for z, r, zp in zip(zs, rot, zps)]
        return (s + sp + 0.5 * mix, *out_z, t + tp)

    return product


def _build_oscillator_entry(lams):
    L, k = build_oscillator(lams)
    m = len(lams)
    seed = (Fraction(1), Fraction(0)) + (Fraction(1),) * m + (Fraction(0),) * m

    def jacobi_forms(x0, r):
        return oscillator_closed_forms(lams, x0, r)

    lam_str = ",".join(str(v) for v in lams)
    return _entry(
        f"oscillator({lam_str})",
        L,
        quad_form=k,
        metric=k,
        seeds=_with_alias(seed),
        oracles={
            "jacobi_forms": jacobi_forms,
            "group_product": _osc_group_product(lams),
            "frequencies": tuple(lams),
        },
        metadata={
            "family": "solvable double extension of a Euclidean plane sum",
            "metric": "bi-invariant; Lorentzian for one frequency",
            "conjugate_points": (
                "full periods 2*pi*k/(x_-1 lambda_j) are conjugate;"
                " the halved-period family pi*k/(x_-1 lambda_j) is a"
                " known wrong candidate list and scans must reject it"
            ),
        },
    )


# ---------------------------------------------------------------------------
# dimension 4, boost block


def _dim4_metric_family(L, k):
    def family(a, b, d, s00=0, s02=0, s03=0):
        metric = validate_form(((s00, 1, s02, s03), (1, 0, 0, 0), (s02, 0, a, b), (s03, 0, b, -d)))
        return iso_from_metric(k, metric), metric

    return family


def _dim4_printed_product(L):
    """Left-symmetric product compatible with the bracket, metric-free."""
    gamma = np.zeros((4, 4, 4), dtype=object)  # over the denominator 2
    gamma[0, 2, 3] = 2  # e-1 e1 = e2
    gamma[0, 3, 2] = 2  # e-1 e2 = e1
    gamma[2, 3, 1] = -1  # e1 e2 = -e0/2
    gamma[3, 2, 1] = 1  # e2 e1 = e0/2
    return ProductTensor(L, scalars.ScaledArray(gamma, 2), None)


def _build_dim4_b():
    L = _table(
        4,
        {
            (0, 2): (0, 0, 0, 1),  # [e-1, e1] = e2
            (0, 3): (0, 0, 1, 0),  # [e-1, e2] = e1
            (2, 3): (0, -1, 0, 0),  # [e1, e2] = -e0
        },
        ("e-1", "e0", "e1", "e2"),
    )
    k = validate_form([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    return _entry(
        "dim4-b",
        L,
        quad_form=k,
        seeds=_with_alias((Fraction(1), Fraction(0), Fraction(1), Fraction(1))),
        oracles={
            "metric_family": _dim4_metric_family(L, k),
            "printed_product": _dim4_printed_product(L),
            "obstruction": connection.dim4_obstruction,
        },
        metadata={
            "family": "double extension of the Minkowski plane by the boost",
            "metric_family": (
                "metrics with u(e0) = e0 are parameterized by"
                " (a, b, d) plus three free first-row entries; the"
                " obstruction oracle gives the curvature components that"
                " rule out flatness"
            ),
            "printed_product": (
                "a left-symmetric product compatible with the bracket,"
                " showing the group is affine even though no metric is flat"
            ),
        },
    )


# ---------------------------------------------------------------------------
# dimension 5, three-step


def _dim5_solution_curve(c):
    """Exact non-complete solution of the quadratic geodesic field.

    The curve has a pole at t = -1; the parameter c shifts the e4
    component.  Evaluate with Fraction arguments for exact residuals.
    """
    cq = Fraction(c)

    def x(t):
        s = 1 + Fraction(t)
        return (
            Fraction(0),
            Fraction(-2) / s**2,
            Fraction(2) / s,
            Fraction(-1),
            1 - cq * s**2,
        )

    def xdot(t):
        s = 1 + Fraction(t)
        return (
            Fraction(0),
            Fraction(4) / s**3,
            Fraction(-2) / s**2,
            Fraction(0),
            -2 * cq * s,
        )

    return x, xdot


def _build_dim5():
    L = _table(
        5,
        {
            (4, 1): (0, 0, 1, 0, 0),  # [e4, e1] = e2
            (4, 2): (0, 0, 0, 1, 0),  # [e4, e2] = e3
            (1, 2): (1, 0, 0, 0, 0),  # [e1, e2] = e0
        },
        ("e0", "e1", "e2", "e3", "e4"),
    )
    k = validate_form(
        [[0, 0, 0, 0, 1], [0, 0, 0, -1, 0], [0, 0, 1, 0, 0], [0, -1, 0, 0, 0], [1, 0, 0, 0, 0]]
    )
    u = SymmetricIso(
        5,
        [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, -1], [0, 0, 0, -1, 0]],
    )
    _, metric = metric_from_iso(k, u)

    def flat_structure():
        return build_f_derivation(L, k)

    return _entry(
        "dim5-nilpotent",
        L,
        quad_form=k,
        metric=metric,
        iso=u,
        seeds=_with_alias(
            (Fraction(0), Fraction(-2), Fraction(2), Fraction(-1), Fraction(1))
        ),
        oracles={
            "solution_curve": _dim5_solution_curve,
            "flat_structure": flat_structure,
        },
        metadata={
            "family": "three-step nilpotent quadratic algebra, undecomposable",
            "metric": (
                "the stored iso metric is not flat: the solution-curve"
                " oracle solves its geodesic field exactly and blows up"
                " at t = -1"
            ),
            "flat_structure": (
                "the graded derivation pair builder produces the flat"
                " metric of index 2 on the same algebra"
            ),
            "seed": "the default seed is the solution curve at t = 0 with c = 0",
        },
    )


# ---------------------------------------------------------------------------
# two-step and its relatives


def _build_two_step_volume():
    L, k = build_two_step(TwoStepSpec(3, "volume"))

    def metric_family(phi):
        return two_step_metric(TwoStepSpec(3, "volume", phi))

    return _entry(
        "two-step-volume",
        L,
        quad_form=k,
        metric=k,
        seeds=_with_alias(tuple(Fraction(1) for _ in range(6))),
        oracles={"metric_family": metric_family},
        metadata={
            "family": "corank-zero two-step nilpotent pair V + V*, dim V = 3",
            "metric_family": (
                "every invertible map on V gives a flat complete metric;"
                " conjugacy invariants of the map separate isometry classes"
            ),
        },
    )


def _build_a_d(d):
    # order e1, e2, e3, e4, f1, f2
    L = _table(
        6,
        {
            (0, 1): (0, 0, 0, 0, 0, 1),  # [e1, e2] = f2
            (2, 3): (0, 0, 0, 0, 0, 1),  # [e3, e4] = f2
            (0, 2): (0, 0, 0, 0, 1, 0),  # [e1, e3] = f1
            (1, 3): (0, 0, 0, 0, 0, d),  # [e2, e4] = d f2
        },
        ("e1", "e2", "e3", "e4", "f1", "f2"),
    )
    return _entry(
        f"a-d({d})",
        L,
        metadata={
            "family": "two-step nilpotent with central pair f1, f2",
            "basis_note": (
                "the source presentation lists five basis vectors but"
                " brackets a sixth; this entry stores the six-dimensional"
                " reading with e4 included and f1, f2 central"
            ),
            "parameter": (
                f"bracket parameter d = {d}; square-free values give"
                " pairwise non-isomorphic rational algebras"
            ),
            "quadratic": (
                "not quadratic as stored; the cotangent-double entry"
                " carries the invariant pairing"
            ),
        },
    )


def _build_a_d_double(d):
    base = _build_a_d(d)
    L, k = build_cotangent_double(base.algebra)
    return _entry(
        f"a-d-double({d})",
        L,
        quad_form=k,
        metric=k,
        seeds=_with_alias(tuple(Fraction(1) for _ in range(12))),
        oracles={"base": base},
        metadata={
            "family": (
                "cotangent double of the a-d algebra: duals plus"
                " coadjoint action, with the duality pairing"
            ),
            "lattice_note": (
                "rational structure constants admit lattices, so the flat"
                " metrics descend to compact quotients"
            ),
        },
    )


# ---------------------------------------------------------------------------
# lookup


_PLAIN = {
    "e2-motion": _build_e2,
    "dim4-b": _build_dim4_b,
    "dim5-nilpotent": _build_dim5,
    "two-step-volume": _build_two_step_volume,
}


def available():
    """Name templates with one-line descriptions, for listings."""
    return (
        ("e2-motion", "planar motions with the flat Lorentzian metric"),
        ("oscillator(l1,...)", "oscillator algebra with the given frequencies"),
        ("dim4-b", "boost double extension of the Minkowski plane"),
        ("dim5-nilpotent", "three-step quadratic algebra with the exact blow-up curve"),
        ("two-step-volume", "V + V* on the volume form, dim V = 3"),
        ("a-d(d)", "two-step sixfold with central pair, bracket parameter d"),
        ("a-d-double(d)", "cotangent double of a-d(d), quadratic"),
    )


def _parse_name(name):
    if not isinstance(name, str):
        raise UnknownName(f"catalog names are strings, got {name!r}")
    text = name.strip()
    if "(" in text:
        base, _, rest = text.partition("(")
        if not rest.endswith(")"):
            raise UnknownName(f"malformed catalog name {name!r}")
        args = tuple(
            a.strip() for a in rest[:-1].split(",") if a.strip() != ""
        )
        return base.strip(), args
    if text in ("oscillator", "a-d", "a-d-double"):  # bare, the parameter is 1
        return text, ("1",)
    return text, None


@lru_cache(maxsize=None)
def _lookup(base, args):
    if args is None:
        if base in _PLAIN:
            return _PLAIN[base]()
        raise UnknownName(f"no catalog entry named {base!r}")
    if base == "oscillator":
        try:
            lams = tuple(Fraction(a) for a in args)
        except (ValueError, ZeroDivisionError):
            raise UnknownName(
                f"oscillator frequencies must be rationals, got {args}"
            ) from None
        return _build_oscillator_entry(lams)
    if base in ("a-d", "a-d-double"):
        if len(args) != 1:
            raise UnknownName(f"{base} takes one integer parameter")
        try:
            d = int(args[0])
        except ValueError:
            raise UnknownName(
                f"{base} takes an integer parameter, got {args[0]!r}"
            ) from None
        return _build_a_d(d) if base == "a-d" else _build_a_d_double(d)
    if base in _PLAIN:
        raise UnknownName(f"{base!r} takes no parameters")
    raise UnknownName(f"no catalog entry named {base!r}")


def catalog(name):
    base, args = _parse_name(name)
    return _lookup(base, args)
