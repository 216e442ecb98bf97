"""Bad numeric inputs end in typed errors, and at the CLI in a JSON error
with exit code 1; plus the scan-grid and lazy-import regressions and a
fuzzer over the CLI's argv."""

import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadlie
from quadlie import catalog, dynamics, fileio, levi_civita, metric_from_iso, validate_algebra
from quadlie import validate_form
from quadlie.cli import MAX_SAMPLES, main
from quadlie.errors import EngineError, InvalidSpan, InvalidValue, StepBudgetExhausted
from quadlie.errors import DimensionMismatch, MixedModeError


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, _strict_json(buf.getvalue())


@pytest.fixture(scope="module")
def e2_product():
    e2 = catalog("e2-motion")
    return levi_civita(e2.algebra, e2.metric)


SEED = (0.7, -0.3, 1.3)


@pytest.fixture(scope="module")
def nilpotent_iso():
    """two-step-volume with the identity operator, which certifies"""
    L = catalog("two-step-volume").algebra
    identity = [[float(i == j) for j in range(L.dim)] for i in range(L.dim)]
    return L, quadlie.SymmetricIso(L.dim, identity, False)


def test_conjugate_scan_last_grid_time_is_window_end(e2_product):
    # a + (b - a) * grid / grid rounds above b for this window
    b = 17.918079144195904
    assert 0.0 + (b - 0.0) * 121 / 121 > b
    rep = dynamics.conjugate_scan(e2_product, SEED, (0.0, b), grid=121)
    assert rep.samples[-1][0] == b
    assert len(rep.samples) == 121
    assert rep.times == ()


@pytest.mark.parametrize("b", [1e-13, 1e-12])
def test_conjugate_scan_rejects_a_window_below_the_minimal_step(e2_product, b):
    with pytest.raises(InvalidSpan):
        dynamics.conjugate_scan(e2_product, SEED, (0.0, b), grid=4)


@pytest.mark.parametrize("grid", [0, -3, 2.5, "8", True, None])
def test_conjugate_scan_rejects_bad_grid(e2_product, grid):
    with pytest.raises(InvalidSpan):
        dynamics.conjugate_scan(e2_product, SEED, (0.0, 5.0), grid=grid)


@pytest.mark.parametrize("tol", [0, 0.0, -1, -1e-10, math.nan, math.inf, "1e-8", None])
def test_every_integrator_rejects_bad_tolerance(e2_product, nilpotent_iso, tol):
    P = e2_product
    L = P.algebra
    rep = dynamics.conjugate_scan(P, SEED, (0.0, 1.0), grid=4)
    calls = [
        lambda: dynamics.polynomial_geodesic_check(*nilpotent_iso, trials=1, tol=tol),
        lambda: dynamics.annotate_candidates(rep, (0.5,), match_tol=tol),
        lambda: dynamics.integrate_geodesic(P, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.completeness_probe(P, [SEED], t_max=1.0, tol=tol),
        lambda: dynamics.integrate_jacobi(P, SEED, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.biinvariant_jacobi(L, SEED, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.right_invariant_reflection(L, P, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.jacobi_route_gap(L, P, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.conjugate_scan(P, SEED, (0.0, 1.0), grid=4, tol=tol),
    ]
    for call in calls:
        with pytest.raises(InvalidValue):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_seeds_are_rejected(e2_product, bad):
    P = e2_product
    seed = (bad, 0.0, 1.0)
    with pytest.raises(InvalidValue):
        dynamics.integrate_geodesic(P, seed, (0.0, 1.0))
    with pytest.raises(InvalidValue):
        dynamics.completeness_probe(P, [SEED, seed], t_max=1.0)
    with pytest.raises(InvalidValue):
        dynamics.integrate_jacobi(P, SEED, seed, SEED, (0.0, 1.0))
    with pytest.raises(InvalidValue):
        dynamics.conjugate_scan(P, seed, (0.0, 1.0), grid=4)


@pytest.mark.parametrize(
    "t_max", [math.nan, math.inf, 0.0, -1.0, (-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)]
)
def test_probe_rejects_bad_horizon(e2_product, t_max):
    with pytest.raises(InvalidSpan):
        dynamics.completeness_probe(e2_product, [SEED], t_max=t_max)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad):
    table = [[[0.0, 0.0], [bad, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(InvalidValue):
        validate_algebra(table)
    with pytest.raises(InvalidValue):
        validate_form([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidValue):
        metric_from_iso([[1, 0], [0, 1]], [[1.0, 0.0], [0.0, bad]])


def test_step_budget_is_an_engine_error(e2_product, monkeypatch):
    monkeypatch.setattr(dynamics, "STEP_BUDGET", 5)
    with pytest.raises(StepBudgetExhausted) as info:
        dynamics.integrate_geodesic(e2_product, SEED, (0.0, 10.0))
    assert isinstance(info.value, EngineError)


@pytest.mark.parametrize("argv", [
    ["geodesic", "--catalog", "e2-motion", "--x", "e1:1,e2:1", "--span", "0:10"],
    ["probe", "--catalog", "e2-motion", "--x", "e1:1,e2:1", "--span", "-10:10"],
])
def test_a_spent_step_budget_is_a_cli_json_error(argv, monkeypatch):
    monkeypatch.setattr(dynamics, "STEP_BUDGET", 5)
    code, rep = run(*argv)
    assert code == 1
    assert rep["error"]["type"] == "StepBudgetExhausted"


def _load_bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_probe_whose_geodesic_outruns_the_escape_radius_slowly_ends_at_the_budget():
    """a-d-double(1) with a binary64 metric of signature (10, 2), the third
    draw of bench/gen.congruent_metric from random.Random(0), and the seed
    x_i = 0.3 + 0.1 i: the state grows about 13 times per half time unit
    and the step shrinks as 1/|x|, so by T = 5 the run would take over a
    million steps before the escape radius ends it."""
    gen = _load_bench_gen()
    rng = random.Random(0)
    gen.congruent_metric(rng, 6, 1)
    gen.congruent_metric(rng, 8, 1)
    G, _ = gen.congruent_metric(rng, 12, 2)
    G = validate_form([[float(v) for v in row] for row in G])
    P = levi_civita(catalog("a-d-double(1)").algebra, G)
    x = [0.3 + 0.1 * i for i in range(12)]
    field, _ = dynamics._field_from(P)
    (run,) = dynamics._solve(field, x, 0.0, 2.0, 1e-10)
    assert run.accepted == 168
    with pytest.raises(StepBudgetExhausted, match=f"no end after {dynamics.STEP_BUDGET} steps"):
        dynamics.completeness_probe(P, [x], t_max=5.0)


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["geodesic", "--catalog", "e2-motion", "--x", "e1:nan", "--span", "0:1"], "InvalidValue"),
        (["geodesic", "--catalog", "e2-motion", "--x", "e1:inf", "--span", "0:1"], "InvalidValue"),
        (["geodesic", "--catalog", "e2-motion", "--x", "e1:1", "--span", "0:1", "--tol", "-1"], "InvalidValue"),
        (["geodesic", "--catalog", "e2-motion", "--x", "e1:1", "--span", "0:1", "--tol", "0"], "InvalidValue"),
        (["geodesic", "--catalog", "e2-motion", "--x", "e1:1", "--span", "0:1", "--tol", "nan"], "InvalidValue"),
        (["probe", "--catalog", "e2-motion", "--x", "e1:1", "--span", "-1:1", "--tol", "nan"], "InvalidValue"),
        (["probe", "--catalog", "e2-motion", "--x", "e1:1", "--span", "-1:inf"], "InvalidSpan"),
        (["jacobi", "--catalog", "e2-motion", "--x", "e1:1", "--y", "e0:nan", "--span", "0:1"], "InvalidValue"),
        (["conjugate", "--catalog", "e2-motion", "--window", "0:5", "--grid", "0"], "InvalidSpan"),
        (["conjugate", "--catalog", "e2-motion", "--window", "0:5", "--grid", "-3"], "InvalidSpan"),
        (["family-sweep", "--dimv", "0"], "ParseError"),
        (["family-sweep", "--dimv", "-2"], "ParseError"),
        (["family-sweep", "--trials", "0"], "ParseError"),
        (["family-sweep", "--trials", "-5"], "ParseError"),
        (["family-sweep", "--trials", str(MAX_SAMPLES + 1)], "ParseError"),
    ],
)
def test_cli_bad_numbers_give_json_errors(argv, kind):
    code, rep = run(*argv)
    assert code == 1
    assert rep["error"]["type"] == kind
    assert rep["command"] == ["quadlie", *argv]


@pytest.mark.parametrize(
    "bad",
    ["a", "3.0", None, math.nan, math.inf, -math.inf, True, pytest.param(10**400, id="10**400")],
)
def test_sample_times_must_be_finite_reals(e2_product, bad):
    P = e2_product
    with pytest.raises(InvalidSpan):
        dynamics.integrate_geodesic(P, SEED, (0.0, 5.0), t_eval=[1.0, bad])
    with pytest.raises(InvalidSpan):
        dynamics.integrate_jacobi(P, SEED, SEED, SEED, (0.0, 5.0), t_eval=[bad])


def test_a_repeated_sample_time_gives_one_row(e2_product):
    P = e2_product
    # times outside the span are ignored
    t_eval = [3.0, 3.0, -1.0, 7.0]
    geo = dynamics.integrate_geodesic(P, SEED, (0.0, 5.0), t_eval=t_eval)
    jac = dynamics.integrate_jacobi(P, SEED, SEED, SEED, (0.0, 5.0), t_eval=t_eval)
    for traj in (geo, jac):
        assert traj.times.count(3.0) == 1
        assert traj.times[0] == 0.0 and traj.times[-1] == 5.0
        assert list(traj.times) == sorted(set(traj.times))


@pytest.mark.parametrize("samples", [0, 1, -3, 2.5, True, "8", None])
def test_route_gap_rejects_bad_samples(e2_product, samples):
    P = e2_product
    with pytest.raises(InvalidSpan):
        dynamics.jacobi_route_gap(P.algebra, P, SEED, SEED, (0.0, 1.0), samples=samples)


@pytest.mark.parametrize("kwargs, error", [
    ({"trials": 0}, InvalidSpan),
    ({"trials": -3}, InvalidSpan),
    ({"trials": 2.5}, InvalidSpan),
    ({"trials": "3"}, InvalidSpan),
    ({"seed": [1]}, InvalidValue),
])
def test_polynomial_check_rejects_bad_trials_and_seeds(nilpotent_iso, kwargs, error):
    # no trial certifies nothing: trials counts the runs, from 1
    with pytest.raises(error):
        dynamics.polynomial_geodesic_check(*nilpotent_iso, **kwargs)


def test_route_gap_rejects_a_span_below_the_minimal_step(e2_product):
    # the run snaps onto t1 without a step, so there is nothing to compare
    P = e2_product
    with pytest.raises(InvalidSpan):
        dynamics.jacobi_route_gap(P.algebra, P, SEED, SEED, (0.0, 1e-12))


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "--catalog", "e2-motion", "--x", "e1:1e309", "--span", "0:1"],
        ["geodesic", "--catalog", "e2-motion", "--x", "e1:-" + "9" * 400, "--span", "0:1"],
        ["probe", "--catalog", "e2-motion", "--span=-1e309:1"],
        ["conjugate", "--catalog", "e2-motion", "--window", "0:1e309", "--grid", "4"],
    ],
)
def test_cli_numbers_beyond_binary64_give_json_errors(argv):
    code, rep = run(*argv)
    assert code == 1
    assert rep["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--catalog", "e2-motion", "--span=-1e300:1e300"],
        ["conjugate", "--catalog", "e2-motion", "--window", "0:1e300", "--grid", "4"],
    ],
)
def test_cli_spans_beyond_max_span_end_at_once(argv):
    start = time.perf_counter()
    code, rep = run(*argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert rep["error"]["type"] == "InvalidSpan"


def test_runs_longer_than_max_span_are_invalid(e2_product):
    P, long = e2_product, 2 * dynamics.MAX_SPAN
    calls = [
        lambda: dynamics.integrate_geodesic(P, SEED, (0.0, long)),
        lambda: dynamics.integrate_jacobi(P, SEED, SEED, SEED, (-long, 0.0)),
        lambda: dynamics.right_invariant_reflection(P.algebra, P, SEED, SEED, (1.0, long)),
        lambda: dynamics.completeness_probe(P, [SEED], t_max=long),
        lambda: dynamics.completeness_probe(P, [SEED], t_max=(-long, 1.0)),
        lambda: dynamics.conjugate_scan(P, SEED, (long - 1.0, long)),
    ]
    for call in calls:
        with pytest.raises(InvalidSpan, match="longer than"):
            call()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("x, kind", [("e3:1e160,e1:1", "step-collapse"), ("e3:1e200", "blowup")])
def test_cli_geodesic_with_an_overflowing_field_reports_strict_json(x, kind):
    # 1e160 overflows the norm of the field that sizes the first step,
    # 1e200 the field itself and the energy
    code, rep = run("geodesic", "--catalog", "e2-motion", "--x", x, "--span", "0:1")
    assert code == 2
    assert rep["status"]["kind"] == kind


def test_family_sweep_checks_the_dimension_before_drawing_samples():
    # an m x m sample of a huge m would never finish
    code, rep = run("family-sweep", "--dimv", "9" * 40, "--trials", "1")
    assert code == 1
    assert rep["error"]["type"] == "DimensionMismatch"


def test_family_sweep_counts_a_sample_file_before_reading_its_samples(tmp_path):
    # MAX_SAMPLES + 1 unreadable samples: the count is refused before any
    # sample is parsed or certified
    path = tmp_path / "phis.json"
    path.write_text(json.dumps([[["abc"]]] * (MAX_SAMPLES + 1)))
    code, rep = run("family-sweep", "--input", str(path))
    assert code == 1
    assert rep["error"]["type"] == "ParseError"
    assert f"at most {MAX_SAMPLES} phi samples" in rep["error"]["message"]


def test_reports_print_non_finite_floats_as_null():
    assert fileio.to_jsonable({"a": [math.nan, -math.inf, 1.5]}) == {"a": [None, None, 1.5]}


def test_import_leaves_sympy_out():
    code = "import sys, quadlie, quadlie.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(quadlie.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# argv fuzzer: whatever the arguments, main returns 0, 1 or 2, raises
# nothing and prints nothing or one strict JSON document.  Spans and
# windows stay within 50, grids within 64 and sweeps within 3 trials, so
# every case runs fast; the edge values ride along.

_EDGE = ["", "nan", "-nan", "inf", "-inf", "1e309", "-1e309", "1e160", "-1e200", "abc", "1/0", "-3",
         "9" * 40]
_MODELS = ["e2-motion", "oscillator", "oscillator(1,2)", "dim5-nilpotent", "two-step-volume"]
_CATALOG = _MODELS * 4 + [
    "a-d-double(1)", "dim4-b", "a-d(2)", "nope", "oscillator(", "oscillator(0)",
    "oscillator(nan)", "a-d(x)", "",
]
_LABELS = ["e1", "e2", "e3", "e0", "1", "v1", "d2", "x9", ""]


def _number(bound):
    real = st.floats(-bound, bound, allow_nan=False).map(repr)
    return st.one_of(real, real, real, st.integers(-bound, bound).map(str), st.sampled_from(_EDGE))


def _csv(item, most):
    return st.lists(item, min_size=1, max_size=most).map(",".join)


_VECTOR = _csv(st.tuples(st.sampled_from(_LABELS), _number(2)).map(":".join), 3)
# a scan window, a probe span straddling 0, or any pair at all
_PAIR = st.one_of(
    st.tuples(st.integers(0, 25), st.integers(1, 25)).map(lambda p: f"{p[0]}:{sum(p)}"),
    st.tuples(st.floats(0.01, 50), st.floats(0.01, 50)).map(lambda p: f"{-p[0]!r}:{p[1]!r}"),
    st.tuples(_number(50), _number(50)).map(":".join),
)
_VALUES = {
    "--input": st.just("missing-model.json"),
    "--catalog": st.sampled_from(_CATALOG),
    "--lambda": _csv(_number(3), 3),
    "--x": _VECTOR,
    "--y": _VECTOR,
    "--ydot": _VECTOR,
    "--seed": st.sampled_from(["default", "builtin", "nope", ""]),
    "--span": _PAIR,
    "--window": _PAIR,
    "--grid": st.one_of(st.integers(-3, 64).map(str), st.sampled_from(["2.5", "", "x"])),
    "--dimv": st.sampled_from(["3", "2", "0", "-1", "x", "9" * 40]),
    "--trials": st.sampled_from(["0", "1", "3", "-1", "x", "9" * 40]),
    "--rng-seed": st.sampled_from(["0", "7", "-5", "9" * 40, "x"]),
    "--tol": st.sampled_from(["1e-8", "1e-6", "0", "-1", "nan", "inf", "1e309", "", "x"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--out": st.just("/dev/null/x"),
    "--bogus": st.just("1"),
}
_MODEL = ("--input", "--catalog", "--lambda")
# --tol only where it is the integrator tolerance, --out only where
# artifacts are written
_FLAGS = {
    "validate": _MODEL, "analyze": _MODEL, "flat": _MODEL,
    "connection": _MODEL + ("--out",), "curvature": _MODEL + ("--out",),
    "build": _MODEL + ("--out",),
    "catalog": (),
    "geodesic": _MODEL + ("--x", "--seed", "--span", "--tol", "--out", "--format"),
    "jacobi": _MODEL + ("--x", "--seed", "--y", "--ydot", "--span", "--tol", "--out", "--format"),
    "conjugate": _MODEL + ("--x", "--seed", "--window", "--grid", "--tol"),
    "probe": _MODEL + ("--x", "--seed", "--span", "--tol"),
    "family-sweep": _MODEL + ("--dimv", "--trials", "--rng-seed", "--out", "--format"),
}
# drawn for most cases, so that most commands get past argument checking
_USUAL = {
    "geodesic": ("--span",),
    "jacobi": ("--span", "--ydot"),
    "conjugate": ("--window", "--grid"),
    "probe": ("--span",),
    "family-sweep": ("--trials",),
}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_FLAGS) + ["nope"]))
    usual = _USUAL.get(cmd, ())
    if "--catalog" in _FLAGS.get(cmd, ()) and cmd != "family-sweep":
        usual = ("--catalog",) + usual
    flags = [flag for flag in usual if draw(st.integers(0, 5))]
    flags += draw(st.lists(st.sampled_from(_FLAGS.get(cmd, ()) + ("--bogus",)), max_size=3))
    argv = [cmd]
    for flag in flags:
        argv += [flag, draw(_VALUES[flag])]
    return argv


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_argv())
def test_cli_argv_fuzz(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if out.getvalue():
        _strict_json(out.getvalue())


# --- exact entries beyond binary64 -------------------------------------------

BIG = 10**400  # 401 digits: exact arithmetic takes it, binary64 cannot


def _big_e2():
    """e2-motion with its brackets scaled by BIG, and its flat metric."""
    L = catalog("e2-motion").algebra
    c = [[[BIG * v for v in row] for row in plane] for plane in L.c]
    return c, ((1, 0, 0), (0, 1, 0), (0, 0, -1))


@pytest.fixture
def big_doc(tmp_path):
    c, g = _big_e2()
    brackets = [
        {"i": i, "j": j, "terms": [{"k": k, "coef": str(v)} for k, v in enumerate(c[i][j]) if v]}
        for i in range(3) for j in range(i + 1, 3) if any(c[i][j])
    ]
    doc = {"dim": 3, "brackets": brackets, "form": [list(map(str, g[r][: r + 1])) for r in range(3)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    return path


def test_exact_verdicts_take_entries_beyond_binary64():
    c, g = _big_e2()
    L = validate_algebra(c)
    rep = quadlie.structure_report(L)
    assert rep.unimodular and not rep.abelian and len(rep.center) == 0
    P = levi_civita(L, g)
    small = levi_civita(catalog("e2-motion").algebra, g)
    assert P.gamma == tuple(tuple(tuple(BIG * v for v in row) for row in p) for p in small.gamma)
    flat = quadlie.product_report(P)
    assert flat.flat and flat.torsion_ok and flat.skew_ok and flat.tolerance == 0
    big_form = validate_form([[BIG * v for v in row] for row in g])
    assert quadlie.check_ad_invariance(L, big_form).invariant is False
    iso, metric = metric_from_iso(g, [[BIG if i == j else 0 for j in range(3)] for i in range(3)])
    assert metric.matrix == big_form.matrix


def test_builders_take_entries_beyond_binary64():
    L, k = quadlie.build_double_extension(2, [[1, 0], [0, 1]], [[0, BIG], [-BIG, 0]])
    assert L.exact and max(abs(v) for p in L.c for r in p for v in r) == BIG
    theta = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k_), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                          ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)):
        theta[i][j][k_] = s * BIG
    L, k = quadlie.build_two_step(quadlie.TwoStepSpec(3, theta))
    assert L.exact and L.dim == 6


def test_converting_entries_beyond_binary64_raises_invalid_value():
    c, g = _big_e2()
    L = validate_algebra(c)
    form = validate_form([[BIG * v for v in row] for row in g])
    iso = quadlie.SymmetricIso(3, tuple(tuple(BIG * v for v in row) for row in g), True)
    P = levi_civita(L, g)
    for obj in (L, form, iso, P):
        with pytest.raises(InvalidValue):
            obj.to_float()


@pytest.mark.parametrize("cmd", ["validate", "analyze", "connection", "curvature", "flat"])
def test_cli_certifies_a_document_beyond_binary64(big_doc, cmd):
    code, rep = run(cmd, "--input", str(big_doc))
    assert code == 0
    assert "error" not in rep
    if cmd == "flat":
        assert rep["verdicts"]["flat"] == {"value": True, "mode": "exact", "tolerance": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "--x", "e0:1", "--span", "0:1"],
        ["probe", "--x", "e0:1", "--span=-1:1"],
        ["conjugate", "--x", "e0:1", "--window", "0:2", "--grid", "4"],
    ],
)
def test_cli_binary64_commands_reject_a_document_beyond_binary64(big_doc, argv):
    code, rep = run(*argv, "--input", str(big_doc))
    assert code == 1
    assert rep["error"]["type"] == "InvalidValue"


def test_a_binary64_document_with_an_entry_beyond_its_range_is_invalid(big_doc):
    doc = json.loads(big_doc.read_text())
    doc["form"][0][0] = 1.5
    big_doc.write_text(json.dumps(doc))
    code, rep = run("validate", "--input", str(big_doc))
    assert code == 1
    assert rep["error"]["type"] == "InvalidValue"


def test_a_catalog_frequency_beyond_binary64_certifies_and_only_its_float_oracle_fails():
    entry = catalog(f"oscillator({BIG})")
    with pytest.raises(InvalidValue):
        entry.oracles["group_product"]((0, 0, 0), (0, 0, 0))
    code, rep = run("analyze", "--catalog", f"oscillator({BIG})")
    assert code == 0 and rep["mode"] == "exact"


def test_a_binary64_table_or_form_with_an_int_beyond_its_range_is_invalid():
    c = [[[int(v) for v in row] for row in plane] for plane in _big_e2()[0]]
    c[0][0][0] = 0.0  # one float makes the table binary64
    with pytest.raises(InvalidValue):
        validate_algebra(c)
    with pytest.raises(InvalidValue):
        validate_form([[BIG, 0, 0], [0, 1.0, 0], [0, 0, -1]])


def test_grids_beyond_max_grid_are_invalid(e2_product):
    P, big = e2_product, dynamics.MAX_GRID + 1
    with pytest.raises(InvalidSpan):
        dynamics.conjugate_scan(P, SEED, (0.0, 1.0), grid=big)
    with pytest.raises(InvalidSpan):
        dynamics.jacobi_route_gap(P.algebra, P, SEED, SEED, (0.0, 1.0), samples=big)


def test_cli_scan_grid_beyond_max_grid_ends_at_once():
    start = time.perf_counter()
    code, rep = run("conjugate", "--catalog", "e2-motion", "--window", "0:8", "--grid", "100000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert rep["error"]["type"] == "InvalidSpan"


@pytest.mark.parametrize("t_max", ["abc", "5", (1.0,), (-1.0, 2.0, 3.0), (), True, (-1.0, True),
                                   10**400, (-(10**400), 1.0), None])
def test_probe_rejects_malformed_windows(e2_product, t_max):
    with pytest.raises(InvalidSpan):
        dynamics.completeness_probe(e2_product, [SEED], t_max=t_max)


@pytest.mark.parametrize("t_max", [(0, 3), (-3, 0), (0.0, 3.0)])
def test_a_probe_window_with_an_end_at_0_must_straddle_0(e2_product, t_max):
    with pytest.raises(InvalidSpan, match="probe window must straddle 0"):
        dynamics.completeness_probe(e2_product, [SEED], t_max=t_max)
    span = ":".join(map(str, t_max))
    code, rep = run("probe", "--catalog", "e2-motion", "--span", span)
    assert code == 1
    assert rep["error"] == {"type": "InvalidSpan", "message": "probe window must straddle 0"}


@pytest.mark.parametrize("bad, error", [
    ((0.7, "a", 1.3), InvalidValue),
    ((0.7, 10**400, 1.3), InvalidValue),
    ((0.7, None, 1.3), InvalidValue),
    ((0.7, -0.3), DimensionMismatch),
    ((0.7, -0.3, 1.3, 0.0), DimensionMismatch),
    (5, DimensionMismatch),
])
def test_seeds_that_are_not_finite_real_vectors_are_typed(e2_product, bad, error):
    with pytest.raises(error):
        dynamics.integrate_geodesic(e2_product, bad, (0.0, 1.0))
    with pytest.raises(error):
        dynamics.completeness_probe(e2_product, [SEED, bad], t_max=1.0)


def test_probe_checks_every_seed_before_any_run(e2_product, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(dynamics, "_solve", never)
    for bad in ((0.7, "a", 1.3), (math.nan, 0.0, 1.0), (0.7, -0.3)):
        with pytest.raises((InvalidValue, DimensionMismatch)):
            dynamics.completeness_probe(e2_product, [SEED, SEED, bad], t_max=1.0)


def test_probe_seeds_of_a_bare_field_share_one_length(e2_product):
    field = dynamics._field_from(e2_product)[0]
    with pytest.raises(DimensionMismatch):
        dynamics.completeness_probe(field, [SEED, (0.7, -0.3)], t_max=1.0)



DIM5_OPERATORS = {
    "ragged": [[1, 0, 0, 0, 0]] * 4 + [[1, 0]],
    "4x4": [[int(i == j) for j in range(4)] for i in range(4)],
    "5x4": [[int(i == j) for j in range(4)] for i in range(5)],
    "flat": [1, 0, 0, 0, 0] * 5,
    "scalar": 5,
}


@pytest.mark.parametrize("name", sorted(DIM5_OPERATORS))
def test_operators_of_the_wrong_shape_are_a_dimension_mismatch(name):
    from quadlie.connection import product_from_iso

    entry = catalog("dim5-nilpotent")
    L, k, u = entry.algebra, entry.quad_form, DIM5_OPERATORS[name]
    for call in (
        lambda: metric_from_iso(k, u),
        lambda: product_from_iso(L, k, u),
        lambda: dynamics.quadratic_euler_field(L, u),
        lambda: dynamics.polynomial_geodesic_check(L, u, trials=1),
    ):
        with pytest.raises(DimensionMismatch):
            call()


def test_symmetric_iso_takes_only_a_matrix_of_its_size():
    four = DIM5_OPERATORS["4x4"]
    with pytest.raises(DimensionMismatch):
        quadlie.SymmetricIso(5, four, True)
    with pytest.raises(DimensionMismatch):
        metric_from_iso(catalog("dim5-nilpotent").quad_form, quadlie.SymmetricIso(4, four, True))


def test_theta_and_phi_must_be_square_matrices():
    with pytest.raises(DimensionMismatch):
        quadlie.build_double_extension(2, [[1, 0], [0, 1]], [0, 1, -1, 0])
    with pytest.raises(DimensionMismatch):
        quadlie.build_double_extension(2, [[1, 0], [0, 1]], [[0, 1], [-1]])
    for phi in ([1, 0, 0, 0, 1, 0, 0, 0, 1], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(DimensionMismatch):
            quadlie.two_step_metric(quadlie.TwoStepSpec(3, "volume", phi))


@pytest.mark.parametrize("bad, error", [
    ((0.7, "a", 1.3), InvalidValue),
    ((0.7, 10**400, 1.3), InvalidValue),
    ((0.7, None, 1.3), InvalidValue),
    ((0.7, -0.3), DimensionMismatch),
    ((0.7, -0.3, 1.3, 0.0), DimensionMismatch),
    (5, DimensionMismatch),
])
def test_variation_and_scan_seeds_are_typed(e2_product, bad, error):
    P, L, span = e2_product, e2_product.algebra, (0.0, 1.0)
    for call in (
        lambda: dynamics.integrate_jacobi(P, SEED, bad, SEED, span),
        lambda: dynamics.integrate_jacobi(P, SEED, SEED, bad, span),
        lambda: dynamics.right_invariant_reflection(L, P, bad, SEED, span),
        lambda: dynamics.jacobi_route_gap(L, P, SEED, bad, span),
        lambda: dynamics.biinvariant_jacobi(L, bad, SEED, SEED, span),
        lambda: dynamics.biinvariant_jacobi(L, SEED, SEED, bad, span),
        lambda: dynamics.conjugate_scan(P, bad, span, grid=4),
    ):
        with pytest.raises(error):
            call()


def test_a_binary64_operator_on_an_exact_algebra_gives_binary64_results():
    from quadlie.connection import product_from_iso

    entry = catalog("two-step-volume")
    L, k, n = entry.algebra, entry.quad_form, entry.algebra.dim
    u = [[float(i == j) for j in range(n)] for i in range(n)]
    assert not metric_from_iso(k, u)[0].exact
    assert not product_from_iso(L, k, u).exact
    assert dynamics.polynomial_geodesic_check(L, quadlie.SymmetricIso(n, u, False), trials=1).certified
    _, evaluate = dynamics.quadratic_euler_field(L, u)
    assert all(isinstance(v, float) for v in evaluate([1] * n))


@pytest.mark.parametrize("phi, error", [
    ([[1, 2], [3]], DimensionMismatch),
    ([[1, 2, 3], [4, 5, 6]], DimensionMismatch),
    ([[math.nan, 0], [0, 1]], InvalidValue),
    ([[math.inf, 0], [0, 1]], InvalidValue),
    ([1, 2], DimensionMismatch),
    (5, DimensionMismatch),
])
def test_similarity_invariants_rejects_what_is_not_a_square_matrix(phi, error):
    with pytest.raises(error):
        quadlie.similarity_invariants(phi)


def test_similarity_invariants_of_the_empty_matrix():
    inv = quadlie.similarity_invariants([])
    assert inv.char_poly == (1,)
    assert inv.invariant_factor_degrees == ()


@pytest.mark.parametrize("call", [
    lambda: validate_form(5),
    lambda: validate_form([1, 2]),
    lambda: validate_algebra(5),
    lambda: validate_algebra([[1]]),
    lambda: validate_algebra([5]),
])
def test_form_and_table_that_are_not_nested_rows_are_dimension_mismatches(call):
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize("call", [
    lambda: validate_form([[[1]]]),
    lambda: validate_form([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
    lambda: validate_form([[1.0, [2.0]], [3.0, 4.0]]),
    lambda: validate_algebra([[[[1]]]]),
    lambda: validate_algebra([[[1, [2]], [3, 4]], [[5, 6], [7, 8]]]),
])
def test_form_and_table_entries_that_are_sequences_are_dimension_mismatches(call):
    with pytest.raises(DimensionMismatch):
        call()


def _oscillator_model():
    L, k = quadlie.build_oscillator((1,))
    P = levi_civita(L, k)
    return L, k, P


_NESTED = [[1], 0, 0, 0]  # a list where the first scalar belongs
_ID = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
_NESTED_ID = [_NESTED, *_ID[1:]]


_NESTED_ENTRY_CALLS = {
    "as_iso": lambda L, k, P: quadlie.forms.as_iso([[[1]]], 1),
    "SymmetricIso": lambda L, k, P: quadlie.SymmetricIso(4, _NESTED_ID),
    "SymmetricIso-exact": lambda L, k, P: quadlie.SymmetricIso(4, _NESTED_ID, True),
    "metric_from_iso": lambda L, k, P: metric_from_iso(k, _NESTED_ID),
    "build_double_extension-theta": lambda L, k, P: quadlie.build_double_extension(
        2, [[1, 0], [0, 1]], [[[0], -1], [1, 0]]
    ),
    "build_two_step-theta": lambda L, k, P: quadlie.build_two_step(
        quadlie.TwoStepSpec(3, [[[[0]] * 3] * 3] * 3)
    ),
    "two_step_metric-phi": lambda L, k, P: quadlie.two_step_metric(
        quadlie.TwoStepSpec(3, "volume", [[[1], 0, 0], [0, 1, 0], [0, 0, 1]])
    ),
    "similarity_invariants": lambda L, k, P: quadlie.similarity_invariants([[[1]]]),
    "build_oscillator": lambda L, k, P: quadlie.build_oscillator(([1],)),
    "bracket-x": lambda L, k, P: quadlie.bracket(L, _NESTED, [1, 0, 0, 0]),
    "bracket-y": lambda L, k, P: quadlie.bracket(L, [1, 0, 0, 0], _NESTED),
    "LieAlgebra.ad": lambda L, k, P: L.ad(_NESTED),
    "ProductTensor.mult": lambda L, k, P: P.mult(_NESTED, [1, 0, 0, 0]),
    "ProductTensor.left_mult": lambda L, k, P: P.left_mult(_NESTED),
    "ProductTensor.mult-binary64": lambda L, k, P: P.to_float().mult([1.0, 0.0, 0.0, 0.0], _NESTED),
    "SymBilinearForm.apply": lambda L, k, P: k.apply(_NESTED, [1, 0, 0, 0]),
    "CurvatureTensor.apply": lambda L, k, P: quadlie.curvature(P).apply(
        [1, 0, 0, 0], [0, 1, 0, 0], _NESTED
    ),
    "quadratic_euler_field": lambda L, k, P: dynamics.quadratic_euler_field(L, _ID)[1](_NESTED),
}


@pytest.mark.parametrize("name", sorted(_NESTED_ENTRY_CALLS))
def test_a_list_where_a_scalar_belongs_is_a_dimension_mismatch_at_every_intake(name):
    L, k, P = _oscillator_model()
    with pytest.raises(DimensionMismatch):
        _NESTED_ENTRY_CALLS[name](L, k, P)


_VECTOR_CALLS = {
    "bracket": lambda L, k, P, v: quadlie.bracket(L, v, [0, 1, 0, 0]),
    "LieAlgebra.ad": lambda L, k, P, v: L.ad(v),
    "ProductTensor.mult": lambda L, k, P, v: P.mult([0, 0, 1, 0], v),
    "ProductTensor.left_mult": lambda L, k, P, v: P.left_mult(v),
    "SymBilinearForm.apply": lambda L, k, P, v: k.apply(v, [1, 0, 0, 0]),
    "SymmetricIso": lambda L, k, P, v: quadlie.SymmetricIso(4, [v, *_ID[1:]], k.exact),
    "SymmetricIso.apply": lambda L, k, P, v: quadlie.SymmetricIso(4, _ID, k.exact).apply(v),
    "CurvatureTensor.apply": lambda L, k, P, v: quadlie.curvature(P).apply(
        [1, 0, 0, 0], [0, 1, 0, 0], v
    ),
    "quadratic_euler_field": lambda L, k, P, v: dynamics.quadratic_euler_field(L, _ID)[1](v),
}


@pytest.mark.parametrize("bad, error", [
    (math.nan, InvalidValue),
    (math.inf, InvalidValue),
    (-math.inf, InvalidValue),
    (True, MixedModeError),
    ("1", MixedModeError),
    (None, MixedModeError),
], ids=["nan", "inf", "-inf", "True", "str", "None"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "binary64"])
@pytest.mark.parametrize("name", sorted(_VECTOR_CALLS))
def test_bad_vector_entries_are_typed_in_either_mode(name, exact, bad, error):
    model = _oscillator_model()
    if not exact:
        model = [t.to_float() for t in model]
    with pytest.raises(error):
        _VECTOR_CALLS[name](*model, [bad, 0, 0, 0])


def test_binary64_tensor_methods_reject_non_finite_entries():
    e2 = catalog("e2-motion")
    with pytest.raises(InvalidValue):
        e2.algebra.to_float().bracket([math.nan, 0, 0], [0, 1, 0])
    with pytest.raises(InvalidValue):
        levi_civita(e2.algebra, e2.metric).to_float().mult([math.inf, 0, 0], [0, 0, 1])


@pytest.mark.parametrize("call", [
    lambda L, k, P: L.ad([1, 2]),
    lambda L, k, P: P.left_mult([1, 2]),
    lambda L, k, P: k.apply([1, 2], [1, 0, 0, 0]),
    lambda L, k, P: quadlie.SymmetricIso(4, _ID).apply([1, 2]),
    lambda L, k, P: quadlie.curvature(P).apply([1, 2], [1, 0, 0, 0], [1, 0, 0, 0]),
    lambda L, k, P: dynamics.quadratic_euler_field(L, _ID)[1]([1, 2]),
], ids=["ad", "left_mult", "form-apply", "iso-apply", "curvature-apply", "quadratic_euler_field"])
def test_a_vector_of_another_length_is_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call(*_oscillator_model())


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("name", ["rank", "inverse", "det", "nullspace", "signature"])
def test_linalg_reads_ragged_rows_as_a_dimension_mismatch(name, exact):
    rows = [[1, 2], [3]] if exact else [[1.0, 2.0], [3.0]]
    with pytest.raises(DimensionMismatch):
        getattr(quadlie.linalg, name)(quadlie.scalars.read(rows, 2, exact=exact))


def test_two_step_metrics_and_family_sweep_leave_sympy_out():
    code = (
        "import contextlib, io, sys\n"
        "from quadlie import TwoStepSpec, cli, two_step_metric\n"
        "two_step_metric(TwoStepSpec(3, 'volume', ((2, 1, 0), (0, 2, 0), (0, 0, 3))))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['family-sweep', '--dimv', '3', '--trials', '2'])\n"
        "print('sympy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(quadlie.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


_BAD_SPANS = {
    "int-beyond-binary64": (0, 10**400),
    "Fraction-beyond-binary64": (0, Fraction(10**400)),
    "triple": (0, 1, 2),
    "bool-start": (True, 3),
    "bool-end": (0, True),
    "text": ("a", 1),
    "numeric-text": ("0", "1"),
    "scalar": 5,
    "None": None,
    "single": (0,),
    "empty": (),
}


@pytest.mark.parametrize("span", list(_BAD_SPANS.values()), ids=list(_BAD_SPANS))
def test_spans_and_scan_windows_that_are_not_pairs_of_finite_reals_are_invalid(e2_product, span):
    P, L = e2_product, e2_product.algebra
    for call in (
        lambda: dynamics.integrate_geodesic(P, SEED, span),
        lambda: dynamics.integrate_jacobi(P, SEED, SEED, SEED, span),
        lambda: dynamics.biinvariant_jacobi(L, SEED, SEED, SEED, span),
        lambda: dynamics.right_invariant_reflection(L, P, SEED, SEED, span),
        lambda: dynamics.jacobi_route_gap(L, P, SEED, SEED, span),
        lambda: dynamics.conjugate_scan(P, SEED, span, grid=4),
    ):
        with pytest.raises(InvalidSpan):
            call()


@pytest.mark.parametrize("t_max", [(Fraction(-(10**400)), 1.0), Fraction(10**400), (-1.0, "2")])
def test_probe_windows_are_read_as_spans(e2_product, t_max):
    with pytest.raises(InvalidSpan):
        dynamics.completeness_probe(e2_product, [SEED], t_max=t_max)


def test_a_scan_window_of_numbers_of_any_real_type_reads_as_floats(e2_product):
    rep = dynamics.conjugate_scan(e2_product, SEED, (Fraction(0), Fraction(3, 2)), grid=4)
    assert rep.window == (0.0, 1.5)
    assert rep == dynamics.conjugate_scan(e2_product, SEED, (0.0, 1.5), grid=4)


@pytest.mark.parametrize("tol", [10**400, Fraction(10**400), True], ids=["int", "Fraction", "True"])
def test_tolerances_beyond_binary64_or_bool_are_invalid(e2_product, nilpotent_iso, tol):
    P, L = e2_product, e2_product.algebra
    rep = dynamics.conjugate_scan(P, SEED, (0.0, 1.0), grid=4)
    for call in (
        lambda: dynamics.polynomial_geodesic_check(*nilpotent_iso, trials=1, tol=tol),
        lambda: dynamics.annotate_candidates(rep, (0.5,), match_tol=tol),
        lambda: dynamics.integrate_geodesic(P, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.completeness_probe(P, [SEED], t_max=1.0, tol=tol),
        lambda: dynamics.integrate_jacobi(P, SEED, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.biinvariant_jacobi(L, SEED, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.right_invariant_reflection(L, P, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.jacobi_route_gap(L, P, SEED, SEED, (0.0, 1.0), tol=tol),
        lambda: dynamics.conjugate_scan(P, SEED, (0.0, 1.0), grid=4, tol=tol),
    ):
        with pytest.raises(InvalidValue):
            call()


@pytest.mark.parametrize("bad", [("0.7", "-0.3", "1.3"), (0.7, "-0.3", 1.3), "123"])
def test_seeds_of_numeric_strings_are_invalid_values(e2_product, bad):
    P, L, span = e2_product, e2_product.algebra, (0.0, 1.0)
    for call in (
        lambda: dynamics.integrate_geodesic(P, bad, span),
        lambda: dynamics.completeness_probe(P, [SEED, bad], t_max=1.0),
        lambda: dynamics.integrate_jacobi(P, bad, SEED, SEED, span),
        lambda: dynamics.integrate_jacobi(P, SEED, bad, SEED, span),
        lambda: dynamics.right_invariant_reflection(L, P, SEED, bad, span),
        lambda: dynamics.jacobi_route_gap(L, P, bad, SEED, span),
        lambda: dynamics.biinvariant_jacobi(L, SEED, bad, SEED, span),
        lambda: dynamics.conjugate_scan(P, bad, span, grid=4),
    ):
        with pytest.raises(InvalidValue):
            call()


def test_seeds_of_any_real_type_read_as_floats(e2_product):
    import numpy as np

    want = dynamics.integrate_geodesic(e2_product, (0.7, -0.25, 1.0), (0.0, 1.0))
    for seed in [(Fraction(7, 10), Fraction(-1, 4), 1), (np.float64(0.7), np.float32(-0.25), 1)]:
        assert dynamics.integrate_geodesic(e2_product, seed, (0.0, 1.0)) == want


def test_an_algebra_or_run_of_another_dimension_is_a_dimension_mismatch(e2_product):
    P, span = e2_product, (0.0, 1.0)
    osc = catalog("oscillator(1)").algebra
    jac = dynamics.right_invariant_reflection(P.algebra, P, SEED, SEED, span)
    other = dynamics.integrate_geodesic(levi_civita(osc, catalog("oscillator(1)").quad_form),
                                        (1, 0, 1, 0), span)
    for call in (
        lambda: dynamics.right_invariant_reflection(osc, P, SEED, SEED, span),
        lambda: dynamics.jacobi_route_gap(osc, P, SEED, SEED, span),
        lambda: dynamics.reflection_equation_residual(osc, P, jac),
        lambda: dynamics.reflection_equation_residual(P.algebra, P, other),
        lambda: dynamics.energy_drift(P, other),
    ):
        with pytest.raises(DimensionMismatch):
            call()


# rows of a run as the caller may hand them in: (states, error)
_BAD_ROWS = {
    "string-entry": ((SEED, (0.7, "a", 1.3)), InvalidValue),
    "string-row": ((SEED, "abc"), InvalidValue),
    "nan-entry": ((SEED, (math.nan, 0.0, 1.0)), InvalidValue),
    "none-entry": ((SEED, (None, 0.0, 1.0)), InvalidValue),
    "bool-entry": ((SEED, (True, 0.0, 1.0)), InvalidValue),
    "ragged": ((SEED, (0.7, -0.3)), DimensionMismatch),
    "short-string-row": ((SEED, "ab"), DimensionMismatch),
    "scalar-row": ((SEED, 0.7), DimensionMismatch),
    "not-rows": (5, DimensionMismatch),
    "empty": ((), DimensionMismatch),
}


@pytest.mark.parametrize("name", list(_BAD_ROWS))
def test_energy_drift_reads_the_rows_of_its_run_checked(e2_product, name):
    states, error = _BAD_ROWS[name]
    geo = dynamics.integrate_geodesic(e2_product, SEED, (0.0, 1.0))
    with pytest.raises(error):
        dynamics.energy_drift(e2_product, replace(geo, states=states))


@pytest.mark.parametrize("name", list(_BAD_ROWS))
@pytest.mark.parametrize("field", ["states", "base_states"])
def test_reflection_residual_reads_the_rows_of_its_run_checked(e2_product, name, field):
    # a NaN run used to pass with residual 0.0, as max(0.0, nan) is 0.0
    P, L = e2_product, e2_product.algebra
    states, error = _BAD_ROWS[name]
    good = (SEED,) * len(states) if isinstance(states, tuple) else (SEED,)
    jac = replace(dynamics.right_invariant_reflection(L, P, SEED, SEED, (0.0, 1.0)),
                  states=good, base_states=good)
    with pytest.raises(error):
        dynamics.reflection_equation_residual(L, P, replace(jac, **{field: states}))


@pytest.mark.parametrize("base_states", [(), (SEED,), (SEED,) * 3], ids=["none", "fewer", "more"])
def test_reflection_residual_needs_one_base_state_per_state(e2_product, base_states):
    P, L = e2_product, e2_product.algebra
    jac = dynamics.right_invariant_reflection(L, P, SEED, SEED, (0.0, 1.0))
    assert dynamics.reflection_equation_residual(L, P, replace(jac, states=(SEED,) * 2,
                                                               base_states=(SEED,) * 2)) <= 1e-14
    with pytest.raises(DimensionMismatch):
        dynamics.reflection_equation_residual(L, P, replace(jac, states=(SEED,) * 2,
                                                            base_states=base_states))


@pytest.mark.parametrize("ref", ["e3", "2", 2, "e2"])
def test_documents_and_algebras_resolve_basis_names_alike(ref):
    from quadlie.algebra import label_index

    labels = ("a", "b", "e2")
    doc = {"dim": 3, "basis": list(labels), "brackets": [
        {"i": "a", "j": "b", "terms": [{"k": ref, "coef": 1}]}]}
    try:
        k = label_index(labels, ref)
    except quadlie.ValidationError:
        with pytest.raises(quadlie.ParseError, match=r"brackets\[0\]\.terms\[0\]"):
            fileio.parse_algebra_doc(doc)
    else:
        L, _, _ = fileio.parse_algebra_doc(doc)
        assert L.c[0][1][k] == 1 and L.label_index(ref) == k


def test_bare_parametric_catalog_names_take_parameter_one():
    for bare in ("oscillator", "a-d", "a-d-double"):
        assert catalog(bare).name == catalog(f"{bare}(1)").name == f"{bare}(1)"


def test_common_mode_promotes_every_tensor_or_none():
    from quadlie import scalars

    e2 = catalog("e2-motion")
    L, g = e2.algebra, e2.metric
    assert scalars.common_mode(L, g) == (L, g)
    Lf, gf = scalars.common_mode(L, g.to_float())
    assert not Lf.exact and not gf.exact and Lf.c == L.to_float().c
