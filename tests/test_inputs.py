"""Bad numeric inputs end in typed errors, and at the CLI in a JSON error
with exit code 1; plus the scan-grid and lazy-import regressions and a
fuzzer over the CLI's argv."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadlie
from quadlie import catalog, dynamics, fileio, levi_civita, metric_from_iso, validate_algebra
from quadlie import validate_form
from quadlie.cli import main
from quadlie.errors import EngineError, InvalidSpan, InvalidValue, StepBudgetExhausted


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
def test_every_integrator_rejects_bad_tolerance(e2_product, tol):
    P = e2_product
    L = P.algebra
    calls = [
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
    "--trials": st.sampled_from(["0", "1", "3", "-1", "x"]),
    "--rng-seed": st.sampled_from(["0", "7", "-5", "9" * 40, "x"]),
    "--tol": st.sampled_from(["1e-8", "1e-6", "0", "-1", "nan", "inf", "1e309", "", "x"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--bogus": st.just("1"),
}
_MODEL = ("--input", "--catalog", "--lambda")
_FLAGS = {
    "validate": _MODEL, "analyze": _MODEL, "connection": _MODEL,
    "curvature": _MODEL, "flat": _MODEL, "build": _MODEL,
    "catalog": (),
    "geodesic": _MODEL + ("--x", "--seed", "--span", "--format"),
    "jacobi": _MODEL + ("--x", "--seed", "--y", "--ydot", "--span", "--format"),
    "conjugate": _MODEL + ("--x", "--seed", "--window", "--grid"),
    "probe": _MODEL + ("--x", "--seed", "--span"),
    "family-sweep": _MODEL + ("--dimv", "--trials", "--rng-seed", "--format"),
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
    flags += draw(st.lists(st.sampled_from(_FLAGS.get(cmd, ()) + ("--tol", "--bogus")), max_size=3))
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
