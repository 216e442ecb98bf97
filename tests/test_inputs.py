"""Bad numeric inputs end in typed errors, and at the CLI in a JSON error
with exit code 1; plus the scan-grid and lazy-import regressions."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import quadlie
from quadlie import catalog, dynamics, levi_civita, metric_from_iso, validate_algebra
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


def test_import_leaves_sympy_out():
    code = "import sys, quadlie, quadlie.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(quadlie.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
