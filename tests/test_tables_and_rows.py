"""Binary64 structure tables near the top of the binary64 range, the
Jacobi slack of each entry from the size of its own terms, and the
one-step read of a run's rows of Python floats."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quadlie import catalog, dynamics, fileio, levi_civita, validate_algebra
from quadlie.errors import AntisymmetryViolation, InvalidValue, JacobiViolation
from test_inputs import _BAD_ROWS, SEED


def _scaled_table(name, scale):
    return (catalog(name).algebra.array.to_float().num * scale).tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, scale", [
    ("e2-motion", 1e155),  # the square of the largest constant is beyond binary64
    ("oscillator(1,2)", 1e154),  # large enough that the Jacobi terms run as a matrix product
    ("dim5-nilpotent", 1e300),
])
def test_a_table_whose_jacobi_terms_overflow_is_an_invalid_value(name, scale):
    with pytest.raises(InvalidValue, match="overflow binary64"):
        validate_algebra(_scaled_table(name, scale))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, scale", [
    ("e2-motion", 1e154),
    ("oscillator(1,2)", 1e150),
    ("two-step-volume", 1e300),  # two-step: every Jacobi term vanishes
])
def test_a_table_whose_jacobi_terms_stay_finite_is_accepted(name, scale):
    L = validate_algebra(_scaled_table(name, scale))
    assert not L.exact and L.c == tuple(
        tuple(tuple(v * scale for v in row) for row in m) for m in catalog(name).algebra.to_float().c)


@pytest.mark.filterwarnings("error")
def test_a_huge_table_that_is_not_antisymmetric_is_still_refused():
    c = _scaled_table("two-step-volume", 1e200)
    c[0][1][2] += 1e200  # [e0, e1] no longer minus [e1, e0]
    with pytest.raises(AntisymmetryViolation):
        validate_algebra(c)


@pytest.mark.filterwarnings("error")
def test_a_table_not_antisymmetric_beyond_binary64_warns_of_nothing(capfd):
    c = np.zeros((3, 3, 3)).tolist()
    c[0][1][2] = c[1][0][2] = 1.5e308  # their sum overflows
    with pytest.raises(AntisymmetryViolation) as exc:
        validate_algebra(c)
    assert exc.value.residual == math.inf
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("big", [1e6, 1e10, 1e14])
def test_a_jacobi_failure_linear_in_the_largest_constant_is_refused(big):
    # [e0, e1] = big e2, [e0, e2] = e0: [[e2, e0], e1] = -big e2 is the
    # one term at (0, 1, 2), so the residual is as large as its terms
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = big, -big
    c[0, 2, 0], c[2, 0, 0] = 1.0, -1.0
    with pytest.raises(JacobiViolation) as exc:
        validate_algebra(c.tolist())
    assert (exc.value.i, exc.value.j, exc.value.k, exc.value.component) == (0, 1, 2, 2)
    assert exc.value.residual == -big


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-3, 0.37, 1.0, 1e150])
def test_catalog_tables_at_any_scale_pass_the_jacobi_slack(scale):
    for name in ("e2-motion", "oscillator(1,2)", "dim4-b", "dim5-nilpotent", "two-step-volume",
                 "a-d(2)", "a-d-double(1)"):
        assert not validate_algebra(_scaled_table(name, scale)).exact


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e150])
@pytest.mark.parametrize("name", ["oscillator(1,2)", "dim5-nilpotent"])
def test_a_table_in_a_rounded_basis_passes_the_jacobi_slack(name, scale):
    # the table in the basis P e_i, whose Jacobi sums round to nonzero
    C = catalog(name).algebra.array.to_float().num
    P = np.eye(len(C)) + 0.3 * np.random.default_rng(0).standard_normal(C.shape[:2])
    rounded = np.einsum("ai,bj,abk,lk->ijl", P, P, C, np.linalg.inv(P)) * scale
    assert not validate_algebra(rounded.tolist()).exact


def test_exact_tables_of_any_size_are_unaffected():
    scale = 10**400
    L = validate_algebra([[[v * scale for v in row] for row in m] for m in catalog("e2-motion").algebra.c])
    assert L.exact and L.c[0][2][1] == -scale


def test_cli_validate_of_a_table_beyond_binary64_reports_json_and_one_line(tmp_path):
    e = catalog("e2-motion")
    path = tmp_path / "e2-huge.json"
    fileio.write_algebra_file(path, e.algebra.to_float(), e.metric.to_float(), None)
    doc = json.loads(path.read_text())
    for bracket in doc["brackets"]:
        for term in bracket["terms"]:
            term["coef"] *= 1e155
    path.write_text(json.dumps(doc))
    src = str(Path(fileio.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "quadlie.cli", "validate", "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "InvalidValue"
    assert proc.stderr == "error: the Jacobi identity's terms overflow binary64\n"


# each of the bad row sets of the energy and reflection tests, read as a
# geodesic's rows (dimension 3) and as a bare field's (the first row's
# length): the error and its message, as the per-entry read gives them
_BAD_ROW_ERRORS = {
    "string-entry": "vector entries must be finite reals, got (0.7, 'a', 1.3)",
    "string-row": "vector entries must be finite reals, got 'abc'",
    "nan-entry": "vector entries must be finite reals, got (nan, 0.0, 1.0)",
    "none-entry": "vector entries must be finite reals, got (None, 0.0, 1.0)",
    "bool-entry": "vector entries must be finite reals, got (True, 0.0, 1.0)",
    "ragged": "vector of length 2 in dimension 3",
    "short-string-row": "vector of length 2 in dimension 3",
    "scalar-row": "0.7 is not a vector",
    "not-rows": "5 is not a list of vectors",
}


@pytest.mark.parametrize("name", list(_BAD_ROWS))
@pytest.mark.parametrize("dim", [3, None])
def test_bad_rows_keep_their_error_and_message(name, dim):
    states, error = _BAD_ROWS[name]
    if name == "empty":  # no row: an empty block, which a run then refuses
        assert dynamics._seed_block(states, dim).shape == (0, dim or 0)
        return
    with pytest.raises(error) as info:
        dynamics._seed_block(states, dim)
    assert str(info.value) == _BAD_ROW_ERRORS[name]


@pytest.mark.parametrize("name", [n for n in _BAD_ROWS if n not in ("not-rows", "empty")])
def test_one_bad_row_among_many_float_rows_keeps_its_error(name):
    (_, bad), error = _BAD_ROWS[name]
    rows = [SEED] * 500 + [bad] + [SEED] * 10
    with pytest.raises(error) as info:
        dynamics._seed_block(rows, 3)
    assert str(info.value) == _BAD_ROW_ERRORS[name]


def test_float_rows_read_in_one_step_as_entry_by_entry():
    rows = tuple(tuple(float(3 * i + j) / 7 for j in range(3)) for i in range(200))
    block = dynamics._seed_block(rows, 3)
    assert block.dtype == float and block.shape == (200, 3)
    assert block.tolist() == [list(r) for r in rows]
    assert dynamics._seed_block(rows, None).tolist() == block.tolist()
    # near the top of binary64, where a sum of squares would overflow
    assert dynamics._seed_block([(1e300, -1e300, 1e-300)], 3).tolist() == [[1e300, -1e300, 1e-300]]


@pytest.mark.parametrize("row", [
    (np.float64(0.7), -0.3, 1.3),
    (1, -0.3, 1.3),
    (Fraction(7, 10), -0.3, 1.3),
    np.array([0.7, -0.3, 1.3]),
    [0.7, -0.3, 1.3],
])
def test_rows_of_other_reals_read_as_before(row):
    assert dynamics._seed_block([row, SEED], 3).tolist() == [[float(v) for v in row], list(SEED)]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_float_in_a_float_block_is_an_invalid_value(bad):
    with pytest.raises(InvalidValue):
        dynamics._seed_block([SEED] * 20 + [(0.1, bad, 0.2)], 3)


def test_energy_drift_reads_a_long_run_of_float_rows():
    e = catalog("e2-motion")
    P = levi_civita(e.algebra, e.metric)
    geo = dynamics.integrate_geodesic(P, SEED, (0.0, 5.0), t_eval=[0.01 * i for i in range(1, 500)])
    assert len(geo.states) >= 499
    assert dynamics.energy_drift(P, geo) < 1e-8
