"""Each reference check rejects a known-bad input and accepts the good one.

    python3 -m pytest bench/test_checks.py
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from quadlie.catalog import catalog  # noqa: E402
from quadlie.connection import levi_civita  # noqa: E402


def e2_product():
    entry = catalog("e2-motion")
    G = [list(row) for row in entry.metric.matrix]
    return entry.algebra.c, G, levi_civita(entry.algebra, entry.metric).gamma


def perturbed(gamma, index, delta):
    g = [[list(row) for row in plane] for plane in gamma]
    i, j, k = index
    g[i][j][k] += delta
    return g


def test_levi_civita_check_accepts_the_product():
    c, G, gamma = e2_product()
    checks.check_levi_civita(c, G, gamma)


@pytest.mark.parametrize("index", [(0, 2, 1), (2, 0, 1), (1, 1, 0), (2, 2, 2)])
def test_levi_civita_check_rejects_one_perturbed_entry(index):
    c, G, gamma = e2_product()
    with pytest.raises(CheckFailed, match="torsion|compatibility"):
        checks.check_levi_civita(c, G, perturbed(gamma, index, Fraction(1, 7)))


def test_flatness_recomputation_rejects_a_curved_product():
    # the half-bracket product of oscillator(1) has R = -1/4 [[x, y], z] != 0
    L = catalog("oscillator(1)").algebra
    half = [[[v / 2 for v in row] for row in plane] for plane in L.c]
    checks.check_flatness(L.c, half, False)
    with pytest.raises(CheckFailed, match="flat verdict True"):
        checks.check_flatness(L.c, half, True)


def test_flatness_recomputation_rejects_a_wrong_residual_or_entry():
    c, _, gamma = e2_product()
    R, den = checks.check_flatness(c, gamma, True, max_residual=0)
    assert all(v == 0 for v in R.flat)
    with pytest.raises(CheckFailed, match="max"):
        checks.check_flatness(c, gamma, True, max_residual=Fraction(1, 3))
    bad = [[[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    bad[0][1][2][0] = Fraction(1)
    with pytest.raises(CheckFailed, match="curvature entry"):
        checks.check_flatness(c, gamma, True, program_r=bad)


def test_oscillator_root_check_rejects_a_spurious_half_period():
    x, lams, window = 1.1, [1.0], (0.0, 15.0)
    roots = checks.oscillator_roots(x, lams, window)
    assert roots == pytest.approx([2 * math.pi / x, 4 * math.pi / x])
    checks.check_roots([t + 1e-8 for t in roots], roots)
    with pytest.raises(CheckFailed):
        checks.check_roots(sorted(roots + [math.pi / x]), roots)
    with pytest.raises(CheckFailed):
        checks.check_roots(roots[:1], roots)
    with pytest.raises(CheckFailed):
        checks.check_roots([roots[0], roots[1] + 1e-4], roots)


def test_oscillator_roots_merge_coinciding_frequencies():
    # with frequencies 1 and 2 every multiple of pi / x is a root, once
    x = 0.9
    roots = checks.oscillator_roots(x, [1.0, 2.0], (0.0, 3.5 * math.pi / x))
    assert roots == pytest.approx([k * math.pi / x for k in (1, 2, 3)])


def test_cli_parse_rejects_non_json_stdout():
    assert checks.parse_report('{"flat": true}\n') == {"flat": True}
    with pytest.raises(CheckFailed, match="not JSON"):
        checks.parse_report("Traceback (most recent call last):\n")
    with pytest.raises(CheckFailed, match="NaN"):
        checks.parse_report('{"energy_drift": NaN}')
    with pytest.raises(CheckFailed, match="exit code"):
        checks.check_exit(1, 0)


def test_closed_forms():
    # e2: x3 fixed, (x1, x2) rotates; dim5: pole at t = -1
    assert checks.e2_state((1.0, 0.0, 1.0), math.pi / 2) == pytest.approx((0.0, -1.0, 1.0))
    assert checks.dim5_state(0.0, 0.0) == (0.0, -2.0, 2.0, -1.0, 1.0)
    assert checks.charpoly([[2, 1], [0, 3]]) == (1, -5, 6)
    with pytest.raises(CheckFailed, match="drifts"):
        checks.check_energy([[1, 0], [0, -1]], [(1.0, 0.0), (1.0, 0.5)])
