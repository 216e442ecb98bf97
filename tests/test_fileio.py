"""File I/O tests: algebra documents, construct blocks, artifacts."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadlie import fileio
from quadlie.catalog import catalog
from quadlie.connection import flatness_report, levi_civita
from quadlie.constructions import (
    TwoStepSpec,
    build_double_extension,
    build_oscillator,
    build_two_step,
    two_step_metric,
)
from quadlie.dynamics import integrate_geodesic
from quadlie.errors import JacobiViolation, ParseError, RankDeficientTheta, Singular
from quadlie.forms import metric_from_iso

E2_DOC = {
    "dim": 3,
    "basis": ["e1", "e2", "e3"],
    "brackets": [
        {"i": "e3", "j": "e1", "terms": [{"k": "e2", "coef": "1"}]},
        {"i": "e3", "j": "e2", "terms": [{"k": "e1", "coef": "-1"}]},
    ],
    "form": [["1"], ["0", "1"], ["0", "0", "-1"]],
}


def test_explicit_document_matches_catalog(tmp_path):
    p = tmp_path / "e2.json"
    p.write_text(json.dumps(E2_DOC))
    L, g, iso = fileio.parse_algebra_file(p)
    assert L.exact and L.dim == 3 and iso is None
    cat = catalog("e2-motion")
    assert L.c == cat.algebra.c
    assert g.matrix == cat.metric.matrix
    rep = flatness_report(L, g)
    assert rep.flat and rep.torsion_ok and rep.left_symmetric


def test_round_trip_preserves_structure(tmp_path):
    p = tmp_path / "e2.json"
    p.write_text(json.dumps(E2_DOC))
    L, g, _ = fileio.parse_algebra_file(p)
    doc2 = fileio.serialize_algebra(L, form=g)
    p2 = tmp_path / "rt.json"
    p2.write_text(json.dumps(doc2))
    L2, g2, _ = fileio.parse_algebra_file(p2)
    assert L2.c == L.c and L2.labels == L.labels and g2.matrix == g.matrix
    # coefficients re-emitted as strings, never floats
    assert all(
        isinstance(t["coef"], str) for b in doc2["brackets"] for t in b["terms"]
    )


def test_construct_oscillator(tmp_path):
    p = tmp_path / "osc.json"
    p.write_text(json.dumps({"construct": "oscillator", "lambda": ["1"]}))
    Lo, ko, iso_o = fileio.parse_algebra_file(p)
    Lb, kb = build_oscillator((1,))
    assert Lo.c == Lb.c and ko.matrix == kb.matrix and iso_o is None
    assert Lo.dim == 4


def test_construct_two_step_with_phi(tmp_path):
    p = tmp_path / "ts.json"
    p.write_text(
        json.dumps(
            {
                "construct": "two-step",
                "dimv": 3,
                "theta": "volume",
                "phi": [["1", "0", "0"], ["1", "2", "0"], ["0", "0", "3"]],
            }
        )
    )
    Lt, kt, ut = fileio.parse_algebra_file(p)
    assert Lt.dim == 6 and ut is not None
    _, gt = metric_from_iso(kt, ut)
    rept = flatness_report(Lt, gt)
    assert rept.flat and rept.left_symmetric


def test_parse_error_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,\n  "brackets": [}')
    with pytest.raises(ParseError, match="line 2"):
        fileio.parse_algebra_file(bad)


def test_duplicate_bracket_pair_rejected(tmp_path):
    dup = dict(E2_DOC)
    dup["brackets"] = E2_DOC["brackets"] + [
        {"i": "e1", "j": "e3", "terms": [{"k": "e2", "coef": "5"}]}
    ]
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(dup))
    with pytest.raises(ParseError, match="duplicate"):
        fileio.parse_algebra_file(p)


def test_jacobi_failure_rejected(tmp_path):
    jac = {
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "coef": "1"}]},
            {"i": 0, "j": 2, "terms": [{"k": 0, "coef": "1"}]},
        ],
    }
    p = tmp_path / "jac.json"
    p.write_text(json.dumps(jac))
    with pytest.raises(JacobiViolation):
        fileio.parse_algebra_file(p)


def test_float_coefficient_flips_mode(tmp_path):
    fl = {
        "dim": 2,
        "brackets": [{"i": 0, "j": 1, "terms": [{"k": 0, "coef": 0.5}]}],
        "form": [["1"], ["0", "1"]],
    }
    p = tmp_path / "float.json"
    p.write_text(json.dumps(fl))
    Lf, gf, _ = fileio.parse_algebra_file(p)
    assert not Lf.exact and not gf.exact
    assert isinstance(Lf.c[0][1][0], float) and isinstance(gf.matrix[0][0], float)


def test_bare_dim_is_exact_abelian(tmp_path):
    p = tmp_path / "ab.json"
    p.write_text(json.dumps({"dim": 2}))
    La, ga, _ = fileio.parse_algebra_file(p)
    assert La.exact
    assert all(v == 0 for plane in La.c for row in plane for v in row)
    assert ga is None


def test_trajectory_csv(tmp_path):
    cat = catalog("e2-motion")
    P = levi_civita(cat.algebra, cat.metric)
    traj = integrate_geodesic(P, (1.0, 0.0, 1.0), (0.0, 1.0))
    pc = tmp_path / "traj.csv"
    fileio.write_trajectory_csv(pc, traj)
    lines = pc.read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2"
    assert len(lines) == len(traj.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == traj.times[0]


def test_write_json_scalar_encoding(tmp_path):
    payload = {
        "alpha": Fraction(1, 3),
        "beta": 2.0,
        "n": 4,
        "flag": True,
        "seq": (Fraction(1), 0.25),
    }
    p = tmp_path / "r.json"
    fileio.write_json(p, payload)
    back = json.loads(p.read_text())
    assert back == {
        "alpha": "1/3",
        "beta": 2.0,
        "n": 4,
        "flag": True,
        "seq": ["1", 0.25],
    }
    assert fileio.sha256_file(p) == fileio.sha256_file(p)


def _e2_trajectory():
    cat = catalog("e2-motion")
    return integrate_geodesic(levi_civita(cat.algebra, cat.metric), (1.0, 0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("write", [
    lambda path: fileio.write_json(path, {"n": 1}),
    lambda path: fileio.write_trajectory_csv(path, _e2_trajectory()),
    lambda path: fileio.write_text(path, "x\n"),
    lambda path: fileio.write_algebra_file(path, catalog("e2-motion").algebra),
])
@pytest.mark.parametrize("path", ["/dev/null/x", 5])
def test_every_writer_turns_an_unwritable_path_into_a_parse_error(write, path):
    with pytest.raises(ParseError):
        write(path)


settings.register_profile(
    "quadlie-fileio",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
small = st.integers(-3, 3)


@st.composite
def double_extension_docs(draw):
    w = draw(st.integers(2, 4))
    k0 = [[Fraction(draw(st.sampled_from((1, -1))) if i == j else 0) for j in range(w)]
          for i in range(w)]
    skew = [[Fraction(0)] * w for _ in range(w)]
    for i in range(w):
        for j in range(i + 1, w):
            v = Fraction(draw(small), draw(st.integers(1, 3)))
            skew[i][j], skew[j][i] = v, -v
    # k0 is its own inverse, so theta = k0 skew is k0-skew
    theta = [[sum(k0[i][m] * skew[m][j] for m in range(w)) for j in range(w)]
             for i in range(w)]
    L, k = build_double_extension(w, k0, theta)
    return L, k, None


@st.composite
def two_step_docs(draw):
    m = draw(st.sampled_from((3, 5)))
    theta = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                v = Fraction(draw(small), draw(st.integers(1, 2)))
                for (a, b, c), s in (
                    ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
                    ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
                ):
                    theta[a][b][c] = s * v
    try:
        L, k = build_two_step(TwoStepSpec(m, theta))
    except RankDeficientTheta:
        assume(False)
    if not draw(st.booleans()):
        return L, k, None
    phi = [[Fraction(draw(small), draw(st.integers(1, 2))) for _ in range(m)]
           for _ in range(m)]
    try:
        iso, metric, _ = two_step_metric(TwoStepSpec(m, theta, phi))
    except Singular:
        assume(False)
    return L, metric, iso


@settings(settings.get_profile("quadlie-fileio"), max_examples=40)
@given(st.one_of(double_extension_docs(), two_step_docs()), st.booleans())
def test_serialize_parse_serialize_is_byte_identical(built, binary64):
    L, form, iso = built
    if binary64:
        L, form = L.to_float(), form.to_float()
        iso = iso.to_float() if iso is not None else None
    text = json.dumps(fileio.serialize_algebra(L, form=form, iso=iso), indent=2)
    L2, form2, iso2 = fileio.parse_algebra_doc(json.loads(text))
    again = json.dumps(fileio.serialize_algebra(L2, form=form2, iso=iso2), indent=2)
    assert again == text
    assert L2.exact == (not binary64)
