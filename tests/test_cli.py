"""Command-line interface tests, driven in-process through main(), and
in fresh interpreters where the modules a command imports are tested."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quadlie import fileio
from quadlie.catalog import catalog
from quadlie.cli import main
from quadlie.connection import flatness_report
from quadlie.constructions import TwoStepSpec, build_two_step, two_step_metric


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


@pytest.fixture()
def e2_file(tmp_path):
    e2 = catalog("e2-motion")
    p = tmp_path / "e2.json"
    fileio.write_algebra_file(p, e2.algebra, form=e2.metric)
    return p


def test_catalog_listing():
    code, rep = run("catalog")
    assert code == 0 and len(rep["models"]) == 7
    assert rep["command"] == ["quadlie", "catalog"]


def test_flat_certificate_from_file(e2_file):
    code, rep = run("flat", "--input", str(e2_file))
    assert code == 0
    assert rep["verdicts"]["flat"]["value"] is True
    assert rep["verdicts"]["flat"]["mode"] == "exact"
    assert rep["input"]["sha256"] == fileio.sha256_file(e2_file)


def test_flat_negative_exit_code():
    code, rep = run("flat", "--catalog", "dim5-nilpotent")
    assert code == 2 and rep["verdicts"]["flat"]["value"] is False


def test_validate_and_analyze(e2_file):
    code, rep = run("validate", "--input", str(e2_file))
    assert code == 0 and rep["dim"] == 3 and rep["mode"] == "exact"

    code, rep = run("analyze", "--catalog", "dim5-nilpotent")
    assert code == 0
    assert rep["structure"]["nilpotency_class"] == 3
    assert rep["structure"]["unimodular"] is True
    assert rep["verdicts"]["ad_invariant"]["value"] is True


def test_geodesic_with_csv_artifact(tmp_path):
    outdir = tmp_path / "artifacts"
    code, rep = run(
        "geodesic", "--catalog", "e2-motion", "--x", "e1:1,e3:1",
        "--span", "0:10", "--out", str(outdir), "--format", "csv",
    )
    assert code == 0 and rep["status"]["kind"] == "completed"
    assert rep["residuals"]["energy_drift"] <= 1e-7
    lines = Path(rep["artifacts"][0]).read_text().splitlines()
    assert lines[0] == "t,x0,x1,x2" and len(lines) == rep["steps"] + 2


def test_probe_finds_backward_pole():
    code, rep = run(
        "probe", "--catalog", "dim5-nilpotent", "--seed", "default",
        "--span", "-1.5:5",
    )
    assert code == 0
    back = rep["results"][0]["backward"]
    assert back["kind"] in ("blowup", "step-collapse")
    assert abs(back["t"] - (-1.0)) <= 1e-3
    assert rep["verdicts"]["complete_on_span"]["value"] is False

    code, rep = run(
        "probe", "--catalog", "dim5-nilpotent", "--seed", "default",
        "--span", "-0.5:5",
    )
    assert code == 0 and rep["verdicts"]["complete_on_span"]["value"] is True


def test_conjugate_scan_oscillator():
    code, rep = run(
        "conjugate", "--catalog", "oscillator", "--lambda", "1",
        "--x", "-1:1", "--window", "0:10",
    )
    assert code == 0
    roots = [r["t"] for r in rep["roots"]]
    assert len(roots) == 1 and abs(roots[0] - 6.283185307179586) < 1e-4
    cand = rep["candidates"]
    assert cand["halved_period_discrepancy"] is True
    assert all(h["matched_root"] is None for h in cand["halved_period"])
    assert all(h["matched_root"] is not None for h in cand["full_period"])


def test_conjugate_scan_flat_model_empty(e2_file):
    code, rep = run(
        "conjugate", "--catalog", "e2-motion", "--x", "e1:1,e3:1",
        "--window", "0:50",
    )
    assert code == 0 and rep["roots"] == []
    assert rep["verdicts"]["conjugate_free"]["value"]


def test_jacobi_command():
    code, rep = run(
        "jacobi", "--catalog", "oscillator", "--lambda", "1",
        "--x", "-1:1", "--ydot", "e1:1", "--span", "0:5",
    )
    assert code == 0 and rep["status"]["kind"] == "completed"


def test_curvature_and_connection_tensors(e2_file):
    code, rep = run("curvature", "--input", str(e2_file))
    assert code == 0 and rep["verdicts"]["zero_curvature"]["value"] is True
    assert "r" in rep

    code, rep = run("connection", "--catalog", "two-step-volume")
    assert code == 0 and rep["verdicts"]["torsion_ok"]["value"] is True
    assert "gamma" in rep


def test_build_round_trips_through_parser(tmp_path):
    outdir = tmp_path / "artifacts"
    code, rep = run(
        "build", "--catalog", "oscillator", "--lambda", "1,2", "--out", str(outdir)
    )
    assert code == 0
    built = Path(rep["artifacts"][0])
    L2, k2, _ = fileio.parse_algebra_file(built)
    osc = catalog("oscillator(1,2)")
    assert L2.c == osc.algebra.c and k2.matrix == osc.quad_form.matrix


def test_family_sweep_deterministic(tmp_path):
    outdir = tmp_path / "artifacts"
    args = (
        "family-sweep", "--dimv", "3", "--trials", "4", "--rng-seed", "7",
        "--out", str(outdir), "--format", "csv",
    )
    code, rep = run(*args)
    assert code == 0
    assert rep["verdicts"]["all_flat"]["value"] is True
    assert len(rep["table"]) == 4
    sweep_csv = Path(rep["artifacts"][0]).read_text().splitlines()
    assert sweep_csv[0].startswith("sample,flat,positive")
    assert len(sweep_csv) == 5

    code2, rep2 = run(*args)
    assert code2 == 0 and rep == rep2


def test_error_mapping(tmp_path):
    code, rep = run("flat", "--catalog", "no-such-model")
    assert code == 1 and rep["error"]["type"] == "UnknownName"

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, rep = run("validate", "--input", str(bad))
    assert code == 1 and rep["error"]["type"] == "ParseError"

    # dim4-b carries no featured metric, so `flat` cannot run on it
    code, rep = run("flat", "--catalog", "dim4-b")
    assert code == 1

    code, _ = run("nonsense")
    assert code == 1


def _sweep_file(tmp_path, samples):
    p = tmp_path / "phis.json"
    p.write_text(json.dumps(samples))
    return run("family-sweep", "--dimv", "3", "--input", str(p))


@pytest.mark.parametrize("entry", ["1/0", "abc", {}, None, True])
def test_family_sweep_reads_phi_entries_by_the_document_rules(tmp_path, entry):
    code, rep = _sweep_file(tmp_path, [[[entry, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert code == 1 and rep["error"]["type"] == "ParseError"
    assert "sample 0[0][0]" in rep["error"]["message"]


def test_family_sweep_reads_a_sample_with_one_float_in_binary64(tmp_path):
    code, rep = _sweep_file(
        tmp_path, [[[1.5, 0, 0], [0, 1, 0], [0, 0, 1]], [["3/2", 0, 0], [0, 1, 0], [0, 0, 1]]]
    )
    assert code == 0 and rep["mode"] == "binary64"
    assert rep["table"][0]["phi"] == [[1.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert rep["table"][1]["phi"] == [["3/2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert rep["table"][0]["char_poly"] == rep["table"][1]["char_poly"]


def test_an_empty_sample_file_is_a_parse_error(tmp_path):
    # a sweep of no samples would certify all_flat on an empty table
    code, rep = _sweep_file(tmp_path, [])
    assert code == 1 and rep["error"]["type"] == "ParseError"


@pytest.mark.parametrize("flag", ["--catalog", "--lambda"])
def test_family_sweep_takes_no_model_flags(flag):
    code, rep = run("family-sweep", "--trials", "1", flag, "1")
    assert code == 1 and rep is None


_WRITERS = [
    ("connection", "--catalog", "e2-motion"),
    ("curvature", "--catalog", "e2-motion"),
    ("geodesic", "--catalog", "e2-motion", "--span", "0:1"),
    ("geodesic", "--catalog", "e2-motion", "--span", "0:1", "--format", "csv"),
    ("jacobi", "--catalog", "e2-motion", "--ydot", "e1:1", "--span", "0:1"),
    ("build", "--catalog", "e2-motion"),
    ("family-sweep", "--trials", "1"),
    ("family-sweep", "--trials", "1", "--format", "csv"),
]


@pytest.mark.parametrize("argv", _WRITERS)
def test_an_out_directory_that_cannot_be_made_is_a_parse_error(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*argv, "--out", "/dev/null/x"])
    rep = json.loads(buf.getvalue())
    assert code == 1 and rep["error"]["type"] == "ParseError"
    assert list(rep) == ["command", "error"]


_FORMATTED = [
    ("geodesic", "--catalog", "e2-motion", "--x", "e1:1", "--span", "0:1"),
    ("jacobi", "--catalog", "e2-motion", "--ydot", "e1:1", "--span", "0:1"),
    ("family-sweep", "--trials", "1"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _FORMATTED)
def test_format_without_out_is_a_parse_error(argv, fmt):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*argv, "--format", fmt])
    rep = json.loads(buf.getvalue())
    assert code == 1 and rep["error"]["type"] == "ParseError"
    assert list(rep) == ["command", "error"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _FORMATTED)
def test_format_with_out_writes_its_artifact(argv, fmt, tmp_path):
    code, rep = run(*argv, "--format", fmt, "--out", str(tmp_path))
    assert code == 0
    [path] = rep["artifacts"]
    assert path.endswith(f".{fmt}") and Path(path).read_text()


# --tol is the integrator tolerance, --out the artifact directory: no
# other command takes them
_REMOVED = [
    *((cmd, "--tol") for cmd in (
        "validate", "analyze", "connection", "curvature", "flat", "build", "catalog",
        "family-sweep",
    )),
    *((cmd, "--out") for cmd in ("validate", "analyze", "flat", "conjugate", "probe", "catalog")),
]


@pytest.mark.parametrize("cmd, flag", _REMOVED)
def test_commands_take_only_the_flags_they_read(cmd, flag):
    model = () if cmd in ("catalog", "family-sweep") else ("--catalog", "e2-motion")
    window = ("--window", "0:1") if cmd == "conjugate" else ()
    code, rep = run(cmd, *model, *window, flag, "1")
    assert code == 1 and rep is None


# the e2-motion table in binary64 with a form 1e-9 off the flat one
_NEAR_FLAT = {
    "dim": 3,
    "brackets": [
        {"i": 0, "j": 2, "terms": [{"k": 1, "coef": -1.0}]},
        {"i": 1, "j": 2, "terms": [{"k": 0, "coef": 1.0}]},
    ],
    "form": [[1.0], [0.0, 1.000000001], [0.0, 0.0, -1.0]],
}


def test_flat_and_curvature_judge_a_binary64_document_alike(tmp_path):
    p = tmp_path / "near.json"
    p.write_text(json.dumps(_NEAR_FLAT))
    _, flat = run("flat", "--input", str(p))
    _, curv = run("curvature", "--input", str(p))
    verdict = flat["verdicts"]["flat"]
    assert verdict["mode"] == "binary64" and 0 < curv["residuals"]["max_abs_curvature"]
    assert curv["verdicts"]["zero_curvature"] == verdict


def test_family_sweep_reports_the_tolerance_its_samples_took(tmp_path):
    phi = [[1.5, 0, 0], [0, 1, 0], [0, 0, 1]]
    code, rep = _sweep_file(tmp_path, [phi])
    L, _ = build_two_step(TwoStepSpec(3, "volume"))
    _, metric, _ = two_step_metric(TwoStepSpec(3, "volume", fileio.parse_matrix(phi, 3, "phi")))
    tol = flatness_report(L, metric).tolerance
    assert code == 0 and tol > 1e-9
    assert rep["verdicts"]["all_flat"] == {"value": True, "mode": "binary64", "tolerance": tol}


def fresh(code, *argv):
    """stdout of a fresh interpreter that runs code on this quadlie."""
    src = str(Path(fileio.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_reader_that_closed_stdout_ends_the_command_quietly():
    # the reader goes before the child writes its report: exit 1, and no
    # traceback, neither from the write nor from the flush at exit
    src = str(Path(fileio.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "quadlie.cli", "catalog"],
                            env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


_QUIET = """
import contextlib, io, sys
from quadlie.cli import main
def quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))
"""


def test_a_bare_import_loads_neither_the_integrator_nor_the_file_format():
    out = fresh("import sys, quadlie; print([m for m in sys.modules if m in "
                "('quadlie.dynamics', 'quadlie.fileio')])")
    assert out == "[]\n"


def test_commands_that_integrate_nothing_never_import_dynamics():
    out = fresh(_QUIET + """
codes = [quiet("flat", "--catalog", "e2-motion"), quiet("catalog"),
         quiet("analyze", "--catalog", "dim5-nilpotent"), quiet("validate", "--catalog", "dim4-b"),
         quiet("connection", "--catalog", "e2-motion"), quiet("curvature", "--catalog", "e2-motion"),
         quiet("build", "--catalog", "oscillator(1)"), quiet("family-sweep", "--trials", "1")]
print(codes, "quadlie.dynamics" in sys.modules)
""")
    assert out == "[0, 0, 0, 0, 0, 0, 0, 0] False\n"


@pytest.mark.parametrize("argv", [
    ("geodesic", "--span=0:1"),
    ("jacobi", "--span=0:1", "--y", "e1:1"),
    ("conjugate", "--window=0:2", "--grid", "8"),
    ("probe", "--span=-1:1"),
])
def test_a_command_that_integrates_imports_dynamics(argv):
    cmd, *flags = argv
    out = fresh(_QUIET + f"""
before = "quadlie.dynamics" in sys.modules
code = quiet({cmd!r}, "--catalog", "e2-motion", *{flags!r})
print(before, code, "quadlie.dynamics" in sys.modules)
""")
    assert out == "False 0 True\n"


# `import quadlie` defers dynamics and fileio until one of their names is
# first read; every public name must still resolve to its defining
# module's object, whichever of the package's modules a process imported
# first
_CHECK = """
import sys
import quadlie


def check():
    # before the loop below binds every name in the package
    assert set(quadlie.__all__) <= set(dir(quadlie))
    for name in quadlie.__all__:
        obj = getattr(quadlie, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("quadlie.") and getattr(home, name) is obj, name
        scope = {}
        exec(f"from quadlie import {name}", scope)
        assert scope[name] is obj, name
    assert callable(quadlie.catalog)
    from quadlie import dynamics, fileio
    assert quadlie.dynamics is dynamics is sys.modules["quadlie.dynamics"]
    assert quadlie.fileio is fileio is sys.modules["quadlie.fileio"]
    assert quadlie.integrate_geodesic is dynamics.integrate_geodesic
    assert quadlie.parse_algebra_file is fileio.parse_algebra_file
    try:
        quadlie.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError("quadlie.no_such_name resolved")
    try:
        from quadlie import no_such_name
    except ImportError:
        pass
    else:
        raise AssertionError("from quadlie import no_such_name resolved")


for step in sys.argv[1:]:
    check() if step == "check" else exec(step)
print("ok")
"""

_ORDERS = [
    ("check", "import quadlie.cli", "import quadlie.catalog", "check"),
    ("import quadlie.cli", "import quadlie.catalog", "check"),
    ("import quadlie.catalog", "import quadlie.cli", "check"),
    ("import quadlie.dynamics", "import quadlie.fileio", "check"),
    ("from quadlie import *", "check"),
]


@pytest.mark.parametrize("steps", _ORDERS, ids=" / ".join)
def test_every_public_name_resolves_to_its_defining_modules_object(steps):
    assert fresh(_CHECK, *steps) == "ok\n"
