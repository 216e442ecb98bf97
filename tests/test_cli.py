"""Command-line interface tests, driven in-process through main(), and
in fresh interpreters where the modules a command imports are tested."""

import hashlib
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


# exit code and sha256 of stdout of each default report, per model in the
# order of _REPORT_COMMANDS, so that no refactor moves a default report by
# a byte.  Exact-mode reports and errors only, so no digest depends on the
# platform's binary64 library.
_REPORT_COMMANDS = ("validate", "analyze", "connection", "curvature", "flat", "build")
_REPORT_DIGESTS = {
    "e2-motion": (
        (0, "128cc1a6e589967c658d36854ccb47fa473df2a06a2bac85eb9f67fed28ee87a"),
        (0, "734788a6345cb8c3460283ab0ca610247612c95288d63afda584a3778eebd894"),
        (0, "4058a09cfe85e271d005ea8c34a1bd43bb1612a7ce719837276c8380004479e1"),
        (0, "300c03de91f7c4c7c1804d6937c1217dccac3e18aa94b8db98471e01978f1e47"),
        (0, "6ebcaf95114bbea3fa0dda456c0d8687cf63c21829a05fe416f89b7382c6dcbc"),
        (0, "e2e2e6941b3bdbcd9968f241af734d4b63d45a9a642b99256eeb4567ee620a61"),
    ),
    "oscillator(1,2)": (
        (0, "b6be50ebc11419bbb3a210989c8f8700909a8c567d15bac5e30444ad92448cbf"),
        (0, "15fb5909030cec39c8e2c0a7f8a83926c7f0fba90bbbe906df2e57ce3cc0dba3"),
        (0, "64aa0d623d2b4b1945e14a8be57ded8644f3e4c3e4334e08e5268dfa6bb3952e"),
        (0, "e23403b61a289adb8285c9151068d56a9436666b37eea60275545d024154a7f7"),
        (2, "74bee8356f7321900dc5e99b83b952138a0ffca56886397b9265bd3fc5d3caca"),
        (0, "fa8a1f20cc6da03bdb28bd94b72515d4f134ea56a6f2bf110c4e941259b63197"),
    ),
    "dim4-b": (
        (0, "3cf4410c5749065dc2286d9c0dad46ad6474bb719392d173dfc44aa84b095908"),
        (0, "a2920c8c8428a08a17ca0445572afc051f55e5275d5b29cbdfa338d6a09fcee3"),
        (1, "ef78f2ea30967bea336e2e77b64086efb1b34124e20c6989e8a5e80a45e3a144"),
        (1, "4bec18f9485c8ae2615a7c901dcdb9cb4cd316371cd35e9c9b588fc741364bb8"),
        (1, "953392e02fac4c675a13865f88432413ef027f5430d32128bc47fc3582b7de6d"),
        (0, "a30c18297d36150b209a546fb64d82cce42c6d307d35ae49347dad5941306174"),
    ),
    "dim5-nilpotent": (
        (0, "afc995dae4976b7df13c0ad049e5f81e68c3897dd2ea7a41e12f7439ae9243f8"),
        (0, "2a2f5e61dc37356e8ac472ec288c80de036bc0c1fa028575a4d801018eed5c43"),
        (0, "fac2ce1e9a19880d79a1da0ad63d0e3270d4cd1a5213cabc69c91e6d53e13796"),
        (0, "4631ca78acf6a76ddb1f75f13fbb0de5f81134a9338160e7d11ed21c20fbcb7e"),
        (2, "08fdad5a4c0e5dc81811dcb56554806e0a8f807e09fa667828ba110a650f26d2"),
        (0, "e4fb3808abae2b5c168010c485f33ff550a75600deb95f8faf0e723a370f182d"),
    ),
    "two-step-volume": (
        (0, "267650a4e96990ca9582d2b86e3a5f14a3a3970422f36c9b3b8b8b489efd6748"),
        (0, "d1b5a7f25d16b0c235b679e226b20b53554e298fbef32c1f749eaff7c9b71198"),
        (0, "f44d0ae2e1cf4e6c571158e6f98a8ced1d8e7491d0a785828633c4d213eedb12"),
        (0, "5eb3ff89f44eb86252ba26c358baf5ca734d8303c32c0d17287ebcdc5159d8a1"),
        (0, "f412af2e5ca2b0d616cf41ad7424c63d5713a44937a3f3856bbcdbb181d8be90"),
        (0, "b2ddc5a5c9daee53afa4c69746a89a940958e02684729922ab7fdc2027872291"),
    ),
    "a-d(2)": (
        (0, "efe8be52b2e5fc33a5d09b2cc3ebcc015d13a96f5e1bdb6a178b877a1866cef8"),
        (0, "19ffc1030bd37c4e01d9ed97aff021f372e34658631b20ab5640fd9ef1fe343b"),
        (1, "81587c60ee1b2d68c4eec16d6c8664df45662282c83dd1b5bae141cf1ba6ca14"),
        (1, "011765e8574972c48765851047fa8a598f7d81fdd468f66e720a19172fcb4619"),
        (1, "e61e4ea2eaa51d6a16cc3d9246032194d5420e83b7f3f0fd48c512ec5df04dd1"),
        (0, "5a685796f970eb274b3f0c733eabec219c4d90214f2710d386d60e97a6c43b73"),
    ),
    "a-d-double(1)": (
        (0, "d72b4e42ffaf0f6ed3aefeb0ee7d547b549ac342d951f56026372be3f900e3c9"),
        (0, "9f1a6d1fece2a147abb1bb2402cc06642a65dc38d129ea96e1cb0da8b13a9d42"),
        (0, "5a88a69e916af3be3345ffb77a78513dcf7333e7cab79c295074354f3f95e167"),
        (0, "a5629f3b45d601bc04b20d45aaa9281703f4dc0261fc72adf05b544a32105515"),
        (0, "8439c24b397aa33be18c2be6df5d4d36667cb5e519f192423fc57fd7141e383b"),
        (0, "5fedf8f4bb2d94bd43bc04a2cb7e8c36a1f1afefc4b135bd28a9f426b2aebccb"),
    ),
}
_CATALOG_DIGEST = (0, "251b88466f4b778d8f6b734bd34ad07359c045a34f699f25c37e4afa1f0e2ee8")


_DIGESTED = [
    *(((cmd, "--catalog", model), pair)
      for model, pairs in _REPORT_DIGESTS.items()
      for cmd, pair in zip(_REPORT_COMMANDS, pairs, strict=True)),
    (("catalog",), _CATALOG_DIGEST),
]


@pytest.mark.parametrize("argv, expected", _DIGESTED, ids=[" ".join(argv) for argv, _ in _DIGESTED])
def test_default_reports_stay_byte_for_byte(argv, expected):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert (code, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == expected


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
