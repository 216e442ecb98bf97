"""The record contract: every result, spec and tensor class behaves as the
frozen dataclass it replaced.  One instance of each record class, built
from catalog models and short runs, keeps its repr (pinned by sha256 in
exact mode), equality, hash, field order, immutability and asdict."""

import builtins
import dataclasses
import hashlib
import importlib
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quadlie as q
from quadlie import cli, dynamics, scalars
from quadlie.forms import SymmetricIso


def _exact_records():
    e2, osc, d5 = q.catalog("e2-motion"), q.catalog("oscillator(1)"), q.catalog("dim5-nilpotent")
    P = q.levi_civita(e2.algebra, e2.metric)
    spec = q.TwoStepSpec(3, "volume", ((1, 0, 0), (0, 2, 0), (0, 0, 3)))
    fspec, _, _ = q.build_f_derivation(d5.algebra, d5.quad_form)
    return {
        "ScaledArray": P.array,
        "LieAlgebra": e2.algebra,
        "StructureReport": q.structure_report(d5.algebra),
        "SymBilinearForm": e2.metric,
        "SymmetricIso": q.iso_from_metric(osc.quad_form, osc.metric),
        "Signature": q.signature(e2.metric),
        "AdInvarianceReport": q.check_ad_invariance(osc.algebra, osc.quad_form),
        "ProductTensor": P,
        "CurvatureTensor": q.curvature(q.levi_civita(d5.algebra, d5.metric)),
        "FlatnessReport": q.flatness_report(e2.algebra, e2.metric),
        "OscillatorSpec": q.OscillatorSpec((1, Fraction(1, 2))),
        "TwoStepSpec": spec,
        "FDerivationSpec": fspec,
        "SimilarityInvariants": q.similarity_invariants(spec.phi),
        "CatalogEntry": e2,
    }


def _run_records():
    e2, osc = q.catalog("e2-motion"), q.catalog("oscillator(1)")
    P, Posc = q.levi_civita(e2.algebra, e2.metric), q.levi_civita(osc.algebra, osc.metric)
    geo = dynamics.integrate_geodesic(P, (1.0, 0.0, 1.0), (0.0, 1.0))
    probe = dynamics.completeness_probe(P, [(1.0, 0.0, 1.0)], t_max=1.0)
    scan = dynamics.conjugate_scan(Posc, (1.0, 0.5, 0.3, -0.4), (0.0, 7.0), grid=64)
    two = q.catalog("two-step-volume")
    iso, _, _ = two.oracles["metric_family"](((1, 2, 0), (0, 1, 0), (3, 0, 1)))
    model = cli._Model(e2.algebra, e2.metric, None, None, e2, {"catalog": "e2-motion"})
    return {
        "TerminationStatus": geo.status,
        "Trajectory": geo,
        "JacobiTrajectory": dynamics.integrate_jacobi(P, (1.0, 0.0, 1.0), (0.0,) * 3,
                                                      (0.0, 1.0, 0.0), (0.0, 1.0)),
        "ProbeResult": probe.results[0],
        "ProbeReport": probe,
        "ConjugateRoot": scan.roots[0],
        "ConjugateReport": scan,
        "PolynomialCertificate": dynamics.polynomial_geodesic_check(two.algebra, iso, trials=1),
        "_Model": model,
    }


EXACT = _exact_records()
RECORDS = {**EXACT, **_run_records()}

# sha256 of repr, memory addresses masked (a catalog entry holds functions)
REPR_SHA256 = {
    "ScaledArray": "2621c46f57451d89dfd01a16ae8b4291795672baa542426994acaade04e7e40f",
    "LieAlgebra": "22af5dc37bd6c005265b58864d6dcee2b0d2910157fddbaca2d16452b0e210fd",
    "StructureReport": "0072ab5a31af08220eac54dc1801b9d2fa999e47456ffcf62ec33b1585f44418",
    "SymBilinearForm": "26c3a03788d88587be63fce0b088049b839baeded86027b0e51d96012befbd76",
    "SymmetricIso": "f48ab3a1fda6cd86f06632a9ecc3287a4003d092e3b1bde7657469abc481bb62",
    "Signature": "963a61423d5eee1ee27c3537e0072c7bb8f8690342204625de21dc14f45aeae0",
    "AdInvarianceReport": "7a9127cc2e19480599765f777d83c158aa69e620b0a451bc4f84f51aa84269f5",
    "ProductTensor": "2defae1303d876c0d4ab5040353a55dbadbb3b0dfb5b654dd2dc068ea64aa6fc",
    "CurvatureTensor": "1fcdd610e32c87de5ec503c30cb946a44b3fac201f0675dd8d69daedc7a82b8f",
    "FlatnessReport": "2d8c49678d22bbd641866399f43312d7e45871761203c14788caaa6e775986c6",
    "OscillatorSpec": "c59ce302e53cab7d76436da21ef7164081d88ec9294d8957bd9b7cb2f491a8fc",
    "TwoStepSpec": "5feffa6617d774a7f00343120a58fdf1e716f8780a7bf702bc440d475228c04e",
    "FDerivationSpec": "a463c11d578d8b3d99b98b0fb53fa9b1d2859ed8e72020c237a6c5078a32eaac",
    "SimilarityInvariants": "17186d32aac78d64cc6ead626db7380de874ab7864bea51647582ed70b7c7fc1",
    "CatalogEntry": "d976b902abea29ccd3e63fbd083e802630b7a1a36787ff45f0f12fbf20cb18e5",
}

FIELDS = {
    "ScaledArray": ("num", "den"),
    "LieAlgebra": ("array", "labels"),
    "StructureReport": ("center", "derived", "lower_central", "nilpotency_class", "solvable",
                        "unimodular", "abelian"),
    "SymBilinearForm": ("array",),
    "SymmetricIso": ("array",),
    "Signature": ("positive", "negative", "zero"),
    "AdInvarianceReport": ("invariant", "max_residual"),
    "ProductTensor": ("algebra", "array", "metric"),
    "CurvatureTensor": ("array",),
    "FlatnessReport": ("flat", "max_residual", "torsion_ok", "skew_ok", "left_symmetric", "mode",
                       "tolerance"),
    "OscillatorSpec": ("lams",),
    "TwoStepSpec": ("dim_v", "theta", "phi"),
    "FDerivationSpec": ("grading", "d_matrix", "f_matrix", "d_diagonal", "f_diagonal"),
    "SimilarityInvariants": ("char_poly", "invariant_factor_degrees"),
    "CatalogEntry": ("name", "algebra", "quad_form", "metric", "iso", "seeds", "oracles",
                     "metadata"),
    "TerminationStatus": ("kind", "t"),
    "Trajectory": ("times", "states", "status"),
    "JacobiTrajectory": ("times", "states", "status", "base_states", "derivative_states"),
    "ProbeResult": ("seed", "forward", "backward"),
    "ProbeReport": ("results", "span", "tol"),
    "ConjugateRoot": ("t", "kernel", "det_value", "via"),
    "ConjugateReport": ("roots", "window", "grid", "det_scale", "samples", "primary_matches",
                        "alternate_matches"),
    "PolynomialCertificate": ("nilpotency_class", "degree_bound", "derivative_spans_in_series",
                              "taylor_order", "taylor_max", "certified"),
    "_Model": ("L", "metric", "kform", "iso", "entry", "source"),
}

MODULES = ("algebra", "catalog", "cli", "connection", "constructions", "dynamics", "errors",
           "fileio", "forms", "linalg", "scalars")


def _copy(rec):
    """rec rebuilt through dataclasses.replace; an operator through its own
    constructor, which takes (dim, matrix)."""
    if isinstance(rec, SymmetricIso):
        return SymmetricIso(rec.dim, rec.array)
    return dataclasses.replace(rec)


def _hash(rec):
    try:
        return hash(rec)
    except TypeError as e:  # a field holds a dict
        return str(e)


def _rebuilt(like, data):
    """The value asdict turned into data, rebuilt by the types like holds."""
    if isinstance(like, SymmetricIso):
        return SymmetricIso(like.dim, _rebuilt(like.array, data["array"]))
    if dataclasses.is_dataclass(like):
        return type(like)(**{f.name: _rebuilt(getattr(like, f.name), data[f.name])
                             for f in dataclasses.fields(like)})
    if isinstance(like, (tuple, list)):
        return type(like)(_rebuilt(a, b) for a, b in zip(like, data))
    if isinstance(like, dict):
        return {k: _rebuilt(v, data[k]) for k, v in like.items()}
    return data


def test_every_record_class_is_covered():
    modules = [importlib.import_module(f"quadlie.{m}") for m in MODULES]
    classes = {c.__name__ for m in modules for c in vars(m).values()
               if isinstance(c, type) and c.__module__ == m.__name__ and dataclasses.is_dataclass(c)}
    assert classes == set(RECORDS) == set(FIELDS)
    for name, rec in RECORDS.items():
        assert type(rec).__name__ == name


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_reprs_stay_byte_for_byte(name):
    text = re.sub(r" at 0x[0-9a-f]+", "", repr(EXACT[name]))
    assert text.startswith(f"{type(EXACT[name]).__qualname__}(")
    assert hashlib.sha256(text.encode()).hexdigest() == REPR_SHA256[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash_agree_with_a_rebuilt_copy(name):
    rec = RECORDS[name]
    copy = _copy(rec)
    assert copy is not rec and copy == rec and not copy != rec
    assert _hash(copy) == _hash(rec)
    if name != "ScaledArray":  # its own __hash__, over its values
        assert _hash(rec) == _hash(tuple(getattr(rec, f.name) for f in dataclasses.fields(rec)))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_of_two_classes_never_compare_equal(name):
    rec = RECORDS[name]
    for other_name, other in RECORDS.items():
        if other_name != name:
            assert rec != other and not rec == other
    if name != "ScaledArray":  # its own __eq__, which answers False
        assert rec.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_records_refuse_assignment_and_deletion(name):
    rec = RECORDS[name]
    for attr in (FIELDS[name][0], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, attr, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, attr)
    assert _copy(rec) == rec


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_the_annotations_of_the_class_and_its_record_bases(name):
    cls = type(RECORDS[name])
    declared = {}
    for base in reversed(cls.__mro__):
        if dataclasses.is_dataclass(base):
            declared.update(inspect.get_annotations(base))
    fields = dataclasses.fields(cls)
    assert tuple(declared) == tuple(f.name for f in fields) == FIELDS[name]
    assert [f.type for f in fields] == list(declared.values())


def test_record_generates_no_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("code was generated")

    # undone before pytest reports a failure, which compiles
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "exec", refuse)
        patch.setattr(builtins, "compile", refuse)

        @scalars.record
        class Point:
            x: int
            y: int
            label: str = "p"

        p = Point(1, y=2)
        assert (p.x, p.y, p.label) == (1, 2, "p")
        assert Point(1, 2, "p") == p and Point(1, 2, "q") != p and Point(x=1, y=2, label="p") == p
        assert hash(p) == hash((1, 2, "p"))
        assert repr(p) == "test_record_generates_no_code.<locals>.Point(x=1, y=2, label='p')"


def test_record_refuses_field_lists_it_cannot_build():
    class Unordered:
        a: int = 0
        b: int

    class Empty:
        pass

    for cls in (Unordered, Empty):
        with pytest.raises(TypeError):
            scalars.record(cls)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_come_in_declaration_order_and_asdict_round_trips(name):
    rec = RECORDS[name]
    assert dataclasses.is_dataclass(rec)
    assert tuple(f.name for f in dataclasses.fields(rec)) == FIELDS[name]
    data = dataclasses.asdict(rec)
    assert tuple(data) == FIELDS[name]
    assert _rebuilt(rec, data) == rec


def test_defaults_fill_missing_fields_and_bad_calls_raise_type_errors():
    spec = q.TwoStepSpec(3, "volume")
    assert spec.phi is None and spec == q.TwoStepSpec(theta="volume", dim_v=3)
    geo = RECORDS["Trajectory"]
    jac = dynamics.JacobiTrajectory(geo.times, geo.states, geo.status)
    assert (jac.base_states, jac.derivative_states) == ((), ())
    for call in (
        lambda: q.TwoStepSpec(),
        lambda: q.TwoStepSpec(3, "volume", None, 4),
        lambda: q.TwoStepSpec(3, dim_v=3),
        lambda: q.TwoStepSpec(3, "volume", psi=None),
    ):
        with pytest.raises(TypeError):
            call()


def test_scaled_arrays_keep_their_own_equality():
    a = scalars.ScaledArray(RECORDS["ScaledArray"].num * 2, 2 * RECORDS["ScaledArray"].den)
    assert a == RECORDS["ScaledArray"] and hash(a) == hash(RECORDS["ScaledArray"])


_NO_DATACLASS = """
import dataclasses, io, sys
from contextlib import redirect_stdout

def refuse(*args, **kwargs):
    raise AssertionError("dataclasses.dataclass was applied")

dataclasses.dataclass = refuse
import quadlie.cli, quadlie.dynamics

with redirect_stdout(io.StringIO()):
    code = quadlie.cli.main(["catalog"])
print(code)
"""


def test_no_module_generates_record_code_at_import():
    # a fresh interpreter in which dataclasses.dataclass raises imports the
    # eager modules and the integrator, and runs a command
    src = str(Path(q.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _NO_DATACLASS], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
