"""Only EngineError escapes from the public API: a derandomized fuzz that
puts junk in each required position of a valid call of every function in
quadlie.__all__.  Its 100 examples per function cover every pair of
position and junk value, at most five positions of ten values each."""

import inspect
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlie
from quadlie import EngineError, TwoStepSpec, catalog

JUNK = (5, None, "x", [], [[1]], [[[1]]], math.nan, (1, 2), {}, True)

FUNCTIONS = sorted(
    name for name in quadlie.__all__ if inspect.isfunction(getattr(quadlie, name))
)


def _required(name):
    params = inspect.signature(getattr(quadlie, name)).parameters.values()
    return [p for p in params if p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD]


@pytest.fixture(scope="module")
def valid_calls(tmp_path_factory):
    """The required arguments of one valid call of each function."""
    e2 = catalog("e2-motion")
    L, g = e2.algebra, e2.metric
    P = quadlie.levi_civita(L, g)
    osc = catalog("oscillator(1)")
    one4 = [[int(i == j) for j in range(4)] for i in range(4)]
    nil = catalog("two-step-volume").algebra
    one6 = [[int(i == j) for j in range(6)] for i in range(6)]
    x, y = (1, 0, 1), (0, 1, 0)
    span = (0.0, 1.0)
    reflection = quadlie.right_invariant_reflection(L, P, x, y, span)
    path = tmp_path_factory.mktemp("fuzz") / "e2.json"
    path.write_text(json.dumps(quadlie.serialize_algebra(L, form=g)))
    return {
        "annotate_candidates": (quadlie.conjugate_scan(P, x, span, grid=8), (0.5,)),
        "available": (),
        "biinvariant_connection": (L,),
        "biinvariant_jacobi": (L, x, y, y, span),
        "bracket": (L, x, y),
        "build_cotangent_double": (L,),
        "build_double_extension": (2, [[1, 0], [0, 1]], [[0, 1], [-1, 0]]),
        "build_f_derivation": (catalog("dim5-nilpotent").algebra,),
        "build_oscillator": ((1,),),
        "build_two_step": (TwoStepSpec(3, "volume"),),
        "catalog": ("e2-motion",),
        "check_ad_invariance": (osc.algebra, osc.quad_form),
        "completeness_probe": (P, [x]),
        "conjugate_scan": (P, x, span),
        "curvature": (P,),
        "dim4_obstruction": (1, 1, 1),
        "energy_drift": (P, quadlie.integrate_geodesic(P, x, span)),
        "euler_field": (P, x),
        "flatness_report": (L, g),
        "integrate_geodesic": (P, x, span),
        "integrate_jacobi": (P, x, y, y, span),
        "iso_from_metric": (osc.quad_form, osc.quad_form),
        "jacobi_route_gap": (L, P, x, y, span),
        "levi_civita": (L, g),
        "metric_from_iso": (osc.quad_form, one4),
        "oscillator_closed_forms": ((1,), (1.0, 0.0, 0.0, 0.0), (1.0,)),
        "parse_algebra_file": (str(path),),
        "polynomial_geodesic_check": (nil, one6),
        "product_from_iso": (osc.algebra, osc.quad_form, one4),
        "product_report": (P,),
        "quadratic_euler_field": (osc.algebra, one4),
        "reflection_equation_residual": (L, P, reflection),
        "right_invariant_reflection": (L, P, x, y, span),
        "serialize_algebra": (L,),
        "signature": (g,),
        "similarity_invariants": ([[1, 0], [0, 1]],),
        "structure_report": (L,),
        "two_step_metric": (TwoStepSpec(3, "volume", ((1, 0, 0), (0, 1, 0), (0, 0, 1))),),
        "validate_algebra": (L.c,),
        "validate_form": (g.matrix,),
        "volume_theta": (),
        "write_algebra_file": (str(path.with_name("out.json")), L),
    }


def test_every_function_has_a_valid_call(valid_calls):
    assert sorted(valid_calls) == FUNCTIONS
    for name in FUNCTIONS:
        assert len(valid_calls[name]) == len(_required(name)), name
        getattr(quadlie, name)(*valid_calls[name])


@pytest.mark.parametrize("name", [name for name in FUNCTIONS if _required(name)])
def test_junk_in_any_required_position_is_an_engine_error(
    name, valid_calls, monkeypatch, tmp_path
):
    # a junk path such as "x" names a file in the working directory
    monkeypatch.chdir(tmp_path)
    valid = valid_calls[name]

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(0, len(valid) - 1), st.sampled_from(JUNK))
    def call(position, junk):
        args = list(valid)
        args[position] = junk
        try:
            getattr(quadlie, name)(*args)
        except EngineError:
            pass

    call()
