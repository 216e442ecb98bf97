"""The stored-tensor contract of the five tensor classes: the size is the
array's first axis, the nested view is the array's tuples, built once, and
to_float converts the array and keeps every other field."""

import pytest

from quadlie import biinvariant_connection, catalog, curvature, iso_from_metric, levi_civita
from quadlie.scalars import StoredTensor

NAMES = ["e2-motion", "dim5-nilpotent", "a-d-double(1)"]


def _product(e):
    return levi_civita(e.algebra, e.metric)


# id: (the tensor of a catalog entry, its class, its view)
TENSORS = {
    "algebra": (lambda e: e.algebra, "LieAlgebra", "c"),
    "metric": (lambda e: e.metric, "SymBilinearForm", "matrix"),
    "iso": (lambda e: e.iso or iso_from_metric(e.quad_form or e.metric, e.metric),
            "SymmetricIso", "matrix"),
    "levi-civita": (_product, "ProductTensor", "gamma"),
    "biinvariant": (lambda e: biinvariant_connection(e.algebra), "ProductTensor", "gamma"),
    "curvature": (lambda e: curvature(_product(e)), "CurvatureTensor", "r"),
}


@pytest.fixture(params=[(kind, name) for kind in TENSORS for name in NAMES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def tensor(request):
    kind, name = request.param
    build, cls, view = TENSORS[kind]
    t = build(catalog(name))
    assert type(t).__name__ == cls and isinstance(t, StoredTensor)
    return t, view


def test_dim_is_the_arrays_first_axis(tensor):
    t, _ = tensor
    for x in (t, t.to_float()):
        assert x.dim == x.array.num.shape[0]


def test_the_view_is_the_arrays_tuples_built_once(tensor):
    t, view = tensor
    for x in (t, t.to_float()):
        first = getattr(x, view)
        assert first == x.array.tuples()
        assert getattr(x, view) is first


def test_to_float_converts_the_array_and_keeps_every_other_field(tensor):
    t, view = tensor
    assert t.exact
    f = t.to_float()
    assert not f.exact and f.to_float() is f
    assert f.array == t.array.to_float()
    assert f.dim == t.dim
    assert getattr(f, view) == t.array.to_float().tuples()
    if hasattr(t, "labels"):
        assert f.labels == t.labels
    if hasattr(t, "algebra"):
        assert f.algebra == t.algebra.to_float()
        assert f.metric == (t.metric and t.metric.to_float())


def test_an_exact_tensor_never_equals_its_binary64_copy(tensor):
    t, _ = tensor
    assert t != t.to_float()
    assert t == t and t.to_float() == t.to_float()
