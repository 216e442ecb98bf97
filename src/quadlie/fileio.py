"""Algebra files and report artifacts.

The JSON algebra document carries the keys

  dim       positive integer (owned by the builder when "construct" is set)
  basis     optional label list, length dim
  brackets  list of {"i", "j", "terms": [{"k", "coef"}, ...]}
  form      optional lower-triangular rows [[g00], [g10, g11], ...]
  iso       optional row-major square matrix
  construct optional builder spec, mutually exclusive with "brackets"

Unlisted bracket pairs are zero and the mirrored pair (j, i) is filled by
antisymmetry.  A basis reference is a JSON integer or a string that
algebra.label_index resolves.  Each scalar array (lambda, theta, phi,
iso, a row of form) is read by one reader, _tokens, against its shape:
an integer or a Fraction-parseable string is exact, a JSON float is
binary64, anything else is a ParseError naming the entry.  One mode
rule, _mode, reads a set of entries exactly unless a JSON float is among
them: an explicit document is one set, a construct document one per
array, and parse_matrix reads one n x n matrix the same way.  Exact
values serialize back as integer or "p/q" strings, never floats, so a
certificate-grade file survives a round trip.
"""

import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

from . import scalars
from .algebra import as_algebra, label_index, validate_algebra
from .constructions import TwoStepSpec, build_oscillator, build_two_step, two_step_metric
from .errors import ParseError, ValidationError
from .forms import as_form, as_iso, validate_form

__all__ = [
    "parse_algebra_file",
    "parse_algebra_doc",
    "parse_matrix",
    "read_json",
    "serialize_algebra",
    "write_algebra_file",
    "write_trajectory_csv",
    "to_jsonable",
    "write_json",
    "write_text",
    "sha256_file",
]

_DOC_KEYS = {"dim", "basis", "brackets", "form", "iso", "construct"}


def _classify(tok, where):
    """One scalar token: a Fraction for an integer or a rational string, a
    float for a JSON float."""
    if isinstance(tok, bool):
        raise ParseError(f"{where}: boolean is not a scalar")
    if isinstance(tok, int):
        return Fraction(tok)
    if isinstance(tok, float):
        return tok
    if isinstance(tok, str):
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: cannot parse coefficient {tok!r}") from None
    raise ParseError(f"{where}: unsupported coefficient {tok!r}")


def _tokens(value, shape, where):
    """The JSON array value of the given shape as nested lists of scalar
    tokens; ParseError at the first level or entry that does not fit."""
    if not shape:
        return _classify(value, where)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ParseError(f"{where}: expected an array of {shape[0]} entries")
    return [_tokens(v, shape[1:], f"{where}[{i}]") for i, v in enumerate(value)]


def _mode(*arrays):
    """Whether tokens read exactly: none of them, at any depth, is a JSON
    float."""
    return all(_mode(*a) if isinstance(a, list) else not isinstance(a, float) for a in arrays)


def _values(tokens, exact):
    """Nested token lists as nested tuples of the mode's scalars."""
    if isinstance(tokens, list):
        return tuple(_values(t, exact) for t in tokens)
    return scalars.coerce(tokens, exact)


def parse_matrix(value, n, where):
    """An n x n matrix of document entries, as nested tuples in its own
    mode; ParseError, located at where, for any other shape or entry."""
    toks = _tokens(value, (n, n), where)
    return _values(toks, _mode(toks))


def _form_tokens(rows, n):
    """The tokens of the symmetric matrix whose lower triangle is rows."""
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"form must have {n} lower-triangular rows")
    low = [_tokens(row, (r + 1,), f"form[{r}]") for r, row in enumerate(rows)]
    return [[low[max(r, s)][min(r, s)] for s in range(n)] for r in range(n)]


def _parse_form(rows, n):
    toks = _form_tokens(rows, n)
    return validate_form(_values(toks, _mode(toks)))


def _basis_index(labels, tok, where):
    """A basis reference, a JSON integer or a string, as label_index reads
    it."""
    if isinstance(tok, bool):
        raise ParseError(f"{where}: boolean is not a basis reference")
    if not isinstance(tok, (int, str)):
        raise ParseError(f"{where}: unsupported basis reference {tok!r}")
    try:
        return label_index(labels, tok)
    except ValidationError as e:
        raise ParseError(f"{where}: {e}") from None


def _require_keys(item, required, where):
    if not isinstance(item, dict):
        raise ParseError(f"{where}: expected an object")
    missing = required - set(item)
    if missing:
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    extra = set(item) - required
    if extra:
        raise ParseError(f"{where}: unknown key(s) {sorted(extra)}")


def _construct(doc):
    name = doc["construct"]
    if "brackets" in doc:
        raise ParseError("construct and brackets are mutually exclusive")
    for key in ("dim", "basis"):
        if key in doc:
            raise ParseError(f"construct documents may not set {key!r}")

    if name == "oscillator":
        allowed = {"construct", "lambda", "form", "iso"}
        extra = set(doc) - allowed
        if extra:
            raise ParseError(f"oscillator construct: unknown key(s) {sorted(extra)}")
        raw = doc.get("lambda")
        if not isinstance(raw, list) or not raw:
            raise ParseError("oscillator construct needs a nonempty lambda list")
        toks = _tokens(raw, (len(raw),), "lambda")
        L, k = build_oscillator(_values(toks, _mode(toks)))
        return L, k, None

    if name == "two-step":
        allowed = {"construct", "dimv", "theta", "phi", "form", "iso"}
        extra = set(doc) - allowed
        if extra:
            raise ParseError(f"two-step construct: unknown key(s) {sorted(extra)}")
        m = doc.get("dimv")
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ParseError("two-step construct needs a positive integer dimv")
        theta = doc.get("theta", "volume")
        if theta != "volume":
            toks = _tokens(theta, (m, m, m), "theta")
            theta = _values(toks, _mode(toks))
        phi = doc.get("phi")
        if phi is not None:
            phi = parse_matrix(phi, m, "phi")
        L, k = build_two_step(TwoStepSpec(m, theta))
        if phi is None:
            return L, k, None
        # form slot carries the duality pairing, iso slot the operator;
        # consumers recover the phi-metric as k.u like for any other file
        iso, _, _ = two_step_metric(TwoStepSpec(m, theta, phi))
        return L, k, iso

    raise ParseError(f"unknown construct {name!r}")


def parse_algebra_doc(doc):
    """Parse an already-decoded algebra document.

    Returns (LieAlgebra, form or None, iso or None).  Structural problems
    raise ParseError; the algebra and form validators run on the result,
    so antisymmetry and Jacobi failures surface as ValidationError.
    """
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    if "construct" in doc:
        L, form, iso = _construct(doc)
        # an explicit form wins over the construct's invariant form
        if "form" in doc:
            form = _parse_form(doc["form"], L.dim)
        if "iso" in doc:
            iso = as_iso(parse_matrix(doc["iso"], L.dim, "iso"), L.dim)
        return L, form, iso

    extra = set(doc) - _DOC_KEYS
    if extra:
        raise ParseError(f"unknown key(s) {sorted(extra)}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer")
    basis = doc.get("basis")
    if basis is not None:
        if (
            not isinstance(basis, list)
            or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)
        ):
            raise ParseError(f"basis must be a list of {dim} labels")
        if len(set(basis)) != dim:
            raise ParseError("basis labels must be distinct")
    labels = tuple(basis) if basis else tuple(f"e{i}" for i in range(dim))

    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("brackets must be an array")
    entries = []  # (i, j, k, token)
    seen_pairs = set()
    for idx, item in enumerate(brackets):
        where = f"brackets[{idx}]"
        _require_keys(item, {"i", "j", "terms"}, where)
        i = _basis_index(labels, item["i"], where)
        j = _basis_index(labels, item["j"], where)
        if i == j:
            raise ParseError(f"{where}: pair ({i}, {i}) is zero by antisymmetry")
        key = (min(i, j), max(i, j))
        if key in seen_pairs:
            raise ParseError(f"{where}: duplicate bracket pair ({i}, {j})")
        seen_pairs.add(key)
        terms = item["terms"]
        if not isinstance(terms, list):
            raise ParseError(f"{where}: terms must be an array")
        seen_k = set()
        for tdx, term in enumerate(terms):
            twhere = f"{where}.terms[{tdx}]"
            _require_keys(term, {"k", "coef"}, twhere)
            k = _basis_index(labels, term["k"], twhere)
            if k in seen_k:
                raise ParseError(f"{twhere}: duplicate component {k}")
            seen_k.add(k)
            entries.append((i, j, k, _classify(term["coef"], twhere)))

    form = doc.get("form")
    if form is not None:
        form = _form_tokens(form, dim)
    iso = doc.get("iso")
    if iso is not None:
        iso = _tokens(iso, (dim, dim), "iso")

    # one arithmetic mode per document, decided over every coefficient
    exact = _mode([tok for *_, tok in entries], form, iso)
    zero = scalars.coerce(0, exact)
    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, tok in entries:
        v = scalars.coerce(tok, exact)
        c[i][j][k], c[j][i][k] = v, -v
    L = validate_algebra(c, labels=labels)
    if form is not None:
        form = validate_form(_values(form, exact))
    if iso is not None:
        iso = as_iso(_values(iso, exact), dim)
    return L, form, iso


def _path(path):
    if not isinstance(path, (str, os.PathLike)):
        raise ParseError(f"expected a file path, got {path!r}")
    return Path(path)


def read_json(path):
    """The decoded JSON document in the file at path; ParseError when the
    file cannot be read or holds no JSON document."""
    p = _path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {p}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: line {e.lineno}: {e.msg}") from None


def parse_algebra_file(path):
    """Load (LieAlgebra, form or None, iso or None) from a JSON file."""
    return parse_algebra_doc(read_json(path))


def serialize_algebra(L, form=None, iso=None):
    """Document for write_algebra_file; inverse of parse up to term order.
    L, form and iso are read by as_algebra, as_form and as_iso."""
    L = as_algebra(L)
    form = as_form(form, L.dim) if form is not None else None
    iso = as_iso(iso, L.dim) if iso is not None else None
    doc = {"dim": L.dim, "basis": list(L.labels)}
    items = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            terms = [
                {"k": k, "coef": scalars.scalar_to_json(L.c[i][j][k])}
                for k in range(L.dim)
                if L.c[i][j][k] != 0
            ]
            if terms:
                items.append({"i": i, "j": j, "terms": terms})
    doc["brackets"] = items
    if form is not None:
        doc["form"] = [
            [scalars.scalar_to_json(form.matrix[r][s]) for s in range(r + 1)]
            for r in range(form.dim)
        ]
    if iso is not None:
        doc["iso"] = [
            [scalars.scalar_to_json(v) for v in row] for row in iso.matrix
        ]
    return doc


def write_text(path, text):
    """The one write of every file: ParseError when path is not a file
    path or cannot be written."""
    p = _path(path)
    try:
        p.write_text(text)
    except OSError as e:
        raise ParseError(f"cannot write {p}: {e}") from None


def write_algebra_file(path, L, form=None, iso=None):
    """Write serialize_algebra's document, through write_text."""
    write_text(path, json.dumps(serialize_algebra(L, form=form, iso=iso), indent=2) + "\n")


def write_trajectory_csv(path, traj):
    """One row per accepted step, header t,x0,...,x{n-1}, through
    write_text."""
    n = len(traj.states[0])
    lines = ["t," + ",".join(f"x{i}" for i in range(n))]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join(scalars.fmt(v) for v in (t, *state)))
    write_text(path, "\n".join(lines) + "\n")


def to_jsonable(value):
    """Recursive JSON payload: Fractions become "p/q" strings, non-finite
    floats null, other numbers pass through, sequences become lists."""
    if isinstance(value, Fraction):
        return scalars.fmt(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_json(path, payload):
    """to_jsonable's payload as indented JSON, through write_text."""
    write_text(path, json.dumps(to_jsonable(payload), indent=2) + "\n")


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
