"""Algebra files and report artifacts.

The JSON algebra document carries the keys

  dim       positive integer (owned by the builder when "construct" is set)
  basis     optional label list, length dim
  brackets  list of {"i", "j", "terms": [{"k", "coef"}, ...]}
  form      optional lower-triangular rows [[g00], [g10, g11], ...]
  iso       optional row-major square matrix
  construct optional builder spec, mutually exclusive with "brackets"

Unlisted bracket pairs are zero and the mirrored pair (j, i) is filled by
antisymmetry.  Coefficients may be JSON numbers or strings; the document
is exact when every coefficient is an integer or a Fraction-parseable
string, and binary64 as soon as one JSON float appears.  Exact values
serialize back as integer or "p/q" strings, never floats, so a
certificate-grade file survives a round trip.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from . import scalars
from .algebra import validate_algebra
from .constructions import TwoStepSpec, build_oscillator, build_two_step, two_step_metric
from .errors import ParseError
from .forms import SymmetricIso, validate_form

__all__ = [
    "parse_algebra_file",
    "parse_algebra_doc",
    "serialize_algebra",
    "write_algebra_file",
    "write_trajectory_csv",
    "to_jsonable",
    "write_json",
    "sha256_file",
]

_DOC_KEYS = {"dim", "basis", "brackets", "form", "iso", "construct"}


def _classify(tok, where):
    """One coefficient token -> (is_exact, value as Fraction or float)."""
    if isinstance(tok, bool):
        raise ParseError(f"{where}: boolean is not a scalar")
    if isinstance(tok, int):
        return True, Fraction(tok)
    if isinstance(tok, float):
        return False, tok
    if isinstance(tok, str):
        try:
            return True, Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: cannot parse coefficient {tok!r}") from None
    raise ParseError(f"{where}: unsupported coefficient {tok!r}")


def _resolver(n, labels):
    # mirrors LieAlgebra.label_index so files and CLI agree on names
    def resolve(tok, where):
        if isinstance(tok, bool):
            raise ParseError(f"{where}: boolean is not a basis reference")
        if isinstance(tok, int):
            if 0 <= tok < n:
                return tok
            raise ParseError(f"{where}: index {tok} out of range for dimension {n}")
        if isinstance(tok, str):
            if tok in labels:
                return labels.index(tok)
            try:
                k = int(tok)
            except ValueError:
                if tok.startswith("e"):
                    try:
                        k = int(tok[1:])
                    except ValueError:
                        raise ParseError(
                            f"{where}: unknown basis reference {tok!r}"
                        ) from None
                    if 0 <= k < n:
                        return k
                raise ParseError(f"{where}: unknown basis reference {tok!r}") from None
            if 0 <= k < n:
                return k
            raise ParseError(f"{where}: index {k} out of range for dimension {n}")
        raise ParseError(f"{where}: unsupported basis reference {tok!r}")

    return resolve


def _require_keys(item, required, where):
    if not isinstance(item, dict):
        raise ParseError(f"{where}: expected an object")
    missing = required - set(item)
    if missing:
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    extra = set(item) - required
    if extra:
        raise ParseError(f"{where}: unknown key(s) {sorted(extra)}")


def _parse_matrix_tokens(rows, n, where):
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"{where}: expected {n} rows")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {r} must have {n} entries")
        out.append([_classify(v, f"{where}[{r}][{s}]") for s, v in enumerate(row)])
    return out


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
        toks = [_classify(v, f"lambda[{i}]") for i, v in enumerate(raw)]
        exact = all(e for e, _ in toks)
        lams = tuple(scalars.coerce(v, exact) for _, v in toks)
        L, k = build_oscillator(lams)
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
            if not isinstance(theta, list) or len(theta) != m:
                raise ParseError("theta must be 'volume' or a dimv^3 nested array")
            toks = []
            for i, plane in enumerate(theta):
                if not isinstance(plane, list) or len(plane) != m:
                    raise ParseError(f"theta[{i}] must have {m} rows")
                rows = []
                for j, row in enumerate(plane):
                    if not isinstance(row, list) or len(row) != m:
                        raise ParseError(f"theta[{i}][{j}] must have {m} entries")
                    rows.append(
                        [_classify(v, f"theta[{i}][{j}][{k_}]") for k_, v in enumerate(row)]
                    )
                toks.append(rows)
            exact = all(e for plane in toks for row in plane for e, _ in row)
            theta = tuple(
                tuple(
                    tuple(scalars.coerce(v, exact) for _, v in row) for row in plane
                )
                for plane in toks
            )
        phi_rows = doc.get("phi")
        if phi_rows is None:
            L, k = build_two_step(TwoStepSpec(m, theta))
            return L, k, None
        toks = _parse_matrix_tokens(phi_rows, m, "phi")
        exact = all(e for row in toks for e, _ in row)
        phi = tuple(
            tuple(scalars.coerce(v, exact) for _, v in row) for row in toks
        )
        # form slot carries the duality pairing, iso slot the operator;
        # consumers recover the phi-metric as k.u like for any other file
        L, k = build_two_step(TwoStepSpec(m, theta))
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
            iso = _parse_iso(doc["iso"], L.dim)
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
    resolve = _resolver(dim, labels)

    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("brackets must be an array")
    entries = []  # (i, j, k, is_exact, value)
    seen_pairs = set()
    for idx, item in enumerate(brackets):
        where = f"brackets[{idx}]"
        _require_keys(item, {"i", "j", "terms"}, where)
        i = resolve(item["i"], where)
        j = resolve(item["j"], where)
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
            k = resolve(term["k"], twhere)
            if k in seen_k:
                raise ParseError(f"{twhere}: duplicate component {k}")
            seen_k.add(k)
            exact, value = _classify(term["coef"], twhere)
            entries.append((i, j, k, exact, value))

    form_rows = doc.get("form")
    form_entries = None
    if form_rows is not None:
        form_entries = _parse_form_tokens(form_rows, dim)
    iso_rows = doc.get("iso")
    iso_entries = None
    if iso_rows is not None:
        iso_entries = _parse_matrix_tokens(iso_rows, dim, "iso")

    # one arithmetic mode per document, decided over every coefficient
    flags = [e for _, _, _, e, _ in entries]
    if form_entries is not None:
        flags.extend(e for row in form_entries for e, _ in row)
    if iso_entries is not None:
        flags.extend(e for row in iso_entries for e, _ in row)
    exact = all(flags)

    def conv(v):
        return scalars.coerce(v, exact)

    zero = Fraction(0) if exact else 0.0
    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, _, value in entries:
        c[i][j][k] = conv(value)
        c[j][i][k] = -conv(value)
    L = validate_algebra(c, labels=labels)

    form = _form(form_entries, exact) if form_entries is not None else None
    iso = None
    if iso_entries is not None:
        iso = SymmetricIso(dim, [[v for _, v in row] for row in iso_entries], exact)
    return L, form, iso


def _parse_form_tokens(rows, n):
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"form must have {n} lower-triangular rows")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != r + 1:
            raise ParseError(f"form row {r} must have {r + 1} entries")
        out.append([_classify(v, f"form[{r}][{s}]") for s, v in enumerate(row)])
    return out


def _form(toks, exact):
    """The form whose lower triangle holds the values of the tokens toks."""
    n = len(toks)
    return validate_form(
        [[scalars.coerce(toks[max(r, s)][min(r, s)][1], exact) for s in range(n)] for r in range(n)]
    )


def _parse_form(rows, n):
    toks = _parse_form_tokens(rows, n)
    return _form(toks, all(e for row in toks for e, _ in row))


def _parse_iso(rows, n):
    toks = _parse_matrix_tokens(rows, n, "iso")
    exact = all(e for row in toks for e, _ in row)
    return SymmetricIso(n, [[v for _, v in row] for row in toks], exact)


def parse_algebra_file(path):
    """Load (LieAlgebra, form or None, iso or None) from a JSON file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ParseError(f"cannot read {p}: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: line {e.lineno}: {e.msg}") from None
    return parse_algebra_doc(doc)


def serialize_algebra(L, form=None, iso=None):
    """Document for write_algebra_file; inverse of parse up to term order."""
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


def write_algebra_file(path, L, form=None, iso=None):
    Path(path).write_text(
        json.dumps(serialize_algebra(L, form=form, iso=iso), indent=2) + "\n"
    )


def write_trajectory_csv(path, traj):
    """One row per accepted step, header t,x0,...,x{n-1}."""
    n = len(traj.states[0])
    lines = ["t," + ",".join(f"x{i}" for i in range(n))]
    for t, state in zip(traj.times, traj.states):
        lines.append(",".join(scalars.fmt(v) for v in (t, *state)))
    Path(path).write_text("\n".join(lines) + "\n")


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
    Path(path).write_text(json.dumps(to_jsonable(payload), indent=2) + "\n")


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
