"""Command line front end.

quadlie COMMAND [flags] loads an algebra from a JSON file or the builtin
catalog, runs one engine operation, and prints a run report as JSON on
stdout.  Exit codes: 0 success, 1 input rejected by validation, 2 a
requested certification did not hold (non-flat metric, integration that
stopped before the requested span, a sweep sample failing its check).

Each command takes only the flags its _COMMANDS row names: --tol is the
integrator tolerance of geodesic, jacobi, conjugate and probe, and --out
the artifact directory of the commands that write one.  Certificate
verdicts take the library's tolerances: none in exact mode, scale-aware
in binary64.  Only the commands that integrate import the integrator
(dynamics), so the others start without it.

Files follow the format in fileio: when a document carries both a form
and an iso, the form is the invariant pairing and the studied metric is
their composition; a lone form is the metric itself.  Reports are
deterministic for fixed inputs and flags: stable field order, exact
scalars as "p/q" strings, floats in shortest round-trip form and a float
that is not finite as null.
"""

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import fileio, scalars
from .algebra import structure_report
from .catalog import available, catalog
from .connection import curvature, curvature_tolerance, flatness_report, levi_civita, product_report
from .constructions import TwoStepSpec, build_two_step, two_step_metric
from .errors import EngineError, ParseError, ValidationError, ZeroXMinusOne
from .forms import check_ad_invariance, metric_from_iso, signature
from .linalg import det

# flags whose values may start with a minus sign; glued to --flag=value
# before argparse sees them so "--span -0.99:5" parses
_GLUE = {"--span", "--window", "--x", "--y", "--ydot", "--lambda", "--tol"}
# the most phi samples of a family sweep, generated or read: about 0.8 ms
# a sample, so a sweep at the cap ends in 3-4 s on a 2-core x86-64 host
MAX_SAMPLES = 4000


def _glue(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _GLUE and nxt is not None and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# flag groups: (flag, add_argument keywords) pairs, added in this order
_MODEL = (
    ("--input", {"help": "algebra JSON file"}),
    ("--catalog", {"help": "builtin catalog name"}),
    ("--lambda", {"dest": "lam",
                  "help": "CSV of oscillator frequencies, composes with --catalog oscillator"}),
)
_SEEDED = (
    ("--x", {"help": "initial velocity, CSV of label:value"}),
    ("--seed", {"default": "default", "help": "named catalog seed when --x is absent"}),
)
_VARIATION = (
    ("--y", {"help": "initial variation, CSV of label:value"}),
    ("--ydot", {"help": "initial variation rate, CSV of label:value"}),
)
_SPAN = (("--span", {"help": "integration span A:B"}),)
_SCAN = (
    ("--window", {"required": True, "help": "scan window A:B"}),
    ("--grid", {"type": int, "default": 200, "help": "scan grid size"}),
)
_SWEEP = (
    ("--input", {"help": "phi sample file: a JSON list of dimv x dimv matrices"}),
    ("--dimv", {"type": int, "default": 3, "help": "dimension of V"}),
    ("--trials", {"type": int, "default": 5, "help": "number of generated phi samples"}),
    ("--rng-seed", {"type": int, "default": 0, "help": "seed for the phi sample generator"}),
)
_TOL = (("--tol", {"type": float, "default": 1e-10, "help": "integrator tolerance"}),)
_OUT = (("--out", {"help": "directory for artifacts"}),)
_FORMAT = (("--format", {"choices": ("json", "csv"), "help": "artifact format, with --out"}),)


def _parser():
    p = argparse.ArgumentParser(
        prog="quadlie",
        description="left-invariant geometry from structure constants",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (_, help_, groups) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for group in groups:
            for flag, kw in group:
                sp.add_argument(flag, **kw)
    return p


# ---------------------------------------------------------------------------
# input resolution


@dataclass
class _Model:
    L: object
    metric: object
    kform: object
    iso: object
    entry: object
    source: dict


def _resolve_model(args, need_metric=False):
    path = getattr(args, "input", None)
    name = getattr(args, "catalog", None)
    lam = getattr(args, "lam", None)
    if path and name:
        raise ParseError("choose one of --input or --catalog")
    if path:
        if lam:
            raise ParseError("--lambda only composes with --catalog")
        L, form, iso = fileio.parse_algebra_file(path)
        kform = None
        metric = form
        if iso is not None:
            if form is None:
                raise ParseError("document has an iso but no form to act on")
            kform = form
            iso, metric = metric_from_iso(form, iso)
        source = {"path": str(path), "sha256": fileio.sha256_file(path)}
        entry = None
    elif name:
        if lam:
            if "(" in name:
                raise ParseError("--lambda conflicts with an already parameterized name")
            name = f"{name}({lam})"
        entry = catalog(name)
        L = entry.algebra
        metric = entry.metric
        kform = entry.quad_form
        iso = entry.iso
        doc = fileio.serialize_algebra(L, form=kform if kform is not None else metric, iso=iso)
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        source = {"catalog": entry.name, "sha256": digest}
    else:
        raise ParseError("need --input or --catalog")
    if need_metric and metric is None:
        raise ParseError(
            "model carries no featured metric; supply a document with a form"
        )
    return _Model(L, metric, kform, iso, entry, source)


def _parse_scalar(text):
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        pass
    except OverflowError:
        raise ParseError(f"number {text!r} is beyond binary64") from None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse number {text!r}") from None


def _resolve_index(L, tok):
    try:
        return L.label_index(tok)
    except ValidationError:
        pass
    if not tok.startswith("e"):
        try:
            return L.label_index("e" + tok)
        except ValidationError:
            pass
    raise ParseError(f"unknown coordinate {tok!r} for labels {L.labels}")


def _parse_vector(text, L, what):
    vec = [0.0] * L.dim
    seen = set()
    for chunk in text.split(","):
        piece = chunk.strip()
        if not piece:
            continue
        head, sep, tail = piece.rpartition(":")
        if not sep:
            raise ParseError(f"{what}: expected label:value, got {piece!r}")
        idx = _resolve_index(L, head.strip())
        if idx in seen:
            raise ParseError(f"{what}: coordinate {head.strip()!r} set twice")
        seen.add(idx)
        vec[idx] = _parse_scalar(tail.strip())
    return tuple(vec)


def _parse_pair(text, what):
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"{what}: expected A:B, got {text!r}")
    return _parse_scalar(parts[0]), _parse_scalar(parts[1])


def _initial_vector(args, model, flag="--x"):
    text = getattr(args, "x", None)
    if text is not None:
        return _parse_vector(text, model.L, flag)
    if model.entry is None:
        raise ParseError(f"{flag} is required with --input")
    seeds = model.entry.seeds
    name = getattr(args, "seed", "default")
    if name not in seeds:
        raise ParseError(
            f"unknown seed {name!r}; available: {sorted(seeds)}"
        )
    return tuple(float(v) for v in seeds[name])


def _artifacts(args, stem, payload, write_csv=None):
    """Writes payload to stem.json under --out, or calls write_csv on
    stem.csv there when the command takes --format and it is csv; the
    paths written, none without --out.  ParseError for --format without
    --out, or when the directory cannot be made or the file written."""
    if args.out is None:
        if getattr(args, "format", None) is not None:
            raise ParseError("--format needs --out")
        return []
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ParseError(f"cannot make {out}: {e}") from None
    if write_csv is not None and args.format == "csv":
        path = out / f"{stem}.csv"
        write_csv(path)
    else:
        path = out / f"{stem}.json"
        fileio.write_json(path, payload)
    return [str(path)]


def _verdict(value, mode, tolerance):
    return {"value": value, "mode": mode, "tolerance": tolerance}


def _mode(exact):
    return "exact" if exact else "binary64"


def _checked(value, exact):
    """A validator's verdict: zero slack in exact mode, 1e-9 relative
    otherwise."""
    return _verdict(value, _mode(exact), scalars.tolerance(exact, 1.0))


def _status_dict(ts):
    return {"kind": ts.kind, "t": ts.t}


def _traj_payload(traj):
    return {
        "times": list(traj.times),
        "states": [list(s) for s in traj.states],
        "status": _status_dict(traj.status),
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, artifacts, exit_code)


def _cmd_validate(args):
    model = _resolve_model(args)
    L = model.L
    payload = {
        "input": model.source,
        "dim": L.dim,
        "mode": _mode(L.exact),
        "basis": list(L.labels),
        "verdicts": {
            "antisymmetry": _checked(True, L.exact),
            "jacobi": _checked(True, L.exact),
        },
    }
    if model.metric is not None or model.kform is not None:
        form = model.kform if model.kform is not None else model.metric
        payload["verdicts"]["form_nondegenerate"] = _checked(True, form.exact)
    if model.iso is not None:
        payload["verdicts"]["iso_self_adjoint"] = _checked(True, model.iso.exact)
    return payload, [], 0


def _cmd_analyze(args):
    model = _resolve_model(args)
    L = model.L
    rep = structure_report(L)
    payload = {
        "input": model.source,
        "dim": L.dim,
        "mode": _mode(L.exact),
        "structure": {
            "center_dim": len(rep.center),
            "derived_dim": len(rep.derived),
            "lower_central_dims": [len(term) for term in rep.lower_central],
            "nilpotency_class": rep.nilpotency_class,
            "solvable": rep.solvable,
            "unimodular": rep.unimodular,
            "abelian": rep.abelian,
        },
        "verdicts": {},
    }
    if model.metric is not None:
        sig = signature(model.metric)
        payload["metric_signature"] = {**asdict(sig), "index": sig.index}
    if model.kform is not None:
        inv = check_ad_invariance(L, model.kform)
        payload["invariant_form"] = {"signature": asdict(signature(model.kform))}
        payload["verdicts"]["ad_invariant"] = _checked(inv.invariant, model.kform.exact and L.exact)
        payload["residuals"] = {"ad_invariance": inv.max_residual}
    return payload, [], 0


def _cmd_connection(args):
    model = _resolve_model(args, need_metric=True)
    P = levi_civita(model.L, model.metric)
    rep = product_report(P)
    payload = {
        "input": model.source,
        "mode": rep.mode,
        "verdicts": {
            "torsion_ok": _verdict(rep.torsion_ok, rep.mode, rep.tolerance),
            "metric_compatible": _verdict(rep.skew_ok, rep.mode, rep.tolerance),
        },
    }
    artifacts = _artifacts(args, "product", {"gamma": P.gamma, "mode": rep.mode})
    if not artifacts:
        payload["gamma"] = P.gamma
    return payload, artifacts, 0


def _cmd_curvature(args):
    model = _resolve_model(args, need_metric=True)
    P = levi_civita(model.L, model.metric)
    R = curvature(P)
    worst = R.max_abs()
    tol = curvature_tolerance(P)
    payload = {
        "input": model.source,
        "mode": _mode(R.exact),
        "verdicts": {
            "zero_curvature": _verdict(
                bool(worst <= tol), _mode(R.exact), tol
            ),
        },
        "residuals": {"max_abs_curvature": worst},
    }
    artifacts = _artifacts(args, "curvature", {"r": R.r, "mode": _mode(R.exact)})
    if not artifacts:
        payload["r"] = R.r
    return payload, artifacts, 0


def _cmd_flat(args):
    model = _resolve_model(args, need_metric=True)
    rep = flatness_report(model.L, model.metric)
    payload = {
        "input": model.source,
        "mode": rep.mode,
        "verdicts": {
            "flat": _verdict(rep.flat, rep.mode, rep.tolerance),
            "torsion_ok": _verdict(rep.torsion_ok, rep.mode, rep.tolerance),
            "metric_compatible": _verdict(rep.skew_ok, rep.mode, rep.tolerance),
            "left_symmetric": _verdict(rep.left_symmetric, rep.mode, rep.tolerance),
        },
        "residuals": {"max_residual": rep.max_residual},
    }
    return payload, [], 0 if rep.flat else 2


def _cmd_geodesic(args):
    from .dynamics import energy_drift, integrate_geodesic

    model = _resolve_model(args, need_metric=True)
    if args.span is None:
        raise ParseError("geodesic needs --span A:B")
    span = _parse_pair(args.span, "--span")
    x0 = _initial_vector(args, model)
    P = levi_civita(model.L, model.metric)
    traj = integrate_geodesic(P, x0, span, tol=args.tol)
    drift = energy_drift(P, traj)
    payload = {
        "input": model.source,
        "x0": list(x0),
        "span": list(span),
        "mode": "binary64",
        "status": _status_dict(traj.status),
        "steps": len(traj.times) - 1,
        "final_state": list(traj.states[-1]),
        "verdicts": {
            "completed": _verdict(traj.status.completed, "binary64", args.tol),
        },
        "residuals": {"energy_drift": drift},
    }
    artifacts = _artifacts(args, "geodesic", _traj_payload(traj),
                           lambda path: fileio.write_trajectory_csv(path, traj))
    return payload, artifacts, 0 if traj.status.completed else 2


def _cmd_jacobi(args):
    from .dynamics import integrate_jacobi

    model = _resolve_model(args, need_metric=True)
    if args.span is None:
        raise ParseError("jacobi needs --span A:B")
    span = _parse_pair(args.span, "--span")
    x0 = _initial_vector(args, model)
    if args.y is None and args.ydot is None:
        raise ParseError("jacobi needs --y or --ydot initial data")
    zeros = tuple(0.0 for _ in range(model.L.dim))
    y0 = _parse_vector(args.y, model.L, "--y") if args.y else zeros
    ydot0 = _parse_vector(args.ydot, model.L, "--ydot") if args.ydot else zeros
    P = levi_civita(model.L, model.metric)
    traj = integrate_jacobi(P, x0, y0, ydot0, span, tol=args.tol)
    payload = {
        "input": model.source,
        "x0": list(x0),
        "y0": list(y0),
        "ydot0": list(ydot0),
        "span": list(span),
        "mode": "binary64",
        "status": _status_dict(traj.status),
        "steps": len(traj.times) - 1,
        "final_variation": list(traj.states[-1]),
        "verdicts": {
            "completed": _verdict(traj.status.completed, "binary64", args.tol),
        },
    }
    artifacts = _artifacts(args, "jacobi", _traj_payload(traj),
                           lambda path: fileio.write_trajectory_csv(path, traj))
    return payload, artifacts, 0 if traj.status.completed else 2


def _cmd_conjugate(args):
    from .dynamics import annotate_candidates, conjugate_scan

    model = _resolve_model(args, need_metric=True)
    window = _parse_pair(args.window, "--window")
    x0 = _initial_vector(args, model)
    P = levi_civita(model.L, model.metric)
    rep = conjugate_scan(P, x0, window, grid=args.grid, tol=args.tol)
    payload = {
        "input": model.source,
        "x0": list(x0),
        "window": list(window),
        "grid": rep.grid,
        "mode": "binary64",
        "roots": [
            {
                "t": root.t,
                "kernel_dim": len(root.kernel),
                "det_value": root.det_value,
                "via": root.via,
            }
            for root in rep.roots
        ],
        "verdicts": {
            "conjugate_free": _verdict(not rep.roots, "binary64", args.tol),
        },
    }

    # closed-form candidate lists ride along for oscillator models
    entry = model.entry
    forms = None
    if entry is not None and "jacobi_forms" in entry.oracles:
        m = len(entry.oracles["frequencies"])
        try:
            forms = entry.oracles["jacobi_forms"](x0, (1.0,) * m)
        except ZeroXMinusOne:
            forms = None
    if forms is not None:
        primary = forms.conjugate_times(window)
        halved = forms.halved_times(window)
        rep = annotate_candidates(rep, primary, alternate=halved, match_tol=1e-6)
        primary_hits = [
            {"candidate": c, "matched_root": hit}
            for c, hit in rep.primary_matches
        ]
        halved_hits = [
            {"candidate": c, "matched_root": hit}
            for c, hit in rep.alternate_matches
        ]
        all_primary = all(h["matched_root"] is not None for h in primary_hits)
        some_halved_rejected = any(
            h["matched_root"] is None for h in halved_hits
        )
        payload["candidates"] = {
            "full_period": primary_hits,
            "halved_period": halved_hits,
            # true when the scan confirms the full-period family while at
            # least one halved-period candidate fails to match any root
            # (with several frequencies a halved time of one frequency can
            # be a full period of another, so only the unmatched ones count)
            "halved_period_discrepancy": bool(halved_hits)
            and some_halved_rejected
            and all_primary,
        }
    return payload, [], 0


def _cmd_probe(args):
    from .dynamics import completeness_probe

    model = _resolve_model(args, need_metric=True)
    x0 = _initial_vector(args, model)
    t_max = _parse_pair(args.span, "--span") if args.span else 1e3
    P = levi_civita(model.L, model.metric)
    rep = completeness_probe(P, [x0], t_max=t_max, tol=args.tol)
    results = []
    for res in rep.results:
        results.append(
            {
                "seed": list(res.seed),
                "forward": _status_dict(res.forward),
                "backward": _status_dict(res.backward),
            }
        )
    payload = {
        "input": model.source,
        "span": list(rep.span),
        "mode": "binary64",
        "results": results,
        "verdicts": {
            "complete_on_span": _verdict(not rep.incomplete, "binary64", rep.tol),
        },
    }
    return payload, [], 0


def _cmd_build(args):
    model = _resolve_model(args)
    form = model.kform if model.kform is not None else model.metric
    doc = fileio.serialize_algebra(model.L, form=form, iso=model.iso)
    payload = {
        "input": model.source,
        "dim": model.L.dim,
        "mode": _mode(model.L.exact),
        "basis": list(model.L.labels),
    }
    stem = "algebra"
    if model.entry is not None:
        stem = "".join(
            ch if ch.isalnum() or ch in "._-" else "_" for ch in model.entry.name
        ).strip("_")
    artifacts = _artifacts(args, stem, doc)
    if not artifacts:
        payload["document"] = doc
    return payload, artifacts, 0


def _cmd_catalog(args):
    payload = {
        "models": [
            {"name": name, "description": text} for name, text in available()
        ],
    }
    return payload, [], 0


def _random_phi(rng, m):
    while True:
        cand = [[Fraction(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        if det(scalars.read(cand, 2)) != 0:
            return tuple(tuple(row) for row in cand)


def _sweep_csv(rows):
    lines = ["sample,flat,positive,negative,zero,char_poly,invariant_factor_degrees,phi"]
    for row in rows:
        cp = ";".join(scalars.fmt(v) for v in row["char_poly"])
        degs = ";".join(str(v) for v in row["invariant_factor_degrees"])
        flat_phi = ";".join(scalars.fmt(v) for r in row["phi"] for v in r)
        sig = row["signature"]
        lines.append(
            f"{row['sample']},{row['flat']},{sig['positive']},"
            f"{sig['negative']},{sig['zero']},{cp},{degs},{flat_phi}"
        )
    return "\n".join(lines) + "\n"


def _sample_count(count):
    """count, a sweep's number of phi samples, checked against MAX_SAMPLES
    before any sample is drawn or read; ParseError above it."""
    if count > MAX_SAMPLES:
        raise ParseError(f"family-sweep takes at most {MAX_SAMPLES} phi samples, got {count}")
    return count


def _cmd_family_sweep(args):
    m = args.dimv
    if m < 1:
        raise ParseError(f"--dimv must be at least 1, got {m}")
    # the algebra first: it rejects a dimension with no volume form before
    # any m x m sample is drawn
    L, _ = build_two_step(TwoStepSpec(m, "volume"))
    if args.input:
        doc = fileio.read_json(args.input)
        if not isinstance(doc, list):
            raise ParseError("phi sample file must be a JSON list of matrices")
        _sample_count(len(doc))
        phis = [fileio.parse_matrix(rows, m, f"sample {idx}") for idx, rows in enumerate(doc)]
        source = {"path": str(args.input), "sha256": fileio.sha256_file(args.input)}
    else:
        rng = random.Random(args.rng_seed)
        phis = [_random_phi(rng, m) for _ in range(_sample_count(args.trials))]
        source = {"generated": {"trials": args.trials, "rng_seed": args.rng_seed}}
    if not phis:  # an empty table would certify nothing
        raise ParseError("family-sweep needs at least one phi sample, from --trials or the file")

    rows = []
    all_flat = True
    worst_mode = "exact"
    tol = 0  # the largest tolerance any sample's verdict took
    for idx, phi in enumerate(phis):
        _, metric, inv = two_step_metric(TwoStepSpec(m, "volume", phi))
        rep = flatness_report(L, metric)
        all_flat = all_flat and rep.flat
        tol = max(tol, rep.tolerance)
        if rep.mode != "exact":
            worst_mode = rep.mode
        rows.append(
            {
                "sample": idx,
                "phi": phi,
                "flat": rep.flat,
                "signature": asdict(signature(metric)),
                "char_poly": inv.char_poly,
                "invariant_factor_degrees": inv.invariant_factor_degrees,
            }
        )
    payload = {
        "input": source,
        "dimv": m,
        "mode": worst_mode,
        "table": rows,
        "verdicts": {"all_flat": _verdict(all_flat, worst_mode, tol)},
    }
    artifacts = _artifacts(args, "family_sweep", rows,
                           lambda path: fileio.write_text(path, _sweep_csv(rows)))
    return payload, artifacts, 0 if all_flat else 2


# name: (handler, help, flag groups)
_COMMANDS = {
    "validate": (_cmd_validate, "check an algebra document", (_MODEL,)),
    "analyze": (_cmd_analyze, "structure report and signatures", (_MODEL,)),
    "connection": (_cmd_connection, "Levi-Civita product tensor", (_MODEL, _OUT)),
    "curvature": (_cmd_curvature, "curvature tensor", (_MODEL, _OUT)),
    "flat": (_cmd_flat, "flatness certificate", (_MODEL,)),
    "geodesic": (_cmd_geodesic, "integrate one geodesic",
                 (_MODEL, _SEEDED, _SPAN, _TOL, _OUT, _FORMAT)),
    "jacobi": (_cmd_jacobi, "integrate one variation field",
               (_MODEL, _SEEDED, _VARIATION, _SPAN, _TOL, _OUT, _FORMAT)),
    "conjugate": (_cmd_conjugate, "scan for conjugate points", (_MODEL, _SEEDED, _SCAN, _TOL)),
    "probe": (_cmd_probe, "completeness probe", (_MODEL, _SEEDED, _SPAN, _TOL)),
    "build": (_cmd_build, "emit a catalog or construct algebra as a document", (_MODEL, _OUT)),
    "catalog": (_cmd_catalog, "list builtin models", ()),
    "family-sweep": (_cmd_family_sweep, "two-step metric family table", (_SWEEP, _OUT, _FORMAT)),
}


def _emit(report):
    """Print report as JSON on stdout and flush it; False when the reader
    closed the pipe, after pointing stdout at devnull so that the flush at
    exit does not fail again."""
    try:
        print(json.dumps(fileio.to_jsonable(report), indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(_glue(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        payload, artifacts, code = _COMMANDS[args.cmd][0](args)
    except EngineError as e:
        report = {
            "command": ["quadlie", *argv],
            "error": {"type": type(e).__name__, "message": str(e)},
        }
        _emit(report)
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {"command": ["quadlie", *argv], **payload, "artifacts": artifacts}
    return code if _emit(report) else 1


if __name__ == "__main__":
    sys.exit(main())
