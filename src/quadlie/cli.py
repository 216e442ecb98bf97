"""Command line front end.

quadlie COMMAND [flags] loads an algebra from a JSON file or the builtin
catalog, runs one engine operation, and prints a run report as JSON on
stdout.  Exit codes: 0 success, 1 input rejected by validation, 2 a
requested certification did not hold (non-flat metric, integration that
stopped before the requested span, a sweep sample failing its check).

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
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import fileio, scalars
from .algebra import structure_report
from .catalog import available, catalog
from .connection import curvature, flatness_report, levi_civita, product_report
from .constructions import TwoStepSpec, build_two_step, two_step_metric
from .dynamics import (
    annotate_candidates,
    completeness_probe,
    conjugate_scan,
    energy_drift,
    integrate_geodesic,
    integrate_jacobi,
)
from .errors import EngineError, ParseError, ValidationError, ZeroXMinusOne
from .forms import check_ad_invariance, metric_from_iso, signature
from .linalg import det

_COMMANDS = (
    "validate",
    "analyze",
    "connection",
    "curvature",
    "flat",
    "geodesic",
    "jacobi",
    "conjugate",
    "probe",
    "build",
    "catalog",
    "family-sweep",
)

# flags whose values may start with a minus sign; glued to --flag=value
# before argparse sees them so "--span -0.99:5" parses
_GLUE = {"--span", "--window", "--x", "--y", "--ydot", "--lambda", "--tol"}


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


def _parser():
    p = argparse.ArgumentParser(
        prog="quadlie",
        description="left-invariant geometry from structure constants",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, help_, *, model=True, seeded=False, span=False, window=False,
            fmt=False, jacobi=False, grid=False, sweep=False):
        sp = sub.add_parser(name, help=help_)
        if model:
            sp.add_argument("--input", help="algebra JSON file")
            sp.add_argument("--catalog", help="builtin catalog name")
            sp.add_argument("--lambda", dest="lam",
                            help="CSV of oscillator frequencies, composes with --catalog oscillator")
        if seeded:
            sp.add_argument("--x", help="initial velocity, CSV of label:value")
            sp.add_argument("--seed", default="default",
                            help="named catalog seed when --x is absent")
        if jacobi:
            sp.add_argument("--y", help="initial variation, CSV of label:value")
            sp.add_argument("--ydot", help="initial variation rate, CSV of label:value")
        if span:
            sp.add_argument("--span", help="integration span A:B")
        if window:
            sp.add_argument("--window", required=True, help="scan window A:B")
        if grid:
            sp.add_argument("--grid", type=int, default=200, help="scan grid size")
        if sweep:
            sp.add_argument("--dimv", type=int, default=3, help="dimension of V")
            sp.add_argument("--trials", type=int, default=5,
                            help="number of generated phi samples")
            sp.add_argument("--rng-seed", type=int, default=0,
                            help="seed for the phi sample generator")
        sp.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance")
        sp.add_argument("--out", help="directory for artifacts")
        if fmt or sweep:
            sp.add_argument("--format", choices=("json", "csv"), default="json",
                            help="artifact format")
        return sp

    add("validate", "check an algebra document")
    add("analyze", "structure report and signatures")
    add("connection", "Levi-Civita product tensor")
    add("curvature", "curvature tensor")
    add("flat", "flatness certificate")
    add("geodesic", "integrate one geodesic", seeded=True, span=True, fmt=True)
    add("jacobi", "integrate one variation field", seeded=True, span=True,
        fmt=True, jacobi=True)
    add("conjugate", "scan for conjugate points", seeded=True, window=True, grid=True)
    add("probe", "completeness probe", seeded=True, span=True)
    add("build", "emit a catalog or construct algebra as a document")
    add("catalog", "list builtin models", model=False)
    add("family-sweep", "two-step metric family table", model=True, sweep=True)
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
        doc = fileio.serialize_algebra(
            L,
            form=kform if kform is not None else metric,
            iso=iso if iso is not None else None,
        )
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()
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


def _outdir(args):
    if getattr(args, "out", None) is None:
        return None
    p = Path(args.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _verdict(value, mode, tolerance):
    return {"value": value, "mode": mode, "tolerance": tolerance}


def _mode(exact):
    return "exact" if exact else "binary64"


def _vtol(exact):
    # validators run with zero slack in exact mode, 1e-9 relative otherwise
    return scalars.tolerance(exact, 1.0)


def _status_dict(ts):
    return {"kind": ts.kind, "t": ts.t}


def _traj_payload(traj):
    return {
        "times": list(traj.times),
        "states": [list(s) for s in traj.states],
        "status": _status_dict(traj.status),
    }


def _write_trajectory(traj, outdir, stem, fmt):
    if outdir is None:
        return []
    if fmt == "csv":
        path = outdir / f"{stem}.csv"
        fileio.write_trajectory_csv(path, traj)
    else:
        path = outdir / f"{stem}.json"
        fileio.write_json(path, _traj_payload(traj))
    return [str(path)]


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
            "antisymmetry": _verdict(True, _mode(L.exact), _vtol(L.exact)),
            "jacobi": _verdict(True, _mode(L.exact), _vtol(L.exact)),
        },
    }
    if model.metric is not None or model.kform is not None:
        form = model.kform if model.kform is not None else model.metric
        payload["verdicts"]["form_nondegenerate"] = _verdict(
            True, _mode(form.exact), _vtol(form.exact)
        )
    if model.iso is not None:
        payload["verdicts"]["iso_self_adjoint"] = _verdict(
            True, _mode(model.iso.exact), _vtol(model.iso.exact)
        )
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
        payload["metric_signature"] = {
            "positive": sig.positive,
            "negative": sig.negative,
            "zero": sig.zero,
            "index": sig.index,
        }
    if model.kform is not None:
        inv = check_ad_invariance(L, model.kform)
        sig = signature(model.kform)
        payload["invariant_form"] = {
            "signature": {
                "positive": sig.positive,
                "negative": sig.negative,
                "zero": sig.zero,
            },
        }
        payload["verdicts"]["ad_invariant"] = _verdict(
            inv.invariant, _mode(model.kform.exact and L.exact),
            _vtol(model.kform.exact and L.exact),
        )
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
    outdir = _outdir(args)
    artifacts = []
    if outdir is None:
        payload["gamma"] = P.gamma
    else:
        path = outdir / "product.json"
        fileio.write_json(path, {"gamma": P.gamma, "mode": rep.mode})
        artifacts.append(str(path))
    return payload, artifacts, 0


def _cmd_curvature(args):
    model = _resolve_model(args, need_metric=True)
    P = levi_civita(model.L, model.metric)
    R = curvature(P)
    worst = R.max_abs()
    tol = 0 if R.exact else args.tol
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
    outdir = _outdir(args)
    artifacts = []
    if outdir is None:
        payload["r"] = R.r
    else:
        path = outdir / "curvature.json"
        fileio.write_json(path, {"r": R.r, "mode": _mode(R.exact)})
        artifacts.append(str(path))
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
    artifacts = _write_trajectory(traj, _outdir(args), "geodesic", args.format)
    return payload, artifacts, 0 if traj.status.completed else 2


def _cmd_jacobi(args):
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
    artifacts = _write_trajectory(traj, _outdir(args), "jacobi", args.format)
    return payload, artifacts, 0 if traj.status.completed else 2


def _cmd_conjugate(args):
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
    outdir = _outdir(args)
    artifacts = []
    if outdir is None:
        payload["document"] = doc
    else:
        stem = "algebra"
        if model.entry is not None:
            stem = "".join(
                ch if ch.isalnum() or ch in "._-" else "_" for ch in model.entry.name
            ).strip("_")
        path = outdir / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        artifacts.append(str(path))
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
        if det(cand, True) != 0:
            return tuple(tuple(row) for row in cand)


def _cmd_family_sweep(args):
    m = args.dimv
    if m < 1:
        raise ParseError(f"--dimv must be at least 1, got {m}")
    # the algebra first: it rejects a dimension with no volume form before
    # any m x m sample is drawn
    L, _ = build_two_step(TwoStepSpec(m, "volume"))
    phis = []
    if args.input:
        try:
            doc = json.loads(Path(args.input).read_text())
        except OSError as e:
            raise ParseError(f"cannot read {args.input}: {e}") from None
        except json.JSONDecodeError as e:
            raise ParseError(f"{args.input}: line {e.lineno}: {e.msg}") from None
        if not isinstance(doc, list):
            raise ParseError("phi sample file must be a JSON list of matrices")
        for idx, rows in enumerate(doc):
            if not isinstance(rows, list) or len(rows) != m or any(
                not isinstance(r, list) or len(r) != m for r in rows
            ):
                raise ParseError(f"sample {idx} is not a {m}x{m} matrix")
            phis.append(
                tuple(
                    tuple(Fraction(v) if isinstance(v, (int, str)) else float(v) for v in row)
                    for row in rows
                )
            )
        source = {"path": str(args.input), "sha256": fileio.sha256_file(args.input)}
    else:
        rng = random.Random(args.rng_seed)
        phis = [_random_phi(rng, m) for _ in range(args.trials)]
        source = {"generated": {"trials": args.trials, "rng_seed": args.rng_seed}}

    rows = []
    all_flat = True
    worst_mode = "exact"
    for idx, phi in enumerate(phis):
        _, metric, inv = two_step_metric(TwoStepSpec(m, "volume", phi))
        rep = flatness_report(L if metric.exact else L.to_float(), metric)
        sig = signature(metric)
        all_flat = all_flat and rep.flat
        if rep.mode != "exact":
            worst_mode = rep.mode
        rows.append(
            {
                "sample": idx,
                "phi": phi,
                "flat": rep.flat,
                "signature": {
                    "positive": sig.positive,
                    "negative": sig.negative,
                    "zero": sig.zero,
                },
                "char_poly": inv.char_poly,
                "invariant_factor_degrees": inv.invariant_factor_degrees,
            }
        )
    payload = {
        "input": source,
        "dimv": m,
        "mode": worst_mode,
        "table": rows,
        "verdicts": {
            "all_flat": _verdict(all_flat, worst_mode, 0 if worst_mode == "exact" else args.tol),
        },
    }
    artifacts = []
    outdir = _outdir(args)
    if outdir is not None:
        if args.format == "csv":
            path = outdir / "family_sweep.csv"
            lines = ["sample,flat,positive,negative,zero,char_poly,invariant_factor_degrees,phi"]
            for row in rows:
                cp = ";".join(scalars.fmt(v) for v in row["char_poly"])
                degs = ";".join(str(v) for v in row["invariant_factor_degrees"])
                flat_phi = ";".join(
                    scalars.fmt(v) for r in row["phi"] for v in r
                )
                sig = row["signature"]
                lines.append(
                    f"{row['sample']},{row['flat']},{sig['positive']},"
                    f"{sig['negative']},{sig['zero']},{cp},{degs},{flat_phi}"
                )
            path.write_text("\n".join(lines) + "\n")
        else:
            path = outdir / "family_sweep.json"
            fileio.write_json(path, rows)
        artifacts.append(str(path))
    return payload, artifacts, 0 if all_flat else 2


_HANDLERS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "connection": _cmd_connection,
    "curvature": _cmd_curvature,
    "flat": _cmd_flat,
    "geodesic": _cmd_geodesic,
    "jacobi": _cmd_jacobi,
    "conjugate": _cmd_conjugate,
    "probe": _cmd_probe,
    "build": _cmd_build,
    "catalog": _cmd_catalog,
    "family-sweep": _cmd_family_sweep,
}


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(_glue(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        payload, artifacts, code = _HANDLERS[args.cmd](args)
    except EngineError as e:
        report = {
            "command": ["quadlie", *argv],
            "error": {"type": type(e).__name__, "message": str(e)},
        }
        print(json.dumps(fileio.to_jsonable(report), indent=2))
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {"command": ["quadlie", *argv], **payload, "artifacts": artifacts}
    print(json.dumps(fileio.to_jsonable(report), indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
