"""quadlie's benchmark: one workload, timed end to end, every output checked.

    python3 bench/run.py --workload certify|flows|cli --seed N --seconds S --trace 0|1

Run it from anywhere inside a quadlie checkout; it imports quadlie from
the checkout's src/ and nowhere else.  It measures set-up time in fresh
interpreters, runs whole rounds of the workload until S seconds have
passed, and ends certify and flows with one pass of the cli commands.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1.  Outputs and traces go to bench/out/.  The exit code is 1
when any operation failed and 2 when the checkout has no quadlie sources.
"""

import argparse
import compileall
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
MIN_ROUNDS = 2  # every operation is timed at least twice

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import quadlie
t1 = time.perf_counter()
builds = {}
for name in sys.argv[1:]:
    s = time.perf_counter()
    quadlie.catalog(name)
    builds[name] = time.perf_counter() - s
print(json.dumps({"import_s": t1 - t0, "builds_s": builds,
                  "setup_s": time.perf_counter() - t0}))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("exact_certs_per_s", "1/s"),
    ("float_certs_per_s", "1/s"),
    ("analyses_per_s", "1/s"),
    ("probe_wall_s", "s"),
    ("scan_wall_s", "s"),
    ("trajectories_per_s", "1/s"),
    ("cli_cold_p50_s", "s"),
)

COMMANDS = ("catalog", "flat", "analyze", "geodesic", "conjugate", "probe", "family-sweep")
MODES = tuple(f"{mode}.{size}" for mode in ("exact", "binary64") for size in ("small", "large"))
PER_LAYER = (
    [("catalog.build_ms", "ms")]
    + [(f"{name}_ms", "ms") for name in (
        "algebra.validate_algebra", "algebra.structure_report", "forms.validate_form",
        "forms.check_ad_invariance", "forms.signature", "constructions.build_two_step",
        "constructions.two_step_metric")]
    + [(f"connection.{fn}_ms.{mode}", "ms") for fn in ("levi_civita", "product_report", "curvature")
       for mode in MODES]
    + [(f"dynamics.{fn}_ms", "ms") for fn in (
        "completeness_probe", "conjugate_scan", "integrate_geodesic", "integrate_jacobi")]
    + [("dynamics.mesh_points", "count"), ("dynamics.field_evals", "count"),
       ("dynamics.us_per_eval", "us"), ("fileio.parse_algebra_file_ms", "ms"),
       ("fileio.serialize_algebra_ms", "ms"), ("cli.import_s", "s")]
    + [(f"cli.command_s.{c}", "s") for c in COMMANDS]
    + [("src.lines", "count")]
)

# operation kinds behind each throughput or wall metric: library calls on
# certify and flows, commands on cli
KINDS = {
    "exact_certs_per_s": ("exact_cert", "cli.exact"),
    "float_certs_per_s": ("float_cert", "cli.float"),
    "analyses_per_s": ("analysis", "cli.analysis"),
    "probe_wall_s": ("probe", "cli.probe"),
    "scan_wall_s": ("scan", "cli.scan"),
    "trajectories_per_s": ("trajectory", "cli.trajectory"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("certify", "flows", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def end_to_end(workload, run, setups, rounds):
    """Durations are in reference seconds (speed.py); rates count every
    pass of every operation of the rounds."""
    done = run.seconds("round")
    cli_side = 1 if workload == "cli" else 0
    out = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
    for metric, kinds in KINDS.items():
        times = [s for kind, s in done if kind == kinds[cli_side]]
        out[metric] = len(times) / sum(times) if metric.endswith("_per_s") else sum(times) / rounds
    commands = run.seconds("round" if workload == "cli" else "cold")
    out["cli_cold_p50_s"] = statistics.median(s for kind, s in commands if kind.startswith("cli."))
    return out


def per_layer(run, setups, imports):
    values = {
        "catalog.build_ms": 1e3 * statistics.median(s["builds_s"] for s in setups),
        "dynamics.mesh_points": run.first_round["mesh_points"],
        "dynamics.field_evals": run.first_round["field_evals"],
        "dynamics.us_per_eval": run.us_per_eval(),
        "cli.import_s": statistics.median(imports),
        "src.lines": src_lines(),
    }
    for name, unit in PER_LAYER:
        if name not in values:
            # command spans time child interpreters
            seconds = (run.starts if name.startswith("cli.") else run.clock).reference
            median = run.rec.median(name, seconds)
            values[name] = None if median is None else median * (1e3 if unit == "ms" else 1)
    missing = [name for name, _ in PER_LAYER if values[name] is None]
    if missing:
        raise RuntimeError(f"workload made no call for {missing}")
    return values


def child(starts, code, args=()):
    """stdout, wall seconds and the wall-to-reference scale of a fresh
    interpreter that must succeed, timed between two reference starts."""
    if starts.idle(1.0):
        starts.sample()
    start = perf_counter()
    status, out, err, _ = commands.run_child(ROOT, code, args)
    end = perf_counter()
    starts.sample()
    if status != 0:
        raise RuntimeError(f"child interpreter failed:\n{err}")
    return out, end - start, starts.reference(start, end) / (end - start)


def overhead_lines(workload, seed, traced):
    """Traced end-to-end figures against the untraced run of the same
    workload, the same seed when there is one."""
    runs = sorted(OUT.glob(f"{workload}-seed*-trace0.json"), key=lambda p: p.stat().st_mtime)
    same = OUT / f"{workload}-seed{seed}-trace0.json"
    if same.exists():
        runs.append(same)
    if not runs:
        return ["tracing overhead: no untraced run of this workload in bench/out to compare"]
    base = json.loads(runs[-1].read_text())
    lines = [f"tracing overhead against {runs[-1].name} (traced / untraced - 1):"]
    for name, unit in END_TO_END:
        b = base["metrics"][name]["value"]
        lines.append(f"  {name:<22} {traced[name]:>12.6g} vs {b:>12.6g} {unit:<4} "
                     f"{100 * (traced[name] / b - 1):+6.1f}%")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "quadlie" / "__init__.py").is_file():
        print(f"bench: no quadlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)  # commands start from bytecode, as installed
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Recorder
    from speed import kernel_clock, pin_to_one_core, start_clock

    pin_to_one_core()
    clock, starts = kernel_clock(), start_clock(lambda code: commands.run_child(ROOT, code))
    from workloads import ENTRIES  # noqa: E402  (imports quadlie after src/ is on the path)

    # set-up: import plus the first build of each catalog entry, cold; the
    # child times itself, and its wall time gives the reference scale
    setups, imports = [], []
    for _ in range(SETUP_SAMPLES):
        out, _, scale = child(starts, SETUP_CODE, ENTRIES[args.workload])
        probe = json.loads(out)
        setups.append({"setup_s": probe["setup_s"] * scale,
                       "builds_s": sum(probe["builds_s"].values()) * scale})
    if args.trace:
        for _ in range(IMPORT_SAMPLES):
            _, wall, scale = child(starts, "import quadlie")
            imports.append(wall * scale)

    from ops import RoundFailed, Run
    from workloads import WORKLOADS

    rec = Recorder(args.trace == 1)
    run = Run(rec, clock, starts)
    outdir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    rounds = 0
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, outdir, run)
        start = perf_counter()
        while rounds < MIN_ROUNDS or perf_counter() - start < args.seconds:
            run.begin("round", rounds, repeat=rounds > 0 and not wl.fresh_rounds)
            wl.round(rounds)
            if rounds == 0:
                run.first_round["field_evals"] = run.evals
            rounds += 1
        if args.workload != "cli":
            run.begin("cold", 0)
            wl.command_pass()
    except RoundFailed:
        pass

    correct = not run.failures
    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds, "
          f"{len(run.ops)} operations attempted, {len(run.failures)} failed")
    print(f"src/ line count: {src_lines()}")
    for kind in sorted({op[0] for op in run.ops}):
        mine = [op[2] - op[1] for op in run.ops if op[0] == kind]
        print(f"  {kind:<18} {len(mine):>5} operations {sum(mine):>9.3f} s wall")
    metrics = {}
    if correct:
        e2e = end_to_end(args.workload, run, setups, rounds)
        for name, unit in END_TO_END:
            print(f"  {name:<32} {e2e[name]:>14.6g} {unit}")
        if args.trace:
            layers = per_layer(run, setups, imports)
            for name, unit in PER_LAYER:
                print(f"  {name:<32} {layers[name]:>14.6g} {unit}")
            for line in overhead_lines(args.workload, args.seed, e2e):
                print(line)
            rec.dump(OUT / f"{args.workload}-seed{args.seed}.trace.json")
            metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
        else:
            metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    result = {"correct": correct, "attempted": len(run.ops), "failed": len(run.failures),
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
