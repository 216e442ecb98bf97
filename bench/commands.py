"""The `quadlie` commands the benchmark runs, each in a fresh interpreter.

Commands run one at a time, so a run never holds more than one child
process.  Each command's stdout must parse as strict JSON, its exit code
must be the one its expected verdict requires, and its verdicts and
numbers pass the same references as the library operations.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import gen
from checks import require

# Scan windows (0, W] with integer W and a power-of-two grid: the grid
# points a + (b - a) i / grid are then exact, and the last one is b itself
# (see the FOUND line on conjugate_scan in CHANGES.md).  With x_-1 in
# [0.95, 1.05] no conjugate time lies within 0.7 of either end.
SCAN_WINDOWS = {"oscillator(1)": ((0, 16), 64), "oscillator(1,2)": ((0, 14), 128)}

# what the `quadlie` console script runs
ENTRY = "import sys; from quadlie.cli import main; sys.exit(main())"
TIMEOUT = 60


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def run_child(root, code, args=()):
    """(exit code, stdout, stderr, wall seconds) of one fresh interpreter."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=root, env=child_env(root),
        capture_output=True, text=True, timeout=TIMEOUT,
    )
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - start


def _vec(labels, values):
    return ",".join(f"{lab}:{v!r}" for lab, v in zip(labels, values))


class Command:
    def __init__(self, name, argv, exit_code, check, kind):
        self.name = name  # the quadlie subcommand
        self.argv = argv
        self.exit_code = exit_code
        self.check = check  # payload -> None, raises CheckFailed
        self.kind = kind  # which end-to-end metric the command feeds


def plan(docs, rng):
    """The commands of one pass, from the run's documents and rng.

    docs maps "exact6", "exact10" and "float6" to workloads.Doc.
    """
    cmds = []

    def add(argv, exit_code, check, kind):
        cmds.append(Command(argv[0], argv, exit_code, check, kind))

    def models(p):
        names = [m["name"] for m in p["models"]]
        for family in ("e2-motion", "oscillator", "dim4-b", "dim5-nilpotent", "a-d-double"):
            require(any(n.startswith(family) for n in names), f"catalog lacks {family}")

    add(["catalog"], 0, models, "other")

    def flat(expected, mode):
        def check(p):
            require(p["mode"] == mode, f"mode {p['mode']}, expected {mode}")
            v = p["verdicts"]
            require(v["flat"]["value"] is expected, f"flat is {v['flat']['value']}, expected {expected}")
            require(v["torsion_ok"]["value"] and v["metric_compatible"]["value"],
                    "torsion or compatibility denied")
            if mode == "exact":
                residual = Fraction(str(p["residuals"]["max_residual"]))
                require((residual == 0) is expected, "residual contradicts verdict")
        return check

    add(["flat", "--catalog", "e2-motion"], 0, flat(True, "exact"), "exact")
    add(["flat", "--input", str(docs["exact6"].path)], 0, flat(True, "exact"), "exact")
    add(["flat", "--input", str(docs["float6"].path)], 2, flat(False, "binary64"), "float")

    def analyze_two_step(p):
        s = p["structure"]
        require(s["center_dim"] == 3 and s["derived_dim"] == 3 and s["nilpotency_class"] == 2,
                f"two-step structure {s}")
        require(s["unimodular"] and p["verdicts"]["ad_invariant"]["value"], "unimodular, ad-invariant")
        sig = p["metric_signature"]
        require((sig["positive"], sig["negative"], sig["zero"]) == (3, 3, 0), f"signature {sig}")

    def analyze_dim5(p):
        s = p["structure"]
        require(s["nilpotency_class"] == 3, f"dim5-nilpotent class {s['nilpotency_class']}")
        require(s["unimodular"] and p["verdicts"]["ad_invariant"]["value"], "unimodular, ad-invariant")

    add(["analyze", "--input", str(docs["exact6"].path)], 0, analyze_two_step, "analysis")
    add(["analyze", "--catalog", "dim5-nilpotent"], 0, analyze_dim5, "analysis")

    # geodesics: the e2 rotation and the line of a flat phi metric
    def geodesic(source, labels, x0, closed_form, G, span=10.0):
        def check(p):
            require(p["status"]["kind"] == "completed", f"status {p['status']}")
            require(checks.close(p["final_state"], closed_form(span), 1e-8),
                    "final state off the closed form")
            checks.check_energy(G, [x0, p["final_state"]])

        add(["geodesic", *source, f"--x={_vec(labels, x0)}", f"--span=0:{span!r}"], 0, check,
            "trajectory")

    x0 = (rng.uniform(-1, 1), rng.uniform(-1, 1), gen.signed(rng, 0.9, 1.1))
    geodesic(["--catalog", "e2-motion"], ("e1", "e2", "e3"), x0,
             lambda t: checks.e2_state(x0, t), [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    flat6, xf = docs["exact6"], gen.uniform_vector(rng, 6)
    geodesic(["--input", str(flat6.path)], flat6.labels, xf, flat6.model.line(xf), flat6.G)

    # conjugate times of oscillator(1) on two geodesics
    window, grid = SCAN_WINDOWS["oscillator(1)"]
    labels = ("e-1", "e0", "e1", "f1")
    for _ in range(2):
        xo = gen.oscillator_seed(rng, 4)
        expected = checks.oscillator_roots(xo[0], [1.0], window)

        def conj(p, expected=expected):
            checks.check_roots([r["t"] for r in p["roots"]], expected)
            require(p["candidates"]["halved_period_discrepancy"], "halved periods not rejected")

        add(["conjugate", "--catalog", "oscillator", "--lambda", "1", f"--x={_vec(labels, xo)}",
             f"--window={window[0]}:{window[1]}", "--grid", str(grid)], 0, conj, "scan")

    # probe: a flat phi metric is complete
    xp = gen.uniform_vector(rng, 6)

    def complete(p):
        (res,) = p["results"]
        require(res["forward"]["kind"] == "completed" and res["backward"]["kind"] == "completed",
                f"flat metric incomplete: {res}")
        require(p["verdicts"]["complete_on_span"]["value"], "complete_on_span denied")

    add(["probe", "--input", str(docs["exact6"].path), f"--x={_vec(docs['exact6'].labels, xp)}",
         "--span=-50:50"], 0, complete, "probe")

    def sweep(p):
        require(p["verdicts"]["all_flat"]["value"], "sweep not flat")
        for row in p["table"]:
            phi = [[Fraction(v) for v in r] for r in row["phi"]]
            require(row["flat"], f"sample {row['sample']} not flat")
            sig = row["signature"]
            require((sig["positive"], sig["negative"], sig["zero"]) == (3, 3, 0), f"signature {sig}")
            cp = tuple(Fraction(v) for v in row["char_poly"])
            require(cp == checks.charpoly(phi), f"sample {row['sample']} characteristic polynomial")

    add(["family-sweep", "--dimv", "3", "--trials", "2", "--rng-seed",
         str(rng.randrange(10**6))], 0, sweep, "other")
    return cmds


def run_command(run, root, cmd):
    """One command as one operation: its output is (exit code, stdout)."""
    stderr = {}

    def execute():
        code, out, err, _ = run.rec.call(f"cli.command_s.{cmd.name}", run_child, root, ENTRY, cmd.argv)
        stderr["text"] = err
        return code, out

    def check(res):
        code, out = res
        payload = checks.parse_report(out)
        checks.check_exit(code, cmd.exit_code, stderr["text"])
        cmd.check(payload)

    run.op(f"cli.{cmd.kind}", execute, check, child=True)
