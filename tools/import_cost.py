"""Median start-up cost of quadlie in fresh interpreters, for one or two trees.

A tree is a checkout's root, holding src/quadlie; its src/ is byte-compiled
first, as the benchmark does.  The script pins itself, and so its children,
to one core.  Each of N rounds runs, for every tree in turn (the trees'
order alternating from round to round), one fresh interpreter per case:

- ref: the benchmark's reference start, no quadlie;
- quadlie, cli, cli+dynamics: that import after the same modules;
- catalog, flat, geodesic: the quadlie command, as the console script
  runs it, on catalog models.

It prints one JSON line: per tree the median wall time of each case in
milliseconds, and each import's median less the reference start's.

    python3 tools/import_cost.py --runs 15 . ../parent
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REF = "import argparse, dataclasses, fractions, json, numpy"
ENTRY = "import sys; from quadlie.cli import main; sys.exit(main())"
CASES = {
    "ref": (REF,),
    "quadlie": (f"{REF}; import quadlie",),
    "cli": (f"{REF}; import quadlie.cli",),
    "cli+dynamics": (f"{REF}; import quadlie.cli, quadlie.dynamics",),
    "catalog": (ENTRY, "catalog"),
    "flat": (ENTRY, "flat", "--catalog", "e2-motion"),
    "geodesic": (ENTRY, "geodesic", "--catalog", "e2-motion", "--span", "0:10"),
}
IMPORTS = ("quadlie", "cli", "cli+dynamics")


def _wall(src, code, *args):
    """Wall seconds of one fresh interpreter running code with args."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="+", help="one or two checkout roots")
    p.add_argument("--runs", type=int, default=15, help="fresh interpreters per case and tree")
    args = p.parse_args()
    if len(args.trees) > 2:
        p.error("give one or two trees")
    srcs = [Path(t).resolve() / "src" for t in args.trees]
    for src in srcs:
        if not (src / "quadlie").is_dir():
            p.error(f"no quadlie sources under {src}")
        compileall.compile_dir(src, quiet=1)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    walls = {src: {case: [] for case in CASES} for src in srcs}
    for r in range(args.runs):
        for src in srcs if r % 2 == 0 else srcs[::-1]:
            for case, call in CASES.items():
                walls[src][case].append(_wall(src, *call))
    out = {"runs": args.runs, "trees": {}}
    for tree, src in zip(args.trees, srcs):
        ms = {case: round(1e3 * statistics.median(w), 1) for case, w in walls[src].items()}
        ms.update({f"{case}-ref": round(ms[case] - ms["ref"], 1) for case in IMPORTS})
        out["trees"][tree] = ms
    print(json.dumps(out))


if __name__ == "__main__":
    main()
