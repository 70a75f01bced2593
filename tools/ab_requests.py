"""Size a gain: run one benchmark workload on two checkouts in one
process, in alternating pairs of passes.

Usage (from anywhere):

    python3 tools/ab_requests.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are checkouts of this repository.  Each one's
``src/compspec`` is imported under its own package name
(``compspec_parent``, ``compspec_change``), so both are loaded side by
side.  The batch is the one ``perfbench/run.py`` builds for the
workload: its ``WORKLOADS`` and ``run_pass``, imported from this
checkout and not changed, so every answer is checked as the benchmark
checks it.  After one untimed warm-up pass per tree, each of the N
pairs runs one pass on each tree, and the tree that goes first
alternates from pair to pair.  The output gives each side's median
pass time with its quartiles, the median over pairs of the ratio
change / parent, and the number of pairs each side won.  The exit
status is 1 when a request gives an unexpected answer on either tree.

Both trees run on the same machine state, pair by pair.  On a shared
vCPU whose speed drifts between separate runs, paired passes in one
process resolve smaller differences than separate benchmark runs do.
The tool sizes a gain while a change is written.  The evidence for a
claim stays a committed ``BENCH_*.json`` from ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)

SIDES = ("parent", "change")


def load(tree: Path, name: str):
    """Import tree/src/compspec as the package ``name``, with its CLI."""
    init = tree / "src" / "compspec" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_requests: no compspec sources under {tree}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")
    return pkg


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True,
                   choices=sorted(bench.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    trees = {side: load(getattr(args, side).resolve(), f"compspec_{side}")
             for side in SIDES}
    tally = {side: bench.Tally() for side in SIDES}
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        reqs = bench.WORKLOADS[args.workload](Path(tmp), args.seed)
        for side in SIDES:
            bench.run_pass(trees[side], reqs, bench.Tally())   # warm-up
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                (t0, t1), _, _ = bench.run_pass(trees[side], reqs,
                                                tally[side])
                times[side].append(t1 - t0)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{len(reqs)} requests")
    for side in SIDES:
        q1, med, q3 = statistics.quantiles(times[side], n=4)
        t = tally[side]
        print(f"{side}: median {1e3 * med:.3f} ms (q1 {1e3 * q1:.3f}, "
              f"q3 {1e3 * q3:.3f}); failed {t.failed}/{t.attempted}")
        for label in t.unexpected[:5]:
            print(f"  UNEXPECTED: {label}")
    ratios = [c / q for q, c in zip(times["parent"], times["change"])]
    won = sum(r < 1.0 for r in ratios)
    lost = sum(r > 1.0 for r in ratios)
    print(f"change / parent: median {statistics.median(ratios):.4f}; "
          f"change won {won}, parent won {lost} of {args.pairs}")
    return 1 if any(tally[s].unexpected for s in SIDES) else 0


if __name__ == "__main__":
    sys.exit(main())
