"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 \
        [--workloads goldens,degree_sweep] [--traced-seed 1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and prints for each end-to-end metric the median, the quartiles and the
quartile spread as a share of the median (``statistics.quantiles`` with
n=4).  With ``--traced-seed`` it adds one traced run per workload.
``--out`` writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
               if ln.startswith("environment "))
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace,
                  process_s=elapsed, environment=env, log=lines[:-1],
                  known_failures=[ln.split(": ", 1)[1] for ln in lines
                                  if ln.startswith("known failure: ")])
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, unit in bench.END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": unit, "median": statistics.median(values),
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    return out


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            r = one_run(workload, seed, args.seconds, 0)
            runs.append(r)
            print(f"{workload} seed {seed}: process {r['process_s']:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.6g}"
                              for k, v in r["metrics"].items()), flush=True)
        entry = {"runs": runs}
        if len(runs) >= 2:
            entry["summary"] = summarise(runs)
            for name, s in entry["summary"].items():
                print(f"  {name}: median {s['median']:.6g} {s['unit']}, "
                      f"spread {s['spread']:.4f}", flush=True)
        if args.traced_seed is not None:
            entry["traced"] = one_run(workload, args.traced_seed,
                                      args.seconds, 1)
            print(f"{workload} traced: process "
                  f"{entry['traced']['process_s']:.1f} s", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
