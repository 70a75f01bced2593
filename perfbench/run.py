"""compspec benchmark: four workloads against the in-process CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload goldens --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  One request is one
``compspec.cli.main([...])`` call that writes its output into a scratch
directory inside the checkout; the next request starts when it returns.
OpenBLAS and OpenMP are pinned to one thread.  The workload seed only
shapes the generated documents, which are all the library sees.

A pass runs the workload's fixed batch of requests; passes repeat until
``--seconds`` would be exceeded (at least one pass).  Every answer is
checked against its expected outcome after its pass, outside the timed
region.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the run first times untraced passes, then
traced ones, and reports per-layer metrics per pass.

End-to-end times are given at a reference machine speed (ProbedClock):
a timer samples a fixed probe kernel every 20 ms, and each timed
interval is scaled by the probes around it, so that the speed swings of
a shared vCPU cancel.  The unscaled pass time is printed as well.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # before numpy is imported anywhere

import argparse
import bisect
import cmath
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_NAMES = ("lollipop", "two_cycle", "eight_point", "square_root")

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import numpy  # noqa: E402  (after the thread pinning above)

SETUP_REPEATS = 11
TRUNCATE_ORDER = 64
REGION_TOL = 1e-8
LEMMA_SUITES = [("fl", 2, 16), ("ta", 2, 16), ("cta", 5, 24),
                ("lip", 2, 16), ("n2c", 2, 16), ("rsm", 5, 24),
                ("flc", 4, 24)]
LEMMA_TRIALS = 200
# each suite is sent as this many requests, so that a run holds >= 100
# requests and the p90 has >= 10 samples beyond it
LEMMA_SPLIT = 4

END_TO_END = [("wall_s", "s"), ("doc_ms_p50", "ms"), ("doc_ms_p90", "ms"),
              ("ok_frac", "fraction"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("symbol.self_ms", "ms"), ("symbol.contact_points_calls", "count"),
    ("symbol.contact_points_per_doc", "ratio"),
    ("symbol.second_order_data_calls", "count"),
    ("symbol.certify_s2_calls", "count"), ("symbol.denjoy_wolff_ms", "ms"),
    ("symbol.construct_ms", "ms"), ("symbol.contact_points_ms", "ms"),
    ("kernel.self_ms", "ms"), ("kernel.polyval_calls", "count"),
    ("kernel.polyder_calls", "count"), ("kernel.polyroots_calls", "count"),
    ("kernel.polyroots_ms", "ms"), ("kernel.eig_calls", "count"),
    ("kernel.eig_ms", "ms"), ("kernel.factor_calls", "count"),
    ("kernel.factor_ms", "ms"),
    ("dynamics.self_ms", "ms"), ("dynamics.partition_calls", "count"),
    ("spectrum.self_ms", "ms"), ("spectrum.synthesize_calls", "count"),
    ("mobius.self_ms", "ms"),
    ("cli.self_ms", "ms"), ("cli.out_bytes", "bytes"),
    ("cli.exit_nonzero", "count"),
    ("render.self_ms", "ms"), ("render.svg_bytes", "bytes"),
    ("algebra_lab.self_ms", "ms"), ("algebra_lab.truncation_ms", "ms"),
    ("algebra_lab.make_family_calls", "count"),
    ("algebra_lab.make_family_ms", "ms"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Request:
    """One CLI call and the outcome it must produce."""

    label: str
    argv: list
    expected: dict
    out: Path | None = None
    svg: Path | None = None
    family: str = ""


# ----------------------------------------------------------------------
# expected outcomes
# ----------------------------------------------------------------------

def _golden_expected(report: dict) -> dict:
    part = report["partition"]
    return {
        "exit": 0, "type_class": report["type_class"],
        "contacts": len(report["certification"]["checks"]),
        "omega": report["denjoy_wolff"]["omega"], "rho": report["rho"],
        "essential": report["essential"], "full": report["full"],
        "partition": _partition_shape(part),
        "essential_norm_sq": report["essential_norm_sq"],
    }


def _partition_shape(part: dict) -> list:
    return [len(part["iterate_out"]),
            sorted(len(c["points"]) for c in part["cycles"]),
            sorted(len(v) for v in part["lead_ins"].values())]


def _region(cs, prims: list):
    out = []
    for p in prims:
        (key, val), = p.items()
        if key == "disk":
            out.append(cs.Disk(float(val)))
        elif key == "spiral":
            out.append(cs.Spiral(complex(*val)))
        elif key == "points":
            out.append(cs.Points(tuple(complex(*v) for v in val)))
        elif key == "tail":
            out.append(cs.GeometricTail(complex(*val)))
        else:
            raise ValueError(f"unknown primitive {key!r}")
    return cs.region(*out)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REGION_TOL * max(1.0, abs(b))


def _same_region(cs, got: list, want: list) -> bool:
    return cs.region_equal(_region(cs, got), _region(cs, want), REGION_TOL)


def check(cs, req: Request, code: int) -> bool:
    """True when the request produced its expected outcome."""
    exp = req.expected
    if code != exp["exit"]:
        return False
    cmd = req.argv[0]
    if code == 1:
        return req.out is None or not req.out.exists()
    doc = json.loads(req.out.read_text(encoding="utf-8"))
    if code == 2:
        return doc.get("accepted") is False
    if cmd == "lemma-check":
        return doc["passed"] is True and doc["failing_seeds"] == []
    if cmd == "truncate":
        vals = [complex(*v) for v in doc["eigenvalues"]]
        ok = (len(vals) == TRUNCATE_ORDER
              and all(math.isfinite(abs(v)) for v in vals))
        if "full" in exp:
            return ok and _same_region(cs, doc.get("predicted_full", []),
                                       exp["full"])
        return ok and "no_prediction" in doc.get("diagnostics", {})
    if cmd == "classify":
        return (doc["type_class"] == exp["type_class"]
                and abs(complex(*doc["denjoy_wolff"]["omega"])
                        - complex(*exp["omega"])) <= REGION_TOL)
    if cmd == "boundary":
        return (len(doc["contact_set"]) == exp["contacts"]
                and doc["certification"]["accepted"] is True)
    ok = (_close(doc["rho"], exp["rho"])
          and _same_region(cs, doc["essential"], exp["essential"])
          and _same_region(cs, doc["full"], exp["full"]))
    if cmd == "spectrum":
        return ok
    ok = (ok and doc["accepted"] is True
          and doc["type_class"] == exp["type_class"]
          and len(doc["certification"]["checks"]) == exp["contacts"])
    if "partition" in exp:
        ok = (ok and _partition_shape(doc["partition"]) == exp["partition"]
              and _close(doc["essential_norm_sq"], exp["essential_norm_sq"]))
    if req.svg is not None:
        ok = ok and req.svg.read_bytes().startswith(b"<?xml")
    return ok


def known_failure(req: Request, code: int) -> bool:
    """The seed's known defect: the sampled self-map check accepts a
    narrow bump that leaves the disk (exit 0 where exit 1 is right)."""
    return req.family == "bump" and code == 0


# ----------------------------------------------------------------------
# workloads: each returns the fixed batch of one pass
# ----------------------------------------------------------------------

def _write(tmp: Path, name: str, doc: dict) -> Path:
    path = tmp / f"{name}.symbol.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _goldens():
    out = []
    for name in GOLDEN_NAMES:
        doc = json.loads((GOLDEN / f"{name}.symbol.json").read_text())
        report = json.loads((GOLDEN / f"{name}.report.json").read_text())
        out.append((name, doc, _golden_expected(report)))
    return out


def build_goldens(tmp: Path, seed: int) -> list[Request]:
    reqs = []
    for name, doc, exp in _goldens():
        path = _write(tmp, name, doc)
        out, svg = tmp / f"{name}.report.json", tmp / f"{name}.svg"
        reqs.append(Request(name, ["analyze", str(path), "--out", str(out),
                                   "--svg", str(svg)], exp, out, svg))
    return reqs


def build_degree_sweep(tmp: Path, seed: int) -> list[Request]:
    reqs = []
    for i, (family, k, doc, exp) in enumerate(gen.batch(gen.SWEEP, seed)):
        name = f"{i:03d}-{family}-{k}"
        path = _write(tmp, name, doc)
        out, svg = tmp / f"{name}.report.json", tmp / f"{name}.svg"
        reqs.append(Request(name, ["analyze", str(path), "--out", str(out),
                                   "--svg", str(svg)], exp, out, svg,
                            family))
    return reqs


def _projection_requests(tmp: Path, name: str, doc: dict, exp: dict,
                         family: str) -> list[Request]:
    path = _write(tmp, name, doc)
    reqs = []
    for cmd in ("classify", "boundary", "spectrum"):
        out = tmp / f"{name}.{cmd}.json"
        reqs.append(Request(f"{name}:{cmd}", [cmd, str(path), "--out",
                                              str(out)], exp, out,
                            family=family))
    if doc["kind"] == "rational":
        out = tmp / f"{name}.truncate.json"
        texp = {"exit": 0}
        if exp["exit"] == 0:
            texp["full"] = exp["full"]
        reqs.append(Request(f"{name}:truncate",
                            ["truncate", str(path), "--order",
                             str(TRUNCATE_ORDER), "--out", str(out)],
                            texp, out, family=family))
    return reqs


def build_projections(tmp: Path, seed: int) -> list[Request]:
    reqs = []
    for name, doc, exp in _goldens():
        reqs += _projection_requests(tmp, name, doc, exp, "golden")
    for i, (family, k, doc, exp) in enumerate(
            gen.batch(gen.PROJECTION_SLICE, seed)):
        reqs += _projection_requests(tmp, f"{i:03d}-{family}-{k}", doc, exp,
                                     family)
    return reqs


def build_lemma_lab(tmp: Path, seed: int) -> list[Request]:
    reqs = []
    trials = LEMMA_TRIALS // LEMMA_SPLIT
    for lemma, n, order in LEMMA_SUITES:
        for j in range(LEMMA_SPLIT):
            name = f"{lemma}-{j}"
            out = tmp / f"{name}.json"
            reqs.append(Request(name, [
                "lemma-check", "--lemma", lemma, "--n", str(n), "--order",
                str(order), "--trials", str(trials),
                "--seed", str(LEMMA_SPLIT * seed + j), "--out", str(out)],
                {"exit": 0}, out))
    return reqs


WORKLOADS = {
    "goldens": build_goldens,
    "degree_sweep": build_degree_sweep,
    "projections": build_projections,
    "lemma_lab": build_lemma_lab,
}


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------

# bound before any tracer can wrap them
_POLY = numpy.polynomial.polynomial
_POLYMUL, _POLYSUB, _POLYDER, _POLYVAL = (_POLY.polymul, _POLY.polysub,
                                          _POLY.polyder, _POLY.polyval)
_PROBE_A = numpy.arange(1, 18) * (1 + 0.5j) / 17
_PROBE_B = numpy.arange(17, 0, -1) * (0.3 - 0.2j) / 17
PROBE_EVERY_S = 0.02
# a timed interval is scaled by the probes within this margin of it
PROBE_WINDOW_S = 0.05
# mean probe time at the reference speed: a quiet 2-vCPU x86-64 KVM guest
# with Python 3.11 and numpy 2.4
REFERENCE_PROBE_S = 4.0e-4


def _probe_kernel() -> complex:
    """Fixed work in the symbol layer's own mix: Python-level calls into
    numpy's small-polynomial routines, as in the derivative numerator
    N'D - ND' and its evaluation."""
    acc = 0j
    for i in range(5):
        u = _POLYSUB(_POLYMUL(_POLYDER(_PROBE_A), _PROBE_B),
                     _POLYMUL(_PROBE_A, _POLYDER(_PROBE_B)))
        acc += _POLYVAL(0.9 * cmath.exp(0.3j * i), u)
    return acc


class PlainClock:
    """Wall clock; a duration is the plain difference."""

    now = staticmethod(time.perf_counter)

    def duration(self, t0: float, t1: float) -> float:
        return t1 - t0


class ProbedClock(PlainClock):
    """A clock that samples the machine's speed while it runs.

    On shared vCPUs the same code runs up to ~1.6x slower while a
    co-tenant loads the core; that state flips within a second and its
    share drifts over tens of seconds, far more than the run-to-run noise
    of the program.  Every PROBE_EVERY_S an interval timer runs a fixed
    kernel that does not touch compspec and times it.  The kernel's time
    is taken out of now(), so it never counts toward a request, and
    duration() scales an interval by the reference probe time over the
    mean time of the probes around it: seconds at the reference speed.
    """

    def __init__(self):
        self.at: list[float] = []      # probe start, on the now() scale
        self.took: list[float] = []
        self._stolen = 0.0
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self._stolen

    def _tick(self, signum, frame):
        if self._busy:                 # a tick that lands inside a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        _probe_kernel()
        dt = time.perf_counter() - t0
        self.at.append(t0 - self._stolen)
        self.took.append(dt)
        self._stolen += dt
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        lo = bisect.bisect_left(self.at, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_WINDOW_S)
        return REFERENCE_PROBE_S / statistics.fmean(self.took[lo:hi]
                                                    or self.took)

    def duration(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.speed(t0, t1)


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def import_compspec():
    """Fresh import of compspec from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "compspec" or n.startswith("compspec.")]:
        del sys.modules[name]
    import compspec
    import compspec.cli
    if Path(compspec.__file__).resolve().parent != SRC / "compspec":
        raise ImportError(f"compspec imported from {compspec.__file__}")
    return compspec


def setup(workload: str, tmp: Path, seed: int, clock=PlainClock()):
    """Import compspec and make the inputs, SETUP_REPEATS times; returns
    (the time intervals, compspec package, requests)."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        for child in tmp.iterdir():
            child.unlink()
        t0 = clock.now()
        cs = import_compspec()
        reqs = WORKLOADS[workload](tmp, seed)
        intervals.append((t0, clock.now()))
    return intervals, cs, reqs


class Tally:
    """Requests attempted and failed, with the failures' labels."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []


def run_pass(cs, reqs: list[Request], tally: Tally, clock=PlainClock()):
    """Send the batch once; returns the pass's time interval, each
    request's time interval and exit codes.  Checks run after the timed
    pass."""
    main = cs.cli.main
    for r in reqs:
        for path in (r.out, r.svg):
            if path is not None and path.exists():
                path.unlink()
    req_iv, codes = [], []
    sink = io.StringIO()
    now = clock.now
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t_pass = now()
        for r in reqs:
            t0 = now()
            try:
                code = main(r.argv)
            except Exception as exc:   # an uncaught library error
                code = f"uncaught {type(exc).__name__}: {exc}"
            req_iv.append((t0, now()))
            codes.append(code)
            sink.seek(0)
            sink.truncate()
        pass_iv = (t_pass, now())
    for r, code in zip(reqs, codes):
        tally.attempted += 1
        try:
            ok = isinstance(code, int) and check(cs, r, code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok, code = False, f"check error {type(exc).__name__}: {exc}"
        if ok:
            continue
        tally.failed += 1
        (tally.known if known_failure(r, code)
         else tally.unexpected).append(f"{r.label}: {code}")
    return pass_iv, req_iv, codes


def run_passes(cs, reqs, budget_s: float, tally: Tally, clock=PlainClock()):
    """Whole passes until the next one would overrun budget_s; returns
    the pass intervals and, per pass, request intervals and exit codes."""
    passes, req_iv, codes = [], [], []
    start = time.perf_counter()
    while True:
        p, rs, cs_ = run_pass(cs, reqs, tally, clock)
        passes.append(p)
        req_iv.append(rs)
        codes.append(cs_)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(b - a for a, b in passes) > budget_s:
            return passes, req_iv, codes


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(clock, passes, req_iv, tally: Tally, setup_iv) -> dict:
    """wall_s is the median pass; p50 is the median over the batch's
    requests of each one's median time, p90 the nearest-rank p90 over
    every request sent; setup_s the median set-up."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    req_s = [[clock.duration(*iv) for iv in p] for p in req_iv]
    per_request = [statistics.median(ts) for ts in zip(*req_s)]
    every = [t for rs in req_s for t in rs]
    return {
        "wall_s": statistics.median(clock.duration(*iv) for iv in passes),
        "doc_ms_p50": 1e3 * statistics.median(per_request),
        "doc_ms_p90": 1e3 * percentile(every, 0.90),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": statistics.median(clock.duration(*iv) for iv in setup_iv),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(tracer, reqs: list[Request], codes, passes_untraced,
              passes_traced) -> dict:
    n = len(passes_traced)
    selfs = tracer.self_times()
    incl = tracer.inclusive_times()
    counts = tracer.counts

    def layer_ms(layer):
        return 1e3 * sum(v for k, v in selfs.items()
                         if k.split(".", 1)[0] == layer) / n

    def calls(name):
        # every pass sends the same documents, so the total divides evenly
        q, r = divmod(counts[name], n)
        return q if r == 0 else counts[name] / n

    def ms(name, table):
        return 1e3 * table[name] / n

    symbol_reqs = sum(1 for r in reqs if r.argv[0] != "lemma-check")
    out_bytes = sum(r.out.stat().st_size for r in reqs
                    if r.out is not None and r.out.exists())
    svg_bytes = sum(r.svg.stat().st_size for r in reqs
                    if r.svg is not None and r.svg.exists())
    cp_calls = calls("symbol.contact_points")
    return {
        "symbol.self_ms": layer_ms("symbol"),
        "symbol.contact_points_calls": cp_calls,
        "symbol.contact_points_per_doc":
            cp_calls / symbol_reqs if symbol_reqs else 0.0,
        "symbol.second_order_data_calls": calls("symbol.second_order_data"),
        "symbol.certify_s2_calls": calls("symbol.certify_s2"),
        "symbol.denjoy_wolff_ms": ms("symbol.denjoy_wolff", incl),
        "symbol.construct_ms": ms("symbol.RationalSymbol.__init__", selfs),
        "symbol.contact_points_ms": ms("symbol.contact_points", incl),
        "kernel.self_ms": layer_ms("kernel"),
        "kernel.polyval_calls": calls("kernel.polyval"),
        "kernel.polyder_calls": calls("kernel.polyder"),
        "kernel.polyroots_calls": calls("kernel.polyroots"),
        "kernel.polyroots_ms": ms("kernel.polyroots", incl),
        "kernel.eig_calls": calls("kernel.eig"),
        "kernel.eig_ms": ms("kernel.eig", incl),
        "kernel.factor_calls": calls("kernel.factor"),
        "kernel.factor_ms": ms("kernel.factor", incl),
        "dynamics.self_ms": layer_ms("dynamics"),
        "dynamics.partition_calls": calls("dynamics.partition"),
        "spectrum.self_ms": layer_ms("spectrum"),
        "spectrum.synthesize_calls": calls("spectrum.synthesize"),
        "mobius.self_ms": layer_ms("mobius"),
        "cli.self_ms": layer_ms("cli"),
        "cli.out_bytes": out_bytes,
        "cli.exit_nonzero": sum(1 for c in codes[-1] if c != 0),
        "render.self_ms": layer_ms("render"),
        "render.svg_bytes": svg_bytes,
        "algebra_lab.self_ms": layer_ms("algebra_lab"),
        "algebra_lab.truncation_ms":
            ms("algebra_lab.truncation_from_coeffs", incl),
        "algebra_lab.make_family_calls": calls("algebra_lab.make_family"),
        "algebra_lab.make_family_ms": ms("algebra_lab.make_family", incl),
        "trace.overhead_s": (statistics.median(passes_traced)
                             - statistics.median(passes_untraced)),
    }


def traced_run(args, tmp: Path, tally: Tally) -> dict:
    """Untraced passes for half the time, then traced passes."""
    import tracer as tracing
    _, cs, reqs = setup(args.workload, tmp, args.seed)
    run_pass(cs, reqs[:1], Tally())                     # warm-up
    untraced, _, _ = run_passes(cs, reqs, args.seconds / 2, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, codes = run_passes(cs, reqs, args.seconds / 2, tally)
    finally:
        tracer.remove()
    return per_layer(tracer, reqs, codes, [b - a for a, b in untraced],
                     [b - a for a, b in traced])


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f'{blas.get("name")} {blas.get("version")}'
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "compspec" / "__init__.py").is_file() \
            or not GOLDEN.is_dir():
        sys.stderr.write(f"perfbench: no compspec sources under {ROOT}\n")
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        tally = Tally()
        if args.trace:
            metrics = traced_run(args, tmp, tally)
            units = dict(PER_LAYER)
        else:
            with ProbedClock() as clock:
                setup_iv, cs, reqs = setup(args.workload, tmp, args.seed,
                                           clock)
                run_pass(cs, reqs[:1], Tally(), clock)       # warm-up
                passes, req_iv, _ = run_passes(cs, reqs, args.seconds, tally,
                                               clock)
            metrics = end_to_end(clock, passes, req_iv, tally, setup_iv)
            units = dict(END_TO_END)
            print(f"passes {len(passes)}, requests {len(passes) * len(reqs)}"
                  f" ({len(reqs)} per pass); mean speed {clock.speed()} "
                  f"from {len(clock.took)} probes; unscaled wall_s "
                  f"{statistics.fmean(b - a for a, b in passes)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"failed_frac {tally.failed / tally.attempted} "
          f"({tally.failed}/{tally.attempted})")
    for label in tally.known[:5]:
        print(f"known failure: {label}")
    for label in tally.unexpected[:20]:
        print(f"UNEXPECTED: {label}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
