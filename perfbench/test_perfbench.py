"""Tests of the benchmark itself: generator, answer checks, tracer.

    python3 -m pytest perfbench -q
"""

import cmath
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

cs = bench.import_compspec()

STRUCTURAL = ("symbol.contact_points", "symbol.second_order_data",
              "symbol.certify_s2", "dynamics.partition",
              "spectrum.synthesize", "kernel.polyroots", "kernel.eig")


def symbol(doc):
    num = tuple(complex(*v) for v in doc["num"])
    den = tuple(complex(*v) for v in doc["den"])
    return cs.RationalSymbol(num, den)


def region(prims):
    return bench._region(cs, prims)


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------

def test_batch_is_a_function_of_the_seed():
    assert gen.batch(gen.SWEEP, 3) == gen.batch(gen.SWEEP, 3)
    a, b = gen.batch(gen.SWEEP, 3), gen.batch(gen.SWEEP, 4)
    assert [x[:2] for x in a] == [x[:2] for x in b] == gen.SWEEP
    assert [x[2] for x in a] != [x[2] for x in b]


def test_sweep_shape():
    assert len(gen.SWEEP) >= 100
    out = sum(1 for f, _ in gen.SWEEP if f in ("inner", "pole", "bump"))
    assert 0.2 <= out / len(gen.SWEEP) <= 0.3
    assert ("dilation", 64) in gen.SWEEP and ("bump", 64) in gen.SWEEP


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", ["dilation", "hyperbolic"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_closed_form_agrees_with_synthesize(family, k, seed):
    doc, exp = gen.batch([(family, k)], seed)[0][2:]
    rep = cs.synthesize(symbol(doc))
    assert rep.type_class.value == exp["type_class"]
    assert abs(rep.rho - exp["rho"]) <= 1e-9 * exp["rho"]
    assert abs(rep.dw.omega - complex(*exp["omega"])) <= 1e-9
    assert cs.region_equal(rep.essential, region(exp["essential"]), 1e-8)
    assert cs.region_equal(rep.full, region(exp["full"]), 1e-8)


@pytest.mark.parametrize("family,k", sorted(
    {s for s in gen.SWEEP if s[0] in ("dilation", "hyperbolic")}))
def test_expected_contact_count_at_every_degree(family, k):
    doc, exp = gen.batch([(family, k)], 5)[0][2:]
    assert exp["contacts"] == k
    assert len(cs.contact_points(symbol(doc))) == k


@pytest.mark.parametrize("k", sorted({k for f, k in gen.SWEEP
                                      if f == "bump"}))
def test_bump_leaves_the_disk(k):
    doc, exp = gen.batch([("bump", k)], 5)[0][2:]
    assert exp == {"exit": 1}
    num = np.array([complex(*v) for v in doc["num"]])
    peak = cmath.exp(-1j * math.pi / k ** 2)   # k theta = -pi/k
    assert abs(np.polynomial.polynomial.polyval(peak, num)) > 1.0 + 1e-5


def test_out_of_scope_families_raise():
    for family, error in (("inner", cs.NotInScopeError),
                          ("pole", cs.InvalidDataError),
                          ("bump", cs.InvalidDataError)):
        doc = gen.batch([(family, 4)], 5)[0][2]
        with pytest.raises(error):
            symbol(doc)


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------

def test_check_rejects_a_wrong_answer(tmp_path):
    reqs = bench.build_goldens(tmp_path, 1)
    lollipop, two_cycle = reqs[0], reqs[1]
    code = cs.cli.main(lollipop.argv)
    assert bench.check(cs, lollipop, code)
    lollipop.expected = two_cycle.expected
    assert not bench.check(cs, lollipop, code)
    assert not bench.check(cs, lollipop, 2)


def test_known_failure_is_only_an_accepted_bump():
    bump = bench.Request("b", ["analyze"], {"exit": 1}, family="bump")
    dil = bench.Request("d", ["analyze"], {"exit": 0}, family="dilation")
    assert bench.known_failure(bump, 0)
    assert not bench.known_failure(bump, "uncaught ValueError: x")
    assert not bench.known_failure(dil, 0)


def test_probed_clock_scales_by_the_nearby_probes():
    clock = bench.ProbedClock()
    ref = bench.REFERENCE_PROBE_S
    clock.at[:] = [0.0, 1.0, 2.0]
    clock.took[:] = [ref, 2 * ref, ref]
    assert clock.duration(0.9, 1.1) == pytest.approx(0.1)
    assert clock.duration(1.9, 2.1) == pytest.approx(0.2 * 1.0)
    assert clock.duration(5.0, 6.0) == pytest.approx(0.75)   # none near


def test_probe_time_is_not_counted():
    clock = bench.ProbedClock()
    t0 = clock.now()
    clock._tick(None, None)
    assert clock.now() - t0 < clock.took[0]


# ----------------------------------------------------------------------
# tracer and its counters
# ----------------------------------------------------------------------

def test_self_and_inclusive_times():
    t = tracer.Tracer()
    t.spans.extend([["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                    ["b", 2.0, 3.0, 1], ["c", 5.0, 6.0, 0]])
    assert t.self_times() == {"a": 6.0, "b": 2.0 + 1.0, "c": 1.0}
    assert t.inclusive_times() == {"a": 10.0, "b": 3.0, "c": 1.0}


def traced_counts(reqs, passes=1):
    t = tracer.Tracer()
    t.install()
    try:
        out = []
        for _ in range(passes):
            t.reset()
            bench.run_pass(cs, reqs, bench.Tally())
            out.append(dict(t.counts))
    finally:
        t.remove()
    return out


@pytest.mark.parametrize("name,contact_points,polyroots", [
    ("eight_point", 26, 28), ("lollipop", None, 14),
    ("two_cycle", None, 12), ("square_root", None, 0)])
def test_golden_analyze_counters(tmp_path, name, contact_points, polyroots):
    req = next(r for r in bench.build_goldens(tmp_path, 1)
               if r.label == name)
    first, second = traced_counts([req], passes=2)
    assert first == second
    assert first.get("kernel.polyroots", 0) == polyroots
    if contact_points is not None:
        assert first["symbol.contact_points"] == contact_points


def test_goldens_pass_counters(tmp_path):
    counts, = traced_counts(bench.build_goldens(tmp_path, 1))
    assert counts["symbol.contact_points"] == 54
    assert counts["kernel.polyroots"] == 54
    assert counts["kernel.polyval"] == 17440
    assert traced_counts(bench.build_goldens(tmp_path, 9)) == [counts]


def test_tracer_restores_the_library(tmp_path):
    before = {n: dict(vars(m)) for n, m in sys.modules.items()
              if n.startswith("compspec")}
    polyval = np.polynomial.polynomial.polyval
    traced_counts(bench.build_goldens(tmp_path, 1)[:1])
    after = {n: dict(vars(m)) for n, m in sys.modules.items()
             if n.startswith("compspec")}
    assert before == after
    assert np.polynomial.polynomial.polyval is polyval


def test_projection_counters_repeat_and_ignore_the_seed(tmp_path):
    runs = {}
    for seed, passes in ((1, 2), (2, 1)):
        (tmp_path / str(seed)).mkdir()
        runs[seed] = traced_counts(
            bench.build_projections(tmp_path / str(seed), seed), passes)
    first, second = runs[1]
    assert first == second
    assert {k: first.get(k) for k in STRUCTURAL} == \
        {k: runs[2][0].get(k) for k in STRUCTURAL}


# ----------------------------------------------------------------------
# the command's contract
# ----------------------------------------------------------------------

def bench_command(cwd, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "goldens",
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"),
                                       (1, "per_layer")])
def test_result_line(trace, key):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = bench_command(HERE.parent, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    names = bench.END_TO_END if trace == 0 else bench.PER_LAYER
    assert dict(names) == want


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_command(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
