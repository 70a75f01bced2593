import argparse
import cmath
import json
import math
import pathlib
import re
import time
import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import compspec.symbol
from compspec.cli import build_parser, main
from conftest import count_calls, perfbench_gen

GOLDEN = pathlib.Path(__file__).parent / "golden"

EXAMPLES = ["lollipop", "two_cycle", "eight_point", "square_root"]
PROJECTIONS = ("analyze", "spectrum", "classify", "boundary")


def run(args):
    return main([str(a) for a in args])


def round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, list):
        return [round12(v) for v in obj]
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    return obj


def _write_rational(path, num, den, theta=0.0):
    """Write e^{i theta} phi(e^{-i theta} z) for phi = num/den as a
    symbol document; its contacts turn with theta."""
    w = cmath.exp(1j * theta)
    coeffs = {"num": [w * c / w ** k for k, c in enumerate(num)],
              "den": [c / w ** k for k, c in enumerate(den)]}
    path.write_text(json.dumps({"kind": "rational", **{
        key: [[complex(c).real, complex(c).imag] for c in cs]
        for key, cs in coeffs.items()}}))
    return path


# boundary-data documents, by what each one tests
_COMPACT = {
    "kind": "boundary-data", "points": [],
    "denjoy_wolff": {"omega": [0.3, 0], "derivative": [0.5, 0],
                     "location": "interior"}}
_UNCERTIFIED = {
    "kind": "boundary-data",
    "points": [{"zeta": [1, 0], "value": [1, 0], "d1": [2, 0], "d2": [0, 0]}],
    "denjoy_wolff": {"omega": [0, 0], "derivative": [0.5, 0],
                     "location": "interior"}}
_PARABOLIC_AUTOMORPHISM = {
    "kind": "boundary-data",
    "points": [{"zeta": [1, 0], "value": [1, 0],
                "d1": [1 - 9e-10, 0], "d2": [9e-10, 3]}],
    "denjoy_wolff": {"omega": [1, 0], "derivative": [1 - 9e-10, 0],
                     "location": "boundary"}}
_ATTRACTING_CYCLE = {
    "kind": "boundary-data",
    "points": [{"zeta": [1, 0], "value": [-1, 0],
                "d1": [-0.5, 0], "d2": [0, 0]},
               {"zeta": [-1, 0], "value": [1, 0],
                "d1": [-0.5, 0], "d2": [0, 0]}],
    "denjoy_wolff": {"omega": [0, 0], "derivative": [0.5, 0],
                     "location": "interior"}}
_SECOND_ATTRACTOR = {
    "kind": "boundary-data",
    "points": [{"zeta": [1, 0], "value": [1, 0],
                "d1": [0.5, 0], "d2": [0, 0]},
               {"zeta": [-1, 0], "value": [-1, 0],
                "d1": [0.25, 0], "d2": [0, 0]}],
    "denjoy_wolff": {"omega": [1, 0], "derivative": [0.5, 0],
                     "location": "boundary"}}

# data that no self-map has (the boundary Pick matrix has a negative
# eigenvalue): phi(0) = 0 forces |phi'| >= 1 at every boundary fixed
# point (Julia's lemma), and a map that is not an automorphism has at
# most one boundary fixed point with phi' <= 1
_PICK_INTERIOR_FIXED = {
    "kind": "boundary-data",
    "points": [{"zeta": [1, 0], "value": [1, 0],
                "d1": [0.5, 0], "d2": [0, 0]}],
    "denjoy_wolff": {"omega": [0, 0], "derivative": [0.5, 0],
                     "location": "interior"}}
_PICK_TWO_BOUNDARY_FIXED = {
    "kind": "boundary-data",
    "points": [{"zeta": [1, 0], "value": [1, 0],
                "d1": [0.5, 0], "d2": [0, 0]},
               {"zeta": [-1, 0], "value": [-1, 0],
                "d1": [0.7, 0], "d2": [0, 0]}],
    "denjoy_wolff": {"omega": [1, 0], "derivative": [0.5, 0],
                     "location": "boundary"}}


@pytest.mark.parametrize("name", EXAMPLES)
def test_golden_reports(name, tmp_path):
    out = tmp_path / "report.json"
    code = run(["analyze", GOLDEN / f"{name}.symbol.json", "--out", out])
    assert code == 0
    got = round12(json.loads(out.read_text()))
    want = round12(json.loads((GOLDEN / f"{name}.report.json").read_text()))
    assert got == want


@pytest.mark.parametrize("name,polyroots,contact_points", [
    ("lollipop", 3, 1), ("two_cycle", 3, 1), ("eight_point", 3, 1),
    ("square_root", 0, 0)])
def test_analyze_reduces_the_symbol_once(name, polyroots, contact_points,
                                         monkeypatch, capsys):
    # one root-finding each for the denominator, the reflection
    # polynomial and the fixed-point polynomial; nothing is recomputed
    calls = count_calls(monkeypatch, (npoly, "polyroots"),
                        (compspec.symbol, "contact_points"))
    assert run(["analyze", GOLDEN / f"{name}.symbol.json"]) == 0
    capsys.readouterr()
    assert calls == {"polyroots": polyroots,
                     "contact_points": contact_points}


def _eigvals_orders(monkeypatch) -> list:
    """The order of every np.linalg.eigvals call from here on."""
    orders = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        orders.append(len(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    return orders


@pytest.mark.parametrize("family,largest", [("dilation", 64), ("bump", 1)])
def test_companion_solves_at_true_degree(family, largest, tmp_path,
                                         monkeypatch, capsys):
    # degree 64, where D and H are polynomials in z^64 and z^128: the
    # dilation's one dense solve is of N - zD = z q(z), of degree 65,
    # at the degree 64 of q, and the bump is refused before it needs one
    orders = _eigvals_orders(monkeypatch)
    (_, _, symbol, _), = perfbench_gen().batch([(family, 64)], 1)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(symbol))
    run(["analyze", doc])
    capsys.readouterr()
    assert max(orders, default=1) == largest


def test_eight_point_solves(monkeypatch, capsys):
    # D, of degree 10, in z^2; H, of degree 20, in z^2; and N - zD, with
    # exponents 1, 3, 5, 9 and 11, as z q(z^2)
    orders = _eigvals_orders(monkeypatch)
    assert run(["analyze", GOLDEN / "eight_point.symbol.json"]) == 0
    capsys.readouterr()
    assert orders == [5, 10, 5]


@pytest.mark.parametrize("name,polyval", [
    ("lollipop", 2), ("two_cycle", 2), ("eight_point", 2),
    ("square_root", 0)])
def test_scalar_evaluation_makes_no_polyval_call(name, polyval, monkeypatch,
                                                 capsys):
    # N and D at the circle critical points of |N|^2 - |D|^2, for the
    # self-map test; every scalar evaluation is Horner's
    calls = count_calls(monkeypatch, (npoly, "polyval"))
    assert run(["analyze", GOLDEN / f"{name}.symbol.json"]) == 0
    capsys.readouterr()
    assert calls == {"polyval": polyval}


def test_report_round_trips_losslessly(tmp_path):
    out = tmp_path / "report.json"
    run(["analyze", GOLDEN / "lollipop.symbol.json", "--out", out])
    doc = json.loads(out.read_text())
    out2 = tmp_path / "again.json"
    out2.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert json.loads(out2.read_text()) == doc


def test_inner_symbol_exit_2(tmp_path, capsys):
    doc = tmp_path / "inner.json"
    doc.write_text('{"kind": "rational", "num": [[0,0],[1,0]],'
                   ' "den": [[1,0]]}')
    out = tmp_path / "report.json"
    code = run(["analyze", doc, "--out", out])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["accepted"] is False
    assert report["reason"] == "not in scope: inner symbol"


def test_uncertified_symbol_exit_2(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps(_UNCERTIFIED))
    out = tmp_path / "report.json"
    code = run(["analyze", doc, "--out", out])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["accepted"] is False
    assert report["certification"]["accepted"] is False


def test_hard_error_exit_1_no_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["analyze", tmp_path / "missing.json", "--out", out])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error" in err


def test_malformed_document_exit_1(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text('{"kind": "rational", "num": "oops", "den": [[1,0]]}')
    out = tmp_path / "report.json"
    assert run(["analyze", doc, "--out", out]) == 1
    assert not out.exists()
    assert "num" in capsys.readouterr().err


_POINT = {"zeta": [1, 0], "value": [1, 0], "d1": [0.5, 0], "d2": [0, 0]}


def test_compact_boundary_data_document(tmp_path):
    # no contact points: the operator is compact, and its spectrum is
    # {0} and the powers of phi'(omega)
    doc = tmp_path / "compact.json"
    doc.write_text(json.dumps(_COMPACT))
    out = tmp_path / "report.json"
    assert run(["analyze", doc, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["essential"] == [{"points": [[0.0, 0.0]]}]
    assert report["full"] == [{"tail": [0.5, 0.0]}]


def test_parabolic_automorphism_document(tmp_path, capsys):
    # omega = 1 with phi'(1) = 1 - 9e-10, parabolic within EPS, and
    # omega phi''(1) = 9e-10 + 3i, pure imaginary within EPS: the
    # parabolic automorphism class, outside the synthesis theorems,
    # although the point still has order-2 contact (margin 1.8e-9)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_PARABOLIC_AUTOMORPHISM))
    assert run(["classify", doc]) == 0
    classified = json.loads(capsys.readouterr().out)
    assert classified["type_class"] == "parabolic-automorphism"
    assert run(["boundary", doc]) == 0
    cert = json.loads(capsys.readouterr().out)["certification"]
    assert cert["accepted"]
    assert cert["checks"][0]["margin"] == pytest.approx(1.8e-9, rel=1e-6)
    for command in ("analyze", "spectrum"):
        out = tmp_path / "report.json"
        assert run([command, doc, "--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["error"] == (
            "parabolic automorphism-type symbol is outside the synthesis "
            "theorems")


def test_attracting_boundary_cycle_is_a_hard_error(tmp_path, capsys):
    # the 2-cycle 1 <-> -1 with |phi'| = 0.5 at each point has
    # multiplier 0.25: it would attract, which only the Denjoy-Wolff
    # point may.  The reduction walks the orbit partition, so all four
    # projections refuse the document
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_ATTRACTING_CYCLE))
    for command in PROJECTIONS:
        out = tmp_path / "report.json"
        assert run([command, doc, "--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert "cycle of length 2 with multiplier 0.25" in (
            json.loads(err[-1])["error"])


def test_second_attracting_boundary_fixed_point_is_a_hard_error(tmp_path,
                                                                capsys):
    # omega = 1 with phi'(1) = 0.5 is hyperbolic, so its spectrum is the
    # disk of radius 1/sqrt(0.5); the fixed point -1 with phi' = 0.25
    # would give the larger radius 2, and a self-map has no such point.
    # The reduction compares the two, so all four projections refuse it
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_SECOND_ATTRACTOR))
    for command in PROJECTIONS:
        out = tmp_path / "report.json"
        assert run([command, doc, "--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["error"] == (
            "cycle-derived rho 2.0 disagrees with 1/sqrt(phi'(omega)) = "
            "1.414213562373095")


@pytest.mark.parametrize("doc,smallest", [
    (_PICK_INTERIOR_FIXED, "-0.281"), (_PICK_TWO_BOUNDARY_FIXED, "-0.405")])
def test_data_no_self_map_has_is_a_hard_error(doc, smallest, tmp_path,
                                              capsys):
    # each got Disk(sqrt 2), exit 0, before the boundary Pick test
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in PROJECTIONS:
        out = tmp_path / "report.json"
        assert run([command, path, "--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err[-1])["error"] == (
            "no self-map has this boundary data: its Pick matrix has the "
            f"eigenvalue {smallest} < 0")


# rejections about the theorems, not the data: the only document that
# some projections accept and others refuse with exit 1
_THEOREM_SCOPE = {"parabolic-automorphism": {
    "analyze": 1, "spectrum": 1, "classify": 0, "boundary": 0}}


def _agreement_battery():
    docs = {f"golden-{name}": json.loads(
        (GOLDEN / f"{name}.symbol.json").read_text()) for name in EXAMPLES}
    docs.update({"compact": _COMPACT, "uncertified": _UNCERTIFIED,
                 "parabolic-automorphism": _PARABOLIC_AUTOMORPHISM,
                 "attracting-2-cycle": _ATTRACTING_CYCLE,
                 "second-attractor": _SECOND_ATTRACTOR,
                 "pick-interior-fixed": _PICK_INTERIOR_FIXED,
                 "pick-two-boundary-fixed": _PICK_TWO_BOUNDARY_FIXED})
    # one document of each family of the sweep, at its lowest and highest
    # degree, seed 1
    gen = perfbench_gen()
    batch = gen.batch(gen.SWEEP, 1)
    for family in ("dilation", "hyperbolic", "inner", "pole", "bump"):
        ks = [i for i, (f, *_) in enumerate(batch) if f == family]
        for i in (ks[0], ks[-1]):
            _, k, doc, _ = batch[i]
            docs[f"sweep-{i:03d}-{family}{k}"] = doc
    return docs


def test_projections_agree_on_scope(tmp_path, capsys):
    # analyze, spectrum, classify and boundary are projections of one
    # reduction: on each document they all exit 1 or none does
    for name, doc in _agreement_battery().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        codes = {command: run([command, path]) for command in PROJECTIONS}
        capsys.readouterr()
        if name in _THEOREM_SCOPE:
            assert codes == _THEOREM_SCOPE[name]
        elif name.startswith("pick-"):
            assert set(codes.values()) == {1}, (name, codes)
        else:
            assert len({code == 1 for code in codes.values()}) == 1, (
                name, codes)


def _iterate_radius(b, n=240, span=120):
    """The essential spectral radius of C_phi from the iterates phi_m,
    read off the boundary data b alone.

    r_e = lim ||C_{phi_m}||_e^{1/m} (the spectral radius formula in the
    Calkin algebra), and ||C_{phi_m}||_e^2 is the largest Clark sum
    S_m(alpha) of 1/|phi_m'(zeta)| over the contacts zeta of phi_m with
    phi_m(zeta) = alpha (Cima and Matheson 1997).  Those contacts are
    the points whose first m - 1 images are contact points, and
    |phi_m'| is the product of |d1| along the orbit, so with w[j] the
    sum over the orbits of length m that end at point j, S_m(point k)
    is the sum of w[j] over successor[j] = k, and it times 1/|d1_k| is
    the next w[k].  Past n > len(b.points) steps every orbit ends on a
    cycle, whose images are declared points, and each S_m is a sum of
    geometric sequences, one rate per cycle: (S_{n+L}/S_n)^{1/(2L)} is
    exact when span is a multiple of every cycle length.  The sums are
    kept scaled to a largest entry of 1, with their log scale apart."""
    succ = np.array([-1 if j is None else j for j in b.successor], dtype=int)
    inv = np.array([1.0 / abs(p.d1) for p in b.points])
    on = succ >= 0
    w, scale, logs = inv, 0.0, []
    for m in range(1, n + span + 1):
        sums = np.bincount(succ[on], w[on], minlength=succ.size)
        top = sums.max(initial=0.0)
        if top == 0.0:
            return 0.0   # every orbit has left the contact set
        if m in (n, n + span):
            logs.append(math.log(top) + scale)
        w, scale = sums * inv / top, scale + math.log(top)
    return math.exp((logs[1] - logs[0]) / (2 * span))


def test_iterates_give_the_essential_spectral_radius():
    # a second route to the outer radius of every synthesis branch, on
    # the goldens, the in-scope sweep at seed 1 and this module's
    # boundary-data documents, of which only the compact one is in scope
    from compspec import analyze, max_modulus, synthesize
    from compspec.cli import _parse_symbol
    from compspec.errors import CompspecError
    gen = perfbench_gen()
    docs = {f"golden-{name}": json.loads(
        (GOLDEN / f"{name}.symbol.json").read_text()) for name in EXAMPLES}
    docs.update((f"sweep-{i:03d}-{family}{k}", doc)
                for i, (family, k, doc, exp)
                in enumerate(gen.batch(gen.SWEEP, 1)) if exp["exit"] == 0)
    docs.update({name: doc for name, doc in _agreement_battery().items()
                 if doc["kind"] == "boundary-data"})
    compared, refused = 0, set()
    for name, doc in docs.items():
        try:
            a = analyze(_parse_symbol(doc))
            want = max_modulus(synthesize(a).essential)
        except CompspecError:
            refused.add(name)
            continue
        assert all(120 % c.length == 0 for c in a.partition.cycles), name
        got = _iterate_radius(a.boundary)
        assert abs(got - want) <= 1e-12 * max(1.0, want), (name, got, want)
        compared += 1
    assert compared == 4 + 109 + 1
    assert refused == {"uncertified", "parabolic-automorphism",
                       "attracting-2-cycle", "second-attractor",
                       "pick-interior-fixed", "pick-two-boundary-fixed"}


@pytest.mark.parametrize("command,doc", [
    ("truncate", {"kind": "rational", "den": [[1, 0]]}),
    ("truncate", [1, 2]),
    ("analyze", {"kind": "boundary-data", "points": [1],
                 "denjoy_wolff": {}}),
    ("analyze", {"kind": "boundary-data", "points": [_POINT],
                 "denjoy_wolff": {"omega": [1, 0], "derivative": [0.5, 0],
                                  "location": "sideways"}}),
    # a JSON boolean is not a number: this must not read as z/2
    ("analyze", {"kind": "rational", "num": [[0, 0], [0.5, 0]],
                 "den": [[True, False]]}),
    ("render", [1, 2]),
    ("render", {"full": 5}),
    ("render", {"full": [{"disk": "abc"}]}),
    ("render", {"full": [{"points": 5}]}),
    # NaN, which json reads and writes as a bare literal, passes every
    # comparison: it must not reach a report or an SVG
    ("analyze", {"kind": "boundary-data",
                 "points": [{"zeta": [1, 0], "value": [-1, 0],
                             "d1": [-0.5, 0], "d2": [0, 0]}],
                 "denjoy_wolff": {"omega": [math.nan, 0],
                                  "derivative": [0.5, 0],
                                  "location": "interior"}}),
    ("analyze", {"kind": "boundary-data", "points": [_POINT],
                 "denjoy_wolff": {"omega": [1, 0],
                                  "derivative": [0.5, math.nan],
                                  "location": "boundary"}}),
    ("render", {"full": [{"points": [[math.nan, 0]]}]}),
    # a boundary Denjoy-Wolff point must be one of the declared points
    ("analyze", {"kind": "boundary-data", "points": [],
                 "denjoy_wolff": {"omega": [1, 0], "derivative": [0.5, 0],
                                  "location": "boundary"}}),
])
def test_malformed_document_typed_error(command, doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = [command, path, "--out", out]
    if command == "truncate":
        argv += ["--order", "4"]
    if command == "render":
        argv = [command, path, "--svg", out]
    assert run(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["error"]


@pytest.mark.parametrize("name", ["lollipop", "two_cycle", "eight_point"])
def test_reports_do_not_depend_on_coefficient_scale(name, tmp_path):
    # (2^k N) / (2^k D) is the same map, and scaling by 2^k is exact in
    # doubles, so every answer must be the same for k from -60 to 60, and
    # out at +-540, where N'D - ND' would under- or overflow unscaled
    doc = json.loads((GOLDEN / f"{name}.symbol.json").read_text())
    reports, truncations = set(), set()
    for k in [*range(-60, 61, 4), -540, 540]:
        scaled = {**doc, **{key: [[x * 2.0 ** k for x in c] for c in doc[key]]
                            for key in ("num", "den")}}
        # fresh files per k: overwriting a file can be far slower than
        # writing a new one on some filesystems
        path, out = tmp_path / f"scaled{k}.json", tmp_path / f"report{k}.json"
        cut = tmp_path / f"truncate{k}.json"
        path.write_text(json.dumps(scaled))
        assert run(["analyze", path, "--out", out]) == 0, k
        report = json.loads(out.read_text())
        del report["input"]
        reports.add(json.dumps(report, sort_keys=True))
        assert run(["truncate", path, "--order", "32", "--out", cut]) == 0, k
        truncations.add(cut.read_text())
    assert len(reports) == 1
    assert len(truncations) == 1 and "no_prediction" not in truncations.pop()


# a subnormal top coefficient of D or N, which would send the companion
# matrix to infinity if the root solve did not drop it
_SUBNORMAL_TOP = [
    ([[0, 0], [0, 0]], [[1, 0], [0, 0], [0, 2.2250738585e-313]]),
    ([[0, 0], [0.5, 0], [0, 2.2250738585e-313]], [[1, 0]]),
]


@pytest.mark.parametrize("num,den", _SUBNORMAL_TOP)
def test_failed_root_finding_is_a_typed_error(num, den, tmp_path, capsys,
                                              monkeypatch):
    def fail(c):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(compspec.symbol.P, "polyroots", fail)
    doc = tmp_path / "subnormal.json"
    doc.write_text(json.dumps({"kind": "rational", "num": num, "den": den}))
    out = tmp_path / "report.json"
    assert run(["analyze", doc, "--out", out]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert "root finding failed" in json.loads(err[-1])["error"]
    assert run(["truncate", doc, "--order", "8", "--out", out]) == 0
    res = json.loads(out.read_text())
    assert "root finding failed" in res["diagnostics"]["no_prediction"]


def test_subnormal_top_coefficient_of_d_is_dropped(tmp_path, capsys):
    # 0 / (1 + 2.2e-313i z^2) is the constant 0
    num, den = _SUBNORMAL_TOP[0]
    doc = tmp_path / "subnormal.json"
    doc.write_text(json.dumps({"kind": "rational", "num": num, "den": den}))
    assert run(["analyze", doc]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1]) == {"error": "symbol is constant"}


def test_subnormal_top_coefficient_of_n_is_dropped(tmp_path):
    # 0.5 z + 2.2e-313i z^2 is a compact map: its spectrum is the tail
    # of phi'(0) = 0.5, on which the truncation's eigenvalues lie
    num, den = _SUBNORMAL_TOP[1]
    doc = tmp_path / "subnormal.json"
    doc.write_text(json.dumps({"kind": "rational", "num": num, "den": den}))
    out = tmp_path / "report.json"
    assert run(["analyze", doc, "--out", out]) == 0
    assert json.loads(out.read_text())["full"] == [{"tail": [0.5, 0.0]}]
    assert run(["truncate", doc, "--order", "8", "--out", out]) == 0
    assert json.loads(out.read_text())["distances"] == [0.0] * 8


@pytest.mark.parametrize("theta", [0.0, 2.5, -1.0, 0.7, -1.9])
def test_order_four_contact_exit_2(theta, tmp_path):
    # -3/8 - 3/4 z + 1/8 z^2 meets the circle at 1 (turned by theta) to
    # fourth order: |N|^2 - |D|^2 has a 4-fold root there
    doc = _write_rational(tmp_path / "order4.json",
                          (-3 / 8, -3 / 4, 1 / 8), (1,), theta)
    out = tmp_path / "report.json"
    assert run(["analyze", doc, "--out", out]) == 2
    check, = json.loads(out.read_text())["certification"]["checks"]
    assert check["multiplicity"] == 4 and not check["ok"]
    assert check["note"] == "contact order exceeds 2"
    # the mean of the split triple critical point is good to roundoff
    assert abs(complex(*check["zeta"]) - cmath.exp(1j * theta)) < 1e-12


def test_usage_error_exit_64(capsys):
    assert run(["lemma-check", "--lemma", "bogus"]) == 64
    assert run(["analyze"]) == 64
    # the certification tolerances are constants, not flags
    golden = GOLDEN / "lollipop.symbol.json"
    assert run(["analyze", golden, "--tol", "0.02"]) == 64
    assert run(["analyze", golden, "--match-tol", "1e-3"]) == 64
    capsys.readouterr()


def test_non_self_map_is_a_hard_error(tmp_path, capsys):
    # sup |0.3 + 0.71 z^2| on the circle is 1.01: not a self-map, and no
    # flag can loosen the check into a certified "compact"
    doc = tmp_path / "over.json"
    doc.write_text('{"kind": "rational", "num": [[0.3,0],[0,0],[0.71,0]],'
                   ' "den": [[1,0]]}')
    assert run(["analyze", doc]) == 1
    assert run(["analyze", doc, "--tol", "0.02"]) == 64
    capsys.readouterr()
    # a/2 (1 + e^{i pi/k} z^k) exceeds 1 only in k narrow peaks, which a
    # sampled check can step over
    for k in (32, 48, 64):
        for a in (1.0001, 1.0002, 1.0003):
            num = [0j] * (k + 1)
            num[0], num[k] = a / 2, a / 2 * cmath.exp(1j * math.pi / k)
            doc = _write_rational(tmp_path / "bump.json", num, [1.0])
            assert run(["analyze", doc]) == 1, (k, a)
            err = capsys.readouterr().err.strip().splitlines()
            assert "sup |phi|" in json.loads(err[-1])["error"]


def test_parser_is_built_once(monkeypatch, capsys):
    golden = GOLDEN / "two_cycle.symbol.json"
    assert run(["classify", golden]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["classify", golden]) == 0
    capsys.readouterr()
    assert built == []


def test_calls_share_no_state(tmp_path, capsys):
    golden = GOLDEN / "lollipop.symbol.json"
    svg = tmp_path / "s.svg"
    assert run(["analyze", golden, "--out", tmp_path / "a.json",
                "--svg", svg]) == 0
    svg.unlink()
    assert run(["analyze", golden, "--out", tmp_path / "b.json"]) == 0
    assert list(tmp_path.glob("*.svg")) == []

    assert run(["analyze", golden, "--tol", "0.02"]) == 64
    assert run(["classify", golden]) == 0

    out = tmp_path / "lemma.json"
    assert run(["lemma-check", "--lemma", "cta", "--n", "5", "--order", "6",
                "--trials", "1", "--seed", "1", "--out", out]) == 0
    assert run(["lemma-check", "--lemma", "cta", "--out", out]) == 0
    summary = json.loads(out.read_text())
    assert (summary["n"], summary["order"], summary["trials"],
            summary["seed"]) == (3, 12, 50, 0)
    # fl's pattern fixes the family size at 2, and the report says so
    assert run(["lemma-check", "--lemma", "fl", "--n", "7", "--trials", "1",
                "--out", out]) == 0
    assert json.loads(out.read_text())["n"] == 2
    capsys.readouterr()


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_lemma_check_flag_ranges(capsys):
    assert run(["lemma-check", "--lemma", "ta", "--trials", "0"]) == 64
    capsys.readouterr()


def test_lemma_check_order_cap_exit_1(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = run(["lemma-check", "--lemma", "ta", "--order", "129",
                "--out", out])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1]) == {"error": "order exceeds cap 128"}


def test_lemma_check_pass(tmp_path):
    out = tmp_path / "summary.json"
    code = run(["lemma-check", "--lemma", "fl", "--trials", "1",
                "--seed", "1", "--out", out])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["passed"] is True and summary["failing_seeds"] == []


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "spec.json"
    code = run(["spectrum", GOLDEN / "lollipop.symbol.json", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert {"disk": pytest.approx(1 / 3, abs=1e-9)} == \
        next(p for p in doc["essential"] if "disk" in p)
    assert doc["full"] == doc["essential"]


def test_classify_subcommand(tmp_path):
    out = tmp_path / "cls.json"
    assert run(["classify", GOLDEN / "lollipop.symbol.json",
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["type_class"] == "parabolic-non-automorphism"
    assert doc["denjoy_wolff"]["location"] == "boundary"


def test_boundary_subcommand(tmp_path):
    out = tmp_path / "bd.json"
    assert run(["boundary", GOLDEN / "two_cycle.symbol.json",
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["contact_set"]) == 2
    assert doc["certification"]["accepted"] is True


def test_truncate_monomial(tmp_path):
    # z/2, also with coefficients near 1e-15, whose denominator is small
    # only in absolute terms
    for scale in (1.0, 2e-15):
        doc = _write_rational(tmp_path / "half.json", (0, scale / 2),
                              (scale,))
        out = tmp_path / "trunc.json"
        assert run(["truncate", doc, "--order", "8", "--out", out]) == 0
        res = json.loads(out.read_text())
        mods = sorted((abs(complex(*v)) for v in res["eigenvalues"]),
                      reverse=True)
        assert mods == pytest.approx([0.5 ** k for k in range(8)],
                                     abs=1e-10)
        assert res["distances"] == pytest.approx([0.0] * 8, abs=1e-10)


def test_truncate_constant(tmp_path):
    doc = tmp_path / "c.json"
    doc.write_text('{"kind": "rational", "num": [[0.3,0]], "den": [[1,0]]}')
    out = tmp_path / "trunc.json"
    assert run(["truncate", doc, "--order", "4", "--out", out]) == 0
    res = json.loads(out.read_text())
    mods = sorted((abs(complex(*v)) for v in res["eigenvalues"]),
                  reverse=True)
    assert mods == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-10)


def test_truncate_order_above_the_eigen_solver_cap(tmp_path, capsys):
    doc = tmp_path / "half.json"
    doc.write_text('{"kind": "rational", "num": [[0,0],[0.5,0]],'
                   ' "den": [[1,0]]}')
    out = tmp_path / "trunc.json"
    assert run(["truncate", doc, "--order", "129", "--out", out]) == 1
    assert not out.exists()
    assert "order must be in [1, 128]" in capsys.readouterr().err


def test_truncate_non_finite_coefficient_typed_error(tmp_path, capsys):
    doc = tmp_path / "nan.json"
    doc.write_text(json.dumps({"kind": "rational",
                               "num": [[0, 0], [math.nan, 0]],
                               "den": [[1, 0]]}))
    out = tmp_path / "trunc.json"
    assert run(["truncate", doc, "--order", "4", "--out", out]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert json.loads(err[-1])["error"] == "coefficients must be finite"


def test_truncate_overflow_typed_error(tmp_path, capsys):
    # 0.5 / (1 - 1000 z): phi's coefficients 0.5 1000^k pass the double
    # range at k = 103.  Nothing reaches the eigen-solver, and no numpy
    # warning reaches stderr; order 64 still fits
    doc = tmp_path / "pole.json"
    doc.write_text(json.dumps({"kind": "rational", "num": [[0.5, 0]],
                               "den": [[1, 0], [-1000, 0]]}))
    out = tmp_path / "trunc.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["truncate", doc, "--order", "128", "--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == (
            "truncation overflows at order 128: column 1 (phi^1) is not "
            "finite")
        assert run(["truncate", doc, "--order", "64", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    top = max(abs(complex(*v)) for v in json.loads(out.read_text())[
        "eigenvalues"])
    assert top == pytest.approx(3.3e206, rel=0.01)


def test_svg_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    base = ["analyze", GOLDEN / "lollipop.symbol.json",
            "--out", tmp_path / "r.json", "--svg"]
    assert run(base + [a]) == 0
    assert run(base + [b]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text
    assert "<title>spectrum</title>\n" in text
    assert "<polyline" in text  # the spiral stick of the lollipop
    assert text.count("<circle") >= 2  # unit circle + disk


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
@pytest.mark.parametrize("name", EXAMPLES + ["tail"])
def test_render_matches_analyze_svg(command, name, tmp_path):
    # the subcommand draws the region it synthesized, render draws the
    # one it reads back from the report: the bytes must agree
    sym = GOLDEN / f"{name}.symbol.json"
    if name == "tail":   # phi(z) = 0.9i z
        sym = _write_rational(tmp_path / "tail.json", (0, 0.9j), (1,))
    report = tmp_path / "r.json"
    svg1 = tmp_path / "a.svg"
    assert run([command, sym, "--out", report, "--svg", svg1]) == 0
    svg2 = tmp_path / "b.svg"
    assert run(["render", report, "--svg", svg2]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


@pytest.mark.parametrize("lam", [0.9999999, 0.9999999 * cmath.exp(2j)],
                         ids=["real", "rotating"])
def test_tail_svg_is_bounded(lam, tmp_path):
    # phi(z) = lam z: its spectrum holds every power lam^k, of which
    # ~2.8e8 have modulus above 1e-12; the second base turns them into
    # a dense spiral, so the boxes must tile the disk
    sym = tmp_path / "dilation.symbol.json"
    sym.write_text(json.dumps({"kind": "rational", "den": [[1, 0]],
                               "num": [[0, 0], [lam.real, lam.imag]]}))
    svg = tmp_path / "tail.svg"
    start = time.perf_counter()
    assert run(["analyze", sym, "--svg", svg]) == 0
    assert time.perf_counter() - start < 2.0
    text = svg.read_text()
    assert len(text) < 1_000_000
    boxes = np.array(re.findall(r'<rect x="([^"]+)" y="([^"]+)" width="6" '
                                'height="6"', text), dtype=float)
    base = complex(lam)
    k_end = math.log(1e-12) / math.log(abs(base))
    ks = np.unique(np.concatenate([np.arange(2000),
                                   np.geomspace(1, k_end, 2000).astype(int)]))
    for k in ks:
        w = base ** int(k)  # drawn at 150 px per unit about (240, 240)
        x, y = 240 + 150 * w.real, 240 - 150 * w.imag
        assert np.any((boxes[:, 0] <= x) & (x <= boxes[:, 0] + 6)
                      & (boxes[:, 1] <= y) & (y <= boxes[:, 1] + 6)), k


def test_render_square_root_single_disk(tmp_path):
    report = tmp_path / "r.json"
    svg = tmp_path / "d.svg"
    assert run(["analyze", GOLDEN / "square_root.symbol.json",
                "--out", report, "--svg", svg]) == 0
    text = svg.read_text()
    assert "<polyline" not in text
    assert f'r="{math.sqrt(2) * 150:.6f}"' in text
