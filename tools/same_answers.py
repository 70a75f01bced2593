"""Check that two source trees give the same answers on a fixed battery.

Usage (from anywhere):

    python3 tools/same_answers.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository.  The battery of
symbol documents is built once, from this checkout's
``tests/golden`` and ``perfbench/gen.py``:

* the four goldens, and each rational golden with every coefficient
  times 2^k for k in {-540, -40, -20, 20, 40, 540} (the same map);
* ``gen.SWEEP`` and ``gen.PROJECTION_SLICE`` at seeds 1-5;
* the parabolic maps ((2-t)z + t) / (-tz + 2 + t) for t in
  logspace(-3, 1, 40) and in {3e-4, 1e-4, 3e-5, 1e-5, 1e-6}, each
  conjugated by three rotations;
* the linear-fractional maps with fixed points 1 - d (multiplier
  1 - e) and 1, for d in logspace(-7, -1, 13) and e in
  {0.5, 1e-2, 1e-4, 1e-9, 1e-11, -1e-9}, each conjugated by two
  rotations: an interior fixed point that attracts or repels barely,
  next to a boundary one;
* the same maps for d in {4e-7, 5e-7, 6.3e-7, 8e-7, 2e-6} and e in
  {1e-10, 1e-11}, each conjugated by two rotations: an interior fixed
  point whose |phi'| lies within EPS of 1, this close to the boundary
  one, is a typed error, not a parabolic answer at 1;
* ``gen.hyperbolic`` at degrees 1-4 with phi'(1) in
  {0.5, 0.9, 0.99, 0.999, 0.9999};
* three rotations of the lollipop golden;
* the eight_point and two_cycle goldens, each conjugated by three
  rotations: their N - zD stays of the form z q(z^2), so its zero root
  is split off exactly while the contacts sit at generic angles;
* the order-4 map (-3/8, -3/4, 1/8), conjugated by three rotations;
* bumps of degree 4-64 (``gen.bump``, three heights each);
* ``gen.dilation`` (a = 2) and ``gen.hyperbolic`` (phi'(1) = 1/2) at
  degrees 16, 32 and 64, each conjugated by three rotations: D and
  |N|^2 - |D|^2 stay polynomials in z^k, so their roots come from the
  polynomial in z^k, while the contacts sit at generic angles; and the
  same maps with 1e-3 z added to N, which breaks the sparsity, so the
  nearly identical maps take the dense root-finding path (the added
  term lifts |phi| above 1 near the contacts, so the self-map test
  refuses them);
* the compact maps phi(z) = lam z for lam in {0.5, -0.9, 0.999, 0.9i,
  0.99 e^{0.7i}}, whose spectra are the geometric tail of lam: their
  SVGs compare the tail's boxes, and ``truncate`` checks that the
  truncation's eigenvalues, the powers of lam, lie on the tail;
* two boundary-data documents with an empty contact set: one with the
  interior Denjoy-Wolff point 0.3 and phi'(0.3) = 0.5 (a compact
  operator), one with a boundary Denjoy-Wolff record, which names a
  point the document does not declare;
* the compact map phi(z) = z^2/2, whose tail base phi'(0) = 0 makes
  the full spectrum {0, 1};
* a boundary-data parabolic-automorphism document (omega = 1,
  phi'(1) = 1 - 9e-10, phi''(1) = 9e-10 + 3i), which is order-2
  certified but outside the synthesis theorems;
* a boundary-data 2-cycle 1 <-> -1 with |phi'| = 0.5 at each point,
  an attracting cycle that the orbit partition rejects;
* two boundary-data documents that no self-map has, which the boundary
  Pick test rejects: the interior fixed point 0 with one boundary fixed
  point 1 where phi' = 0.5, and the boundary fixed points 1 (phi' =
  0.5, the Denjoy-Wolff point) and -1 (phi' = 0.7);
* matching at its tolerance edge: the boundary data of lollipop (a
  parabolic Denjoy-Wolff point 1 and the fixed point -1), of two_cycle
  (the 2-cycle 1 <-> -1 about the interior Denjoy-Wolff point 0), of
  (1 + z^2)/2 (-1 a lead-in to the parabolic fixed point 1), in closed
  form, and of the square_root golden, each as declared and with every
  image (value, phi', phi'') and omega turned by 0.5 and by 2 times
  ``MATCH_TOL`` = 1e-7: at 0.5 each match holds, at 2 each fails.

For each tree a worker process imports ``compspec`` from the tree's
``src/`` and calls ``compspec.cli.main`` in-process for
``analyze --out --svg``, ``classify``, ``boundary`` and ``spectrum`` on
every document, ``render --svg`` on every report that ``analyze``
writes, and ``truncate --order 32 --out`` on every rational one (so its
``distances`` are compared), in the same working-directory layout.  It
also runs a ``lemma-check --out`` battery: the benchmark's suites
(``perfbench/run.py`` ``LEMMA_SUITES``, at its trials per request),
rsm with n = 5 at orders 11, 17 and 23, where the order is not
divisible by n, rsm with n = 8 at order 40, where some products
have genuine eigenvalues below their matching tolerance, and cta with
n = 8 at order 40 and flc with n = 16 at order 64, whose families have
the most required products per left factor (56 products from 8 left
factors, 120 from 15), each at master seeds 0-3; and the fl, cta and
flc suites at ``LONG_TRIALS`` = 137 trials, which run as several full
stacks and a remainder, at the same seeds.  Every difference in exit code, stdout, stderr, report bytes
or SVG bytes is printed (an uncaught exception counts as exit 1, with
its type and message as stderr), then one count per command and field
that differs, then the total; the exit status is 0 when there is no
difference, 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported anywhere

import cmath
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("analyze", "classify", "boundary", "spectrum")
SEEDS = range(1, 6)
ROTATIONS = (0.0, 2.5, -1.0)
SMALL_T = (3e-4, 1e-4, 3e-5, 1e-5, 1e-6)
LOLLIPOP = ((-2, -1, 2), (-3, 0, 2))
LEMMA_SEEDS = range(4)
GOLDEN_SCALES = (-540, -40, -20, 20, 40, 540)
TRUNCATE = ["--order", "32", "--out", "report.json"]
RSM_ORDERS = (11, 17, 23)
LONG_TRIALS = 137
SPARSE_DEGREES = (16, 32, 64)
TAIL_BASES = (0.5, -0.9, 0.999, 0.9j, 0.99 * cmath.exp(0.7j))
MATCH_TOL = 1e-7   # compspec.config.MATCH_TOL
# (zeta, value, phi', phi'') at each point, and (omega, phi'(omega),
# location)
EDGE_DATA = {
    "lollipop": ([(1, 1, 1, 8), (-1, -1, 9, -80)], (1, 1, "boundary")),
    "two_cycle": ([(1, -1, -5, -44), (-1, 1, -5, 44)],
                  (0, -1 / 3, "interior")),
    "lead_in": ([(1, 1, 1, 1), (-1, 1, -1, 1)], (1, 1, "boundary")),
}


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _rational(num, den) -> dict:
    return {"kind": "rational",
            "num": [[complex(c).real, complex(c).imag] for c in num],
            "den": [[complex(c).real, complex(c).imag] for c in den]}


def _rotated(num, den, theta: float) -> dict:
    """e^{i theta} phi(e^{-i theta} z), whose Denjoy-Wolff point and
    contact set turn with it."""
    w = cmath.exp(1j * theta)
    return _rational([w * c / w ** k for k, c in enumerate(num)],
                     [c / w ** k for k, c in enumerate(den)])


def _boundary_doc(points, dw, angle: float = 0.0) -> dict:
    """The boundary-data document of the points (zeta, value, phi',
    phi'') and the Denjoy-Wolff record (omega, phi'(omega), location),
    with each value, phi', phi'' and omega turned by e^{i angle}: the
    data of e^{i angle} phi, whose images lie about angle off."""
    w = cmath.exp(1j * angle)
    omega, derivative, location = dw
    return {"kind": "boundary-data",
            "points": [{"zeta": _pair(z), "value": _pair(w * v),
                        "d1": _pair(w * d1), "d2": _pair(w * d2)}
                       for z, v, d1, d2 in points],
            "denjoy_wolff": {"omega": _pair(w * omega),
                             "derivative": _pair(derivative),
                             "location": location}}


def battery() -> dict[str, dict]:
    """Every document of the battery, by a unique name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    docs = {}
    for path in sorted((ROOT / "tests" / "golden").glob("*.symbol.json")):
        name = path.name.split(".")[0]
        doc = docs[f"golden-{name}"] = json.loads(
            path.read_text(encoding="utf-8"))
        if doc["kind"] == "rational":
            for k in GOLDEN_SCALES:
                docs[f"scaled-{name}-k{k}"] = {
                    **doc, **{key: [[x * 2.0 ** k for x in c]
                                    for c in doc[key]]
                              for key in ("num", "den")}}
    for label, specs in (("sweep", gen.SWEEP),
                         ("slice", gen.PROJECTION_SLICE)):
        for seed in SEEDS:
            for i, (family, k, doc, _) in enumerate(gen.batch(specs, seed)):
                docs[f"{label}-s{seed}-{i:03d}-{family}{k}"] = doc
    for i in range(40):
        t = 10.0 ** (-3.0 + 4.0 * i / 39)
        for j, theta in enumerate(ROTATIONS):
            docs[f"parabolic-{i:02d}-r{j}"] = _rotated(
                (t, 2.0 - t), (2.0 + t, -t), theta)
    for t in SMALL_T:
        for j, theta in enumerate(ROTATIONS):
            docs[f"parabolic-{t:g}-r{j}"] = _rotated(
                (t, 2.0 - t), (2.0 + t, -t), theta)
    twofixed = [(f"{i:02d}-{j}", 10.0 ** (-7.0 + i / 2), e)
                for i in range(13)
                for j, e in enumerate((0.5, 1e-2, 1e-4, 1e-9, 1e-11, -1e-9))]
    twofixed += [(f"near-{d:g}-{e:g}", d, e)
                 for d in (4e-7, 5e-7, 6.3e-7, 8e-7, 2e-6)
                 for e in (1e-10, 1e-11)]
    for name, d, e in twofixed:
        for r, theta in enumerate(ROTATIONS[:2]):
            docs[f"twofixed-{name}-r{r}"] = _rotated(
                (-(1 - d) * e, e - d), (-(d + e - d * e), e), theta)
    for k in range(1, 5):
        for p in (0.5, 0.9, 0.99, 0.999, 0.9999):
            docs[f"hyperbolic{k}-{p}"] = gen.hyperbolic(
                k, k / p, 1.4 + 0.1j)[0]
    for j, theta in enumerate((0.7, 2.5, -1.9)):
        docs[f"lollipop-r{j}"] = _rotated(*LOLLIPOP, theta)
    for name in ("eight_point", "two_cycle"):
        num, den = ([complex(*c) for c in docs[f"golden-{name}"][key]]
                    for key in ("num", "den"))
        for j, theta in enumerate(ROTATIONS):
            docs[f"{name}-r{j}"] = _rotated(num, den, theta)
    for j, theta in enumerate(ROTATIONS):
        docs[f"order4-r{j}"] = _rotated((-3 / 8, -3 / 4, 1 / 8), (1,), theta)
    for k in (4, 8, 16, 32, 48, 64):
        for a in (1e-4, 2e-4, 3e-4):
            docs[f"bump{k}-{a}"] = gen.bump(k, 1.0 + a)[0]
    for k in SPARSE_DEGREES:
        for family, (doc, _) in (("dilation", gen.dilation(k, 2.0)),
                                 ("hyperbolic", gen.hyperbolic(
                                     k, 2.0 * k, 1.4 + 0.1j))):
            num, den = ([complex(*c) for c in doc[key]]
                        for key in ("num", "den"))
            dense = [num[0], num[1] + 1e-3, *num[2:]]
            for j, theta in enumerate(ROTATIONS):
                docs[f"{family}{k}-r{j}"] = _rotated(num, den, theta)
                docs[f"{family}{k}-dense-r{j}"] = _rotated(dense, den, theta)
    for i, lam in enumerate(TAIL_BASES):
        docs[f"tail{i}"] = _rational((0, lam), (1,))
    for location, omega in (("interior", [0.3, 0]), ("boundary", [1, 0])):
        docs[f"empty-points-{location}"] = {
            "kind": "boundary-data", "points": [],
            "denjoy_wolff": {"omega": omega, "derivative": [0.5, 0],
                             "location": location}}
    docs["superattracting"] = _rational((0, 0, 0.5), (1,))
    docs["parabolic-automorphism"] = {
        "kind": "boundary-data",
        "points": [{"zeta": [1, 0], "value": [1, 0],
                    "d1": [1 - 9e-10, 0], "d2": [9e-10, 3]}],
        "denjoy_wolff": {"omega": [1, 0], "derivative": [1 - 9e-10, 0],
                         "location": "boundary"}}
    docs["attracting-2-cycle"] = {
        "kind": "boundary-data",
        "points": [{"zeta": [1, 0], "value": [-1, 0],
                    "d1": [-0.5, 0], "d2": [0, 0]},
                   {"zeta": [-1, 0], "value": [1, 0],
                    "d1": [-0.5, 0], "d2": [0, 0]}],
        "denjoy_wolff": {"omega": [0, 0], "derivative": [0.5, 0],
                         "location": "interior"}}
    docs["pick-interior-fixed"] = {
        "kind": "boundary-data",
        "points": [{"zeta": [1, 0], "value": [1, 0],
                    "d1": [0.5, 0], "d2": [0, 0]}],
        "denjoy_wolff": {"omega": [0, 0], "derivative": [0.5, 0],
                         "location": "interior"}}
    docs["pick-two-boundary-fixed"] = {
        "kind": "boundary-data",
        "points": [{"zeta": [1, 0], "value": [1, 0],
                    "d1": [0.5, 0], "d2": [0, 0]},
                   {"zeta": [-1, 0], "value": [-1, 0],
                    "d1": [0.7, 0], "d2": [0, 0]}],
        "denjoy_wolff": {"omega": [1, 0], "derivative": [0.5, 0],
                         "location": "boundary"}}
    golden, golden_dw = (docs["golden-square_root"][key]
                         for key in ("points", "denjoy_wolff"))
    edge = {**EDGE_DATA, "square_root": (
        [[complex(*p[key]) for key in ("zeta", "value", "d1", "d2")]
         for p in golden],
        (complex(*golden_dw["omega"]), complex(*golden_dw["derivative"]),
         golden_dw["location"]))}
    for name, (points, dw) in edge.items():
        for label, angle in (("exact", 0.0), ("half", 0.5 * MATCH_TOL),
                             ("twice", 2.0 * MATCH_TOL)):
            docs[f"edge-{name}-{label}"] = _boundary_doc(points, dw, angle)
    return docs


def lemma_runs() -> dict[str, list[str]]:
    """Every lemma-check argv of the battery, by a unique name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import LEMMA_SPLIT, LEMMA_SUITES, LEMMA_TRIALS

    trials = LEMMA_TRIALS // LEMMA_SPLIT
    shapes = [(lemma, n, order, trials) for lemma, n, order in (
        LEMMA_SUITES + [("rsm", 5, order) for order in RSM_ORDERS]
        + [("rsm", 8, 40), ("cta", 8, 40), ("flc", 16, 64)])]
    shapes += [(lemma, n, order, LONG_TRIALS)
               for lemma, n, order in LEMMA_SUITES
               if lemma in ("fl", "cta", "flc")]
    return {f"lemma-{lemma}-n{n}-o{order}-t{count}-s{seed}": [
        "lemma-check", "--lemma", lemma, "--n", str(n), "--order",
        str(order), "--trials", str(count), "--seed", str(seed),
        "--out", "report.json"]
        for lemma, n, order, count in shapes for seed in LEMMA_SEEDS}


def _call(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            # a crash is an answer too: the command-line process would
            # print a traceback and exit 1
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str | None:
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return hashlib.sha256(data).hexdigest() if path.suffix == ".svg" \
        else data.decode("utf-8")


def _run(main, argv) -> list:
    code, out, err = _call(main, argv)
    return [code, out, err, _read(Path("report.json")),
            _read(Path("fig.svg"))]


def worker(docdir: Path, result: Path) -> None:
    """Run every command on every document, and the lemma-check
    battery, with the compspec on sys.path; write {name: {command:
    [exit, stdout, stderr, report, svg]}} as JSON.  Outputs go to
    relative paths in the current directory, so both trees print the
    same file names."""
    from compspec.cli import main

    answers = {}
    for doc in sorted(docdir.glob("*.json")):
        runs = {}
        for cmd in COMMANDS:
            argv = [cmd, str(doc)]
            if cmd == "analyze":
                argv += ["--out", "report.json", "--svg", "fig.svg"]
            runs[cmd] = _run(main, argv)
        report = runs["analyze"][3]
        if report is not None:
            # render draws its SVG from the report analyze wrote
            Path("analyzed.json").write_text(report, encoding="utf-8")
            runs["render"] = _run(main, ["render", "analyzed.json",
                                         "--svg", "fig.svg"])
            Path("analyzed.json").unlink()
        if json.loads(doc.read_text(encoding="utf-8"))["kind"] == "rational":
            runs["truncate"] = _run(main, ["truncate", str(doc)] + TRUNCATE)
        answers[doc.stem] = runs
    for name, argv in lemma_runs().items():
        answers[name] = {"lemma-check": _run(main, argv)}
    result.write_text(json.dumps(answers), encoding="utf-8")


def _answers(tree: Path, docdir: Path, work: Path) -> dict:
    """The worker's answers for one tree, run in the directory work."""
    work.mkdir()
    result = work / "answers.json"
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                    str(docdir), str(result)], cwd=work, env=env, check=True)
    return json.loads(result.read_text(encoding="utf-8"))


FIELDS = ("exit code", "stdout", "stderr", "report bytes", "SVG bytes")


def compare(parent: dict, change: dict) -> list[tuple[str, str, str]]:
    """(command, field, line) for every difference."""
    diffs = []
    missing = [None] * len(FIELDS)   # a run that one tree did not make
    for name in sorted(parent):
        for cmd in sorted(parent[name].keys() | change[name].keys()):
            for field, a, b in zip(FIELDS,
                                   parent[name].get(cmd, missing),
                                   change[name].get(cmd, missing)):
                if a != b:
                    diffs.append((cmd, field, f"{name} {cmd}: {field} differ "
                                  f"({_brief(a)} -> {_brief(b)})"))
    return diffs


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        worker(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 64
    parent, change = (Path(a) for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        docdir = base / "docs"
        docdir.mkdir()
        docs = battery()
        for name, doc in docs.items():
            (docdir / f"{name}.json").write_text(json.dumps(doc),
                                                 encoding="utf-8")
        before = _answers(parent, docdir, base / "parent")
        after = _answers(change, docdir, base / "change")
    diffs = compare(before, after)
    for *_, line in diffs:
        print(line)
    for (cmd, field), count in sorted(Counter(
            (cmd, field) for cmd, field, _ in diffs).items()):
        print(f"{cmd} {field}: {count} differences")
    runs = sum(len(cmds) for cmds in before.values())
    print(f"{len(docs)} documents and {len(lemma_runs())} lemma-check "
          f"runs, {runs} runs in all, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
