"""Batch front end: JSON in, JSON/SVG out.

Symbol documents are plain JSON with complex numbers as [re, im] pairs::

    {"kind": "rational", "num": [[0,0],[0.5,0]], "den": [[1,0]]}

    {"kind": "boundary-data",
     "points": [{"zeta": [1,0], "value": [1,0], "d1": [0.5,0], "d2": [0,0]}],
     "denjoy_wolff": {"omega": [1,0], "derivative": [0.5,0],
                      "location": "boundary"}}

An empty ``points`` list declares a compact operator.

``analyze``, ``spectrum``, ``classify`` and ``boundary`` are one table in
:func:`build_parser`: each parses the document, reduces it once with
:func:`compspec.symbol.analyze` and writes one projection of that
analysis.  Their ``--svg`` draws the synthesized "full" region as is.

Every document is written by :func:`_dumps`, which gives the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` without the stdlib's
pure-Python encoder, the one it falls back to whenever ``indent`` is set.

:func:`main` parses ``argv`` with one parser built on its first call and
reused for the rest of the process, so it can be called repeatedly
in-process at the cost of ``parse_args`` alone.

Each subcommand loads its layer on its first call: this module imports
only the stdlib, ``config`` and ``errors``, so ``lemma-check`` loads
:mod:`compspec.algebra_lab` alone and the symbol subcommands never load
it.

There are no tolerance flags: the thresholds ``EPS`` = 1e-9 and
``MATCH_TOL`` = 1e-7 of :mod:`compspec.config` are what an answer is
certified against, so they are fixed.

Exit codes: 0 success, 1 hard error (nothing written), 2 out-of-scope
rejection (a report with the rejection certificate is still emitted),
64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .config import EPS
from .errors import CompspecError, NotCertifiedError, NotInScopeError

if TYPE_CHECKING:
    from .spectrum import SpectralRegion
    from .symbol import Analysis, DenjoyWolffRecord

SCHEMA = "compspec/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2
EXIT_USAGE = 64


# ----------------------------------------------------------------------
# JSON plumbing
# ----------------------------------------------------------------------

def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _is_real(x) -> bool:
    # JSON booleans load as bool, a subclass of int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_c(v, path: str) -> complex:
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or not all(_is_real(x) for x in v)):
        raise CompspecError(f"{path}: expected an [re, im] pair, got {v!r}")
    return complex(v[0], v[1])


def _parse_real(v, path: str) -> float:
    if not _is_real(v):
        raise CompspecError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _parse_list(v, path: str) -> list:
    if not isinstance(v, list):
        raise CompspecError(f"{path}: expected a list, got {v!r}")
    return v


def _parse_coeffs(doc: dict, key: str) -> tuple:
    raw = _parse_list(doc.get(key), key)
    return tuple(_parse_c(v, f"{key}[{i}]") for i, v in enumerate(raw))


def _parse_symbol(doc):
    from .mobius import SecondOrderData
    from .symbol import (BoundaryDataSymbol, DenjoyWolffRecord, Location,
                         RationalSymbol)
    if not isinstance(doc, dict):
        raise CompspecError("document root must be a JSON object")
    kind = doc.get("kind")
    if kind == "rational":
        return RationalSymbol(_parse_coeffs(doc, "num"),
                              _parse_coeffs(doc, "den"))
    if kind == "boundary-data":
        pts = []
        for i, p in enumerate(_parse_list(doc.get("points"), "points")):
            if not isinstance(p, dict):
                raise CompspecError(f"points[{i}]: expected an object")
            pts.append(SecondOrderData(
                _parse_c(p.get("zeta"), f"points[{i}].zeta"),
                _parse_c(p.get("value"), f"points[{i}].value"),
                _parse_c(p.get("d1"), f"points[{i}].d1"),
                _parse_c(p.get("d2"), f"points[{i}].d2")))
        raw_dw = doc.get("denjoy_wolff")
        if not isinstance(raw_dw, dict):
            raise CompspecError("denjoy_wolff: expected an object")
        try:
            location = Location(raw_dw.get("location", "boundary"))
        except ValueError as exc:
            raise CompspecError(f"denjoy_wolff.location: {exc}") from exc
        dw = DenjoyWolffRecord(
            _parse_c(raw_dw.get("omega"), "denjoy_wolff.omega"),
            _parse_c(raw_dw.get("derivative"), "denjoy_wolff.derivative"),
            location)
        return BoundaryDataSymbol(tuple(pts), dw)
    raise CompspecError(
        f'kind: expected "rational" or "boundary-data", got {kind!r}')


def _primitive_json(p) -> dict:
    from .spectrum import Disk, GeometricTail, Points, Spiral
    if isinstance(p, Disk):
        return {"disk": p.radius}
    if isinstance(p, Spiral):
        return {"spiral": _c(p.a)}
    if isinstance(p, Points):
        return {"points": [_c(v) for v in p.values]}
    if isinstance(p, GeometricTail):
        return {"tail": _c(p.base)}
    raise CompspecError(f"unknown primitive {p!r}")


def _region_json(r: SpectralRegion) -> list:
    return [_primitive_json(p) for p in r.primitives]


def _region_from_json(prims: list) -> SpectralRegion:
    from .spectrum import Disk, GeometricTail, Points, Spiral, region
    out = []
    for i, p in enumerate(prims):
        if not isinstance(p, dict) or len(p) != 1:
            raise CompspecError(f"primitives[{i}]: expected a one-key object")
        key, val = next(iter(p.items()))
        path = f"primitives[{i}].{key}"
        if key == "disk":
            out.append(Disk(_parse_real(val, path)))
        elif key == "spiral":
            out.append(Spiral(_parse_c(val, path)))
        elif key == "points":
            vals = _parse_list(val, path)
            out.append(Points(tuple(_parse_c(v, f"{path}[{j}]")
                                    for j, v in enumerate(vals))))
        elif key == "tail":
            out.append(GeometricTail(_parse_c(val, path)))
        else:
            raise CompspecError(f"primitives[{i}]: unknown primitive {key!r}")
    return region(*out)


def _cert_json(cert) -> dict:
    return {
        "accepted": cert.accepted,
        "checks": [{"zeta": _c(c.zeta), "margin": c.margin,
                    "order_two": c.order_two,
                    "multiplicity": c.multiplicity,
                    "ok": c.ok, "note": c.note} for c in cert.checks],
        "notes": list(cert.notes),
    }


def _partition_json(part) -> dict:
    return {
        "iterate_out": [_c(p) for p in part.iterate_out],
        "cycles": [{"points": [_c(p) for p in c.points],
                    "multiplier": c.multiplier} for c in part.cycles],
        "lead_ins": {str(k): [_c(p) for p in v]
                     for k, v in sorted(part.lead_ins.items())},
    }


def _dw_json(dw: DenjoyWolffRecord) -> dict:
    return {"omega": _c(dw.omega), "derivative": _c(dw.derivative),
            "location": dw.location.value}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode(o, indent: str, parts: list) -> None:
    """Append the parts of o as json.dumps(indent=2, sort_keys=True)
    writes it, o starting at the current indent.  Dict keys must be
    strings; there is no cycle check."""
    if isinstance(o, str):
        parts.append(_quote(o))
    elif o is None:
        parts.append("null")
    elif o is True:
        parts.append("true")
    elif o is False:
        parts.append("false")
    elif isinstance(o, int):
        parts.append(int.__repr__(o))
    elif isinstance(o, float):
        parts.append(_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            parts.append("[]")
            return
        inner = indent + "  "
        if len(o) == 2:   # most of a report is [re, im] pairs
            x, y = o
            if (type(x) is float and type(y) is float
                    and x - x == 0.0 == y - y):   # both finite
                parts.append(f"[\n{inner}{x!r},\n{inner}{y!r}\n{indent}]")
                return
        sep = "[\n" + inner
        for v in o:
            parts.append(sep)
            _encode(v, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "]")
    elif isinstance(o, dict):
        if not o:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            parts.append(f"{sep}{_quote(k)}: ")
            _encode(v, inner, parts)
            sep = ",\n" + inner
        parts.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} "
                        "is not JSON serializable")


def _dumps(o) -> str:
    """json.dumps(o, indent=2, sort_keys=True), byte for byte, for trees
    of str-keyed dicts, lists, tuples and JSON scalars."""
    parts: list = []
    _encode(o, "", parts)
    return "".join(parts)


def _emit(doc: dict, out_path: str | None):
    text = _dumps(doc) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _load_doc(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CompspecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CompspecError(f"{path} is not valid JSON: {exc}") from exc


def _rejection_doc(doc, reason: str, cert=None) -> dict:
    out = {"schema": SCHEMA, "input": doc, "accepted": False,
           "reason": reason}
    if cert is not None:
        out["certification"] = _cert_json(cert)
    return out


def _project(args) -> int:
    """Reduce the input document once and write the document that
    ``args.projection(doc, analysis)`` gives with its "full" region (or
    None), plus the SVG of that region when asked.

    Out-of-scope and uncertified symbols are rejected with exit 2; the
    rejection carries the certificate once the reduction has it."""
    from .symbol import analyze
    doc = _load_doc(args.input)
    a = None
    try:
        a = analyze(_parse_symbol(doc))
        out, full = args.projection(doc, a)
    except (NotInScopeError, NotCertifiedError) as exc:
        cert = None if a is None else a.certificate
        _emit(_rejection_doc(doc, str(exc), cert), args.out)
        return EXIT_REJECTED
    _emit(out, args.out)
    if getattr(args, "svg", None):
        from .render import write_svg
        write_svg(full, args.svg)
    return EXIT_OK


def _full_report(doc, a: Analysis) -> tuple:
    from .spectrum import synthesize
    from .symbol import essential_norm_sq
    report = synthesize(a)
    return {
        "schema": SCHEMA,
        "input": doc,
        "accepted": True,
        "certification": _cert_json(a.certificate),
        "denjoy_wolff": _dw_json(a.boundary.denjoy_wolff),
        "type_class": a.type_class.value,
        "partition": _partition_json(a.partition),
        "rho": report.rho,
        "essential": _region_json(report.essential),
        "full": _region_json(report.full),
        "essential_norm_sq": essential_norm_sq(a),
        "diagnostics": {"notes": list(report.notes)},
    }, report.full


def _spectrum(doc, a: Analysis) -> tuple:
    from .spectrum import synthesize
    report = synthesize(a)
    return {"schema": SCHEMA, "accepted": True, "rho": report.rho,
            "essential": _region_json(report.essential),
            "full": _region_json(report.full)}, report.full


def _classification(doc, a: Analysis) -> tuple:
    return {"schema": SCHEMA,
            "denjoy_wolff": _dw_json(a.boundary.denjoy_wolff),
            "type_class": a.type_class.value}, None


def _boundary(doc, a: Analysis) -> tuple:
    pts = [{"zeta": _c(p.zeta), "value": _c(p.value),
            "d1": _c(p.d1), "d2": _c(p.d2), "multiplicity": c.multiplicity,
            "contact_margin": p.contact_margin()}
           for p, c in zip(a.boundary.points, a.certificate.checks)]
    return {"schema": SCHEMA, "contact_set": pts,
            "certification": _cert_json(a.certificate)}, None


def cmd_lemma_check(args) -> int:
    from .algebra_lab import family_size, run_checker
    n = family_size(args.lemma, args.n)
    ok, failing = run_checker(args.lemma, n, args.order, args.trials,
                              args.seed)
    out = {"schema": SCHEMA, "lemma": args.lemma, "n": n,
           "order": args.order, "trials": args.trials, "seed": args.seed,
           "passed": ok, "failing_seeds": failing}
    _emit(out, args.out)
    return EXIT_OK if ok else EXIT_ERROR


def cmd_truncate(args) -> int:
    from .algebra_lab import eigenvalues, truncation_from_coeffs
    from .spectrum import distance, synthesize
    from .symbol import RationalSymbol
    doc = _load_doc(args.input)
    if not isinstance(doc, dict) or doc.get("kind") != "rational":
        raise CompspecError("truncate needs a rational symbol document")
    num, den = _parse_coeffs(doc, "num"), _parse_coeffs(doc, "den")
    mat = truncation_from_coeffs(num, den, args.order)
    vals = sorted(eigenvalues(mat), key=lambda z: (-abs(z), z.real, z.imag))
    out = {"schema": SCHEMA, "order": args.order,
           "eigenvalues": [_c(v) for v in vals]}
    try:
        report = synthesize(RationalSymbol(num, den))
        out["predicted_full"] = _region_json(report.full)
        dists = (distance(report.full, v) for v in vals)
        out["distances"] = [0.0 if d <= EPS else d for d in dists]
    except CompspecError as exc:
        out["diagnostics"] = {"no_prediction": str(exc)}
    _emit(out, args.out)
    return EXIT_OK


def cmd_render(args) -> int:
    from .render import write_svg
    doc = _load_doc(args.input)
    if not isinstance(doc, dict):
        raise CompspecError("report root must be a JSON object")
    prims = doc.get("full", doc.get("essential"))
    if prims is None:
        raise CompspecError(
            "report document has neither a 'full' nor an 'essential' region")
    write_svg(_region_from_json(_parse_list(prims, "region")), args.svg)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="compspec",
                     description="spectra of composition operators with "
                                 "order-2 boundary contact symbols")
    sub = parser.add_subparsers(dest="command", required=True)

    # the symbol subcommands, each one projection of the analysis
    for name, help_, projection, svg in (
            ("analyze", "full pipeline report", _full_report, True),
            ("spectrum", "spectral regions only", _spectrum, True),
            ("classify", "Denjoy-Wolff point and type class",
             _classification, False),
            ("boundary", "contact set and second-order data", _boundary,
             False)):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="symbol document (JSON)")
        p.add_argument("--out", help="write JSON here, not stdout")
        if svg:
            p.add_argument("--svg", help="also write an SVG plot")
        p.set_defaults(func=_project, projection=projection)

    p = sub.add_parser("lemma-check", help="run a seeded lemma suite")
    p.add_argument("--lemma", required=True,
                   choices=["fl", "flc", "ta", "cta", "lip", "n2c", "rsm"])
    p.add_argument("--n", type=int, default=3,
                   help="family size (patterns with a fixed size ignore it)")
    p.add_argument("--order", type=int, default=12, help="matrix order")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("truncate",
                       help="eigenvalues of the N x N truncation")
    p.add_argument("input")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", help="write JSON here, not stdout")
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("render", help="SVG plot from a report document")
    p.add_argument("input", help="report document (JSON)")
    p.add_argument("--svg", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)
    return parser


# parse_args keeps no state on the parser: each call makes a fresh
# namespace, and set_defaults bound the subcommand functions once
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "lemma-check":
            bad = (args.n < 2 or args.order < 1 or args.trials < 1
                   or args.seed < 0)
            if bad:
                sys.stderr.write("error: invalid lemma-check flag ranges\n")
                return EXIT_USAGE
        return args.func(args)
    except CompspecError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
