"""The output stage: the indent-2 JSON writer behind every report and the
spiral polyline of the SVG."""

import cmath
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compspec.cli import _dumps, main
from compspec.render import _px, region_svg
from compspec.spectrum import Spiral, region

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXAMPLES = ["lollipop", "two_cycle", "eight_point", "square_root"]


def reference(o) -> str:
    return json.dumps(o, indent=2, sort_keys=True)


class _Float(float):
    """json writes float subclasses through float.__repr__."""

    def __repr__(self):
        return "not a float"


_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e16, 1e22, math.inf, -math.inf,
                     math.nan]),
    st.floats().map(_Float),
    st.floats().map(np.float64))
_texts = st.one_of(
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "\x00\x01\x1f\x7f",
                     "tab\tnew\nline", "\u2028\u2029", "\U0001f600 \ud7ff"]))
_leaves = st.one_of(
    st.none(), st.booleans(), _floats, _texts,
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-2 ** 64),
    st.tuples(_floats, _floats).map(list))   # the [re, im] pairs
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(_texts, kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_trees)
def test_writer_matches_json_dumps(tree):
    assert _dumps(tree) == reference(tree)


@pytest.mark.parametrize("value", [
    {"empty": {}, "list": [], "tuple": ()},
    [1.0, 2.0], (1.0, 2.0), [1.0, math.inf], [math.nan, 0.5], [1, 2.0],
    [True, 0.5], [[1.0, 2.0]], {"z": [0.5, -0.0], "a": [1e22, 5e-324]},
])
def test_writer_edge_cases(value):
    assert _dumps(value) == reference(value)


@pytest.mark.parametrize("value", [
    object(), {1.0 + 2.0j}, 1j, np.int64(3), b"bytes", {"k": set()},
    [np.bool_(True)], {1: 2}, {("a",): 1},
])
def test_writer_rejects_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        _dumps(value)


def _same_bytes_as_parsed(text: str):
    assert text == reference(json.loads(text)) + "\n"


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("command", ["analyze", "classify", "boundary",
                                     "spectrum"])
def test_reports_are_json_dumps_bytes(name, command, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([command, str(GOLDEN / f"{name}.symbol.json"),
                 "--out", str(out)]) == 0
    _same_bytes_as_parsed(out.read_text(encoding="utf-8"))
    assert main([command, str(GOLDEN / f"{name}.symbol.json")]) == 0
    _same_bytes_as_parsed(capsys.readouterr().out)


def test_truncate_rejection_and_verdict_are_json_dumps_bytes(tmp_path,
                                                            capsys):
    lollipop = str(GOLDEN / "lollipop.symbol.json")
    assert main(["truncate", lollipop, "--order", "16"]) == 0
    _same_bytes_as_parsed(capsys.readouterr().out)
    inner = tmp_path / "inner.json"   # phi(z) = z^2 is inner: exit 2
    inner.write_text(json.dumps({"kind": "rational", "den": [[1, 0]],
                                 "num": [[0, 0], [0, 0], [1, 0]]}))
    assert main(["analyze", str(inner)]) == 2
    text = capsys.readouterr().out
    assert json.loads(text)["accepted"] is False
    _same_bytes_as_parsed(text)
    assert main(["lemma-check", "--lemma", "fl", "--order", "8",
                 "--trials", "2"]) == 0
    _same_bytes_as_parsed(capsys.readouterr().out)


def _old_polyline(a: complex) -> str:
    """The per-vertex formula the polyline replaced."""
    t_end = -math.log(1e-4) / a.real
    steps = 600
    coords = []
    for k in range(steps + 1):
        x, y = _px(cmath.exp(-a * (t_end * k / steps)))
        coords.append(f"{x},{y}")
    return " ".join(coords)


_SHAPES = [complex(x, y) for x in np.geomspace(0.01, 10.0, 15)
           for y in np.linspace(-5.0, 5.0, 14)] + [8.0 + 0.0j]


def test_spiral_polyline_has_the_per_vertex_bits():
    for a in _SHAPES:
        svg = region_svg(region(Spiral(a)))
        (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
        assert points == _old_polyline(a), a
