"""Each subcommand loads only its own layer.  The package imports its
errors alone and the CLI adds only ``config``, so ``lemma-check`` loads
the matrix lab and no symbol code, and the symbol subcommands never
load the lab.  Each case runs in a fresh interpreter, since this test
session has already imported the whole package."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).parent / "golden"

BASE = ["compspec", "compspec.cli", "compspec.config", "compspec.errors"]

_PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "compspec" or m.startswith("compspec."))

import compspec, compspec.cli
imported = loaded()
code = compspec.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"imported": imported, "code": code, "after": loaded(),
                  "polynomial": "numpy.polynomial" in sys.modules}))
"""


def probe(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_lemma_check_loads_the_lab_and_no_symbol_code(tmp_path):
    got = probe(["lemma-check", "--lemma", "fl", "--n", "2", "--order", "6",
                 "--trials", "2", "--out", str(tmp_path / "out.json")],
                tmp_path)
    assert got["imported"] == BASE
    assert got["code"] == 0
    assert got["after"] == sorted(BASE + ["compspec.algebra_lab"])
    assert not got["polynomial"]


@pytest.mark.parametrize("command", ["classify", "analyze"])
def test_symbol_subcommands_never_load_the_lab(command, tmp_path):
    got = probe([command, str(GOLDEN / "lollipop.symbol.json"),
                 "--out", str(tmp_path / "out.json")], tmp_path)
    assert got["imported"] == BASE
    assert got["code"] == 0
    assert "compspec.symbol" in got["after"]
    assert "compspec.algebra_lab" not in got["after"]
