import importlib.util
import math
import pathlib

import pytest

from compspec import (BoundaryDataSymbol, DenjoyWolffRecord, Location,
                      RationalSymbol, SecondOrderData)


@pytest.fixture
def lollipop():
    """phi(z) = (2z^2 - z - 2) / (2z^2 - 3): parabolic fixed point at 1,
    repelling fixed point at -1 with derivative 9."""
    return RationalSymbol((-2, -1, 2), (-3, 0, 2))


@pytest.fixture
def two_cycle():
    """phi(z) = -z/(3 - 2z^2): swaps 1 and -1, cycle multiplier 25."""
    return RationalSymbol((0, -1), (3, 0, -2))


@pytest.fixture
def eight_point():
    """kappa(z) gamma(z^2) with contact set the 8th roots of unity:
    iterate-out pair, a 2-cycle with lead-ins, two fixed points."""
    i = 1j
    num = (0, 0, 0, -(1 + i), 0, -(3 - i))
    den = (6 + 2 * i, 0, 2 - 2 * i, 0, 0, 0, 0, 0, -(3 + i), 0, -(1 - i))
    return RationalSymbol(num, den)


@pytest.fixture
def square_root():
    """Boundary-data stand-in for the square-root composite symbol."""
    p1 = SecondOrderData(-1, -1, 2.5, -33 / 8)
    p2 = SecondOrderData(1, 1, 0.5, 0)
    dw = DenjoyWolffRecord(1, 0.5, Location.BOUNDARY)
    return BoundaryDataSymbol((p1, p2), dw)


@pytest.fixture
def compact_half():
    """phi(z) = z/2: no boundary contact, compact operator."""
    return RationalSymbol((0, 0.5), (1,))


def count_calls(monkeypatch, *targets):
    """Wrap each (owner, name) so that its calls are counted."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        calls[name] = 0
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def nearest(points, target):
    return min(points, key=lambda p: abs(p - target))


ROOT12 = 1.0 / math.sqrt(12.0)


def perfbench_gen():
    """perfbench/gen.py, the benchmark's seeded symbol families, loaded
    by path so that its directory stays off sys.path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
