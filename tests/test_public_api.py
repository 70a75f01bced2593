"""The public names of the package are a deliberate list: a new export,
or a lost one, has to show up as a diff of this test."""

import importlib
import pkgutil
import sys
import types

import pytest

import compspec

PUBLIC = [
    "AT_INFINITY", "Analysis", "BoundaryDataSymbol", "ClarkAtoms",
    "CompspecError", "Cycle", "DegenerateMapError", "DenjoyWolffRecord",
    "Disk", "GeometricTail", "IDENTITY_FIXED", "InvalidDataError",
    "Location", "MobiusMap", "NotCertifiedError", "NotInScopeError",
    "OrbitPartition", "Pattern", "Points", "PoleError", "RationalSymbol",
    "RootFindingError", "SecondOrderData", "SpectralRegion",
    "SpectrumReport", "Spiral", "Symbol", "TypeClass", "analyze",
    "certify_s2", "clark_atoms", "classify_type", "contact_points",
    "contact_set", "contains", "cycle_multiplier", "denjoy_wolff",
    "derivative", "eigenvalues", "essential_norm_sq", "fixed_points",
    "is_disk_automorphism", "kms2t_essential_union", "lfm_from_data",
    "lft_spectra", "make_family", "max_modulus", "partition", "region",
    "region_equal", "rho", "rho_star", "run_checker", "second_derivative",
    "second_order_data", "spectral_radius_check", "synthesize",
]


def test_public_names_are_the_pinned_list():
    names = sorted(n for n in dir(compspec) if not n.startswith("_")
                   and not isinstance(getattr(compspec, n), types.ModuleType))
    assert names == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from compspec import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        compspec.no_such_name
    assert not hasattr(compspec, "no_such_name")


def test_each_public_name_is_the_object_its_submodules_hold():
    modules = [importlib.import_module(f"compspec.{m.name}")
               for m in pkgutil.iter_modules(compspec.__path__)]
    for name in PUBLIC:
        obj = getattr(compspec, name)
        homes = [m.__name__ for m in modules if name in vars(m)]
        assert homes, name
        assert all(getattr(sys.modules[h], name) is obj for h in homes), name
