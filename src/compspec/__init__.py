"""Spectra and essential spectra of Hardy-space composition operators
whose symbols have finite, order-2 boundary contact.

The pipeline: build a symbol (rational coefficients or explicit
boundary data), reduce it once to boundary data, certify the order-2
contact conditions, partition the boundary contact set by its orbit
behavior, and synthesize the spectrum and essential spectrum in closed
form.  A finite-matrix laboratory
independently verifies the annihilation-sum spectral lemmas the
synthesis rests on.

Only the errors are imported with the package: every other public name
loads its submodule on first access, so a process that runs only the
matrix laboratory never loads the symbol layer, and the reverse.
"""

from importlib import import_module as _import_module

from .errors import (CompspecError, DegenerateMapError, PoleError,
                     InvalidDataError, NotInScopeError, NotCertifiedError,
                     RootFindingError)

__version__ = "0.1.0"

# submodule -> the public names it defines, imported on first access
_LAZY = {
    "mobius": ("MobiusMap", "SecondOrderData", "derivative",
               "second_derivative", "fixed_points", "lfm_from_data",
               "is_disk_automorphism", "IDENTITY_FIXED", "AT_INFINITY"),
    "symbol": ("RationalSymbol", "BoundaryDataSymbol", "Symbol",
               "DenjoyWolffRecord", "Location", "TypeClass", "ClarkAtoms",
               "Analysis", "analyze", "contact_set", "contact_points",
               "second_order_data", "denjoy_wolff", "classify_type",
               "certify_s2", "clark_atoms", "essential_norm_sq"),
    "dynamics": ("Cycle", "OrbitPartition", "partition", "cycle_multiplier"),
    "spectrum": ("Disk", "Spiral", "Points", "GeometricTail",
                 "SpectralRegion", "region", "contains", "max_modulus",
                 "region_equal", "SpectrumReport", "lft_spectra", "rho",
                 "rho_star", "synthesize", "spectral_radius_check",
                 "kms2t_essential_union"),
    "algebra_lab": ("Pattern", "eigenvalues", "make_family", "run_checker"),
}
_SOURCE = {name: mod for mod, names in _LAZY.items() for name in names}

__all__ = sorted(["CompspecError", "DegenerateMapError", "PoleError",
                  "InvalidDataError", "NotInScopeError", "NotCertifiedError",
                  "RootFindingError", *_SOURCE])


def __getattr__(name):
    mod = _SOURCE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{mod}"), name)


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
