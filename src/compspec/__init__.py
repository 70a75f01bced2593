"""Spectra and essential spectra of Hardy-space composition operators
whose symbols have finite, order-2 boundary contact.

The pipeline: build a symbol (rational coefficients or explicit
boundary data), reduce it once to boundary data, certify the order-2
contact conditions, partition the boundary contact set by its orbit
behavior, and synthesize the spectrum and essential spectrum in closed
form.  A finite-matrix laboratory
independently verifies the annihilation-sum spectral lemmas the
synthesis rests on.
"""

from .errors import (CompspecError, DegenerateMapError, PoleError,
                     InvalidDataError, NotInScopeError, NotCertifiedError,
                     RootFindingError)
from .mobius import (MobiusMap, SecondOrderData, derivative,
                     second_derivative, fixed_points, lfm_from_data,
                     is_disk_automorphism, IDENTITY_FIXED, AT_INFINITY)
from .symbol import (RationalSymbol, BoundaryDataSymbol, Symbol,
                     DenjoyWolffRecord, Location, TypeClass, ClarkAtoms,
                     Analysis, analyze,
                     contact_set, contact_points, second_order_data,
                     denjoy_wolff, classify_type,
                     certify_s2, clark_atoms, essential_norm_sq)
from .dynamics import Cycle, OrbitPartition, partition, cycle_multiplier
from .spectrum import (Disk, Spiral, Points, GeometricTail, SpectralRegion,
                       region, contains, max_modulus, region_equal,
                       SpectrumReport, lft_spectra, rho, rho_star,
                       synthesize, spectral_radius_check,
                       kms2t_essential_union)
from .algebra_lab import Pattern, eigenvalues, make_family, run_checker

__version__ = "0.1.0"
