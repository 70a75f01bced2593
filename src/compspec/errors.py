"""Exception hierarchy."""


class CompspecError(Exception):
    """Base class for all library errors."""


class DegenerateMapError(CompspecError):
    """A linear-fractional map (or composition) with vanishing determinant."""


class PoleError(CompspecError):
    """Evaluation of a linear-fractional map at (or too near) its pole."""


class InvalidDataError(CompspecError):
    """Input data violating a documented invariant."""


class NotInScopeError(CompspecError):
    """A symbol the pipeline deliberately refuses (e.g. inner symbols)."""


class NotCertifiedError(CompspecError):
    """An operation requiring order-2 contact certification was called on a
    symbol that fails certification."""


class RootFindingError(CompspecError):
    """A root finder or eigensolver failed to converge."""
