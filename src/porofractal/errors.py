"""Exception types shared across the package."""


class FractalError(Exception):
    """Base class for all package-specific errors."""


class SingularMapError(FractalError):
    """Affine map is numerically singular and cannot transform a polygon."""


class CoordinateRangeError(FractalError):
    """Cell coordinates reach the overflow bound 1e75 in magnitude, below
    which every product of up to four stays finite, or a view box is empty."""


class CapExceededError(FractalError):
    """A requested enumeration or build would exceed a configured cap."""


class UnknownSchemeError(FractalError):
    """No built-in scheme with the requested name."""


class ParseError(FractalError):
    """Scheme document is not valid JSON or has the wrong shape."""


class ValidationError(FractalError):
    """Scheme violates one or more construction invariants.

    `violations` lists every individual violation found, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EmptyTreeError(FractalError):
    """Cell tree has no cells at the depths a check requires."""


class DepthOutOfRangeError(FractalError):
    """Requested render depth is outside the built tree."""


class UnknownAddressError(FractalError):
    """Address does not name a kept cell of the tree."""


class AmbiguousBranchError(FractalError):
    """Point lies within tolerance of two branch images; inverse shift undefined."""


class OutsideAttractorError(FractalError):
    """Point lies in no branch image of the iterated system."""


class NoSeparationError(FractalError):
    """No cell pair achieves the required separation distance."""
