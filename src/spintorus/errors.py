"""Exception types shared across the package."""

from __future__ import annotations


class SpinTorusError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidScalarError(SpinTorusError, ZeroDivisionError):
    """Division by zero, or inversion of a non-invertible scalar."""


class SignatureMismatchError(SpinTorusError):
    """Two algebra elements from different signatures were combined."""


class LatticeMismatchError(SpinTorusError, ValueError):
    """Torus points over different lattices, or bundle classes of different k, were combined."""


class EnumerationTooLargeError(SpinTorusError):
    """A requested enumeration exceeds the configured cap."""


class NotIntegralError(SpinTorusError):
    """A Gaussian-integer input was required but not supplied."""


class LatticeNotPreservedError(SpinTorusError):
    """The element does not map the lattice into itself."""


class NonUnimodularError(SpinTorusError):
    """An integer (or Gaussian-integer) matrix with unit determinant was required."""


class NotPrincipalError(SpinTorusError):
    """The polarization is not principal, so the duality map is unavailable."""


class NotUnitVectorError(SpinTorusError):
    """A grade-1 element with square +1 or -1 was required."""


class WitnessFailedError(SpinTorusError):
    """A decomposition witness check did not hold."""


class ArityMismatchError(SpinTorusError):
    """A literal has the wrong number of components for the given dimension."""


class IndexOutOfRangeError(SpinTorusError):
    """A generator index lies outside the algebra's generator range."""


class ParseError(SpinTorusError):
    """A literal failed to parse. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
