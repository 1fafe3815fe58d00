"""Exception types shared across the package.

Bad input raises a DomainError: every error below derived from it names
an argument outside the hypotheses of the package's results (a point on
an interface, an absent component, a layer index out of range, charges
or targets outside their boxes, boxes that are not separated, an order
the constant tables do not support).  DomainError is a ValueError, and
the command line reports it as a usage error (exit 2).

InvariantViolated, DegenerateDenominator and ToleranceNotMet are not
input errors: a defect or corrupt data, and a tolerance the quadrature
could not meet.
"""


class LayerFMMError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LayerFMMError, ValueError):
    """Function argument outside its mathematical domain: the root of
    every error bad input raises."""


class PointOnInterface(DomainError):
    """A point's z-coordinate coincides with an interface height."""


class ComponentAbsent(DomainError):
    """The requested reaction component vanishes identically for this
    layer pair (source or target in an outermost layer, or no interfaces)."""


class InvalidSpectralArgument(DomainError):
    """Spectral argument outside the closed right half plane Re k >= 0."""


class IndexOutOfRange(DomainError):
    """Layer index outside 0..L."""


class OrderTooHigh(DomainError, OverflowError):
    """A truncation order above the supported maximum of the constant
    tables."""


class DegenerateDenominator(LayerFMMError):
    """|alpha_22| fell below the corruption tripwire; the recursion
    guarantees it is bounded away from zero for admissible media."""


class InvariantViolated(LayerFMMError):
    """A runtime invariant of the mathematics failed: the interface-matrix
    key inequality, or the imaginary residue of an expansion of real
    charges.  Signals corrupt input data or a defect, never a tolerance
    miss."""


class ToleranceNotMet(LayerFMMError):
    """Adaptive quadrature exhausted its budget before reaching the
    requested tolerance.  ``achieved`` carries the error estimate."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ChargeOutsideBox(DomainError):
    """A source charge lies outside the declared source-box radius."""


class ChargeInsideBox(DomainError):
    """A source charge lies inside the target-box radius where a local
    expansion is being formed."""


class BoxesNotSeparated(DomainError):
    """Source and target boxes violate the well-separateness condition
    |center difference| > a_s + c*a_t with c > 1."""


class CenterOnWrongSide(DomainError):
    """An equivalent-polarization expansion center violates the required
    side condition relative to the target layer's interfaces."""


class BoxCrossesInterface(DomainError):
    """A charge box extends across a medium interface."""


class RegionViolation(UserWarning):
    """Expansion evaluated outside its region of validity.  Warning level:
    the value is still returned for diagnostic sweeps."""
