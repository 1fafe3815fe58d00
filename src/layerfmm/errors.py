"""Exception types shared across the package."""


class LayerFMMError(Exception):
    """Base class for all package-specific errors."""


class PointOnInterface(LayerFMMError):
    """A point's z-coordinate coincides with an interface height."""


class ComponentAbsent(LayerFMMError):
    """The requested reaction component vanishes identically for this
    layer pair (source or target in an outermost layer, or no interfaces)."""


class InvalidSpectralArgument(LayerFMMError):
    """Spectral argument outside the closed right half plane Re k >= 0."""


class IndexOutOfRange(LayerFMMError):
    """Layer index outside 0..L."""


class DegenerateDenominator(LayerFMMError):
    """|alpha_22| fell below the corruption tripwire; the recursion
    guarantees it is bounded away from zero for admissible media."""


class InvariantViolated(LayerFMMError):
    """A runtime invariant of the mathematics failed: the interface-matrix
    key inequality, or the imaginary residue of an expansion of real
    charges.  Signals corrupt input data or a defect, never a tolerance
    miss."""


class DomainError(LayerFMMError):
    """Function argument outside its mathematical domain."""


class ToleranceNotMet(LayerFMMError):
    """Adaptive quadrature exhausted its budget before reaching the
    requested tolerance.  ``achieved`` carries the error estimate."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ChargeOutsideBox(LayerFMMError):
    """A source charge lies outside the declared source-box radius."""


class ChargeInsideBox(LayerFMMError):
    """A source charge lies inside the target-box radius where a local
    expansion is being formed."""


class BoxesNotSeparated(LayerFMMError):
    """Source and target boxes violate the well-separateness condition
    |center difference| > a_s + c*a_t with c > 1."""


class CenterOnWrongSide(LayerFMMError):
    """An equivalent-polarization expansion center violates the required
    side condition relative to the target layer's interfaces."""


class BoxCrossesInterface(LayerFMMError):
    """A charge box extends across a medium interface."""


class RegionViolation(UserWarning):
    """Expansion evaluated outside its region of validity.  Warning level:
    the value is still returned for diagnostic sweeps."""
