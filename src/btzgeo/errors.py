"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularPointError(GeometryError):
    """A metric or chart quantity was requested on the singular line (r = 0)."""


class InvalidIsometryError(GeometryError):
    """A matrix failed the Lorentz-group membership checks."""


class DegenerateMeasureError(GeometryError):
    """A volume-time estimate has a vanishing past or future volume, so the
    logarithm is undefined.

    Attributes
    ----------
    side : str
        "past" or "future".
    estimate : float
        The offending volume estimate (typically 0.0).
    """

    def __init__(self, side, estimate):
        self.side = side
        self.estimate = float(estimate)
        super().__init__(
            f"degenerate measure: {side} volume estimate is {estimate!r}"
        )


class CertificationError(GeometryError):
    """An iterative certification (e.g. the capped extension search) failed
    within its resource bounds."""


class BoundaryMismatchError(GeometryError):
    """Two surface pieces disagree on their shared boundary trace."""


class NotBTZExtendableError(GeometryError):
    """A chart does not admit the requested singular-line extension."""


class GluingMismatchError(GeometryError):
    """A face pairing of a polyhedral complex fails its compatibility check."""
