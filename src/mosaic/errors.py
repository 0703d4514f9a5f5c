"""Exception types raised by the engine, and the shape of a check's report.

Everything derives from MosaicError, itself a ValueError, so callers can
catch broadly or precisely.  Each class names one way an input can be
malformed; messages carry the offending values.  A check that collects
its failures instead of raising returns a CheckReport.
"""

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one check: it passes when it lists no failures."""

    failures: list = field(default_factory=list, kw_only=True)

    @property
    def passed(self):
        return not self.failures

    @property
    def verdict(self):
        return "pass" if self.passed else f"{len(self.failures)} FAILURES"


class MosaicError(ValueError):
    """Base class for all errors raised by this package."""


class RangeError(MosaicError):
    """A numeric argument is outside its documented range."""


class DuplicateLabel(MosaicError):
    """Side labels of a polygon must be pairwise distinct."""


class AdjacentDiagonal(MosaicError):
    """A diagonal must join two non-adjacent vertices."""


class CrossingDiagonals(MosaicError):
    """Two diagonals of the same polygon interleave."""


class TooManyDiagonals(MosaicError):
    """An n-gon admits at most n-3 pairwise non-crossing diagonals."""


class MismatchedPolygons(MosaicError):
    """A binary operation received polygons that do not fit together."""


class UnknownLabel(MosaicError):
    """A label was referenced that the polygon does not carry."""


class LabelCollision(MosaicError):
    """Gluing would leave two surviving sides with the same label."""


class ArityMismatch(MosaicError):
    """A full composition must attach one polygon to every base side."""


class NonBijective(MosaicError):
    """A relabeling map must be a bijection on the polygon's labels."""


class NoSuchDiagonal(MosaicError):
    """The requested diagonal is not part of the dissection."""


class NoInfinitySide(MosaicError):
    """Marked operations need exactly one side carrying the label n."""


class UnknownCell(MosaicError):
    """The cell does not belong to the complex being queried."""


class BadSubsetSize(MosaicError):
    """A separating label subset must have between 2 and n-2 elements."""


class NotASurface(MosaicError):
    """Surface classification applies only to closed 2-dimensional complexes."""


class NotSI(MosaicError):
    """The two single-diagonal polygons do not superimpose (diagonals cross)."""


class InvariantViolation(MosaicError):
    """An internal structural invariant failed; the computed object is unusable."""
