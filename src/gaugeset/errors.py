"""Exception types shared across the package."""


class GaugesetError(Exception):
    """Base class for all package-specific errors."""


class GridMismatch(GaugesetError):
    """Two support sets do not share a compatible direction grid."""


class EmptySupportSet(GaugesetError):
    """A raw support vector describes an empty halfplane intersection."""


class GaugeNotPositive(GaugesetError):
    """A gauge evaluated to a non-positive width at a probed point."""


class DepthExceeded(GaugesetError):
    """Bisection passed the depth or cell budget without acceptance.

    Signals a gauge too irregular for the finite probe set, not a bug.
    """

    def __init__(self, message, depth=None, active_cells=None):
        super().__init__(message)
        self.depth = depth
        self.active_cells = active_cells


class PackingTruncated(GaugesetError):
    """The loop guard stopped a greedy packing before the end of a component.

    The packing's value then misses the rest of the component, so no
    estimate is reported for the level.
    """

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class NotASelection(GaugesetError):
    """A candidate selection left its multifunction at some probe point."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
