"""Exception types raised by numerical preconditions across the package."""


class JointTriError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(JointTriError):
    pass


class NearDefective(JointTriError):
    pass


class NegativeDeterminant(JointTriError):
    pass


class LogBranchAmbiguous(JointTriError):
    pass


class SingularOperator(JointTriError):
    pass


class DegenerateSpectrum(JointTriError):
    pass


class NoSeparatingBeta(JointTriError):
    pass


class LineSearchStalled(JointTriError):
    """The descent found no step that lowers the loss above rounding.

    Carries the last accepted iterate and trace so callers can decide
    whether the stalled point is good enough.
    """

    def __init__(self, message, frame=None, trace=None):
        super().__init__(message)
        self.frame = frame
        self.trace = trace


class RankDeficient(JointTriError):
    pass


class SingularZ(JointTriError):
    pass


class ZeroColumnSum(JointTriError):
    pass


class SingularY(JointTriError):
    pass


class NonUnitBeta(JointTriError):
    pass


class NoComparableFrame(JointTriError):
    pass
