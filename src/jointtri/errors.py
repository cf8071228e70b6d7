"""Exception types raised by numerical preconditions across the package,
and the per-trial failure bookkeeping of batched stages."""

import numpy as np


class JointTriError(Exception):
    """Base class for all package-specific errors."""


class Failures:
    """The rows of a trial batch still running through a stage, and where
    each trial that fails goes.

    With ``errors``, a list with one slot per trial, a failing trial's
    error is put in its slot and the trial leaves the batch, so the
    stage's later checks never see it and each slot holds the trial's
    first failure.  Without it the first failure is raised, which is the
    single-problem behaviour of a batch of one.
    """

    def __init__(self, count, errors=None):
        self.rows = np.arange(count)  # the trial of each running row
        self.errors = errors

    def drop(self, failed, error, *arrays):
        """Fail the running rows where ``failed`` holds with ``error``, and
        return ``arrays`` (indexed by running row) without them."""
        failed = np.asarray(failed, dtype=bool)
        if not failed.any():
            return arrays
        if self.errors is None:
            raise error
        for row in self.rows[failed]:
            self.errors[row] = error
        keep = ~failed
        self.rows = self.rows[keep]
        return tuple(a[keep] for a in arrays)


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
