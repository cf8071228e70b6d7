"""Exception types raised by numerical preconditions across the package,
and the per-trial failure bookkeeping of batched stages."""

import numpy as np


class JointTriError(Exception):
    """Base class for all package-specific errors."""


class Failures:
    """The trials of a batch still running through a pipeline of stages,
    and the first failure of each trial that left.

    A batched stage takes its caller's Failures, reads its arrays over
    ``rows`` (the trial of each running row), drops a trial as soon as it
    fails, and returns arrays over the trials still running; the caller
    re-aligns its own arrays with ``since``.  With ``record`` each failing
    trial's error goes to its slot of ``errors``; without it the first
    failure is raised, which is the single-problem behaviour of a batch of
    one.
    """

    def __init__(self, count, record=False):
        self.rows = np.arange(count)
        self.errors = [None] * count if record else None

    def drop(self, failed, error, *arrays):
        """Fail the running rows where ``failed`` holds with ``error``, and
        return ``arrays`` (indexed by running row) without them."""
        failed = np.asarray(failed, dtype=bool)
        if not failed.any():
            return arrays
        if self.errors is None:
            raise error
        for trial in self.rows[failed].tolist():
            self.errors[trial] = error
        keep = ~failed
        self.rows = self.rows[keep]
        return tuple(a[keep] for a in arrays)

    def each(self, call, *inputs):
        """call(*row) over the rows of ``inputs`` (indexed by running row),
        as an array over the rows still running; a row whose call raises a
        JointTriError fails with it."""
        values, keep = [], np.ones(len(self.rows), dtype=bool)
        for k, row in enumerate(zip(*inputs)):
            try:
                values.append(call(*row))
            except JointTriError as exc:
                if self.errors is None:
                    raise
                self.errors[self.rows[k]] = exc
                keep[k] = False
        self.rows = self.rows[keep]
        return np.array(values, dtype=float)

    def since(self, rows, *arrays):
        """``arrays`` over ``rows``, an earlier value of ``rows``, cut to the
        trials still running."""
        if len(rows) == len(self.rows):
            return arrays
        keep = np.isin(rows, self.rows)
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


class NonFiniteOutput(JointTriError):
    pass
