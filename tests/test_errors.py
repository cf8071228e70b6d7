import numpy as np
import pytest

from jointtri.errors import Failures, NearDefective, NoSeparatingBeta, SingularOperator
from jointtri.triangularize import MatrixSet


class TestFailures:
    """The one failure path of the batched stages: a failing trial leaves
    the batch at once, with its first error in its slot."""

    def test_drop_removes_rows_and_records_their_trials(self):
        fail = Failures(5, record=True)
        values, frames = np.arange(5.0), np.arange(5 * 4.0).reshape(5, 2, 2)
        error = NearDefective("first")
        values, frames = fail.drop([False, True, False, False, True], error, values, frames)
        assert fail.rows.tolist() == [0, 2, 3]
        assert values.tolist() == [0.0, 2.0, 3.0]
        assert np.array_equal(frames, np.arange(5 * 4.0).reshape(5, 2, 2)[[0, 2, 3]])
        assert fail.errors == [None, error, None, None, error]
        # the rows are now the running ones: row 1 is trial 2
        later = NoSeparatingBeta("second")
        (values,) = fail.drop([False, True, False], later, values)
        assert fail.rows.tolist() == [0, 3] and values.tolist() == [0.0, 3.0]
        assert fail.errors == [None, error, later, None, error]

    def test_nothing_failing_returns_the_same_arrays(self):
        fail = Failures(3)
        values = np.arange(3.0)
        (same,) = fail.drop(np.zeros(3, dtype=bool), NearDefective("none"), values)
        assert same is values and fail.rows.tolist() == [0, 1, 2]
        assert fail.errors is None

    def test_without_a_list_the_first_failure_is_raised(self):
        fail = Failures(3)
        error = NearDefective("raised")
        with pytest.raises(NearDefective) as raised:
            fail.drop([False, True, True], error, np.arange(3.0))
        assert raised.value is error
        calls = []

        def call(x):
            calls.append(x)
            if x >= 1:
                raise SingularOperator(f"at {x}")
            return x

        with pytest.raises(SingularOperator, match="at 1"):
            Failures(3).each(call, [0, 1, 2])
        assert calls == [0, 1]  # the rows after the first failure are not run

    def test_each_records_each_rows_own_error(self):
        fail = Failures(4, record=True)
        fail.drop([True, False, False, False], NearDefective("init"))

        def call(x):
            if x in (1, 3):
                raise SingularOperator(f"at {x}")
            return 10.0 * x

        values = fail.each(call, [1, 2, 3])  # over trials 1, 2, 3
        assert values.tolist() == [20.0] and fail.rows.tolist() == [2]
        assert [type(e).__name__ for e in fail.errors] == [
            "NearDefective", "SingularOperator", "NoneType", "SingularOperator"]
        assert [str(e) for e in fail.errors[1::2]] == ["at 1", "at 3"]

    def test_since_realigns_after_a_nested_stage(self):
        """An outer stage holds arrays over its rows; a nested stage drops
        trials; since cuts the outer arrays to the trials still running."""
        fail = Failures(6, record=True)
        fail.drop([False, False, True, False, False, False], NearDefective("outer"))
        rows = fail.rows  # trials 0, 1, 3, 4, 5
        matrices = np.arange(5 * 2 * 4.0).reshape(5, 2, 2, 2)
        mset, beta = MatrixSet(matrices), np.arange(5.0)

        def double(v):
            if v == 4.0:
                raise SingularOperator("nested")
            return 2.0 * v

        def nested(x, fail):
            (x,) = fail.drop(x == x[0], NoSeparatingBeta("nested"), x)
            return fail.each(double, x)

        values = nested(beta, fail)
        assert fail.rows.tolist() == [1, 3, 4]
        mset, beta = fail.since(rows, mset, beta)
        assert isinstance(mset, MatrixSet)
        assert np.array_equal(mset.matrices, matrices[[1, 2, 3]])
        assert values.tolist() == (2.0 * beta).tolist() == [2.0, 4.0, 6.0]
        assert [type(e).__name__ for e in fail.errors] == [
            "NoSeparatingBeta", "NoneType", "NearDefective", "NoneType", "NoneType",
            "SingularOperator"]
        # nothing dropped since the last snapshot: the arrays come back as they are
        rows = fail.rows
        (same,) = fail.since(rows, beta)
        assert same is beta
