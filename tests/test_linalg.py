import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri import cli, linalg
from jointtri.errors import (
    DimensionMismatch,
    Failures,
    LogBranchAmbiguous,
    NegativeDeterminant,
    NoSeparatingBeta,
)
from jointtri.linalg import (
    low_part,
    lower_index,
    min_pairwise_gap,
    orthogonal_log,
    require_orthogonal,
    skew_exp,
    unvec,
    vec,
)
from jointtri.triangularize import MatrixSet, _fix_column_signs, find_separating_beta
from oracle import min_pairwise_gap_per_pair, orthogonal_log_schur_expm


def random_skew(rng, d):
    a = rng.standard_normal((d, d))
    return a - a.T


def haar_rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def schur_frame(m):
    """The ascending Schur frame of one matrix: the U0 that
    find_separating_beta builds from its single eigendecomposition."""
    beta, u = find_separating_beta(MatrixSet((m,)))
    assert beta.tolist() == [1.0]
    return u


def assert_matches_logm(q):
    """The closed-form log agrees with scipy's general-matrix logm."""
    log_q = scipy.linalg.logm(q).real
    x = 0.5 * (log_q - log_q.T)
    err = np.max(np.abs(orthogonal_log(q) - x))
    assert err <= 1e-12 * max(1.0, np.linalg.norm(x))


class TestLowPartition:
    def test_two_by_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(low_part(a), [[0.0, 0.0], [3.0, 0.0]])
        assert np.array_equal(np.triu(a, 1), [[0.0, 2.0], [0.0, 0.0]])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_identity_has_no_offdiagonal(self, d):
        assert np.all(low_part(np.eye(d)) == 0.0)
        assert np.all(np.triu(np.eye(d), 1) == 0.0)

    def test_partition_reassembles(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        total = low_part(a) + np.triu(a, 1) + np.diag(np.diag(a))
        assert np.array_equal(total, a)

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (4, 5), (2, 8)])
    def test_stack_matches_tril_bit_for_bit(self, n, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((n, d, d))
        a[rng.random((n, d, d)) < 0.3] = -0.0
        a[rng.random((n, d, d)) < 0.2] = 0.0
        for stack in (a, a.transpose(0, 2, 1), a[0]):
            # the bytes tell -0.0 from +0.0
            assert low_part(stack).tobytes() == np.tril(stack, -1).tobytes()


class TestFixColumnSigns:
    @staticmethod
    def loop(u, tol=1e-12):
        """Column by column: flip where the first significant entry is negative."""
        u = u.copy()
        for j in range(u.shape[1]):
            col = u[:, j]
            nz = np.nonzero(np.abs(col) > tol * max(np.max(np.abs(col)), 1.0))[0]
            if nz.size and col[nz[0]] < 0:
                u[:, j] = -col
        return u

    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_matches_column_loop(self, d):
        rng = np.random.default_rng(d)
        u = rng.standard_normal((d, d))
        u[0, :] *= 1e-14  # leading entries below the significance floor
        u[1:2, :] *= 1e-10  # significant in u, not in 1e-3 u (floor of 1e-12)
        u[:, 0] = 0.0  # a zero column is left as it is
        if d > 1:
            u[:, 1] = -0.0
        for v in (u, 1e-3 * u, -u):
            assert _fix_column_signs(v).tobytes() == self.loop(v).tobytes()


class TestLowProjector:
    """P_low, held as the (rows, cols) arrays of lower_index."""

    def test_d4_selector_rows(self):
        # strictly-lower positions in column-major order for d = 4
        rows, cols = lower_index(4)
        assert np.array_equal(rows + 4 * cols, [1, 2, 3, 6, 7, 11])

    def test_d2_single_row(self):
        rows, cols = lower_index(2)
        assert rows.tolist() == [1] and cols.tolist() == [0]

    def test_d1_empty(self):
        rows, cols = lower_index(1)
        assert rows.size == 0 and cols.size == 0

    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_lower_pairs(self, d):
        rows, cols = lower_index(d)
        pairs = [(i, j) for j in range(d) for i in range(j + 1, d)]
        assert list(zip(rows.tolist(), cols.tolist())) == pairs

    def test_selector_is_partial_isometry(self):
        # gather after scatter is the identity; scatter after gather keeps
        # exactly the strictly-lower entries
        rows, cols = lower_index(5)
        x = np.arange(1.0, rows.size + 1)
        e = np.zeros((5, 5))
        e[rows, cols] = x
        assert np.array_equal(e[rows, cols], x)
        assert np.array_equal(e != 0, np.tril(np.ones((5, 5)), -1) != 0)

    @given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_projection_matches_low_part(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        rows, cols = lower_index(d)
        low = vec(low_part(a))
        assert np.array_equal(a[rows, cols], low[low != 0])
        e = np.zeros((d, d))
        e[rows, cols] = a[rows, cols]
        assert np.array_equal(e, low_part(a))

    @given(st.integers(min_value=2, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_skew_energy_splits_evenly(self, d, seed):
        # strictly-lower part carries exactly half the energy of a skew matrix
        x = random_skew(np.random.default_rng(seed), d)
        assert np.isclose(np.linalg.norm(low_part(x)), np.linalg.norm(x) / np.sqrt(2))


class TestVec:
    def test_column_major_round_trip(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(unvec(vec(a), 2), a)


class TestSkewExp:
    def test_zero_gives_identity(self):
        assert np.array_equal(skew_exp(np.zeros((3, 3))), np.eye(3))

    def test_planar_rotation_closed_form(self):
        gen = np.array([[0.0, -1.0], [1.0, 0.0]])
        theta = 0.7
        expected = [
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ]
        assert np.allclose(skew_exp(gen, theta), expected, atol=1e-14)

    def test_result_is_special_orthogonal(self):
        rng = np.random.default_rng(3)
        u = skew_exp(random_skew(rng, 5), 0.3)
        assert np.linalg.norm(u.T @ u - np.eye(5)) <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_direction(self, bad):
        x = np.zeros((3, 3))
        x[1, 0] = bad
        x[0, 1] = -bad
        with pytest.raises(DimensionMismatch):
            skew_exp(x)


class TestRequireOrthogonal:
    def test_accepts_rotation(self):
        q = skew_exp(random_skew(np.random.default_rng(2), 4), 0.5)
        assert np.array_equal(require_orthogonal(q), q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_frame(self, bad):
        u = np.eye(3)
        u[0, 0] = bad
        with pytest.raises(DimensionMismatch):
            require_orthogonal(u)

    def test_rejects_non_orthogonal_frame(self):
        with pytest.raises(DimensionMismatch):
            require_orthogonal(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestOrthogonalLog:
    def test_identity_gives_zero(self):
        assert np.allclose(orthogonal_log(np.eye(4)), 0.0)

    def test_planar_rotation_closed_form(self):
        gen = np.array([[0.0, -1.0], [1.0, 0.0]])
        q = skew_exp(gen, 0.3)
        assert np.allclose(orthogonal_log(q), 0.3 * gen, atol=1e-12)

    def test_round_trip_recovers_scale(self):
        rng = np.random.default_rng(7)
        x = random_skew(rng, 4)
        x /= np.linalg.norm(x)
        u0 = skew_exp(random_skew(rng, 4), 0.4)
        u = u0 @ skew_exp(x, 0.05)
        assert abs(np.linalg.norm(orthogonal_log(u0.T @ u)) - 0.05) <= 1e-8

    def test_rejects_reflections(self):
        with pytest.raises(NegativeDeterminant):
            orthogonal_log(np.diag([1.0, -1.0]))

    def test_rejects_half_turn(self):
        with pytest.raises(LogBranchAmbiguous):
            orthogonal_log(np.diag([-1.0, -1.0, 1.0]))

    def test_rejects_rotation_just_short_of_half_turn(self):
        gen = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(LogBranchAmbiguous):
            orthogonal_log(skew_exp(gen, np.pi - 1e-8))

    def test_one_by_one(self):
        assert np.array_equal(orthogonal_log(np.array([[1.0]])), [[0.0]])
        with pytest.raises(NegativeDeterminant):
            orthogonal_log(np.array([[-1.0]]))

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_haar_rotation_matches_logm(self, d, seed):
        assert_matches_logm(haar_rotation(np.random.default_rng(seed), d))

    @given(
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
        st.floats(min_value=1e-9, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaled_exponential_matches_logm(self, d, seed, t):
        # odd d leaves an exact +1 eigenvalue
        x = random_skew(np.random.default_rng(seed), d)
        assert_matches_logm(skew_exp(x / np.linalg.norm(x), t))

    @given(
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
        st.floats(min_value=1e-9, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_repeated_angle_pairs_match_logm(self, d, seed, theta):
        # every plane turns by theta: an isoclinic rotation at d = 4
        block = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        r = np.eye(d)
        for j in range(0, d - 1, 2):
            r[j : j + 2, j : j + 2] = block
        z = haar_rotation(np.random.default_rng(seed), d)
        assert_matches_logm(z @ r @ z.T)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_log_then_exp_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        x = random_skew(rng, 3)
        q = skew_exp(x / np.linalg.norm(x), 0.8)
        assert np.linalg.norm(skew_exp(orthogonal_log(q)) - q) <= 1e-10


def oracle_frame(kind, d, seed, t):
    """One frame of the given kind for the oracle cross-check; t in [1e-8, 1]."""
    rng = np.random.default_rng(seed)
    z = haar_rotation(rng, d)
    if kind == "near_identity":
        x = random_skew(rng, d)
        return skew_exp(x / max(np.linalg.norm(x), 1.0), t)
    if kind in ("repeated", "near_half_turn") and d > 1:
        # one angle on every plane, or pi less 1e-7 .. 1e-5 on the first
        theta = 3.0 * t if kind == "repeated" else np.pi - 10.0 ** rng.uniform(-7.0, -5.0)
        block = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        r = np.eye(d)
        for j in range(0, d - 1 if kind == "repeated" else 1, 2):
            r[j : j + 2, j : j + 2] = block
        return z @ r @ z.T
    if kind == "reflection":
        z[:, 0] = -z[:, 0]
    elif kind == "non_orthogonal":
        z = z + 1e-6 * rng.standard_normal((d, d))
    elif kind == "non_finite":
        z[rng.integers(d), rng.integers(d)] = rng.choice([np.nan, np.inf, -np.inf])
    return z


FRAME_KINDS = ("near_identity", "haar", "repeated", "near_half_turn", "reflection",
               "non_orthogonal", "non_finite")


class TestOrthogonalLogOracle:
    """The per-frame LAPACK Schur form and the closed-form round trip against
    the earlier scipy.linalg.schur + expm orthogonal_log, bit for bit."""

    @given(
        st.integers(1, 8),
        st.lists(
            st.tuples(
                st.sampled_from(FRAME_KINDS),
                st.integers(0, 2**32 - 1),
                st.floats(min_value=1e-8, max_value=1.0),
            ),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_logs_and_errors_match_the_oracle(self, d, frames):
        stack = np.array([oracle_frame(kind, d, seed, t) for kind, seed, t in frames])
        fast, slow = Failures(len(stack), record=True), Failures(len(stack), record=True)
        x = orthogonal_log(stack, fast)
        y = orthogonal_log_schur_expm(stack, slow)
        assert np.array_equal(x, y)
        assert np.array_equal(fast.rows, slow.rows)
        assert [type(e) for e in fast.errors] == [type(e) for e in slow.errors]


def failing_gees(monkeypatch, failing):
    """Make linalg's gees handle return info = 1 on its frame calls whose
    index (from 0, workspace queries not counted) is in ``failing``."""
    gees, calls = linalg._GEES, []

    def patched(select, a, lwork):
        result = gees(select, a, lwork=lwork)
        if lwork == -1:
            return result
        calls.append(a)
        return (*result[:-1], 1) if len(calls) - 1 in failing else result

    monkeypatch.setattr(linalg, "_GEES", patched)
    return calls


class TestSchurFailure:
    def test_only_the_failing_frame_leaves_the_stack(self, monkeypatch):
        rng = np.random.default_rng(11)
        stack = np.array([haar_rotation(rng, 4) for _ in range(3)])
        expected = orthogonal_log(stack)
        calls = failing_gees(monkeypatch, {1})
        fail = Failures(3, record=True)
        x = orthogonal_log(stack, fail)
        assert len(calls) == 3
        assert fail.rows.tolist() == [0, 2]
        assert np.array_equal(x, expected[[0, 2]])
        assert fail.errors[0] is None and fail.errors[2] is None
        assert isinstance(fail.errors[1], LogBranchAmbiguous)

    def test_one_frame_raises_the_typed_error(self, monkeypatch):
        failing_gees(monkeypatch, {0})
        with pytest.raises(LogBranchAmbiguous):
            orthogonal_log(haar_rotation(np.random.default_rng(12), 4))

    def test_verify_records_the_failing_trial(self, monkeypatch, tmp_path):
        model, out = tmp_path / "model.json", tmp_path / "verify.json"
        assert cli.run(["generate", "--kind", "model", "--d", "4", "--N", "4",
                        "--sigma", "1e-3", "--seed", "5", "--output", str(model)]) == 0
        calls = failing_gees(monkeypatch, {1})
        assert cli.run(["verify", "--trials", "3", "--input", str(model),
                        "--output", str(out)]) == 0
        assert len(calls) == 3
        summary = json.loads(out.read_text())
        assert summary["errors"] == 1
        assert summary["records"][1] == {"trial": 1, "error": "LogBranchAmbiguous"}
        assert "error" not in summary["records"][0] and "error" not in summary["records"][2]


class TestRealEigen:
    """The eigenvalues of a one-matrix pencil, read off the diagonal of
    U0^T M U0 in ascending order."""

    def test_diagonal_matrix(self):
        m = np.diag([1.0, 2.0, 3.0])
        u = schur_frame(m)
        assert np.allclose(np.diag(u.T @ m @ u), [1.0, 2.0, 3.0])
        assert np.allclose(u, np.eye(3))

    def test_symmetric_flip(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = schur_frame(m)
        assert np.allclose(np.diag(u.T @ m @ u), [-1.0, 1.0])

    def test_rejects_complex_spectrum(self):
        with pytest.raises(NoSeparatingBeta):
            schur_frame(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestOrderedSchur:
    def test_upper_triangular_ascending_is_fixed(self):
        m = np.triu(np.random.default_rng(0).standard_normal((4, 4)), 1)
        m += np.diag([1.0, 2.0, 3.0, 4.0])
        u = schur_frame(m)
        assert np.allclose(u, np.eye(4), atol=1e-10)

    def test_symmetric_two_by_two(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        u = schur_frame(m)
        assert np.allclose(np.diag(u.T @ m @ u), [1.0, 3.0])
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
        assert np.allclose(u, expected, atol=1e-12)


class TestMinPairwiseGap:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=2, max_value=32),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["C", "F"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_pair_loop_bit_for_bit(self, n, d, seed, order):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, d)  # columns of mixed magnitude
        t = np.array(rng.standard_normal((n, d)) * scales, order=order)
        assert min_pairwise_gap(t) == min_pairwise_gap_per_pair(t)

    def test_tied_columns_give_zero(self):
        t = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 3.0]])
        assert min_pairwise_gap(t) == 0.0
