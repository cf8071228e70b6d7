import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri import commutator, triangularize
from jointtri.errors import (
    DimensionMismatch,
    NearDefective,
    NoSeparatingBeta,
)
from jointtri.harness import (
    GeneratorSpec,
    converge,
    gen_components,
    gen_ground_truth,
    gen_tensor,
    sample_noise,
)
from jointtri.linalg import (
    low_part,
    lower_index,
    skew_exp,
    skew_from_lower,
)
from jointtri.tensor import estimate_components, observable_matrices
from jointtri.triangularize import (
    MatrixSet,
    OptimizerConfig,
    _fix_column_signs,
    find_separating_beta,
    gauss_newton_diagonal,
    gradient,
    hessian_form,
    loss,
    rotated,
)
from oracle import dense_jacobian


def random_skew(rng, d):
    a = rng.standard_normal((d, d))
    return a - a.T


def commuting_set(seed, d=3, n=3):
    gt = gen_ground_truth(GeneratorSpec(d=d, n=n, seed=seed))
    return gt, gt.clean_matrices()


def descend_one(mset, u0, config=OptimizerConfig()):
    """descend_batch on a batch of one set: (frame, trace)."""
    (frame,), (trace,), _ = triangularize.descend_batch(mset.as_batch(), u0[None], config)
    return frame, trace


class TestMatrixSet:
    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet((np.eye(2), np.eye(3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet(())

    def test_rejects_zero_dimension(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet((np.zeros((0, 0)),))

    def test_matrices_are_read_only(self):
        source = np.eye(2)
        mset = MatrixSet((source,))
        with pytest.raises(ValueError):
            mset.matrices[0][0, 0] = 5.0
        source[0, 0] = 5.0
        assert mset.matrices[0, 0, 0] == 1.0

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 3), (4, 4), (12, 64), (32, 8)])
    def test_combine_is_the_running_sum_bit_for_bit(self, d, n):
        """The pencil equals 0 + beta_0 M_0 + beta_1 M_1 + ... in that order,
        zero signs included (all-negative beta against zero entries)."""
        rng = np.random.default_rng(d * 100 + n)
        for trial in range(20):
            mats = rng.standard_normal((n, d, d))
            mats[:, 0, -1] = 0.0
            beta = rng.standard_normal(n)
            if trial % 4 == 0:
                beta = -np.abs(beta)
            expected = sum(b * m for b, m in zip(beta, mats))
            got = MatrixSet(mats).combine(beta)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_rejects_ragged_list(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet([[[1.0, 0.0], [0.0, 1.0]], [[1.0]]])

    def test_rejects_two_dimensional_array(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet(np.eye(3))

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(DimensionMismatch):
            MatrixSet(np.zeros((2, 3, 4)))
        with pytest.raises(DimensionMismatch):
            MatrixSet((np.array([[1.0, np.nan], [0.0, 1.0]]),))

    def test_sequence_and_stack_give_equal_sets(self):
        rng = np.random.default_rng(15)
        mats = [rng.standard_normal((3, 3)) for _ in range(4)]
        from_sequence, from_stack = MatrixSet(tuple(mats)), MatrixSet(np.stack(mats))
        assert from_sequence.matrices.shape == (4, 3, 3)
        assert (from_sequence.n, from_sequence.d) == (from_stack.n, from_stack.d)
        assert np.array_equal(from_sequence.matrices, from_stack.matrices)

    def test_combine_is_the_weighted_sum(self):
        mset = MatrixSet((np.eye(2), 2 * np.eye(2)))
        assert np.allclose(mset.combine([0.5, 0.25]), np.eye(2))


class TestBatchedMatchesLoopOracle:
    """The batched evaluations equal the per-matrix loops bit for bit."""

    @given(
        st.integers(1, 8),
        st.integers(1, 6),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_gradient_components_and_operators(
        self, d, n, triangular, column_major, seed
    ):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((d, d)) for _ in range(n)]
        if triangular:
            mats = [np.triu(m) + 1e-3 * rng.standard_normal((d, d)) for m in mats]
        if column_major:  # the layout io.unvec produces
            mats = [np.asfortranarray(m) for m in mats]
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mset = MatrixSet(tuple(mats))

        expected_loss = 0.0
        s = np.zeros((d, d))
        for m in mats:
            a = u.T @ m @ u
            g = low_part(a)
            expected_loss += np.sum(g**2)
            s += a.T @ g - g @ a.T
        assert loss(u, mset) == float(expected_loss)
        assert np.array_equal(gradient(u, mset), s - s.T)

        components = np.stack([np.diag(u.T @ m @ u) for m in mats])
        assert np.array_equal(estimate_components(rotated(u, mset)), components)

        rows, cols = lower_index(d)
        i, j = rows[:, None], cols[:, None]
        k, l = rows[None, :], cols[None, :]
        operators = [commutator.operator(a) for a in triangularize.rotated(u, mset)]
        assert len(operators) == n
        for t, m in zip(operators, mats):
            a = u.T @ m @ u
            expected = np.where(j == l, a[k, i], 0.0) - np.where(i == k, a[j, l], 0.0)
            assert np.array_equal(t, expected)


class TestLoss:
    def test_zero_at_exact_triangularizer(self):
        gt, clean = commuting_set(0)
        _, u = find_separating_beta(clean)
        assert loss(u, clean) <= 1e-20

    def test_one_dimensional_sets_have_zero_loss(self):
        mset = MatrixSet((np.array([[3.0]]), np.array([[-1.0]])))
        assert loss(np.eye(1), mset) == 0.0

    def test_matches_elementwise_subdiagonal_sum(self):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        u = skew_exp(random_skew(rng, 3), 0.2)
        expected = 0.0
        for m in mats:
            rotated = u.T @ m @ u
            for i in range(3):
                for j in range(i):
                    expected += rotated[i, j] ** 2
        assert np.isclose(loss(u, MatrixSet(tuple(mats))), expected)

    def test_invariant_under_sign_diagonals(self):
        rng = np.random.default_rng(6)
        mats = MatrixSet(tuple(rng.standard_normal((3, 3)) for _ in range(2)))
        u = skew_exp(random_skew(rng, 3), 0.3)
        base = loss(u, mats)
        for signs in itertools.product([-1.0, 1.0], repeat=3):
            assert np.isclose(loss(u @ np.diag(signs), mats), base)


class TestGradient:
    def test_vanishes_at_exact_triangularizer(self):
        gt, clean = commuting_set(1)
        _, u = find_separating_beta(clean)
        assert np.linalg.norm(gradient(u, clean)) <= 1e-12

    def test_exactly_skew(self):
        rng = np.random.default_rng(2)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        u = skew_exp(random_skew(rng, 4), 0.4)
        g = gradient(u, mats)
        assert np.array_equal(g, -g.T)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(3)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        u = skew_exp(random_skew(rng, 4), 0.2)
        g = gradient(u, mats)
        h = 1e-6
        for _ in range(20):
            x = random_skew(rng, 4)
            x /= np.linalg.norm(x)
            fd = (
                loss(u @ skew_exp(x, h), mats) - loss(u @ skew_exp(x, -h), mats)
            ) / (2 * h)
            analytic = np.sum(g * x)
            assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1.0)


class TestHessianForm:
    def test_zero_direction(self):
        rng = np.random.default_rng(4)
        mats = MatrixSet(tuple(rng.standard_normal((3, 3)) for _ in range(2)))
        assert hessian_form(np.eye(3), mats, np.zeros((3, 3))) == 0.0

    def test_leading_term_at_exact_triangularizer(self):
        gt, clean = commuting_set(7)
        _, u = find_separating_beta(clean)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = random_skew(rng, 3)
            expected = 2.0 * sum(
                np.linalg.norm(low_part(u.T @ m @ u @ low_part(x) - low_part(x) @ u.T @ m @ u)) ** 2
                for m in clean.matrices
            )
            value = hessian_form(u, clean, x)
            assert value >= -1e-10
            assert np.isclose(value, expected, rtol=1e-8, atol=1e-10)

    def test_matches_second_differences(self):
        rng = np.random.default_rng(9)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        u = skew_exp(random_skew(rng, 4), 0.3)
        h = 1e-4
        for _ in range(20):
            x = random_skew(rng, 4)
            x /= np.linalg.norm(x)
            fd = (
                loss(u @ skew_exp(x, h), mats)
                - 2 * loss(u, mats)
                + loss(u @ skew_exp(x, -h), mats)
            ) / h**2
            analytic = hessian_form(u, mats, x)
            assert abs(fd - analytic) <= 1e-5 * max(abs(analytic), 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_quadratic_scaling(self, seed):
        rng = np.random.default_rng(seed)
        mats = MatrixSet(tuple(rng.standard_normal((3, 3)) for _ in range(2)))
        u = skew_exp(random_skew(rng, 3), 0.2)
        x = random_skew(rng, 3)
        assert np.isclose(
            hessian_form(u, mats, 2.0 * x), 4.0 * hessian_form(u, mats, x)
        )


class TestFindSeparatingBeta:
    def test_single_matrix_uses_unit_weight(self):
        mset = MatrixSet((np.diag([1.0, 2.0, 4.0]),))
        beta, u0 = find_separating_beta(mset)
        assert np.allclose(beta, [1.0])
        assert np.array_equal(u0, np.eye(3))

    def test_random_combination_separates_degenerate_pair(self):
        # neither matrix alone separates, but generic combinations do
        mset = MatrixSet((np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 1.0, 0.0])))
        beta, u0 = find_separating_beta(mset, strategy="random", seed=0)
        assert np.isclose(np.linalg.norm(beta), 1.0)
        diagonal = np.diag(u0.T @ mset.combine(beta) @ u0)
        assert np.min(np.diff(diagonal)) > 0

    def test_unseparable_spectrum_is_rejected(self):
        # two columns identical in every matrix: no combination separates
        mset = MatrixSet((np.diag([1.0, 1.0, 2.0]), np.diag([3.0, 3.0, 0.0])))
        with pytest.raises(NoSeparatingBeta):
            find_separating_beta(mset, strategy="random", seed=0, max_tries=10)

    @pytest.mark.parametrize("strategy", ["ones", "random"])
    def test_matches_eager_draws(self, strategy):
        """The candidates are drawn lazily, in the order of drawing all
        max_tries of them up front, and one eigendecomposition per candidate
        gives the bits of accepting on the eigenvalues alone, then building
        the frame from a second eigendecomposition."""

        def eager(mset, strategy, seed, max_tries=50):
            rng = np.random.default_rng(seed)
            candidates = []
            if strategy == "ones":
                candidates.append(np.ones(mset.n) / np.sqrt(mset.n))
            for _ in range(max_tries):
                v = rng.standard_normal(mset.n)
                candidates.append(v / np.linalg.norm(v))
            for beta in candidates[:max_tries]:
                pencil = mset.combine(beta)
                scale = np.linalg.norm(pencil)
                eigs = np.linalg.eigvals(pencil)
                gap = np.min(np.diff(np.sort(eigs.real)), initial=np.inf)
                if (
                    np.max(np.abs(eigs.imag)) <= 1e-8 * max(scale, 1.0)
                    and gap > triangularize.SEPARATION_GAP_REL * scale
                ):
                    values, vectors = np.linalg.eig(pencil)
                    vectors = vectors[:, np.argsort(values.real)].real
                    vectors = _fix_column_signs(vectors / np.linalg.norm(vectors, axis=0))
                    q, r = np.linalg.qr(vectors)
                    signs = np.sign(np.diag(r))
                    signs[signs == 0] = 1.0
                    return beta, _fix_column_signs(q * signs)
            return None

        degenerate = MatrixSet((np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 1.0, 0.0])))
        for seed in range(8):
            for mset in (degenerate, commuting_set(seed, d=4, n=3)[1]):
                beta, u0 = find_separating_beta(mset, strategy=strategy, seed=seed)
                beta_ref, u0_ref = eager(mset, strategy, seed)
                assert beta.tobytes() == beta_ref.tobytes()
                assert u0.tobytes() == u0_ref.tobytes()

    @pytest.mark.parametrize("strategy", ["ones", "random"])
    def test_scaled_set_gets_the_same_init(self, strategy):
        """Every floor is relative to the pencil norm: a power-of-two scaling
        keeps every bit, and 1e-12 keeps beta and U0 to rounding."""
        gt = gen_ground_truth(GeneratorSpec(d=6, n=4, seed=1), sigma=1e-3)
        matrices = gt.observed_matrices().matrices
        beta, u0 = find_separating_beta(MatrixSet(matrices), strategy=strategy)
        scaled_beta, scaled_u0 = find_separating_beta(
            MatrixSet(matrices * 2.0**-30), strategy=strategy
        )
        assert scaled_beta.tobytes() == beta.tobytes()
        assert scaled_u0.tobytes() == u0.tobytes()
        scaled_beta, scaled_u0 = find_separating_beta(
            MatrixSet(matrices * 1e-12), strategy=strategy
        )
        assert np.linalg.norm(scaled_beta - beta) <= 1e-12
        assert np.linalg.norm(scaled_u0 - u0) <= 1e-12 * np.linalg.norm(u0)

    def test_one_eigendecomposition_per_candidate(self, monkeypatch):
        """converge combines and eigendecomposes each candidate pencil once,
        and never calls eigvals."""
        calls = {"combine": 0, "eig": 0, "eigvals": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(MatrixSet, "combine")
        counted(np.linalg, "eig")
        counted(np.linalg, "eigvals")
        gt = gen_ground_truth(GeneratorSpec(d=4, n=4, seed=3), sigma=1e-3)
        converge(gt.observed_matrices())
        assert calls == {"combine": 1, "eig": 1, "eigvals": 0}
        # the ones pencil of this set has a double eigenvalue, so several
        # candidates are tried
        degenerate = MatrixSet((np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 1.0, 0.0])))
        calls.update(combine=0, eig=0)
        converge(degenerate)
        assert calls["combine"] == calls["eig"] > 1 and calls["eigvals"] == 0


    def test_passing_ones_candidate_builds_no_generator(self, monkeypatch):
        _, clean = commuting_set(10, d=4, n=4)
        degenerate = MatrixSet((np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 1.0, 0.0])))
        built = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        find_separating_beta(clean)
        assert built == []
        # the ones pencil of this set has a double eigenvalue
        find_separating_beta(degenerate, seed=5)
        assert built == [(5,)]


class TestSchurInitializer:
    """The U0 of find_separating_beta: the Schur frame of the beta-pencil."""

    def test_noiseless_set_starts_at_zero_loss(self):
        gt, clean = commuting_set(10, d=4, n=4)
        _, u = find_separating_beta(clean)
        assert loss(u, clean) <= 1e-18

    def test_triangular_ascending_set_is_fixed(self):
        rng = np.random.default_rng(11)
        mats = []
        for shift in (0.0, 10.0):
            m = np.triu(rng.standard_normal((3, 3)), 1)
            m += np.diag([1.0 + shift, 2.0 + shift, 3.0 + shift])
            mats.append(m)
        mset = MatrixSet(tuple(mats))
        beta, u = find_separating_beta(mset)
        assert np.array_equal(beta, np.ones(2) / np.sqrt(2))
        assert np.allclose(u, np.eye(3), atol=1e-10)

    def test_triangularizes_and_matches_spectrum(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        m = v @ np.diag([0.5, 1.0, 2.0, 4.0]) @ np.linalg.inv(v)
        _, u = find_separating_beta(MatrixSet((m,)))
        t = u.T @ m @ u
        assert np.linalg.norm(low_part(t)) <= 1e-10
        assert np.linalg.norm(u.T @ u - np.eye(4)) <= 1e-10
        assert np.allclose(np.diag(t), [0.5, 1.0, 2.0, 4.0], atol=1e-8)

    def test_complex_pencil_spectrum_is_surfaced(self):
        mset = MatrixSet((np.array([[0.0, -1.0], [1.0, 0.0]]),))
        with pytest.raises(NoSeparatingBeta):
            find_separating_beta(mset)

    def test_rejects_defective_matrix(self):
        # a Jordan block's double eigenvalue separates under no weight
        with pytest.raises(NoSeparatingBeta):
            find_separating_beta(MatrixSet((np.array([[1.0, 1.0], [0.0, 1.0]]),)))

    @pytest.mark.parametrize("scale", [1.0, 2.0**-30])
    def test_inaccurate_eigenvectors_are_near_defective(self, monkeypatch, scale):
        """Eigenvectors whose Q factor is no Schur frame fail, relative to
        the pencil norm: the first one tilted towards e_1 leaves
        ||low(U0^T P U0)|| = 1e-6 ||P|| / sqrt(14)."""
        eig = np.linalg.eig

        def perturbed(m):
            values, vectors = eig(m)
            vectors[..., 1, 0] += 1e-6
            return values, vectors

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        mset = MatrixSet((scale * np.diag([1.0, 2.0, 3.0]),))
        with pytest.raises(NearDefective):
            find_separating_beta(mset)


def rotated_triangular_pencil(seed, upper_scale=1.0):
    """Q T Q^T for an upper-triangular T with eigenvalues 1, 1 + 1e-6, 2, 3
    and a random strictly-upper part: the eigenvectors of the close pair
    are nearly parallel, so their basis is ill conditioned."""
    rng = np.random.default_rng(seed)
    t = upper_scale * np.triu(rng.standard_normal((4, 4)), 1) + np.diag([1, 1 + 1e-6, 2, 3])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return q @ t @ q.T


class TestNearDefective:
    """NearDefective reads U0's Schur residual ||low(U0^T P U0)|| / ||P||,
    which an eigenvector residual cannot see: eig is backward stable, so
    its residual is O(eps ||P||) however ill conditioned the basis."""

    @pytest.mark.parametrize(
        "seed, upper_scale, residual", [(0, 1.0, 1.7e-11), (3, 10.0, 2.1e-9)]
    )
    def test_close_eigenvalue_pair_is_near_defective(self, seed, upper_scale, residual):
        p = rotated_triangular_pencil(seed, upper_scale)
        vectors = np.linalg.eig(p)[1]
        assert np.linalg.cond(vectors) > 1e5
        with pytest.raises(NearDefective):
            find_separating_beta(MatrixSet((p,)))
        # the Schur frame of the same pencil from the QR of its eigenvectors
        values, vectors = np.linalg.eig(p)
        vectors = vectors[:, np.argsort(values.real)].real
        u0 = np.linalg.qr(vectors / np.linalg.norm(vectors, axis=0))[0]
        measured = np.linalg.norm(low_part(u0.T @ p @ u0)) / np.linalg.norm(p)
        assert residual / 2 < measured < 2 * residual
        assert measured > 10 * triangularize.SCHUR_RESIDUAL_TOL

    @pytest.mark.parametrize("d, n", [(4, 4), (12, 64), (32, 8), (64, 4)])
    def test_tolerance_has_a_hundredfold_margin_on_separated_sets(self, d, n):
        spec = GeneratorSpec(d=d, n=n, kappa_target=3, gamma_target=1, seed=d + n)
        observed = gen_ground_truth(spec, sigma=1e-3).observed_matrices()
        beta, u0 = find_separating_beta(observed)
        p = observed.combine(beta)
        residual = np.linalg.norm(low_part(u0.T @ p @ u0)) / np.linalg.norm(p)
        assert residual <= triangularize.SCHUR_RESIDUAL_TOL / 100


class TestDescend:
    @pytest.mark.parametrize(
        "max_iters, grad_tol", [(10, np.nan), (10, 0.0), (10, -1.0), (-1, 1e-8)]
    )
    def test_config_rejects_invalid_settings(self, max_iters, grad_tol):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=max_iters, grad_tol=grad_tol)

    def test_noiseless_convergence_to_machine_zero(self):
        gt, clean = commuting_set(12, d=4, n=4)
        _, u0 = find_separating_beta(clean)
        config = OptimizerConfig(max_iters=200, grad_tol=1e-12)
        u, trace = descend_one(clean, u0, config)
        assert loss(u, clean) <= 1e-20
        assert np.linalg.norm(gradient(u, clean)) <= 1e-12
        assert len(trace.loss_values) <= 200

    def test_loss_sequence_is_monotone(self):
        rng = np.random.default_rng(13)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        u0 = skew_exp(random_skew(rng, 4), 0.2)
        config = OptimizerConfig(max_iters=50, grad_tol=1e-14)
        _, trace = descend_one(mats, u0, config)  # a stalled trace too
        diffs = np.diff(trace.loss_values)
        assert np.all(diffs <= 0)

    def test_zero_iterations_returns_start(self):
        gt, clean = commuting_set(14)
        u0 = np.eye(3)
        u, trace = descend_one(clean, u0, OptimizerConfig(max_iters=0))
        assert np.array_equal(u, u0)
        assert trace.termination == "max_iters"


class TestDescendCallCounts:
    """A descent forms the rotated stack once at the start and once per
    accepted step, and reads the loss and each gradient off it, so it calls
    neither loss nor gradient; it evaluates the exact loss change once per
    line-search trial, never the loss at a candidate frame."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        fn = getattr(triangularize, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(triangularize, name, counted)
        return calls

    def check_counts(self, monkeypatch, config, termination, step_path):
        gt = gen_ground_truth(GeneratorSpec(d=6, n=4, seed=0), sigma=1e-2)
        observed = gt.observed_matrices()
        # rotated away from the Schur initializer, so that one unit
        # Gauss-Newton step is halved
        u0 = find_separating_beta(observed)[1] @ skew_exp(
            random_skew(np.random.default_rng(0), 6), 0.3
        )
        loss_calls = self.count_calls(monkeypatch, "loss")
        gradient_calls = self.count_calls(monkeypatch, "gradient")
        rotated_calls = self.count_calls(monkeypatch, "rotated")
        change_calls = self.count_calls(monkeypatch, "_loss_change")
        step_calls = self.count_calls(monkeypatch, step_path)
        _, trace = descend_one(observed, u0, config)
        assert trace.termination == termination
        assert min(trace.step_lengths) < 1.0

        iterations = len(trace.step_lengths)
        backtracks = 0
        for step in trace.step_lengths:  # each search halves t from 1
            trial = 1.0
            while trial > step:
                trial *= triangularize.BACKTRACK_FACTOR
                backtracks += 1
            assert trial == step
        assert len(loss_calls) == len(gradient_calls) == 0
        assert len(rotated_calls) == iterations + 1
        assert len(change_calls) == iterations + backtracks
        assert len(step_calls) == iterations

    CONFIGS = pytest.mark.parametrize(
        "config, termination",
        [
            (OptimizerConfig(grad_tol=1e-8), "grad_tol"),
            (OptimizerConfig(max_iters=4), "max_iters"),
        ],
    )

    @CONFIGS
    def test_loss_and_gradient_calls(self, monkeypatch, config, termination):
        self.check_counts(monkeypatch, config, termination, "_exact_step")

    @CONFIGS
    def test_calls_on_the_cg_path(self, monkeypatch, config, termination):
        monkeypatch.setattr(triangularize, "EXACT_STEP_MAX_SIZE", 0)
        self.check_counts(monkeypatch, config, termination, "_cg_step")

    @pytest.mark.parametrize(
        "workload, path", [("triangularize_n64", "exact"), ("triangularize_d32", "cg")]
    )
    def test_path_follows_the_measured_crossover(self, monkeypatch, workload, path):
        """Many matrices of moderate d take exact steps, few large ones CG."""
        mset = bench_input(workload, 13000)
        u0 = find_separating_beta(mset)[1]
        exact = self.count_calls(monkeypatch, "_exact_step")
        cg = self.count_calls(monkeypatch, "_cg_step")
        products = self.count_calls(monkeypatch, "gauss_newton_product")
        _, trace = descend_one(mset, u0, OptimizerConfig(max_iters=2))
        assert len(trace.step_lengths) == 2
        if path == "exact":
            assert (len(exact), len(cg), len(products)) == (2, 0, 0)
        else:
            assert len(exact) == 0 and len(cg) == 2 and len(products) > 0

    @pytest.mark.parametrize("d", [16, 24, 32])
    def test_cg_path_ends_in_few_steps_and_products(self, monkeypatch, d):
        """Generated models with noise leave a nonzero Gauss-Newton residual;
        each CG step is solved to min(1e-3, sqrt|b|), and the last one no
        finer than the stop at grad_tol reads, so the descent reaches
        grad_tol in at most 4 outer steps and 39 J^T J products (the most
        these 24 descents make)."""
        products = self.count_calls(monkeypatch, "gauss_newton_product")
        for seed in range(8):
            spec = GeneratorSpec(d=d, n=8, kappa_target=3, gamma_target=1, seed=seed)
            observed = gen_ground_truth(spec, sigma=1e-3).observed_matrices()
            assert (d * (d - 1) // 2) ** 3 > triangularize.EXACT_STEP_MAX_SIZE * observed.n
            products.clear()
            u, _, trace, _, _ = converge(observed)
            assert trace.termination == "grad_tol"
            assert len(trace.step_lengths) <= 4
            assert len(products) <= 39
            assert np.linalg.norm(gradient(u, observed)) <= 1e-10  # converge's grad_tol


class TestDescendBatch:
    """A batch descends trial by trial as batches of one do, bit for bit: trials
    that halve next to trials that take full steps, that stop at different
    iterations, stall, or run out of iterations, on both step paths."""

    @staticmethod
    def batch():
        """Structured noisy sets from their Schur frames, which take full
        steps, and random sets from rotated starts, which converge slowly
        and halve some steps (seeds 1 and 5), at d = 4, N = 3."""
        sets, starts = [], []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            if seed % 2:
                sets.append(rng.standard_normal((3, 4, 4)))
                starts.append(skew_exp(random_skew(rng, 4), 0.2))
            else:
                spec = GeneratorSpec(d=4, n=3, kappa_target=3, gamma_target=1, seed=seed)
                observed = gen_ground_truth(spec, sigma=1e-2).observed_matrices()
                sets.append(observed.matrices)
                starts.append(find_separating_beta(observed)[1])
        return MatrixSet(np.array(sets)), np.array(starts)

    @pytest.mark.parametrize("config", [
        OptimizerConfig(max_iters=60, grad_tol=1e-10),
        OptimizerConfig(max_iters=3),
        OptimizerConfig(max_iters=300, grad_tol=1e-300),  # most trials stall
    ])
    @pytest.mark.parametrize("cg", [False, True])
    def test_matches_single_descents(self, monkeypatch, config, cg):
        if cg:
            monkeypatch.setattr(triangularize, "EXACT_STEP_MAX_SIZE", 0)
        batch, starts = self.batch()
        frames, traces, stacks = triangularize.descend_batch(batch, starts, config)
        for k, (mats, u0) in enumerate(zip(batch.matrices, starts)):
            u, trace = descend_one(MatrixSet(mats), u0, config)
            assert frames[k].tobytes() == u.tobytes()
            assert traces[k] == trace
            # the stack at the final frame has the bits of rotated at it
            assert stacks[k].tobytes() == rotated(u, MatrixSet(mats)).tobytes()
        endings = {trace.termination for trace in traces}
        if config.max_iters == 60:  # trials leave at different iterations
            assert len({len(trace.step_lengths) for trace in traces}) > 1
            assert endings == {"grad_tol", "max_iters"}
            assert 0.5 in traces[1].step_lengths + traces[5].step_lengths
        if config.grad_tol == 1e-300:
            assert "stalled" in endings


def verify_style_inputs(seed, models, trials):
    """The observed sets of a `verify --sigma 1e-3` run on d=4, N=4 models."""
    for k in range(models):
        spec = GeneratorSpec(d=4, n=4, kappa_target=3, gamma_target=1, seed=seed + k)
        gt = gen_ground_truth(spec, sigma=1e-3)
        for t in range(trials):
            rng = np.random.default_rng([0, t])
            noise = sample_noise(rng, 4, 4)
            yield gt.with_noise(noise, 1e-3).observed_matrices()


class TestRoundingLevelStop:
    """Descents reach the CLI's default --tol; where the requested tolerance
    is below what rounding can resolve, they end `stalled` within a few
    iterations instead of running to max_iters."""

    @pytest.mark.parametrize("d, n, seed", [(12, 64, 11009), (4, 4, 11014)])
    def test_ends_early_near_stationarity(self, d, n, seed):
        # `generate --kind model --kappa 3 --gamma 1 --sigma 1e-3`, then
        # `triangularize` with its default --tol 1e-10 and --max-iters 2000
        spec = GeneratorSpec(d=d, n=n, kappa_target=3, gamma_target=1, seed=seed)
        observed = gen_ground_truth(spec, sigma=1e-3).observed_matrices()
        u, _, trace, _, _ = converge(observed)
        assert trace.termination == "grad_tol"
        assert len(trace.loss_values) <= 20
        assert np.linalg.norm(gradient(u, observed)) <= 1e-10

    @pytest.mark.parametrize("d, n, seed", [(12, 64, 11009), (4, 4, 11014)])
    def test_stalls_early_below_rounding(self, d, n, seed):
        spec = GeneratorSpec(d=d, n=n, kappa_target=3, gamma_target=1, seed=seed)
        observed = gen_ground_truth(spec, sigma=1e-3).observed_matrices()
        u, _, trace, _, _ = converge(observed, grad_tol=1e-300)
        assert trace.termination == "stalled"
        assert len(trace.loss_values) <= 20
        assert np.linalg.norm(gradient(u, observed)) <= 1e-12


class TestBenchmarkPoolsReachTolerance:
    """Every descent on a fixed sample of each benchmark workload's inputs
    ends at the CLI's default --tol 1e-10, none `stalled`."""

    @pytest.mark.parametrize(
        "inputs",
        [
            pytest.param(lambda: verify_style_inputs(13000, 4, 4), id="verify_d4"),
            pytest.param(lambda: (bench_input("tensor_d8", 13000 + k) for k in range(8)),
                         id="tensor_d8"),
            pytest.param(lambda: (bench_input("triangularize_n64", 13000 + k)
                                  for k in range(4)), id="triangularize_n64"),
            pytest.param(lambda: (bench_input("triangularize_d32", 13000 + k)
                                  for k in range(2)), id="triangularize_d32"),
        ],
    )
    def test_every_descent_ends_grad_tol(self, inputs):
        for mset in inputs():
            u, _, trace, _, _ = converge(mset)
            assert trace.termination == "grad_tol"
            assert np.linalg.norm(gradient(u, mset)) <= 1e-10


def zero_diagonal_stack():
    """A_n,00 == A_n,11 in every matrix and no mass at (2, 0), (2, 1), so
    J e_k = 0 for the pair (1, 0), while the other pairs carry residual."""
    return np.array([
        [[1.0, 0.5, 0.2], [0.3, 1.0, 0.7], [0.0, 0.0, 2.0]],
        [[-1.0, 0.1, 0.4], [0.6, -1.0, 0.2], [0.0, 0.0, 3.0]],
    ])


class TestGaussNewtonStep:
    """Jacobi-preconditioned CG on (J^T J) x = -b, called directly: the
    descent takes it only above EXACT_STEP_MAX_SIZE."""

    @staticmethod
    def iterates(monkeypatch, a, b):
        """Every CG iterate: the k-th is the step returned when the
        (k+1)-th product reports non-positive curvature."""
        product = triangularize.gauss_newton_product
        steps = []
        for k in range(1, b.size + 1):
            calls = []

            def capped(stack, stack_t, p):
                calls.append(None)
                return product(stack, stack_t, p) if len(calls) <= k else -p

            monkeypatch.setattr(triangularize, "gauss_newton_product", capped)
            steps.append(triangularize._cg_step(a, b, 0.0))
            monkeypatch.undo()
            if len(calls) <= k:  # stopped at the forcing tolerance first
                break
        return steps

    @staticmethod
    def systems():
        """Small (stack, J^T r) systems, with b at unit and at small scale."""
        rng = np.random.default_rng(5)
        for d, n in [(2, 1), (3, 2), (4, 4), (5, 3), (6, 2)]:
            a = rng.standard_normal((n, d, d))
            a += np.diag(np.arange(d, dtype=float) * 3.0)  # separated diagonals
            b = dense_jacobian(a).T @ rng.standard_normal(n * d * (d - 1) // 2)
            yield a, b
            yield a, 1e-6 * b
        yield zero_diagonal_stack(), dense_jacobian(zero_diagonal_stack()).T @ np.ones(6)

    def test_every_iterate_is_a_descent_direction(self, monkeypatch):
        for a, b in self.systems():
            steps = self.iterates(monkeypatch, a, b)
            assert steps
            for x in steps:
                assert b @ x < 0

    def test_step_meets_the_forcing_tolerance(self):
        for a, b in self.systems():
            x = triangularize._cg_step(a, b, 0.0)
            jac = dense_jacobian(a)
            res = jac.T @ (jac @ x) + b
            bb = b @ b
            assert res @ res <= min(1e-6, np.sqrt(bb)) * bb * (1 + 1e-9)

    def test_floor_from_grad_tol(self, monkeypatch):
        """A residual floor CG_GRAD_TOL_SHARE grad_tol / sqrt(2) above the
        forcing tolerance ends CG at the first iterate under it; a floor
        below the forcing tolerance leaves the step's bits unchanged."""
        share, ended = triangularize.CG_GRAD_TOL_SHARE, 0
        for a, b in self.systems():
            x = triangularize._cg_step(a, b, 0.0)
            bb = b @ b
            forcing = np.sqrt(min(1e-6, np.sqrt(bb)) * bb)
            below = 0.5 * forcing * np.sqrt(2.0) / share  # the grad_tol of floor forcing / 2
            assert triangularize._cg_step(a, b, below).tobytes() == x.tobytes()
            jac = dense_jacobian(a)
            steps = self.iterates(monkeypatch, a, b)
            residuals = [np.linalg.norm(jac.T @ (jac @ s) + b) for s in steps]
            for k, res in enumerate(residuals):
                above = min(residuals[:k], default=np.sqrt(bb))
                floor = np.sqrt(res * above)  # clear of both by 1%, and above the forcing
                if not (res * 1.01 < floor < above / 1.01 and floor > forcing):
                    continue
                step = triangularize._cg_step(a, b, floor * np.sqrt(2.0) / share)
                assert step.tobytes() == steps[k].tobytes()
                ended += 1
        assert ended >= 10

    def test_zero_diagonal_entry_gives_finite_step(self):
        a = zero_diagonal_stack()
        diag = gauss_newton_diagonal(a)
        k = [(1, 0), (2, 0), (2, 1)].index((1, 0))
        assert diag[k] == 0.0 and np.all(np.delete(diag, k) > 0)
        b = dense_jacobian(a).T @ np.ones(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = triangularize._cg_step(a, b, 0.0)
        assert np.all(np.isfinite(x)) and b @ x < 0


def rank_deficient_stack(seed):
    """Q^T blockdiag([[a, -b], [b, a]], c) Q for a random rotation Q: every
    matrix commutes with the rotated generator Q^T (E10 - E01) Q, so J has a
    null vector that is no coordinate axis, and diag(J^T J) > 0."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    mats = []
    for a, b, c in rng.standard_normal((3, 3)):
        mats.append(q.T @ np.array([[a, -b, 0.0], [b, a, 0.0], [0.0, 0.0, c]]) @ q)
    return np.array(mats)


class TestExactStep:
    """Pivoted-Cholesky solve of (J^T J) x = -b."""

    @staticmethod
    def assert_solves(a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = triangularize._exact_step(a, b)
        jac = dense_jacobian(a).reshape(len(a) * b.size, b.size)
        h = jac.T @ jac
        eps = np.finfo(float).eps
        assert np.all(np.isfinite(x))
        assert b @ x < 0
        assert np.linalg.norm(h @ x + b) <= (
            4 * b.size * eps * np.linalg.norm(h) * np.linalg.norm(x)
        )
        return h

    def test_solves_to_rounding_level(self):
        for a, b in TestGaussNewtonStep.systems():
            self.assert_solves(a, b)

    def test_zero_diagonal_entry(self):
        a = zero_diagonal_stack()
        h = self.assert_solves(a, dense_jacobian(a).T @ np.ones(6))
        assert np.min(np.diag(h)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_deficient_without_zero_diagonal(self, seed):
        a = rank_deficient_stack(seed)
        b = dense_jacobian(a).T @ np.random.default_rng(seed).standard_normal(9)
        h = self.assert_solves(a, b)
        assert np.min(np.diag(h)) > 0.0
        assert abs(np.linalg.eigvalsh(h)[0]) <= 1e-14 * np.linalg.norm(h)


def exact_loss_change(a, f):
    """sum_n <low(dA_n), low(2 A_n + dA_n)>, dA = F^T A + A F + F^T A F, in
    exact rational arithmetic on the float entries of a and f."""
    d = f.shape[0]
    fr = [[Fraction(v) for v in row] for row in f.tolist()]
    total = Fraction(0)
    for m in a.tolist():
        m = [[Fraction(v) for v in row] for row in m]
        mf = [[sum(m[i][s] * fr[s][j] for s in range(d)) for j in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i):
                da = mf[i][j] + sum(fr[s][i] * (m[s][j] + mf[s][j]) for s in range(d))
                total += da * (2 * m[i][j] + da)
    return total


class TestLossChange:
    """The change the line search accepts on, against exact arithmetic."""

    @staticmethod
    def stacks():
        """Rotated noisy sets at the Schur initializer and nearly converged."""
        for d, n, seed in [(3, 2, 1), (4, 4, 2), (5, 3, 3)]:
            spec = GeneratorSpec(d=d, n=n, kappa_target=3, gamma_target=1, seed=seed)
            observed = gen_ground_truth(spec, sigma=1e-3).observed_matrices()
            u = find_separating_beta(observed)[1]
            yield triangularize.rotated(u, observed)
            u, _ = descend_one(observed, u, OptimizerConfig(grad_tol=1e-9))
            yield triangularize.rotated(u, observed)

    def test_matches_exact_arithmetic_within_the_stop_bound(self):
        eps = np.finfo(float).eps
        for a in self.stacks():
            n, d, _ = a.shape
            size = d * (d - 1) // 2
            b = commutator.adjoint(a, low_part(a))[lower_index(d)]
            skew = skew_from_lower(triangularize._exact_step(a, b), d)
            # the bound per unit step that the descent's stop rule uses
            floor = (2 * d + 2 * n * size + 5) * eps * (
                np.linalg.norm(a) * np.linalg.norm(skew) * np.linalg.norm(low_part(a))
            )
            for step in (1.0, 0.5, 2.0**-10, 2.0**-30):
                f = triangularize._rotation_increment(skew, step)
                change = triangularize._loss_change(a, f)
                exact = exact_loss_change(a, f)
                assert abs(Fraction(change) - exact) <= Fraction(step * floor)

    def test_rotation_increment_is_the_exponential(self):
        x = random_skew(np.random.default_rng(4), 5)
        x /= np.linalg.norm(x)
        for step in (2.0**-40, 1e-6, 0.3, 0.49, 0.5, 2.0):
            f = triangularize._rotation_increment(x, step)
            q = np.eye(5) + f
            assert np.linalg.norm(q - skew_exp(x, step)) <= 4e-15
            assert np.linalg.norm(q.T @ q - np.eye(5)) <= 4e-15
        for step in (2.0**-40, 1e-9):  # the third Taylor term is below rounding
            y = step * x
            f = triangularize._rotation_increment(x, step)
            assert np.linalg.norm(f - (y + y @ y / 2)) <= 4e-16 * np.linalg.norm(y)


class TestLineSearchStop:
    @staticmethod
    def start():
        gt = gen_ground_truth(GeneratorSpec(d=4, n=4, seed=3), sigma=1e-2)
        observed = gt.observed_matrices()
        return observed, find_separating_beta(observed)[1]

    def test_no_decrease_stalls_after_finitely_many_halvings(self, monkeypatch):
        observed, u0 = self.start()
        a = triangularize.rotated(u0, observed)
        b = gradient(u0, observed)[lower_index(4)]
        x_norm = np.linalg.norm(skew_from_lower(triangularize._exact_step(a, b), 4))
        expected = 0
        while 2.0**-expected * x_norm > np.finfo(float).eps:
            expected += 1
        trials = []

        def no_decrease(a, f):
            trials.append(None)
            return np.ones(len(a))  # one change per trial of the batch

        monkeypatch.setattr(triangularize, "_loss_change", no_decrease)
        frame, trace = descend_one(observed, u0)
        assert len(trials) == expected < 100
        assert np.array_equal(frame, u0)
        assert trace.termination == "stalled"

    def test_stalls_at_the_first_slope_below_the_rounding_bound(self, monkeypatch):
        """On a large-residual stack Gauss-Newton converges linearly until
        |<grad, X>| falls below the loss change's rounding-error bound; the
        descent stalls at the first such iteration and not before."""
        rng = np.random.default_rng(0)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        u0 = skew_exp(random_skew(rng, 4), 0.2)
        eps = np.finfo(float).eps
        exact_step = triangularize._exact_step
        ratios = []  # |<grad, X>| over the bound, per iteration

        def recorded(a, b):
            x = exact_step(a, b)
            floor = (2 * 4 + 2 * 3 * 6 + 5) * eps * (
                np.linalg.norm(mats.matrices)  # ||A||, which rotation keeps
                * np.linalg.norm(skew_from_lower(x, 4))
                * np.linalg.norm(low_part(a))
            )
            ratios.append(-2.0 * (b[0] @ x[0]) / floor)  # a batch of one
            return x

        monkeypatch.setattr(triangularize, "_exact_step", recorded)
        _, trace = descend_one(mats, u0, OptimizerConfig(grad_tol=1e-300))
        assert trace.termination == "stalled"
        assert len(ratios) == len(trace.step_lengths) + 1 > 10
        assert min(ratios[:-1]) > 1.0 >= ratios[-1]

    def test_ascent_direction_stalls_without_a_trial(self, monkeypatch):
        observed, u0 = self.start()
        exact_step = triangularize._exact_step
        monkeypatch.setattr(triangularize, "_exact_step", lambda a, b: -exact_step(a, b))
        trials = TestDescendCallCounts.count_calls(monkeypatch, "_loss_change")
        _, trace = descend_one(observed, u0)
        assert trace.termination == "stalled"
        assert trials == []


def armijo_descend(mset, u, max_iters=2000, grad_tol=1e-10):
    """The first-order descent that Gauss-Newton replaced: normalized
    gradient direction, Armijo backtracking from a step guess warm-started
    one expansion above the last accepted step, stop on step underflow."""
    current = loss(u, mset)
    guess = 1.0
    for _ in range(max_iters):
        g = gradient(u, mset)
        g_norm = np.linalg.norm(g)
        if g_norm <= grad_tol:
            break
        step = guess
        while True:
            candidate = u @ skew_exp(-g / g_norm, step)
            new = loss(candidate, mset)
            if new <= current - 1e-4 * step * g_norm:
                break
            step *= 0.5
            if step < 1e-16:
                return u
        u, current = candidate, new
        guess = min(1.0, 2.0 * step)
    return u


def bench_input(workload, seed):
    """A matrix set of the shape each benchmark workload triangularizes."""
    if workload == "tensor_d8":
        z = gen_components(8, kappa_target=2, seed=seed)
        tensor = gen_tensor(z, 1e-4, 1.0, seed=seed)
        return observable_matrices(tensor, np.ones(8) / np.sqrt(8))[0]
    d, n = {
        "verify_d4": (4, 4),
        "triangularize_d32": (32, 8),
        "triangularize_n64": (12, 64),
    }[workload]
    spec = GeneratorSpec(d=d, n=n, kappa_target=3, gamma_target=1, seed=seed)
    return gen_ground_truth(spec, sigma=1e-3).observed_matrices()


@pytest.mark.parametrize(
    "workload", ["verify_d4", "triangularize_d32", "triangularize_n64", "tensor_d8"]
)
def test_gauss_newton_loss_is_no_worse_than_armijo_oracle(workload):
    mset = bench_input(workload, seed=11000)
    u, _, _, _, _ = converge(mset)
    oracle = armijo_descend(mset, find_separating_beta(mset)[1])
    assert loss(u, mset) <= loss(oracle, mset) * (1 + 1e-9) + 1e-15
