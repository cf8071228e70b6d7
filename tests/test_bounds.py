import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri.bounds import (
    GroundTruthModel,
    _commutator_operator,
    a_posteriori_bound,
    a_priori_bound,
    assemble_t_tilde,
    eigenvalue_error_bound,
    explicit_bound,
    hessian_constants,
    init_noise_threshold,
    inverse_spectral_norm,
    predicted_direction,
)
from jointtri.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonUnitBeta,
    SingularOperator,
)
from jointtri.harness import GeneratorSpec, gen_ground_truth, sample_noise
from jointtri.linalg import low_part, lower_index, lower_pairs
from jointtri.triangularize import (
    MatrixSet,
    find_separating_beta,
    loss,
    schur_initializer,
)


def diagonal_model(lam, sigma=0.0, seed=0):
    lam = np.asarray(lam, dtype=float)
    n, d = lam.shape
    rng = np.random.default_rng(seed)
    noise = tuple(sample_noise(rng, d) for _ in range(n))
    return GroundTruthModel(v=np.eye(d), lambda_table=lam, noise=noise, sigma=sigma)


class TestGroundTruthModel:
    def test_rejects_oversized_noise(self):
        w = 2.0 * np.eye(2)
        with pytest.raises(DimensionMismatch):
            GroundTruthModel(
                v=np.eye(2), lambda_table=[[0.0, 1.0]], noise=(w,), sigma=0.1
            )

    def test_clean_matrices_commute(self):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, seed=5))
        mats = gt.clean_matrices().matrices
        for a in mats:
            for b in mats:
                comm = a @ b - b @ a
                assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_eigengap_matches_direct_recomputation(self):
        gt = diagonal_model([[1.0, 2.0, 4.0], [0.0, 1.0, 1.5]])
        lam = gt.lambda_table
        direct = min(
            np.sum((lam[:, i] - lam[:, j]) ** 2)
            for i in range(3)
            for j in range(i + 1, 3)
        )
        assert np.isclose(gt.eigengap(), direct)


class TestAssembleOperators:
    def test_diagonal_model_gives_diagonal_operator(self):
        lam = np.array([[1.0, 2.0, 4.0], [0.0, 1.0, 3.0]])
        gt = diagonal_model(lam)
        bundle = assemble_t_tilde(np.eye(3), gt.clean_matrices())
        expected = np.diag(
            [np.sum((lam[:, i] - lam[:, j]) ** 2) for i, j in lower_pairs(3)]
        )
        assert np.allclose(bundle.t_tilde_sum, expected, atol=1e-12)
        assert np.isclose(bundle.smallest_singular, gt.eigengap())

    def test_two_by_two_single_slot(self):
        gt = diagonal_model([[1.0, 3.0]])
        bundle = assemble_t_tilde(np.eye(2), gt.clean_matrices())
        assert bundle.t_tilde_sum.shape == (1, 1)
        assert np.isclose(bundle.t_tilde_sum[0, 0], 4.0)

    def test_gram_sum_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        bundle = assemble_t_tilde(np.eye(4), mats)
        t = bundle.t_tilde_sum
        assert np.linalg.norm(t - t.T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(t)) >= -1e-10

    def test_inverse_spectral_norm_rejects_singular(self):
        with pytest.raises(SingularOperator):
            inverse_spectral_norm(np.zeros((2, 2)))

    def test_inverse_spectral_norm_of_empty_operator_is_zero(self):
        assert inverse_spectral_norm(np.zeros((0, 0))) == 0.0


def dense_commutator_oracle(a):
    """P_low (kron(I, A^T) - kron(A, I)) P_low^T with a dense 0/1 selector."""
    d = a.shape[0]
    p_low = np.zeros((d * (d - 1) // 2, d * d))
    for row, (i, j) in enumerate(lower_pairs(d)):
        p_low[row, i + j * d] = 1.0
    op = np.kron(np.eye(d), a.T) - np.kron(a, np.eye(d))
    return p_low @ op @ p_low.T


class TestCommutatorOperator:
    @given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_kron_oracle(self, d, seed):
        a = np.random.default_rng(seed).standard_normal((d, d))
        rows, cols = lower_index(d)
        assert np.array_equal(
            _commutator_operator(a, rows, cols), dense_commutator_oracle(a)
        )


class TestAPrioriBound:
    def test_zero_noise_gives_zero(self):
        gt = diagonal_model([[1.0, 2.0, 4.0]], sigma=0.0)
        assert a_priori_bound(gt, np.eye(3)) == 0.0

    def test_diagonal_model_closed_form(self):
        gt = diagonal_model([[1.0, 2.0, 4.0], [0.0, 1.0, 3.0]], sigma=1e-3)
        m_norm, w_norm = gt.norms()
        gamma = gt.eigengap()
        expected = 2.0 * np.sqrt(2.0) * 1e-3 / gamma * m_norm * w_norm
        assert np.isclose(a_priori_bound(gt, np.eye(3)), expected)

    def test_linear_in_sigma(self):
        gt1 = diagonal_model([[1.0, 2.0, 4.0]], sigma=1e-3)
        gt2 = gt1.with_noise(gt1.noise, 2e-3)
        assert np.isclose(
            a_priori_bound(gt2, np.eye(3)), 2.0 * a_priori_bound(gt1, np.eye(3))
        )


class TestExplicitBound:
    def test_zero_noise_gives_zero(self):
        gt = diagonal_model([[1.0, 2.0, 4.0]], sigma=0.0)
        bound, gamma = explicit_bound(gt)
        assert bound == 0.0
        assert gamma > 0

    def test_dominates_spectral_bound_on_diagonal_models(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lam = rng.standard_normal((3, 4))
            gt = diagonal_model(lam, sigma=1e-3, seed=seed)
            bound, _ = explicit_bound(gt)
            assert bound >= a_priori_bound(gt, np.eye(4))

    def test_identical_columns_are_degenerate(self):
        gt = diagonal_model([[1.0, 1.0, 2.0], [3.0, 3.0, 0.0]], sigma=1e-3)
        with pytest.raises(DegenerateSpectrum):
            explicit_bound(gt)


class TestPredictedDirection:
    def test_zero_noise_gives_zero_matrix(self):
        gt = diagonal_model([[1.0, 2.0, 4.0]], sigma=0.0)
        assert np.allclose(predicted_direction(gt, np.eye(3)), 0.0)

    def test_output_is_skew_with_balanced_energy(self):
        gt = diagonal_model([[1.0, 2.0, 4.0], [0.0, 1.0, 3.0]], sigma=1e-3)
        ax = predicted_direction(gt, np.eye(3))
        assert np.array_equal(ax, -ax.T)
        # the lower embedding carries exactly half the squared norm
        assert np.isclose(
            np.linalg.norm(ax), np.sqrt(2.0) * np.linalg.norm(low_part(ax))
        )


class TestAPosterioriBound:
    def test_zero_for_noiseless_exact_triangularizer(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=2))
        clean = gt.clean_matrices()
        beta, _ = find_separating_beta(clean)
        u = schur_initializer(clean, beta)
        assert a_posteriori_bound(clean, u, beta, 0.0) <= 1e-9

    def test_rejects_non_unit_beta(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=2, seed=3))
        clean = gt.clean_matrices()
        with pytest.raises(NonUnitBeta):
            a_posteriori_bound(clean, np.eye(3), 2.0 * np.ones(2) / np.sqrt(2), 0.0)


class TestNoiseThreshold:
    def test_epsilon_formula(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, kappa_target=2.5, seed=4))
        epsilon, gamma, _, _ = hessian_constants(gt)
        kappa = np.linalg.cond(gt.v)
        assert np.isclose(epsilon, gamma / (2.0 * kappa**4))

    def test_single_matrix_plug_in(self):
        gt = diagonal_model([[0.0, 1.0]], sigma=0.0, seed=5)
        beta = np.array([1.0])
        u_init = schur_initializer(gt.observed_matrices(), beta)
        sigma_max, alpha_max, constants = init_noise_threshold(gt, beta, u_init)
        assert np.isclose(constants["gamma"], 1.0)
        assert np.isclose(constants["epsilon"], 0.5)
        assert np.isclose(constants["a_alpha"], 32.0)
        assert np.isclose(constants["a_sigma"], 16.0)
        inv = constants["t_beta_inv_norm"]
        assert np.isclose(sigma_max, 1.0 / (np.sqrt(2.0) * inv * 32.0 + 16.0))

    def test_basin_radius_at_the_boundary(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=6), sigma=0.0)
        observed = gt.observed_matrices()
        beta, _ = find_separating_beta(observed)
        u_init = schur_initializer(observed, beta)
        sigma_max, _, constants = init_noise_threshold(gt, beta, u_init)
        at_boundary = gt.with_noise(gt.noise, sigma_max)
        _, alpha_max, _ = init_noise_threshold(at_boundary, beta, u_init)
        inv = constants["t_beta_inv_norm"]
        assert alpha_max >= np.sqrt(2.0 * gt.n) * sigma_max * inv - 1e-12


class TestEigenvalueErrorBound:
    def test_zero_inputs(self):
        assert eigenvalue_error_bound(0.0, 0.0, 5.0, 1.0) == 0.0

    def test_arithmetic(self):
        assert np.isclose(eigenvalue_error_bound(0.01, 1e-3, 2.0, 1.0), 0.041)


class TestOperatorSpectrumFloor:
    def test_smallest_singular_value_dominated_by_gap(self):
        # small sample here; the wide study runs in the acceptance suite
        for seed in range(10):
            gt = gen_ground_truth(
                GeneratorSpec(d=4, n=3, kappa_target=2.0, seed=seed)
            )
            beta, _ = find_separating_beta(gt.clean_matrices())
            u_circ = schur_initializer(gt.clean_matrices(), beta)
            bundle = assemble_t_tilde(u_circ, gt.clean_matrices())
            kappa = np.linalg.cond(gt.v)
            assert bundle.smallest_singular >= gt.eigengap() / kappa**4 - 1e-12
