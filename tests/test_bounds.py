import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri import bounds, cli, io
from jointtri.bounds import (
    LANCZOS_MIN_SIZE,
    GroundTruthModel,
    _commutator_operator,
    _operator_index,
    a_posteriori_bound,
    a_priori_bound,
    eigenvalue_error_bound,
    explicit_bound,
    hessian_constants,
    init_noise_threshold,
    inverse_spectral_norm,
    predicted_direction,
    t_beta,
    t_tilde_gram,
)
from jointtri.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonUnitBeta,
    SingularOperator,
)
from jointtri.harness import GeneratorSpec, converge, gen_ground_truth, sample_noise
from jointtri.linalg import low_part, lower_index, lower_pairs, skew_from_lower
from jointtri.triangularize import (
    MatrixSet,
    find_separating_beta,
    loss,
    rotated,
    schur_initializer,
)


def diagonal_model(lam, sigma=0.0, seed=0):
    lam = np.asarray(lam, dtype=float)
    n, d = lam.shape
    rng = np.random.default_rng(seed)
    noise = tuple(sample_noise(rng, d) for _ in range(n))
    return GroundTruthModel(v=np.eye(d), lambda_table=lam, noise=noise, sigma=sigma)


def smallest_singular(op):
    return float(np.linalg.svd(op, compute_uv=False)[-1])


def per_matrix_operators(u, mset):
    """T~_n from the index formula, one per matrix, stacked as (N, L, L)."""
    rows, cols = lower_index(mset.d)
    i, j = rows[:, None], cols[:, None]
    k, l = rows[None, :], cols[None, :]
    return np.stack(
        [
            np.where(j == l, a[k, i], 0.0) - np.where(i == k, a[j, l], 0.0)
            for a in rotated(u, mset)
        ]
    )


def exact_frame(gt):
    clean = gt.clean_matrices()
    beta, _ = find_separating_beta(clean)
    return schur_initializer(clean, beta)


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
        gram = t_tilde_gram(np.eye(3), gt.clean_matrices())
        expected = np.diag(
            [np.sum((lam[:, i] - lam[:, j]) ** 2) for i, j in lower_pairs(3)]
        )
        assert np.allclose(gram, expected, atol=1e-12)
        assert np.isclose(smallest_singular(gram), gt.eigengap())

    def test_two_by_two_single_slot(self):
        gt = diagonal_model([[1.0, 3.0]])
        gram = t_tilde_gram(np.eye(2), gt.clean_matrices())
        assert gram.shape == (1, 1)
        assert np.isclose(gram[0, 0], 4.0)

    def test_gram_sum_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        t = t_tilde_gram(np.eye(4), mats)
        assert np.linalg.norm(t - t.T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(t)) >= -1e-10

    def test_inverse_spectral_norm_rejects_singular(self):
        with pytest.raises(SingularOperator):
            inverse_spectral_norm(np.zeros((2, 2)))

    def test_inverse_spectral_norm_of_empty_operator_is_zero(self):
        assert inverse_spectral_norm(np.zeros((0, 0))) == 0.0


EPS = 2.2e-16
# Operator sizes on either side of the SVD / QR + Lanczos switch.
BELOW, ABOVE = LANCZOS_MIN_SIZE - 40, LANCZOS_MIN_SIZE + 110


def operator_with_spectrum(s, seed):
    """Q1 diag(s) Q2^T with random orthogonal Q1, Q2."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((s.size, s.size)))
    q2, _ = np.linalg.qr(rng.standard_normal((s.size, s.size)))
    return (q1 * s) @ q2.T


def spectrum(kind, size):
    s = np.geomspace(1.0, 1e-3, size)
    if kind == "clustered":  # sigma_min and sigma_2 within 1e-8 relative
        s[-2] = s[-1] * (1.0 + 1e-8)
    elif kind == "repeated":
        s[-2] = s[-1]
    elif kind == "kappa_1e8":
        s = np.geomspace(1.0, 1e-8, size)
    return s


def assert_matches_svd(op):
    """Both methods err by O(eps kappa); allow 100 eps kappa(op) relative."""
    s = np.linalg.svd(op, compute_uv=False)
    assert abs(inverse_spectral_norm(op) * s[-1] - 1.0) <= 100 * EPS * s[0] / s[-1]


@pytest.fixture(scope="module")
def generated_t_beta(tmp_path_factory):
    """T_beta at the converged frame of a `jointtri generate` model (N = 8)."""
    built = {}

    def build(d):
        if d not in built:
            path = tmp_path_factory.mktemp(f"d{d}") / "model.json"
            argv = ["generate", "--kind", "model", "--d", str(d), "--N", "8",
                    "--kappa", "3", "--gamma", "1", "--sigma", "1e-3",
                    "--output", str(path)]
            assert cli.run(argv) == 0
            mset = io.ground_truth_from_dict(io.load(path)).observed_matrices()
            u, beta, _ = converge(mset)
            built[d] = t_beta(u, mset, beta)
        return built[d]

    return build


class TestInverseSpectralNorm:
    @pytest.mark.parametrize("d", [19, 32])
    def test_generated_t_beta_matches_svd(self, generated_t_beta, d):
        op = generated_t_beta(d)
        assert (op.shape[0] >= LANCZOS_MIN_SIZE) == (d == 32)
        assert_matches_svd(op)
        assert inverse_spectral_norm(op) == inverse_spectral_norm(op)

    @pytest.mark.parametrize("size", [BELOW, ABOVE])
    def test_random_dense_operator_matches_svd(self, size):
        assert_matches_svd(np.random.default_rng(size).standard_normal((size, size)))

    @pytest.mark.parametrize("size", [BELOW, ABOVE])
    @pytest.mark.parametrize("kind", ["clustered", "repeated", "kappa_1e8"])
    def test_hard_spectra_match_svd(self, kind, size):
        assert_matches_svd(operator_with_spectrum(spectrum(kind, size), seed=size))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale_matches_svd_without_warnings(self, scale):
        op = scale * np.random.default_rng(3).standard_normal((ABOVE, ABOVE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_svd(op)

    @pytest.mark.parametrize(
        "kind", ["zero", "zero_row", "rank_deficient", "ratio_1e-13", "pivot_1e-200"]
    )
    def test_singular_operator_above_the_constant_raises(self, kind):
        rng = np.random.default_rng(1)
        op = rng.standard_normal((ABOVE, ABOVE))
        if kind == "zero":
            op[:] = 0.0
        elif kind == "zero_row":
            op[7] = 0.0
        elif kind == "rank_deficient":
            op = rng.standard_normal((ABOVE, 3)) @ rng.standard_normal((3, ABOVE))
        elif kind == "ratio_1e-13":
            op = operator_with_spectrum(np.geomspace(1.0, 1e-13, ABOVE), seed=2)
        else:  # a triangular solve would overflow
            op = np.diag(np.r_[np.ones(ABOVE - 1), 1e-200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularOperator):
                inverse_spectral_norm(op)

    def test_d32_cost_guard(self, generated_t_beta, monkeypatch):
        """At most 40 Lanczos steps per run, and no SVD of an L x L array."""
        op = generated_t_beta(32)
        size = op.shape[0]
        calls = {"dtrsv": 0, "dtrmv": 0}
        for name in calls:
            monkeypatch.setattr(bounds, name, counted(calls, name, getattr(bounds, name)))
        svd = np.linalg.svd

        def small_svd(a, *args, **kwargs):
            assert np.shape(a) != (size, size)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", small_svd)
        inverse_spectral_norm(op)
        # each step calls the map once and its transpose once
        assert 0 < calls["dtrsv"] <= 2 * 40
        assert 0 < calls["dtrmv"] <= 2 * 40


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


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
        assert np.array_equal(_commutator_operator(a), dense_commutator_oracle(a))


class TestOperatorOracles:
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_t_beta_is_the_weighted_operator_sum(self, d, n, seed):
        rng = np.random.default_rng(seed)
        mset = MatrixSet(tuple(rng.standard_normal((d, d)) for _ in range(n)))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        beta = rng.standard_normal(n)
        beta /= np.linalg.norm(beta)
        expected = sum(b * t for b, t in zip(beta, per_matrix_operators(u, mset)))
        got = t_beta(u, mset, beta)
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_streamed_gram_equals_stacked_sum_bit_for_bit(self, d, n, seed):
        rng = np.random.default_rng(seed)
        mset = MatrixSet(tuple(rng.standard_normal((d, d)) for _ in range(n)))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        gram = sum(t.T @ t for t in per_matrix_operators(u, mset))
        assert np.array_equal(t_tilde_gram(u, mset), 0.5 * (gram + gram.T))

    @pytest.mark.parametrize("d, n, seed", [(3, 3, 1), (4, 5, 2), (5, 2, 3)])
    def test_a_priori_bound_matches_per_matrix_construction(self, d, n, seed):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=n, seed=seed), sigma=1e-3)
        u_circ = exact_frame(gt)
        gram = sum(t.T @ t for t in per_matrix_operators(u_circ, gt.clean_matrices()))
        m_norm, w_norm = gt.norms()
        expected = (
            2.0 * np.sqrt(2.0) * gt.sigma
            * inverse_spectral_norm(0.5 * (gram + gram.T)) * m_norm * w_norm
        )
        assert a_priori_bound(gt, u_circ) == expected

    @pytest.mark.parametrize("d, n, seed", [(3, 3, 1), (4, 5, 2), (5, 2, 3)])
    def test_predicted_direction_matches_per_matrix_construction(self, d, n, seed):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=n, seed=seed), sigma=1e-3)
        u_circ = exact_frame(gt)
        ops = per_matrix_operators(u_circ, gt.clean_matrices())
        rows, cols = lower_index(d)
        system = sum(t @ t.T for t in ops)
        rhs = sum(
            t @ (u_circ.T @ w @ u_circ)[rows, cols] for t, w in zip(ops, gt.noise)
        )
        expected = skew_from_lower(-gt.sigma * np.linalg.solve(system, rhs), d)
        assert np.array_equal(predicted_direction(gt, u_circ), expected)

    def test_wrong_length_beta_is_a_dimension_mismatch(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=3))
        clean = gt.clean_matrices()
        beta = np.ones(2) / np.sqrt(2.0)
        with pytest.raises(DimensionMismatch):
            t_beta(np.eye(3), clean, beta)
        with pytest.raises(DimensionMismatch):
            a_posteriori_bound(clean, np.eye(3), beta, 0.0)

    def test_a_posteriori_bound_holds_one_operator_at_a_time(self):
        d, n = 24, 16
        size = d * (d - 1) // 2
        rng = np.random.default_rng(0)
        mset = MatrixSet(tuple(rng.standard_normal((d, d)) for _ in range(n)))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        beta = np.ones(n) / np.sqrt(n)
        _operator_index.cache_clear()  # count the index arrays too
        tracemalloc.start()
        try:
            a_posteriori_bound(mset, u, beta, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * size**2 * 8


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

    def test_rejects_nan_beta(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=2, seed=3))
        clean = gt.clean_matrices()
        with pytest.raises(NonUnitBeta):
            a_posteriori_bound(clean, np.eye(3), np.array([np.nan, 1.0]), 0.0)


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
            gram = t_tilde_gram(u_circ, gt.clean_matrices())
            kappa = np.linalg.cond(gt.v)
            assert smallest_singular(gram) >= gt.eigengap() / kappa**4 - 1e-12
