import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from numpy.linalg import lapack_lite
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri import bounds, cli, commutator, io
from jointtri.bounds import (
    LANCZOS_MIN_SIZE,
    LANCZOS_TOL,
    GroundTruthModel,
    a_posteriori_bound,
    a_priori_bound,
    eigenvalue_error_bound,
    explicit_bound,
    hessian_constants,
    init_noise_threshold,
    inverse_spectral_norm,
    predicted_direction,
    t_beta,
)
from jointtri.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonUnitBeta,
    SingularOperator,
)
from jointtri.harness import (
    GeneratorSpec,
    converge,
    gen_ground_truth,
    sample_noise,
)
from jointtri.linalg import low_part, lower_index, skew_from_lower
from jointtri.triangularize import (
    MatrixSet,
    find_separating_beta,
    gauss_newton_matrix,
    loss,
    rotated,
)
from oracle import (
    enumerate_exact_triangularizers,
    inverse_spectral_norm_qr,
    largest_eigenvalue_listed,
    largest_singular_listed,
)


def diagonal_model(lam, sigma=0.0, seed=0):
    lam = np.asarray(lam, dtype=float)
    n, d = lam.shape
    rng = np.random.default_rng(seed)
    noise = sample_noise(rng, d, n)
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


def gram_at(u, mset):
    """The Gauss-Newton matrix J^T J of the set at the frame U."""
    return gauss_newton_matrix(rotated(u, mset))


def per_matrix_system(u_circ, gt):
    """The per-matrix construction of the first-order system at an
    exact frame: (sum t_n t_n^T, sum t_n P_low vec(U0^T W_n U0))."""
    ops = per_matrix_operators(u_circ, gt.clean_matrices())
    rows, cols = lower_index(gt.d)
    system = sum(t @ t.T for t in ops)
    rhs = sum(t @ (u_circ.T @ w @ u_circ)[rows, cols] for t, w in zip(ops, gt.noise))
    return system, rhs


def exact_frame(gt):
    return find_separating_beta(gt.clean_matrices())[1]


class TestGroundTruthModel:
    def test_rejects_oversized_noise(self):
        w = 2.0 * np.eye(2)
        with pytest.raises(DimensionMismatch):
            GroundTruthModel(
                v=np.eye(2), lambda_table=[[0.0, 1.0]], noise=(w,), sigma=0.1
            )

    def test_with_noise_shares_the_noise_free_cache(self):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, kappa_target=3.0, seed=6))
        rng = np.random.default_rng(6)
        child = gt.with_noise(sample_noise(rng, 4, 3), 1e-2)
        fresh = GroundTruthModel(
            v=gt.v.copy(), lambda_table=gt.lambda_table.copy(),
            noise=child.noise, sigma=1e-2,
        )
        assert child.noise_free is gt.noise_free
        assert fresh.noise_free is not gt.noise_free
        for name in ("clean_norms", "m_norm", "gamma", "kappa"):
            assert getattr(child.noise_free, name) == getattr(fresh.noise_free, name)
        v_inv = np.linalg.inv(gt.v)
        per_matrix = [gt.v @ np.diag(row) @ v_inv for row in gt.lambda_table]
        assert np.array_equal(child.clean_matrices().matrices, per_matrix)
        assert np.array_equal(
            child.observed_matrices().matrices,
            [m + 1e-2 * w for m, w in zip(per_matrix, child.noise)],
        )
        u_circ = enumerate_exact_triangularizers(gt)[5]
        for bound in (a_priori_bound, predicted_direction):
            assert np.array_equal(bound(child, u_circ), bound(fresh, u_circ))
        assert explicit_bound(child) == explicit_bound(fresh)
        assert hessian_constants(child) == hessian_constants(fresh)
        assert list(gt.noise_free.gauss_newton) == [u_circ.tobytes()]

    def test_with_noise_checks_only_the_new_noise(self, monkeypatch):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, kappa_target=3.0, seed=6))
        noise = sample_noise(np.random.default_rng(6), 4, 3)
        conds = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(None) or cond(a))
        child = gt.with_noise(noise, 1e-2)
        assert conds == []
        assert child.v is gt.v and child.lambda_table is gt.lambda_table
        assert child.sigma == 1e-2 and not child.noise[0].flags.writeable
        assert all(np.array_equal(w, x) for w, x in zip(child.noise, noise))
        bad = [
            (noise[:2], 1e-2),  # one matrix short
            ((noise[0], noise[1], np.eye(3) / 2), 1e-2),  # wrong shape
            ((noise[0], noise[1], 2.0 * noise[2]), 1e-2),  # norm above 1
            (noise, -1e-3),  # negative sigma
            (noise, np.nan),
            (noise, np.inf),
        ]
        for w, sigma in bad:
            with pytest.raises(DimensionMismatch):
                gt.with_noise(w, sigma)
        assert gt.noise_free is child.noise_free

    @pytest.mark.parametrize("loaded", [False, True])
    def test_noise_norm_is_the_per_matrix_sum_bit_for_bit(self, loaded):
        """The noise norms have the bits of np.linalg.norm per matrix, and
        norms() those of their sum of squares, for the C-ordered noise of a
        generated model and for the column-major noise of a loaded one."""
        for seed in range(3):
            gt = gen_ground_truth(GeneratorSpec(d=12, n=64, seed=seed), sigma=1e-3)
            if loaded:
                gt = io.ground_truth_from_dict(io.ground_truth_to_dict(gt))
            assert gt.noise.flags.c_contiguous != loaded
            per_matrix = [np.linalg.norm(w) for w in gt.noise]
            assert gt.noise_norms.tolist() == per_matrix
            assert gt.norms()[1] == np.sqrt(sum(x**2 for x in per_matrix))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rejects_nan_or_norm_above_one(self, order):
        noise = sample_noise(np.random.default_rng(3), 3, 2)
        lam = [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]]

        def model(w):
            if order == "F":  # each matrix column-major, as io.load builds them
                w = w.swapaxes(1, 2).copy().swapaxes(1, 2)
            return GroundTruthModel(v=np.eye(3), lambda_table=lam, noise=w, sigma=0.1)

        nan = noise.copy()
        nan[1, 0, 2] = np.nan
        for bad in (nan, noise * np.array([1.0, 1.0 + 1e-11])[:, None, None]):
            with pytest.raises(DimensionMismatch):
                model(bad)
        model(noise * np.array([1.0, 1.0 + 1e-13])[:, None, None])

    def test_kappa_is_the_condition_number_that_validated_v(self, monkeypatch):
        v = gen_ground_truth(GeneratorSpec(d=5, n=3, kappa_target=3.0, seed=8)).v
        conds, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(None) or cond(a))
        gt = GroundTruthModel(
            v=v, lambda_table=np.ones((1, 5)), noise=np.zeros((1, 5, 5)), sigma=0.0)
        assert gt.noise_free.kappa == cond(v)
        assert len(conds) == 1

    def test_model_is_immutable(self):
        v, lam, w = np.eye(2), np.array([[0.0, 1.0]]), np.diag([0.6, 0.0])
        gt = GroundTruthModel(v=v, lambda_table=lam, noise=(w,), sigma=0.1)
        clean = gt.clean_matrices().matrices.copy()
        for array in (gt.v, gt.lambda_table, gt.noise[0]):
            with pytest.raises(ValueError):
                array[0, 0] = 2.0
        v[0, 0], lam[0, 0], w[0, 0] = 3.0, 5.0, 0.1
        assert gt.v[0, 0] == 1.0
        assert gt.lambda_table[0, 0] == 0.0
        assert gt.noise[0][0, 0] == 0.6
        assert np.array_equal(gt.clean_matrices().matrices, clean)

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
        gram = gram_at(np.eye(3), gt.clean_matrices())
        pairs = [(1, 0), (2, 0), (2, 1)]
        expected = np.diag([np.sum((lam[:, i] - lam[:, j]) ** 2) for i, j in pairs])
        assert np.allclose(gram, expected, atol=1e-12)
        assert np.isclose(smallest_singular(gram), gt.eigengap())

    def test_two_by_two_single_slot(self):
        gt = diagonal_model([[1.0, 3.0]])
        gram = gram_at(np.eye(2), gt.clean_matrices())
        assert gram.shape == (1, 1)
        assert np.isclose(gram[0, 0], 4.0)

    def test_gram_sum_is_symmetric_psd(self):
        rng = np.random.default_rng(3)
        mats = MatrixSet(tuple(rng.standard_normal((4, 4)) for _ in range(3)))
        t = gram_at(np.eye(4), mats)
        assert np.linalg.norm(t - t.T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(t)) >= -1e-10

    def test_inverse_spectral_norm_rejects_singular(self):
        with pytest.raises(SingularOperator):
            inverse_spectral_norm(np.zeros((2, 2)))

    def test_inverse_spectral_norm_of_empty_operator_is_zero(self):
        assert inverse_spectral_norm(np.zeros((0, 0))) == 0.0


EPS = 2.2e-16
# Operator sizes on either side of the SVD / LU + Lanczos switch.
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


def assert_matches_qr_and_svd(op):
    """The LU value within 100 eps kappa(op) relative of the QR oracle's
    and of the dense SVD's."""
    s = np.linalg.svd(op, compute_uv=False)
    value, allowed = inverse_spectral_norm(op), 100 * EPS * s[0] / s[-1]
    assert abs(value / inverse_spectral_norm_qr(op) - 1.0) <= allowed
    assert abs(value * s[-1] - 1.0) <= allowed


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
            u, beta, _, _, _ = converge(mset)
            built[d] = t_beta(u, mset, beta)
        return built[d]

    return build


class TestLargestEigenvalue:
    """The Krylov basis and tridiagonal held in arrays that double give the
    bits of the basis rebuilt from lists at every step."""

    @pytest.mark.parametrize("d", [20, 24, 32])
    def test_generated_t_beta_has_the_bits_of_the_listed_basis(
        self, generated_t_beta, monkeypatch, d
    ):
        op = generated_t_beta(d)
        assert op.shape[0] == d * (d - 1) // 2 >= LANCZOS_MIN_SIZE
        value = inverse_spectral_norm(op)
        monkeypatch.setattr(bounds, "_largest_eigenvalue", largest_eigenvalue_listed)
        assert np.float64(value).tobytes() == np.float64(inverse_spectral_norm(op)).tobytes()

    @pytest.mark.parametrize("n, tol", [
        (5, 0.0),  # within the first block, up to k = n
        (33, 0.0),  # one row past the first block, up to k = n
        (100, LANCZOS_TOL),  # into the second block
        (300, LANCZOS_TOL),
    ])
    def test_random_operator_has_the_bits_of_the_listed_basis(self, n, tol):
        m = np.random.default_rng(n).standard_normal((n, n))
        calls = []

        def apply(x):
            calls.append(None)
            return m.T @ (m @ x)

        value = bounds._largest_eigenvalue(apply, n, tol)
        assert len(calls) == n if tol == 0.0 else len(calls) > bounds._LANCZOS_BLOCK
        expected = largest_eigenvalue_listed(lambda x: m.T @ (m @ x), n, tol)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()

    @pytest.mark.parametrize("d", [20, 24, 32])
    def test_generated_t_beta_matches_golub_kahan_lanczos(self, generated_t_beta, d):
        """On the LU solves of T_beta, the top eigenvalue of op^-T op^-1 is
        the square of the two-sided Golub-Kahan-Lanczos sigma_max of op^-T
        within 16 eps."""
        op = generated_t_beta(d)
        size = op.shape[0]
        lu, piv, info = scipy.linalg.lapack.dgetrf(op.T)
        assert info == 0

        def solve(x, trans=0):
            return scipy.linalg.lapack.dgetrs(lu, piv, x, trans=trans)[0]

        sigma = largest_singular_listed(solve, lambda x: solve(x, 1), size, LANCZOS_TOL)
        value = bounds._largest_eigenvalue(lambda x: solve(solve(x, 1)), size, LANCZOS_TOL)
        assert abs(value / sigma**2 - 1.0) <= 16 * EPS


def tridiagonal(kind, k, seed):
    """(alphas, betas) of a k x k symmetric tridiagonal: random entries;
    graded ones, each diagonal falling over up to 15 decades; or a
    cluster, every eigenvalue but the top within about 1e-9 of 1 (repeated
    ones too), the top one a separated alpha of 2 to 3 at a random row.  A
    top eigenvalue inside a cluster leaves |s_k| undetermined in any
    method (it moves by eps / gap), so the cluster stays below it."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(0.1, 2.0, k), rng.uniform(0.0, 2.0, k - 1)
    if kind == "graded":
        alphas = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 15), k) * rng.uniform(0.5, 2.0, k)
        betas = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 15), k - 1) * rng.uniform(0, 1, k - 1)
        return alphas, betas
    alphas = 1.0 + 1e-10 * rng.standard_normal(k) * rng.integers(0, 2, k)
    betas = 1e-9 * rng.standard_normal(k - 1) * rng.integers(0, 2, k - 1)
    alphas[rng.integers(k)] = rng.uniform(2.0, 3.0)
    return alphas, betas


def tridiagonal_eigh(alphas, betas):
    return np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))


class TestTopEigenpair:
    """The top eigenvalue and |s_k| of a tridiagonal, from one dstemr
    eigenpair, against a dense eigh."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["random", "graded", "clustered"]),
        k=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigh(self, kind, k, seed):
        alphas, betas = tridiagonal(kind, k, seed)
        w, z = tridiagonal_eigh(alphas, betas)
        theta, s_k = bounds._top_eigenpair(alphas, betas)
        assert abs(theta - w[-1]) <= 16 * k * EPS * np.abs(w).max()
        assert abs(s_k - abs(z[-1, -1])) <= 1e-12

    def test_nonzero_info_takes_eigh(self, monkeypatch):
        alphas, betas = tridiagonal("random", 9, 7)
        w, z = tridiagonal_eigh(alphas, betas)
        dstemr, calls = bounds.dstemr, []

        def failing(*args, **kwargs):
            calls.append(None)
            m, w, z, _ = dstemr(*args, **kwargs)
            return m, w, z, 1

        monkeypatch.setattr(bounds, "dstemr", failing)
        assert bounds._top_eigenpair(alphas, betas) == (float(w[-1]), float(abs(z[-1, -1])))
        assert_matches_svd(operator_with_spectrum(spectrum("clustered", ABOVE), seed=3))
        assert len(calls) > 2


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

    @pytest.mark.parametrize("size", [ABOVE, 496])
    @pytest.mark.parametrize("gap", [1e-10, 1e-12])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tightly_clustered_sigma_min_matches_svd(self, size, gap, seed):
        """sigma_2 within 1e-10 or 1e-12 (relative) of sigma_min: a stop on
        the Ritz gap instead of the residual would end the GKL early here."""
        s = np.geomspace(1.0, 1e-3, size)
        s[-2] = s[-1] * (1.0 + gap)
        assert_matches_svd(operator_with_spectrum(s, seed=seed))

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
        """One LU, no QR, no SVD of the operator, no eigh of a step's
        tridiagonal, and one Lanczos run of at most 40 steps, each reading
        one dstemr eigenpair."""
        op = generated_t_beta(32)
        calls = {"dgetrf": 0, "dgetrs": 0, "dstemr": 0, "_largest_eigenvalue": 0}
        for name in calls:
            monkeypatch.setattr(bounds, name, counted(calls, name, getattr(bounds, name)))

        def refused(what):
            def call(*args, **kwargs):
                raise AssertionError(f"{what} on the LU path")

            return call

        monkeypatch.setattr(np.linalg, "svd", refused("SVD"))
        monkeypatch.setattr(np.linalg, "eigh", refused("eigh"))
        monkeypatch.setattr(lapack_lite, "dgeqrf", refused("QR factorization"))
        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrf", refused("QR factorization"))
        inverse_spectral_norm(op)
        assert calls["dgetrf"] == calls["_largest_eigenvalue"] == 1
        # each step applies op^-1 and op^-T, one LU solve each
        assert 0 < calls["dgetrs"] == 2 * calls["dstemr"] <= 2 * 40

    @pytest.mark.parametrize("d", [20, 24, 32])
    def test_generated_t_beta_matches_the_qr_oracle(self, generated_t_beta, d):
        assert_matches_qr_and_svd(generated_t_beta(d))

    def test_a_priori_gram_matches_the_qr_oracle(self):
        """The cached J^T J of the a priori bound at d = 20 takes the LU path too."""
        gt = gen_ground_truth(GeneratorSpec(d=20, n=8, seed=5), sigma=1e-3)
        gram, inv_norm = bounds._exact_frame_gram(gt, exact_frame(gt))
        assert gram.shape[0] >= LANCZOS_MIN_SIZE
        assert inv_norm == inverse_spectral_norm(gram)
        assert_matches_qr_and_svd(gram)

    def test_flat_spectrum_at_kappa_1e10_matches_svd(self):
        """||op||_F <= sqrt(L) sigma_max keeps kappa = 1e10 clear of the
        singularity threshold."""
        op = operator_with_spectrum(np.r_[np.ones(ABOVE - 1), 1e-10], seed=4)
        assert_matches_svd(op)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_operator_is_not_written(self, order):
        op = np.array(np.random.default_rng(5).standard_normal((ABOVE, ABOVE)), order=order)
        before = op.tobytes(order="A")
        inverse_spectral_norm(op)
        inverse_spectral_norm(op[None])
        assert op.tobytes(order="A") == before


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


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

    def test_gauss_newton_matrix_is_the_operator_gram_at_exact_frames(self):
        """At an exact frame J_n = T~_n^T, so J^T J = sum T~_n T~_n^T."""
        for d, n, seed in [(3, 3, 1), (4, 5, 2), (5, 2, 3), (5, 8, 4)]:
            gt = gen_ground_truth(GeneratorSpec(d=d, n=n, seed=seed))
            clean = gt.clean_matrices()
            frames = enumerate_exact_triangularizers(gt)
            for u_circ in frames[:: len(frames) // 5]:
                expected = sum(t @ t.T for t in per_matrix_operators(u_circ, clean))
                err = np.linalg.norm(gram_at(u_circ, clean) - expected)
                assert err <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("d, n, seed", [(3, 3, 1), (4, 5, 2), (5, 2, 3)])
    def test_a_priori_bound_matches_per_matrix_construction(self, d, n, seed):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=n, seed=seed), sigma=1e-3)
        u_circ = exact_frame(gt)
        system, _ = per_matrix_system(u_circ, gt)
        m_norm, w_norm = gt.norms()
        expected = (
            2.0 * np.sqrt(2.0) * gt.sigma
            * inverse_spectral_norm(system) * m_norm * w_norm
        )
        assert abs(a_priori_bound(gt, u_circ) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("d, n, seed", [(3, 3, 1), (4, 5, 2), (5, 2, 3)])
    def test_predicted_direction_matches_per_matrix_construction(self, d, n, seed):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=n, seed=seed), sigma=1e-3)
        u_circ = exact_frame(gt)
        system, rhs = per_matrix_system(u_circ, gt)
        expected = skew_from_lower(-gt.sigma * np.linalg.solve(system, rhs), d)
        got = predicted_direction(gt, u_circ)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

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
        commutator._plan.cache_clear()  # count the index arrays too
        tracemalloc.start()
        try:
            a_posteriori_bound(mset, u, beta, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * size**2 * 8
        assert "moments" not in vars(commutator._plan(d))  # J^T J's tables stay unbuilt

    def test_warm_a_posteriori_bound_holds_one_operator(self):
        """With the index arrays cached, T_beta is factored where it was built."""
        d, n = 24, 16
        size = d * (d - 1) // 2
        rng = np.random.default_rng(0)
        mset = MatrixSet(tuple(rng.standard_normal((d, d)) for _ in range(n)))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        beta = np.ones(n) / np.sqrt(n)
        warm = a_posteriori_bound(mset, u, beta, 1e-3)
        tracemalloc.start()
        try:
            assert a_posteriori_bound(mset, u, beta, 1e-3) == warm
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size**2 * 8

    def test_a_priori_bound_leaves_the_cached_gram_intact(self):
        gt = gen_ground_truth(GeneratorSpec(d=20, n=8, seed=5), sigma=1e-3)
        u_circ = exact_frame(gt)
        assert gt.d * (gt.d - 1) // 2 >= LANCZOS_MIN_SIZE
        first = a_priori_bound(gt, u_circ)
        assert a_priori_bound(gt, u_circ) == first
        ((cached, _),) = gt.noise_free.gauss_newton.values()
        assert cached.tobytes() == gram_at(u_circ, gt.clean_matrices()).tobytes()


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

    def test_frame_of_another_shape_is_a_dimension_mismatch(self):
        """The frame cache is keyed by bytes, so a flat copy of a cached
        frame must not read that frame's J^T J."""
        gt = diagonal_model([[1.0, 2.0], [0.5, -1.0]], sigma=1e-3)
        frame = exact_frame(gt)
        a_priori_bound(gt, frame)
        for bad in (frame.reshape(-1), frame[None]):
            for bound in (a_priori_bound, predicted_direction):
                with pytest.raises(DimensionMismatch):
                    bound(gt, bad)


    @pytest.mark.parametrize("scale", [1.0, 1e-5])
    def test_exact_frame_test_is_scale_free(self, scale):
        """A frame 0.3 rad from every exact frame is refused at any scale of
        the lambda table: the loss is measured against sum ||M_n||^2."""
        gt = diagonal_model(scale * np.array([[1.0, 2.0, 4.0], [0.0, 1.0, 3.0]]), sigma=1e-3)
        c, s = np.cos(0.3), np.sin(0.3)
        off = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        for bound in (a_priori_bound, predicted_direction):
            with pytest.raises(DimensionMismatch):
                bound(gt, off)
        assert a_priori_bound(gt, np.eye(3)) > 0.0


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


class TestNonFiniteFrame:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bound", [a_priori_bound, predicted_direction])
    def test_is_a_dimension_mismatch(self, bound, value):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=1), sigma=1e-3)
        with pytest.raises(DimensionMismatch):
            bound(gt, np.full((3, 3), value))


class TestPredictedDirection:
    def test_bounded_by_the_a_priori_bound_at_exact_frames(self):
        """The a priori bound covers the first-order perturbation that
        predicted_direction solves for; both read the one J^T J.  Three
        frames per model, 162 in all."""
        frames_checked = 0
        for d, n, seed in itertools.product((3, 4, 5), (2, 4, 8), range(6)):
            gt = gen_ground_truth(GeneratorSpec(d=d, n=n, seed=seed), sigma=1e-3)
            frames = enumerate_exact_triangularizers(gt)
            for u_circ in frames[:: len(frames) // 3][:3]:
                direction = np.linalg.norm(predicted_direction(gt, u_circ))
                assert a_priori_bound(gt, u_circ) >= direction
                frames_checked += 1
        assert frames_checked == 162

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
        beta, u = find_separating_beta(clean)
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
        beta, u_init = find_separating_beta(gt.observed_matrices())
        assert beta.tolist() == [1.0]
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
        beta, u_init = find_separating_beta(observed)
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
            _, u_circ = find_separating_beta(gt.clean_matrices())
            gram = gram_at(u_circ, gt.clean_matrices())
            kappa = np.linalg.cond(gt.v)
            assert smallest_singular(gram) >= gt.eigengap() / kappa**4 - 1e-12
