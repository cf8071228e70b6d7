import collections
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri import tensor as tn
from jointtri.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    RankDeficient,
    SingularZ,
    ZeroColumnSum,
)
from jointtri.harness import gen_components, gen_tensor, verify_component_bound
from jointtri.tensor import (
    Tensor3,
    component_error_bound,
    component_gamma,
    estimate_components,
    first_order_model,
    match_columns,
    observable_matrices,
    recover_scales,
    tensor_from_components,
)
from jointtri.triangularize import find_separating_beta
from oracle import component_error_bound_two_svds, observable_matrices_per_slice


def unit_theta(n):
    return np.ones(n) / np.sqrt(n)


def outcome(f, *args):
    """The bytes of f's arrays, or the class name of the error it raised."""
    try:
        result = f(*args)
    except (DegenerateSpectrum, RankDeficient, SingularZ) as exc:
        return type(exc).__name__
    if isinstance(result, tuple):
        return tuple(np.asarray(getattr(r, "matrices", r)).tobytes() for r in result)
    return np.float64(result).tobytes()


class TestSlices:
    def test_identity_components_give_coordinate_slices(self):
        t = tensor_from_components(np.eye(3))
        for n, m in enumerate(t.as_cube()):
            expected = np.zeros((3, 3))
            expected[n, n] = 1.0
            assert np.array_equal(m, expected)

    def test_ground_tensor_slices_are_symmetric(self):
        z = gen_components(4, seed=1)
        for m in tensor_from_components(z).as_cube():
            assert np.allclose(m, m.T, atol=1e-12)

    def test_flat_index_round_trip(self):
        rng = np.random.default_rng(2)
        t = Tensor3(n=3, data=rng.standard_normal(27))
        rebuilt = np.concatenate([m.ravel() for m in t.as_cube()])
        assert np.array_equal(rebuilt, np.asarray(t.data))


class TestObservableMatrices:
    def test_identity_components_give_coordinate_projectors(self):
        t = tensor_from_components(np.eye(4))
        mset, pencil = observable_matrices(t, unit_theta(4))
        assert np.array_equal(pencil, np.eye(4))
        for n, m in enumerate(mset.matrices):
            assert np.allclose(m, np.diag(np.eye(4)[n]), atol=1e-12)
        assert np.allclose(sum(mset.matrices), np.eye(4), atol=1e-12)

    def test_weighted_sum_is_identity(self):
        z = gen_components(4, seed=3)
        t = tensor_from_components(z)
        theta = unit_theta(4)
        mset, _ = observable_matrices(t, theta)
        weights = np.sqrt(4) * theta
        total = sum(w * m for w, m in zip(weights, mset.matrices))
        assert np.allclose(total, np.eye(4), atol=1e-10)

    def test_zero_component_column_is_rank_deficient(self):
        z = gen_components(3, seed=4).copy()
        z[:, 1] = 0.0
        t = tensor_from_components(z)
        with pytest.raises(RankDeficient):
            observable_matrices(t, unit_theta(3))

    @pytest.mark.parametrize("n, seed", [(3, 0), (4, 1), (6, 2)])
    def test_pencil_is_the_weighted_slice_sum(self, n, seed):
        """The m_w returned for recover_scales has the bits of the sum that
        the tensor command formed from the slices itself."""
        t = gen_tensor(gen_components(n, seed=seed), 1e-4, 1.0, seed=seed)
        for theta in (unit_theta(n), np.random.default_rng(seed).standard_normal(n)):
            _, pencil = observable_matrices(t, theta)
            expected = sum(w * m for w, m in zip(np.sqrt(n) * theta, t.as_cube()))
            assert pencil.tobytes() == expected.tobytes()

    @given(st.integers(2, 32), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_one_solve_equals_per_slice_solves(self, d, seed, random_theta):
        """One LU of m_w for every slice gives each M_n the bits of its own solve."""
        t = gen_tensor(gen_components(d, seed=seed), 1e-4, 1.0, seed=seed)
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal(d) if random_theta else unit_theta(d)
        expected = outcome(observable_matrices_per_slice, t, theta)
        assert outcome(observable_matrices, t, theta) == expected
        assert isinstance(expected, tuple)

    @staticmethod
    def ill_conditioned_tensor():
        """Slices 0.3 B - R, 0.5 B, R and 0.2 B sum to B, whose condition number
        1e9 passes the SVD rank test; slices 0 and 2 solve to X of norm near
        1e9, with residuals near eps 1e9, far above SOLVE_RESIDUAL_TOL."""
        rng = np.random.default_rng(21)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        b = q1 @ np.diag(np.geomspace(1.0, 1e-9, 4)) @ q2.T
        r = rng.standard_normal((4, 4))
        cube = np.stack([0.3 * b - r, 0.5 * b, r, 0.2 * b])
        return Tensor3(n=4, data=cube.ravel())

    def test_bad_slice_residual_is_rank_deficient(self):
        t = self.ill_conditioned_tensor()
        assert outcome(observable_matrices_per_slice, t, unit_theta(4)) == "RankDeficient"
        with pytest.raises(RankDeficient):
            observable_matrices(t, unit_theta(4))

    def test_residual_test_is_per_slice(self, monkeypatch):
        """With the tolerance between the two largest per-slice residual
        ratios, the one slice above it raises; above them all, none does."""
        rng = np.random.default_rng(22)
        t = Tensor3(n=5, data=rng.standard_normal(125) * np.repeat([1e-3, 1, 3, 10, 1e3], 25))
        theta = rng.standard_normal(5)
        observed, pencil = observable_matrices(t, theta)
        ratios = sorted(
            np.linalg.norm(x @ pencil - m) / max(np.linalg.norm(m), 1.0)
            for x, m in zip(observed.matrices, t.as_cube())
        )
        assert 0 < ratios[-2] < 0.9 * ratios[-1]
        monkeypatch.setattr(tn, "SOLVE_RESIDUAL_TOL", (ratios[-2] + ratios[-1]) / 2)
        with pytest.raises(RankDeficient):
            observable_matrices(t, theta)
        assert outcome(observable_matrices_per_slice, t, theta) == "RankDeficient"
        monkeypatch.setattr(tn, "SOLVE_RESIDUAL_TOL", 2 * ratios[-1])
        assert outcome(observable_matrices, t, theta) == outcome(
            observable_matrices_per_slice, t, theta)

    def test_theta_of_another_length_is_a_dimension_mismatch(self):
        t = tensor_from_components(gen_components(3, seed=0))
        with pytest.raises(DimensionMismatch):
            observable_matrices(t, unit_theta(4))

    def test_square_reduction_is_a_similarity_of_the_direct_path(self):
        z = gen_components(4, seed=5)
        t = tensor_from_components(z)
        theta = unit_theta(4)
        mset, _ = observable_matrices(t, theta)
        weights = np.sqrt(4) * theta
        raw = t.as_cube()
        pencil = sum(w * m for w, m in zip(weights, raw))
        u_full, _, vt_full = np.linalg.svd(pencil)
        v_full = vt_full.T
        for direct, m in zip(mset.matrices, raw):
            reduced = np.linalg.solve(
                (u_full.T @ pencil @ v_full).T, (u_full.T @ m @ v_full).T
            ).T
            assert np.allclose(reduced, u_full.T @ direct @ u_full, atol=1e-10)


class TestFirstOrderModel:
    def test_matrices_commute(self):
        z = gen_components(4, seed=7)
        noise = gen_tensor(np.zeros((4, 4)), 0.0, 1.0, seed=7)
        m_list, _, _, _ = first_order_model(z, noise)
        for a, b in itertools.combinations(m_list, 2):
            assert np.linalg.norm(a @ b - b @ a) <= 1e-10

    def test_columns_are_joint_eigenvectors(self):
        z = gen_components(3, seed=8)
        noise = gen_tensor(np.zeros((3, 3)), 0.0, 1.0, seed=8)
        m_list, _, _, _ = first_order_model(z, noise)
        col_sums = z.sum(axis=0)
        for n, m in enumerate(m_list):
            assert np.allclose(m @ z, z @ np.diag(z[n] / col_sums), atol=1e-10)

    def test_noise_term_matches_finite_differences(self):
        z = gen_components(4, seed=9)
        rng = np.random.default_rng(9)
        e = rng.standard_normal(64)
        e /= np.linalg.norm(e)
        noise = Tensor3(n=4, data=e)
        m_list, w_list, _, _ = first_order_model(z, noise)
        theta = unit_theta(4)
        residuals = []
        for sigma in (1e-3, 1e-4, 1e-5):
            ground = tensor_from_components(z)
            noisy = Tensor3(n=4, data=np.asarray(ground.data) + sigma * e)
            observed, _ = observable_matrices(noisy, theta)
            residuals.append(
                max(
                    np.linalg.norm((m_hat - m) / sigma - w)
                    for m_hat, m, w in zip(observed.matrices, m_list, w_list)
                )
            )
        # first-order expansion: the residual decays linearly with sigma
        assert residuals[1] <= 0.2 * residuals[0]
        assert residuals[2] <= 0.2 * residuals[1]

    def test_norms_within_stated_bounds(self):
        for seed in range(5):
            z = gen_components(4, seed=seed)
            noise = gen_tensor(np.zeros((4, 4)), 0.0, 1.0, seed=seed)
            m_list, w_list, m_bound, w_bound = first_order_model(z, noise)
            assert max(np.linalg.norm(m, 2) for m in m_list) <= m_bound
            assert max(np.linalg.norm(w, 2) for w in w_list) <= w_bound

    def test_singular_components_rejected(self):
        z = np.ones((3, 3))
        with pytest.raises(SingularZ):
            first_order_model(z, Tensor3(n=3, data=np.zeros(27)))

    def test_zero_column_sum_rejected(self):
        z = np.array([[1.0, 1.0], [-1.0, 2.0]])
        with pytest.raises(ZeroColumnSum):
            first_order_model(z, Tensor3(n=2, data=np.zeros(8)))


def exact_pipeline(z):
    """Noiseless slices -> triangularizer -> ratio matrix for square Z."""
    d = z.shape[0]
    t = tensor_from_components(z)
    mset, _ = observable_matrices(t, unit_theta(d))
    _, u = find_separating_beta(mset)
    return t, mset, u


class TestEstimateComponents:
    def test_exact_recovery_up_to_column_order(self):
        z = gen_components(4, seed=10)
        _, mset, u = exact_pipeline(z)
        y = estimate_components(u, mset)
        reference = z / z.sum(axis=0)
        matched, _ = match_columns(y, reference)
        assert np.allclose(matched, reference, atol=1e-9)

    def test_columns_sum_to_one(self):
        z = gen_components(3, seed=11)
        _, mset, u = exact_pipeline(z)
        y = estimate_components(u, mset)
        assert np.allclose(y.sum(axis=0), 1.0, atol=1e-10)

    def test_one_dimensional_case(self):
        z = np.array([[2.0]])
        t = tensor_from_components(z)
        mset, _ = observable_matrices(t, np.array([1.0]))
        y = estimate_components(np.eye(1), mset)
        assert np.allclose(y, [[1.0]])


class TestRecoverScales:
    def test_identity_fixed_point(self):
        z_star = recover_scales(np.eye(3), np.eye(3))
        assert np.allclose(z_star, np.eye(3), atol=1e-12)

    def test_negative_cube_root_is_odd(self):
        z_star = recover_scales(np.diag([-8.0, 1.0]), np.eye(2))
        assert np.allclose(np.diag(z_star), [-2.0, 1.0])

    def test_column_scaling_recovered(self):
        z = gen_components(4, seed=12)
        scaled = z.copy()
        scaled[:, 2] *= 1.7
        for target in (z, scaled):
            t, mset, u = exact_pipeline(target)
            theta = unit_theta(4)
            y = estimate_components(u, mset)
            weights = np.sqrt(4) * theta
            pencil = sum(w * m for w, m in zip(weights, t.as_cube()))
            z_star = recover_scales(pencil, y)
            matched, _ = match_columns(z_star, target)
            assert np.allclose(matched, target, atol=1e-8)


def zero_noise(n):
    return Tensor3(n=n, data=np.zeros(n**3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: observable_matrices(zero_noise(2), [np.nan, 1.0]),
        lambda: observable_matrices(zero_noise(2), [np.inf, 1.0]),
        lambda: recover_scales(np.eye(2), [[1.0, np.nan], [0.0, 1.0]]),
        lambda: recover_scales([[np.inf, 0.0], [0.0, 1.0]], np.eye(2)),
        lambda: recover_scales(np.eye(3), np.eye(2)),
        lambda: recover_scales(np.ones(2), np.eye(2)),
        lambda: recover_scales(np.eye(2), np.ones((2, 3))),
    ],
    ids=[
        "observable_nan_theta", "observable_inf_theta",
        "recover_nan_y", "recover_inf_pencil", "recover_pencil_of_another_size",
        "recover_vector_pencil", "recover_rectangular_y",
    ],
)
def test_malformed_theta_y_or_pencil_is_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call()


class TestComponentErrorBound:
    def test_zero_noise_gives_zero(self):
        z = gen_components(3, seed=13)
        assert component_error_bound(z, 1.0, 0.0) == 0.0

    def test_constants_match_first_order_norm_bounds(self):
        z = gen_components(4, seed=14)
        eps = 1.0
        rng = np.random.default_rng(14)
        e = rng.standard_normal(64)
        noise = Tensor3(n=4, data=eps * e / np.linalg.norm(e))
        _, _, m_bound, w_bound = first_order_model(z, noise)
        d = 4
        kappa = np.linalg.cond(z)
        gamma = component_gamma(z)
        expected = (
            4.0 * d * 1e-4 * np.sqrt(d * (d - 1)) * kappa**4 / gamma
            * m_bound**2 * w_bound
            + 1e-4 * w_bound
        )
        assert np.isclose(component_error_bound(z, eps, 1e-4), expected)

    @given(st.integers(2, 12), st.floats(1.0, 1e4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_one_svd_equals_two_svd_oracle(self, d, kappa, seed):
        z = gen_components(d, kappa_target=kappa, seed=seed)
        for eps, sigma in ((1.0, 1e-4), (0.3, 1e-2)):
            expected = outcome(component_error_bound_two_svds, z, eps, sigma)
            assert outcome(component_error_bound, z, eps, sigma) == expected

    @pytest.mark.parametrize("s_min", [0.0, 1e-17, 4.4e-16, 4.5e-16, 1e-15, 1e-3])
    def test_rank_test_is_matrix_rank(self, s_min):
        """Around matrix_rank's tolerance s_max d eps (4.44e-16 here) both
        forms agree: SingularZ at or below it, a bound above it."""
        z = np.diag([1.0, s_min])
        expected = outcome(component_error_bound_two_svds, z, 1.0, 1e-4)
        assert outcome(component_error_bound, z, 1.0, 1e-4) == expected
        assert (expected == "SingularZ") == (s_min < 4.45e-16)

    def test_identical_columns_are_rejected(self):
        # a repeated column collapses the gap and the rank together
        z = np.column_stack([np.ones(3), np.ones(3), [1.0, 2.0, 3.0]])
        with pytest.raises((DegenerateSpectrum, SingularZ)):
            component_error_bound(z, 1.0, 1e-4)

    def test_gap_alone_vanishing_is_degenerate(self):
        z = gen_components(3, seed=16)
        assert component_gamma(z) > 0
        near = z.copy()
        near[:, 1] = near[:, 0]
        with pytest.raises((DegenerateSpectrum, SingularZ)):
            component_error_bound(near, 1.0, 1e-4)

    @pytest.mark.parametrize(
        "z",
        [
            [1.0, 2.0, 3.0],
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
            np.eye(3)[None],
            [[1.0, 2.0], [3.0]],
            [[1.0, np.nan], [3.0, 4.0]],
            [[1.0, 2.0], [np.inf, 4.0]],
        ],
        ids=["vector", "rectangular", "three_axes", "ragged", "nan", "inf"],
    )
    def test_z_that_is_not_a_finite_square_array_is_a_dimension_mismatch(self, z):
        with pytest.raises(DimensionMismatch):
            component_error_bound(z, 1.0, 1e-4)
        with pytest.raises(DimensionMismatch):
            first_order_model(z, zero_noise(2))
        with pytest.raises(DimensionMismatch):
            verify_component_bound(z, 1e-4, 1.0, trials=1)


def assert_bottleneck_optimal(est, ref, matched, perm):
    """perm permutes est's columns to the least bottleneck error over all d!
    permutations, and is the only such permutation when the optimum is
    unique; returns whether it is."""
    d = est.shape[1]
    errors = {p: np.max(np.abs(est[:, p] - ref)) for p in itertools.permutations(range(d))}
    best = min(errors.values())
    optima = [p for p, err in errors.items() if err == best]
    assert sorted(perm) == list(range(d))
    assert np.array_equal(matched, est[:, perm])
    assert np.max(np.abs(matched - ref)) == best
    if len(optima) == 1:
        assert perm == optima[0]
    return len(optima) == 1


class TestMatchColumns:
    def test_identity_permutation(self):
        a = np.arange(6.0).reshape(3, 2)
        matched, perm = match_columns(a, a)
        assert perm == (0, 1)
        assert np.array_equal(matched, a)

    def test_recovers_a_shuffle(self):
        rng = np.random.default_rng(15)
        ref = rng.standard_normal((4, 4))
        shuffled = ref[:, [2, 0, 3, 1]]
        matched, _ = match_columns(shuffled, ref)
        assert np.array_equal(matched, ref)

    def test_recovers_a_shuffle_above_eight_columns(self):
        rng = np.random.default_rng(15)
        ref = rng.standard_normal((12, 12))
        shuffled = ref[:, rng.permutation(12)]
        matched, _ = match_columns(shuffled, ref)
        assert np.array_equal(matched, ref)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_loop(self, d, n, seed, small_integers):
        # small integers force ties; otherwise a noisy shuffle of the reference
        rng = np.random.default_rng(seed)
        if small_integers:
            ref = rng.integers(-2, 3, (n, d)).astype(float)
            est = rng.integers(-2, 3, (n, d)).astype(float)
        else:
            ref = rng.standard_normal((n, d))
            est = ref[:, rng.permutation(d)] + 1e-3 * rng.standard_normal((n, d))
        assert_bottleneck_optimal(est, ref, *match_columns(est, ref))

    def test_certified_argmin_and_search_match_brute_force(self):
        """Both paths return an optimal permutation, the only one when the
        optimum is unique; the search runs only when the argmin is not
        certified, as with duplicate reference columns or noise near the
        column gap."""
        search = tn._bottleneck_search
        paths = collections.Counter()

        @given(
            st.sampled_from(["shuffle", "ties", "duplicates", "noisy"]),
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=8),
            st.integers(0, 2**32 - 1),
        )
        @settings(max_examples=200, deadline=None)
        def check(kind, d, n, seed):
            rng = np.random.default_rng(seed)
            if kind == "ties":
                ref = rng.integers(-2, 3, (n, d)).astype(float)
                est = rng.integers(-2, 3, (n, d)).astype(float)
            else:
                ref = rng.standard_normal((n, d))
                if kind == "duplicates":
                    ref[:, -1] = ref[:, 0]
                noise = 1.0 if kind == "noisy" else 1e-3
                est = ref[:, rng.permutation(d)] + noise * rng.standard_normal((n, d))
            with mock.patch.object(tn, "_bottleneck_search", wraps=search) as fallback:
                matched, perm = match_columns(est, ref)
            path = "search" if fallback.called else "certified"
            paths[path] += 1
            paths[path, "unique"] += assert_bottleneck_optimal(est, ref, matched, perm)
            if kind == "duplicates" and d > 1:
                assert fallback.called

        check()
        assert paths["certified"] > 0 and paths["search"] > paths["search", "unique"] > 0

    @pytest.mark.parametrize(
        "est, ref",
        [
            (np.ones((4, 3)), np.ones((4, 2))),
            (np.ones((4, 1)), np.ones((4, 3))),
            (np.ones(3), np.ones(3)),
            (np.ones((4, 0)), np.ones((4, 0))),
            (np.full((2, 2), np.nan), np.ones((2, 2))),
        ],
    )
    def test_rejects_mismatched_or_non_finite_input(self, est, ref):
        with pytest.raises(DimensionMismatch):
            match_columns(est, ref)
