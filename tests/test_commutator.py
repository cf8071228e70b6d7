import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri import commutator
from jointtri.commutator import (
    gauss_newton_diagonal,
    gauss_newton_matrix,
    gauss_newton_product,
)
from jointtri.harness import GeneratorSpec, gen_ground_truth
from jointtri.linalg import low_part, lower_index
from jointtri.triangularize import find_separating_beta, hessian_form, rotated
from oracle import (
    commutator_index_by_masks,
    dense_jacobian,
    gauss_newton_diagonal_gathers,
    gauss_newton_product_skew,
)


def random_skew(rng, d):
    a = rng.standard_normal((d, d))
    return a - a.T


def transposes(a):
    """The C-ordered transposes that gauss_newton_product takes beside a."""
    return np.ascontiguousarray(a.swapaxes(1, 2))


class TestJacobian:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_first_two_terms_are_the_commutator_operator(self, d):
        """T~^T x = low(A E - E A) for strictly-lower E, and at an upper
        triangular A (an exact frame) J = T~^T entry for entry."""
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        x = rng.standard_normal(d * (d - 1) // 2)
        e = np.zeros((d, d))
        e[lower_index(d)] = x
        expected = low_part(a @ e - e @ a)[lower_index(d)]
        assert np.allclose(commutator.operator(a).T @ x, expected, rtol=0, atol=1e-13)
        upper = np.triu(a)
        size = d * (d - 1) // 2
        jac = dense_jacobian(upper[None]).reshape(size, size)  # (0, 0) at d = 1
        assert np.array_equal(jac, commutator.operator(upper).T)


def product_stacks(d):
    """(stack, direction) pairs at dimension d: N of 1, 3 and 8, entries
    at unit, tiny and huge scale, directions at unit scale, zero (both
    signs) and 1e-300, with some zero and negative-zero entries."""
    rng = np.random.default_rng(d)
    size = d * (d - 1) // 2
    for n, scale in [(1, 1.0), (3, 1e-150), (8, 1.0), (8, 1e150)]:
        a = scale * rng.standard_normal((n, d, d))
        x = rng.standard_normal(size)
        x[::3] = 0.0
        x[1::5] = -0.0
        for factor in (1.0, 0.0, -0.0, 1e-300):
            yield a, factor * x


class TestGaussNewtonProduct:
    @pytest.mark.parametrize("d", range(1, 33))
    def test_has_the_bits_of_the_skew_matrix_form(self, d):
        """The scattered X and the pairs of S read in place give the bits of
        X = skew_from_lower(x) and of S - S^T formed whole."""
        for a, x in product_stacks(d):
            expected = gauss_newton_product_skew(a, x)
            assert gauss_newton_product(a, transposes(a), x).tobytes() == expected.tobytes()

    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_jacobian(self, d, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d, d))
        x = rng.standard_normal(d * (d - 1) // 2)
        jac = dense_jacobian(a)
        scale = np.linalg.norm(jac) ** 2 * np.linalg.norm(x)
        assert np.allclose(
            gauss_newton_product(a, transposes(a), x), jac.T @ (jac @ x), rtol=0, atol=1e-13 * scale
        )

    def test_is_half_the_hessian_at_an_exact_triangularizer(self):
        rows, cols = lower_index(5)
        for seed in range(3):
            gt = gen_ground_truth(GeneratorSpec(d=5, n=3, seed=seed))
            clean = gt.clean_matrices()
            u = find_separating_beta(clean)[1]
            rng = np.random.default_rng(seed)
            for _ in range(3):
                x = random_skew(rng, 5)
                v = x[rows, cols]
                a = rotated(u, clean)
                quadratic = 2.0 * v @ gauss_newton_product(a, transposes(a), v)
                assert math.isclose(
                    quadratic, hessian_form(u, clean, x), rel_tol=1e-13
                )


class TestGaussNewtonMatrix:
    @given(st.integers(1, 8), st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_jacobian(self, d, n, seed):
        a = np.random.default_rng(seed).standard_normal((n, d, d))
        h = gauss_newton_matrix(a)
        jac = dense_jacobian(a).reshape(n * len(h), len(h))  # (0, 0) at d = 1
        assert np.array_equal(h, h.T)
        expected = jac.T @ jac
        err = np.linalg.norm(h - expected)
        assert err <= 1e-14 * max(np.linalg.norm(expected), 1.0)

    @pytest.mark.parametrize("d, n", [(1, 2), (2, 3), (5, 4), (8, 3)])
    def test_is_the_commutator_gram_at_an_upper_triangular_stack(self, d, n):
        """At an exact frame J_n = T~_n^T, so J^T J = sum_n T~_n T~_n^T, the
        matrix the a priori bound inverts."""
        a = np.triu(np.random.default_rng(d + n).standard_normal((n, d, d)))
        expected = sum(commutator.operator(m) @ commutator.operator(m).T for m in a)
        h = gauss_newton_matrix(a)
        assert h.shape == (d * (d - 1) // 2,) * 2
        assert np.linalg.norm(h - expected) <= 1e-14 * max(np.linalg.norm(expected), 1.0)

    def test_holds_no_basis_stack(self):
        """Peak memory a few L x L arrays, far below an (N, L, d, d) stack."""
        d, n = 24, 16
        size = d * (d - 1) // 2
        a = np.random.default_rng(0).standard_normal((n, d, d))
        lower_index(d)  # cached index arrays are not working memory
        commutator._plan(d).moments  # built once per d, as the index arrays
        tracemalloc.start()
        try:
            gauss_newton_matrix(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * size**2 * 8 < n * size * d * d * 8 / 3


class TestGaussNewtonDiagonal:
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 16, 32])
    def test_has_the_bits_of_the_gathers(self, d):
        rng = np.random.default_rng(d)
        for n in (1, 2, 3, 8, 9, 64):
            a = rng.standard_normal((n, d, d))
            expected = gauss_newton_diagonal_gathers(a)
            assert gauss_newton_diagonal(a).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_unit_vector_products(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        for a in (rng.standard_normal((n, d, d)), np.triu(rng.standard_normal((n, d, d)))):
            diag = gauss_newton_diagonal(a)
            units = np.eye(d * (d - 1) // 2)
            expected = np.array([e @ gauss_newton_product(a, transposes(a), e) for e in units])
            assert diag.shape == expected.shape
            assert np.allclose(diag, expected, rtol=1e-14, atol=0)
            assert np.allclose(diag, np.sum(dense_jacobian(a) ** 2, axis=0), rtol=1e-14, atol=0)


def dense_commutator_oracle(a):
    """P_low (kron(I, A^T) - kron(A, I)) P_low^T with a dense 0/1 selector."""
    d = a.shape[0]
    p_low = np.zeros((d * (d - 1) // 2, d * d))
    pairs = [(i, j) for j in range(d) for i in range(j + 1, d)]
    for row, (i, j) in enumerate(pairs):
        p_low[row, i + j * d] = 1.0
    op = np.kron(np.eye(d), a.T) - np.kron(a, np.eye(d))
    return p_low @ op @ p_low.T


class TestCommutatorOperator:
    @given(st.integers(min_value=1, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_kron_oracle(self, d, seed):
        a = np.random.default_rng(seed).standard_normal((d, d))
        assert np.array_equal(commutator.operator(a), dense_commutator_oracle(a))

    def test_index_equals_the_mask_scan(self):
        """The two L x d scans give the arrays, order and dtype of the two
        L x L masks scanned by np.nonzero, read-only."""
        for d in range(1, 65):
            index = commutator._plan(d).scatter
            for built, scanned in zip(index, commutator_index_by_masks(d), strict=True):
                assert np.array_equal(built, scanned)
                assert built.dtype == scanned.dtype
                assert not built.flags.writeable
