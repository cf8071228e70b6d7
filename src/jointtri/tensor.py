"""Canonical tensor decomposition via joint triangularization.

Slices of a (noisy) symmetric third-order tensor of dimension N and rank
d = N are turned into nearly jointly diagonalizable observable matrices;
the triangularizer's diagonal recovers the component ratios, and the
pencil equation recovers the column scales.  Includes the first-order
noise expansion of the observable matrices and the component estimation
error bound.  Each stage factors its matrix once: one LU of the weighted
slice sum serves every slice, one SVD of Z gives the rank test and
condition number of the bound and of the first-order model, and the
column matching takes the certified argmin (linalg.assign_columns, as
harness.nearest_exact_frame does) before any bipartite-matching search.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    RankDeficient,
    SingularY,
    SingularZ,
    ZeroColumnSum,
)
from .linalg import assign_columns, blockwise_norm, min_pairwise_gap
from .triangularize import MatrixSet, rotated

RANK_REL_TOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Tensor3:
    """Cubic third-order tensor, flat index (n, n', n'') = n*N^2 + n'*N + n''."""

    n: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).ravel()
        if self.n < 1 or data.size != self.n**3:
            raise DimensionMismatch("data length must be N^3")
        if not np.all(np.isfinite(data)):
            raise DimensionMismatch("tensor entries must be finite")
        object.__setattr__(self, "data", data)

    def as_cube(self):
        return self.data.reshape((self.n, self.n, self.n))


def tensor_from_components(z):
    """Ground tensor sum_i z_i (x) z_i (x) z_i from an N x d component matrix."""
    z = np.asarray(z, dtype=float)
    cube = np.einsum("ni,mi,ki->nmk", z, z, z)
    return Tensor3(n=z.shape[0], data=cube.ravel())


def observable_matrices(t, theta):
    """Observable matrices of a tensor whose rank d equals its dimension N.

    With weights w = sqrt(N) * theta (so the unit-norm ones-direction
    reproduces plain unweighted sums), the weighted slice sum is
    m_w = sum_n w_n m_n and the matrices are M_n = m_n m_w^{-1}, so
    sum_n w_n M_n = I by construction.  All N solves X m_w = m_n share one
    LU factorization of m_w (one solve with every slice as right-hand
    sides, which gives each M_n the bits of its own solve), and no inverse
    is formed.  A slice whose residual ||M_n m_w - m_n|| exceeds
    SOLVE_RESIDUAL_TOL max(||m_n||, 1) raises RankDeficient.  Returns
    (MatrixSet, m_w); m_w is the pencil that recover_scales takes.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (t.n,) or not np.all(np.isfinite(theta)):
        raise DimensionMismatch("theta must be finite, of the tensor dimension N")
    cube = t.as_cube()
    n = t.n
    pencil = sum(w * m for w, m in zip(np.sqrt(n) * theta, cube))
    s = np.linalg.svd(pencil, compute_uv=False)
    if s[-1] <= RANK_REL_TOL * s[0]:
        raise RankDeficient("weighted slice sum is rank deficient")
    # column block n of the right-hand side is m_n^T, and of the solution M_n^T
    solution = np.linalg.solve(pencil.T, cube.transpose(2, 0, 1).reshape(n, n * n))
    observed = solution.reshape(n, n, n).transpose(1, 2, 0)
    residual = blockwise_norm(observed @ pencil - cube)
    if np.any(residual > SOLVE_RESIDUAL_TOL * np.maximum(blockwise_norm(cube), 1.0)):
        raise RankDeficient("pencil solve residual above tolerance")
    return MatrixSet(observed), pencil


def first_order_model(z, noise):
    """Noise-free observable matrices and their first-order noise terms.

    For square invertible Z with nonzero column sums (theta = ones):
    M_n = Z diag(e_n^T Z) diag(1^T Z)^{-1} Z^{-1} and
    W_n = e_n m^{-1} - m_n m^{-1} e m^{-1}, the minus sign fixed by the
    finite-difference oracle on (m_n + sigma e_n)(m + sigma e)^{-1}.
    Returns (M list, W list, per-matrix M bound, per-matrix W bound).
    """
    z, s = _singular_values(z)
    d = len(z)
    eps = float(np.linalg.norm(noise.data))
    m_bound, w_bound = _observable_bounds(z, s[0] / s[-1], eps)
    if noise.n != d:
        raise DimensionMismatch("noise tensor dimension must match Z")
    m_slices = [z @ np.diag(z[n]) @ z.T for n in range(d)]
    m = z @ np.diag(z.sum(axis=0)) @ z.T
    m_inv = np.linalg.inv(m)
    e_slices = noise.as_cube()
    e_sum = sum(e_slices)
    m_list, w_list = [], []
    for n in range(d):
        m_list.append(m_slices[n] @ m_inv)
        w_list.append(e_slices[n] @ m_inv - m_slices[n] @ m_inv @ e_sum @ m_inv)
    return m_list, w_list, float(m_bound), float(w_bound)


def _finite_square(a, message):
    """a as a finite square float array; DimensionMismatch(message) for
    anything else, ragged input included."""
    try:
        a = np.asarray(a, dtype=float)
    except ValueError as exc:  # ragged input
        raise DimensionMismatch(message) from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise DimensionMismatch(message)
    return a


def _singular_values(z):
    """Z as a finite N x N array and its singular values s.  The one SVD gives
    both the rank test (np.linalg.matrix_rank's tolerance; SingularZ below
    it) and kappa(Z) = s[0] / s[-1] (np.linalg.cond's value)."""
    z = _finite_square(z, "Z must be a finite N x N array")
    s = np.linalg.svd(z, compute_uv=False)
    if np.count_nonzero(s > s.max(initial=0.0) * (len(z) * np.finfo(float).eps)) < len(z):
        raise SingularZ("Z is singular")
    return z, s


def _observable_bounds(z, kappa, eps):
    """(M, W) for a square Z of condition number kappa and a noise tensor of
    norm eps: M bounds each noise-free observable matrix and W each
    first-order noise term, M = d kappa^2 max|Z| / m and
    W = eps sqrt(d) kappa^2 (1 + M) / (||Z||^2 m) with m = min |1^T Z|.
    Raises ZeroColumnSum when m = 0."""
    d = len(z)
    min_col = float(np.min(np.abs(z.sum(axis=0))))
    if min_col == 0.0:
        raise ZeroColumnSum("a column of Z sums to zero")
    m_bound = d * kappa**2 * np.max(np.abs(z)) / min_col
    w_bound = (
        eps * np.sqrt(d) * kappa**2 / (np.linalg.norm(z) ** 2 * min_col) * (1.0 + m_bound)
    )
    return m_bound, w_bound


def estimate_components(u, mset):
    """Ratio matrix Y with Y_ni = [U^T M_n U]_ii (components over column
    sums), per trial of a batch of sets."""
    return np.diagonal(rotated(u, mset), axis1=-2, axis2=-1).copy()


def recover_scales(m_theta_hat, y):
    """Column scales from the weighted-pencil equation; returns Z*.

    s_i is the real cube root of [Y^{-1} m_theta Y^{-T}]_ii and
    Z* = Y diag(s).  m_theta_hat must be the weighted slice sum m_w that
    observable_matrices returns.
    """
    y = _finite_square(y, "scale recovery requires a finite square ratio matrix")
    m_theta_hat = _finite_square(m_theta_hat, "the pencil must be finite and square")
    if m_theta_hat.shape != y.shape:
        raise DimensionMismatch("the pencil must have the ratio matrix's shape")
    if np.linalg.matrix_rank(y) < len(y):
        raise SingularY("ratio matrix Y is singular")
    core = np.linalg.solve(y, np.linalg.solve(y, m_theta_hat.T).T)
    s = np.cbrt(np.diag(core))
    return y * s


def component_gamma(z):
    """gamma = (1/N) min over pairs of sum_n (Z_ni - Z_ni')^2."""
    z = np.asarray(z, dtype=float)
    n, d = z.shape
    if d < 2:
        raise DegenerateSpectrum("component eigengap undefined for d = 1")
    return min_pairwise_gap(z) / n


def component_error_bound(z, eps, sigma):
    """Entrywise first-order bound on the component ratio estimation error.

    4 N sigma sqrt(d(d-1)) kappa(Z)^4 / gamma * M^2 W + sigma W, with M, W
    the observable-matrix norm bounds and gamma the scaled component gap.
    """
    z, s = _singular_values(z)
    n, d = z.shape
    gamma = component_gamma(z)
    if gamma <= 0.0:
        raise DegenerateSpectrum("two identical component columns: gamma = 0")
    kappa = s[0] / s[-1]
    m_const, w_const = _observable_bounds(z, kappa, eps)
    bound = (
        4.0 * n * sigma * np.sqrt(d * (d - 1)) * kappa**4 / gamma
        * m_const**2 * w_const
        + sigma * w_const
    )
    return float(bound)


def _bottleneck_search(cost):
    """A permutation of least bottleneck cost; perm[j] is the row assigned to
    column j.  A binary search finds the least cost level whose graph
    cost <= level has a perfect matching (SciPy's Hopcroft-Karp), and that
    matching is the permutation."""
    from scipy.sparse import csr_array  # only this rare fallback loads scipy.sparse
    from scipy.sparse.csgraph import maximum_bipartite_matching

    def matching(level):
        return maximum_bipartite_matching(csr_array(cost <= level), perm_type="row")

    levels = np.unique(cost)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if matching(levels[mid]).min() >= 0:
            hi = mid
        else:
            lo = mid + 1
    return tuple(matching(levels[lo]).tolist())


def match_columns(estimated, reference):
    """Permute estimated columns to best match reference (bottleneck assignment).

    Minimizes the entrywise error max |estimated[:, perm] - reference| over
    all column permutations, with no size cap; among several minimizers
    any one may be returned.  cost[i, j] is the error of putting
    estimated column i at position j.  When each reference column's
    nearest estimated column is a permutation with every cost below half
    the least max-norm gap g between two reference columns
    (linalg.assign_columns), that permutation is the unique optimum: any
    other one puts some estimated column more than g/2 from its reference
    column.  Otherwise, as with duplicate reference columns (g = 0), a
    binary search over the cost levels with SciPy's bipartite matching
    finds an optimum.  Returns (permuted estimate, permutation tuple).
    """
    estimated = np.asarray(estimated, dtype=float)
    reference = np.asarray(reference, dtype=float)
    shape = estimated.shape
    if len(shape) != 2 or shape != reference.shape or estimated.size == 0:
        raise DimensionMismatch("need two non-empty n x d arrays of the same shape")
    if not (np.all(np.isfinite(estimated)) and np.all(np.isfinite(reference))):
        raise DimensionMismatch("columns to match must be finite")
    cost = np.max(np.abs(estimated[:, :, None] - reference[:, None, :]), axis=0)
    gap = np.max(np.abs(reference[:, :, None] - reference[:, None, :]), axis=0)
    np.fill_diagonal(gap, np.inf)
    # 1 - 2 eps absorbs the rounding of the computed differences, so the
    # certificate holds for the cost the search would minimize
    radius = 0.5 * gap.min() * (1.0 - 2.0 * np.finfo(float).eps)
    perm, certified = assign_columns(cost.T, radius)
    perm = tuple(perm.tolist()) if certified else _bottleneck_search(cost)
    return estimated[:, perm], perm
