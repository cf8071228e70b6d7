"""Perturbation-bound quantities for approximate joint triangularizers.

Covers the commutator operator on the strictly-lower index pairs, one
operator per use, Gram accumulated per matrix; the a priori bound and its
explicit eigengap form, the first-order direction prediction, the a
posteriori bound from observable quantities, the certified-initialization
noise threshold with its Hessian-positivity constants, and the
joint-eigenvalue error bound.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NonUnitBeta,
    SingularOperator,
)
from .linalg import lower_index, matrix_metrics, min_pairwise_gap, skew_from_lower, vec
from .triangularize import MatrixSet, loss, rotated

SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class GroundTruthModel:
    """Generative model: M_n = V diag(lambda row n) V^{-1} plus sigma W_n."""

    v: np.ndarray
    lambda_table: np.ndarray
    noise: tuple
    sigma: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        lam = np.asarray(self.lambda_table, dtype=float)
        noise = tuple(np.asarray(w, dtype=float) for w in self.noise)
        d = v.shape[0]
        if v.shape != (d, d):
            raise DimensionMismatch("V must be square")
        if lam.ndim != 2 or lam.shape[1] != d:
            raise DimensionMismatch("lambda table must be N x d")
        if len(noise) != lam.shape[0]:
            raise DimensionMismatch("need one noise matrix per lambda row")
        for w in noise:
            if w.shape != (d, d):
                raise DimensionMismatch("noise matrices must be d x d")
            if np.linalg.norm(w) > 1.0 + 1e-12:
                raise DimensionMismatch("noise matrices must have Frobenius norm <= 1")
        if not np.isfinite(np.linalg.cond(v)):
            raise DimensionMismatch("V must be invertible")
        if self.sigma < 0:
            raise DimensionMismatch("sigma must be nonnegative")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lambda_table", lam)
        object.__setattr__(self, "noise", noise)

    @property
    def d(self):
        return self.v.shape[0]

    @property
    def n(self):
        return self.lambda_table.shape[0]

    def clean_matrices(self):
        """The commuting ground-truth matrices as a MatrixSet."""
        v_inv = np.linalg.inv(self.v)
        mats = tuple(
            self.v @ np.diag(self.lambda_table[n]) @ v_inv for n in range(self.n)
        )
        return MatrixSet(mats)

    def observed_matrices(self, sigma=None):
        """Noisy observations M_n + sigma W_n (sigma overridable)."""
        s = self.sigma if sigma is None else sigma
        clean = self.clean_matrices()
        return MatrixSet(
            tuple(m + s * w for m, w in zip(clean.matrices, self.noise))
        )

    def with_noise(self, noise, sigma):
        """Same eigenstructure with replacement noise matrices and level."""
        return GroundTruthModel(
            v=self.v, lambda_table=self.lambda_table, noise=tuple(noise), sigma=sigma
        )

    def eigengap(self):
        """gamma = min over pairs i < i' of sum_n (lambda_ni - lambda_ni')^2."""
        if self.d < 2:
            raise DegenerateSpectrum("eigengap undefined for d = 1")
        return min_pairwise_gap(self.lambda_table)

    def norms(self):
        """(sqrt(sum ||M_n||^2), sqrt(sum ||W_n||^2))."""
        clean = self.clean_matrices()
        m_norm = np.sqrt(sum(np.linalg.norm(m) ** 2 for m in clean.matrices))
        w_norm = np.sqrt(sum(np.linalg.norm(w) ** 2 for w in self.noise))
        return float(m_norm), float(w_norm)


@lru_cache(maxsize=None)
def _operator_index(d):
    """Index arrays with T~[p1, q1] = A[k1, i1], then T~[p2, q2] -= A[j2, l2]."""
    rows, cols = lower_index(d)
    p1, q1 = np.nonzero(cols[:, None] == cols[None, :])
    p2, q2 = np.nonzero(rows[:, None] == rows[None, :])
    return p1, q1, rows[q1], rows[p1], p2, q2, cols[p2], cols[q2]


def _commutator_operator(a):
    """P_low (1 (x) A^T - A (x) 1) P_low^T for one rotated matrix A.

    Entry ((i, j), (k, l)) over the lower index pairs is
    A[k, i] [j = l] - [i = k] A[j, l], written only where a bracket is 1.
    """
    d = a.shape[0]
    p1, q1, k1, i1, p2, q2, j2, l2 = _operator_index(d)
    size = d * (d - 1) // 2
    t = np.zeros((size, size))
    t[p1, q1] = a[k1, i1]
    t[p2, q2] -= a[j2, l2]
    return t


def _t_tilde_each(u, mset):
    """The operators T~_n at the frame U, one at a time (O(L^2) memory)."""
    for a in rotated(u, mset):
        yield _commutator_operator(a)


def t_tilde_gram(u, mset):
    """The symmetrized Gram sum_n T~_n^T T~_n, accumulated one matrix at a time."""
    gram = sum(t.T @ t for t in _t_tilde_each(u, mset))
    return 0.5 * (gram + gram.T)


def t_beta(u, mset, beta):
    """T_beta = sum_n beta_n T~_n at the frame U.

    T~ is linear in the rotated matrix, so T_beta is the one operator of
    U^T (sum_n beta_n M_n) U.  A wrong-length beta raises DimensionMismatch.
    """
    (a,) = rotated(u, MatrixSet((mset.combine(beta),)))
    return _commutator_operator(a)


def inverse_spectral_norm(op):
    """1 / sigma_min(op); raises SingularOperator when numerically singular.

    The empty operator (the map on the zero space, d = 1) has an inverse
    of norm 0.
    """
    op = np.asarray(op, dtype=float)
    if op.size == 0:
        return 0.0
    s = np.linalg.svd(op, compute_uv=False)
    if s[-1] < SINGULAR_REL_TOL * max(s[0], 1e-300):
        raise SingularOperator("operator is numerically singular")
    return float(1.0 / s[-1])


def _check_exact_triangularizer(u_circ, clean):
    if loss(u_circ, clean) > 1e-8:
        raise DimensionMismatch(
            "frame does not triangularize the noiseless matrices"
        )


def a_priori_bound(gt, u_circ):
    """First-order a priori bound on the triangularizer perturbation.

    2 sqrt(2) sigma ||T~^{-1}||_2 sqrt(sum ||M_n||^2) sqrt(sum ||W_n||^2),
    with T~ assembled from the noiseless matrices at the exact frame.
    """
    clean = gt.clean_matrices()
    _check_exact_triangularizer(u_circ, clean)
    inv_norm = inverse_spectral_norm(t_tilde_gram(u_circ, clean))
    m_norm, w_norm = gt.norms()
    return 2.0 * np.sqrt(2.0) * gt.sigma * inv_norm * m_norm * w_norm


def explicit_bound(gt):
    """Eigengap form of the a priori bound; returns (bound, gamma).

    2 sigma sqrt(d(d-1)) kappa(V)^4 / gamma
    times sqrt(sum ||M_n||^2) sqrt(sum ||W_n||^2).
    """
    gamma = gt.eigengap()
    if gamma <= 0.0:
        raise DegenerateSpectrum("two identical eigenvalue columns: gamma = 0")
    d = gt.d
    _, _, kappa = matrix_metrics(gt.v)
    m_norm, w_norm = gt.norms()
    bound = (
        2.0 * gt.sigma * np.sqrt(d * (d - 1)) * kappa**4 / gamma * m_norm * w_norm
    )
    return float(bound), gamma


def predicted_direction(gt, u_circ):
    """First-order prediction of the perturbation alpha*X (a skew matrix).

    Solves the linearized stationarity equation on the strictly-lower
    subspace: x = -sigma (sum t_n t_n^T)^{-1} sum_n t_n P_low
    vec(U0^T W_n U0), where P_low vec(B) is B at the lower index pairs;
    the skew matrix is E - E^T with E the strictly-lower embedding of x.
    The operator ordering is pinned by the finite-difference sweep oracle
    (residual is O(sigma^2)).
    """
    clean = gt.clean_matrices()
    _check_exact_triangularizer(u_circ, clean)
    rows, cols = lower_index(gt.d)
    system = np.zeros((rows.size, rows.size))
    rhs = np.zeros(rows.size)
    for t_n, w in zip(_t_tilde_each(u_circ, clean), gt.noise):
        system += t_n @ t_n.T
        rhs += t_n @ (u_circ.T @ w @ u_circ)[rows, cols]
    inverse_spectral_norm(system)  # singularity guard
    return skew_from_lower(-gt.sigma * np.linalg.solve(system, rhs), gt.d)


def a_posteriori_bound(mset, u, beta, sigma):
    """Bound on alpha from observable quantities plus sigma.

    sqrt(2) ||T_beta^{-1}||_2 (sqrt(loss(U)) + sigma sqrt(N)) for unit beta.
    """
    beta = np.asarray(beta, dtype=float)
    if not abs(np.linalg.norm(beta) - 1.0) <= 1e-12:
        raise NonUnitBeta("beta must have unit Euclidean norm")
    inv_norm = inverse_spectral_norm(t_beta(u, mset, beta))
    return float(
        np.sqrt(2.0) * inv_norm * (np.sqrt(loss(u, mset)) + sigma * np.sqrt(mset.n))
    )


def hessian_constants(gt):
    """(epsilon, gamma, a_alpha, a_sigma) controlling Hessian positivity.

    epsilon = gamma / (2 kappa(V)^4), a_alpha = 32 sum ||M_n||^2,
    a_sigma = 16 sqrt(N) sqrt(sum ||M_n||^2).
    """
    gamma = gt.eigengap()
    if gamma <= 0.0:
        raise DegenerateSpectrum("gamma = 0; Hessian positivity constants undefined")
    _, _, kappa = matrix_metrics(gt.v)
    epsilon = gamma / (2.0 * kappa**4)
    m_norm, _ = gt.norms()
    a_alpha = 32.0 * m_norm**2
    a_sigma = 16.0 * np.sqrt(gt.n) * m_norm
    return float(epsilon), float(gamma), float(a_alpha), float(a_sigma)


def init_noise_threshold(gt, beta, u_init):
    """Certified-initialization noise threshold and basin radius.

    sigma_max = 2 eps / (sqrt(2N) ||T_beta^{-1}||_2 a_alpha + a_sigma);
    alpha_max = (2 eps - sigma a_sigma) / a_alpha.  T_beta is built from
    the observed matrices at the Schur initializer.
    """
    epsilon, gamma, a_alpha, a_sigma = hessian_constants(gt)
    inv_norm = inverse_spectral_norm(t_beta(u_init, gt.observed_matrices(), beta))
    sigma_max = 2.0 * epsilon / (np.sqrt(2.0 * gt.n) * inv_norm * a_alpha + a_sigma)
    alpha_max = (2.0 * epsilon - gt.sigma * a_sigma) / a_alpha
    constants = {
        "epsilon": epsilon,
        "gamma": gamma,
        "a_alpha": a_alpha,
        "a_sigma": a_sigma,
        "t_beta_inv_norm": inv_norm,
    }
    return float(sigma_max), float(alpha_max), constants


def eigenvalue_error_bound(alpha, sigma, m_norm, w_norm):
    """Per-matrix joint-eigenvalue error: 2 alpha ||M_n|| + sigma ||W_n||."""
    if min(alpha, sigma, m_norm, w_norm) < 0:
        raise ValueError("all inputs must be nonnegative")
    return float(2.0 * alpha * m_norm + sigma * w_norm)


@dataclass
class BoundReport:
    """Every computed bound constant plus observed quantities."""

    alpha_apriori: float = np.nan
    alpha_explicit: float = np.nan
    alpha_aposteriori: float = np.nan
    gamma: float = np.nan
    epsilon: float = np.nan
    a_alpha: float = np.nan
    a_sigma: float = np.nan
    alpha_max: float = np.nan
    sigma_max: float = np.nan
    eigenvalue_error: float = np.nan
    observed_alpha: float | None = None
    predicted_direction: np.ndarray | None = None

    def to_dict(self):
        out = {}
        for key in (
            "alpha_apriori",
            "alpha_explicit",
            "alpha_aposteriori",
            "gamma",
            "epsilon",
            "a_alpha",
            "a_sigma",
            "alpha_max",
            "sigma_max",
            "eigenvalue_error",
        ):
            out[key] = float(getattr(self, key))
        if self.observed_alpha is not None:
            out["observed_alpha"] = float(self.observed_alpha)
        if self.predicted_direction is not None:
            out["predicted_direction"] = [
                float(v) for v in vec(self.predicted_direction)
            ]
        return out
