"""Perturbation-bound quantities for approximate joint triangularizers.

Covers the operator T_beta of the beta-pencil on the strictly-lower index
pairs (commutator.operator of the rotated pencil); the a priori bound and
the first-order direction prediction, both from the descent's
Gauss-Newton matrix J^T J at the exact frame; the explicit eigengap form
of the a priori bound, the a posteriori bound from observable
quantities, the certified-initialization noise threshold with its
Hessian-positivity constants, and the joint-eigenvalue error bound.
t_beta, inverse_spectral_norm and a_posteriori_bound also take a batch of
trials on a leading axis (one SVD call for the whole stack of small
operators).  The last two take the caller's errors.Failures: a trial that
fails leaves the batch, and the values are over the trials still running.

An operator of at least LANCZOS_MIN_SIZE rows is LU-factored once, with
partial pivoting, and ||op^-1|| comes from one Golub-Kahan-Lanczos run on
the triangular solves with the factors; the singularity test scales by
||op||_F >= sigma_max(op).  The T_beta that a_posteriori_bound and
init_noise_threshold build is factored in place; any other operator (a
caller's array, the cached J^T J) is copied first.
"""

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import idamax
from scipy.linalg.lapack import dgetrf, dgetrs, dstemr

from .commutator import adjoint, gauss_newton_matrix, operator
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    Failures,
    NonUnitBeta,
    SingularOperator,
)
from .linalg import (
    blockwise_norm,
    low_part,
    lower_index,
    min_pairwise_gap,
    skew_from_lower,
)
from .triangularize import MatrixSet, loss, rotated

SINGULAR_REL_TOL = 1e-12
# Operators of at least this many rows take the LU + Lanczos path in
# inverse_spectral_norm, smaller ones a dense SVD.  The measured crossover
# is lower (README); moving the switch would change output bits.
LANCZOS_MIN_SIZE = 190
LANCZOS_TOL = 1e-14
_LANCZOS_BLOCK = 32  # the Krylov bases' first allocation, in vectors


@dataclass
class NoiseFree:
    """Noise-free quantities of one eigenstructure, each computed on first use.

    with_noise shares one instance across a study.  ``gauss_newton``
    maps an exact frame's bytes to (J^T J, ||(J^T J)^-1||), with J^T J the
    descent's Gauss-Newton matrix of the clean set at that frame;
    a_priori_bound and predicted_direction share both.
    """

    v: np.ndarray
    lambda_table: np.ndarray
    gauss_newton: dict = field(default_factory=dict)

    @cached_property
    def clean(self):
        v_inv = np.linalg.inv(self.v)
        return MatrixSet((self.v * self.lambda_table[:, None, :]) @ v_inv)

    @cached_property
    def clean_norms(self):
        return tuple(np.linalg.norm(m) for m in self.clean.matrices)

    @cached_property
    def m_norm(self):
        return float(np.sqrt(sum(x**2 for x in self.clean_norms)))

    @cached_property
    def gamma(self):
        return min_pairwise_gap(self.lambda_table)

    @cached_property
    def kappa(self):
        return np.linalg.cond(self.v)


@dataclass(frozen=True)
class GroundTruthModel:
    """Generative model: M_n = V diag(lambda row n) V^{-1} plus sigma W_n,
    the W_n held as one read-only (N, d, d) array."""

    v: np.ndarray
    lambda_table: np.ndarray
    noise: np.ndarray
    sigma: float

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        lam = np.array(self.lambda_table, dtype=float)
        d = v.shape[0]
        if v.shape != (d, d):
            raise DimensionMismatch("V must be square")
        if lam.ndim != 2 or lam.shape[1] != d:
            raise DimensionMismatch("lambda table must be N x d")
        if not np.all(np.isfinite(v)):  # before cond, whose SVD fails on NaN
            raise DimensionMismatch("V must be finite")
        kappa = np.linalg.cond(v)
        if not np.isfinite(kappa):
            raise DimensionMismatch("V must be invertible")
        for a in (v, lam):  # read-only copies keep noise_free valid
            a.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lambda_table", lam)
        object.__setattr__(self, "noise_free", NoiseFree(v, lam))
        self.noise_free.kappa = kappa  # seeds the cached property: one SVD of V
        self._set_noise(self.noise, self.sigma)

    def _set_noise(self, noise, sigma):
        # one (N, d, d) copy; order K keeps each matrix's memory order, so
        # the per-matrix norms keep their bits
        try:
            noise = np.array(noise, dtype=float)
        except ValueError as exc:  # ragged input
            raise DimensionMismatch("noise matrices must be d x d") from exc
        if noise.shape[:1] != (self.n,):
            raise DimensionMismatch("need one noise matrix per lambda row")
        if noise.shape[1:] != (self.d, self.d):
            raise DimensionMismatch("noise matrices must be d x d")
        # ||W_n|| as one dot per matrix in its memory order (column-major from
        # io.load): the bits of np.linalg.norm; w_norm sums them left to right
        in_memory = noise.swapaxes(1, 2) if noise.swapaxes(1, 2).flags.c_contiguous else noise
        norms = blockwise_norm(np.ascontiguousarray(in_memory))
        if not np.all(norms <= 1.0 + 1e-12):  # NaN fails
            raise DimensionMismatch("noise matrices must have Frobenius norm <= 1")
        noise.setflags(write=False)
        if not 0 <= sigma < np.inf:
            raise DimensionMismatch("sigma must be finite and nonnegative")
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "noise_norms", norms)
        object.__setattr__(self, "w_norm", float(np.sqrt(sum(norms**2))))

    @property
    def d(self):
        return self.v.shape[0]

    @property
    def n(self):
        return self.lambda_table.shape[0]

    def clean_matrices(self):
        """The commuting ground-truth matrices as a MatrixSet."""
        return self.noise_free.clean

    def observed_matrices(self, sigma=None):
        """Noisy observations M_n + sigma W_n (sigma overridable)."""
        s = self.sigma if sigma is None else sigma
        return MatrixSet(self.clean_matrices().matrices + s * self.noise)

    def with_noise(self, noise, sigma):
        """Same eigenstructure (and noise-free cache), new noise and level.

        V and the lambda table were checked when this model was made; only
        the new noise and sigma are.
        """
        child = copy.copy(self)
        child._set_noise(noise, sigma)
        return child

    def eigengap(self):
        """gamma = min over pairs i < i' of sum_n (lambda_ni - lambda_ni')^2."""
        if self.d < 2:
            raise DegenerateSpectrum("eigengap undefined for d = 1")
        return self.noise_free.gamma

    def norms(self):
        """(sqrt(sum ||M_n||^2), sqrt(sum ||W_n||^2)); the second is set with the noise."""
        return self.noise_free.m_norm, self.w_norm


def t_beta(u, mset, beta):
    """T_beta = sum_n beta_n T~_n at the frame U (per trial of a batch of
    sets, with one frame and one beta per trial).

    T~ is linear in the rotated matrix, so T_beta is the one operator of
    U^T (sum_n beta_n M_n) U.  A wrong-length beta raises DimensionMismatch.
    """
    pencil = mset.combine(beta)
    return operator(rotated(u, MatrixSet(pencil[..., None, :, :]))[..., 0, :, :])


def _top_singular(alphas, betas):
    """(s_max, |u_k|) of the k x k upper bidiagonal with diagonal alphas
    and superdiagonal betas: its largest singular value and the last entry
    of the matching left singular vector.

    Both come from the largest eigenpair of the 2k x 2k Golub-Kahan
    tridiagonal, zero diagonal and off-diagonals alpha_1, beta_1, alpha_2,
    ..., alpha_k, by LAPACK dstemr (MRRR, O(k)); its eigenvector is
    (v_1, u_1, ..., v_k, u_k) / sqrt(2).  On a nonzero info the values
    come from an SVD of the bidiagonal.
    """
    k = len(alphas)
    off = np.zeros(2 * k)  # dstemr reads 2k - 1 entries; the last is its workspace
    off[0::2] = alphas
    off[1:-1:2] = betas
    _, w, z, info = dstemr(np.zeros(2 * k), off, 3, 0.0, 0.0, 2 * k, 2 * k, overwrite_d=1)
    if info == 0:
        return float(w[0]), float(np.sqrt(2.0) * abs(z[-1, 0]))
    left, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
    return float(s[0]), float(abs(left[-1, 0]))


def _largest_singular(apply, apply_t, n, tol):
    """sigma_max of the n x n map x -> apply(x) by Golub-Kahan-Lanczos.

    Full reorthogonalization, a fixed-seed start vector (deterministic
    output), and a stop once the top Ritz triple's residual beta_k |u_k|
    is at most tol * theta, both read off the bidiagonal by _top_singular;
    after n steps the bidiagonal is exact.  The Krylov bases (one vector
    per row) live in arrays that double when full, so each step reads
    views of their first k rows.
    """
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    size = min(n, _LANCZOS_BLOCK)
    us, vs = np.empty((size, n)), np.empty((size, n))
    alphas, betas = np.empty(n), np.empty(n)  # the bidiagonal's two diagonals
    vs[0] = v
    u = apply(v)
    for k in range(1, n + 1):
        if k == size < n:  # step k writes row k of vs
            size = min(2 * size, n)
            us, vs = (np.concatenate((x, np.empty((size - len(x), n)))) for x in (us, vs))
        if k > 1:  # full reorthogonalization, Gram-Schmidt twice
            basis = us[: k - 1]
            u -= basis.T @ (basis @ u)
            u -= basis.T @ (basis @ u)
        alpha = np.linalg.norm(u)
        u /= alpha
        us[k - 1] = u
        alphas[k - 1] = alpha
        w = apply_t(u)
        basis = vs[:k]
        w -= basis.T @ (basis @ w)
        w -= basis.T @ (basis @ w)
        beta = np.linalg.norm(w)
        theta, u_k = _top_singular(alphas[:k], betas[: k - 1])
        if k == n or beta * u_k <= tol * theta:
            return theta
        betas[k - 1] = beta
        v = w / beta
        vs[k] = v
        u = apply(v) - beta * u


def inverse_spectral_norm(op, fail=None, *, _overwrite=False):
    """1 / sigma_min(op); a numerically singular op fails with
    SingularOperator.  op may be a (T, L, L) stack, one operator per trial:
    with ``fail`` (the stack is over its rows) a trial that fails leaves
    it, and the values are over the trials still running.  Without it the
    first failure is raised.  op is never written; only the bounds of this
    module, which build their own T_beta, pass ``_overwrite`` to have it
    factored in place.

    Below LANCZOS_MIN_SIZE rows sigma_min and sigma_max come from a dense
    SVD, one call for the whole stack.  From there on, a copy of each op,
    scaled by its largest entry, is LU-factored, op^T = P L U, and
    ||op^-1|| is the largest singular value of op^-1 = P L^-T U^-T, from
    one Golub-Kahan-Lanczos run whose every step makes two LU solves
    (LAPACK dgetrs, two triangular solves each) and reads its stop test off
    one dstemr eigenpair of the step's bidiagonal; partial pivoting is
    backward stable in practice, so the value errs by O(eps kappa(op)) as
    an SVD's does.  The singularity test takes ||op||_F, an upper bound on
    sigma_max, in place of sigma_max.  The empty operator (the map on the
    zero space, d = 1) has an inverse of norm 0.
    """
    op = np.asarray(op, dtype=float)
    stack = op if op.ndim == 3 else op[None]
    fail = Failures(len(stack)) if fail is None else fail
    if op.size == 0:
        values = np.zeros(len(stack))
    elif stack.shape[-1] < LANCZOS_MIN_SIZE:
        s = np.linalg.svd(stack, compute_uv=False)
        (s,) = fail.drop(
            s[:, -1] < SINGULAR_REL_TOL * np.maximum(s[:, 0], 1e-300),
            SingularOperator("operator is numerically singular"), s,
        )
        values = 1.0 / s[:, -1]
    else:
        values = fail.each(lambda a: _lanczos_inverse_norm(a, _overwrite), stack)
    return values if op.ndim == 3 else float(values[0])


def _lanczos_inverse_norm(op, overwrite):
    """inverse_spectral_norm of one operator of at least LANCZOS_MIN_SIZE
    rows; with ``overwrite`` op (C-ordered, as t_beta builds it) holds the
    LU factors of op^T / max |op_ij| afterwards."""
    size = op.shape[0]
    flat = np.ravel(op, order="K")  # a view of a C- or F-ordered op
    scale = abs(flat[idamax(flat)])  # max |op_ij| in one pass; idamax skips NaN
    if not 0.0 < scale < np.inf:
        raise SingularOperator("operator is numerically singular")
    # a = op / scale, C-ordered, in op itself or in the one copy; now
    # max |a_ij| = 1, so sigma_max(a) >= 1 / sqrt(size)
    a = np.divide(op, scale, out=op if overwrite else None, order="C")
    flat = a.reshape(-1)
    # ||a||_F >= sigma_max(a) stands in for sigma_max in the singularity
    # test; with entries at most 1 the sum of squares lies in [1, size^2]
    # and cannot overflow, so only a NaN entry leaves it non-finite
    fro = np.sqrt(np.vdot(flat, flat))
    if not fro < np.inf:
        raise SingularOperator("operator is numerically singular")
    # a read column-major is op^T: op^T = P L U in place, L unit lower
    lu, piv, info = dgetrf(a.T, overwrite_a=1)
    if info > 0:  # an exactly zero pivot
        raise SingularOperator("operator is numerically singular")
    limit = np.sqrt(size) / SINGULAR_REL_TOL

    def solve(x, trans=0):
        # op^-T x = U^-1 L^-1 P^T x, or with trans op^-1 x = P L^-T U^-T x.
        # |y| > limit for a unit x means sigma_min < SINGULAR_REL_TOL
        # sigma_max; this also catches a tiny pivot and keeps norms finite.
        y = dgetrs(lu, piv, x, trans=trans)[0]
        if not np.abs(y).max() <= limit:
            raise SingularOperator("operator is numerically singular")
        return y

    inv_norm = _largest_singular(solve, lambda x: solve(x, 1), size, LANCZOS_TOL)
    if SINGULAR_REL_TOL * fro * inv_norm > 1.0:
        raise SingularOperator("operator is numerically singular")
    return float(inv_norm / scale)


def _exact_frame_gram(gt, u_circ):
    """(J^T J, ||(J^T J)^-1||) of the noiseless matrices at an exact frame,
    computed once per frame into ``gt.noise_free``; a frame that is not
    d x d or no exact triangularizer raises DimensionMismatch, a singular
    J^T J SingularOperator."""
    cache, clean = gt.noise_free.gauss_newton, gt.noise_free.clean
    u_circ = np.asarray(u_circ, dtype=float)
    if u_circ.shape != (gt.d, gt.d):  # the cache key is the bytes alone
        raise DimensionMismatch("frame dimension does not match matrix set")
    key = u_circ.tobytes()
    if key not in cache:
        # finite first: an inf frame would warn inside the matmul of the loss
        if not (np.all(np.isfinite(u_circ)) and loss(u_circ, clean) <= 1e-8):
            raise DimensionMismatch("frame does not triangularize the noiseless matrices")
        gram = gauss_newton_matrix(rotated(u_circ, clean))
        cache[key] = gram, inverse_spectral_norm(gram)
    return cache[key]


def a_priori_bound(gt, u_circ):
    """First-order a priori bound on the triangularizer perturbation.

    2 sqrt(2) sigma ||(J^T J)^{-1}||_2 sqrt(sum ||M_n||^2) sqrt(sum ||W_n||^2),
    with J^T J the Gauss-Newton matrix of the noiseless matrices at the
    exact frame, cached per frame in ``gt.noise_free``.
    """
    _, inv_norm = _exact_frame_gram(gt, u_circ)
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
    kappa = gt.noise_free.kappa
    m_norm, w_norm = gt.norms()
    bound = (
        2.0 * gt.sigma * np.sqrt(d * (d - 1)) * kappa**4 / gamma * m_norm * w_norm
    )
    return float(bound), gamma


def predicted_direction(gt, u_circ):
    """First-order prediction of the perturbation alpha*X (a skew matrix).

    One exact Gauss-Newton step at the exact frame U0 for the residual
    sigma [low(U0^T W_n U0)]_n: x = -sigma (J^T J)^{-1} J^T w in the
    strictly-lower coordinates, with J the Jacobian of the descent at the
    noiseless matrices and J^T J shared with a_priori_bound; the skew
    matrix is skew_from_lower(x).  The ordering is pinned by the
    finite-difference sweep oracle (residual is O(sigma^2)).
    """
    system, _ = _exact_frame_gram(gt, u_circ)
    a = rotated(u_circ, gt.clean_matrices())
    w = low_part(u_circ.T @ np.stack(gt.noise) @ u_circ)
    rhs = adjoint(a, w)[lower_index(gt.d)]
    return skew_from_lower(-gt.sigma * np.linalg.solve(system, rhs), gt.d)


def a_posteriori_bound(mset, u, beta, sigma, fail=None):
    """Bound on alpha from observable quantities plus sigma.

    sqrt(2) ||T_beta^{-1}||_2 (sqrt(loss(U)) + sigma sqrt(N)) for unit beta.
    For a batch of sets U, beta, sigma and the result carry the trial axis;
    with ``fail`` (the batch is over its rows) a trial that fails leaves
    it, and the bounds are over the trials still running.  Without it the
    first failure is raised.
    """
    batched = mset.matrices.ndim == 4
    beta = np.asarray(beta, dtype=float)
    if not batched:
        mset, u, beta = mset.as_batch(), np.asarray(u)[None], beta[None]
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), len(beta))
    fail = Failures(len(beta)) if fail is None else fail
    mset, u, beta, sigma = fail.drop(
        ~(np.abs(blockwise_norm(beta, 1) - 1.0) <= 1e-12),
        NonUnitBeta("beta must have unit Euclidean norm"),
        mset, u, beta, sigma,
    )
    if not len(beta):  # every trial failed; t_beta takes no empty batch
        return np.zeros(0)
    rows = fail.rows
    residual = np.sqrt(loss(u, mset)) + sigma * np.sqrt(mset.n)
    inv_norm = inverse_spectral_norm(t_beta(u, mset, beta), fail, _overwrite=True)
    (residual,) = fail.since(rows, residual)
    values = np.sqrt(2.0) * inv_norm * residual
    return values if batched else float(values[0])


def hessian_constants(gt):
    """(epsilon, gamma, a_alpha, a_sigma) controlling Hessian positivity.

    epsilon = gamma / (2 kappa(V)^4), a_alpha = 32 sum ||M_n||^2,
    a_sigma = 16 sqrt(N) sqrt(sum ||M_n||^2).
    """
    gamma = gt.eigengap()
    if gamma <= 0.0:
        raise DegenerateSpectrum("gamma = 0; Hessian positivity constants undefined")
    epsilon = gamma / (2.0 * gt.noise_free.kappa**4)
    m_norm = gt.noise_free.m_norm
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
    op = t_beta(u_init, gt.observed_matrices(), beta)
    inv_norm = inverse_spectral_norm(op, _overwrite=True)
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
    """Per-matrix joint-eigenvalue error: 2 alpha ||M_n|| + sigma ||W_n||
    (elementwise over arrays)."""
    if any(np.any(np.asarray(x) < 0) for x in (alpha, sigma, m_norm, w_norm)):
        raise ValueError("all inputs must be nonnegative")
    bound = 2.0 * alpha * m_norm + sigma * w_norm
    return float(bound) if np.ndim(bound) == 0 else bound
