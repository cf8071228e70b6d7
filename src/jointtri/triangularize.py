"""Approximate joint triangularization over the orthogonal group.

The objective is the total squared Frobenius mass below the diagonal of
the rotated matrices, minimized by Riemannian Gauss-Newton from the Schur
factor of a separating linear combination of the inputs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    LineSearchStalled,
    NoSeparatingBeta,
)
from .linalg import low_part, lower_index, ordered_schur, skew_exp, skew_from_lower

SEPARATION_GAP_REL = 1e-8
ROUNDING_ULPS = 4  # a predicted loss decrease below this many ulps is lost to rounding


@dataclass(frozen=True)
class MatrixSet:
    """N square matrices of shared dimension d, one read-only (N, d, d) array."""

    matrices: np.ndarray

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        if not mats:
            raise DimensionMismatch("matrix set must contain at least one matrix")
        d = mats[0].shape[0]
        if d == 0:
            raise DimensionMismatch("matrix dimension d must be at least 1")
        for m in mats:
            if m.shape != (d, d):
                raise DimensionMismatch("all matrices must share dimension d")
        matrices = np.stack(mats)
        if not np.all(np.isfinite(matrices)):
            raise DimensionMismatch("matrix entries must be finite")
        object.__setattr__(self, "matrices", matrices)
        self.matrices.setflags(write=False)

    @property
    def d(self):
        return self.matrices.shape[1]

    @property
    def n(self):
        return self.matrices.shape[0]

    def combine(self, beta):
        """The pencil sum_n beta_n M_n."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.n,):
            raise DimensionMismatch("beta length must equal the number of matrices")
        return sum(b * m for b, m in zip(beta, self.matrices))


def _check_frame(u, mset):
    u = np.asarray(u, dtype=float)
    if u.shape != (mset.d, mset.d):
        raise DimensionMismatch("frame dimension does not match matrix set")
    return u


def rotated(u, mset):
    """The rotated matrices A_n = U^T M_n U as one (N, d, d) array."""
    u = _check_frame(u, mset)
    return u.T @ mset.matrices @ u


def loss(u, mset):
    """Sum of squared strictly-lower entries of the rotated matrices."""
    sums = np.sum(low_part(rotated(u, mset)) ** 2, axis=(1, 2))
    total = 0.0
    for s in sums.tolist():  # a running sum in order n = 0, ..., N-1
        total += s
    return total


def gradient(u, mset):
    """Riemannian gradient, a skew matrix S - S^T.

    S = sum_n [A_n^T, low(A_n)] with A_n = U^T M_n U; the inner product
    against a tangent X gives the derivative of t -> loss(U e^{tX}).
    """
    a = rotated(u, mset)
    return _commutator_adjoint(a, low_part(a))


def _commutator_adjoint(a, w):
    """S - S^T with S = sum_n [A_n^T, W_n]; its strictly-lower entries are J^T w."""
    a_t = a.transpose(0, 2, 1)
    s = np.sum(a_t @ w - w @ a_t, axis=0)
    return s - s.T


def gauss_newton_product(a, x):
    """J^T J x in strictly-lower coordinates at the rotated stack a; J x =
    [low(A_n X - X A_n)]_n, X = skew_from_lower(x, d), is the derivative
    of the residual [low(U^T M_n U)]_n along U e^{tX}."""
    t = skew_from_lower(x, a.shape[1])
    return _commutator_adjoint(a, low_part(a @ t - t @ a))[lower_index(a.shape[1])]


def _gauss_newton_step(a, b):
    """Truncated CG on (J^T J) x = -b from x = 0, to the forcing tolerance
    min(0.5, sqrt|b|) |b| or L iterations; each iterate is a descent direction."""
    x = np.zeros_like(b)
    res = p = -b
    rr = res @ res
    stop = min(0.25, np.sqrt(rr)) * rr  # the squared forcing tolerance
    for _ in range(b.size):
        hp = gauss_newton_product(a, p)
        curvature = p @ hp
        if curvature <= 0:  # only by rounding: J^T J is positive on its range
            break
        x = x + rr / curvature * p
        res = res - rr / curvature * hp
        rr, rr_prev = res @ res, rr
        if rr <= stop:
            break
        p = res + rr / rr_prev * p
    return x


def hessian_form(u, mset, x):
    """Second derivative of t -> loss(U e^{tX}) at t = 0."""
    u = _check_frame(u, mset)
    x = np.asarray(x, dtype=float)
    if x.shape != (mset.d, mset.d):
        raise DimensionMismatch("direction dimension does not match matrix set")
    total = 0.0
    for m in mset.matrices:
        a = u.T @ m @ u
        g = low_part(a)
        gd = low_part(a @ x - x @ a)
        gdd = low_part((a @ x - x @ a) @ x - x @ (a @ x - x @ a))
        total += 2.0 * np.sum(gd * gd) + 2.0 * np.sum(gdd * g)
    return float(total)


def eigenvalue_separation(m):
    """(min real gap, all-real flag) for the spectrum of a pencil."""
    eigs = np.linalg.eigvals(m)
    scale = max(np.linalg.norm(m), 1.0)
    all_real = bool(np.max(np.abs(eigs.imag)) <= 1e-8 * scale)
    re = np.sort(eigs.real)
    gap = float(np.min(np.diff(re))) if re.size > 1 else np.inf
    return gap, all_real


def find_separating_beta(mset, strategy="ones", seed=0, max_tries=50):
    """Unit vector beta whose pencil has real, well-separated eigenvalues.

    Tries the normalized ones vector first (strategy "ones"), then seeded
    random unit vectors.  The separation floor is relative to the pencil
    norm.  Returns (beta, achieved_gap).
    """
    if strategy not in ("ones", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    candidates = []
    if strategy == "ones":
        candidates.append(np.ones(mset.n) / np.sqrt(mset.n))
    for _ in range(max_tries):
        v = rng.standard_normal(mset.n)
        candidates.append(v / np.linalg.norm(v))
    for beta in candidates[:max_tries]:
        pencil = mset.combine(beta)
        gap, all_real = eigenvalue_separation(pencil)
        if all_real and gap > SEPARATION_GAP_REL * np.linalg.norm(pencil):
            return beta, gap
    raise NoSeparatingBeta(
        f"no separating combination found after {max_tries} tries"
    )


def schur_initializer(mset, beta):
    """Orthogonal frame triangularizing the beta-pencil of the set."""
    pencil = mset.combine(beta)
    u, _ = ordered_schur(pencil)
    return u


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-12
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5

    def __post_init__(self):
        if self.max_iters < 0 or self.grad_tol <= 0:
            raise ValueError("max_iters must be >= 0 and grad_tol > 0")
        if not 0 < self.armijo_c < 1 or not 0 < self.backtrack_factor < 1:
            raise ValueError("armijo_c and backtrack_factor must lie in (0,1)")


@dataclass
class DescentTrace:
    loss_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    termination: str = ""


def descend(mset, u_init, config=OptimizerConfig()):
    """Riemannian Gauss-Newton: truncated-CG steps, Armijo backtracking on e^{tX}.

    t halves from 1 until U e^{tX} lowers the loss strictly and by the
    Armijo fraction of t <grad, X>, the predicted decrease.  Raises
    LineSearchStalled, carrying the last iterate and trace, once a halved
    step's predicted decrease is below ROUNDING_ULPS ulps of the loss.
    """
    u = _check_frame(u_init, mset)
    trace = DescentTrace()
    current = loss(u, mset)
    for _ in range(config.max_iters):
        g = gradient(u, mset)
        g_norm = np.linalg.norm(g)
        if g_norm <= config.grad_tol:
            trace.termination = "grad_tol"
            return u, trace
        b = g[lower_index(mset.d)]  # J^T r
        x = _gauss_newton_step(rotated(u, mset), b)
        slope = 2.0 * (b @ x)  # <grad, X>
        step = 1.0
        while step == 1.0 or step * -slope >= ROUNDING_ULPS * np.spacing(current):
            candidate = u @ skew_exp(skew_from_lower(x, mset.d), step)
            new = loss(candidate, mset)
            if new < current + config.armijo_c * step * slope:
                break
            step *= config.backtrack_factor
        else:
            trace.termination = "stalled"
            raise LineSearchStalled("no step lowers the loss", frame=u, trace=trace)
        u, current = candidate, new
        trace.loss_values.append(current)
        trace.grad_norms.append(g_norm)
        trace.step_lengths.append(step)
    trace.termination = "max_iters"
    return u, trace
