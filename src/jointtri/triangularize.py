"""Approximate joint triangularization over the orthogonal group.

The objective is the total squared Frobenius mass below the diagonal of
the rotated matrices, minimized by Riemannian Gauss-Newton from the Schur
factor of a separating linear combination of the inputs.  J^T J, over the
strictly-lower index pairs, is built from the stack's second moments with
no Jacobian (gauss_newton_matrix).  Stacks whose L x L solve is cheap per
matrix take exact Gauss-Newton steps from it; the others a
Jacobi-preconditioned truncated CG on J^T J products.  Steps are accepted
on the loss change computed from the change of the rotated stack, not on a
difference of two rounded losses.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    LineSearchStalled,
    NearDefective,
    NoSeparatingBeta,
)
from .linalg import (
    _fix_column_signs,
    low_part,
    lower_index,
    skew_exp,
    skew_from_lower,
)

SEPARATION_GAP_REL = 1e-8
EIG_RESIDUAL_TOL = 1e-8
ARMIJO_C = 1e-4  # an accepted step lowers the loss by this share of its prediction
BACKTRACK_FACTOR = 0.5
# descend takes exact Gauss-Newton steps while L^3 / N, the LU solve's cost
# per matrix, is at most this, and truncated-CG steps above (measured
# crossover with the moment-built J^T J, whose cost grows with N like CG's).
EXACT_STEP_MAX_SIZE = 200_000


@dataclass(frozen=True)
class MatrixSet:
    """N square matrices of shared dimension d, one read-only (N, d, d) array."""

    matrices: np.ndarray

    def __post_init__(self):
        try:
            matrices = np.array(self.matrices, dtype=float, order="C")
        except ValueError as exc:  # ragged input
            raise DimensionMismatch("all matrices must share dimension d") from exc
        if matrices.shape[:1] == (0,):
            raise DimensionMismatch("matrix set must contain at least one matrix")
        if matrices.ndim == 3 and matrices.shape[1] == 0:
            raise DimensionMismatch("matrix dimension d must be at least 1")
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise DimensionMismatch("all matrices must share dimension d")
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
        return np.sum(beta[:, None, None] * self.matrices, axis=0)


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
    return _stack_loss(rotated(u, mset))


def _stack_loss(a):
    """loss at the rotated stack a."""
    sums = np.sum(low_part(a) ** 2, axis=(1, 2))
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
    """J^T J x in strictly-lower coordinates at the rotated stack a, with no
    L x L object: J x = [low(A_n X - X A_n)]_n, X = skew_from_lower(x, d)."""
    t = skew_from_lower(x, a.shape[1])
    return _commutator_adjoint(a, low_part(a @ t - t @ a))[lower_index(a.shape[1])]


def gauss_newton_diagonal(a):
    """diag(J^T J) in strictly-lower coordinates at the rotated stack a.

    With q = sum_n A_n o A_n off its diagonal, the entry of pair (i, j) is
    sum_n (A_n,ii - A_n,jj)^2 + sum_{r>j} q_ri + sum_{r>i} q_rj
    + sum_{c<i} q_jc + sum_{c<j} q_ic: suffix sums down the columns and
    prefix sums along the rows of q, O(N d^2) with no L x L object.
    """
    d = a.shape[1]
    rows, cols = lower_index(d)
    q = np.sum(a * a, axis=0)
    np.fill_diagonal(q, 0.0)
    below = np.zeros((d + 1, d))  # below[r, c] = sum_{r' >= r} q[r', c]
    below[:d] = np.cumsum(q[::-1], axis=0)[::-1]
    left = np.zeros((d, d + 1))  # left[r, c] = sum_{c' < c} q[r, c']
    left[:, 1:] = np.cumsum(q, axis=1)
    diag = np.diagonal(a, axis1=1, axis2=2)
    gap = np.sum((diag[:, rows] - diag[:, cols]) ** 2, axis=0)
    return (
        gap
        + below[cols + 1, rows]
        + below[rows + 1, cols]
        + left[cols, rows]
        + left[rows, cols]
    )


@lru_cache(maxsize=None)
def _moment_plan(d):
    """gauss_newton_matrix's tables at dimension d: the (d, 2d) map from the
    row and column Grams to H / 2, and per block of pair columns j0 <= j < j1
    (rows r0:r1 of J^T J; one block up to d = 16, each S block at most
    max(L^2, 2^16) floats) the mask of X and the flat positions of its terms."""
    rows, cols = lower_index(d)
    upper = np.triu(np.ones((d, d), dtype=np.int8), 1)  # upper[x, y] = [y > x]
    spread = 0.5 * np.hstack((upper, upper.T))  # [r > c] / 2, then [c' < c] / 2
    width = max(1, max(rows.size**2, 2**16) // d**3)
    blocks = []
    for j0 in range(0, d - 1, width):
        j1 = min(j0 + width, d - 1)
        w = j1 - j0
        r0, r1 = j0 * d - j0 * (j0 + 1) // 2, j1 * d - j1 * (j1 + 1) // 2
        mask = upper.T[:, None, None, j0:j1] + upper[None, :, :, None]  # [k > j] + [l > i]
        rows_at = (rows[r0:r1] * d * w + cols[r0:r1] - j0)[:, None]
        lower_at, upper_at = rows * d * d * w + cols * w, cols * d * d * w + rows * w
        blocks.append((j0, j1, r0, r1, mask, rows_at, lower_at, upper_at))
    return spread, tuple(blocks)


def gauss_newton_matrix(a):
    """J^T J in strictly-lower coordinates at the rotated stack a, exactly
    symmetric, from the second moments S[k, i, l, j] = sum_n A_n,ki A_n,lj
    with no Jacobian: O(N d^4 + L^2).

    Over pairs p = (i, j), q = (k, l), J^T J = G + G^T with
    G[p, q] = X[p, (l, k)] - X[p, (k, l)] and X[p, (k, l)] =
    ([k > j] + [l > i]) S[k, i, l, j] - [l = j] H[j, i, k] / 2 - [k = i] H[i, j, l] / 2,
    H[c] = sum_n (sum_{r > c} A_n[r, :]^T A_n[r, :] + sum_{c' < c} A_n[:, c'] A_n[:, c']^T).
    S is formed in blocks of columns j, so the working memory beyond the
    result stays a few L x L arrays.
    """
    n, d, _ = a.shape
    spread, blocks = _moment_plan(d)
    lines = np.concatenate((a.transpose(1, 2, 0), a.transpose(2, 1, 0)))
    half = (spread @ (lines @ lines.transpose(0, 2, 1)).reshape(2 * d, -1)).reshape(d, d, d)
    flat = a.reshape(n, d * d)
    g = np.empty((d * (d - 1) // 2,) * 2)
    for j0, j1, r0, r1, mask, rows_at, lower_at, upper_at in blocks:
        x = (flat.T @ a[:, :, j0:j1].reshape(n, -1)).reshape(d, d, d, j1 - j0)
        x *= mask
        diag = np.einsum("kijj->jik", x[:, :, j0:j1])  # views of x[:, i, j, j]
        diag -= half[j0:j1]
        diag = np.einsum("iilj->ijl", x)  # and of x[i, i, :, j]
        diag -= half[:, j0:j1]
        np.subtract(x.take(rows_at + upper_at), x.take(rows_at + lower_at), out=g[r0:r1])
    return g + g.T


def _exact_step(a, b):
    """x with (J^T J + mu I) x = -b, mu = eps trace(J^T J), by one LU solve.

    mu is at the level of the rounding error in the computed J^T J, so x is
    the Gauss-Newton step to rounding (the least-squares solution of
    J x = -r with a ridge of that size).  J^T J + mu I is positive
    definite, so x stays finite on a singular J^T J, and b.x < 0 unless
    b = 0.
    """
    h = gauss_newton_matrix(a)
    h.flat[:: len(h) + 1] += np.finfo(float).eps * np.trace(h)
    return np.linalg.solve(h, -b)


def _cg_step(a, b):
    """Jacobi-preconditioned truncated CG on (J^T J) x = -b from x = 0, to the
    forcing tolerance min(0.5, sqrt|b|) |b| on the residual or L iterations;
    each iterate is a descent direction.  A zero diagonal entry (J e_k = 0)
    is preconditioned by 1."""
    diag = gauss_newton_diagonal(a)
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
    x = np.zeros_like(b)
    res = -b
    p = z = inv_diag * res
    rr, rz = res @ res, res @ z
    stop = min(0.25, np.sqrt(rr)) * rr  # the squared forcing tolerance
    for _ in range(b.size):
        hp = gauss_newton_product(a, p)
        curvature = p @ hp
        if curvature <= 0:  # only by rounding: J^T J is positive on its range
            break
        x = x + rz / curvature * p
        res = res - rz / curvature * hp
        rr = res @ res
        if rr <= stop:
            break
        z = inv_diag * res
        rz, rz_prev = res @ z, rz
        p = z + rz / rz_prev * p
    return x


def _rotation_increment(x, step):
    """F = e^{step X} - I for a skew X: summed from its Taylor series while
    ||step X||_F < 0.5, so F keeps full relative accuracy on short steps,
    and skew_exp(X, step) - I above.  The series stops before the first
    term whose norm bound ||step X||^k / k! is at most eps ||step X||."""
    y = step * x
    norm = np.linalg.norm(y)
    if norm >= 0.5:
        return skew_exp(x, step) - np.eye(len(x))
    terms, bound = 1, norm
    while bound * norm / (terms + 1) > np.finfo(float).eps * norm:
        terms += 1
        bound *= norm / terms
    f = y
    for k in range(terms, 1, -1):  # Horner: Y + Y (Y + Y (...) / 3) / 2
        f = y + y @ f / k
    return f


def _loss_change(a, f):
    """loss(U (I + F)) - loss(U) at the rotated stack a = U^T M U, as
    sum_n <low(dA_n), low(2 A_n + dA_n)> with dA = F^T A + A F + F^T A F,
    formed as A F, then F^T (A + A F).  Built from dA rather than from two
    rounded losses, its rounding error shrinks with ||F||."""
    af = a @ f
    da = af + f.T @ (a + af)
    return float(np.vdot(low_part(da), da + 2.0 * a))


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


def find_separating_beta(mset, strategy="ones", seed=0, max_tries=50):
    """Certified initialization: a unit beta whose pencil P = sum_n beta_n M_n
    has a real, well-separated spectrum, and the Schur frame U0 of P.

    Tries the normalized ones vector first (strategy "ones"), then seeded
    random unit vectors, with one eigendecomposition each.  P is accepted
    when its ascending eigenvalue real parts are pairwise more than
    SEPARATION_GAP_REL ||P|| apart; a complex pair shares its real part, so
    this also rules out complex eigenvalues.  U0 is the Q factor of the unit
    eigenvectors in that order, each column's first significant entry made
    positive, so U0^T P U0 is upper triangular with ascending diagonal.
    Both floors are relative to ||P||, so a scaled set gets the same beta.
    Raises NoSeparatingBeta after max_tries candidates, and NearDefective
    when an eigenvector of the accepted P has a residual above
    EIG_RESIDUAL_TOL ||P||.  Returns (beta, U0).
    """
    if strategy not in ("ones", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")

    def candidates():
        if strategy == "ones":
            yield np.ones(mset.n) / np.sqrt(mset.n)
        rng = np.random.default_rng(seed)  # built only if a random draw is needed
        while True:
            v = rng.standard_normal(mset.n)
            yield v / np.linalg.norm(v)

    for beta in itertools.islice(candidates(), max_tries):
        pencil = mset.combine(beta)
        scale = np.linalg.norm(pencil)
        values, vectors = np.linalg.eig(pencil)
        order = np.argsort(values.real)
        values = values.real[order]
        if np.all(np.diff(values) > SEPARATION_GAP_REL * scale):
            vectors = vectors[:, order].real
            vectors /= np.linalg.norm(vectors, axis=0)
            residual = np.linalg.norm(pencil @ vectors - vectors * values, axis=0)
            if np.any(residual > EIG_RESIDUAL_TOL * scale):
                raise NearDefective("eigenvector residual above tolerance")
            return beta, _fix_column_signs(np.linalg.qr(vectors)[0])
    raise NoSeparatingBeta(
        f"no separating combination found after {max_tries} tries"
    )


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-12

    def __post_init__(self):
        if not (self.max_iters >= 0 and self.grad_tol > 0):
            raise ValueError("max_iters must be >= 0 and grad_tol > 0")


@dataclass
class DescentTrace:
    loss_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    termination: str = ""


def descend(mset, u_init, config=OptimizerConfig()):
    """Riemannian Gauss-Newton with Armijo backtracking on U (I + F), F = e^{tX} - I.

    The step X solves (J^T J) x = -J^T r directly, to rounding, from the
    moment-built J^T J (_exact_step) while L^3 <= N EXACT_STEP_MAX_SIZE,
    else by truncated CG (_cg_step).  t halves from 1 until the loss
    change, computed from the change of the rotated stack (_loss_change),
    is below the Armijo fraction of t <grad, X>, the predicted change.  The
    trace's losses are the running sum loss(U_0) + sum of accepted changes.
    The rotated stack A = U^T M U is formed once per iteration; the
    gradient, the step and the line search all read it.

    Raises LineSearchStalled, carrying the last iterate and trace, when
    |<grad, X>| is at most the bound on the computed change's rounding error
    per unit t, (2d + 2NL + 5) eps ||A|| ||X|| ||low(A)||, to first order
    in t (matrix products with d terms, a dot product with NL terms, all
    norms Frobenius over the stack); both scale with t, so no step can be
    told from rounding.  It is also raised once halving has shrunk ||tX||
    to eps, where the frame no longer moves.
    """
    u = _check_frame(u_init, mset)
    d = mset.d
    size = d * (d - 1) // 2
    solve = _exact_step if size**3 <= EXACT_STEP_MAX_SIZE * mset.n else _cg_step
    error_scale = (2 * d + 2 * mset.n * size + 5) * np.finfo(float).eps
    error_scale *= np.linalg.norm(mset.matrices)  # ||A|| at every frame
    trace = DescentTrace()
    a = rotated(u, mset)
    current = _stack_loss(a)
    for _ in range(config.max_iters):
        low = low_part(a)
        g = _commutator_adjoint(a, low)  # the gradient at U
        g_norm = np.linalg.norm(g)
        if g_norm <= config.grad_tol:
            trace.termination = "grad_tol"
            return u, trace
        b = g[lower_index(d)]  # J^T r
        x = solve(a, b)
        slope = 2.0 * (b @ x)  # <grad, X>
        skew = skew_from_lower(x, d)
        x_norm = np.linalg.norm(skew)
        floor = error_scale * x_norm * np.linalg.norm(low)
        step = 1.0
        while -slope > floor and step * x_norm > np.finfo(float).eps:
            f = _rotation_increment(skew, step)
            change = _loss_change(a, f)
            if change < ARMIJO_C * step * slope:
                break
            step *= BACKTRACK_FACTOR
        else:
            trace.termination = "stalled"
            raise LineSearchStalled("no step lowers the loss", frame=u, trace=trace)
        u = u + u @ f
        a = rotated(u, mset)
        current += change
        trace.loss_values.append(current)
        trace.grad_norms.append(g_norm)
        trace.step_lengths.append(step)
    trace.termination = "max_iters"
    return u, trace
