"""Approximate joint triangularization over the orthogonal group.

The objective is the total squared Frobenius mass below the diagonal of
the rotated matrices, minimized by Riemannian Gauss-Newton from the Schur
factor of a separating linear combination of the inputs.  Stacks whose
L x L solve is cheap per matrix take exact Gauss-Newton steps from J^T J;
the others a Jacobi-preconditioned truncated CG on J^T J products (both
forms from commutator).  A step moves the frame by the Cayley map of the
scaled direction, a retraction that agrees with the exponential to second
order, and is accepted on the loss change computed from the change of the
rotated stack, not on a difference of two rounded losses.

A MatrixSet may hold T sets on a leading trial axis.  The certified
initialization and the descent then run every trial at once, one eig per
candidate round and one rotated stack, J^T J and LU solve per iteration.
A trial leaves the init at its first failure, through the caller's
errors.Failures, and the descent at its stopping point; a stall is only
its trace's "stalled" termination.  Each trial's result has the bits of
the same call on that trial alone; a single problem runs the same code as
a batch of one.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .commutator import adjoint, gauss_newton_diagonal, gauss_newton_matrix, gauss_newton_product
from .errors import (
    DimensionMismatch,
    Failures,
    NearDefective,
    NoSeparatingBeta,
)
from .linalg import (
    blockwise_dot,
    blockwise_norm,
    low_part,
    lower_index,
    skew_exp,  # noqa: F401  unused here; the benchmark's tracer test still reads it
    skew_from_lower,
)

_EPS = np.finfo(float).eps
SEPARATION_GAP_REL = 1e-8
# U0 is rejected as near defective when ||low(U0^T P U0)|| exceeds this
# share of ||P||; well-separated sets leave at most about 2e-15 at d = 4-64.
SCHUR_RESIDUAL_TOL = 1e-12
ARMIJO_C = 1e-4  # an accepted step lowers the loss by this share of its prediction
BACKTRACK_FACTOR = 0.5
# descend_batch takes exact Gauss-Newton steps while L^3 / N, the LU solve's cost
# per matrix, is at most this, and truncated-CG steps above (measured
# crossover with the moment-built J^T J, whose cost grows with N like CG's).
EXACT_STEP_MAX_SIZE = 200_000
# A truncated-CG step also ends once its residual is at most this share of
# grad_tol / sqrt(2): the next ||grad|| is about sqrt(2) times that residual,
# so a finer solve is past what the descent's stop test reads.
CG_GRAD_TOL_SHARE = 0.1


@dataclass(frozen=True)
class MatrixSet:
    """N square matrices of shared dimension d, one read-only (N, d, d) array;
    or a batch of T such sets on a leading trial axis, (T, N, d, d)."""

    matrices: np.ndarray

    def __post_init__(self):
        try:
            matrices = np.array(self.matrices, dtype=float, order="C")
        except ValueError as exc:  # ragged input
            raise DimensionMismatch("all matrices must share dimension d") from exc
        if matrices.shape[:1] == (0,) or matrices.ndim == 4 and matrices.shape[1] == 0:
            raise DimensionMismatch("matrix set must contain at least one matrix")
        if matrices.ndim in (3, 4) and matrices.shape[-1] == 0:
            raise DimensionMismatch("matrix dimension d must be at least 1")
        if matrices.ndim not in (3, 4) or matrices.shape[-2] != matrices.shape[-1]:
            raise DimensionMismatch("all matrices must share dimension d")
        if not np.isfinite(matrices).all():
            raise DimensionMismatch("matrix entries must be finite")
        object.__setattr__(self, "matrices", matrices)
        self.matrices.setflags(write=False)

    @property
    def d(self):
        return self.matrices.shape[-1]

    @property
    def n(self):
        return self.matrices.shape[-3]

    def as_batch(self):
        """The set as a batch of one set; a batch is returned as it is."""
        return self if self.matrices.ndim == 4 else _checked_set(self.matrices[None])

    def __getitem__(self, trials):
        """The given trials of a batch: a batch for indices or a mask, one
        set for a single index."""
        return _checked_set(self.matrices[trials])

    def combine(self, beta):
        """The pencil sum_n beta_n M_n (per trial of a batch; beta may carry
        the trial axis too)."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape[-1:] != (self.n,) or beta.ndim > self.matrices.ndim - 2:
            raise DimensionMismatch("beta length must equal the number of matrices")
        return np.add.reduce(beta[..., None, None] * self.matrices, axis=-3)


def _checked_set(matrices):
    """A MatrixSet of matrices the constructor has already checked, made
    without its copy and checks."""
    matrices.setflags(write=False)
    mset = object.__new__(MatrixSet)
    object.__setattr__(mset, "matrices", matrices)
    return mset


def _check_frame(u, mset):
    """U as floats: one frame, or a (T, d, d) stack, one per trial of a batch
    or applied to every matrix of a single set."""
    u = np.asarray(u, dtype=float)
    d = mset.matrices.shape[-1]
    if u.ndim not in (2, 3) or u.shape[-1] != d or u.shape[-2] != d:
        raise DimensionMismatch("frame dimension does not match matrix set")
    return u


def rotated(u, mset):
    """The rotated matrices A_n = U^T M_n U as one (N, d, d) array, with a
    leading trial axis for a stack of frames or a batch of sets."""
    u = _check_frame(u, mset)
    if u.ndim == 2:
        return u.T @ mset.matrices @ u
    return u.swapaxes(1, 2)[:, None] @ mset.matrices @ u[:, None]


def loss(u, mset):
    """Sum of squared strictly-lower entries of the rotated matrices (per trial)."""
    return stack_loss(rotated(u, mset))


def stack_loss(a):
    """loss at the rotated stack a = U^T M U: a running sum in order
    n = 0, ..., N-1."""
    sums = np.add.reduce(low_part(a) ** 2, axis=(-2, -1))
    return np.add.accumulate(sums, axis=-1)[..., -1][()]


def gradient(u, mset):
    """Riemannian gradient, a skew matrix S - S^T.

    S = sum_n [A_n^T, low(A_n)] with A_n = U^T M_n U; the inner product
    against a tangent X gives the derivative of t -> loss(U e^{tX}).
    """
    a = rotated(u, mset)
    return adjoint(a, low_part(a))


def _exact_step(a, b):
    """x with (J^T J + mu I) x = -b, mu = eps trace(J^T J), by one LU solve
    (per trial of a leading trial axis).

    mu is at the level of the rounding error in the computed J^T J, so x is
    the Gauss-Newton step to rounding (the least-squares solution of
    J x = -r with a ridge of that size).  J^T J + mu I is positive
    definite, so x stays finite on a singular J^T J, and b.x < 0 unless
    b = 0.
    """
    h = gauss_newton_matrix(a)
    size = h.shape[-1]
    h.reshape(*h.shape[:-2], -1)[..., :: size + 1] += _EPS * h.trace(axis1=-2, axis2=-1)[..., None]
    return np.linalg.solve(h, -b[..., None])[..., 0]


def _cg_step(a, b, grad_tol):
    """Jacobi-preconditioned truncated CG on (J^T J) x = -b from x = 0, to the
    residual max(min(1e-3, sqrt|b|) |b|, CG_GRAD_TOL_SHARE grad_tol / sqrt(2))
    or L iterations; each iterate is a descent direction.  With noise the
    Gauss-Newton residual does not vanish and the outer iteration converges
    only linearly, so a loosely solved early step costs more outer steps
    than the CG products it saves; the sqrt|b| term tightens the last
    steps.  The floor, with ||grad|| = sqrt(2) |b| in the lower
    coordinates, ends the last step at the outer stop's tolerance; it only
    loosens the forcing, so a step whose forcing tolerance lies above it is
    unchanged.  A zero diagonal entry (J e_k = 0) is preconditioned by 1."""
    diag = gauss_newton_diagonal(a)
    a_t = np.ascontiguousarray(a.swapaxes(1, 2))
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
    x = np.zeros_like(b)
    res = -b
    p = z = inv_diag * res
    rr, rz = res @ res, res @ z
    # the squared residual tolerance
    stop = max(min(1e-6, np.sqrt(rr)) * rr, (CG_GRAD_TOL_SHARE * grad_tol) ** 2 / 2)
    for _ in range(b.size):
        hp = gauss_newton_product(a, a_t, p)
        curvature = p @ hp
        if curvature <= 0:  # only by rounding: J^T J is positive on its range
            break
        x += rz / curvature * p
        res -= rz / curvature * hp
        rr = res @ res
        if rr <= stop:
            break
        z = inv_diag * res
        rz, rz_prev = res @ z, rz
        p = z + rz / rz_prev * p
    return x


def _rotation_increment(x, step):
    """F = (I - Y/2)^{-1} Y for a skew X and Y = step X (per trial of a
    leading trial axis, step then one per trial), by one solve: the Cayley
    map I + F = (I - Y/2)^{-1} (I + Y/2).  I + F is orthogonal, agrees with
    e^Y to second order, and F keeps full relative accuracy on short steps;
    I - Y/2 has singular values >= 1, so the solve cannot fail."""
    y = np.asarray(step)[..., None, None] * x
    return np.linalg.solve(np.eye(x.shape[-1]) - 0.5 * y, y)


def _loss_change(a, f):
    """loss(U (I + F)) - loss(U) at the rotated stack a = U^T M U (per trial
    of a leading trial axis), as sum_n <low(dA_n), low(2 A_n + dA_n)> with
    dA = F^T A + A F + F^T A F, formed as A F, then F^T (A + A F).  Built
    from dA rather than from two rounded losses, its rounding error shrinks
    with ||F||."""
    af = a @ f[..., None, :, :]
    da = af + f.swapaxes(-1, -2)[..., None, :, :] @ (a + af)
    return blockwise_dot(low_part(da), da + 2.0 * a, 3)


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


def _fix_column_signs(u, tol=1e-12):
    """Flip column signs so the first significant entry of each is positive
    (over a leading trial axis too): a column flips when its first
    significant entry is also its first significant negative one."""
    mag = np.abs(u)
    significant = mag > tol * mag.max(axis=-2, initial=1.0, keepdims=True)
    negative = significant & (u < 0)
    flip = negative.any(axis=-2) & (negative.argmax(axis=-2) == significant.argmax(axis=-2))
    return np.where(flip[..., None, :], -u, u)


def find_separating_beta(mset, strategy="ones", seed=0, max_tries=50, fail=None):
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
    Fails with NoSeparatingBeta after max_tries candidates, and with
    NearDefective when U0 leaves ||low(U0^T P U0)|| above
    SCHUR_RESIDUAL_TOL ||P||: an ill-conditioned eigenvector basis whose Q
    factor is no Schur frame.  Returns (beta, U0).

    For a batch of sets, every trial draws the same candidates, each round
    makes one eig call over the trials still unresolved, and the results
    carry the trial axis; with ``fail`` (the batch is over its rows) the
    trials that failed leave it when the search ends, and the results are
    over the trials still running.  Without it a failure is raised then,
    NearDefective before NoSeparatingBeta.
    """
    if strategy not in ("ones", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    batch = mset.as_batch()
    count = len(batch.matrices)
    fail = Failures(count) if fail is None else fail
    betas = np.empty((count, mset.n))
    frames = np.empty((count, mset.d, mset.d))
    defective = np.zeros(count, dtype=bool)
    todo = np.arange(count)  # the rows with no separating candidate yet

    def candidates():
        if strategy == "ones":
            yield np.ones(mset.n) / np.sqrt(mset.n)
        rng = np.random.default_rng(seed)  # built only if a random draw is needed
        while True:
            v = rng.standard_normal(mset.n)
            yield v / np.linalg.norm(v)

    for beta in itertools.islice(candidates(), max_tries):
        pencil = (batch if len(todo) == count else batch[todo]).combine(beta)
        scale = blockwise_norm(pencil)
        values, vectors = np.linalg.eig(pencil)
        values = values.real
        order = values.argsort(axis=-1)
        values.sort(axis=-1)  # values[order], in place
        gaps = values[:, 1:] - values[:, :-1]
        separated = (gaps > SEPARATION_GAP_REL * scale[:, None]).all(axis=-1)
        rows, todo = todo, todo[:0]
        if not separated.all():  # the others draw the next candidate
            rows, todo = rows[separated], rows[~separated]
            pencil, vectors, order, scale = (v[separated] for v in (pencil, vectors, order, scale))
        if len(rows):
            # the unit eigenvectors in ascending order, as rows: each summed
            # pairwise along its contiguous length, as np.linalg.norm(axis=0)
            # sums eig's column-major output of one set
            columns = vectors.real.swapaxes(1, 2)[np.arange(len(rows))[:, None], order]
            columns /= np.sqrt(np.add.reduce(columns * columns, axis=-1, keepdims=True))
            u0 = _fix_column_signs(np.linalg.qr(columns.swapaxes(1, 2))[0])
            betas[rows], frames[rows] = beta, u0
            schur = u0.swapaxes(1, 2) @ pencil @ u0
            defective[rows] = blockwise_norm(low_part(schur)) > SCHUR_RESIDUAL_TOL * scale
        if not len(todo):
            break
    pending = np.zeros(count, dtype=bool)
    pending[todo] = True
    betas, frames, pending = fail.drop(
        defective, NearDefective("Schur residual of the initial frame above tolerance"),
        betas, frames, pending,
    )
    betas, frames = fail.drop(
        pending, NoSeparatingBeta(f"no separating combination found after {max_tries} tries"),
        betas, frames,
    )
    if mset.matrices.ndim == 3:
        return betas[0], frames[0]
    return betas, frames


@dataclass
class DescentTrace:
    loss_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    termination: str = ""


def descend_batch(mset, u_init, max_iters=500, grad_tol=1e-12):
    """Riemannian Gauss-Newton with Armijo backtracking on U (I + F), I + F
    the Cayley map of tX (_rotation_increment), for every trial of a batch
    of sets from its initial frame.

    The step X solves (J^T J) x = -J^T r directly, to rounding, from the
    moment-built J^T J (_exact_step) while L^3 <= N EXACT_STEP_MAX_SIZE,
    else by truncated CG (_cg_step, one trial at a time), which is given
    grad_tol so that no solve runs finer than the stop at grad_tol reads.
    t halves from 1 until the loss change, computed from the change of the
    rotated stack (_loss_change), is below the Armijo fraction of
    t <grad, X>, the predicted change.  The trace's losses are the running sum
    loss(U_0) + sum of accepted changes.  The trials iterate in lockstep:
    the rotated stacks are formed once per iteration, and the gradients,
    one J^T J build and one LU solve, and each round of the line search
    (over the trials still searching) read them.  A trial leaves the batch
    once ||grad|| <= grad_tol, or when it stalls.

    A trial stalls when |<grad, X>| is at most the bound on the computed
    change's rounding error per unit t, (2d + 2NL + 5) eps ||A|| ||X||
    ||low(A)||, to first order in t (matrix products with d terms, a dot
    product with NL terms, all norms Frobenius over the stack); both scale
    with t, so no step can be told from rounding.  It also stalls once
    halving has shrunk ||tX|| to eps, where the frame no longer moves.  Its
    trace then ends "stalled" at its last iterate; nothing is raised.
    Per-trial scalars are Python floats: the same IEEE operations as on
    one problem, without a numpy call each.  Returns (frames, traces,
    stacks), stacks the rotated stacks U^T M U at the final frames, so a
    caller reads the diagonals and the loss there without forming them
    again.
    """
    if not (max_iters >= 0 and grad_tol > 0):
        raise ValueError("max_iters must be >= 0 and grad_tol > 0")
    u = _check_frame(u_init, mset)
    if u.ndim != 3 or mset.matrices.ndim != 4 or len(u) != len(mset.matrices):
        raise DimensionMismatch("descend_batch takes one frame per set of the batch")
    d, n = mset.d, mset.n
    size = d * (d - 1) // 2
    exact = size**3 <= EXACT_STEP_MAX_SIZE * n
    frames = u.copy()
    stacks = np.empty(mset.matrices.shape)
    traces = [DescentTrace() for _ in range(len(u))]
    live = list(range(len(u)))  # the trial of each row still descending
    error_scales = ((2 * d + 2 * n * size + 5) * _EPS * blockwise_norm(mset.matrices, 3)).tolist()
    a = rotated(u, mset)
    current = stack_loss(a).tolist()
    pairs = (..., *lower_index(d))

    def leave(rows, termination):
        """Close the traces of the given rows, and drop them from the batch."""
        nonlocal u, a, mset
        for k in rows:
            frames[live[k]], stacks[live[k]] = u[k], a[k]
            traces[live[k]].termination = termination
        if len(rows) == len(live):
            return None
        keep = np.ones(len(live), dtype=bool)
        keep[list(rows)] = False
        u, a, mset = u[keep], a[keep], mset[keep]
        return keep.tolist()

    def kept(values, keep):
        return [v for v, k in zip(values, keep) if k]

    for _ in range(max_iters):
        low = low_part(a)
        g = adjoint(a, low)  # the gradients
        g_norms = blockwise_norm(g).tolist()
        if any(norm <= grad_tol for norm in g_norms):
            keep = leave([k for k, norm in enumerate(g_norms) if norm <= grad_tol],
                         "grad_tol")
            if keep is None:
                return frames, traces, stacks
            live, g_norms, current, error_scales = (
                kept(v, keep) for v in (live, g_norms, current, error_scales))
            low, g = low[keep], g[keep]
        b = g[pairs]  # J^T r
        if exact:
            x = _exact_step(a, b)
        else:
            x = np.array([_cg_step(a_k, b_k, grad_tol) for a_k, b_k in zip(a, b)])
        slopes = (2.0 * np.vecdot(b, x)).tolist()  # <grad, X>
        skew = skew_from_lower(x, d)
        x_norms = blockwise_norm(skew).tolist()
        low_norms = blockwise_norm(low, 3).tolist()
        # the line search, one round per halving over the trials still searching
        steps, changes, accepted, f = [1.0] * len(live), [0.0] * len(live), [False] * len(live), None
        searching = [
            k for k, (scale, slope, x_norm, low_norm) in enumerate(
                zip(error_scales, slopes, x_norms, low_norms))
            if -slope > scale * x_norm * low_norm and x_norm > _EPS
        ]
        while searching:
            every = len(searching) == len(live)
            rows = slice(None) if every else searching
            f_k = _rotation_increment(skew[rows], np.array([steps[k] for k in searching]))
            change_k = _loss_change(a[rows], f_k).tolist()
            ok = [change < ARMIJO_C * steps[k] * slopes[k] for k, change in zip(searching, change_k)]
            if every and all(ok):
                f, changes, accepted = f_k, change_k, ok
                break
            if f is None:
                f = np.zeros_like(skew)
            for j, k in enumerate(searching):
                if ok[j]:
                    f[k], changes[k], accepted[k] = f_k[j], change_k[j], True
            searching = [k for k, good in zip(searching, ok) if not good]
            for k in searching:
                steps[k] *= BACKTRACK_FACTOR
            searching = [k for k in searching if steps[k] * x_norms[k] > _EPS]
        if not all(accepted):
            keep = leave([k for k, good in enumerate(accepted) if not good], "stalled")
            if keep is None:
                return frames, traces, stacks
            live, g_norms, current, error_scales, changes, steps = (
                kept(v, keep) for v in (live, g_norms, current, error_scales, changes, steps))
            f = f[keep]
        u = u + u @ f
        a = rotated(u, mset)
        current = [loss_value + change for loss_value, change in zip(current, changes)]
        for trial, loss_value, grad_norm, length in zip(live, current, g_norms, steps):
            trace = traces[trial]
            trace.loss_values.append(loss_value)
            trace.grad_norms.append(grad_norm)
            trace.step_lengths.append(length)
    leave(range(len(live)), "max_iters")
    return frames, traces, stacks
