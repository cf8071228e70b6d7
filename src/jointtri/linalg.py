"""Dense structured linear algebra.

The strictly-lower projection and index pairs, the certified column
assignment, the skew exponential and the closed-form orthogonal logarithm
(from the real Schur form).  All vectorizations are column-major, fixed
globally.  Functions marked so take a leading trial axis; each trial's
result has the bits of the same call on that trial alone, and
blockwise_dot / blockwise_norm are the per-trial np.vdot and
np.linalg.norm that keep this true for reductions.
"""

from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    Failures,
    LogBranchAmbiguous,
    NegativeDeterminant,
)

# Tolerances pinned by the module contracts.
SKEW_TOL = 1e-12
ORTHO_TOL = 1e-10
LOG_BRANCH_TOL = 1e-6


def vec(a):
    """Column-major vectorization of a matrix."""
    return np.asarray(a).flatten(order="F")


def unvec(x, d):
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(x).reshape((d, d), order="F")


@lru_cache(maxsize=None)
def _low_mask(shape):
    mask = np.tri(*shape, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def low_part(a):
    """Strictly lower-triangular part: entries kept iff i > j (np.tril(a, -1))."""
    a = np.asarray(a, dtype=float)
    return np.where(_low_mask(a.shape[-2:]), a, 0.0)


def blockwise_dot(x, y, ndim):
    """np.vdot of each pair of trailing ndim-axis blocks of C-contiguous x
    and y, over their leading axes.  np.vecdot takes one BLAS dot per
    block, the call np.vdot and np.linalg.norm make, so each value has the
    bits of the unbatched call; a sum over axes would not."""
    if not x.size:
        return np.zeros(x.shape[:-ndim])
    shape = x.shape[:-ndim] + (-1,)
    return np.vecdot(x.reshape(shape), y.reshape(shape))[()]


def blockwise_norm(x, ndim=2):
    """np.linalg.norm of each trailing ndim-axis block of C-contiguous x."""
    if not x.size:
        return np.zeros(x.shape[:-ndim])
    flat = x.reshape(x.shape[:-ndim] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))[()]


def _require_skew(x, tol=SKEW_TOL):
    x = np.asarray(x, dtype=float)
    if x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"skew direction must be square, got shape {x.shape}")
    if not (np.all(np.isfinite(x)) and np.max(np.abs(x + x.swapaxes(-1, -2))) <= tol):
        raise DimensionMismatch("matrix is not skew-symmetric within tolerance")
    return x


def require_orthogonal(u, tol=ORTHO_TOL):
    """Validate that U is finite with ||U^T U - I||_F <= tol; return it as floats."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"orthogonal frame must be square, got shape {u.shape}")
    d = u.shape[0]
    if not (np.all(np.isfinite(u)) and np.linalg.norm(u.T @ u - np.eye(d)) <= tol):
        raise DimensionMismatch("matrix is not orthogonal within tolerance")
    return u


@lru_cache(maxsize=None)
def lower_index(d):
    """Strictly-lower index arrays (rows, cols), i > j, in column-major order.

    Pairs run down each column in turn; ``a[rows, cols]`` is P_low vec(A).
    Cached per d, so the arrays are shared and read-only.
    """
    cols, rows = np.triu_indices(d, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def skew_from_lower(x, d):
    """The skew matrix E - E^T whose strictly-lower entries E[lower_index(d)]
    are x (a leading trial axis is kept)."""
    x = np.asarray(x)
    e = np.zeros(x.shape[:-1] + (d, d))
    e[(..., *lower_index(d))] = x
    return e - e.swapaxes(-1, -2)


def min_pairwise_gap(t):
    """min over column pairs i < j of sum_n (t[n, i] - t[n, j])^2."""
    columns = np.ascontiguousarray(np.transpose(t))
    j, i = lower_index(len(columns))  # the pairs i < j of np.triu_indices, cached
    # one contiguous row per pair, so each row sums as np.sum sums a vector
    return float(np.add.reduce((columns[i] - columns[j]) ** 2, axis=-1).min())


def assign_columns(cost, radius):
    """Row-wise argmin of a (..., d, d) cost and whether it is certified.

    perm[..., i] is the column of least cost in row i.  It is certified
    when it is a permutation and every assigned cost is below radius
    (per trial of a leading axis).  If the cost is a distance between the
    points that rows and columns stand for, and radius is at most half
    the least distance between two column points (or two row points),
    then every other assignment has a cost above radius: the certified
    one is the unique assignment of least largest cost.
    """
    perm = np.argmin(cost, axis=-1)
    # each assigned cost is its row's least, so the minimum reads it
    certified = (cost.min(axis=-1) < radius).all(axis=-1)
    ordered = np.sort(perm, axis=-1)
    certified &= (ordered[..., 1:] > ordered[..., :-1]).all(axis=-1)
    return perm, certified


def skew_exp(x, scale=1.0):
    """Orthogonal frame e^{scale X} for a skew-symmetric X, or for each of a
    (T, d, d) stack from one expm call (exactly I where X = 0)."""
    x = _require_skew(x)
    moved = np.any(x, axis=(-2, -1)) & (scale != 0.0)
    eye = np.eye(x.shape[-1])
    if not moved.any():
        return np.broadcast_to(eye, x.shape).copy()
    e = scipy.linalg.expm(scale * x)
    return e if moved.all() else np.where(moved[..., None, None], e, eye)


# LAPACK's real Schur driver; with no sort its callback is never called
_GEES = scipy.linalg.get_lapack_funcs("gees", dtype=float)


@lru_cache(maxsize=None)
def _schur_lwork(d):
    """The optimal gees workspace for d x d, which depends on d only."""
    return int(_GEES(lambda re, im: 0, np.eye(d), lwork=-1)[-2][0])


def orthogonal_log(q, fail=None):
    """Principal logarithm of a rotation, returned as a skew matrix; q is
    one frame or a (T, d, d) stack of them.

    Closed form from the real Schur form Q = Z T Z^T, which is block
    diagonal because Q is normal: a 1x1 block (+1) has log 0, and a
    standardized block [[c, b], [a, c]] with ab < 0, whose eigenvalues are
    c +- i s with s = sqrt(-ab), has log (theta / s) [[0, b], [a, 0]] with
    theta = atan2(s, c) (Higham, Functions of Matrices, section 11).
    Rejects frames that are not orthogonal, frames with determinant -1 and
    rotations with an eigenvalue within LOG_BRANCH_TOL of -1, where the
    principal branch is ambiguous, and checks the round trip exp(log Q) = Q,
    exp(log T) from the same blocks: [[cos theta, (sin theta / s) b],
    [(sin theta / s) a, cos theta]], 1 on a 1x1 block.  Each frame takes
    one gees call, the T and Z of scipy.linalg.schur without its per-matrix
    checks; one that fails rejects the frame.  With ``fail`` (the stack is
    over its rows) a frame that fails leaves it, and the logs are over the
    frames still running.  Without it the first failure is raised.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim not in (2, 3) or q.shape[-1] != q.shape[-2]:
        raise DimensionMismatch(f"orthogonal frame must be square, got shape {q.shape}")
    stack = q.reshape(-1, *q.shape[-2:])
    d = stack.shape[-1]
    fail = Failures(len(stack)) if fail is None else fail
    (stack,) = fail.drop(
        ~np.all(np.isfinite(stack), axis=(1, 2)),
        DimensionMismatch("matrix is not orthogonal within tolerance"), stack,
    )
    (stack,) = fail.drop(
        ~(blockwise_norm(stack.swapaxes(1, 2) @ stack - np.eye(d)) <= ORTHO_TOL),
        DimensionMismatch("matrix is not orthogonal within tolerance"), stack,
    )
    (stack,) = fail.drop(
        np.linalg.det(stack) < 0,
        NegativeDeterminant("frame has determinant -1; no real skew logarithm"), stack,
    )
    t, z, info = np.empty_like(stack), np.empty_like(stack), np.zeros(len(stack), int)
    for f, frame in enumerate(stack):
        t[f], _, _, _, z[f], _, info[f] = _GEES(lambda re, im: 0, frame, lwork=_schur_lwork(d))
    t, z, stack = fail.drop(
        info != 0, LogBranchAmbiguous("real Schur form not found; no principal log"),
        t, z, stack,
    )
    if not len(stack):
        return stack
    trial, k = np.nonzero(t.diagonal(-1, 1, 2))  # upper-left corner of each 2x2 block
    c, b, a = t[trial, k, k], t[trial, k, k + 1], t[trial, k + 1, k]
    s = np.sqrt(-a * b)
    # |lambda + 1| per eigenvalue: |t + 1| on a 1x1 block, |c + 1 +- i s| on a 2x2
    dist = np.abs(t.diagonal(0, 1, 2) + 1.0)
    dist[trial, k] = dist[trial, k + 1] = np.hypot(c + 1.0, s)
    log_t = np.zeros_like(t)
    theta = np.arctan2(s, c)
    log_t[trial, k, k + 1], log_t[trial, k + 1, k] = theta / s * np.array([b, a])
    log_q = z @ log_t @ z.swapaxes(1, 2)
    x = 0.5 * (log_q - log_q.swapaxes(1, 2))
    exp_t = np.broadcast_to(np.eye(d), t.shape).copy()
    exp_t[trial, k, k] = exp_t[trial, k + 1, k + 1] = np.cos(theta)
    exp_t[trial, k, k + 1], exp_t[trial, k + 1, k] = np.sin(theta) / s * np.array([b, a])
    residual = blockwise_norm(z @ exp_t @ z.swapaxes(1, 2) - stack)
    x, residual = fail.drop(
        np.min(dist, axis=1) < LOG_BRANCH_TOL,
        LogBranchAmbiguous("eigenvalue near -1; principal log branch ambiguous"),
        x, residual,
    )
    (x,) = fail.drop(
        residual > 1e-10 * max(1.0, np.sqrt(d)),
        LogBranchAmbiguous("log round trip failed; input too close to branch cut"),
        x,
    )
    return x if q.ndim == 3 else x[0]

