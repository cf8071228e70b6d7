"""Dense structured linear algebra.

The strictly-lower projection and index pairs, the skew exponential,
the closed-form orthogonal logarithm (from the real Schur form), column
sign normalization, and matrix metrics.  All vectorizations are
column-major, fixed globally.
"""

from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, LogBranchAmbiguous, NegativeDeterminant

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


def _require_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _require_skew(x, tol=SKEW_TOL):
    x = _require_square(x, "skew direction")
    if not (np.all(np.isfinite(x)) and np.max(np.abs(x + x.T)) <= tol):
        raise DimensionMismatch("matrix is not skew-symmetric within tolerance")
    return x


def require_orthogonal(u, tol=ORTHO_TOL):
    """Validate that U is finite with ||U^T U - I||_F <= tol; return it as floats."""
    u = _require_square(u, "orthogonal frame")
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
    """The skew matrix E - E^T whose strictly-lower entries E[lower_index(d)] are x."""
    e = np.zeros((d, d))
    e[lower_index(d)] = x
    return e - e.T


def min_pairwise_gap(t):
    """min over column pairs i < j of sum_n (t[n, i] - t[n, j])^2."""
    d = t.shape[1]
    return min(
        float(np.sum((t[:, i] - t[:, j]) ** 2))
        for i in range(d)
        for j in range(i + 1, d)
    )


def skew_exp(x, scale=1.0):
    """Orthogonal frame e^{scale X} for a skew-symmetric X."""
    x = _require_skew(x)
    if scale == 0.0 or not np.any(x):
        return np.eye(x.shape[0])
    return scipy.linalg.expm(scale * x)


def orthogonal_log(q):
    """Principal logarithm of a rotation, returned as a skew matrix.

    Closed form from the real Schur form Q = Z T Z^T, which is block
    diagonal because Q is normal: a 1x1 block (+1) has log 0, and a
    standardized block [[c, b], [a, c]] with ab < 0, whose eigenvalues are
    c +- i s with s = sqrt(-ab), has log (theta / s) [[0, b], [a, 0]] with
    theta = atan2(s, c) (Higham, Functions of Matrices, section 11).
    Rejects frames with determinant -1 and rotations with an eigenvalue
    within LOG_BRANCH_TOL of -1, where the principal branch is ambiguous.
    """
    q = require_orthogonal(q)
    d = q.shape[0]
    if np.linalg.det(q) < 0:
        raise NegativeDeterminant("frame has determinant -1; no real skew logarithm")
    t, z = scipy.linalg.schur(q, output="real")
    k = np.flatnonzero(np.diag(t, -1))  # upper-left corner of each 2x2 block
    c, b, a = t[k, k], t[k, k + 1], t[k + 1, k]
    s = np.sqrt(-a * b)
    # |lambda + 1| per eigenvalue: |t + 1| on a 1x1 block, |c + 1 +- i s| on a 2x2
    dist = np.abs(np.diag(t) + 1.0)
    dist[k] = dist[k + 1] = np.hypot(c + 1.0, s)
    if np.min(dist) < LOG_BRANCH_TOL:
        raise LogBranchAmbiguous("eigenvalue near -1; principal log branch ambiguous")
    log_t = np.zeros((d, d))
    scale = np.arctan2(s, c) / s
    log_t[k, k + 1] = scale * b
    log_t[k + 1, k] = scale * a
    log_q = z @ log_t @ z.T
    x = 0.5 * (log_q - log_q.T)
    if np.linalg.norm(skew_exp(x) - q) > 1e-10 * max(1.0, np.sqrt(d)):
        raise LogBranchAmbiguous("log round trip failed; input too close to branch cut")
    return x


def _fix_column_signs(u, tol=1e-12):
    """Flip column signs so the first significant entry of each is positive."""
    mag = np.abs(u)
    significant = mag > tol * mag.max(axis=0, initial=1.0)
    first = u[np.argmax(significant, axis=0), np.arange(u.shape[1])]
    return np.where(significant.any(axis=0) & (first < 0), -u, u)


def matrix_metrics(a):
    """Frobenius norm, spectral norm, and condition number via SVD.

    A rank-deficient input reports condition = inf.
    """
    a = _require_square(a)
    fro = np.linalg.norm(a)
    s = np.linalg.svd(a, compute_uv=False)
    smax = s[0]
    smin = s[-1]
    cond = np.inf if smin == 0.0 else smax / smin
    return fro, smax, cond
