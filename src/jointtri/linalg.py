"""Dense structured linear algebra.

The strictly-lower projection and index pairs, the skew exponential,
the closed-form orthogonal logarithm (from the real Schur form), the
real eigensolver, ordered Schur decomposition, and matrix metrics.  All
vectorizations are column-major, fixed globally.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (
    ComplexEigenvalues,
    DimensionMismatch,
    LogBranchAmbiguous,
    NearDefective,
    NegativeDeterminant,
)

# Tolerances pinned by the module contracts.
SKEW_TOL = 1e-12
ORTHO_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-8
EIG_GAP_TOL = 1e-10
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


@dataclass(frozen=True)
class EigenSystem:
    """Real simple spectrum: values ascending, unit-norm right eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def real_eigen(m):
    """Eigendecomposition of a matrix with real simple eigenvalues.

    Values are sorted ascending; each eigenvector has unit Euclidean norm
    and its first significant entry positive.
    """
    m = _require_square(m)
    scale = np.linalg.norm(m)
    values, vectors = np.linalg.eig(m)
    tol = EIG_GAP_TOL * max(scale, 1.0)
    if np.max(np.abs(values.imag)) > tol:
        raise ComplexEigenvalues("matrix has complex eigenvalues")
    values = values.real
    order = np.argsort(values)
    values = values[order]
    vectors = vectors[:, order].real
    if np.min(np.diff(values), initial=np.inf) < EIG_GAP_TOL * max(scale, 1.0):
        raise NearDefective("eigenvalue gap below tolerance; nearly defective")
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    vectors = _fix_column_signs(vectors)
    residual = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    if np.any(residual > EIG_RESIDUAL_TOL * max(scale, 1.0)):
        raise NearDefective("eigenvector residual above tolerance")
    return EigenSystem(values=values, vectors=vectors)


def _fix_column_signs(u, tol=1e-12):
    """Flip column signs so the first significant entry of each is positive."""
    mag = np.abs(u)
    significant = mag > tol * mag.max(axis=0, initial=1.0)
    first = u[np.argmax(significant, axis=0), np.arange(u.shape[1])]
    return np.where(significant.any(axis=0) & (first < 0), -u, u)


def ordered_schur(m, order=None):
    """Schur factor with eigenvalues on the diagonal in a requested order.

    order[k] indexes into the ascending eigenvalue list; position k of the
    diagonal of U^T M U receives that eigenvalue.  Defaults to ascending.
    Built by QR of the permuted eigenvector matrix, valid for real simple
    spectra; column signs are normalized (first significant entry positive).
    """
    m = _require_square(m)
    eig = real_eigen(m)
    d = m.shape[0]
    if order is None:
        order = np.arange(d)
    order = np.asarray(order, dtype=int)
    if sorted(order.tolist()) != list(range(d)):
        raise DimensionMismatch("order must be a permutation of 0..d-1")
    w = eig.vectors[:, order]
    q, r = np.linalg.qr(w)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    q = _fix_column_signs(q)
    t = q.T @ m @ q
    return q, t


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
