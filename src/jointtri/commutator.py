"""The commutator Jacobian of the descent, in every form jointtri uses.

At a rotated stack A_n = U^T M_n U the residual's Jacobian maps a
strictly-lower x, X = skew_from_lower(x, d), to J x = [low(A_n X - X A_n)]_n.
This module holds its adjoint (adjoint, whose pairs are the gradient), the
products J^T J x and diag(J^T J) of the truncated CG step, J^T J itself,
built from the stack's second moments with no Jacobian, for the exact step
and the a priori bound, and the operator T~ of J's first two terms
(operator), from which the bounds build T_beta.  Their index tables come
from one plan per dimension d, cached; the tables that only T~ or J^T J
read are built on first use.
"""

from functools import cached_property, lru_cache

import numpy as np

from .linalg import lower_index


def _frozen(*arrays):
    for x in arrays:
        x.setflags(write=False)
    return arrays


class _Plan:
    """The tables at dimension d: the lower pairs (rows, cols), their flat
    positions r d + c and those c d + r of their mirrors, and the mask of
    the entries on and above the diagonal; the scatter index of operator
    and the moment blocks of gauss_newton_matrix on first use."""

    def __init__(self, d):
        self.d = d
        self.rows, self.cols = rows, cols = lower_index(d)
        self.lower, self.upper, self.on_and_above = _frozen(
            rows * d + cols, cols * d + rows, ~np.tri(d, k=-1, dtype=bool))

    @cached_property
    def scatter(self):
        """Flat positions p L + q and sources r d + c of the added term
        [j = l] A_ki and of the subtracted term [i = k] A_jl of operator,
        over the lower pairs p = (i, j), q = (k, l); the two share only the
        diagonal.  Row p of the added term runs over the pairs (k, j), k > j,
        of column j, and of the subtracted term over the pairs (i, l), l < i,
        both in increasing q: the order of np.nonzero on two L x L masks,
        from two L x d scans."""
        d, rows, cols = self.d, self.rows, self.cols
        pair = np.zeros(d * d, dtype=np.intp)  # pair[r d + c] = q of the pair (r, c)
        pair[self.lower] = np.arange(rows.size)
        line = np.arange(d)
        p, k = np.nonzero(line > cols[:, None])
        at, source = p * rows.size + pair[k * d + cols[p]], k * d + rows[p]
        p, l = np.nonzero(line < rows[:, None])
        return _frozen(at, source, p * rows.size + pair[rows[p] * d + l], cols[p] * d + l)

    @cached_property
    def moments(self):
        """gauss_newton_matrix's tables: the (d, 2d) map from the row and
        column Grams to H / 2; per block of pair columns j0 <= j < j1 (rows
        r0:r1 of J^T J; one block up to d = 16, each S block at most
        max(L^2, 2^16) floats) the mask of X and the flat positions of its
        terms; and how many trials of a batch share that working memory."""
        d, rows, cols = self.d, self.rows, self.cols
        upper = np.triu(np.ones((d, d), dtype=np.int8), 1)  # upper[x, y] = [y > x]
        spread = 0.5 * np.hstack((upper, upper.T))  # [r > c] / 2, then [c' < c] / 2
        budget = max(rows.size**2, 2**16)
        width = max(1, budget // d**3)
        blocks = []
        for j0 in range(0, d - 1, width):
            j1 = min(j0 + width, d - 1)
            w = j1 - j0
            r0, r1 = j0 * d - j0 * (j0 + 1) // 2, j1 * d - j1 * (j1 + 1) // 2
            mask = upper.T[:, None, None, j0:j1] + upper[None, :, :, None]  # [k > j] + [l > i]
            rows_at = (rows[r0:r1] * d * w + cols[r0:r1] - j0)[:, None]
            lower_at, upper_at = rows * d * d * w + cols * w, cols * d * d * w + rows * w
            blocks.append((j0, j1, r0, r1, mask, rows_at + upper_at, rows_at + lower_at))
        # trials per chunk: S blocks of about 2^15 floats in all (measured; at
        # d = 12 one trial's block is already larger and chunks of one are fastest)
        trials = max(1, 2**15 // (d**3 * min(width, max(d - 1, 1))))
        return spread, tuple(blocks), trials


@lru_cache(maxsize=None)
def _plan(d):
    return _Plan(d)


def adjoint(a, w):
    """S - S^T with S = sum_n [A_n^T, W_n]; its strictly-lower entries are J^T w."""
    a_t = a.swapaxes(-1, -2)
    s = a_t @ w
    s -= w @ a_t
    s = np.add.reduce(s, axis=-3)
    return s - s.swapaxes(-1, -2)


def gauss_newton_product(a, a_t, x):
    """J^T J x in strictly-lower coordinates at the rotated stack a, with no
    L x L object; a_t holds the transposes of a, C-ordered, so that every
    GEMM reads contiguous operands (a caller that takes many products
    builds it once).

    X is scattered from x into one flat d^2 vector (0 - x above the
    diagonal: the bits of E - E^T), and the adjoint's S - S^T is read at
    the pairs only, as S[r, c] - S[c, r]."""
    d = a.shape[1]
    plan = _plan(d)
    lower, upper = plan.lower, plan.upper
    t = np.zeros(d * d)
    t[lower] = x
    t[upper] = 0.0 - x
    t = t.reshape(d, d)
    w = a @ t
    w -= t @ a
    np.copyto(w, 0.0, where=plan.on_and_above)  # low_part, in place
    s = a_t @ w
    s -= w @ a_t
    s = np.sum(s, axis=0).reshape(-1)
    return s[lower] - s[upper]


def gauss_newton_diagonal(a):
    """diag(J^T J) in strictly-lower coordinates at the rotated stack a.

    With q = sum_n A_n o A_n off its diagonal, the entry of pair (i, j) is
    sum_n (A_n,ii - A_n,jj)^2 + sum_{r>j} q_ri + sum_{r>i} q_rj
    + sum_{c<i} q_jc + sum_{c<j} q_ic: suffix sums down the columns and
    prefix sums along the rows of q, O(N d^2) with no L x L object.
    """
    d = a.shape[1]
    plan = _plan(d)
    q = np.sum(a * a, axis=0)
    np.fill_diagonal(q, 0.0)
    below = np.zeros((d, d))  # below[r, c] = sum_{r' > r} q[r', c]
    below[:-1] = np.cumsum(q[:0:-1], axis=0)[::-1]
    left = np.zeros((d, d))  # left[r, c] = sum_{c' < c} q[r, c']
    left[:, 1:] = np.cumsum(q[:, :-1], axis=1)
    # one contiguous row of N per pair, so each gap sums as np.sum sums a vector
    diag = np.ascontiguousarray(np.diagonal(a, axis1=1, axis2=2).T)
    gap = diag[plan.rows] - diag[plan.cols]
    gap *= gap
    below, left = below.reshape(-1), left.reshape(-1)
    lower, upper = plan.lower, plan.upper
    return gap.sum(axis=1) + below[upper] + below[lower] + left[upper] + left[lower]


def gauss_newton_matrix(a):
    """J^T J in strictly-lower coordinates at the rotated stack a (per trial
    of a leading trial axis), exactly symmetric, from the second moments
    S[k, i, l, j] = sum_n A_n,ki A_n,lj with no Jacobian: O(N d^4 + L^2).

    Over pairs p = (i, j), q = (k, l), J^T J = G + G^T with
    G[p, q] = X[p, (l, k)] - X[p, (k, l)] and X[p, (k, l)] =
    ([k > j] + [l > i]) S[k, i, l, j] - [l = j] H[j, i, k] / 2 - [k = i] H[i, j, l] / 2,
    H[c] = sum_n (sum_{r > c} A_n[r, :]^T A_n[r, :] + sum_{c' < c} A_n[:, c'] A_n[:, c']^T).
    A batch runs in chunks of trials and S in blocks of columns j, so the
    working memory beyond the result stays a few L x L arrays per trial.
    """
    *batch, n, d, _ = a.shape
    a = a.reshape(-1, n, d, d)
    size = d * (d - 1) // 2
    out = np.empty((len(a), size, size))
    spread, blocks, trials = _plan(d).moments
    for t0 in range(0, len(a), trials):
        _moment_chunk(a[t0 : t0 + trials], out[t0 : t0 + trials], spread, blocks)
    return out.reshape(*batch, size, size)


def _moment_chunk(a, out, spread, blocks):
    """gauss_newton_matrix of the (T, N, d, d) stack a, into out."""
    count, n, d, _ = a.shape
    lines = np.concatenate((a.transpose(0, 2, 3, 1), a.transpose(0, 3, 2, 1)), axis=1)
    grams = (lines @ lines.transpose(0, 1, 3, 2)).reshape(count, 2 * d, -1)
    half = (spread @ grams).reshape(count, d, d, d)
    flat = a.reshape(count, n, d * d).transpose(0, 2, 1)
    g = np.empty(out.shape)
    for j0, j1, r0, r1, mask, plus, minus in blocks:
        x = (flat @ a[:, :, :, j0:j1].reshape(count, n, -1)).reshape(count, d, d, d, j1 - j0)
        x *= mask
        diag = np.einsum("tkijj->tjik", x[:, :, :, j0:j1])  # views of x[:, :, i, j, j]
        diag -= half[:, j0:j1]
        diag = np.einsum("tiilj->tijl", x)  # and of x[:, i, i, :, j]
        diag -= half[:, :, j0:j1]
        x = x.reshape(count, -1)
        np.subtract(x.take(plus, axis=1), x.take(minus, axis=1), out=g[:, r0:r1])
    np.add(g, g.transpose(0, 2, 1), out=out)


def operator(a):
    """T~ = P_low (1 (x) A^T - A (x) 1) P_low^T for one rotated matrix A (or
    each of a leading trial axis): entry ((i, j), (k, l)) is A[k, i] [j = l]
    - [i = k] A[j, l], the transpose of the first two terms of J."""
    d = a.shape[-1]
    size = d * (d - 1) // 2
    at, source, at_minus, source_minus = _plan(d).scatter
    flat = a.reshape(*a.shape[:-2], d * d)
    t = np.zeros(a.shape[:-2] + (size * size,))
    t[..., at] = flat[..., source]
    t[..., at_minus] -= flat[..., source_minus]
    return t.reshape(*a.shape[:-2], size, size)
