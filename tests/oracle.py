"""Slow reference oracles.

enumerate_exact_triangularizers lists every exact joint triangularizer of
a noiseless model, and brute_force_nearest takes one matrix logarithm per
listed frame; tests check the assignment in jointtri.harness against both.
verify_bounds_per_trial and sigma_sweep_per_trial run the studies one trial
at a time through the single-problem functions; tests check the batched
studies in jointtri.harness against them.  They call every stage through
its module, so a test that patches a stage patches it here too.
min_pairwise_gap_per_pair sums each column pair on its own; a test checks
jointtri.linalg.min_pairwise_gap against it bit for bit.
observable_matrices_per_slice (one solve per slice),
component_error_bound_two_svds (np.linalg.matrix_rank and np.linalg.cond)
and commutator_index_by_masks (two L x L masks scanned by np.nonzero) are
the earlier forms of jointtri.tensor.observable_matrices,
component_error_bound and the scatter index of jointtri.commutator.operator;
tests check each against its oracle bit for bit.  orthogonal_log_schur_expm is the
earlier jointtri.linalg.orthogonal_log (scipy.linalg.schur over the stack,
and the round trip through skew_exp); a test checks the logs and the error
class of every frame against it.  unit_noise draws one noise matrix, as
harness.sample_noise did before it drew a trial's n at once.
gauss_newton_product_skew (X from skew_from_lower, S - S^T formed whole),
gauss_newton_diagonal_gathers (two-dimensional gathers) and
largest_singular_listed (Krylov bases rebuilt from lists at every step)
are the earlier forms of jointtri.commutator.gauss_newton_product,
gauss_newton_diagonal and jointtri.bounds._largest_singular; tests check
each against its oracle bit for bit.  dense_jacobian builds the descent's
Jacobian J one strictly-lower pair at a time.  inverse_spectral_norm_qr
is the earlier large-operator path of jointtri.bounds.inverse_spectral_norm
(a QR factor in place of the LU); tests check the LU value against it and
against a dense SVD within 100 eps kappa.
"""

import itertools

import numpy as np
import scipy.linalg
from numpy.linalg import lapack_lite
from scipy.linalg.blas import dnrm2, dtrsv, idamax

from jointtri import bounds as bd
from jointtri import harness as hz
from jointtri import tensor as tn
from jointtri import triangularize as tri
from jointtri.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    Failures,
    JointTriError,
    LogBranchAmbiguous,
    NegativeDeterminant,
    RankDeficient,
    SingularOperator,
    SingularZ,
)
from jointtri.linalg import (
    LOG_BRANCH_TOL,
    ORTHO_TOL,
    blockwise_norm,
    low_part,
    lower_index,
    orthogonal_log,
    skew_exp,
    skew_from_lower,
)


def enumerate_exact_triangularizers(gt):
    """All 2^d d! exact triangularizers as one (2^d d!, d, d) array.

    For each column permutation of V (in itertools.permutations order), its
    QR factor with a positive R diagonal times every sign pattern (in
    itertools.product order), from one batched QR.
    """
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=gt.d)))
    perms = np.array(list(itertools.permutations(range(gt.d))))
    q, r = np.linalg.qr(gt.v[:, perms].transpose(1, 0, 2))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    frames = q[:, None] * signs[None, :, None, :]
    return frames.reshape(-1, gt.d, gt.d)


def min_pairwise_gap_per_pair(t):
    """min over column pairs i < j of sum_n (t[n, i] - t[n, j])^2, one
    np.sum per pair."""
    d = t.shape[1]
    return min(
        float(np.sum((t[:, i] - t[:, j]) ** 2))
        for i in range(d)
        for j in range(i + 1, d)
    )


def brute_force_nearest(u, frames):
    """(alpha, index): the geodesic minimum over every frame of U's
    orientation, one log per frame; logs on the branch cut are skipped."""
    best = (np.inf, -1)
    for i, frame in enumerate(frames):
        if np.linalg.det(frame.T @ u) <= 0:
            continue
        try:
            alpha = np.linalg.norm(orthogonal_log(frame.T @ u))
        except LogBranchAmbiguous:
            continue
        if alpha < best[0]:
            best = (alpha, i)
    return best


def unit_noise(rng, d):
    """One unit-Frobenius-norm noise matrix: the draw harness.sample_noise
    makes n of at once."""
    w = rng.standard_normal((d, d))
    return w / np.linalg.norm(w)


def _trial_model(gt, sigma, seed, t):
    rng = np.random.default_rng([seed, t])
    noise = tuple(unit_noise(rng, gt.d) for _ in range(gt.n))
    return gt.with_noise(noise, sigma)


def sigma_sweep_per_trial(gt, sigmas, trials=1, seed=0):
    """harness.sigma_sweep, one (sigma, trial) pair after the other."""
    sigmas = list(sigmas)
    records = []
    for sigma in sigmas:
        per_trial = []
        for t in range(trials):
            model = _trial_model(gt, sigma, seed, t)
            observed = model.observed_matrices()
            u, beta, _, _, _ = hz.converge(observed, seed=seed)
            u_circ, ax_obs = hz.nearest_exact_frame(gt, u)
            ax_pred = bd.predicted_direction(model, u_circ)
            per_trial.append(
                {
                    "sigma": sigma,
                    "trial": t,
                    "observed_alpha": np.linalg.norm(ax_obs),
                    "direction_residual": float(np.linalg.norm(ax_obs - ax_pred)),
                    "alpha_apriori": bd.a_priori_bound(model, u_circ),
                    "alpha_explicit": bd.explicit_bound(model)[0],
                    "alpha_aposteriori": bd.a_posteriori_bound(observed, u, beta, sigma),
                }
            )
        records.append(per_trial)
    mean_resid = [np.mean([r["direction_residual"] for r in recs]) for recs in records]
    mean_alpha = [np.mean([r["observed_alpha"] for r in recs]) for recs in records]
    return {
        "sigmas": sigmas,
        "records": records,
        "direction_residual_slope": hz._fit_slope(sigmas, mean_resid),
        "observed_alpha_slope": hz._fit_slope(sigmas, mean_alpha),
    }


def verify_bounds_per_trial(gt, sigma, trials, seed=0):
    """harness.verify_bounds, one trial after the other."""
    summary = {"trials": trials, "sigma": sigma, "records": [], "fractions": {}}
    if trials == 0:
        return summary
    clean = gt.clean_matrices()
    keys = ("apriori", "explicit", "aposteriori", "eigenvalue", "order")
    counts = dict.fromkeys(keys, 0)
    errors = 0
    slack, atol = hz.CONTAINMENT_SLACK, hz.CONTAINMENT_ATOL
    for t in range(trials):
        model = _trial_model(gt, sigma, seed, t)
        observed = model.observed_matrices()
        try:
            u, beta, _, _, _ = hz.converge(observed, seed=seed)
            u_circ, log = hz.nearest_exact_frame(gt, u)
            alpha = np.linalg.norm(log)
            apriori = bd.a_priori_bound(model, u_circ)
            explicit, _ = bd.explicit_bound(model)
            aposteriori = bd.a_posteriori_bound(observed, u, beta, sigma)
            eig_ok = True
            for m_hat, m_clean, m_norm, w in zip(
                observed.matrices, clean.matrices, gt.noise_free.clean_norms, model.noise
            ):
                observed_diag = np.diag(u.T @ m_hat @ u)
                clean_diag = np.diag(u_circ.T @ m_clean @ u_circ)
                limit = bd.eigenvalue_error_bound(alpha, sigma, m_norm, np.linalg.norm(w))
                gap = np.max(np.abs(observed_diag - clean_diag))
                if gap > slack * limit + atol:
                    eig_ok = False
            record = {
                "trial": t,
                "observed_alpha": alpha,
                "apriori": bool(alpha <= slack * apriori + atol),
                "explicit": bool(alpha <= slack * explicit + atol),
                "aposteriori": bool(alpha <= slack * aposteriori + atol),
                "eigenvalue": eig_ok,
                "order": bool(apriori <= explicit),
            }
        except JointTriError as exc:
            errors += 1
            record = {"trial": t, "error": type(exc).__name__}
        summary["records"].append(record)
        for key in keys:
            if record.get(key):
                counts[key] += 1
    summary["errors"] = errors
    summary["fractions"] = {key: counts[key] / trials for key in keys}
    return summary


def verify_component_bound_per_trial(z, sigma, eps, trials, seed=0):
    """harness.verify_component_bound, one trial after the other."""
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    summary = {"trials": trials, "sigma": sigma, "records": [], "fraction": None}
    if trials == 0:
        return summary
    theta = np.ones(d) / np.sqrt(d)
    reference = z / z.sum(axis=0)
    bound = tn.component_error_bound(z, eps, sigma)
    passed = 0
    errors = 0
    for t in range(trials):
        try:
            noisy = hz.gen_tensor(z, sigma, eps, seed=[seed, t])
            observed, _ = tn.observable_matrices(noisy, theta)
            u, _, _, _, _ = hz.converge(observed, beta_strategy="random", seed=seed)
            estimate = tn.estimate_components(tri.rotated(u, observed))
            matched, _ = tn.match_columns(estimate, reference)
            err = float(np.max(np.abs(matched - reference)))
            ok = err <= hz.CONTAINMENT_SLACK * bound + hz.CONTAINMENT_ATOL
            record = {"trial": t, "error_max": err, "bound": bound, "contained": ok}
            passed += ok
        except JointTriError as exc:
            errors += 1
            record = {"trial": t, "error": type(exc).__name__}
        summary["records"].append(record)
    summary["errors"] = errors
    summary["fraction"] = passed / trials
    return summary


def _solve_right(a, b):
    """Solve X B = A for X with a residual check (no explicit inverse)."""
    x = np.linalg.solve(b.T, a.T).T
    if np.linalg.norm(x @ b - a) > tn.SOLVE_RESIDUAL_TOL * max(np.linalg.norm(a), 1.0):
        raise RankDeficient("pencil solve residual above tolerance")
    return x


def observable_matrices_per_slice(t, theta):
    """tensor.observable_matrices with one LU factorization per slice."""
    raw = t.as_cube()
    pencil = sum(w * m for w, m in zip(np.sqrt(t.n) * np.asarray(theta), raw))
    s = np.linalg.svd(pencil, compute_uv=False)
    if s[-1] <= tn.RANK_REL_TOL * s[0]:
        raise RankDeficient("weighted slice sum is rank deficient")
    return np.stack([_solve_right(m, pencil) for m in raw]), pencil


def component_error_bound_two_svds(z, eps, sigma):
    """tensor.component_error_bound with the rank from np.linalg.matrix_rank
    and kappa from np.linalg.cond, one SVD each."""
    z = np.asarray(z, dtype=float)
    n, d = z.shape
    if np.linalg.matrix_rank(z) < d:
        raise SingularZ("Z is singular")
    gamma = tn.component_gamma(z)
    if gamma <= 0.0:
        raise DegenerateSpectrum("two identical component columns: gamma = 0")
    kappa = np.linalg.cond(z)
    m_const, w_const = tn._observable_bounds(z, kappa, eps)
    bound = (
        4.0 * n * sigma * np.sqrt(d * (d - 1)) * kappa**4 / gamma
        * m_const**2 * w_const
        + sigma * w_const
    )
    return float(bound)


def commutator_index_by_masks(d):
    """The scatter index of commutator.operator from two L x L boolean masks
    and np.nonzero."""
    rows, cols = lower_index(d)
    i, j, k, l = rows[:, None], cols[:, None], rows, cols
    index = []
    for match, source in ((j == l, k * d + i), (i == k, j * d + l)):
        p, q = np.nonzero(match)
        index += [p * rows.size + q, np.broadcast_to(source, match.shape)[match]]
    return tuple(index)


def orthogonal_log_schur_expm(q, fail=None):
    """linalg.orthogonal_log from one scipy.linalg.schur call over the
    stack, with the round trip checked by skew_exp (one expm call)."""
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
    if not len(stack):
        return stack
    t, z = scipy.linalg.schur(stack, output="real")
    trial, k = np.nonzero(t.diagonal(-1, 1, 2))
    c, b, a = t[trial, k, k], t[trial, k, k + 1], t[trial, k + 1, k]
    s = np.sqrt(-a * b)
    dist = np.abs(t.diagonal(0, 1, 2) + 1.0)
    dist[trial, k] = dist[trial, k + 1] = np.hypot(c + 1.0, s)
    log_t = np.zeros_like(t)
    scale = np.arctan2(s, c) / s
    log_t[trial, k, k + 1] = scale * b
    log_t[trial, k + 1, k] = scale * a
    log_q = z @ log_t @ z.swapaxes(1, 2)
    x = 0.5 * (log_q - log_q.swapaxes(1, 2))
    x, stack = fail.drop(
        np.min(dist, axis=1) < LOG_BRANCH_TOL,
        LogBranchAmbiguous("eigenvalue near -1; principal log branch ambiguous"),
        x, stack,
    )
    if len(x):
        (x,) = fail.drop(
            blockwise_norm(skew_exp(x) - stack) > 1e-10 * max(1.0, np.sqrt(d)),
            LogBranchAmbiguous("log round trip failed; input too close to branch cut"),
            x,
        )
    return x if q.ndim == 3 else x[0]


def gauss_newton_product_skew(a, x):
    """commutator.gauss_newton_product with X = skew_from_lower(x) and
    the adjoint's S - S^T formed before its pairs are read (from the same
    C-ordered transposes of a, whose GEMMs the product runs)."""
    d = a.shape[1]
    t = skew_from_lower(x, d)
    w = low_part(a @ t - t @ a)
    a_t = np.ascontiguousarray(a.swapaxes(-1, -2))
    s = np.sum(a_t @ w - w @ a_t, axis=-3)
    return (s - s.swapaxes(-1, -2))[lower_index(d)]


def gauss_newton_diagonal_gathers(a):
    """commutator.gauss_newton_diagonal by two-dimensional gathers."""
    d = a.shape[1]
    rows, cols = lower_index(d)
    q = np.sum(a * a, axis=0)
    np.fill_diagonal(q, 0.0)
    below = np.zeros((d + 1, d))
    below[:d] = np.cumsum(q[::-1], axis=0)[::-1]
    left = np.zeros((d, d + 1))
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


def largest_singular_listed(apply, apply_t, n, tol):
    """bounds._largest_singular with the Krylov bases and the bidiagonal's
    two diagonals kept as lists, made into arrays at every step; the top
    Ritz pair comes from the same bounds._top_singular."""
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    us, vs, alphas, betas = [], [v], [], []
    u = apply(v)
    for k in range(1, n + 1):
        if us:
            basis = np.array(us)
            u -= basis.T @ (basis @ u)
            u -= basis.T @ (basis @ u)
        alphas.append(np.linalg.norm(u))
        u /= alphas[-1]
        us.append(u)
        w = apply_t(u)
        basis = np.array(vs)
        w -= basis.T @ (basis @ w)
        w -= basis.T @ (basis @ w)
        beta = np.linalg.norm(w)
        theta, u_k = bd._top_singular(np.array(alphas), np.array(betas))
        if k == n or beta * u_k <= tol * theta:
            return theta
        betas.append(beta)
        v = w / beta
        vs.append(v)
        u = apply(v) - beta * u


def dense_jacobian(a):
    """J of x -> [low(A_n X - X A_n)]_n, built one strictly-lower pair at a time."""
    d = a.shape[1]
    rows, cols = lower_index(d)
    columns = []
    for j in range(d):
        for i in range(j + 1, d):
            x = np.zeros((d, d))
            x[i, j], x[j, i] = 1.0, -1.0
            columns.append(np.concatenate([(m @ x - x @ m)[rows, cols] for m in a]))
    return np.array(columns).T


def inverse_spectral_norm_qr(op):
    """bounds.inverse_spectral_norm of one operator of at least
    LANCZOS_MIN_SIZE rows through a QR factor: op^T = QR by numpy's LAPACK
    on a copy, and ||op^-1|| = ||R^-1|| from one Golub-Kahan-Lanczos run
    on the triangular solves with R, under the same scaling by
    max |op_ij|, solve limit and singularity test as the LU path."""
    size = op.shape[0]
    a = np.array(op, dtype=float, order="C")
    flat = a.reshape(-1)
    scale = abs(flat[idamax(flat)])
    if not 0.0 < scale < np.inf:
        raise SingularOperator("operator is numerically singular")
    fro = dnrm2(flat) / scale
    if np.isnan(fro):
        raise SingularOperator("operator is numerically singular")
    tau, work = np.empty(size), np.empty(1)
    lapack_lite.dgeqrf(size, size, a, size, tau, work, -1, 0)  # workspace query
    work = np.empty(int(work[0]))
    lapack_lite.dgeqrf(size, size, a, size, tau, work, work.size, 0)  # a read column-major is op^T
    r = a.T
    r /= scale
    limit = np.sqrt(size) / bd.SINGULAR_REL_TOL

    def solve(x, trans=0):
        y = dtrsv(r, x, trans=trans)
        if not np.abs(y).max() <= limit:
            raise SingularOperator("operator is numerically singular")
        return y

    inv_norm = bd._largest_singular(solve, lambda x: solve(x, 1), size, bd.LANCZOS_TOL)
    if bd.SINGULAR_REL_TOL * fro * inv_norm > 1.0:
        raise SingularOperator("operator is numerically singular")
    return float(inv_norm / scale)
