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
component_error_bound and jointtri.bounds._commutator_index; tests check
each against its oracle bit for bit.
"""

import itertools

import numpy as np

from jointtri import bounds as bd
from jointtri import harness as hz
from jointtri import tensor as tn
from jointtri.errors import (
    DegenerateSpectrum,
    JointTriError,
    LogBranchAmbiguous,
    RankDeficient,
    SingularZ,
)
from jointtri.linalg import lower_index, orthogonal_log


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


def _trial_model(gt, sigma, seed, t):
    rng = np.random.default_rng([seed, t])
    noise = tuple(hz.sample_noise(rng, gt.d) for _ in range(gt.n))
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
            u, beta, _, _ = hz.converge(observed, seed=seed)
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
            u, beta, _, _ = hz.converge(observed, seed=seed)
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
    summary = {"trials": trials, "sigma": sigma, "records": [], "fraction": np.nan}
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
            u, _, _, _ = hz.converge(observed, beta_strategy="random", seed=seed)
            estimate = tn.estimate_components(u, observed)
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
    """bounds._commutator_index from two L x L boolean masks and np.nonzero."""
    rows, cols = lower_index(d)
    i, j, k, l = rows[:, None], cols[:, None], rows, cols
    index = []
    for match, source in ((j == l, k * d + i), (i == k, j * d + l)):
        p, q = np.nonzero(match)
        index += [p * rows.size + q, np.broadcast_to(source, match.shape)[match]]
    return tuple(index)
