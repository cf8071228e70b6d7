"""Synthetic ground truth, the exact triangularizer a frame perturbs, and studies.

The studies measure each computed frame against the one exact
triangularizer it perturbs (nearest_exact_frame), found by assigning
eigenvalue columns instead of listing all 2^d d! exact frames, so they run
at any d.  Random draws use numpy's PCG64 generator; every generator is a
pure function of its seed, and per-trial streams are derived from
(seed, trial index) so trials are order-independent.
"""

from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import tensor as tn
from . import triangularize as tri
from .errors import (
    DegenerateSpectrum,
    JointTriError,
    LineSearchStalled,
    NoComparableFrame,
)
from .linalg import min_pairwise_gap, orthogonal_log

CONTAINMENT_SLACK = 1.1
# absolute floor so noiseless runs (bound exactly 0, observed error at
# machine precision) still count as contained
CONTAINMENT_ATOL = 1e-12


@dataclass(frozen=True)
class GeneratorSpec:
    d: int
    n: int
    kappa_target: float = 2.0
    gamma_target: float = 1.0
    noise_style: str = "dense"
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("d and N must be >= 1")
        if not (1.0 <= self.kappa_target < np.inf and 0.0 < self.gamma_target < np.inf):
            raise ValueError("need finite kappa_target >= 1 and gamma_target > 0")
        if self.noise_style not in ("dense", "sparse"):
            raise ValueError("noise_style must be 'dense' or 'sparse'")


def _random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def sample_noise(rng, d, style="dense"):
    """A unit-Frobenius-norm noise matrix."""
    w = rng.standard_normal((d, d))
    if style == "sparse":
        mask = rng.random((d, d)) < 0.3
        if not mask.any():
            mask.flat[rng.integers(d * d)] = True
        w = w * mask
    return w / np.linalg.norm(w)


def gen_ground_truth(spec, sigma=0.0):
    """Reproducible ground-truth model hitting the kappa and gamma targets.

    V = Q1 diag(geomspace(1, 1/kappa)) Q2^T has condition number exactly
    kappa_target; eigenvalue rows are rescaled so the joint eigengap
    equals gamma_target exactly; noise is unit Frobenius norm.
    """
    rng = np.random.default_rng(spec.seed)
    q1 = _random_orthogonal(rng, spec.d)
    q2 = _random_orthogonal(rng, spec.d)
    profile = np.geomspace(1.0, 1.0 / spec.kappa_target, spec.d)
    v = q1 @ np.diag(profile) @ q2.T
    lam = rng.standard_normal((spec.n, spec.d))
    if spec.d > 1:
        gamma0 = min_pairwise_gap(lam)
        while gamma0 == 0.0:
            lam = rng.standard_normal((spec.n, spec.d))
            gamma0 = min_pairwise_gap(lam)
        lam = lam * np.sqrt(spec.gamma_target / gamma0)
    noise = tuple(sample_noise(rng, spec.d, spec.noise_style) for _ in range(spec.n))
    return bd.GroundTruthModel(v=v, lambda_table=lam, noise=noise, sigma=sigma)


def gen_components(d, kappa_target=2.0, seed=0, min_col_frac=0.3, max_tries=1000):
    """Component matrix with condition number kappa_target (exactly).

    Rejection-samples the orthogonal factors until every column sum is
    bounded away from zero (relative to the column scale), so the
    observable-matrix construction is well posed.
    """
    rng = np.random.default_rng(seed)
    profile = np.geomspace(1.0, 1.0 / kappa_target, d)
    for _ in range(max_tries):
        q1 = _random_orthogonal(rng, d)
        q2 = _random_orthogonal(rng, d)
        z = q1 @ np.diag(profile) @ q2.T
        col_floor = min_col_frac * np.linalg.norm(z) / d
        if np.min(np.abs(z.sum(axis=0))) >= col_floor:
            return z
    raise DegenerateSpectrum("could not sample components with nonzero column sums")


def gen_tensor(z, sigma, eps, seed):
    """Ground tensor from components plus noise normalized to norm eps."""
    z = np.asarray(z, dtype=float)
    ground = tn.tensor_from_components(z)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(ground.data.size)
    e = e / np.linalg.norm(e) * eps
    return tn.Tensor3(n=ground.n, data=ground.data + sigma * e)


def nearest_exact_frame(gt, u):
    """The exact triangularizer that U perturbs, and the logarithm of U
    relative to it; returns (frame, log(frame^T U)), with alpha the norm of
    the log.

    Every exact triangularizer is QR(V[:, pi]) S, pi a column permutation
    and S a diagonal sign matrix.  Column k of the diagonals of U^T M_n U
    over the clean set is assigned to its nearest column of the lambda
    table (Euclidean distance over the N rows), which gives pi; then
    S = sign(diag(Q^T U)).  pi is accepted only when it is a permutation
    and every assigned distance is below sqrt(gamma) / 2, half the smallest
    distance between two lambda columns, so no column could have been
    assigned elsewhere; otherwise, or on a zero sign, NoComparableFrame is
    raised.  The returned alpha is the distance to an exact frame, so it is
    never below the distance to the nearest one.
    """
    u = np.asarray(u, dtype=float)
    d = gt.d
    diagonals = np.diagonal(tri.rotated(u, gt.clean_matrices()), axis1=1, axis2=2)
    distance = np.linalg.norm(
        diagonals[:, :, None] - gt.lambda_table[:, None, :], axis=0
    )
    perm = np.argmin(distance, axis=1)
    radius = np.sqrt(gt.eigengap()) / 2 if d > 1 else np.inf
    if not (
        np.all(distance[np.arange(d), perm] < radius)
        and np.unique(perm).size == d
    ):
        raise NoComparableFrame("U is not near a unique exact triangularizer")
    q, r = np.linalg.qr(gt.v[:, perm])
    q = q * np.sign(np.diag(r))
    signs = np.sign(np.diag(q.T @ u))
    if not np.all(signs):
        raise NoComparableFrame("U is orthogonal to a column of the exact frame")
    frame = q * signs
    return frame, orthogonal_log(frame.T @ u)


def converge(mset, beta_strategy="ones", seed=0, max_iters=2000, grad_tol=1e-10):
    """Certified init plus Gauss-Newton descent; a stall at rounding is accepted.

    Returns (frame, beta, trace, U0), U0 the certified initial frame.
    """
    beta, u_init = tri.find_separating_beta(mset, strategy=beta_strategy, seed=seed)
    config = tri.OptimizerConfig(max_iters=max_iters, grad_tol=grad_tol)
    try:
        u, trace = tri.descend(mset, u_init, config)
    except LineSearchStalled as stall:
        u, trace = stall.frame, stall.trace
    return u, beta, trace, u_init


def _fit_slope(xs, ys):
    if len(xs) < 2:
        return np.nan
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def sigma_sweep(gt, sigmas, trials=1, seed=0):
    """Scaling study over a decreasing noise grid.

    Per sigma and trial: certified init + descent, observed distance to
    the nearest exact triangularizer, all bounds, and the residual of the
    first-order direction prediction.  Log-log slopes are fitted on the
    per-sigma trial means.  Returns a dict with the sigmas, the per-sigma
    lists of trial records and the two slopes (NaN below two sigmas).
    """
    sigmas = list(sigmas)
    records = []
    for sigma in sigmas:
        per_trial = []
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            noise = tuple(sample_noise(rng, gt.d) for _ in range(gt.n))
            model = gt.with_noise(noise, sigma)
            observed = model.observed_matrices()
            u, beta, _, _ = converge(observed, seed=seed)
            u_circ, ax_obs = nearest_exact_frame(gt, u)
            ax_pred = bd.predicted_direction(model, u_circ)
            per_trial.append(
                {
                    "sigma": sigma,
                    "trial": t,
                    "observed_alpha": np.linalg.norm(ax_obs),
                    "direction_residual": float(np.linalg.norm(ax_obs - ax_pred)),
                    "alpha_apriori": bd.a_priori_bound(model, u_circ),
                    "alpha_explicit": bd.explicit_bound(model)[0],
                    "alpha_aposteriori": bd.a_posteriori_bound(
                        observed, u, beta, sigma
                    ),
                }
            )
        records.append(per_trial)
    mean_resid = [np.mean([r["direction_residual"] for r in recs]) for recs in records]
    mean_alpha = [np.mean([r["observed_alpha"] for r in recs]) for recs in records]
    return {
        "sigmas": sigmas,
        "records": records,
        "direction_residual_slope": _fit_slope(sigmas, mean_resid),
        "observed_alpha_slope": _fit_slope(sigmas, mean_alpha),
    }


def verify_bounds(gt, sigma, trials, seed=0):
    """Containment study of the matrix-set bounds with 10% slack.

    Per trial: fresh noise, full pipeline, pass/fail per bound.  Failures
    are counted, never raised.  Returns a summary dict with per-trial
    records and containment fractions.
    """
    summary = {"trials": trials, "sigma": sigma, "records": [], "fractions": {}}
    if trials == 0:
        return summary
    clean = gt.clean_matrices()
    keys = ("apriori", "explicit", "aposteriori", "eigenvalue", "order")
    counts = dict.fromkeys(keys, 0)
    errors = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        noise = tuple(sample_noise(rng, gt.d) for _ in range(gt.n))
        model = gt.with_noise(noise, sigma)
        observed = model.observed_matrices()
        try:
            u, beta, _, _ = converge(observed, seed=seed)
            u_circ, log = nearest_exact_frame(gt, u)
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
                if gap > CONTAINMENT_SLACK * limit + CONTAINMENT_ATOL:
                    eig_ok = False
            record = {
                "trial": t,
                "observed_alpha": alpha,
                "apriori": bool(alpha <= CONTAINMENT_SLACK * apriori + CONTAINMENT_ATOL),
                "explicit": bool(alpha <= CONTAINMENT_SLACK * explicit + CONTAINMENT_ATOL),
                "aposteriori": bool(
                    alpha <= CONTAINMENT_SLACK * aposteriori + CONTAINMENT_ATOL
                ),
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


def verify_component_bound(z, sigma, eps, trials, seed=0):
    """Containment study of the component estimation bound (tensor path)."""
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
            noisy = gen_tensor(z, sigma, eps, seed=[seed, t])
            observed, _ = tn.observable_matrices(noisy, d, theta)
            u, _, _, _ = converge(observed, seed=seed)
            estimate = tn.estimate_components(u, observed)
            matched, _ = tn.match_columns(estimate, reference)
            err = float(np.max(np.abs(matched - reference)))
            ok = err <= CONTAINMENT_SLACK * bound + CONTAINMENT_ATOL
            record = {"trial": t, "error_max": err, "bound": bound, "contained": ok}
            passed += ok
        except JointTriError as exc:
            errors += 1
            record = {"trial": t, "error": type(exc).__name__}
        summary["records"].append(record)
    summary["errors"] = errors
    summary["fraction"] = passed / trials
    return summary
