"""Synthetic ground truth, exact-triangularizer enumeration, and studies.

Random draws use numpy's PCG64 generator; every generator is a pure
function of its seed, and per-trial streams are derived from
(seed, trial index) so trials are order-independent.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bd
from . import tensor as tn
from . import triangularize as tri
from .errors import (
    DegenerateSpectrum,
    JointTriError,
    LineSearchStalled,
    LogBranchAmbiguous,
    NoComparableFrame,
    TooLarge,
)
from .linalg import min_pairwise_gap, orthogonal_log

ENUMERATION_MAX_D = 5
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


@dataclass(frozen=True)
class TriangularizerFamily:
    """All 2^d d! exact joint triangularizers of a noiseless model.

    ``frames`` is one (2^d d!, d, d) array: for each column permutation of
    V (in ``itertools.permutations`` order), its QR factor times every
    sign pattern (in ``itertools.product`` order); ``dets`` are their determinants.
    """

    frames: np.ndarray
    dets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dets", np.linalg.det(self.frames))

    def __len__(self):
        return len(self.frames)


def enumerate_exact_triangularizers(gt):
    """Every exact triangularizer: QR of column-permuted V times sign flips."""
    if gt.d > ENUMERATION_MAX_D:
        raise TooLarge(f"enumeration limited to d <= {ENUMERATION_MAX_D}")
    if gt.d > 1 and gt.eigengap() <= 0.0:
        raise DegenerateSpectrum("gamma = 0; triangularizer family is not finite")
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=gt.d)))
    perms = np.array(list(itertools.permutations(range(gt.d))))
    q, r = np.linalg.qr(gt.v[:, perms].transpose(1, 0, 2))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    frames = q[:, None] * signs[None, :, None, :]
    return TriangularizerFamily(frames=frames.reshape(-1, gt.d, gt.d))


def distance_to_nearest(u, family):
    """Geodesic distance from U to the nearest family frame, exactly.

    Restricted to frames in the same connected component (determinant +1
    relative rotation).  For a rotation R with principal angles theta_k,
    ||I - R||_F^2 = sum 8 sin^2(theta_k / 2) <= sum 2 theta_k^2 =
    ||log R||_F^2, so the chordal distance ||F - U||_F is a lower bound on
    the geodesic distance ||log(F^T U)||_F.  Frames are visited in
    (chordal distance, index) order and the search stops at the first one
    whose chordal distance reaches the best geodesic distance so far: the
    result is the minimum over every comparable frame, usually after one
    matrix logarithm.  Frames whose logarithm hits the branch cut are
    skipped.  Returns (alpha, index of the nearest frame).
    """
    if not len(family):
        raise NoComparableFrame("empty triangularizer family")
    u = np.asarray(u, dtype=float)
    frames = family.frames
    index = np.flatnonzero(family.dets * np.linalg.det(u) > 0)
    if not index.size:
        raise NoComparableFrame("no frame shares the orientation of U")
    chordal = np.linalg.norm(frames[index] - u, axis=(1, 2))
    best = (np.inf, -1)
    for k in np.lexsort((index, chordal)):
        if chordal[k] >= best[0]:
            break
        i = int(index[k])
        try:
            alpha = np.linalg.norm(orthogonal_log(frames[i].T @ u))
        except LogBranchAmbiguous:
            continue
        if alpha < best[0]:
            best = (alpha, i)
    if best[1] < 0:
        raise NoComparableFrame("all candidate logarithms hit the branch cut")
    return best


def nearest_direction(u, family):
    """(alpha, index, alpha*X) of the relative rotation onto the family."""
    alpha, idx = distance_to_nearest(u, family)
    return alpha, idx, orthogonal_log(family.frames[idx].T @ u)


def converge(mset, beta_strategy="ones", seed=0, max_iters=2000, grad_tol=1e-10):
    """Certified init plus Gauss-Newton descent; a stall at rounding is accepted.

    Returns (frame, beta, trace).
    """
    beta, u_init = tri.find_separating_beta(mset, strategy=beta_strategy, seed=seed)
    config = tri.OptimizerConfig(max_iters=max_iters, grad_tol=grad_tol)
    try:
        u, trace = tri.descend(mset, u_init, config)
    except LineSearchStalled as stall:
        u, trace = stall.frame, stall.trace
    return u, beta, trace


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
    family = enumerate_exact_triangularizers(gt) if sigmas else None
    for sigma in sigmas:
        per_trial = []
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            noise = tuple(sample_noise(rng, gt.d) for _ in range(gt.n))
            model = gt.with_noise(noise, sigma)
            observed = model.observed_matrices()
            u, beta, _ = converge(observed, seed=seed)
            alpha, idx, ax_obs = nearest_direction(u, family)
            u_circ = family.frames[idx]
            ax_pred = bd.predicted_direction(model, u_circ)
            per_trial.append(
                {
                    "sigma": sigma,
                    "trial": t,
                    "observed_alpha": alpha,
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
    family = enumerate_exact_triangularizers(gt)
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
            u, beta, _ = converge(observed, seed=seed)
            alpha, idx = distance_to_nearest(u, family)
            u_circ = family.frames[idx]
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
            u, _, _ = converge(observed, seed=seed)
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
