"""Synthetic ground truth, the exact triangularizer a frame perturbs, and studies.

The studies measure each computed frame against the one exact
triangularizer it perturbs (nearest_exact_frame), found by assigning
eigenvalue columns instead of listing all 2^d d! exact frames, so they run
at any d.  Random draws use numpy's PCG64 generator; every generator is a
pure function of its seed, and per-trial streams are derived from
(seed, trial index) so trials are order-independent; a trial's n noise
matrices come from one sample_noise draw.

The studies run all their trials as one batch: the certified init and
descent, the nearest frame (one QR, one orthogonal_log call: one LAPACK
real Schur call per trial, no expm) and the a posteriori certificate (one
batched SVD) each take a leading trial axis
and the study's errors.Failures.  Stages run in the order one trial alone
takes them; a trial leaves at its first JointTriError, which goes to its
slot, and each stage returns arrays over the trials still running, so
every record is the one-trial-at-a-time record, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import tensor as tn
from . import triangularize as tri
from .errors import (
    DegenerateSpectrum,
    Failures,
    NoComparableFrame,
)
from .linalg import assign_columns, blockwise_norm, min_pairwise_gap, orthogonal_log

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
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("d and N must be >= 1")
        if not (1.0 <= self.kappa_target < np.inf and 0.0 < self.gamma_target < np.inf):
            raise ValueError("need finite kappa_target >= 1 and gamma_target > 0")


def _random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _conditioned(rng, d, kappa):
    """Q1 diag(geomspace(1, 1/kappa)) Q2^T, of condition number kappa, for
    random orthogonal Q1 and Q2 drawn in that order."""
    q1 = _random_orthogonal(rng, d)
    q2 = _random_orthogonal(rng, d)
    return q1 @ np.diag(np.geomspace(1.0, 1.0 / kappa, d)) @ q2.T


def sample_noise(rng, d, n):
    """n unit-Frobenius-norm noise matrices as one (n, d, d) array: the bits
    of n successive draws of one matrix each, each divided by its norm."""
    w = rng.standard_normal((n, d, d))
    return w / blockwise_norm(w)[:, None, None]


def gen_ground_truth(spec, sigma=0.0):
    """Reproducible ground-truth model hitting the kappa and gamma targets.

    V = Q1 diag(geomspace(1, 1/kappa)) Q2^T has condition number exactly
    kappa_target; eigenvalue rows are rescaled so the joint eigengap
    equals gamma_target exactly; noise is unit Frobenius norm.
    """
    rng = np.random.default_rng(spec.seed)
    v = _conditioned(rng, spec.d, spec.kappa_target)
    lam = rng.standard_normal((spec.n, spec.d))
    if spec.d > 1:
        gamma0 = min_pairwise_gap(lam)
        while gamma0 == 0.0:
            lam = rng.standard_normal((spec.n, spec.d))
            gamma0 = min_pairwise_gap(lam)
        lam = lam * np.sqrt(spec.gamma_target / gamma0)
    noise = sample_noise(rng, spec.d, spec.n)
    return bd.GroundTruthModel(v=v, lambda_table=lam, noise=noise, sigma=sigma)


def gen_components(d, kappa_target=2.0, seed=0, min_col_frac=0.3, max_tries=1000):
    """Component matrix with condition number kappa_target (exactly).

    Rejection-samples the orthogonal factors until every column sum is
    bounded away from zero (relative to the column scale), so the
    observable-matrix construction is well posed.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        z = _conditioned(rng, d, kappa_target)
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


def nearest_exact_frame(gt, u, fail=None):
    """The exact triangularizer that U perturbs, and the logarithm of U
    relative to it; returns (frame, log(frame^T U)), with alpha the norm of
    the log.  U may be a (T, d, d) stack, one frame per trial.

    Every exact triangularizer is QR(V[:, pi]) S, pi a column permutation
    and S a diagonal sign matrix.  Column k of the diagonals of U^T M_n U
    over the clean set is assigned to its nearest column of the lambda
    table (Euclidean distance over the N rows), which gives pi; then
    S = sign(diag(Q^T U)).  pi is accepted only when it is a permutation
    and every assigned distance is below sqrt(gamma) / 2, half the smallest
    distance between two lambda columns, so no column could have been
    assigned elsewhere; otherwise, or on a zero sign, NoComparableFrame is
    raised.  The returned alpha is the distance to an exact frame, so it is
    never below the distance to the nearest one.  A stack takes one QR and
    one orthogonal_log call; with ``fail`` (the stack is over its rows) a
    trial that fails leaves it, and the results are over the trials still
    running.  Without it the first failure is raised.
    """
    u = np.asarray(u, dtype=float)
    stack = u.reshape(-1, *u.shape[-2:])
    fail = Failures(len(stack)) if fail is None else fail
    diagonals = np.diagonal(tri.rotated(stack, gt.clean_matrices()), axis1=-2, axis2=-1)
    distance = np.linalg.norm(
        diagonals[..., None] - gt.lambda_table[:, None, :], axis=-3
    )
    radius = np.sqrt(gt.eigengap()) / 2 if gt.d > 1 else np.inf
    perm, certified = assign_columns(distance, radius)
    stack, perm = fail.drop(
        ~certified, NoComparableFrame("U is not near a unique exact triangularizer"),
        stack, perm,
    )
    q, r = np.linalg.qr(gt.v[:, perm].transpose(1, 0, 2))
    q = q * np.sign(r.diagonal(axis1=-2, axis2=-1))[:, None, :]
    signs = np.sign(np.diagonal(q.swapaxes(1, 2) @ stack, axis1=-2, axis2=-1))
    stack, q, signs = fail.drop(
        ~np.all(signs, axis=-1),
        NoComparableFrame("U is orthogonal to a column of the exact frame"),
        stack, q, signs,
    )
    frame = q * signs[:, None, :]
    rows = fail.rows
    logs = orthogonal_log(frame.swapaxes(1, 2) @ stack, fail)
    (frame,) = fail.since(rows, frame)
    if u.ndim == 2:
        return frame[0], logs[0]
    return frame, logs


def converge(mset, beta_strategy="ones", seed=0, max_iters=2000, grad_tol=1e-10,
             fail=None):
    """Certified init plus Gauss-Newton descent; a stall at rounding is accepted.

    Returns (frame, beta, trace, U0, A), U0 the certified initial frame
    and A = U^T M U the rotated stack at the frame, as the descent formed
    it.  For a batch of sets the trials run as one batch and every output
    carries the trial axis (the traces as a list); with ``fail`` (the batch
    is over its rows) a trial whose init fails leaves it, and the outputs
    are over the trials still running.  Without it the first failure is
    raised.
    """
    batch = mset.as_batch()
    fail = Failures(len(batch.matrices)) if fail is None else fail
    rows = fail.rows
    betas, inits = tri.find_separating_beta(
        batch, strategy=beta_strategy, seed=seed, fail=fail)
    (batch,) = fail.since(rows, batch)
    frames, traces, stacks = inits, [], batch.matrices
    if len(inits):
        config = tri.OptimizerConfig(max_iters=max_iters, grad_tol=grad_tol)
        frames, traces, stacks = tri.descend_batch(batch, inits, config)
    if mset.matrices.ndim == 3:
        return frames[0], betas[0], traces[0], inits[0], stacks[0]
    return frames, betas, traces, inits, stacks


def _fit_slope(xs, ys):
    """The log-log slope of ys over xs; None (null in JSON) below two points."""
    if len(xs) < 2:
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _study(gt, sigmas, trials, seed):
    """The pipeline shared by sigma_sweep and verify_bounds, with every
    (sigma, trial) pair in one batch, sigma-major.

    Pair p has sigma sigmas[p // trials] and the noise of trial p % trials,
    drawn from the stream (seed, trial).  The stages run in the order one
    trial alone takes them: certified init and descent, the nearest exact
    frame, the a priori, explicit and a posteriori bounds.  A pair leaves
    at its first JointTriError, recorded in ``errors``; the others carry
    on.  Returns (errors, models, live), live the arrays over the
    surviving pairs.
    """
    noise = [sample_noise(np.random.default_rng([seed, t]), gt.d, gt.n)
             for t in range(trials)]
    models = np.array(
        [gt.with_noise(noise[t], sigma) for sigma in sigmas for t in range(trials)],
        dtype=object,
    )
    fail = Failures(len(models), record=True)
    if not len(models):
        return fail.errors, models, {"pair": fail.rows}
    sigma = np.array([model.sigma for model in models], dtype=float)
    observed = tri.MatrixSet(
        gt.clean_matrices().matrices
        + sigma[:, None, None, None] * np.array([model.noise for model in models])
    )
    u, beta, _, _, stacks = converge(observed, seed=seed, fail=fail)
    converged = fail.rows
    frame, log = nearest_exact_frame(gt, u, fail)
    framed = fail.rows
    apriori = fail.each(bd.a_priori_bound, models[framed], frame)
    bounded = fail.rows
    explicit = fail.each(lambda model: bd.explicit_bound(model)[0], models[bounded])
    checked = fail.rows
    aposteriori = bd.a_posteriori_bound(
        observed[checked], *fail.since(converged, u, beta), sigma[checked], fail)
    live = {"pair": fail.rows, "aposteriori": aposteriori}
    (live["stack"],) = fail.since(converged, stacks)
    live["frame"], live["log"] = fail.since(framed, frame, log)
    (live["apriori"],) = fail.since(bounded, apriori)
    (live["explicit"],) = fail.since(checked, explicit)
    live["alpha"] = blockwise_norm(live["log"])
    return fail.errors, models, live


def sigma_sweep(gt, sigmas, trials=1, seed=0):
    """Scaling study over a decreasing noise grid.

    Per sigma and trial: certified init + descent, observed distance to
    the nearest exact triangularizer, all bounds, and the residual of the
    first-order direction prediction.  All (sigma, trial) pairs run as one
    batch; the first failing pair's error is raised.  Log-log slopes are
    fitted on the per-sigma trial means.  Returns a dict with the sigmas,
    the per-sigma lists of trial records and the two slopes (None below
    two sigmas).
    """
    sigmas = list(sigmas)
    failures, models, live = _study(gt, sigmas, trials, seed)
    for error in failures:
        if error is not None:
            raise error
    records = [[] for _ in sigmas]
    for k, pair in enumerate(live["pair"].tolist()):
        ax_pred = bd.predicted_direction(models[pair], live["frame"][k])
        records[pair // trials].append(
            {
                "sigma": models[pair].sigma,
                "trial": pair % trials,
                "observed_alpha": live["alpha"][k],
                "direction_residual": float(np.linalg.norm(live["log"][k] - ax_pred)),
                "alpha_apriori": live["apriori"][k],
                "alpha_explicit": live["explicit"][k],
                "alpha_aposteriori": live["aposteriori"][k],
            }
        )
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

    Per trial: fresh noise, full pipeline, pass/fail per bound; the trials
    run as one batch.  Failures are counted, never raised.  Returns a
    summary dict with per-trial records and containment fractions.
    """
    summary = {"trials": trials, "sigma": sigma, "records": [], "fractions": {}}
    if trials == 0:
        return summary
    keys = ("apriori", "explicit", "aposteriori", "eigenvalue", "order")
    failures, models, live = _study(gt, [sigma], trials, seed)
    # per matrix, the diagonal at U of the observed set against that of the
    # clean set at the exact frame: the joint-eigenvalue error
    observed_diag = np.diagonal(live["stack"], axis1=-2, axis2=-1)
    clean_diag = np.diagonal(
        tri.rotated(live["frame"], gt.clean_matrices()), axis1=-2, axis2=-1)
    limit = bd.eigenvalue_error_bound(
        live["alpha"][:, None], sigma, np.array(gt.noise_free.clean_norms),
        blockwise_norm(np.array([models[pair].noise for pair in live["pair"]])),
    )
    gap = np.max(np.abs(observed_diag - clean_diag), axis=-1)
    eigenvalue = ~np.any(gap > CONTAINMENT_SLACK * limit + CONTAINMENT_ATOL, axis=-1)
    counts = dict.fromkeys(keys, 0)
    rows = dict(zip(live["pair"].tolist(), range(len(live["pair"]))))
    for t in range(trials):
        if t not in rows:
            summary["records"].append({"trial": t, "error": type(failures[t]).__name__})
            continue
        k = rows[t]
        alpha = live["alpha"][k]
        record = {"trial": t, "observed_alpha": alpha}
        for key in ("apriori", "explicit", "aposteriori"):
            record[key] = bool(alpha <= CONTAINMENT_SLACK * live[key][k] + CONTAINMENT_ATOL)
        record["eigenvalue"] = bool(eigenvalue[k])
        record["order"] = bool(live["apriori"][k] <= live["explicit"][k])
        summary["records"].append(record)
        for key in keys:
            counts[key] += record[key]
    summary["errors"] = trials - len(rows)
    summary["fractions"] = {key: counts[key] / trials for key in keys}
    return summary


def verify_component_bound(z, sigma, eps, trials, seed=0):
    """Containment study of the component estimation bound (tensor path);
    the trials' observable matrix sets converge as one batch.  With no
    trials the fraction is None."""
    summary = {"trials": trials, "sigma": sigma, "records": [], "fraction": None}
    if trials == 0:
        return summary
    bound = tn.component_error_bound(z, eps, sigma)  # rejects a malformed Z before use
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    theta = np.ones(d) / np.sqrt(d)
    reference = z / z.sum(axis=0)
    fail = Failures(trials, record=True)

    def observed(t):
        noisy = gen_tensor(z, sigma, eps, seed=[seed, t])
        return tn.observable_matrices(noisy, theta)[0].matrices

    sets = fail.each(observed, range(trials))
    estimates = ()
    if len(sets):
        # with theta = ones, sum_n M_n = I: the ones pencil never separates
        _, _, _, _, stacks = converge(
            tri.MatrixSet(sets), beta_strategy="random", seed=seed, fail=fail)
        estimates = tn.estimate_components(stacks)
    matched = fail.each(lambda estimate: tn.match_columns(estimate, reference)[0], estimates)
    matched = dict(zip(fail.rows.tolist(), matched))  # trial -> matched estimate
    passed = 0
    for t in range(trials):
        if t not in matched:
            summary["records"].append({"trial": t, "error": type(fail.errors[t]).__name__})
            continue
        err = float(np.max(np.abs(matched[t] - reference)))
        ok = err <= CONTAINMENT_SLACK * bound + CONTAINMENT_ATOL
        summary["records"].append({"trial": t, "error_max": err, "bound": bound, "contained": ok})
        passed += ok
    summary["errors"] = trials - len(matched)
    summary["fraction"] = passed / trials
    return summary
