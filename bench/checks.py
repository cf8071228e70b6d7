"""Output checks applied to every timed op.

Each check takes the op's parsed output and its parsed input file and
returns a list of failure reasons; an empty list means the output is
correct.  Quantities are recomputed here with plain numpy from the input
file, not through jointtri, so a defect in the package cannot hide itself.
"""

import math

import numpy as np

ORTHOGONALITY_TOL = 1e-10
LOSS_RTOL = 1e-8
CONTAINMENT_FLOOR = 0.95
COMPONENT_SLACK = 1.1
COMPONENT_ATOL = 1e-12


def non_finite(obj):
    """True if any number anywhere in a parsed JSON value is NaN or infinite."""
    if isinstance(obj, dict):
        return any(non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(non_finite(v) for v in obj)
    return isinstance(obj, float) and not math.isfinite(obj)


def _unvec(values, d):
    return np.asarray(values, dtype=float).reshape((d, d), order="F")


def observed_matrices(model):
    """M_n = V diag(lambda_n) V^{-1} + sigma W_n from a model file."""
    d = int(model["d"])
    v = _unvec(model["V"], d)
    v_inv = np.linalg.inv(v)
    sigma = float(model["sigma"])
    return [
        v @ np.diag(lam) @ v_inv + sigma * _unvec(w, d)
        for lam, w in zip(model["lambda"], model["W"])
    ]


def frame_of(output):
    frame = output["frame"]
    return _unvec(frame["U"], int(frame["d"]))


def orthogonality_error(u):
    return float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))


def check_triangularize(output, model):
    u = frame_of(output)
    failures = []
    if orthogonality_error(u) > ORTHOGONALITY_TOL:
        failures.append("frame is not orthogonal within 1e-10")
    recomputed = sum(
        float(np.sum(np.tril(u.T @ m @ u, -1) ** 2)) for m in observed_matrices(model)
    )
    if not math.isclose(output["loss"], recomputed, rel_tol=LOSS_RTOL, abs_tol=1e-15):
        failures.append(
            f"reported loss {output['loss']!r} != recomputed {recomputed!r}"
        )
    return failures


def check_verify(output, model, trials):
    failures = []
    if output.get("errors") != 0:
        failures.append(f"verify reported {output.get('errors')!r} errored trials")
    if output.get("trials") != trials or len(output.get("records", [])) != trials:
        failures.append("verify did not report every trial")
    fractions = output.get("fractions", {})
    if len(fractions) != 5:
        failures.append("verify did not report five containment fractions")
    for key, value in fractions.items():
        if value < CONTAINMENT_FLOOR:
            failures.append(f"containment fraction {key}={value} < {CONTAINMENT_FLOOR}")
    return failures


def check_tensor(output, _tensor):
    error, bound = output["component_error"], output["component_bound"]
    if error > COMPONENT_SLACK * bound + COMPONENT_ATOL:
        return [f"component_error {error!r} exceeds 1.1 * bound {bound!r}"]
    return []
