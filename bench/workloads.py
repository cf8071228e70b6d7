"""The benchmark's workloads: how inputs are generated, the op timed, its checks.

Every input comes from ``jointtri generate`` with a seed derived from the
workload seed.  Model inputs use kappa = 3 and gamma = 1.  Each op is one
``jointtri.cli.run`` call on one input of the pool; ops cycle through the
pool, so per-input differences in descent length average out.  Where those
differences are large the pool is about as large as the number of ops in a
25-second run; triangularize_d32, whose inputs cost within a few percent of
each other and take longest to generate, has a small pool to keep set-up
short.
"""

import statistics
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import checks
import reference

VERIFY_TRIALS = 4


def _mean_fraction_min(fractions):
    """Smallest of the five containment fractions, pooled over ops."""
    keys = fractions[0].keys()
    return min(statistics.fmean(f[key] for f in fractions) for key in keys)


class Quality(NamedTuple):
    """A workload's result-quality figure, reported but not gated."""

    name: str
    unit: str
    better: str
    extract: Callable  # checked output -> value
    aggregate: Callable  # values of all checked ops -> figure


@dataclass(frozen=True)
class Workload:
    name: str
    generate: tuple  # `jointtri generate` flags, without --seed and --output
    command: tuple  # the timed subcommand and flags, without --input and --output
    pool: int  # distinct inputs generated in set-up
    problems_per_op: int  # verify trials, triangularized files or tensors per op
    check: Callable  # (output, input) -> list of failure reasons
    quality: Quality
    reference: Callable  # timed next to each op; see reference.py


def _model(d, n):
    return ("--kind", "model", "--d", str(d), "--N", str(n),
            "--kappa", "3", "--gamma", "1", "--sigma", "1e-3")


_CERTIFICATE = Quality(
    "certificate_p50", "rad", "lower", lambda out: out["aposteriori"], statistics.median
)

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's containment study: many tiny solves, dominated by the
        # enumeration-plus-logm nearest-frame oracle.
        Workload(
            name="verify_d4",
            generate=_model(4, 4),
            command=("verify", "--sigma", "1e-3", "--trials", str(VERIFY_TRIALS)),
            pool=64,
            problems_per_op=VERIFY_TRIALS,
            check=partial(checks.check_verify, trials=VERIFY_TRIALS),
            quality=Quality("containment_min", "fraction", "higher",
                            lambda out: out["fractions"], _mean_fraction_min),
            reference=reference.small_linalg,
        ),
        # Few large matrices: the dense d^2 x d^2 commutator operators and
        # their SVD in the bounds dominate; no oracle.
        Workload(
            name="triangularize_d32",
            generate=_model(32, 8),
            command=("triangularize", "--sigma", "1e-3"),
            pool=8,
            problems_per_op=1,
            check=checks.check_triangularize,
            quality=_CERTIFICATE,
            reference=reference.dense,
        ),
        # Many matrices per frame: the per-matrix loss and gradient loops
        # dominate; the bounds are small.
        Workload(
            name="triangularize_n64",
            generate=_model(12, 64),
            command=("triangularize", "--sigma", "1e-3"),
            pool=48,
            problems_per_op=1,
            check=checks.check_triangularize,
            quality=_CERTIFICATE,
            reference=reference.small_linalg,
        ),
        # The only workload through tensor, dominated by the 8! column
        # matching; no bounds, no enumeration.
        Workload(
            name="tensor_d8",
            generate=("--kind", "tensor", "--d", "8", "--N", "8",
                      "--kappa", "2", "--sigma", "1e-4"),
            command=("tensor", "--d", "8"),
            pool=48,
            problems_per_op=1,
            check=checks.check_tensor,
            quality=Quality("component_error_p50", "ratio", "lower",
                            lambda out: out["component_error"], statistics.median),
            reference=reference.small_linalg,
        ),
    )
}
