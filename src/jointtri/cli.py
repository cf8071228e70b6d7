"""Command-line front end.

Subcommands: generate, triangularize, bounds, tensor, sweep, verify.
Exit codes: 0 success, 1 usage error, 2 numerical-precondition error
(the error class name goes to stderr).
"""

import argparse
import sys
from functools import cache

import numpy as np

from . import bounds as bd
from . import harness as hz
from . import io
from . import tensor as tn
from . import triangularize as tri
from .errors import DimensionMismatch, JointTriError
from .linalg import require_orthogonal, vec


def _at_least(low, kind=int, strict=False):
    """argparse type: a finite number of the given kind, >= low (> low if strict)."""

    def parse(text):
        value = kind(text)
        if not (np.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if strict else '>='} {low}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _sigma_grid(text):
    """argparse type: at least two finite, positive, strictly decreasing sigmas."""
    sigmas = [float(s) for s in text.split(",") if s]
    if len(sigmas) < 2 or not all(np.isfinite(s) and s > 0 for s in sigmas):
        raise argparse.ArgumentTypeError("need at least two finite, positive sigmas")
    if any(a <= b for a, b in zip(sigmas, sigmas[1:])):
        raise argparse.ArgumentTypeError("sigmas must be strictly decreasing")
    return sigmas


@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jointtri",
        description="Approximate joint triangularization and bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic model or tensor")
    gen.add_argument("--kind", choices=["model", "tensor"], required=True)
    # bounds and sweep need an eigengap, and the tensor bound a component gap
    gen.add_argument("--d", type=_at_least(2), required=True)
    gen.add_argument("--N", type=_at_least(1), required=True)
    gen.add_argument("--kappa", type=_at_least(1.0, float), default=2.0)
    gen.add_argument("--gamma", type=_at_least(0.0, float, strict=True), default=1.0)
    gen.add_argument("--sigma", type=_at_least(0.0, float), default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)

    tria = sub.add_parser("triangularize", help="triangularize a matrix set")
    tria.add_argument("--input", required=True)
    tria.add_argument("--output", required=True)
    tria.add_argument("--beta", choices=["ones", "random"], default="ones")
    tria.add_argument("--sigma", type=_at_least(0.0, float), default=0.0)
    tria.add_argument("--tol", type=_at_least(0.0, float, strict=True), default=1e-10)
    tria.add_argument("--max-iters", type=_at_least(0), default=2000)
    tria.add_argument("--seed", type=int, default=0)

    bnd = sub.add_parser("bounds", help="full bound report for a model")
    bnd.add_argument("--input", required=True)
    bnd.add_argument("--frame", help="candidate frame JSON; computed if omitted")
    bnd.add_argument("--output", required=True)
    bnd.add_argument("--beta", choices=["ones", "random"], default="ones")
    bnd.add_argument("--tol", type=_at_least(0.0, float, strict=True), default=1e-10)
    bnd.add_argument("--max-iters", type=_at_least(0), default=2000)
    bnd.add_argument("--seed", type=int, default=0)

    ten = sub.add_parser("tensor", help="decompose a third-order tensor")
    ten.add_argument("--input", required=True)
    ten.add_argument("--output", required=True)
    ten.add_argument("--d", type=int, required=True, help="the tensor's rank; must equal N")
    ten.add_argument("--theta", choices=["ones", "random"], default="ones")
    ten.add_argument("--tol", type=_at_least(0.0, float, strict=True), default=1e-10)
    ten.add_argument("--max-iters", type=_at_least(0), default=2000)
    ten.add_argument("--seed", type=int, default=0)

    swp = sub.add_parser("sweep", help="noise-scaling study")
    swp.add_argument("--input", required=True)
    swp.add_argument("--output", required=True)
    swp.add_argument(
        "--sigmas", type=_sigma_grid, default="1e-3,5e-4,2.5e-4,1.25e-4",
        help="comma-separated decreasing noise grid",
    )
    swp.add_argument("--trials", type=_at_least(1), default=1)
    swp.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verify", help="bound containment study")
    ver.add_argument("--input", required=True)
    ver.add_argument("--output", required=True)
    ver.add_argument("--sigma", type=_at_least(0.0, float), default=1e-3)
    ver.add_argument("--trials", type=_at_least(0), default=100)
    ver.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_generate(args):
    if args.kind == "model":
        spec = hz.GeneratorSpec(
            d=args.d,
            n=args.N,
            kappa_target=args.kappa,
            gamma_target=args.gamma,
            seed=args.seed,
        )
        gt = hz.gen_ground_truth(spec, sigma=args.sigma)
        io.dump_canonical(io.ground_truth_to_dict(gt), args.output)
    else:
        if args.d != args.N:
            raise DimensionMismatch("tensor generation requires d = N")
        z = hz.gen_components(args.d, kappa_target=args.kappa, seed=args.seed)
        t = hz.gen_tensor(z, args.sigma, 1.0, seed=args.seed)
        extra = {
            "Z": [row.tolist() for row in z],
            "sigma": args.sigma,
            "eps": 1.0,
        }
        io.dump_canonical(io.tensor_to_dict(t, extra=extra), args.output)
    return 0


def _cmd_triangularize(args):
    data = io.load(args.input)
    if "matrices" in data:
        mset = io.matrix_set_from_dict(data)
    else:
        # model file: assemble the observed (noisy) matrix set
        mset = io.ground_truth_from_dict(data).observed_matrices()
    u, beta, trace, _, a = hz.converge(
        mset, beta_strategy=args.beta, seed=args.seed,
        max_iters=args.max_iters, grad_tol=args.tol,
    )
    report = {
        "frame": io.frame_to_dict(u),
        "beta": beta.tolist(),
        "loss": tri.stack_loss(a),
        "aposteriori": bd.a_posteriori_bound(mset, u, beta, args.sigma),
        "trace": {
            "loss": trace.loss_values,
            "grad_norms": trace.grad_norms,
            "steps": trace.step_lengths,
            "termination": trace.termination,
        },
    }
    io.dump_canonical(report, args.output)
    return 0


def _cmd_bounds(args):
    gt = io.ground_truth_from_dict(io.load(args.input))
    observed = gt.observed_matrices()
    if args.frame:
        u = require_orthogonal(io.frame_from_dict(io.load(args.frame)))
        if u.shape != (gt.d, gt.d):
            raise DimensionMismatch("frame dimension does not match the model")
        beta, u_init = tri.find_separating_beta(
            observed, strategy=args.beta, seed=args.seed)
    else:
        u, beta, _, u_init, _ = hz.converge(
            observed, beta_strategy=args.beta, seed=args.seed,
            max_iters=args.max_iters, grad_tol=args.tol,
        )
    u_circ, log = hz.nearest_exact_frame(gt, u)
    alpha = np.linalg.norm(log)
    sigma_max, alpha_max, constants = bd.init_noise_threshold(gt, beta, u_init)
    eig_bound = max(
        bd.eigenvalue_error_bound(alpha, gt.sigma, m_norm, w_norm)
        for m_norm, w_norm in zip(gt.noise_free.clean_norms, gt.noise_norms)
    )
    explicit, gamma = bd.explicit_bound(gt)
    report = {
        "alpha_apriori": bd.a_priori_bound(gt, u_circ),
        "alpha_explicit": explicit,
        "alpha_aposteriori": bd.a_posteriori_bound(observed, u, beta, gt.sigma),
        "gamma": gamma,
        "epsilon": constants["epsilon"],
        "a_alpha": constants["a_alpha"],
        "a_sigma": constants["a_sigma"],
        "alpha_max": alpha_max,
        "sigma_max": sigma_max,
        "eigenvalue_error": eig_bound,
        "observed_alpha": alpha,
        "predicted_direction": vec(bd.predicted_direction(gt, u_circ)),
    }
    io.dump_canonical(report, args.output)
    return 0


def _cmd_tensor(args):
    data = io.load(args.input)
    t = io.tensor_from_dict(data)
    if args.d != t.n:
        raise DimensionMismatch("tensor decomposition requires d = N")
    if args.theta == "ones":
        theta = np.ones(t.n) / np.sqrt(t.n)
    else:
        theta = np.random.default_rng(args.seed).standard_normal(t.n)
        theta /= np.linalg.norm(theta)
    mset, pencil = tn.observable_matrices(t, theta)
    # with theta = ones, sum_n M_n = I: the ones pencil never separates
    u, _, _, _, a = hz.converge(
        mset, beta_strategy="random" if args.theta == "ones" else "ones", seed=args.seed,
        max_iters=args.max_iters, grad_tol=args.tol,
    )
    y = tn.estimate_components(a)
    z_star = tn.recover_scales(pencil, y)
    report = {
        "Z_star": [row.tolist() for row in z_star],
        "theta": theta.tolist(),
        "loss": tri.stack_loss(a),
        "frame": io.frame_to_dict(u),
    }
    components = io.components_from_dict(data)
    if components is not None:
        z, eps, sigma = components
        report["component_bound"] = tn.component_error_bound(z, eps, sigma)
        # Y's columns are Z's over their weighted sums w^T z_i, w = sqrt(N) theta;
        # theta = ones keeps the plain sums, as sqrt(N) (1 / sqrt(N)) need not be 1.0
        reference = z / (z.sum(axis=0) if args.theta == "ones" else np.sqrt(t.n) * theta @ z)
        matched, _ = tn.match_columns(y, reference)
        report["component_error"] = float(np.abs(matched - reference).max())
    io.dump_canonical(report, args.output)
    return 0


def _cmd_sweep(args):
    gt = io.ground_truth_from_dict(io.load(args.input))
    report = hz.sigma_sweep(gt, args.sigmas, trials=args.trials, seed=args.seed)
    io.dump_canonical(report, args.output)
    return 0


def _cmd_verify(args):
    gt = io.ground_truth_from_dict(io.load(args.input))
    summary = hz.verify_bounds(gt, args.sigma, args.trials, seed=args.seed)
    io.dump_canonical(summary, args.output)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "triangularize": _cmd_triangularize,
    "bounds": _cmd_bounds,
    "tensor": _cmd_tensor,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except JointTriError as exc:
        print(type(exc).__name__, file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
