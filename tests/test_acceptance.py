"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package at desk scale and
registers a one-line PASS/FAIL verdict printed in the terminal summary.
"""

import json
import math

import numpy as np

from conftest import record_acceptance
from jointtri import bounds as bd
from jointtri import io
from jointtri import tensor as tn
from jointtri import triangularize as tri
from jointtri.cli import run as cli_run
from jointtri.harness import (
    GeneratorSpec,
    converge,
    gen_components,
    gen_ground_truth,
    nearest_exact_frame,
    sample_noise,
    sigma_sweep,
    verify_bounds,
    verify_component_bound,
)
from jointtri.linalg import skew_exp
from jointtri.triangularize import loss
from oracle import enumerate_exact_triangularizers


def random_unit_skew(rng, d):
    a = rng.standard_normal((d, d))
    x = a - a.T
    return x / np.linalg.norm(x)


def test_criterion_1_noiseless_exactness():
    worst_loss = 0.0
    worst_dist = 0.0
    for seed in range(20):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=4, kappa_target=3.0, seed=seed))
        clean = gt.clean_matrices()
        u, _, _, _, _ = converge(clean, grad_tol=1e-12)
        _, log = nearest_exact_frame(gt, u)
        alpha = np.linalg.norm(log)
        worst_loss = max(worst_loss, loss(u, clean))
        worst_dist = max(worst_dist, alpha)
    ok = worst_loss <= 1e-20 and worst_dist <= 1e-8
    record_acceptance(
        "criterion 1 noiseless exactness "
        f"(max loss {worst_loss:.2e}, max distance {worst_dist:.2e})",
        ok,
    )
    assert ok


def test_criterion_2_triangularizer_census():
    ok = True
    details = []
    for d, n in ((2, 2), (3, 3)):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=n, kappa_target=2.0, seed=100 + d))
        frames = enumerate_exact_triangularizers(gt)
        clean = gt.clean_matrices()
        count = len(frames)
        expected = 2**d * math.factorial(d)
        max_loss = max(loss(f, clean) for f in frames)
        min_gap = min(
            np.linalg.norm(frames[i] - frames[j])
            for i in range(count)
            for j in range(i + 1, count)
        )
        ok = ok and count == expected and max_loss <= 1e-18 and min_gap > 1e-6
        details.append(f"d={d}: {count} frames, max loss {max_loss:.2e}")
    record_acceptance("criterion 2 triangularizer census (" + "; ".join(details) + ")", ok)
    assert ok


def test_criterion_3_derivative_conformance():
    worst_grad = 0.0
    worst_hess = 0.0
    for seed in range(3):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, kappa_target=2.0, seed=200 + seed))
        rng = np.random.default_rng(seed)
        noise = sample_noise(rng, 4, 3)
        mset = gt.with_noise(noise, 1e-2).observed_matrices()
        u = skew_exp(random_unit_skew(rng, 4), 0.3)
        g = tri.gradient(u, mset)
        for _ in range(20):
            x = random_unit_skew(rng, 4)
            h = 1e-6
            fd1 = (
                loss(u @ skew_exp(x, h), mset) - loss(u @ skew_exp(x, -h), mset)
            ) / (2 * h)
            analytic1 = np.sum(g * x)
            worst_grad = max(
                worst_grad, abs(fd1 - analytic1) / max(abs(analytic1), 1.0)
            )
            h2 = 1e-4
            fd2 = (
                loss(u @ skew_exp(x, h2), mset)
                - 2 * loss(u, mset)
                + loss(u @ skew_exp(x, -h2), mset)
            ) / h2**2
            analytic2 = tri.hessian_form(u, mset, x)
            worst_hess = max(
                worst_hess, abs(fd2 - analytic2) / max(abs(analytic2), 1.0)
            )
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-5
    record_acceptance(
        "criterion 3 derivative conformance "
        f"(gradient rel err {worst_grad:.2e}, curvature rel err {worst_hess:.2e})",
        ok,
    )
    assert ok


def test_criterion_4_operator_spectrum_floor():
    violations = 0
    for seed in range(100):
        kappa = 1.0 + 0.5 * (seed % 5)
        gt = gen_ground_truth(
            GeneratorSpec(d=3 + seed % 2, n=3, kappa_target=kappa, seed=seed)
        )
        clean = gt.clean_matrices()
        _, u_circ = tri.find_separating_beta(clean)
        gram = tri.gauss_newton_matrix(tri.rotated(u_circ, clean))
        smallest_singular = np.linalg.svd(gram, compute_uv=False)[-1]
        floor = gt.eigengap() / np.linalg.cond(gt.v) ** 4
        if smallest_singular < floor - 1e-12:
            violations += 1
    ok = violations == 0
    record_acceptance(
        f"criterion 4 operator spectrum floor (violations {violations}/100)", ok
    )
    assert ok


def test_criterion_5_first_order_scaling():
    gt = gen_ground_truth(
        GeneratorSpec(d=3, n=3, kappa_target=2.0, seed=300), sigma=0.0
    )
    report = sigma_sweep(gt, [1e-3, 5e-4, 2.5e-4, 1.25e-4], trials=1, seed=0)
    resid_slope = report["direction_residual_slope"]
    alpha_slope = report["observed_alpha_slope"]
    ok = resid_slope >= 1.7 and abs(alpha_slope - 1.0) <= 0.2
    record_acceptance(
        "criterion 5 first-order scaling "
        f"(residual slope {resid_slope:.3f}, alpha slope {alpha_slope:.3f})",
        ok,
    )
    assert ok


def test_criterion_6_bound_containment():
    gt = gen_ground_truth(
        GeneratorSpec(d=4, n=4, kappa_target=3.0, seed=400), sigma=1e-3
    )
    summary = verify_bounds(gt, 1e-3, trials=100, seed=0)
    fr = summary["fractions"]
    z = gen_components(4, kappa_target=3.0, seed=400)
    comp = verify_component_bound(z, 1e-3, 1.0, trials=100, seed=0)
    ok = (
        fr["apriori"] >= 0.95
        and fr["explicit"] >= 0.95
        and fr["aposteriori"] >= 0.95
        and fr["eigenvalue"] >= 0.95
        and fr["order"] == 1.0
        and comp["fraction"] >= 0.95
    )
    record_acceptance(
        "criterion 6 bound containment (apriori {apriori:.2f}, explicit "
        "{explicit:.2f}, aposteriori {aposteriori:.2f}, eigenvalue "
        "{eigenvalue:.2f}, order {order:.2f}, component {comp:.2f})".format(
            comp=comp["fraction"], **fr
        ),
        ok,
    )
    assert ok


def test_criterion_7_certified_initialization():
    contained = 0
    trials = 20
    for seed in range(trials):
        gt = gen_ground_truth(
            GeneratorSpec(d=3, n=3, kappa_target=2.0, seed=500 + seed), sigma=0.0
        )
        observed = gt.observed_matrices()
        beta, u_init = tri.find_separating_beta(observed)
        sigma_max, _, _ = bd.init_noise_threshold(gt, beta, u_init)
        model = gt.with_noise(gt.noise, 0.5 * sigma_max)
        u, _, _, _, _ = converge(model.observed_matrices(), grad_tol=1e-12)
        u_circ, log = nearest_exact_frame(gt, u)
        alpha = np.linalg.norm(log)
        limit = bd.a_priori_bound(model, u_circ)
        contained += alpha <= 1.1 * limit + 1e-12
    ok = contained >= 0.95 * trials
    record_acceptance(
        f"criterion 7 certified initialization (contained {contained}/{trials})", ok
    )
    assert ok


def test_criterion_8_tensor_pipeline():
    # exact end-to-end component recovery at zero noise
    z = gen_components(4, kappa_target=2.0, seed=600)
    t = tn.tensor_from_components(z)
    theta = np.ones(4) / 2.0
    mset, pencil = tn.observable_matrices(t, theta)
    _, _, _, _, a = converge(mset, grad_tol=1e-12)
    y = tn.estimate_components(a)
    z_star = tn.recover_scales(pencil, y)
    matched, _ = tn.match_columns(z_star, z)
    recovery_err = float(np.max(np.abs(matched - z)))

    # pencil-weighted observable matrices resolve the identity
    weights = 2.0 * theta
    identity_err = float(
        np.max(np.abs(sum(w * m for w, m in zip(weights, mset.matrices)) - np.eye(4)))
    )

    # first-order noise term: finite-difference residual decays linearly
    rng = np.random.default_rng(601)
    e = rng.standard_normal(64)
    e /= np.linalg.norm(e)
    noise = tn.Tensor3(n=4, data=e)
    m_list, w_list, _, _ = tn.first_order_model(z, noise)
    residuals = []
    for sigma in (1e-3, 1e-4, 1e-5):
        noisy = tn.Tensor3(n=4, data=np.asarray(t.data) + sigma * e)
        observed, _ = tn.observable_matrices(noisy, theta)
        residuals.append(
            max(
                np.linalg.norm((m_hat - m) / sigma - w)
                for m_hat, m, w in zip(observed.matrices, m_list, w_list)
            )
        )
    linear_decay = residuals[1] <= 0.2 * residuals[0] and residuals[2] <= 0.2 * residuals[1]

    ok = recovery_err <= 1e-8 and identity_err <= 1e-10 and linear_decay
    record_acceptance(
        "criterion 8 tensor pipeline "
        f"(recovery err {recovery_err:.2e}, identity err {identity_err:.2e}, "
        f"noise-term residuals {residuals[0]:.2e} -> {residuals[1]:.2e} -> "
        f"{residuals[2]:.2e})",
        ok,
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    def invoke(*args):
        assert cli_run([str(a) for a in args]) == 0

    byte_equal = True
    for kind, extra in (("model", ["--N", 4]), ("tensor", ["--N", 4])):
        outs = [tmp_path / f"{kind}{i}.json" for i in range(2)]
        for out in outs:
            invoke(
                "generate", "--kind", kind, "--d", 4, *extra, "--kappa", 2,
                "--gamma", 1, "--sigma", 1e-3, "--seed", 11, "--output", out,
            )
        byte_equal = byte_equal and outs[0].read_bytes() == outs[1].read_bytes()

    model = tmp_path / "model0.json"
    for cmd, args in (
        ("triangularize", ["--sigma", 1e-3]),
        ("bounds", []),
        ("verify", ["--sigma", 1e-3, "--trials", 2]),
    ):
        outs = [tmp_path / f"{cmd}{i}.json" for i in range(2)]
        for out in outs:
            invoke(cmd, "--input", model, "--output", out, *args)
        byte_equal = byte_equal and outs[0].read_bytes() == outs[1].read_bytes()

    # serialization round trips are bit-exact
    round_trip = True
    gt = gen_ground_truth(GeneratorSpec(d=4, n=4, seed=11), sigma=1e-3)
    once = tmp_path / "gt1.json"
    twice = tmp_path / "gt2.json"
    io.dump_canonical(io.ground_truth_to_dict(gt), once)
    io.dump_canonical(
        io.ground_truth_to_dict(io.ground_truth_from_dict(io.load(once))), twice
    )
    round_trip = round_trip and once.read_bytes() == twice.read_bytes()
    report = json.loads((tmp_path / "bounds0.json").read_text())
    rewritten = tmp_path / "bounds-rewrite.json"
    io.dump_canonical(io.load(tmp_path / "bounds0.json"), rewritten)
    round_trip = round_trip and (
        rewritten.read_bytes() == (tmp_path / "bounds0.json").read_bytes()
    )
    assert report["alpha_apriori"] >= 0.0

    ok = byte_equal and round_trip
    record_acceptance(
        "criterion 9 determinism (byte-identical reruns "
        f"{byte_equal}, bit-exact round trips {round_trip})",
        ok,
    )
    assert ok
