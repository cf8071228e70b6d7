import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtri import bounds, harness, io, linalg, triangularize
from jointtri.errors import (
    Failures,
    LogBranchAmbiguous,
    NoComparableFrame,
    NoSeparatingBeta,
    SingularOperator,
)
from jointtri.harness import (
    GeneratorSpec,
    converge,
    gen_components,
    gen_ground_truth,
    gen_tensor,
    nearest_exact_frame,
    sample_noise,
    sigma_sweep,
    verify_bounds,
    verify_component_bound,
)
from jointtri.linalg import orthogonal_log, skew_exp
from jointtri.tensor import tensor_from_components
from jointtri.triangularize import loss
from output_hashes import value_bits
from oracle import (
    brute_force_nearest,
    enumerate_exact_triangularizers,
    sigma_sweep_per_trial,
    unit_noise,
    verify_bounds_per_trial,
    verify_component_bound_per_trial,
)


class TestGenGroundTruth:
    def test_unit_condition_gives_orthogonal_basis(self):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, kappa_target=1.0, seed=0))
        assert np.linalg.norm(gt.v.T @ gt.v - np.eye(4)) <= 1e-10

    def test_condition_number_hits_target(self):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, kappa_target=2.5, seed=1))
        assert abs(np.linalg.cond(gt.v) - 2.5) <= 0.25

    def test_eigengap_hits_target_exactly(self):
        spec = GeneratorSpec(d=4, n=3, gamma_target=0.7, seed=2)
        gt = gen_ground_truth(spec)
        assert abs(gt.eigengap() - 0.7) <= 1e-10

    @pytest.mark.parametrize(
        "kappa, gamma",
        [(np.nan, 1.0), (np.inf, 1.0), (0.5, 1.0), (2.0, np.nan), (2.0, np.inf), (2.0, 0.0)],
    )
    def test_rejects_non_finite_or_out_of_range_targets(self, kappa, gamma):
        with pytest.raises(ValueError):
            GeneratorSpec(d=3, n=3, kappa_target=kappa, gamma_target=gamma)

    def test_same_seed_is_bit_identical(self):
        spec = GeneratorSpec(d=4, n=4, seed=3)
        a = gen_ground_truth(spec, sigma=1e-3)
        b = gen_ground_truth(spec, sigma=1e-3)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.lambda_table, b.lambda_table)
        for wa, wb in zip(a.noise, b.noise):
            assert np.array_equal(wa, wb)

    def test_noise_has_unit_norm(self):
        gt = gen_ground_truth(GeneratorSpec(d=5, n=3, seed=4), sigma=1e-2)
        for w in gt.noise:
            assert np.isclose(np.linalg.norm(w), 1.0)

    @given(st.integers(1, 16), st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sample_noise_is_n_single_draws(self, d, n, seed):
        stack = sample_noise(np.random.default_rng(seed), d, n)
        rng = np.random.default_rng(seed)
        singles = [unit_noise(rng, d) for _ in range(n)]
        assert stack.shape == (n, d, d)
        assert np.array_equal(stack, singles)


class TestGenTensor:
    def test_noiseless_tensor_is_fully_symmetric(self):
        z = gen_components(3, seed=6)
        t = gen_tensor(z, 0.0, 1.0, seed=6)
        cube = t.as_cube()
        for axes in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert np.allclose(cube, np.transpose(cube, axes), atol=1e-14)

    def test_noise_magnitude_is_exact(self):
        z = gen_components(3, seed=7)
        ground = tensor_from_components(z)
        sigma, eps = 1e-2, 0.5
        noisy = gen_tensor(z, sigma, eps, seed=7)
        gap = np.linalg.norm(np.asarray(noisy.data) - np.asarray(ground.data))
        assert np.isclose(gap, sigma * eps)

    def test_same_seed_is_identical(self):
        z = gen_components(3, seed=8)
        a = gen_tensor(z, 1e-3, 1.0, seed=9)
        b = gen_tensor(z, 1e-3, 1.0, seed=9)
        assert np.array_equal(np.asarray(a.data), np.asarray(b.data))


class TestEnumerateTriangularizers:
    @pytest.mark.parametrize("d,count", [(2, 8), (3, 48)])
    def test_census(self, d, count):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=3, seed=10))
        frames = enumerate_exact_triangularizers(gt)
        assert len(frames) == count == 2**d * math.factorial(d)
        clean = gt.clean_matrices()
        for frame in frames:
            assert loss(frame, clean) <= 1e-18
        # pairwise distinct
        for i in range(count):
            for j in range(i + 1, count):
                assert np.linalg.norm(frames[i] - frames[j]) > 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_batched_qr_matches_per_permutation_loop(self, d):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=3, kappa_target=3.0, seed=30 + d))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=d)))
        frames = []
        for perm in itertools.permutations(range(d)):
            q, r = np.linalg.qr(gt.v[:, perm])
            q = q * np.sign(np.diag(r))
            frames.append(q * signs[:, None, :])
        assert np.array_equal(enumerate_exact_triangularizers(gt), np.concatenate(frames))


def random_unit_skew(rng, d):
    x = rng.standard_normal((d, d))
    x = x - x.T
    return x / np.linalg.norm(x)


def assert_matches_oracle(gt, u, frames):
    """nearest_exact_frame returns the brute-force nearest frame bit for bit,
    with the same alpha, and the log of U relative to it.

    ||log(F^T U)||_F >= ||F - U||_F, so a frame farther from U than the
    returned alpha in chordal distance cannot be nearer; the brute force
    runs over the others.  At small alpha the two distances differ by
    about alpha^3 / 24, below the rounding of the chordal one, so the cut
    allows for that rounding or it would drop the nearest frame itself.
    """
    frame, log = nearest_exact_frame(gt, u)
    alpha = np.linalg.norm(log)
    rounding = 64 * np.finfo(float).eps * gt.d
    keep = np.flatnonzero(np.linalg.norm(frames - u, axis=(1, 2)) <= alpha + rounding)
    best, k = brute_force_nearest(u, frames[keep])
    assert np.array_equal(frame, frames[keep[k]])
    assert alpha == best
    assert np.array_equal(log, orthogonal_log(frame.T @ u))
    return keep[k]


class TestDistanceToNearest:
    def test_member_has_zero_distance(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=12))
        frames = enumerate_exact_triangularizers(gt)
        frame, log = nearest_exact_frame(gt, frames[5])
        assert np.linalg.norm(log) <= 1e-10
        assert np.array_equal(frame, frames[5])

    def test_small_rotation_measured_exactly(self):
        rng = np.random.default_rng(13)
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=13))
        frames = enumerate_exact_triangularizers(gt)
        x = rng.standard_normal((3, 3))
        x = x - x.T
        x /= np.linalg.norm(x)
        u = frames[0] @ skew_exp(x, 0.01)
        _, log = nearest_exact_frame(gt, u)
        assert abs(np.linalg.norm(log) - 0.01) <= 1e-6

    def test_sign_flipped_frame_is_in_the_family(self):
        gt = gen_ground_truth(GeneratorSpec(d=2, n=2, seed=14))
        frames = enumerate_exact_triangularizers(gt)
        frame, log = nearest_exact_frame(gt, -frames[0])
        assert np.linalg.norm(log) <= 1e-10
        assert np.array_equal(frame, -frames[0])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orientation_filter_matches_relative_determinants(self, d):
        # at odd d a negated frame has the opposite orientation; the signs
        # S pick the frame of U's orientation
        rng = np.random.default_rng(40 + d)
        gt = gen_ground_truth(GeneratorSpec(d=d, n=3, seed=40 + d))
        frames = enumerate_exact_triangularizers(gt)
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        haar = q * np.sign(np.diag(r))
        near = -frames[7] @ skew_exp(random_unit_skew(rng, d), 0.05)
        for u in (near, -frames[3]):
            idx = assert_matches_oracle(gt, u, frames)
            assert np.linalg.det(frames[idx].T @ u) > 0
        # a Haar-random frame perturbs no exact frame: at d >= 4 its
        # diagonals miss the lambda columns and nothing is certified; at
        # d <= 3 these two land within sqrt(gamma) / 2 of a permutation,
        # and the frame certified is then the brute-force nearest
        for u in (haar, -haar):
            if d >= 4:
                with pytest.raises(NoComparableFrame):
                    nearest_exact_frame(gt, u)
            else:
                assert_matches_oracle(gt, u, frames)

    def test_nearest_direction_round_trip(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=15))
        frames = enumerate_exact_triangularizers(gt)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 3))
        x = x - x.T
        x /= np.linalg.norm(x)
        u = frames[3] @ skew_exp(x, 0.02)
        frame, ax = nearest_exact_frame(gt, u)
        assert np.array_equal(frame, frames[3])
        assert np.allclose(ax, 0.02 * x, atol=1e-8)

    def test_one_dimensional_frames_are_plus_and_minus_one(self):
        gt = gen_ground_truth(GeneratorSpec(d=1, n=2, seed=16))
        for sign in (1.0, -1.0):
            frame, log = nearest_exact_frame(gt, np.array([[sign]]))
            assert frame.tolist() == [[sign]]
            assert log.tolist() == [[0.0]]


class TestNearestSearchIsExact:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.floats(min_value=1e-6, max_value=2.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_minimum(self, d, seed, t):
        # t is None: a Haar-random U; otherwise a frame moved by t.  Near a
        # frame the assignment is the brute-force nearest; farther out it
        # may refuse, and a frame it does return is an exact frame whose
        # distance is at least the nearest one's
        rng = np.random.default_rng(seed)
        gt = gen_ground_truth(GeneratorSpec(d=d, n=3, seed=seed))
        frames = enumerate_exact_triangularizers(gt)
        if t is None:
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            u = q * np.sign(np.diag(r))
        else:
            u = frames[rng.integers(len(frames))] @ skew_exp(random_unit_skew(rng, d), t)
        if t is not None and t <= 0.01:
            assert_matches_oracle(gt, u, frames)
            return
        try:
            frame, log = nearest_exact_frame(gt, u)
        except NoComparableFrame:
            return
        assert any(np.array_equal(frame, f) for f in frames)
        assert np.linalg.norm(log) >= brute_force_nearest(u, frames)[0]

    def test_frame_far_from_every_exact_frame_raises(self):
        # U lies 1.5 from frame 0, past any frame's basin: no guess is made
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, seed=24))
        frames = enumerate_exact_triangularizers(gt)
        x = random_unit_skew(np.random.default_rng(186), 4)
        with pytest.raises(NoComparableFrame):
            nearest_exact_frame(gt, frames[0] @ skew_exp(x, 1.5))
        assert_matches_oracle(gt, frames[0] @ skew_exp(x, 0.5), frames)

    def test_takes_one_log_near_a_frame(self, monkeypatch):
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, seed=21))
        frames = enumerate_exact_triangularizers(gt)
        rng = np.random.default_rng(21)
        u = frames[100] @ skew_exp(random_unit_skew(rng, 4), 1e-3)
        calls = []

        def counted(r, *args):
            calls.append(r)
            return orthogonal_log(r, *args)

        monkeypatch.setattr(harness, "orthogonal_log", counted)
        frame, _ = nearest_exact_frame(gt, u)
        assert np.array_equal(frame, frames[100])
        assert len(calls) == 1


class TestMatchesEnumerationOracle:
    """At d <= 5 the assigned frame is the enumeration's nearest, bit for
    bit, with the same alpha, on converged frames of real studies."""

    def test_criterion_6_study(self):
        gt = gen_ground_truth(
            GeneratorSpec(d=4, n=4, kappa_target=3.0, seed=400), sigma=1e-3
        )
        frames = enumerate_exact_triangularizers(gt)
        for t in range(100):
            rng = np.random.default_rng([0, t])
            noise = sample_noise(rng, gt.d, gt.n)
            u, _, _, _, _ = converge(gt.with_noise(noise, 1e-3).observed_matrices())
            assert_matches_oracle(gt, u, frames)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("sigma", [1e-2, 1e-3, 1e-4])
    def test_seeded_models(self, d, sigma):
        for seed in range(3):
            gt = gen_ground_truth(
                GeneratorSpec(d=d, n=3, kappa_target=2.0, seed=1000 * d + seed),
                sigma=sigma,
            )
            u, _, _, _, _ = converge(gt.observed_matrices())
            assert_matches_oracle(gt, u, enumerate_exact_triangularizers(gt))


class TestSweep:
    def test_empty_grid_yields_empty_report(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=16))
        report = sigma_sweep(gt, [], trials=1, seed=0)
        assert report["sigmas"] == report["records"] == []
        assert report["direction_residual_slope"] is None
        assert report["observed_alpha_slope"] is None

    def test_one_sigma_has_no_slope_and_writes(self, tmp_path):
        """An undefined slope is None, which the canonical writer takes (as
        null) where it refuses NaN."""
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=16), sigma=1e-3)
        report = sigma_sweep(gt, [1e-3], trials=1, seed=0)
        assert report["direction_residual_slope"] is report["observed_alpha_slope"] is None
        path = tmp_path / "sweep.json"
        io.dump_canonical(report, str(path))
        loaded = io.load(str(path))
        assert loaded["direction_residual_slope"] is loaded["observed_alpha_slope"] is None

    def test_one_gauss_newton_matrix_per_nearest_frame(self, monkeypatch):
        """All (sigma, trial) pairs take one nearest-frame call, and
        a_priori_bound and predicted_direction share each exact frame's
        J^T J through the noise-free cache."""
        gt = gen_ground_truth(GeneratorSpec(d=4, n=4, kappa_target=3.0, seed=22))
        grams, nearest = [], []

        def counting(log, fn):
            def counted(*args):
                result = fn(*args)
                log.append(result)
                return result

            return counted

        monkeypatch.setattr(
            bounds, "gauss_newton_matrix", counting(grams, bounds.gauss_newton_matrix)
        )
        monkeypatch.setattr(
            harness, "nearest_exact_frame", counting(nearest, nearest_exact_frame)
        )
        report = sigma_sweep(gt, [1e-3, 5e-4, 2.5e-4, 1.25e-4], trials=2, seed=0)
        assert sum(len(records) for records in report["records"]) == 8
        assert len(nearest) == 1 and len(nearest[0][0]) == 8
        assert len({frame.tobytes() for frame in nearest[0][0]}) == 1
        assert len(grams) == 1


class TestVerifyBounds:
    def test_zero_trials_is_empty(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=17))
        summary = verify_bounds(gt, 1e-3, trials=0)
        assert summary["records"] == []

    def test_noiseless_trials_all_contained(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=18))
        summary = verify_bounds(gt, 0.0, trials=2)
        assert summary["errors"] == 0
        assert all(f == 1.0 for f in summary["fractions"].values())

    def test_one_log_per_trial_near_a_frame(self, monkeypatch):
        """The study takes its trials' logs in one orthogonal_log call, one
        LAPACK real Schur call per frame, and the nearest-frame stage calls
        neither expm nor skew_exp: the round trip is in closed form."""
        gt = gen_ground_truth(GeneratorSpec(d=4, n=3, seed=21))
        calls, schurs, exps, inside = [], [], [], []
        gees, nearest = linalg._GEES, harness.nearest_exact_frame

        def counted(r, *args):
            calls.append(r)
            return orthogonal_log(r, *args)

        def counted_gees(select, a, lwork):
            if lwork != -1:  # not the one workspace query per d
                schurs.append(a.shape)
            return gees(select, a, lwork=lwork)

        def counted_nearest(*args):
            inside.append(None)
            try:
                return nearest(*args)
            finally:
                inside.pop()

        def watched(name, fn):
            def call(*args, **kwargs):
                if inside:
                    exps.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(harness, "orthogonal_log", counted)
        monkeypatch.setattr(harness, "nearest_exact_frame", counted_nearest)
        monkeypatch.setattr(linalg, "_GEES", counted_gees)
        monkeypatch.setattr(linalg, "skew_exp", watched("skew_exp", linalg.skew_exp))
        monkeypatch.setattr(
            linalg.scipy.linalg, "expm", watched("expm", linalg.scipy.linalg.expm))
        summary = verify_bounds(gt, 1e-4, trials=3)
        assert summary["errors"] == 0
        assert [r.shape for r in calls] == [(3, 4, 4)]
        assert schurs == [(4, 4)] * 3
        assert exps == []

    def test_noise_free_work_is_done_once_per_study(self, monkeypatch):
        """The noise-free set is built once, the trials take one
        nearest-frame call, one J^T J per distinct exact frame for the a
        priori bound, one eig per candidate round of the certified init and
        one descent J^T J build per lockstep iteration."""
        gt = gen_ground_truth(GeneratorSpec(d=4, n=4, kappa_target=3.0, seed=22))
        clean_builds, grams, nearest, eigs, builds, descents = [], [], [], [], [], []
        build = bounds.NoiseFree.clean.func

        def counted_build(cache):
            clean_builds.append(None)
            return build(cache)

        counted_clean = functools.cached_property(counted_build)
        counted_clean.__set_name__(bounds.NoiseFree, "clean")
        monkeypatch.setattr(bounds.NoiseFree, "clean", counted_clean)

        def counting(log, fn):
            def counted(*args):
                result = fn(*args)
                log.append(result)
                return result

            return counted

        monkeypatch.setattr(
            bounds, "gauss_newton_matrix", counting(grams, bounds.gauss_newton_matrix)
        )
        monkeypatch.setattr(
            harness, "nearest_exact_frame", counting(nearest, nearest_exact_frame)
        )
        monkeypatch.setattr(np.linalg, "eig", counting(eigs, np.linalg.eig))
        monkeypatch.setattr(
            triangularize, "gauss_newton_matrix",
            counting(builds, triangularize.gauss_newton_matrix),
        )
        monkeypatch.setattr(
            triangularize, "descend_batch", counting(descents, triangularize.descend_batch)
        )
        summary = verify_bounds(gt, 1e-3, trials=4)
        assert summary["errors"] == 0
        assert len(clean_builds) == 1
        assert len(nearest) == 1 and len(nearest[0][0]) == 4
        assert len(grams) == len({frame.tobytes() for frame in nearest[0][0]})
        assert [values.shape for values, _ in eigs] == [(4, 4)]  # the ones candidate
        (_, traces, _), = descents
        assert all(trace.termination == "grad_tol" for trace in traces)
        lockstep = max(len(trace.step_lengths) for trace in traces)
        assert len(builds) == lockstep > 0
        assert [h.shape for h in builds] == [(4, 6, 6)] + [
            (sum(len(t.step_lengths) > i for t in traces), 6, 6) for i in range(1, lockstep)
        ]

    def test_converge_is_deterministic(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, seed=19), sigma=1e-3)
        observed = gt.observed_matrices()
        u1, b1, _, _, _ = converge(observed, seed=0)
        u2, b2, _, _, _ = converge(observed, seed=0)
        assert np.array_equal(u1, u2)
        assert np.array_equal(b1, b2)

    def test_converge_reaches_no_exponential(self, monkeypatch):
        """The descent retracts by the Cayley map's one solve: a converge
        calls neither skew_exp nor expm, also on d=8, seed 3, whose descent
        takes a step with ||tX|| above 0.5."""
        exps = []

        def watched(name, fn):
            def call(*args, **kwargs):
                exps.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(linalg, "skew_exp", watched("skew_exp", linalg.skew_exp))
        monkeypatch.setattr(triangularize, "skew_exp", watched("skew_exp", linalg.skew_exp))
        monkeypatch.setattr(
            linalg.scipy.linalg, "expm", watched("expm", linalg.scipy.linalg.expm))
        sets = [gen_ground_truth(GeneratorSpec(d=8, n=8, kappa_target=3, seed=seed), sigma=1e-3)
                .observed_matrices() for seed in range(6)]
        _, _, trace, _, _ = converge(sets[3])
        assert trace.termination == "grad_tol"
        _, _, traces, _, _ = converge(triangularize.MatrixSet([m.matrices for m in sets]))
        assert [t.termination for t in traces] == ["grad_tol"] * 6
        assert exps == []


class TestVerifyComponentBound:
    def test_zero_trials_is_empty(self, tmp_path):
        """With no trials the fraction is None, which the canonical writer
        takes (as null) where it refuses NaN."""
        z = gen_components(3, seed=20)
        summary = verify_component_bound(z, 1e-4, 1.0, trials=0)
        assert summary["records"] == []
        assert summary["fraction"] is None
        path = tmp_path / "component.json"
        io.dump_canonical(summary, str(path))
        assert io.load(str(path))["fraction"] is None

    def test_small_study_is_contained(self):
        z = gen_components(4, seed=21)
        summary = verify_component_bound(z, 1e-4, 1.0, trials=3)
        assert summary["errors"] == 0
        assert summary["fraction"] == 1.0


def outcome(study, *args, **kwargs):
    """The value bits of a study's result, or the name of the error it
    raised."""
    try:
        result = study(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the comparison is on the type
        return type(exc).__name__
    return value_bits(result)


class TestBatchedStudiesMatchOracle:
    """The batched studies give the canonical JSON of the one-trial-at-a-time
    oracles in tests/oracle.py, and a trial that fails at any stage leaves
    the same record with the others untouched."""

    SIGMAS = (1e-3, 5e-4)

    @pytest.mark.parametrize("trials", [0, 1, 3, 17])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_verify_and_sweep(self, d, n, trials):
        gt = gen_ground_truth(GeneratorSpec(d=d, n=n, kappa_target=2.0, seed=10 * d + n))
        for study, oracle, args in (
            (verify_bounds, verify_bounds_per_trial, (gt, 1e-3, trials)),
            (sigma_sweep, sigma_sweep_per_trial, (gt, self.SIGMAS, trials)),
        ):
            expected = outcome(oracle, *args, seed=3)
            assert outcome(study, *args, seed=3) == expected
        if d in (2, 3) and trials:
            summary = verify_bounds(gt, 1e-3, trials, seed=3)
            assert summary["errors"] == 0

    @pytest.mark.parametrize("trials", [0, 1, 5])
    def test_component_study(self, trials):
        z = gen_components(4, kappa_target=2.0, seed=23)
        expected = outcome(verify_component_bound_per_trial, z, 1e-4, 1.0, trials)
        assert outcome(verify_component_bound, z, 1e-4, 1.0, trials) == expected

    @staticmethod
    def target(gt, sigma, seed, trial):
        """The stage inputs of one trial of a study, from the single-problem path."""
        rng = np.random.default_rng([seed, trial])
        noise = sample_noise(rng, gt.d, gt.n)
        observed = gt.with_noise(noise, sigma).observed_matrices()
        u, beta, _, u0, _ = converge(observed, seed=seed)
        frame, _ = nearest_exact_frame(gt, u)
        return {
            "observed": observed.matrices.tobytes(),
            "start": triangularize.rotated(u0, observed).tobytes(),
            "frame": u.tobytes(),
            "log": (frame.T @ u).tobytes(),
            "t_beta": bounds.t_beta(u, observed, beta).tobytes(),
        }

    @staticmethod
    def failing(real, rows_of, target, error=None, value=None):
        """real with every row of rows_of(*args) whose bytes are target
        failing with error, or with value(rows, result) as its result."""

        def wrapped(*args, **kwargs):
            hits = np.array([row.tobytes() == target for row in rows_of(*args)], dtype=bool)
            if not hits.any():
                return real(*args, **kwargs)
            if value is not None:
                return value(np.flatnonzero(hits), real(*args, **kwargs))
            fail = kwargs.get("fail", args[-1] if isinstance(args[-1], Failures) else None)
            if fail is None:
                raise error
            trials = fail.rows[hits]
            result = real(*args, **kwargs)
            outputs = result if isinstance(result, tuple) else (result,)
            outputs = fail.drop(np.isin(fail.rows, trials), error, *outputs)
            return outputs if isinstance(result, tuple) else outputs[0]

        return wrapped

    def inject(self, monkeypatch, stage, target):
        def frames(x):
            return np.reshape(x, (-1,) + np.shape(x)[-2:])

        def no_decrease(rows, change):
            change = np.array(change)
            change[rows] = 1.0
            return change

        module, name, rows_of, key = {
            "NoSeparatingBeta": (triangularize, "find_separating_beta",
                                 lambda mset, *_, **__: mset.matrices, "observed"),
            "stall": (triangularize, "_loss_change", lambda a, f: a.reshape(-1, *a.shape[-3:]),
                      "start"),
            "NoComparableFrame": (harness, "nearest_exact_frame",
                                  lambda gt, u, *_: frames(u), "frame"),
            "LogBranchAmbiguous": (harness, "orthogonal_log", lambda q, *_: frames(q), "log"),
            "SingularOperator": (bounds, "inverse_spectral_norm",
                                 lambda op, *_: frames(op), "t_beta"),
        }[stage]
        error = {
            "NoSeparatingBeta": NoSeparatingBeta, "NoComparableFrame": NoComparableFrame,
            "LogBranchAmbiguous": LogBranchAmbiguous, "SingularOperator": SingularOperator,
        }.get(stage)
        monkeypatch.setattr(module, name, self.failing(
            getattr(module, name), rows_of, target[key],
            error=error and error("injected"), value=no_decrease if stage == "stall" else None,
        ))

    STAGES = ["NoSeparatingBeta", "stall", "NoComparableFrame", "LogBranchAmbiguous",
              "SingularOperator"]
    # trial -> the stage it fails at: trial 1 at each stage; the first and
    # the last trial; two trials at two different stages
    FAILURES = [pytest.param({1: stage}, id=stage) for stage in STAGES] + [
        pytest.param({0: "SingularOperator", 3: "SingularOperator"}, id="first-and-last"),
        pytest.param({0: "NoSeparatingBeta", 2: "LogBranchAmbiguous"}, id="two-stages"),
    ]

    @pytest.mark.parametrize("failures", FAILURES)
    def test_one_failing_trial_leaves_the_same_records(self, failures, monkeypatch):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=3, kappa_target=2.0, seed=31))
        for trial, stage in failures.items():
            self.inject(monkeypatch, stage, self.target(gt, 1e-3, 0, trial))
        expected = outcome(verify_bounds_per_trial, gt, 1e-3, 4)
        assert outcome(verify_bounds, gt, 1e-3, 4) == expected
        records = verify_bounds(gt, 1e-3, 4)["records"]
        errors = {r["trial"]: r["error"] for r in records if "error" in r}
        assert errors == {t: stage for t, stage in failures.items() if stage != "stall"}
        # the sweep raises the first failure, or takes the stall as converged
        for sigmas in ([1e-3], [1e-3, 5e-4]):
            expected = outcome(sigma_sweep_per_trial, gt, sigmas, 3)
            assert outcome(sigma_sweep, gt, sigmas, 3) == expected
        raised = [stage for t, stage in sorted(failures.items()) if t < 3 and stage != "stall"]
        assert expected == raised[0] if raised else isinstance(expected, dict)
