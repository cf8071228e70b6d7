import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jointtri import io
from jointtri import triangularize as tri
from jointtri.cli import _build_parser, run
from jointtri.harness import GeneratorSpec, gen_components, gen_ground_truth
from jointtri.tensor import Tensor3, tensor_from_components


class TestCanonicalSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        payload = {
            "values": rng.standard_normal(10).tolist(),
            "n": 5,
            "nested": {"x": 0.1 + 0.2},
        }
        path = tmp_path / "a.json"
        io.dump_canonical(payload, path)
        assert io.load(path) == payload
        io.dump_canonical(io.load(path), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_numpy_scalars_are_sanitized(self, tmp_path):
        payload = {
            "a": np.float64(1.5),
            "b": np.int64(3),
            "c": np.bool_(True),
            "d": {"m": np.array([[1.0, 2.5], [np.int64(4), -0.0]])},
            "e": np.float32(0.25),
            "f": (1, np.float64(2.0), [np.array([True, False])]),
            "g": np.float64("nan"),
        }
        path = tmp_path / "c.json"
        io.dump_canonical(payload, path)
        assert path.read_text() == (
            '{"a":1.5,"b":3,"c":true,"d":{"m":[[1.0,2.5],[4.0,-0.0]]},'
            '"e":0.25,"f":[1,2.0,[[true,false]]],"g":NaN}\n'
        )

    def test_unknown_objects_are_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            io.dump_canonical({"a": object()}, tmp_path / "d.json")

    def test_matrix_set_round_trip(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=2, seed=1))
        mset = gt.clean_matrices()
        back = io.matrix_set_from_dict(io.matrix_set_to_dict(mset))
        for a, b in zip(mset.matrices, back.matrices):
            assert np.array_equal(a, b)

    def test_ground_truth_round_trip(self):
        gt = gen_ground_truth(GeneratorSpec(d=3, n=2, seed=2), sigma=1e-3)
        back = io.ground_truth_from_dict(io.ground_truth_to_dict(gt))
        assert np.array_equal(back.v, gt.v)
        assert np.array_equal(back.lambda_table, gt.lambda_table)
        assert back.sigma == gt.sigma
        for a, b in zip(gt.noise, back.noise):
            assert np.array_equal(a, b)

    def test_tensor_round_trip(self):
        z = gen_components(3, seed=3)
        t = tensor_from_components(z)
        back = io.tensor_from_dict(io.tensor_to_dict(t))
        assert back.n == t.n
        assert np.array_equal(np.asarray(back.data), np.asarray(t.data))

    def test_frame_round_trip(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert np.array_equal(io.frame_from_dict(io.frame_to_dict(q)), q)


def cli(*args):
    return run([str(a) for a in args])


def python(*args):
    """Run a fresh interpreter that imports jointtri from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    code = cli(
        "generate", "--kind", "model", "--d", 3, "--N", 3, "--kappa", 2,
        "--gamma", 1, "--sigma", 1e-3, "--seed", 7, "--output", path,
    )
    assert code == 0
    return path


class TestCliCommands:
    def test_generate_is_byte_reproducible(self, tmp_path):
        paths = [tmp_path / f"m{i}.json" for i in range(2)]
        for p in paths:
            assert cli(
                "generate", "--kind", "model", "--d", 3, "--N", 3,
                "--kappa", 2, "--gamma", 1, "--seed", 7, "--output", p,
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_triangularize_writes_frame_report(self, model_file, tmp_path):
        out = tmp_path / "frame.json"
        code = cli(
            "triangularize", "--input", model_file, "--output", out,
            "--sigma", 1e-3, "--tol", 1e-10,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["loss"] >= 0.0
        assert report["aposteriori"] > 0.0
        u = io.frame_from_dict(report["frame"])
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-10

    def test_one_dimensional_model_round_trip(self, tmp_path):
        # the map on the zero space has an inverse of norm 0: exact at d = 1
        src = tmp_path / "d1.json"
        out = tmp_path / "frame.json"
        assert cli(
            "generate", "--kind", "model", "--d", 1, "--N", 2, "--output", src,
        ) == 0
        assert cli("triangularize", "--input", src, "--output", out) == 0
        report = json.loads(out.read_text())
        assert report["aposteriori"] == 0.0
        assert np.isfinite(report["loss"])
        assert abs(io.frame_from_dict(report["frame"])[0, 0]) == 1.0

    def test_triangularize_is_byte_reproducible(self, model_file, tmp_path):
        outs = [tmp_path / f"f{i}.json" for i in range(2)]
        for out in outs:
            assert cli(
                "triangularize", "--input", model_file, "--output", out,
                "--sigma", 1e-3,
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bounds_report(self, model_file, tmp_path):
        out = tmp_path / "bounds.json"
        assert cli("bounds", "--input", model_file, "--output", out) == 0
        report = json.loads(out.read_text())
        assert report["alpha_apriori"] <= report["alpha_explicit"]
        assert report["observed_alpha"] >= 0.0
        assert report["sigma_max"] > 0.0

    @pytest.mark.parametrize(
        "frame",
        [
            np.where(np.eye(3) == 1.0, np.nan, 0.0),
            np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.eye(4),
        ],
        ids=["nan_frame", "non_orthogonal_frame", "wrong_dimension_frame"],
    )
    def test_bounds_rejects_invalid_frame(self, model_file, tmp_path, capsys, frame):
        src = tmp_path / "frame.json"
        io.dump_canonical(io.frame_to_dict(frame), src)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli(
                "bounds", "--input", model_file, "--frame", src,
                "--output", tmp_path / "x.json",
            )
        assert code == 2
        assert capsys.readouterr().err.strip() == "DimensionMismatch"
        assert not caught

    def test_bounds_runs_the_certified_init_once(self, model_file, tmp_path, monkeypatch):
        calls = []
        search = tri.find_separating_beta

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(tri, "find_separating_beta", counted)
        frame = tmp_path / "frame.json"
        assert cli("triangularize", "--input", model_file, "--output", frame) == 0
        calls.clear()
        assert cli("bounds", "--input", model_file, "--output", tmp_path / "b.json") == 0
        assert len(calls) == 1
        calls.clear()
        frame_dict = json.loads(frame.read_text())["frame"]
        io.dump_canonical(frame_dict, frame)
        assert cli(
            "bounds", "--input", model_file, "--frame", frame,
            "--output", tmp_path / "bf.json",
        ) == 0
        assert len(calls) == 1

    def test_bounds_rejects_a_frame_near_no_exact_frame(self, tmp_path, capsys):
        # a Haar-random frame perturbs no exact triangularizer, so no
        # certificate refers to it
        model = tmp_path / "model.json"
        assert cli(
            "generate", "--kind", "model", "--d", 5, "--N", 3,
            "--sigma", 1e-3, "--seed", 7, "--output", model,
        ) == 0
        q, r = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
        src = tmp_path / "frame.json"
        io.dump_canonical(io.frame_to_dict(q * np.sign(np.diag(r))), src)
        out = tmp_path / "x.json"
        assert cli("bounds", "--input", model, "--frame", src, "--output", out) == 2
        assert capsys.readouterr().err.strip() == "NoComparableFrame"
        assert not out.exists()

    def test_studies_run_above_five_dimensions(self, tmp_path):
        model = tmp_path / "model.json"
        assert cli(
            "generate", "--kind", "model", "--d", 8, "--N", 4, "--kappa", 2,
            "--gamma", 1, "--sigma", 1e-3, "--seed", 3, "--output", model,
        ) == 0
        runs = {
            "verify": ("--sigma", 1e-3, "--trials", 2),
            "bounds": (),
            "sweep": ("--sigmas", "1e-3,5e-4", "--trials", 1),
        }
        for command, flags in runs.items():
            out = tmp_path / f"{command}.json"
            assert cli(command, "--input", model, *flags, "--output", out) == 0
            assert "NaN" not in out.read_text() and "Infinity" not in out.read_text()
        summary = json.loads((tmp_path / "verify.json").read_text())
        assert summary["errors"] == 0
        assert all(f == 1.0 for f in summary["fractions"].values())

    def test_tensor_pipeline(self, tmp_path):
        src = tmp_path / "tensor.json"
        out = tmp_path / "decomp.json"
        assert cli(
            "generate", "--kind", "tensor", "--d", 3, "--N", 3,
            "--kappa", 2, "--sigma", 1e-4, "--seed", 5, "--output", src,
        ) == 0
        assert cli("tensor", "--input", src, "--output", out, "--d", 3) == 0
        report = json.loads(out.read_text())
        assert "Z_star" in report
        assert report["component_error"] <= report["component_bound"] * 1.1 + 1e-12

    def test_tensor_pipeline_above_eight_columns(self, tmp_path):
        src = tmp_path / "tensor.json"
        out = tmp_path / "decomp.json"
        assert cli(
            "generate", "--kind", "tensor", "--d", 9, "--N", 9,
            "--kappa", 2, "--sigma", 1e-4, "--seed", 5, "--output", src,
        ) == 0
        assert cli("tensor", "--input", src, "--output", out, "--d", 9) == 0
        report = json.loads(out.read_text())
        assert np.all(np.isfinite(report["Z_star"]))
        assert np.isfinite(report["component_error"])
        assert report["component_error"] <= 1.1 * report["component_bound"]

    def test_rank_deficient_tensor_exits_2(self, tmp_path, capsys):
        z = gen_components(3, seed=6).copy()
        z[:, 0] = 0.0
        t = tensor_from_components(z)
        src = tmp_path / "bad.json"
        io.dump_canonical(io.tensor_to_dict(t), src)
        code = cli("tensor", "--input", src, "--output", tmp_path / "x.json", "--d", 3)
        assert code == 2
        assert "RankDeficient" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"d": 0, "N": 2, "matrices": [[], []]},
            {"d": 2, "N": 2, "matrices": [[1.0, 0.0, 0.0, 2.0], [1.0, 0.0, 3.0]]},
        ],
        ids=["zero_dimension", "wrong_entry_count"],
    )
    def test_malformed_matrix_set_exits_2(self, tmp_path, capsys, payload):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(payload))
        code = cli("triangularize", "--input", src, "--output", tmp_path / "x.json")
        assert code == 2
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_mismatched_tensor_generation_exits_2(self, tmp_path):
        code = cli(
            "generate", "--kind", "tensor", "--d", 3, "--N", 4,
            "--seed", 0, "--output", tmp_path / "x.json",
        )
        assert code == 2

    def test_missing_input_exits_1(self, tmp_path):
        code = cli(
            "triangularize", "--input", tmp_path / "nope.json",
            "--output", tmp_path / "out.json",
        )
        assert code == 1

    def test_usage_errors(self):
        assert cli("no-such-command") == 1
        assert cli("--help") == 0

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("sweep", ("--trials", 0)),
            ("sweep", ("--sigmas", "1e-3")),
            ("sweep", ("--sigmas", "1e-3,0")),
            ("sweep", ("--sigmas", "1e-3,-1e-4")),
            ("sweep", ("--sigmas", "5e-4,1e-3")),
            ("sweep", ("--sigmas", "1e-3,1e-3")),
            ("sweep", ("--sigmas", "nan,1e-3")),
            ("sweep", ("--sigmas", "1e-3,x")),
            ("verify", ("--trials", -2)),
            ("triangularize", ("--sigma", -1)),
            ("triangularize", ("--sigma", "nan")),
            ("generate", ("--sigma", "nan")),
            ("generate", ("--sigma", "inf")),
            ("generate", ("--gamma", "inf")),
            ("generate", ("--gamma", "0")),
            ("generate", ("--kappa", "nan")),
            ("generate", ("--kappa", "0.5")),
            ("triangularize", ("--tol", "nan")),
            ("triangularize", ("--tol", "0")),
            ("bounds", ("--tol", "nan")),
            ("tensor", ("--d", 3, "--tol", "nan")),
            ("verify", ("--sigma", "nan")),
            ("verify", ("--sigma", "inf")),
            ("verify", ("--sigma", -1)),
        ],
    )
    def test_invalid_arguments_are_usage_errors(
        self, model_file, tmp_path, capsys, command, flags
    ):
        """Rejected while parsing, before any work: exit 1, no output."""
        out = tmp_path / "out.json"
        if command == "generate":  # otherwise a valid model file
            source = ("--kind", "model", "--d", 3, "--N", 3)
        else:
            source = ("--input", model_file)
        assert cli(command, *source, *flags, "--output", out) == 1
        assert not out.exists()
        assert "usage:" in capsys.readouterr().err

    def test_verify_summary(self, model_file, tmp_path):
        out = tmp_path / "verify.json"
        assert cli(
            "verify", "--input", model_file, "--sigma", 1e-3,
            "--trials", 2, "--output", out,
        ) == 0
        summary = json.loads(out.read_text())
        assert summary["trials"] == 2
        assert set(summary["fractions"]) == {
            "apriori", "explicit", "aposteriori", "eigenvalue", "order",
        }

    def test_sweep_report(self, model_file, tmp_path):
        out = tmp_path / "sweep.json"
        assert cli(
            "sweep", "--input", model_file, "--sigmas", "1e-3,5e-4",
            "--trials", 1, "--output", out,
        ) == 0
        report = json.loads(out.read_text())
        assert report["sigmas"] == [1e-3, 5e-4]
        assert np.isfinite(report["observed_alpha_slope"])


class TestProcessState:
    def test_cached_parser_keeps_no_parsed_state(self, model_file, tmp_path):
        fresh, random_beta, again = (
            tmp_path / f"{name}.json" for name in ("fresh", "random", "again")
        )
        python("-m", "jointtri.cli", "triangularize", "--input", model_file, "--output", fresh)
        assert cli(
            "triangularize", "--input", model_file, "--output", random_beta,
            "--beta", "random",
        ) == 0
        assert cli("triangularize", "--input", model_file, "--output", again) == 0
        assert random_beta.read_bytes() != fresh.read_bytes()
        assert again.read_bytes() == fresh.read_bytes()
        assert _build_parser() is _build_parser()

    def test_import_loads_no_scipy_optimize_or_sparse(self):
        # scipy.optimize alone adds about 20 MB of peak RSS
        loaded = python(
            "-c",
            "import sys, jointtri.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.optimize', 'scipy.sparse'))))",
        )
        assert loaded.stdout.strip() == "[]"

    def test_every_public_name_resolves(self):
        import jointtri

        assert len(set(jointtri.__all__)) == len(jointtri.__all__)
        missing = [name for name in jointtri.__all__ if not hasattr(jointtri, name)]
        assert missing == []
