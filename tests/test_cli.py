import ast
import dataclasses
import datetime
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jointtri import bounds as bd
from jointtri import harness as hz
from jointtri import io
from jointtri import triangularize as tri
from jointtri.cli import _build_parser, run
from jointtri.errors import NonFiniteOutput
from jointtri.harness import GeneratorSpec, gen_components, gen_ground_truth
from jointtri.linalg import unvec
from jointtri.tensor import Tensor3, tensor_from_components
from output_hashes import value_bits


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
        }
        path = tmp_path / "c.json"
        io.dump_canonical(payload, path)
        assert path.read_text() == (
            '{"a":1.5,"b":3,"c":true,"d":{"m":[[1.0,2.5],[4.0,-0.0]]},'
            '"e":0.25,"f":[1,2.0,[[true,false]]]}\n'
        )
        with pytest.raises(NonFiniteOutput):
            io.dump_canonical({**payload, "g": np.float64("nan")}, tmp_path / "g.json")
        assert not (tmp_path / "g.json").exists()

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

    def test_loaded_noise_keeps_the_per_matrix_norms(self):
        """The stacked noise keeps each matrix's column-major memory order, so
        its norms have the bits of the per-matrix reading of the file."""
        gt = gen_ground_truth(GeneratorSpec(d=12, n=64, seed=3), sigma=1e-3)
        data = io.ground_truth_to_dict(gt)
        back = io.ground_truth_from_dict(data)
        per_matrix = [np.linalg.norm(unvec(np.asarray(w), 12)) for w in data["W"]]
        assert [np.linalg.norm(w) for w in back.noise] == per_matrix
        assert back.norms()[1] == float(np.sqrt(sum(x**2 for x in per_matrix)))

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


# Floats at the edges of repr's notations (an exponent below 1e-4 and from
# 1e16 on) and of orjson's (an exponent below 1e-5), and at binary64's ends
EDGE_FLOATS = [1e-4, 9.999999999999999e-05, 1e-5, 1.5e-5, 1e15, 1e16,
               9999999999999998.0, 5e-324, 1.7976931348623157e308, 0.0, -0.0]
SCALED_FLOATS = st.builds(
    lambda m, e: float(m * 10.0**e), st.floats(-10.0, 10.0), st.integers(-12, 22))
# Digits, "e", signs, separators, brackets and "null", then quotes,
# backslashes, DEL, control and non-ASCII characters
ANY_TEXT = st.text(
    st.sampled_from(list('0123456789e.-+,:[]{}"\\ nul') + ["\x7f", "\n", "\u00e9", "\u65e5"])
    | st.characters(),
    max_size=10,
)


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS), SCALED_FLOATS)
ANY_FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS), SCALED_FLOATS)


def writer_payloads(finite):
    """Nested dicts, lists and tuples of numbers, text, bools, None, ints
    (some past 64 bits), numpy scalars and arrays (float32 too); with
    finite, only ints of 64 bits and no NaN or infinity."""
    floats = FINITE_FLOATS if finite else ANY_FLOATS
    floats32 = st.floats(width=32, allow_nan=not finite, allow_infinity=not finite)
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**63), 2**64 - 1) if finite else st.integers(-(2**70), 2**70),
        floats,
        ANY_TEXT,
        st.builds(np.float64, floats),
        st.builds(np.float32, floats32),
        st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
        st.builds(np.bool_, st.booleans()),
        st.builds(np.array, st.lists(floats, max_size=4)),
        st.builds(lambda v: np.array(v, dtype=np.float32), st.lists(floats32, max_size=4)),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(ANY_TEXT, children, max_size=4),
        ),
        max_leaves=24,
    )


def is_finite(obj):
    """Whether json.dumps finds no NaN or infinity in obj."""
    try:
        json.dumps(obj, default=io._plain, allow_nan=False)
    except ValueError:
        return False
    return True


def is_plain(obj):
    """Whether obj is a plain JSON value: dicts with text keys, lists,
    tuples, text, ints of 64 bits, floats, bools, None and numpy numbers
    and arrays, with no subclass of a JSON type."""
    if type(obj) is dict:
        return all(type(key) is str and is_plain(v) for key, v in obj.items())
    if type(obj) in (list, tuple):
        return all(map(is_plain, obj))
    if type(obj) is int:
        return -(2**63) <= obj < 2**64
    return isinstance(obj, (np.ndarray, np.generic)) or type(obj) in (str, float, bool, type(None))


class TestCanonicalWriter:
    """dump_canonical writes orjson's sorted-key encoding and a newline: the
    value bits and types json.dumps writes, in orjson's number notation.
    What is not a plain JSON value (all that json.dumps refuses, and more)
    raises TypeError, and a NaN or an infinity raises NonFiniteOutput;
    neither writes a file."""

    @staticmethod
    def assert_writes_orjson(obj, path):
        io.dump_canonical(obj, path)
        raw = path.read_bytes()
        assert raw == orjson.dumps(obj, default=io._plain, option=orjson.OPT_SORT_KEYS) + b"\n"
        expected = json.loads(json.dumps(obj, default=io._plain))
        assert value_bits(json.loads(raw)) == value_bits(expected)

    @staticmethod
    def assert_refused(error, obj, path):
        path.unlink(missing_ok=True)
        with pytest.raises(error):
            io.dump_canonical(obj, path)
        assert not path.exists()

    def assert_canonical(self, obj, path):
        if not is_plain(obj):
            self.assert_refused(TypeError, obj, path)
        elif not is_finite(obj):
            self.assert_refused(NonFiniteOutput, obj, path)
        else:
            self.assert_writes_orjson(obj, path)

    @given(writer_payloads(finite=True))
    @settings(max_examples=150, deadline=None)
    def test_orjson_payloads(self, tmp_path_factory, obj):
        """Finite numbers of 64 bits and any text: written, in orjson's notation."""
        self.assert_writes_orjson(obj, tmp_path_factory.getbasetemp() / "writer.json")

    @given(writer_payloads(finite=False))
    @settings(max_examples=150, deadline=None)
    def test_any_payload(self, tmp_path_factory, obj):
        """NaN, infinities and big ints too, next to None and text that holds null."""
        self.assert_canonical(obj, tmp_path_factory.getbasetemp() / "writer.json")

    @pytest.mark.parametrize("obj", [
        {"a": 1e-7, "b": "x1e-7", "c": [-1e-05, 0.00012, 1e16], "d": "0.00001"},
        {"1e-05": -1e-05, "x,0.00001": 1.5e-05, "k[1e16": 1e16},
        [1e-05, "a\"0.00001", 1e-05],
        1e-05,
        -1.5e+17,
        "0.00001",
        2**64,
        {"big": -(2**63) - 1, "x": 1e-9},
        {"nan": float("nan"), "tiny": 1e-9},
        {"del": "\x7f", "tiny": 1e-9},
        {"caf\u00e9": 1e-9},
        {1: 1e-9, 2: [0.5]},
        {"none": None},
        {"sub": np.float64(1e-9), "s32": np.float32(1e-9), "arr": np.array([1e-9, 2e20])},
    ])
    def test_writes_what_json_dumps_writes_at_the_edges(self, tmp_path, obj):
        """At the edges of both notations, of the 64-bit ints and of escaped
        text: the values json.dumps writes, or the refusal of what has no
        canonical form (an int past 64 bits, a NaN, a key that is not text)."""
        self.assert_canonical(obj, tmp_path / "w.json")

    @pytest.mark.parametrize("obj", [
        {"null": "null", "none": None, "tiny": 1e-9},
        {"inf": float("inf"), "null": None},
        [1.0, (2.0, -float("inf"))],
        {"a": {"b": [np.float64("nan")]}},
        {"s32": np.float32("inf")},
        {"arr": np.array([[1.0, np.nan]])},
    ], ids=["null_text", "inf_next_to_null", "in_a_tuple", "nested", "float32", "array"])
    def test_null_in_the_bytes(self, tmp_path, obj):
        """A null that is text or None is written; a NaN or an infinity
        anywhere is refused."""
        self.assert_canonical(obj, tmp_path / "w.json")

    @pytest.mark.parametrize("make", [
        object,
        lambda: dataclasses.make_dataclass("Point", ["x"])(1.0),  # orjson encodes these
        lambda: datetime.date(2020, 1, 1),
        lambda: {1: 0.5, "a": 0.5},  # keys json.dumps cannot sort
        lambda: (lambda loop: loop.append(loop) or loop)([]),  # a circular list
    ])
    def test_refuses_what_json_dumps_refuses(self, tmp_path, make):
        with pytest.raises((TypeError, ValueError)):
            json.dumps(make(), sort_keys=True, separators=(",", ":"), default=io._plain)
        self.assert_refused(TypeError, make(), tmp_path / "w.json")

    @pytest.mark.parametrize("make", [
        lambda: 2**64,
        lambda: {"x": [-(2**63) - 1]},
        lambda: {1: 1e-9, 2: [0.5]},
        lambda: {"d": type("Items", (dict,), {})(a=2)},
        lambda: [type("Iterated", (list,), {})([1])],
    ], ids=["int_past_64_bits", "int_below_64_bits", "int_keys", "dict_subclass",
            "list_subclass"])
    def test_refuses_what_json_dumps_writes_its_own_way(self, tmp_path, make):
        """json.dumps writes these: big ints in full, int keys as text, and
        str, int, dict and list subclasses through their own methods."""
        json.dumps(make(), default=io._plain)
        self.assert_refused(TypeError, make(), tmp_path / "w.json")


def _stdlib_load(path):
    with open(path) as fh:
        return json.load(fh)


_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)
_JSON = st.recursive(
    _FLOATS | st.integers(-(2**63), 2**64 - 1),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=20,
)


class TestLoadMatchesStdlib:
    """io.load parses with orjson and reparses only rejected bytes with the
    stdlib: every file reads as json.load reads it, except that an integer
    beyond 64 bits reads as the nearest float."""

    @given(st.dictionaries(st.text(max_size=4), _JSON, max_size=4))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_canonical_files_are_bit_identical(self, tmp_path, payload):
        """A payload with a NaN or an infinity is refused, and writes no file."""
        path = tmp_path / "x.json"
        path.unlink(missing_ok=True)
        if not is_finite(payload):
            with pytest.raises(NonFiniteOutput):
                io.dump_canonical(payload, path)
            assert not path.exists()
            return
        io.dump_canonical(payload, path)
        assert value_bits(io.load(path)) == value_bits(_stdlib_load(path))

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"x":NaN}',
            b'{"x":[Infinity,-Infinity,1.5]}',
            b'{"x":1e400,"y":-1e400}',
            b'\xef\xbb\xbf{"x":1.0}',
            b'{"x":[1.0,2',
            b'',
            b'{"x":1.0}{',
        ],
        ids=["nan", "infinity", "overflow", "utf8_bom", "truncated", "empty", "extra_data"],
    )
    def test_edge_files_read_as_the_stdlib_reads_them(self, tmp_path, raw):
        path = tmp_path / "x.json"
        path.write_bytes(raw)
        try:
            expected = _stdlib_load(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                io.load(path)
            assert type(caught.value) is type(exc)
            assert str(caught.value) == str(exc)
        else:
            assert value_bits(io.load(path)) == value_bits(expected)

    def test_integers_beyond_64_bits_read_as_the_nearest_float(self, tmp_path):
        """orjson reads them as floats: the value that each field's float
        conversion makes of the stdlib's integer."""
        path = tmp_path / "x.json"
        path.write_bytes(b'{"x":18446744073709551617,"y":[-36893488147419103233,1]}')
        expected = _stdlib_load(path)
        loaded = io.load(path)
        assert value_bits(loaded["x"]) == value_bits(float(expected["x"]))
        assert value_bits(loaded["y"]) == value_bits([float(expected["y"][0]), 1])

    def test_valid_files_never_reach_the_stdlib_parser(self, tmp_path, monkeypatch):
        model, tensor = tmp_path / "model.json", tmp_path / "tensor.json"
        for kind, path in (("model", model), ("tensor", tensor)):
            assert cli("generate", "--kind", kind, "--d", 3, "--N", 3,
                       "--sigma", 1e-3, "--seed", 1, "--output", path) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the stdlib parser read a valid file")

        monkeypatch.setattr(json, "load", refuse)
        monkeypatch.setattr(json, "loads", refuse)
        assert io.ground_truth_from_dict(io.load(model)).d == 3
        data = io.load(tensor)
        assert io.tensor_from_dict(data).n == 3
        assert io.components_from_dict(data)[0].shape == (3, 3)


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


# (file kind, the subcommands that read it, (name, edit of a valid file))
_WRONG_TYPE_INPUTS = [
    ("model", ("triangularize", "bounds", "sweep", "verify"), [
        ("top_level_list", lambda m: [1, 2]),
        ("d_null", lambda m: {**m, "d": None}),
        ("W_number", lambda m: {**m, "W": 5}),
        ("V_object", lambda m: {**m, "V": {"a": 1.0}}),
        ("W_objects", lambda m: {**m, "W": [{}] * len(m["W"])}),
        ("sigma_string", lambda m: {**m, "sigma": "1e-3"}),
    ]),
    ("matrices", ("triangularize",), [
        ("matrices_null", lambda m: {**m, "matrices": None}),
        ("N_list", lambda m: {**m, "N": [1]}),
    ]),
    ("tensor", ("tensor",), [
        ("top_level_list", lambda t: [1, 2]),
        ("N_null", lambda t: {**t, "N": None}),
        ("data_number", lambda t: {**t, "data": 5}),
        ("eps_null", lambda t: {**t, "eps": None}),
    ]),
    ("frame", ("bounds",), [
        ("top_level_string", lambda f: "frame"),
        ("d_null", lambda f: {**f, "d": None}),
        ("U_number", lambda f: {**f, "U": 5}),
    ]),
]


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

    def test_non_finite_report_exits_2_and_writes_nothing(
            self, model_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bd, "a_posteriori_bound", lambda *args: float("nan"))
        out = tmp_path / "frame.json"
        assert cli("triangularize", "--input", model_file, "--output", out) == 2
        assert capsys.readouterr().err == "NonFiniteOutput\n"
        assert not out.exists()

    def test_one_dimensional_model_round_trip(self, tmp_path):
        # the map on the zero space has an inverse of norm 0: exact at d = 1;
        # generate rejects d = 1, so the library writes the model
        src = tmp_path / "d1.json"
        out = tmp_path / "frame.json"
        gt = gen_ground_truth(GeneratorSpec(d=1, n=2), sigma=0.0)
        io.dump_canonical(io.ground_truth_to_dict(gt), str(src))
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
        # json.dumps, as the canonical writer refuses the NaN frame
        text = json.dumps(io.frame_to_dict(frame), sort_keys=True, separators=(",", ":"))
        src.write_text(text + "\n")
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

    def test_random_theta_error_is_against_the_weighted_column_sums(self, tmp_path):
        """With weights w = sqrt(N) theta, Y estimates Z_ni / (w^T z_i); against
        the plain column sums the error read 2.22 here."""
        src = tmp_path / "tensor.json"
        out = tmp_path / "decomp.json"
        assert cli(
            "generate", "--kind", "tensor", "--d", 4, "--N", 4,
            "--kappa", 2, "--sigma", 1e-4, "--seed", 7000, "--output", src,
        ) == 0
        assert cli("tensor", "--input", src, "--output", out, "--d", 4,
                   "--theta", "random") == 0
        assert json.loads(out.read_text())["component_error"] < 1e-3

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

    def test_tensor_forms_the_rotated_stack_once_per_iterate(self, tmp_path, monkeypatch):
        """Cost guard: a tensor call forms U^T M U at the certified initial
        frame and after each accepted step, and not again after converge
        (Y and the loss read the descent's last stack); its first random
        candidate separates, at one eig and one QR."""
        src = tmp_path / "tensor.json"
        assert cli(
            "generate", "--kind", "tensor", "--d", 8, "--N", 8,
            "--kappa", 2, "--sigma", 1e-4, "--seed", 0, "--output", src,
        ) == 0
        calls = {}

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.setdefault(name, []).append(result)
                return result

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((tri, "rotated"), (tri, "descend_batch"),
                            (np.linalg, "eig"), (np.linalg, "qr")):
            count(owner, name)
        assert cli("tensor", "--input", src, "--output", tmp_path / "out.json", "--d", 8) == 0
        ((_, (trace,), _),) = calls["descend_batch"]
        assert trace.termination == "grad_tol" and trace.step_lengths
        assert len(calls["rotated"]) == len(trace.step_lengths) + 1
        assert len(calls["eig"]) == len(calls["qr"]) == 1

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

    @pytest.mark.parametrize(
        "command, kind, edit",
        [
            pytest.param(command, kind, edit, id=f"{command}-{kind}-{name}")
            for kind, commands, edits in _WRONG_TYPE_INPUTS
            for command in commands
            for name, edit in edits
        ],
    )
    def test_input_of_the_wrong_json_type_exits_1(
        self, model_file, tmp_path, capsys, command, kind, edit
    ):
        """A field of the wrong JSON type is a ValueError: exit 1 with one line
        on stderr, whichever subcommand reads the file."""
        good = tmp_path / "good.json"
        if kind == "matrices":
            io.dump_canonical(io.matrix_set_to_dict(tri.MatrixSet(np.eye(2)[None])), good)
        elif kind == "tensor":
            assert cli("generate", "--kind", "tensor", "--d", 3, "--N", 3,
                       "--seed", 1, "--output", good) == 0
        elif kind == "frame":
            io.dump_canonical(io.frame_to_dict(np.eye(3)), good)
        else:
            good = model_file
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(good.read_text()))))
        source = ("--input", model_file, "--frame", bad) if kind == "frame" else ("--input", bad)
        flags = ("--d", 3) if command == "tensor" else ()
        out = tmp_path / "out.json"
        assert cli(command, *source, *flags, "--output", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["triangularize", "bounds", "verify", "sweep"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: {**m, "V": [None] * len(m["V"])},
            lambda m: {**m, "V": [None] + m["V"][1:]},
            lambda m: {**m, "V": [float("nan")] + m["V"][1:]},  # written as NaN
            lambda m: {**m, "W": [[None] + m["W"][0][1:]] + m["W"][1:]},
        ],
        ids=["V_all_null", "V_one_null", "V_nan_token", "W_one_null"],
    )
    def test_non_finite_model_exits_2(self, model_file, tmp_path, capsys, command, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(model_file.read_text()))))
        out = tmp_path / "out.json"
        assert cli(command, "--input", bad, "--output", out) == 2
        assert capsys.readouterr().err == "DimensionMismatch\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "z",
        [[1, 2, 3], [[1.0, 0.0, 0.0], [0.0, None, 0.0], [0.0, 0.0, 1.0]]],
        ids=["vector", "one_null"],
    )
    def test_tensor_with_a_malformed_z_exits_2(self, tmp_path, capsys, z):
        src = tmp_path / "tensor.json"
        assert cli("generate", "--kind", "tensor", "--d", 3, "--N", 3,
                   "--seed", 1, "--output", src) == 0
        src.write_text(json.dumps({**json.loads(src.read_text()), "Z": z}))
        out = tmp_path / "out.json"
        assert cli("tensor", "--input", src, "--output", out, "--d", 3) == 2
        assert capsys.readouterr().err == "DimensionMismatch\n"
        assert not out.exists()

    @pytest.mark.parametrize("rank", [4, 5, 7])
    def test_tensor_rank_other_than_n_exits_2_before_the_descent(
        self, tmp_path, capsys, monkeypatch, rank
    ):
        """The decomposition needs a square Z (d = N); any other --d is
        rejected before the observable matrices are built or descended."""
        z = np.random.default_rng(6).standard_normal((6, 4)) + 1.0
        src = tmp_path / "rank4.json"
        io.dump_canonical(io.tensor_to_dict(tensor_from_components(z)), src)

        def converge(*args, **kwargs):
            raise AssertionError("converge ran")

        monkeypatch.setattr(hz, "converge", converge)
        out = tmp_path / "out.json"
        assert cli("tensor", "--input", src, "--output", out, "--d", rank) == 2
        assert capsys.readouterr().err == "DimensionMismatch\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["model", "tensor"])
    @pytest.mark.parametrize("size", [0, -2])
    def test_generate_rejects_sizes_below_one(self, tmp_path, capsys, kind, size):
        """A usage error while parsing: exit 1, no output and no warning."""
        out = tmp_path / "out.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli("generate", "--kind", kind, "--d", size, "--N", size, "--output", out)
        assert code == 1 and caught == []
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["model", "tensor"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_generate_of_rank_one_is_a_usage_error(self, tmp_path, capsys, kind, n):
        """tensor rejects every rank-1 file (no component gap), and bounds and
        sweep every rank-1 model (no eigengap), so generate writes neither:
        exit 1 while parsing, naming --d, ahead of the d = N check."""
        out = tmp_path / "out.json"
        code = cli("generate", "--kind", kind, "--d", 1, "--N", n, "--output", out)
        assert code == 1
        assert "argument --d: must be a finite number >= 2" in capsys.readouterr().err
        assert not out.exists()

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
            ("triangularize", ("--max-iters", -1)),
            ("bounds", ("--max-iters", -1)),
            ("tensor", ("--d", 3, "--max-iters", -1)),
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

    def test_commands_load_no_scipy_optimize_or_sparse(self, tmp_path):
        """Importing scipy.optimize costs about 0.27 s and scipy.sparse.csgraph
        about 0.04 s on top of the package's own import."""
        script = (
            "import sys\n"
            "from jointtri.cli import run\n"
            "tmp = sys.argv[1]\n"
            "for argv in (\n"
            "    ['generate', '--kind', 'tensor', '--d', '3', '--N', '3', '--sigma', '1e-4',\n"
            "     '--output', tmp + '/t.json'],\n"
            "    ['tensor', '--d', '3', '--input', tmp + '/t.json', '--output', tmp + '/t.out'],\n"
            "    ['generate', '--kind', 'model', '--d', '3', '--N', '3', '--sigma', '1e-3',\n"
            "     '--output', tmp + '/m.json'],\n"
            "    ['triangularize', '--input', tmp + '/m.json', '--output', tmp + '/m.out'],\n"
            "):\n"
            "    assert run(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.optimize', 'scipy.sparse'))))\n"
        )
        loaded = python("-c", script, tmp_path)
        assert loaded.stdout.strip() == "[]"

    def test_every_public_name_resolves(self):
        import jointtri

        assert len(set(jointtri.__all__)) == len(jointtri.__all__)
        missing = [name for name in jointtri.__all__ if not hasattr(jointtri, name)]
        assert missing == []

    def test_no_module_imports_a_private_name_from_a_sibling(self):
        import jointtri

        crossing = []
        for path in sorted(Path(jointtri.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "jointtri"
                ):
                    crossing += [
                        f"{path.name}: {alias.name}" for alias in node.names
                        if alias.name.startswith("_")
                    ]
        assert crossing == []


class TestOutputHashesAgainst:
    """output_hashes.py --against: only the lines that differ from a saved
    listing, matched by command, then the final lines if they differ."""

    def test_equal_listings_differ_nowhere(self):
        from output_hashes import differences

        saved = ["a 0 generate one", "- 2 tensor two", "f" * 64]
        assert differences(saved, saved) == []
        assert differences(saved + ["DimensionMismatch"], saved) == []

    def test_changed_missing_and_new_commands(self):
        from output_hashes import differences

        saved = ["a 0 generate one", "b 0 tensor two", "c 1 verify three", "f" * 64]
        lines = ["a 0 generate one", "d 0 tensor two", "e 0 sweep four", "0" * 64]
        assert differences(saved, lines) == [
            "- b 0 tensor two", "+ d 0 tensor two",
            "- c 1 verify three",
            "+ e 0 sweep four",
            "- " + "f" * 64, "+ " + "0" * 64,
        ]

    def test_values_listings_read_through_the_number_notation(self, monkeypatch):
        """Two writers of the same values, in orjson's notation and in
        repr's (1e-05 for 0.00001), give different byte listings and equal
        --values listings."""
        import output_hashes

        def repr_notation(obj, path):
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=io._plain)
            Path(path).write_text(text + "\n")

        generate = ["generate", "--kind", "model", "--d", "3", "--N", "2", "--sigma", "1e-5"]
        monkeypatch.setattr(output_hashes, "commands",
                            lambda: [(generate + ["--output", "@m"], "m")])
        listings = []
        for writer in (io.dump_canonical, repr_notation):
            monkeypatch.setattr(io, "dump_canonical", writer)
            listings.append([output_hashes.listing(lambda line: None, digest)
                             for digest in (output_hashes.byte_digest,
                                            output_hashes.value_digest)])
        (orjson_bytes, orjson_values), (repr_bytes, repr_values) = listings
        assert output_hashes.differences(orjson_bytes, repr_bytes) != []
        assert output_hashes.differences(orjson_values, repr_values) == []
        assert orjson_values[0].endswith(" 0 " + " ".join(generate + ["--output", "@m"]))
