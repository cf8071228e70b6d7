"""Canonical JSON file formats.

Matrices are stored as flat column-major lists.  A file holds orjson's
encoding of the object, with sorted keys and compact separators, and a
newline: each float is written as its shortest round-trip digits (1e-7,
0.00001, 1e16), so identical values produce identical bytes and every
number reads back bit for bit.  numpy values are converted by _plain.
Enums and UUIDs, which no output holds, are written as orjson writes
them; anything else that is not a plain JSON value is refused with
TypeError: an unknown type, a dataclass or date, a key that is not a
string, an integer past 64 bits, a str, int, dict or list subclass, or a
circular reference.  orjson writes a NaN or an infinity as null, so a
payload whose bytes hold "null" is walked, and a non-finite float in it
raises NonFiniteOutput before the file is opened.

Files are read as bytes and parsed by orjson.  Only bytes orjson rejects
are parsed again by the stdlib json module, for files from outside the
program: NaN and Infinity tokens load (and fail the input's finiteness
checks later), and malformed JSON fails with the stdlib's own
JSONDecodeError message.  Each field is then converted to one float
array; a top level that is not an object, or a field of the wrong JSON
type, raises ValueError.
"""

import json
import math

import numpy as np
import orjson

from .bounds import GroundTruthModel
from .errors import DimensionMismatch, NonFiniteOutput
from .linalg import unvec, vec
from .tensor import Tensor3
from .triangularize import MatrixSet


def _plain(obj):
    """orjson ``default`` hook for numpy values (np.float64 is a float already)."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# dataclasses, datetimes and subclasses go to _plain, which refuses them
_ORJSON_OPTIONS = (orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
                   | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
                   | orjson.OPT_PASSTHROUGH_SUBCLASS)


def _non_finite(obj):
    """Whether an object that orjson encoded holds a NaN or an infinity."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = _plain(obj)
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(map(_non_finite, obj))


def dump_canonical(obj, path):
    raw = orjson.dumps(obj, default=_plain, option=_ORJSON_OPTIONS)
    if b"null" in raw and _non_finite(obj):
        raise NonFiniteOutput("a NaN or an infinity has no JSON form")
    with open(path, "wb") as fh:
        fh.write(raw)


def load(path):
    """The JSON object in a file.  An integer beyond 64 bits reads as the
    nearest float, as orjson parses it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = orjson.loads(raw)
    except orjson.JSONDecodeError:
        with open(path) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input file must hold a JSON object")
    return data


def _integer(data, key):
    value = data[key]
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer")
    return value


def _real(data, key):
    value = data[key]
    if type(value) not in (int, float):
        raise ValueError(f"{key!r} must be a number")
    return float(value)


def _floats(data, key):
    """A list field as one float array; its entries go through numpy's
    float conversion."""
    value = data[key]
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a list of numbers")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # an object, a string or ragged nesting
        raise ValueError(f"{key!r} must be a rectangular list of numbers") from None


def _matrices(data, key, d, mismatch):
    """A list field of flat column-major d x d matrices as one (n, d, d)
    array whose matrices are column-major in memory, as unvec makes them;
    an entry of another length raises mismatch."""
    rows = data[key]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{key!r} must be a list of lists of numbers")
    if any(len(row) != d * d for row in rows):
        raise mismatch(f"each of {key!r} must be a flat list of d^2 entries")
    return _floats(data, key).reshape(len(rows), d, d).transpose(0, 2, 1)


def matrix_set_to_dict(mset):
    return {
        "d": mset.d,
        "N": mset.n,
        "matrices": [vec(m).tolist() for m in mset.matrices],
    }


def matrix_set_from_dict(data):
    d, n = _integer(data, "d"), _integer(data, "N")
    if d < 0:
        raise DimensionMismatch("d must be nonnegative")
    matrices = _matrices(data, "matrices", d, DimensionMismatch)
    if len(matrices) != n:
        raise DimensionMismatch("matrix count does not match N")
    return MatrixSet(matrices)


def ground_truth_to_dict(gt):
    return {
        "d": gt.d,
        "N": gt.n,
        "V": vec(gt.v).tolist(),
        "lambda": [row.tolist() for row in gt.lambda_table],
        "W": [vec(w).tolist() for w in gt.noise],
        "sigma": gt.sigma,
    }


def ground_truth_from_dict(data):
    d = _integer(data, "d")
    return GroundTruthModel(
        v=unvec(_floats(data, "V"), d),
        lambda_table=_floats(data, "lambda"),
        noise=_matrices(data, "W", d, ValueError),
        sigma=_real(data, "sigma"),
    )


def tensor_to_dict(t, extra=None):
    out = {"N": t.n, "data": t.data.tolist()}
    if extra:
        out.update(extra)
    return out


def tensor_from_dict(data):
    return Tensor3(n=_integer(data, "N"), data=_floats(data, "data"))


def components_from_dict(data):
    """(Z, eps, sigma) of a generated tensor file, or None without "Z"."""
    if "Z" not in data:
        return None
    data = {"eps": 1.0, "sigma": 0.0, **data}
    return _floats(data, "Z"), _real(data, "eps"), _real(data, "sigma")


def frame_to_dict(u):
    u = np.asarray(u, dtype=float)
    return {"d": u.shape[0], "U": vec(u).tolist()}


def frame_from_dict(data):
    return unvec(_floats(data, "U"), _integer(data, "d"))
