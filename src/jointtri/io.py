"""Canonical JSON file formats.

Matrices are stored as flat column-major lists; files are written with
sorted keys and compact separators so identical values produce identical
bytes.  Numbers round-trip exactly (shortest repr of binary64).

A file holds exactly json.dumps(obj, sort_keys=True, separators=(",", ":"),
default=_plain) and a newline, encoded by orjson.  orjson writes a float's
shortest round-trip digits as repr does, but in another notation where
it has an exponent (1e-7, 1e16 for repr's 1e-07, 1e+16) or lies below
1e-4 (0.00001 for 1e-05): every number token outside a string with an "e"
after a digit or a "0.0000" prefix is rewritten by repr.  json.dumps
writes the file itself when the orjson bytes could differ otherwise: when
they are not printable ASCII (json.dumps escapes non-ASCII text and DEL),
hold a backslash (an escape) or "null" (json.dumps writes NaN and
Infinity), or when orjson refuses the object (an integer past 64 bits, a
key that is not a string, a value _plain rejects, or a str, int, dict or
list subclass, which json.dumps reads its own way).  Enums and UUIDs,
which no output holds, are the one difference: orjson writes them where
json.dumps raises TypeError.

Files are read as bytes and parsed by orjson.  Only bytes orjson rejects
are parsed again by the stdlib json module: the NaN/Infinity tokens that
dump_canonical writes for non-finite values load as before, and malformed
JSON fails with the stdlib's own JSONDecodeError message.  Each field is
then converted to one float array; a top level that is not an object, or a
field of the wrong JSON type, raises ValueError.
"""

import json
import re

import numpy as np
import orjson

from .bounds import GroundTruthModel
from .errors import DimensionMismatch
from .linalg import unvec, vec
from .tensor import Tensor3
from .triangularize import MatrixSet


def _plain(obj):
    """json ``default`` hook for numpy values (np.float64 is a float already)."""
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
_ORJSON_OPTIONS = (orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS
                   | orjson.OPT_PASSTHROUGH_DATETIME | orjson.OPT_PASSTHROUGH_SUBCLASS)
_NUMBER = re.compile(rb"-?[0-9][-+.0-9e]*")


def _repr_numbers(raw):
    """orjson's bytes with each number token that repr writes otherwise (an
    exponent, or a 0.0000 prefix) rewritten by repr.  raw holds no
    backslash, so a candidate after an odd count of quotes is in a string.
    Both kinds are found with bytes.find: an exponent is an "e" after a
    digit and before a digit or "-" (orjson writes e-7 and e16, never e+);
    the "e" search is a memchr, where a regular expression for it, or one
    for both kinds at once, scans digit text several times slower."""
    starts = set()
    at = raw.find(b"e")
    while at >= 0:
        after = raw[at + 1] if at + 1 < len(raw) else 0
        if at and raw[at - 1] in b"0123456789" and after in b"-0123456789":
            start = at
            while start and raw[start - 1] in b"-.0123456789":
                start -= 1
            starts.add(start)
        at = raw.find(b"e", at + 1)
    at = raw.find(b"0.0000")
    while at >= 0:
        start = at - 1 if at and raw[at - 1] == ord("-") else at
        if not start or raw[start - 1] in b",:[":
            starts.add(start)
        at = raw.find(b"0.0000", at + 6)
    pieces, end, seen, inside = [], 0, 0, False
    for start in sorted(starts):
        inside ^= raw.count(b'"', seen, start) % 2 == 1
        seen = start
        if not inside:
            token = _NUMBER.match(raw, start)
            pieces += (raw[end:start], repr(float(token[0])).encode())
            end = token.end()
    pieces.append(raw[end:])
    return b"".join(pieces)


def dump_canonical(obj, path):
    try:
        raw = orjson.dumps(obj, default=_plain, option=_ORJSON_OPTIONS)
    except orjson.JSONEncodeError:
        raw = None
    if raw is None or not raw.isascii() or b"\x7f" in raw or b"\\" in raw or b"null" in raw:
        raw = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain).encode()
    else:
        raw = _repr_numbers(raw)
    with open(path, "wb") as fh:
        fh.write(raw + b"\n")


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
