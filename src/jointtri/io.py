"""Canonical JSON file formats.

Matrices are stored as flat column-major lists; files are written with
sorted keys and compact separators so identical values produce identical
bytes.  Numbers round-trip exactly (shortest repr of binary64).
"""

import json

import numpy as np

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


def dump_canonical(obj, path):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def matrix_set_to_dict(mset):
    return {
        "d": mset.d,
        "N": mset.n,
        "matrices": [vec(m).tolist() for m in mset.matrices],
    }


def matrix_set_from_dict(data):
    d = int(data["d"])
    entries = [np.asarray(m, dtype=float) for m in data["matrices"]]
    if len(entries) != int(data["N"]):
        raise DimensionMismatch("matrix count does not match N")
    if d < 0 or any(m.shape != (d * d,) for m in entries):
        raise DimensionMismatch("each matrix must be a flat list of d^2 entries")
    return MatrixSet(tuple(unvec(m, d) for m in entries))


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
    d = int(data["d"])
    return GroundTruthModel(
        v=unvec(np.asarray(data["V"], dtype=float), d),
        lambda_table=np.asarray(data["lambda"], dtype=float),
        noise=tuple(unvec(np.asarray(w, dtype=float), d) for w in data["W"]),
        sigma=float(data["sigma"]),
    )


def tensor_to_dict(t, extra=None):
    out = {"N": t.n, "data": t.data.tolist()}
    if extra:
        out.update(extra)
    return out


def tensor_from_dict(data):
    return Tensor3(n=int(data["N"]), data=np.asarray(data["data"], dtype=float))


def frame_to_dict(u):
    u = np.asarray(u, dtype=float)
    return {"d": u.shape[0], "U": vec(u).tolist()}


def frame_from_dict(data):
    return unvec(np.asarray(data["U"], dtype=float), int(data["d"]))
