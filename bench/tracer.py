"""Span tracing of calls into the jointtri modules, from outside the package.

Each traced function is replaced, for the length of a ``patched`` block, by
a wrapper that times the call and charges it to a span name such as
``triangularize.loss``.  The wrapper is installed on every ``jointtri``
module attribute bound to the function, so it is seen under the name each
caller looks up (``bounds.loss``, ``triangularize.skew_exp``,
``harness.orthogonal_log``, the ``bd.``/``tri.``/``tn.``/``io.``/``hz.``
attributes that ``cli`` uses).  A span's self time is its duration minus
the time covered by the spans it caused; spans nest because the benchmark
runs one call at a time, so both are aggregated as each span closes.
"""

import math
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Self seconds, call counts by caller, and per-call observations."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()  # (caller span name or None, span name) -> calls
        self.stats = defaultdict(list)  # observation name -> values
        self._stack = []  # open spans: [name, seconds covered by children]

    def span(self, name, fn, *args, observe=None, **kwargs):
        """Call ``fn`` inside a span; ``observe`` sees the outcome afterwards."""
        caller = self._stack[-1][0] if self._stack else None
        entry = [name, 0.0]
        self._stack.append(entry)
        result = exc = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as raised:
            exc = raised
            raise
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.self_s[name] += elapsed - entry[1]
            self.calls[caller, name] += 1
            if self._stack:
                self._stack[-1][1] += elapsed
            if observe is not None:
                observe(self.stats, args, result, exc)

    def total_calls(self, name):
        return sum(n for (_, callee), n in self.calls.items() if callee == name)

    def wrapper(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, observe=observe, **kwargs)

        traced.__wrapped__ = fn
        return traced


# -- observations made on the outcome of a traced call ----------------------

def _descent(stats, args, result, exc):
    trace = result[1] if exc is None else getattr(exc, "trace", None)
    if trace is not None:
        stats["descent.iterations"].append(len(trace.loss_values))
        stats["descent.termination"].append(trace.termination)


def _operator_bytes(stats, args, result, exc):
    # computed: one dense d^2 x d^2 float64 commutator operator per matrix
    mset = args[1]
    stats["operator_bytes"].append(mset.n * mset.d**4 * 8)


def _enumerated(stats, args, result, exc):
    # computed: 2^d d! exact triangularizers
    d = args[0].d
    stats["enumerate.frames"].append(2**d * math.factorial(d))


def _nearest_found(stats, args, result, exc):
    if exc is None:
        stats["nearest.found"].append(1)


def _matched(stats, args, result, exc):
    # computed: d! column permutations searched
    stats["match_columns.perms"].append(math.factorial(len(args[0][0])))


def _bytes_read(stats, args, result, exc):
    if exc is None:
        stats["io.bytes_read"].append(os.path.getsize(args[0]))


def _bytes_written(stats, args, result, exc):
    if exc is None:
        stats["io.bytes_written"].append(os.path.getsize(args[1]))


# module -> function -> (span name, observer)
TARGETS = {
    "triangularize": {
        "loss": ("triangularize.loss", None),
        "gradient": ("triangularize.gradient", None),
        "descend": ("triangularize.descend", _descent),
        "find_separating_beta": ("triangularize.init", None),
        "schur_initializer": ("triangularize.init", None),
    },
    "linalg": {
        "skew_exp": ("linalg.skew_exp", None),
        "orthogonal_log": ("linalg.orthogonal_log", None),
    },
    "bounds": {
        "assemble_t_tilde": ("bounds.assemble_t_tilde", _operator_bytes),
        "inverse_spectral_norm": ("bounds.inverse_spectral_norm", None),
        "a_priori_bound": ("bounds.certificates", None),
        "explicit_bound": ("bounds.certificates", None),
        "a_posteriori_bound": ("bounds.certificates", None),
        "init_noise_threshold": ("bounds.certificates", None),
        "eigenvalue_error_bound": ("bounds.certificates", None),
    },
    "harness": {
        "enumerate_exact_triangularizers": ("harness.enumerate", _enumerated),
        "distance_to_nearest": ("harness.distance_to_nearest", _nearest_found),
        "nearest_direction": ("harness.nearest_direction", None),
        "converge": ("harness.converge", None),
        "verify_bounds": ("harness.verify_bounds", None),
    },
    "tensor": {
        "observable_matrices": ("tensor.observable_matrices", None),
        "match_columns": ("tensor.match_columns", _matched),
        "slices": ("tensor.other", None),
        "estimate_components": ("tensor.other", None),
        "recover_scales": ("tensor.other", None),
        "component_error_bound": ("tensor.other", None),
    },
    "io": {
        "load": ("io.load", _bytes_read),
        "dump_canonical": ("io.dump_canonical", _bytes_written),
        "matrix_set_from_dict": ("io.convert", None),
        "ground_truth_from_dict": ("io.convert", None),
        "tensor_from_dict": ("io.convert", None),
        "frame_to_dict": ("io.convert", None),
        "frame_from_dict": ("io.convert", None),
    },
}


@contextmanager
def patched(tracer, package="jointtri"):
    """Install span wrappers for every target the imported package defines.

    A target missing from the package is skipped, so its layer reads zero.
    """
    wrappers = {}
    for module_name, functions in TARGETS.items():
        module = sys.modules.get(f"{package}.{module_name}")
        for fn_name, (span_name, observe) in functions.items():
            fn = getattr(module, fn_name, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, tracer.wrapper(span_name, fn, observe))
    restore = []
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    try:
        yield tracer
    finally:
        for module, attr, value in restore:
            setattr(module, attr, value)
