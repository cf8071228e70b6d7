"""Fixed reference computations that measure how fast the host is right now.

The host the benchmark was written on is a shared virtual machine whose
speed drifts by a factor of up to 1.6 over tens of seconds to minutes, with
no steal time and with CPU time equal to wall time, so neither a longer run
nor CPU time removes the drift.  The benchmark therefore times one of these
computations next to every op and reports op time in *refs*: the op's
seconds divided by the reference's seconds measured around it.  The
reference never calls jointtri, so a change to the program moves the
figure in refs exactly as it moves the figure in seconds; a change in the
host's speed moves both the op and the reference and cancels.

Different kinds of work slow down by different amounts when the host is
busy, so each workload names the computation that slowed down like its ops
did in a comparison of candidates (bench/README.md): small scipy matrix
functions called from Python, or one dense SVD.
"""

import time

import numpy as np
import scipy.linalg

_RNG = np.random.default_rng(20160702)
_SKEW = _RNG.standard_normal((4, 4))
_SKEW = _SKEW - _SKEW.T
_ROTATION = scipy.linalg.expm(_SKEW)
_DENSE = _RNG.standard_normal((384, 384))


def small_linalg():
    """expm and logm of 4 x 4 matrices, twelve times: about 20 ms."""
    for _ in range(12):
        scipy.linalg.expm(_SKEW)
        scipy.linalg.logm(_ROTATION)


def dense():
    """One SVD of a 384 x 384 matrix: about 40 ms."""
    np.linalg.svd(_DENSE)


def timed(reference):
    """Seconds one call of ``reference`` takes."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
