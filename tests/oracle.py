"""Slow reference oracles for the nearest exact triangularizer.

enumerate_exact_triangularizers lists every exact joint triangularizer of
a noiseless model, and brute_force_nearest takes one matrix logarithm per
listed frame; tests check the assignment in jointtri.harness against both.
"""

import itertools

import numpy as np

from jointtri.errors import LogBranchAmbiguous
from jointtri.linalg import orthogonal_log


def enumerate_exact_triangularizers(gt):
    """All 2^d d! exact triangularizers as one (2^d d!, d, d) array.

    For each column permutation of V (in itertools.permutations order), its
    QR factor with a positive R diagonal times every sign pattern (in
    itertools.product order), from one batched QR.
    """
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=gt.d)))
    perms = np.array(list(itertools.permutations(range(gt.d))))
    q, r = np.linalg.qr(gt.v[:, perms].transpose(1, 0, 2))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    frames = q[:, None] * signs[None, :, None, :]
    return frames.reshape(-1, gt.d, gt.d)


def brute_force_nearest(u, frames):
    """(alpha, index): the geodesic minimum over every frame of U's
    orientation, one log per frame; logs on the branch cut are skipped."""
    best = (np.inf, -1)
    for i, frame in enumerate(frames):
        if np.linalg.det(frame.T @ u) <= 0:
            continue
        try:
            alpha = np.linalg.norm(orthogonal_log(frame.T @ u))
        except LogBranchAmbiguous:
            continue
        if alpha < best[0]:
            best = (alpha, i)
    return best
