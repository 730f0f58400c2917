"""Roll-based Horn-Schunck oracle.

The sweep loop as ``np.roll`` shifts on (pairs, H, W) stacks, all pairs at
once.  ``horn_schunck`` must agree with it bit for bit: both apply the same
float operations, in the same order, to every site.
"""

import numpy as np

from cogaction.flow import VelocityField, _pair_gradients


def roll_horn_schunck(clip, alpha: float, iters: int) -> VelocityField:
    lum = np.sort(clip.data, axis=3).mean(axis=3)
    ix, iy, it = _pair_gradients(lum[:-1], lum[1:])
    denom = alpha * alpha + ix * ix + iy * iy
    u = np.zeros(ix.shape, dtype=np.float64)
    w = np.zeros(ix.shape, dtype=np.float64)
    for _ in range(iters):
        ubar = (np.roll(u, 1, 1) + np.roll(u, -1, 1) + np.roll(u, 1, 2) + np.roll(u, -1, 2)) / 4.0
        wbar = (np.roll(w, 1, 1) + np.roll(w, -1, 1) + np.roll(w, 1, 2) + np.roll(w, -1, 2)) / 4.0
        shared = (ix * ubar + iy * wbar + it) / denom
        u = ubar - ix * shared
        w = wbar - iy * shared
    pairs = np.stack((u, w), axis=3)
    out = np.concatenate((pairs, pairs[-1:]))
    if not np.all(np.isfinite(out)):
        raise ValueError("flow estimate diverged to non-finite values")
    return VelocityField(out)
