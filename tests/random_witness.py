"""Seeded random tangent vectors at a Probe's points, for the tests alone.

No identity reads a random vector: each is normed on its whole residual
tensor in the adapted frame.  These witnesses check that norm from outside.
``pool`` gives the adapted frame and random g-unit vectors, over which the
largest value of an identity must stay below its frame norm;
``kernel_pool`` projects them into ker(eta); ``random_frame`` is a second
g-orthonormal frame, and ``kernel_frame`` a second one of ker(eta), in
which the frame norm must read the same.
"""

import numpy as np

from kenmotsu3.geometry import g_norm

PAIRS = 4  # random vector pairs per point in a pool
SEED = 21


def pool(p, pairs=PAIRS, seed=SEED):
    """(n, 3 + 2 pairs, 3): the adapted frame, then g-unit random vectors."""
    randoms = np.random.default_rng(seed).standard_normal((p.n, 2 * pairs, 3))
    randoms /= g_norm(randoms, p.g[:, None])[..., None]
    return np.concatenate([p.frame, randoms], axis=1)


def kernel_pool(p, vecs):
    """``vecs`` projected into ker(eta) along xi and g-normalized, after the
    frame's (X, phi X): the unit vectors a ker(eta) identity ranges over.
    The frame's own vectors (xi projects to 0) are dropped."""
    proj = vecs[:, 3:] - (vecs[:, 3:] @ p.eta[..., None]) * p.xi[:, None]
    proj /= g_norm(proj, p.g[:, None])[..., None]
    return np.concatenate([p.frame[:, 1:], proj], axis=1)


def random_frame(p, seed=SEED):
    """A g-orthonormal frame (n, 3, 3) by Gram-Schmidt from random vectors."""
    raw = np.random.default_rng(seed).standard_normal((p.n, 3, 3))
    out = np.empty_like(raw)
    for a in range(3):
        v = raw[:, a]
        for b in range(a):
            v = v - np.einsum("ni,nij,nj->n", v, p.g, out[:, b])[:, None] * out[:, b]
        out[:, a] = v / g_norm(v, p.g)[:, None]
    return out


def kernel_frame(p, seed=SEED):
    """(X, phi X) turned by a random angle per point, (n, 2, 3): another
    g-orthonormal basis of ker(eta), which every other one is up to a
    reflection.  Turning the adapted pair keeps it in ker(eta) to its own
    rounding, where a Gram-Schmidt frame against xi leaves an eta part of
    rounding size, which the xi slots of a tensor then amplify."""
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, p.n)
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    x, px = p.eigen.x, p.eigen.phi_x
    return np.stack([c * x + s * px, c * px - s * x], axis=1)
