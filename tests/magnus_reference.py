"""Sixth-order Magnus on the 3x3 flow Y' = a(t) Y: the tests' oracle for the
nine-component states.

``integrate`` solves the equivalent SL(2) flow P' = P W and writes the
states from P.  This module steps the states themselves: each step's
exponent Omega comes from h a(t) at the three Gauss nodes by the
commutator formula of Blanes, Casas, Oteo & Ros (Phys. Rep. 470, 2009),
and exp(Omega) from a Taylor series with scaling and squaring.  Every part
that reaches the states' rounding is long double; the parts below it are
float64: the commutator terms of each exponent (below 1e-6 of it) and the
series' terms from x^4 on (below 1e-5 after scaling).  ``rhs`` is the
slope a(t) Y itself, the reference of the finite check's slopes.
``_as_matrix`` expands coefficients into the 2x2 matrices F, H, B, and
``matrix_residuals`` forms the ten algebraic relations of
``ode.algebraic_residuals`` from them by 2x2 matrix products.
"""

import math

import numpy as np

from kenmotsu3.ode import M1, M2, M3, _SQRT15, _det_g

# exp(X) = sum_{k<=11} X^k/k! for ||X|| <= 1/8: the tail past k = 11 is below
# 2e-20.  The terms from X^4 on sum to less than ||X||^4/24 <= 1e-5, so they
# are float64 (rounding about 1e-21); I + X + X^2/2 + X^3/6 is long double.
TAYLOR_TERMS = 11
TAYLOR_RADIUS = 0.125
# 1/(j+r)! for r < 4: the rows p_4, p_8 of the tail X^4 (p_4 + X^4 p_8)
TAIL = np.array([[1 / math.factorial(j + r) for r in range(4)]
                 for j in range(4, TAYLOR_TERMS, 4)])


def _as_matrix(c: np.ndarray) -> np.ndarray:
    """Expand (…,3) basis components into (…,2,2) matrices."""
    return (c[..., 0, None, None] * M1 + c[..., 1, None, None] * M2
            + c[..., 2, None, None] * M3)


def matrix_residuals(y, variant: str) -> dict[str, np.ndarray]:
    """``ode.algebraic_residuals`` by twelve 2x2 matrix products: the
    largest entry of each relation's residual matrix, and |det G - 1|."""
    F, H, B = (_as_matrix(y[..., i:i + 3]) for i in (0, 3, 6))
    lam2 = (np.exp(-y[..., 9]) ** 2)[..., None, None]
    eye = np.eye(2)
    res = {
        "F2": F @ F + eye,
        "H2": H @ H - lam2 * eye,
        "B2": B @ B - lam2 * eye,
        "anti_HF": H @ F + F @ H,
        "anti_BF": B @ F + F @ B,
        "anti_BH": B @ H + H @ B,
    }
    if variant == "kmu":
        res["prod_BH"] = B @ H - lam2 * F
        res["prod_BF"] = B @ F - H
        res["prod_FH"] = F @ H - B
    else:
        res["prod_BH"] = B @ H + lam2 * F
        res["prod_BF"] = B @ F + H
        res["prod_FH"] = H @ F - B
    out = {k: np.max(np.abs(v), axis=(-2, -1)) for k, v in res.items()}
    out["detG"] = np.abs(_det_g(y) - 1.0)
    return out


def generator(variant: str, lam2, mu) -> np.ndarray:
    """a(t) of Y' = a Y with Y = [f; h; b], at each (lam^2, mu): (..., 3, 3)."""
    a = np.zeros(np.shape(lam2) + (3, 3), np.result_type(lam2, mu))
    a[..., 0, 1] = 2
    a[..., 1, 0] = 2 * lam2
    if variant == "kmu":
        a[..., 1, 1] = a[..., 2, 2] = -2
        a[..., 1, 2] = -mu
        a[..., 2, 1] = mu
    else:
        a[..., 1, 1] = a[..., 2, 2] = -(mu + 2)
    return a


def rhs(variant: str, y: np.ndarray, mu_value) -> np.ndarray:
    """Componentwise derivative a(t) Y in the (M1, M2, M3) basis, plus f'.

    ``y`` has shape (..., 10) and ``mu_value`` the shape (...); the
    derivative has the dtype of ``y``.
    """
    mu = np.asarray(mu_value, y.dtype)
    rows = y.shape[:-1]
    out = np.empty_like(y)
    out[..., :9] = (generator(variant, np.exp(-2.0 * y[..., 9]), mu)
                    @ y[..., :9].reshape(rows + (3, 3))).reshape(rows + (9,))
    out[..., 9] = 2.0 if variant == "kmu" else mu + 2.0
    return out


def comm(x, y):
    return x @ y - y @ x


def magnus_exponent(a: np.ndarray) -> np.ndarray:
    """Omega of each step from h * a at its three Gauss nodes: (..., 3, 3, 3)
    -> (..., 3, 3), by the sixth-order commutator formula.

    a1 and the node differences, which cancel, are long double; a2, a3 and
    the correction are float64: about 1e-22 of Omega.
    """
    lo, a1, hi = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    a2 = (hi - lo).astype(float) * (float(_SQRT15) / 3)
    a3 = (hi - 2 * a1 + lo).astype(float) * (10 / 3)
    b1 = a1.astype(float)
    c1 = comm(b1, a2)
    c2 = comm(b1, 2 * a3 + c1) / -60
    return a1 + (a3 / 12 + comm(-20 * b1 - a3 + c1, a2 + c2) / 240)


def expm(om: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (..., 3, 3) stack: Taylor series, scaled by
    2^-s into the series' radius and squared s times, s per matrix.  The
    series' terms from x^4 on are float64 (``TAYLOR_TERMS``)."""
    norm = np.abs(om.astype(float)).sum(axis=-1).max(axis=-1)
    squarings = np.zeros(norm.shape, int)
    big = (norm > TAYLOR_RADIUS) & (norm < np.inf)
    squarings[big] = np.ceil(np.log2(norm[big] / TAYLOR_RADIUS))
    x = om * np.ldexp(1.0, -squarings)[..., None, None] if big.any() else om
    x2 = x @ x
    x3 = x2 @ x
    powers = np.empty((4,) + x.shape)  # I, x, x^2, x^3 in float64
    powers[0], powers[1], powers[2], powers[3] = np.eye(3), x, x2, x3
    p4, p8 = np.tensordot(TAIL, powers, 1)
    x4 = powers[2] @ powers[2]
    e = x3  # I + x + x^2/2 + x^3/6 + tail, smallest terms first, in place
    e /= 6
    e += x4 @ (p4 + x4 @ p8)
    x2 /= 2
    e += x2
    e += x
    e += np.eye(3, dtype=om.dtype)
    for k in range(squarings.max(initial=0)):
        more = squarings > k
        e[more] = e[more] @ e[more]
    return e
