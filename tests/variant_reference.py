"""Each variant's own formulas of the laws that the identities evaluate as
one residual per variant pair (NH and NHP, LIE1 and LIE2, NULL_KMU and
NULL_KMUP, CONN_KMU and CONN_KMUP) and of BSQ: written out for h and for h'
on the Probe's h, h', their derivatives and the adapted frame, never on its
``law``.  ``REFERENCE`` maps each identity to its formula."""

import numpy as np

from kenmotsu3.identities import _nullity


def _scalar_laws(p, rate):
    dlam_xi = np.einsum("ni,ni->n", p.xi, p.dlam)
    dk_xi = np.einsum("ni,ni->n", p.xi, p.dk)
    return np.maximum(np.abs(dlam_xi + p.lam_nom * rate),
                      np.abs(dk_xi + 2.0 * (p.k + 1.0) * rate))


def nh(p):
    nabla_xi_h = np.einsum("nk,nkij->nij", p.xi, p.nabla_h)
    m = nabla_xi_h + 2.0 * p.h + p.mu[:, None, None] * p.bmat
    return np.maximum(p.norm(m, upper=0), _scalar_laws(p, 2.0))


def nhp(p):
    nabla_xi_hp = np.einsum("nk,nkij->nij", p.xi, p.nabla_hp)
    mp2 = p.mu + 2.0
    m = nabla_xi_hp + mp2[:, None, None] * p.hp
    return np.maximum(p.norm(m, upper=0), _scalar_laws(p, mp2))


def lie1(p):
    lam2 = (p.lam_nom ** 2)[:, None, None]
    mu = p.mu[:, None, None]
    m1 = p.lie_h - (2.0 * lam2 * p.phi - 2.0 * p.h + mu * p.hp)
    m2 = p.lie_hp - (-mu * p.h - 2.0 * p.hp)
    return np.maximum(p.norm(m1, upper=0), p.norm(m2, upper=0))


def lie2(p):
    lam2 = (p.lam_nom ** 2)[:, None, None]
    mp2 = (p.mu + 2.0)[:, None, None]
    m1 = p.lie_hp + mp2 * p.hp
    m2 = p.lie_h - (2.0 * lam2 * p.phi - mp2 * p.h)
    return np.maximum(p.norm(m1, upper=0), p.norm(m2, upper=0))


def conn(p, table):
    """The largest g-length of nabla_{E_a} E_b minus its formula, whose
    coefficients of (xi, X, phi X) ``table(lam, mu, xl, pl)`` gives."""
    lam = p.eigen.lam
    il2 = 0.5 / np.maximum(lam, 1e-300)
    xl, pl = (np.einsum("na,na->n", v, p.dlam) * il2
              for v in (p.eigen.x, p.eigen.phi_x))
    frame = p.frame.transpose(1, 0, 2)
    return np.max([
        p.norm(p.frame_nabla[:, a, b]
               - sum(np.asarray(c)[..., None] * e for c, e in zip(coef, frame)),
               upper=0)
        for (a, b), coef in table(lam, p.mu, xl, pl).items()], axis=0)


def conn_kmu(lam, mu, xl, pl):
    return {(1, 0): (0, 1, -lam), (2, 0): (0, -lam, 1),
            (2, 2): (-1, xl, 0), (1, 1): (-1, 0, pl),
            (1, 2): (lam, -pl, 0), (2, 1): (lam, 0, -xl),
            (0, 1): (0, 0, -0.5 * mu), (0, 2): (0, 0.5 * mu, 0)}


def conn_kmup(lam, mu, xl, pl):
    return {(1, 0): (0, 1 + lam, 0), (2, 0): (0, 0, 1 - lam),
            (2, 2): (lam - 1, xl, 0), (1, 1): (-1 - lam, 0, pl),
            (1, 2): (0, -pl, 0), (2, 1): (0, 0, -xl),
            (0, 1): (0, 0, 0), (0, 2): (0, 0, 0)}


def bsq(p):
    b = p.bmat if p.model.variant == "h" else p.hp
    m = b @ b - (p.lam_nom ** 2)[:, None, None] * p.eye
    return np.max(np.abs(m[:, :2, :2]), axis=(1, 2))


REFERENCE = {
    "NH": nh, "NHP": nhp, "LIE1": lie1, "LIE2": lie2,
    "NULL_KMU": lambda p: p.norm(_nullity(p, p.h), upper=1),
    "NULL_KMUP": lambda p: p.norm(_nullity(p, p.hp), upper=1),
    "CONN_KMU": lambda p: conn(p, conn_kmu),
    "CONN_KMUP": lambda p: conn(p, conn_kmup),
    "BSQ": bsq,
}
