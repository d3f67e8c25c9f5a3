"""Almost contact metric structures: the model and the Lie derivative.

An :class:`AlmostContactModel` is one evaluation ``at(pts)`` of the structure
tensors (phi, xi, eta, g) and the nominal scalars k, mu, lambda over one
chart, with their exact partials, plus family metadata; its seven fields are
field-evaluator views of that evaluation.  ``FAMILIES`` gives each family's
nullity operator and third coordinate.  The identities' Probe computes
h = (1/2) L_xi phi with ``lie_derivative``, from its Lie-derivative
definition (never from the connection, so the connection identities stay an
independent cross-check); it composes h' = h o phi and B = phi o h from the
same values, and finds the eigenframe (xi, X, phi X) of the family's
nullity operator in the Cholesky frame it norms every residual in.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import ArrayField, ChartDomain

__all__ = [
    "AlmostContactModel",
    "lie_derivative",
]

# each family's nullity operator, h or h' = h o phi ("hp"), and the name of
# its third coordinate: what decides the identities a family quantifies over
FAMILIES = {"kenmotsu-baseline": ("h", "t"), "kmu-chart": ("h", "z"),
            "kmup-chart": ("hp", "z"), "kmu-darboux": ("h", "t"),
            "kmup-darboux": ("hp", "t")}


# the structure tensors and the nominal scalars: component shape
_FIELDS = {"phi": (3, 3), "xi": (3,), "eta": (3,), "g": (3, 3),
           "k_nom": (), "mu_nom": (), "lam_nom": ()}


@dataclass
class AlmostContactModel:
    """Structure tensors plus nominal scalars over a single chart.

    The family's row of ``FAMILIES`` gives ``variant``, the operator of its
    nullity condition (``"h"``, or ``"hp"`` for h'), and ``coords``, the axis
    labels, the distinguished coordinate (z or t) third.  ``at(pts)``
    evaluates the model at an (n, 3) point array inside ``domain`` (others
    raise ``BoundaryError``) in one pass: it maps each name of ``_FIELDS``
    to the field's values, exact partials (axis first) and exact second
    partials (both axes first; None for k_nom, mu_nom and lam_nom).  A
    model's values depend on the points alone.  The seven fields phi ...
    lam_nom are views of ``at``, each call of which runs the whole pass.
    """

    family: str
    domain: ChartDomain
    default_box: tuple[tuple[float, float], ...]
    at: Callable[[np.ndarray], dict]
    params: dict = dc_field(default_factory=dict)
    trajectory: object = None
    phi: ArrayField = dc_field(init=False)
    xi: ArrayField = dc_field(init=False)
    eta: ArrayField = dc_field(init=False)
    g: ArrayField = dc_field(init=False)
    k_nom: ArrayField = dc_field(init=False)
    mu_nom: ArrayField = dc_field(init=False)
    lam_nom: ArrayField = dc_field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        at = self.at  # the views hold the evaluation, not the model

        def view(name, order):
            return lambda pts: at(pts)[name][order]

        for name, shape in _FIELDS.items():
            setattr(self, name, ArrayField(
                view(name, 0), self.domain, shape, partials=view(name, 1),
                second=view(name, 2) if shape else None, name=name))

    variant = property(lambda self: FAMILIES[self.family][0])
    coords = property(lambda self: ("x", "y", FAMILIES[self.family][1]))

    def nullity_operator(self, h: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The T of this family's nullity condition from computed h, phi."""
        return h @ phi if self.variant == "hp" else h


def lie_derivative(xi: np.ndarray, dxi: np.ndarray, t_vals: np.ndarray,
                   dt_vals: np.ndarray) -> np.ndarray:
    """(L_xi T)^i_j = xi^a d_a T^i_j - T^a_j d_a xi^i + T^i_s d_j xi^s.

    For the coordinate field e_j this is [xi, T e_j] - T [xi, e_j], from the
    values of xi (..., 3) and of a (1,1) tensor T (..., 3, 3) and their
    coordinate partials (axis before the components); the leading axes
    broadcast.
    """
    # the first einsum's inner loop runs over (i, j), 9 long, and beat a
    # matmul; the other two contract a 3-long index and take matmuls
    dxi_t = np.swapaxes(dxi, -1, -2)
    return (np.einsum("...a,...aij->...ij", xi, dt_vals)
            - dxi_t @ t_vals + t_vals @ dxi_t)

