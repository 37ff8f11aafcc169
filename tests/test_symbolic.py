"""The three-agent flow identities, proved exactly with sympy.

The canonical topology holds the edges 01 and 02 and the angle at agent 0.
The potential ``V = |e|^2 / 2`` has gradient ``R_W^T e``, and with the edge
weights of :func:`formation._edge_weights`:

- ``R_W^T e = (E (x) I_2) p``, ``E`` the Laplacian of the triangle with edge
  weights ``w1 + w3``, ``w2 + w3`` and ``-w3``;
- along ``p' = -R_W^T e``, ``d/dt det Z = -sigma det Z`` with
  ``sigma = 2 (w1 + w2 + w3)``.

Both sides are differentiated with agent 0 free, then agent 0 is put at the
origin; every term is a function of ``p1 - p0`` and ``p2 - p0`` (``E`` has
zero row sums), so that loses nothing.  There ``sqrt(|u|^2 |v|^2)`` becomes
a positive symbol ``S``, and a difference is zero once its numerator
reduces to zero modulo ``S^2 - |u|^2 |v|^2``.  A numeric check ties the
symbolic weights and ``E`` to the library's.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from weakrig import e_matrix_three_agent
from weakrig.formation import _edge_weights

from conftest import random_targets, random_three_agent_state

X0, Y0, X1, Y1, X2, Y2 = sp.symbols("x0 y0 x1 y1 x2 y2")
D01, D02, C = sp.symbols("d01 d02 c_star")  # the targets
S = sp.Symbol("S", positive=True)
COORDS = (X0, Y0, X1, Y1, X2, Y2)
ORIGIN = {X0: 0, Y0: 0}
N1, N2 = X1**2 + Y1**2, X2**2 + Y2**2  # |u|^2 and |v|^2 with agent 0 at the origin


def at_origin(expr):
    return expr.subs(ORIGIN).subs(sp.sqrt(N1 * N2), S)


def is_zero(expr) -> bool:
    numerator = sp.numer(sp.together(sp.expand(expr)))
    return sp.expand(sp.rem(sp.expand(numerator), S**2 - N1 * N2, S)) == 0


def flow_gradient():
    """``R_W^T e`` as the gradient of ``V``, agent 0 at the origin."""
    u, v = sp.Matrix([X1 - X0, Y1 - Y0]), sp.Matrix([X2 - X0, Y2 - Y0])
    nu, nv = u.dot(u), v.dot(v)
    errors = (nu - D01, nv - D02, u.dot(v) / sp.sqrt(nu * nv) - C)
    potential = sum(e**2 for e in errors) / 2
    return [at_origin(sp.diff(potential, x)) for x in COORDS]


def edge_weights():
    """``(w1, w2, w3)`` as ``_edge_weights`` states them, agent 0 at the origin."""
    cos = (X1 * X2 + Y1 * Y2) / S
    e01, e02, ec = N1 - D01, N2 - D02, cos - C
    return 2 * e01 - ec * cos / N1, 2 * e02 - ec * cos / N2, ec / S


def e_matrix(w1, w2, w3):
    a, b, c = w1 + w3, w2 + w3, -w3
    return sp.Matrix([[a + b, -a, -b], [-a, a + c, -c], [-b, -c, b + c]])


def test_gradient_is_the_e_matrix_times_p():
    E = e_matrix(*edge_weights())
    p = sp.Matrix([[0, 0], [X1, Y1], [X2, Y2]])
    Ep = E * p  # (E (x) I_2) p, one agent per row
    for got, want in zip(flow_gradient(), [Ep[k, c] for k in range(3) for c in range(2)]):
        assert is_zero(got - want)


def test_det_z_decays_at_rate_sigma():
    det = (X1 - X0) * (Y2 - Y0) - (Y1 - Y0) * (X2 - X0)
    rate = -sum(at_origin(sp.diff(det, x)) * g for x, g in zip(COORDS, flow_gradient()))
    w1, w2, w3 = edge_weights()
    assert is_zero(rate + 2 * (w1 + w2 + w3) * at_origin(det))


def test_symbolic_weights_are_the_library_weights():
    w = edge_weights()
    weights = sp.lambdify((X1, Y1, X2, Y2, D01, D02, C, S), (*w, e_matrix(*w)))
    rng = np.random.default_rng(151)
    for _ in range(20):
        f, t = random_three_agent_state(rng), random_targets(rng)
        (x1, y1), (x2, y2) = f.positions[1:] - f.positions[0]
        s = np.sqrt((x1 * x1 + y1 * y1) * (x2 * x2 + y2 * y2))
        *w, E = weights(x1, y1, x2, y2, *t.values(), s)
        np.testing.assert_allclose(_edge_weights(f, t), w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(e_matrix_three_agent(f, t), np.array(E, float),
                                   rtol=1e-12, atol=1e-12)
