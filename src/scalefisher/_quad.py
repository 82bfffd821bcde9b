"""Gauss-Legendre panel quadrature, and power-law tails
``sum_{k >= k0} k^(-p) ell(k) cos(k lam)`` (also at lam = 0) by the
Abel-Plana summation formula, which turns them into smooth integrals.  The
amplitude ell is passed as a function of log x, ``amp_of_log(s) = ell(e^s)``."""

from __future__ import annotations

import math

import numpy as np


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries diagnostics in ``info``."""

    def __init__(self, message, info=None):
        super().__init__(message)
        self.info = dict(info or {})


NODES = 16  # Gauss-Legendre nodes per panel, in every panel rule
GAUSS_RULE = np.polynomial.legendre.leggauss(NODES)  # (nodes, weights) on [-1, 1]


def _panel_nodes(edges):
    """Gauss nodes of each panel, shape (panels, NODES), and the half-widths."""
    edges = np.asarray(edges, dtype=float)
    x, _ = GAUSS_RULE
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x[None, :], half


def panel_integrate(fun, edges) -> float:
    """Integrate ``fun`` over consecutive panels given by ``edges``.

    All nodes are evaluated in a single vectorized call to ``fun``.
    """
    pts, half = _panel_nodes(edges)
    vals = fun(pts.ravel()).reshape(pts.shape)
    return float(np.sum((vals @ GAUSS_RULE[1]) * half))


def _flat_rule(edges):
    """Nodes and weights of the Gauss panels on ``edges``, flattened."""
    pts, half = _panel_nodes(edges)
    return pts.ravel(), (half[:, None] * GAUSS_RULE[1][None, :]).ravel()


# e^(-lam y) is below 5e-18 past lam y = _DECAY_REACH, so the first integral
# stops there; its panels are [0, 1], then _PANELS_PER_DECADE geometric ones
# per decade of y, with edges at the powers 10^(k / _PANELS_PER_DECADE)
_DECAY_REACH = 40.0
_PANELS_PER_DECADE = 3
# the second integrand is below 4e-17 |a| past y = 12, for every lam <= pi;
# unit panels keep its poles at y = +-i (and a's singularities at distance
# >= k0 - 1 >= 1) outside each panel's convergence ellipse
_BOSE_EDGES = np.linspace(0.0, 12.0, 13)


def cos_tail_sum(p: float, lam, k_start: int, amp_of_log):
    """``sum_{k >= k_start} a(k) cos(k lam)``, ``a(x) = x^(-p) amp(x)``, for
    a 1-D array ``lam`` in (0, pi] and ``k_start >= 2``, with
    ``amp_of_log(s) = amp(e^s)`` at s = log(k0 + i y) (e^s is never formed).

    Abel-Plana (DLMF 2.10(i)) for a(x) e^(i x lam), with the integral over
    [k0, inf) turned onto the ray k0 + i y, gives the real part of

        e^(i k0 lam) [a(k0)/2 + i int_0^inf a(k0+iy) e^(-lam y) dy
            + i int_0^inf (a(k0+iy) e^(-lam y) - conj(a(k0+iy)) e^(lam y))
                          / (e^(2 pi y) - 1) dy].

    It holds for 0 < lam < 2 pi when a is analytic and power-bounded on
    Re x >= k0, so ``amp_of_log`` must accept complex s.  a is evaluated as
    exp(-p s) amp_of_log(s), s = log x: numpy's complex power x^(-p) gives
    the same bits.  Neither integrand oscillates.  The first integral's
    panels lie on one fixed geometric lattice, and each lam takes the whole
    panels up to y = 40 / lam, so its nodes, and up to rounding its value,
    do not depend on the other lam in the call.  The lam needing the same panel count form one group: a real
    matrix of exponentials over a prefix of the shared nodes, times two real
    vectors.
    """
    lam = np.asarray(lam, dtype=float)
    panels = np.ceil(_PANELS_PER_DECADE * np.log10(_DECAY_REACH / lam)).astype(int)
    n_geo = int(panels.max())
    y1, w1 = _flat_rule(np.concatenate(
        [[0.0], 10.0 ** (np.arange(n_geo + 1) / _PANELS_PER_DECADE)]))
    y2, w2 = _flat_rule(_BOSE_EDGES)
    z = np.log(np.concatenate([[0.0], y1, y2]) * 1j + k_start)
    a = np.exp(-p * z) * amp_of_log(z)
    a0, a1, a2 = a[0].real, a[1:1 + y1.size], a[1 + y1.size:]
    # columns: the weighted imaginary and real parts of a along the ray
    wa1 = np.stack([w1 * a1.imag, w1 * a1.real], axis=1)
    first = np.empty((lam.size, 2))
    order = np.argsort(panels, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(panels[order])) + 1):
        m = NODES * (1 + int(panels[group[0]]))
        decay = np.outer(-lam[group], y1[:m])
        np.exp(decay, out=decay)
        first[group] = decay @ wa1[:m]
    w2 = w2 / np.expm1(2.0 * np.pi * y2)
    ly = np.outer(lam, y2)
    re = 0.5 * a0 - first[:, 0] - 2.0 * (np.cosh(ly) @ (w2 * a2.imag))
    im = first[:, 1] - 2.0 * (np.sinh(ly) @ (w2 * a2.real))
    return re * np.cos(k_start * lam) - im * np.sin(k_start * lam)


def power_tail_sum(p: float, k_start: int, amp_of_log) -> float:
    """``sum_{k >= k_start} a(k)``, ``a(x) = x^(-p) amp(x)``, p > 1, with
    ``amp_of_log(s) = amp(e^s)`` at real s and s = log(k0 + i y) (e^s is never
    formed), by Abel-Plana at lam = 0 (see ``cos_tail_sum``): a(k0)/2 +
    int_k0^inf a - 2 int_0^inf Im a(k0+iy) / (e^(2 pi y) - 1) dy.  The first
    integral, in s = log x, takes panels geometric in u + d up to e^(-u) =
    1e-87, u = (p-1)(s - log k0), d = min((p-1) log k0, 1): each resolves
    e^(-u) and keeps amp's singularity at s = 0 out of its ellipse."""
    c, L = p - 1.0, math.log(k_start)
    d = min(c * L, 1.0)
    m = math.ceil(_PANELS_PER_DECADE * math.log10((d + 200.0) / d))
    u, wu = _flat_rule(d * 10.0 ** (np.arange(m + 1) / _PANELS_PER_DECADE))
    s = L + (u - d) / c
    y, wy = _flat_rule(_BOSE_EDGES)
    z = np.log(k_start + 1j * y)
    ray = np.dot(wy / np.expm1(2.0 * np.pi * y), (np.exp(-p * z) * amp_of_log(z)).imag)
    line = np.dot(wu * np.exp(-c * s), amp_of_log(s)) / c
    return float(0.5 * k_start ** -p * amp_of_log(L) + line - 2.0 * ray)
