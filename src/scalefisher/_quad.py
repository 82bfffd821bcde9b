"""Gauss-Legendre panel quadrature and oscillatory power-law tail integrals."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries diagnostics in ``info``."""

    def __init__(self, message, info=None):
        super().__init__(message)
        self.info = dict(info or {})


@lru_cache(maxsize=64)
def gauss_nodes(m: int):
    x, w = np.polynomial.legendre.leggauss(m)
    return x, w


def panel_integrate(fun, edges, nodes: int = 16) -> float:
    """Integrate ``fun`` over consecutive panels given by ``edges``.

    All nodes are evaluated in a single vectorized call to ``fun``.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_nodes(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = fun(pts.ravel()).reshape(pts.shape)
    return float(np.sum((vals @ w) * half))


def asymptotic_cos_tail(p: float, z):
    """``int_z^inf u^(-p) cos(u) du`` for large ``z`` by integration by parts.

    Two-step recursion C(q) = -z^(-q) sin z + q z^(-q-1) cos z - q(q+1) C(q+2);
    truncation error is O(z^(-p-12)), negligible for z >= 40.
    """
    z = np.asarray(z, dtype=float)
    sz, cz = np.sin(z), np.cos(z)
    depth = 6
    val = np.zeros_like(z)
    for j in range(depth - 1, -1, -1):
        q = p + 2 * j
        val = -(z ** (-q)) * sz + q * z ** (-q - 1) * cz - q * (q + 1) * val
    return val


_OSC_SPLIT = 50.0  # below: explicit panels; above: asymptotic expansion


def _osc_edges(zmin: float) -> np.ndarray:
    """Panel edges on [zmin, _OSC_SPLIT] resolving both u->0 and oscillation."""
    lo = min(zmin, 2.0)
    n_geo = max(int(np.ceil(4.0 * np.log10(2.0 / lo))), 1) + 1 if lo < 2.0 else 1
    geo = np.geomspace(lo, 2.0, n_geo)
    lin = np.linspace(2.0, _OSC_SPLIT, 97)
    return np.unique(np.concatenate([geo, lin]))


_ABEL_DEPTH = 12  # forward differences of the tail terms kept


def _abel_cos_tail(p: float, lam, k_start: int, ell_fun, ell_const: float):
    """Tail sum by iterated summation by parts against the geometric kernel.

    sum_{k>=K} a_k x^k = x^K/(1-x) * sum_j (x/(1-x))^j (Delta^j a)(K) + rem,
    x = exp(i lam).  The difference table is noise-limited, so terms are
    accumulated per lam only while their magnitude keeps decreasing.
    Complements the Euler-Maclaurin route which covers small lam.
    """
    ks = k_start + np.arange(_ABEL_DEPTH + 1, dtype=float)
    a = ks ** (-p) * (ell_fun(ks) if ell_fun is not None else ell_const)
    fwd = np.empty(_ABEL_DEPTH)
    cur = a
    for j in range(_ABEL_DEPTH):
        fwd[j] = cur[0]
        cur = np.diff(cur)
    x = np.exp(1j * lam)
    r = x / (1.0 - x)
    acc = np.full_like(x, fwd[0])
    rj = np.ones_like(x)
    prev_mag = np.full(lam.shape, abs(fwd[0]))
    active = np.ones(lam.shape, dtype=bool)
    for j in range(1, _ABEL_DEPTH):
        rj = rj * r
        term = fwd[j] * rj
        mag = np.abs(term)
        active &= mag < prev_mag
        acc = np.where(active, acc + term, acc)
        prev_mag = np.where(active, mag, prev_mag)
    return np.real(np.exp(1j * lam * k_start) / (1.0 - x) * acc)


def cos_tail_sum(p: float, lam, k_start: int, ell_fun=None, ell_const: float = 1.0):
    """``sum_{k >= k_start} k^(-p) ell(k) cos(k lam)`` for 0 < p < 2.

    Small lam: midpoint Euler-Maclaurin (integral from ``k_start - 1/2`` plus
    a first-derivative correction).  Larger lam: Abel summation by parts.
    ``ell_fun`` is a slowly varying factor; ``ell_const`` is the constant
    fast path.
    """
    scalar = np.isscalar(lam) or np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    switch = max(0.05, 40.0 / k_start)
    big_lam = lam >= switch
    out = np.empty_like(lam)
    if np.any(big_lam):
        out[big_lam] = _abel_cos_tail(p, lam[big_lam], k_start, ell_fun, ell_const)
    if not np.any(~big_lam):
        return float(out[0]) if scalar else out
    res = _em_cos_tail(p, lam[~big_lam], k_start, ell_fun, ell_const)
    out[~big_lam] = res
    return float(out[0]) if scalar else out


def _em_cos_tail(p: float, lam, k_start: int, ell_fun, ell_const: float):
    a = k_start - 0.5
    z = lam * a
    out = np.empty_like(lam)

    if ell_fun is None:
        # integral part, constant ell: lam^(p-1) * int_z^inf u^-p cos u du
        big = z >= _OSC_SPLIT
        ju = np.empty_like(z)
        if np.any(big):
            ju[big] = asymptotic_cos_tail(p, z[big])
        if np.any(~big):
            zs = z[~big]
            edges = _osc_edges(zs.min())
            # cumulative panel integrals of u^-p (cos u - 1), right-to-left
            x, w = gauss_nodes(16)
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            pts = mid[:, None] + half[:, None] * x[None, :]
            g = pts ** (-p) * (-2.0 * np.sin(pts / 2.0) ** 2)
            panel = (g @ w) * half
            cum = np.concatenate([np.cumsum(panel[::-1])[::-1], [0.0]])
            idx = np.searchsorted(edges, zs, side="right") - 1
            idx = np.clip(idx, 0, len(edges) - 2)
            rest = cum[idx + 1]
            # partial panel [z, edges[idx+1]]
            pm = 0.5 * (zs + edges[idx + 1])
            ph = 0.5 * (edges[idx + 1] - zs)
            pp = pm[:, None] + ph[:, None] * x[None, :]
            gg = pp ** (-p) * (-2.0 * np.sin(pp / 2.0) ** 2)
            osc = rest + (gg @ w) * ph
            if p == 1.0:
                pow_part = np.log(_OSC_SPLIT / zs)
            else:
                pow_part = (_OSC_SPLIT ** (1.0 - p) - zs ** (1.0 - p)) / (1.0 - p)
            ju[~big] = pow_part + osc + asymptotic_cos_tail(p, _OSC_SPLIT)
        integral = ell_const * lam ** (p - 1.0) * ju
        em = ell_const * (-p * a ** (-p - 1) * np.cos(lam * a)
                          - lam * a ** (-p) * np.sin(lam * a)) / 24.0
        out = integral + em
    else:
        def _frozen_tail(u0, li):
            # freeze ell at u0 plus first-order slowly-varying drift
            h = 1e-5 * u0 / li
            l0 = ell_fun(u0 / li)
            dl = (ell_fun(u0 / li + h) - ell_fun(u0 / li - h)) / (2.0 * h) / li
            return (l0 - dl * u0) * asymptotic_cos_tail(p, u0) \
                + dl * asymptotic_cos_tail(p - 1.0, u0)

        for i, (li, zi) in enumerate(zip(lam, z)):
            if zi >= _OSC_SPLIT:
                ju = _frozen_tail(zi, li)
            else:
                edges = _osc_edges(zi)
                edges = np.unique(np.clip(edges, zi, None))
                if edges[0] > zi:
                    edges = np.concatenate([[zi], edges])

                def g(u):
                    return u ** (-p) * ell_fun(u / li) * np.cos(u)

                ju = panel_integrate(g, edges, nodes=24)
                ju += _frozen_tail(_OSC_SPLIT, li)
            integral = li ** (p - 1.0) * ju
            h = 1e-5 * a
            dell = (ell_fun(a + h) - ell_fun(a - h)) / (2.0 * h)
            em = ((-p * a ** (-p - 1) * ell_fun(a) + a ** (-p) * dell) * np.cos(li * a)
                  - li * a ** (-p) * ell_fun(a) * np.sin(li * a)) / 24.0
            out[i] = integral + em
    return out
