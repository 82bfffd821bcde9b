"""Model layer: autocovariance kernels against independent oracles,
spectral-density cross-validation, and spec validation."""

import json
import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn, zeta

import scalefisher as sf
from scalefisher._quad import GAUSS_RULE, cos_tail_sum
from scalefisher.model import (
    LATTICE_TERMS,
    _folded_lattice,
    _hurwitz_zeta,
    _rising_binomial,
    integrated_fbm_boundary_cov,
    noise_symbol,
)

# ---------------------------------------------------------------------------
# oracles (independent of the production kernels)
# ---------------------------------------------------------------------------

def fbm_cov(s, t, H):
    return 0.5 * (abs(s) ** (2 * H) + abs(t) ** (2 * H) - abs(t - s) ** (2 * H))


def fgn_oracle(H, k):
    """Cov of unit-grid motion increments, expanded term by term from the
    motion covariance (never through the second-difference kernel)."""
    return (fbm_cov(k + 1, 1, H) - fbm_cov(k + 1, 0, H)
            - fbm_cov(k, 1, H) + fbm_cov(k, 0, H))


def integrated_brute_oracle(H, k, m):
    """Plain tensor Gauss-Legendre of the differenced-window kernel over the
    unit square at fixed order m."""
    x, w = np.polynomial.legendre.leggauss(m)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    arg = k + V - U
    g = 0.5 * (np.abs(arg - 1) ** (2 * H) + np.abs(arg + 1) ** (2 * H)
               - 2 * np.abs(arg) ** (2 * H))
    return float(np.sum(np.outer(wu, wu) * g))


def integrated_closed_oracle(H, k):
    """Exact antiderivative route: int (1 - |t|) g_H(k + t) dt with
    piecewise-polynomial-times-power primitives.  Exact for small k."""
    def f1(u):
        return np.sign(u) * np.abs(u) ** (2 * H + 1) / (2 * H + 1)

    def f2(u):
        return np.abs(u) ** (2 * H + 2) / (2 * H + 2)

    def seg(a, b, c, lo, hi):
        # int_lo^hi (a + b t) |t + c|^(2H) dt
        u1, u2 = lo + c, hi + c
        return (a - b * c) * (f1(u2) - f1(u1)) + b * (f2(u2) - f2(u1))

    tot = 0.0
    for shift, wgt in ((-1.0, 0.5), (1.0, 0.5), (0.0, -1.0)):
        tot += wgt * (seg(1.0, 1.0, k + shift, -1.0, 0.0)
                      + seg(1.0, -1.0, k + shift, 0.0, 1.0))
    return tot


# ---------------------------------------------------------------------------
# fGn autocovariance
# ---------------------------------------------------------------------------

def test_fgn_white_noise_case():
    assert sf.gamma_fgn(0.5, 0) == 1.0
    assert sf.gamma_fgn(0.5, 3) == 0.0
    assert sf.gamma_fgn(0.5, 1000) == 0.0


def test_fgn_frozen_values():
    # oracle = fBM increment covariance on the unit grid
    assert sf.gamma_fgn(0.75, 1) == pytest.approx(np.sqrt(2) - 1, abs=1e-14)
    assert sf.gamma_fgn(0.75, 1) == pytest.approx(0.41421356237309515, abs=1e-12)
    assert sf.gamma_fgn(0.25, 1) == pytest.approx(0.5 * (2 ** 0.5 - 2), abs=1e-14)
    assert sf.gamma_fgn(0.25, 1) == pytest.approx(-0.29289321881345254, abs=1e-12)
    assert sf.gamma_fgn(0.75, 2) == pytest.approx(0.5 * (3 ** 1.5 - 2 * 2 ** 1.5 + 1), abs=1e-14)


@pytest.mark.parametrize("H", [0.25, 0.5, 0.75])
def test_fgn_matches_fbm_oracle(H):
    for k in range(65):
        assert sf.gamma_fgn(H, k) == pytest.approx(fgn_oracle(H, k), abs=1e-12)


def test_fgn_large_lag_series_consistent():
    # the large-lag series branch must join the direct branch smoothly
    for H in (0.1, 0.3, 0.6, 0.9):
        k = np.array([7.999, 8.001, 20, 100, 10_000])
        direct = 0.5 * ((k + 1) ** (2 * H) + np.abs(k - 1) ** (2 * H) - 2 * k ** (2 * H))
        mine = sf.gamma_fgn(H, k)
        assert np.allclose(mine[:3], direct[:3], rtol=1e-10)
        asym = H * (2 * H - 1) * k[-1] ** (2 * H - 2)
        if H != 0.5:
            assert mine[-1] == pytest.approx(asym, rel=5e-4)


def test_fgn_domain_errors():
    with pytest.raises(sf.DomainError):
        sf.gamma_fgn(1.5, 0)
    with pytest.raises(sf.DomainError):
        sf.gamma_fgn(0.5, -1)


# ---------------------------------------------------------------------------
# integrated-motion autocovariance
# ---------------------------------------------------------------------------

def test_integrated_fbm_against_closed_oracle():
    H = 0.1
    for k in range(0, 6):
        assert sf.gamma_integrated_fbm(H, k) == pytest.approx(
            integrated_closed_oracle(H, k), rel=1e-8, abs=1e-12)
    # frozen values from the antiderivative oracle
    assert sf.gamma_integrated_fbm(H, 0) == pytest.approx(0.225300537874295, abs=1e-9)
    assert sf.gamma_integrated_fbm(H, 1) == pytest.approx(-0.0317415195857766, abs=1e-9)
    assert sf.gamma_integrated_fbm(H, 2) == pytest.approx(-0.0313308208074763, abs=1e-9)


def test_integrated_fbm_against_brute_quadrature():
    # smooth lags: plain tensor quadrature is itself reliable
    H = 0.12
    for k in (3, 5, 10):
        b512 = integrated_brute_oracle(H, k, 512)
        b1024 = integrated_brute_oracle(H, k, 1024)
        assert b512 == pytest.approx(b1024, rel=1e-10)
        assert sf.gamma_integrated_fbm(H, k) == pytest.approx(b1024, rel=1e-9)


def test_integrated_fbm_asymptote():
    H = 0.1
    k = 1000
    asym = H * (2 * H - 1) * k ** (2 * H - 2.0)
    assert sf.gamma_integrated_fbm(H, k) / asym == pytest.approx(1.0, abs=0.05)


def test_integrated_fbm_symmetry_and_domain():
    with pytest.raises(sf.DomainError):
        sf.gamma_integrated_fbm(0.3, 1)
    with pytest.raises(sf.DomainError):
        sf.gamma_integrated_fbm(0.1, -2)


def window_integral_cov_oracle(a, b, H):
    """Exact Cov(int_a^{a+1} B, int_b^{b+1} B) from antiderivatives of the
    motion covariance (smooth parts exact, kernel part via the triangular
    second antiderivative)."""
    g1 = lambda x: x ** (2 * H + 1) / (2 * H + 1)
    g2 = lambda x: np.abs(x) ** (2 * H + 2) / ((2 * H + 1) * (2 * H + 2))
    phi = g2(a - b + 1) - 2 * g2(a - b) + g2(a - b - 1)
    return 0.5 * ((g1(a + 1) - g1(a)) + (g1(b + 1) - g1(b)) - phi)


def test_integrated_boundary_covariance():
    H = 0.1
    b = integrated_fbm_boundary_cov(H, 4)
    # Var of the unit-window integral of the motion has the closed value 1/(2H+2)
    assert b[0] == pytest.approx(1.0 / (2 * H + 2), rel=1e-12)
    assert b[0] == pytest.approx(window_integral_cov_oracle(0, 0, H), rel=1e-12)
    # Cov(x_1, x_j) = Cov(I_1, I_j) - Cov(I_1, I_{j-1}) for j >= 2
    for j in (2, 3, 4):
        expect = (window_integral_cov_oracle(0, j - 1, H)
                  - window_integral_cov_oracle(0, j - 2, H))
        assert b[j - 1] == pytest.approx(expect, rel=1e-9, abs=1e-12)


def _dpow(x, p):
    return abs(x) ** p if x else Decimal(0)


def integrated_decimal_oracle(H, k):
    """gamma_k as the fourth difference of |k|^(2H+2) / (2 (2H+1) (2H+2)),
    in 50-digit decimal arithmetic at the binary value of H."""
    with localcontext() as ctx:
        ctx.prec = 50
        H, k = Decimal(H), Decimal(k)
        p = 2 * H + 2
        d4 = sum(c * _dpow(k + a, p) for c, a in ((1, -2), (-4, -1), (6, 0), (-4, 1), (1, 2)))
        return d4 / (2 * (2 * H + 1) * p)


def boundary_decimal_oracle(H, j):
    """Cov(x_1, x_j) from window_integral_cov_oracle's antiderivatives,
    Cov(I_1, I_j) - Cov(I_1, I_{j-1}), in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        H, k = Decimal(H), Decimal(j - 1)
        p1, p2 = 2 * H + 1, 2 * H + 2
        if k == 0:
            return 1 / p2
        drift = _dpow(k + 1, p1) - 2 * _dpow(k, p1) + _dpow(k - 1, p1)
        kern = _dpow(k + 1, p2) - 3 * _dpow(k, p2) + 3 * _dpow(k - 1, p2) - _dpow(k - 2, p2)
        return drift / (2 * p1) - kern / (2 * p1 * p2)


def test_integrated_covariances_match_decimal_oracle():
    lags = list(range(21)) + [50, 1000, 10 ** 5]
    js = [2, 3, 4, 5, 50, 500, 1962, 4096]
    for H in (0.01, 0.1, 0.24):
        gam = sf.gamma_integrated_fbm(H, np.array(lags))
        for k, g in zip(lags, gam):
            # the array call equals the scalar calls
            assert sf.gamma_integrated_fbm(H, k) == pytest.approx(g, rel=1e-15)
            want = integrated_decimal_oracle(H, k)
            assert abs((Decimal(g) - want) / want) < Decimal("1e-11"), (H, k)
        row = integrated_fbm_boundary_cov(H, 4096)
        for j in js:
            want = boundary_decimal_oracle(H, j)
            assert abs((Decimal(row[j - 1]) - want) / want) < Decimal("1e-11"), (H, j)


# ---------------------------------------------------------------------------
# positive semidefiniteness of the Toeplitz forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("make", [
    lambda n: sf.fbm_wn_spec(n, 0.25),
    lambda n: sf.fbm_wn_spec(n, 0.75),
    lambda n: sf.large_error_spec(n, 0.9, 0.3),
    lambda n: sf.integrated_fbm_spec(n, 0.1),
])
def test_preset_covariances_psd(n, make):
    cov = make(n).cov_x()
    eig = np.linalg.eigvalsh(cov)
    assert eig[0] >= -1e-8 * eig[-1]


def test_user_sequence_toeplitz_psd():
    spec = sf.user_spec(64, beta=0.5, sigma=1.0, tau=1.0, K=1,
                        gamma_values=[1.0, 0.4, 0.1], alpha=0.2,
                        ell=sf.SlowlyVaryingSpec("constant", 0.05))
    eig = np.linalg.eigvalsh(spec.cov_x())
    assert eig[0] >= -1e-8 * eig[-1]


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------

def brute_series(spec, lam, kmax=1 << 21, chunk=1 << 16):
    """gamma_0 + 2 sum_{1 <= k < kmax} gamma_k cos(k lam) + 2 * tail from kmax,
    summed in chunks of lags so memory stays bounded.  For a preset, whose
    gamma only approaches the power law that the tail sums, kmax = 1024 is
    an independent cross-check of the folded form."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.full(lam.shape, float(spec.gamma(0)))
    for lo in range(1, kmax, chunk):
        ks = np.arange(lo, min(lo + chunk, kmax))
        out += 2.0 * (np.cos(np.outer(lam, ks)) @ spec.gamma(ks))
    return out + 2.0 * spec._gamma_tail_cos(lam, kmax)


def test_spectrum_white_noise_flat():
    spec = sf.fbm_wn_spec(100, 0.5)
    for lam in (0.1, 1.0, np.pi):
        assert brute_series(spec, lam, kmax=1024)[0] == pytest.approx(1.0, abs=1e-10)
        assert spec.spectral_density_x(lam) == pytest.approx(1.0, rel=1e-12)
    # the noise spectrum 4^K tau^2 sin^(2K)(lam/2) is not flat: 4 tau^2 at pi
    assert noise_symbol(np.pi, spec.K, spec.tau) == pytest.approx(4 * spec.tau ** 2)


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
def test_spectrum_series_vs_aliased(H):
    spec = sf.fbm_wn_spec(64, H)
    grid = np.geomspace(1e-3, np.pi, 21)
    f_series = brute_series(spec, grid, kmax=1024)
    f_alias = spec.spectral_density_x(grid)
    assert np.allclose(f_series, f_alias, rtol=1e-6)


def test_spectrum_crosscheck_single_point():
    spec = sf.fbm_wn_spec(64, 0.7)
    a = brute_series(spec, 1.0, kmax=1024)[0]
    b = spec.spectral_density_x(1.0)
    assert a == pytest.approx(b, rel=1e-6)


# zeta(s, q) + zeta(s, 1 - q) at the binary values of the float s and q,
# computed once with mpmath 1.3.0 at 40 significant digits:
#   mpmath.mp.dps = 40; s_, q_ = mpmath.mpf(s), mpmath.mpf(q)
#   mpmath.zeta(s_, q_) + mpmath.zeta(s_, 1 - q_)
FOLDED_LATTICE_40_DIGITS = (
    (1.05, 1e-12, 3981071705576.139165412038270389484646037),
    (1.5, 0.01, 1005.225173273036377355788207660568005564),
    (2.0, 0.25, 19.73920880217871723766898199975230227063),
    (2.6, 0.5, 13.21891912124093561488759020744345581392),
    (3.2, 0.125, 778.6062355371114587936063346253794205354),
    (3.45, 0.4, 30.07523823987706037212695193999824368073),
)


def test_folded_lattice_matches_hurwitz_zeta():
    fgn_s = [2 * H + 1 for H in (0.025, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.975)]
    integrated_s = [2 * H + 3 for H in (0.025, 0.1, 0.2, 0.245)]
    q = np.append(np.geomspace(1e-16, 0.5, 200), 0.5)
    # the helper leaves out the j = 0 term q^-s, which is added back here
    for s in fgn_s + integrated_s:
        ref = zeta(s, q) + zeta(s, 1.0 - q)
        np.testing.assert_allclose(_folded_lattice(s, q) + q ** -s, ref, rtol=1e-13, atol=0)
        scalar = _folded_lattice(s, np.array(0.3))
        assert np.ndim(scalar) == 0
        assert scalar + 0.3 ** -s == pytest.approx(zeta(s, 0.3) + zeta(s, 0.7), rel=1e-13)
    for s, q0, ref in FOLDED_LATTICE_40_DIGITS:
        assert _folded_lattice(s, q0) + q0 ** -s == pytest.approx(ref, rel=2e-15)


# the lattice's s = 2H + 1 (fgn) and 2H + 3 (integrated preset) over H grids,
# and its orders k = 0, 2, ..., 2 (LATTICE_TERMS - 1)
LATTICE_S = ([2.0 * H + 1.0 for H in np.linspace(0.01, 0.99, 99)]
             + [2.0 * H + 3.0 for H in np.linspace(0.005, 0.245, 49)])
LATTICE_K = range(0, 2 * LATTICE_TERMS, 2)

# zeta(x, 2) at the binary value of the float x, computed once with mpmath
# 1.3.0 at 40 significant digits:
#   mpmath.mp.dps = 40; mpmath.zeta(mpmath.mpf(x), 2)
HURWITZ_ZETA2_40_DIGITS = (
    (1.05, 19.58084430203698482998434503405408692561),
    (2.0, 0.644934066848226436472415166646025189219),
    (33.45, 8.522111346720695149783570826809300882101e-11),
)


def test_hurwitz_zeta_equals_scipy_on_lattice_grid():
    # the port makes Cephes' operations in Cephes' order: bit for bit
    x = np.add.outer(LATTICE_S, np.array(LATTICE_K, dtype=float))
    got = np.array([[_hurwitz_zeta(float(v), 2.0) for v in row] for row in x])
    assert np.array_equal(got, zeta(x, 2.0))


def test_hurwitz_zeta_high_precision_values():
    for x, ref in HURWITZ_ZETA2_40_DIGITS:
        assert _hurwitz_zeta(x, 2.0) == pytest.approx(ref, rel=5e-16)


# the analytic continuation zeta(x, q) at x < 1, with mpmath 1.3.0 at 40
# significant digits: mpmath.zeta(mpmath.mpf(x), q)
@pytest.mark.parametrize("x, q, ref", [
    (0.2, 64, -34.604271539300567635),
    (0.5, 10, -6.1651246420854153802),
    (0.6, 64, -13.153780057510576162),
    (0.9, 2, -10.430114019402254591),
])
def test_hurwitz_zeta_continues_below_one(x, q, ref):
    assert _hurwitz_zeta(x, q) == pytest.approx(ref, rel=5e-16)


def test_rising_binomial_against_exact_rationals():
    # C(s+k-1, k) = prod (s-1+i) / i in exact rational arithmetic at the
    # binary value of s; the float products stay within 2e-15 of it
    worst = 0.0
    for s in LATTICE_S:
        exact = Fraction(1)
        for k in range(0, 31):
            if k:
                exact *= (Fraction(s) - 1 + k) / k
            worst = max(worst, abs(Fraction(_rising_binomial(s, k)) - exact) / exact)
    assert worst <= 4e-15


@pytest.mark.parametrize("values, alpha, ell", [
    ((2.0, 1.0, 0.7), -0.2, 0.5),       # the benchmark's user spectrum
    ((1.0, 0.3, -0.1), 0.2, 0.05),
    # 1500 given lags off the asymptote: all of them must enter the sum
    (tuple([4.0] + [0.5 * k ** -1.2 * (1 + 0.5 * np.cos(k)) for k in range(1, 1500)]),
     0.2, 0.05),
    pytest.param((2.0, 1.0, 0.7), -0.2, sf.SlowlyVaryingSpec("log_power", 0.5, 0.5),
                 id="log_power-rho0.5"),
    pytest.param((1.0, 0.3, -0.1), 0.2, sf.SlowlyVaryingSpec("log_power", 0.05, -0.3),
                 id="log_power-rho-0.3"),
])
def test_user_series_matches_brute_force(values, alpha, ell):
    if not isinstance(ell, sf.SlowlyVaryingSpec):
        ell = sf.SlowlyVaryingSpec("constant", ell)
    spec = sf.user_spec(100, beta=0.25, sigma=1.0, tau=1.0, K=1,
                        gamma_values=values, alpha=alpha, ell=ell)
    lam = np.geomspace(1e-5, np.pi, 12)
    np.testing.assert_allclose(spec.spectral_density_x(lam), brute_series(spec, lam),
                               rtol=1e-9)


def polylog_tail_oracle(p, lam, k0, terms=40):
    """Re Li_p(e^(i lam)) - sum_{k < k0} k^(-p) cos(k lam), the first term by
    the expansion Gamma(1-p) sin(pi p/2) lam^(p-1)
    + sum_j (-1)^j zeta(p-2j) lam^(2j) / (2j)!  (0 < lam < 2 pi)."""
    out = gamma_fn(1 - p) * np.sin(np.pi * p / 2) * lam ** (p - 1)
    for j in range(terms):
        out = out + (-1) ** j * zeta(p - 2 * j) * lam ** (2 * j) / math.factorial(2 * j)
    ks = np.arange(1, k0)
    return out - np.cos(np.outer(lam, ks)) @ ks ** -p


@pytest.mark.parametrize("p", [0.05, 0.6, 1.4, 1.95])
def test_power_law_tail_matches_polylog_oracle(p):
    # the oracle itself is good to 1.7e-13 against 40-digit mpmath for k0 <= 8
    alpha = (p - 1) / 2
    lam = np.geomspace(1e-10, np.pi, 41)
    spec = sf.user_spec(100, beta=0.25, sigma=1.0, tau=1.0, K=1, gamma_values=(1.0,),
                        alpha=alpha, ell=sf.SlowlyVaryingSpec("constant", 1.0))
    for k0 in (2, 3, 8):
        np.testing.assert_allclose(spec._gamma_tail_cos(lam, k0),
                                   np.sign(-alpha) * polylog_tail_oracle(p, lam, k0),
                                   rtol=1e-11)
    # log_power: the tail from lag 2 is the lags 2..4095 plus the tail from 4096,
    # to 1e-13 of the term scale (the summed lag magnitudes plus the tail's own)
    for rho in (0.5, -0.3):
        spec = sf.user_spec(100, beta=0.25, sigma=1.0, tau=1.0, K=1, gamma_values=(1.0,),
                            alpha=alpha, ell=sf.SlowlyVaryingSpec("log_power", 0.7, rho))
        ks = np.arange(2, 4096)
        g = spec.gamma(ks)
        whole = spec._gamma_tail_cos(lam, 2)
        split = np.cos(np.outer(lam, ks)) @ g + spec._gamma_tail_cos(lam, 4096)
        assert np.all(np.abs(whole - split) < 1e-13 * (np.sum(np.abs(g)) + np.abs(whole)))


def test_user_series_memory_is_bounded():
    # the series runs over blocks of frequencies, so one 16384-point call holds
    # one block's 4096 x (quadrature nodes) tail matrices at a time
    spec = sf.user_spec(100, beta=0.25, sigma=1.0, tau=1.0, K=1,
                        gamma_values=(2.0, 1.0, 0.7), alpha=-0.2,
                        ell=sf.SlowlyVaryingSpec("constant", 0.5))
    lam = np.geomspace(1e-5, np.pi, 16384)
    tracemalloc.start()
    try:
        f = spec.spectral_density_x(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    blocks = [spec.spectral_density_x(lam[lo:lo + 4096]) for lo in range(0, lam.size, 4096)]
    np.testing.assert_allclose(f, np.concatenate(blocks), rtol=1e-12)


@pytest.mark.parametrize("H", [0.05, 0.1, 0.2])
def test_integrated_folded_form_inverts_to_gamma(H):
    # (1/pi) int_0^pi f cos(k lam) = gamma_k; f ~ lam^(1-2H), so the piece
    # below 1e-10 is below 1e-16 and is left out
    spec = sf.integrated_fbm_spec(64, H)
    edges = np.concatenate([np.geomspace(1e-10, 0.1, 301), np.linspace(0.1, np.pi, 301)[1:]])
    x, w = GAUSS_RULE
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * x[None, :]
    f = spec.spectral_density_x(pts)
    for k in (0, 1, 2, 7):
        gk = float(np.sum(((f * np.cos(k * pts)) @ w) * half)) / np.pi
        assert gk == pytest.approx(sf.gamma_integrated_fbm(H, k), rel=1e-9)


def test_spectrum_small_lambda_power_law():
    # f(lam) * lam^(2 alpha) -> 2 sign(-alpha) Gamma(-2 alpha) cos(pi alpha) * ell
    spec = sf.fbm_wn_spec(64, 0.75)
    alpha = spec.alpha
    c_alpha = 2 * np.sign(-alpha) * gamma_fn(-2 * alpha) * np.cos(np.pi * alpha)
    lam = 1e-4
    limit = c_alpha * spec.ell.c
    assert brute_series(spec, lam, kmax=1024)[0] * lam ** (-2 * alpha) == pytest.approx(
        limit, rel=1e-6)
    assert spec.spectral_density_x(lam) * lam ** (-2 * alpha) == pytest.approx(
        limit, rel=1e-6)


@pytest.mark.parametrize("make", [lambda: sf.fbm_wn_spec(64, 0.9),
                                  lambda: sf.integrated_fbm_spec(64, 0.2)],
                         ids=["fbm-wn-0.9", "integrated-fbm-0.2"])
def test_preset_power_law_far_below_1e30(make):
    # the j = 0 lattice term goes with the sine factor, so neither q^-s
    # overflows (fbm-wn gave inf at 1e-120, nan at 1e-200) nor sin^(2m)
    # underflows (integrated-fbm was 2% low at 1e-80, nan at 1e-90)
    spec = make()
    alpha = spec.alpha
    c_alpha = 2 * np.sign(-alpha) * gamma_fn(-2 * alpha) * np.cos(np.pi * alpha)
    lam = np.array([1e-300, 1e-200, 1e-120, 1e-90, 1e-80])
    f = spec.spectral_density_x(lam)
    np.testing.assert_allclose(f * lam ** (-2 * alpha), c_alpha * spec.ell.c, rtol=1e-12)


@pytest.mark.parametrize("H", [0.3, 0.5, 0.75])
def test_parseval(H):
    # (1/pi) int_0^pi f = gamma_0
    spec = sf.fbm_wn_spec(64, H)
    edges = np.geomspace(1e-10, np.pi, 601)
    x, w = GAUSS_RULE
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    vals = spec.spectral_density_x(pts).reshape(-1, 16)
    total = float(np.sum((vals @ w) * half))
    total += spec.spectral_density_x(1e-10) * 1e-10 / (2 * spec.alpha + 1)
    assert total / np.pi == pytest.approx(spec.gamma(0), rel=1e-4)


def test_spectrum_domain_errors():
    spec = sf.fbm_wn_spec(64, 0.6)
    user = sf.user_spec(16, beta=0.5, sigma=1.0, tau=1.0, K=1,
                        gamma_values=[1.0, 0.2], alpha=-0.2,
                        ell=sf.SlowlyVaryingSpec("constant", 0.3))
    for bad in (0.0, -0.5, np.pi + 1e-9, np.nan):
        with pytest.raises(sf.DomainError):
            user.spectral_density_x(bad)
        with pytest.raises(sf.DomainError):
            spec.spectral_density_x(bad)
    # a nan among valid frequencies: presets gave a nan density, user
    # sequences a bare ValueError from the tail
    for model in (spec, sf.integrated_fbm_spec(64, 0.1), user):
        for bad in ([np.nan, 1.0], [1.0, np.nan, np.pi]):
            with pytest.raises(sf.DomainError, match="frequency"):
                model.noise_to_signal(bad)


@pytest.mark.parametrize("ell", [sf.SlowlyVaryingSpec("constant", 0.5),
                                 sf.SlowlyVaryingSpec("log_power", 0.7, 0.5)],
                         ids=["constant", "log_power"])
def test_tail_sum_of_many_frequencies_equals_single_calls(ell):
    # each frequency takes its own whole panels of the shared node lattice,
    # so one call over 1e-300 .. pi gives every frequency's single-call value
    spec = sf.user_spec(16, beta=0.5, sigma=1.0, tau=1.0, K=1,
                        gamma_values=[1.0, 0.2], alpha=-0.2, ell=ell)
    lam = np.geomspace(1e-300, np.pi, 201)
    batch = cos_tail_sum(0.6, lam, 3, spec.amplitude_of_log)
    single = np.array([cos_tail_sum(0.6, lam[i:i + 1], 3, spec.amplitude_of_log)[0]
                       for i in range(lam.size)])
    assert np.all(np.isfinite(batch))
    np.testing.assert_allclose(batch, single, rtol=2e-15, atol=0)


def test_user_sequence_tail_extension():
    # beyond the provided values, gamma follows the assumed power-law asymptote
    spec = sf.user_spec(16, beta=0.5, sigma=1.0, tau=1.0, K=1,
                        gamma_values=[1.0, 0.2], alpha=-0.2,
                        ell=sf.SlowlyVaryingSpec("constant", 0.3))
    assert spec.gamma(1) == 0.2
    k = 50
    assert spec.gamma(k) == pytest.approx(-np.sign(spec.alpha) * 0.3 * k ** (-2 * spec.alpha - 1))


# ---------------------------------------------------------------------------
# squared-autocovariance sums and normalization
# ---------------------------------------------------------------------------

def test_sum_gamma_squared_white_noise():
    spec = sf.fbm_wn_spec(16, 0.5)
    assert spec.sum_gamma_squared() == pytest.approx(1.0, rel=1e-9)


def _user(values, alpha, ell, K=1):
    return sf.user_spec(16, beta=0.2, sigma=1.0, tau=1.0, K=K, gamma_values=values,
                        alpha=alpha, ell=ell)


# the user spec of the benchmark's series op, and the supercritical log-power
# spec of the CLI test
USER_CONSTANT = _user((2.0, 1.0, 0.7), -0.2, sf.SlowlyVaryingSpec("constant", 0.5))
USER_LOGPOW = _user((1.0, 0.5), -0.1, sf.SlowlyVaryingSpec("log_power", 0.3, 0.5), K=0)

# sum over Z of gamma_k^2 at the binary values of the float inputs, with
# mpmath 1.3.0 at 40 significant digits.  Presets: the stencil summed directly
# to k = 2000 (gamma_0^2 + 2 sum_{0 < k < 2000} gamma_k^2), plus the tail:
# gamma_k's binomial series sum_m binom(p, m) M_m k^(p - m) / divisor,
# squared termwise and summed by mpmath.zeta(2m' - 2p, 2000).  User specs:
# the values, plus 2 c^2 mpmath.zeta(4 alpha + 2, len(values)) for a constant
# ell, and 2 c^2 (-mpmath.zeta(1.6, 2, 1)) (rho = 1/2) for the log-power one.
SUM_GAMMA_SQUARED_40_DIGITS = (
    (sf.fbm_wn_spec(16, 0.55), 1.0158264190136361966),
    (sf.fbm_wn_spec(16, 0.6), 1.0821308206827433105),
    (sf.fbm_wn_spec(16, 0.7), 1.9286298381837945562),
    (sf.fbm_wn_spec(16, 0.74), 7.5209448305278799351),
    (sf.integrated_fbm_spec(16, 0.1), 0.055240229533088527757),
    (USER_CONSTANT, 9.058153579764844776),
    (USER_LOGPOW, 1.9879919760339790643),
)


def test_sum_gamma_squared_brute():
    for spec, ref in SUM_GAMMA_SQUARED_40_DIGITS:
        assert spec.sum_gamma_squared() == pytest.approx(ref, rel=1e-14)
    # more values than the directly summed head: the same sequence
    longer = replace(USER_CONSTANT, x_cov=replace(
        USER_CONSTANT.x_cov, values=tuple(USER_CONSTANT.gamma_array(99))))
    assert longer.sum_gamma_squared() == pytest.approx(9.058153579764844776, rel=1e-14)
    # scale multiplies every gamma_k, so the sum by scale^2, the density by
    # scale and the closed form by scale^(min(dia, 4) / 2): 3^(dia/2) for the
    # subcritical spec, 9 for the supercritical one
    lam = np.geomspace(1e-6, np.pi, 41)
    for spec in (USER_CONSTANT, USER_LOGPOW):
        scaled = replace(spec, x_cov=replace(spec.x_cov, scale=3.0))
        assert scaled.sum_gamma_squared() == pytest.approx(9.0 * spec.sum_gamma_squared(),
                                                           rel=1e-14)
        np.testing.assert_allclose(scaled.gamma_array(99), 3.0 * spec.gamma_array(99),
                                   rtol=1e-14)
        np.testing.assert_allclose(scaled.spectral_density_x(lam),
                                   3.0 * spec.spectral_density_x(lam), rtol=1e-14)
        factor = 3.0 ** (min(spec.diamond, 4.0) / 2.0)
        assert sf.fisher_closed_form(scaled).closed_form == pytest.approx(
            factor * sf.fisher_closed_form(spec).closed_form, rel=1e-14)
    # alpha = 0: sign(-alpha) = 0 extends gamma by zeros, whatever ell is
    for ell in (sf.SlowlyVaryingSpec("constant", 0.7),
                sf.SlowlyVaryingSpec("log_power", 0.7, 0.4)):
        spec = _user((1.0, 0.3, -0.2), 0.0, ell)
        assert spec.sum_gamma_squared() == 1.0 + 2.0 * (0.3 ** 2 + 0.2 ** 2)


def test_large_error_normalization():
    spec = sf.large_error_spec(16, 0.6, 0.05)  # H < 3/4: normalized
    assert spec.sum_gamma_squared() == pytest.approx(1.0, rel=1e-14)
    # only x_cov carries the scale: ell is the unit-scale spec's, and gamma,
    # the density and the amplitude all scale alike
    unit = replace(spec, x_cov=replace(spec.x_cov, scale=1.0))
    scale = spec.x_cov.scale
    assert spec.ell == unit.ell
    np.testing.assert_allclose(spec.gamma_array(99), scale * unit.gamma_array(99),
                               rtol=1e-14)
    lam = np.geomspace(1e-6, np.pi, 41)
    np.testing.assert_allclose(spec.spectral_density_x(lam),
                               scale * unit.spectral_density_x(lam), rtol=1e-14)
    assert spec.amplitude_of_log(2.0) == pytest.approx(scale * unit.amplitude_of_log(2.0),
                                                       rel=1e-14)


def test_sum_gamma_squared_divergent():
    spec = sf.large_error_spec(16, 0.8, 0.1)  # H >= 3/4: left unnormalised
    with pytest.raises(sf.DomainError):
        spec.sum_gamma_squared()


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_model_spec_validation():
    with pytest.raises(sf.DomainError):
        sf.fbm_wn_spec(100, 1.5)
    with pytest.raises(sf.DomainError):
        sf.large_error_spec(100, 0.9, 0.5)  # beta >= H - 1/2
    with pytest.raises(sf.DomainError):
        sf.integrated_fbm_spec(100, 0.3)
    with pytest.raises(sf.DomainError):
        sf.ModelSpec(n=0, beta=0.5, sigma=1, tau=1, K=1,
                     x_cov=sf.AutocovarianceSpec(kind="fgn", hurst=0.5),
                     ell=sf.SlowlyVaryingSpec("constant", 1.0), alpha=0.0)
    with pytest.raises(sf.DomainError):
        sf.ModelSpec(n=10, beta=0.5, sigma=1, tau=0.0, K=1,
                     x_cov=sf.AutocovarianceSpec(kind="fgn", hurst=0.5),
                     ell=sf.SlowlyVaryingSpec("constant", 1.0), alpha=0.0)
    with pytest.raises(sf.DomainError):
        # K <= alpha leaves the characteristic undefined
        sf.ModelSpec(n=10, beta=0.5, sigma=1, tau=1.0, K=0,
                     x_cov=sf.AutocovarianceSpec(kind="fgn", hurst=0.3),
                     ell=sf.SlowlyVaryingSpec("constant", 1.0), alpha=0.2)


def test_spec_rejects_non_integer_size_and_order():
    # a float n or K passed validation: fisher_exact then raised a bare
    # TypeError, and fisher_integral gave a value at n = 64.5
    for n in (64.0, 64.5, True):
        with pytest.raises(sf.DomainError, match="n must be"):
            sf.fbm_wn_spec(n, 0.5)
    with pytest.raises(sf.DomainError, match="K must be"):
        sf.user_spec(64, 0.25, 1.0, 1.0, 1.0, (1.0,), 0.0,
                     sf.SlowlyVaryingSpec("constant", 1.0))
    assert sf.fbm_wn_spec(np.int64(64), 0.5).n == 64
    assert sf.fisher_integral(sf.fbm_wn_spec(10 ** 300, 0.5)) > 0


def test_numpy_integer_sizes_are_stored_as_python_ints():
    # validation accepts numpy integers, which json cannot write: the Fisher
    # report of fbm_wn_spec(np.int64(64), 0.5) raised TypeError in to_json
    ell = sf.SlowlyVaryingSpec("constant", 1.0)
    spec = sf.user_spec(np.int64(64), 0.25, 1.0, 1.0, np.int32(1), (1.0,), 0.0, ell)
    assert type(spec.n) is int and type(spec.K) is int
    same = sf.user_spec(64, 0.25, 1.0, 1.0, 1, (1.0,), 0.0, ell)
    assert spec == same and hash(spec) == hash(same)
    report = sf.fisher_report(sf.fbm_wn_spec(np.int64(64), 0.5))
    assert json.loads(report.to_json()) == json.loads(sf.fisher_report(
        sf.fbm_wn_spec(64, 0.5)).to_json())


@pytest.mark.parametrize("field", ["sigma", "tau", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_model_spec_rejects_non_finite_parameters(field, value):
    # nan passed every comparison: the CLI printed a bare NaN (not JSON) or
    # 0.0 for every Fisher route, and simulate wrote rows of nan
    with pytest.raises(sf.DomainError, match=f"{field} must be"):
        replace(sf.fbm_wn_spec(64, 0.5), **{field: value})


def test_fbm_wn_diamond():
    for H in (0.25, 0.5, 0.75):
        spec = sf.fbm_wn_spec(32, H)
        assert spec.diamond == pytest.approx(2.0 / (2 * H + 1), rel=1e-14)
        assert spec.K == 1 and spec.beta == H and spec.alpha == 0.5 - H


def test_slowly_varying_spec():
    # ell(x) = c (log x)^rho, evaluated at s = log x and times x_cov.scale
    const = _user((1.0,), -0.2, sf.SlowlyVaryingSpec("constant", 2.5))
    assert const.amplitude_of_log(math.log(10.0)) == 2.5
    lp = _user((1.0,), -0.2, sf.SlowlyVaryingSpec("log_power", 2.0, 0.5))
    assert lp.amplitude_of_log(4.0) == pytest.approx(2.0 * 2.0)
    scaled = replace(lp, x_cov=replace(lp.x_cov, scale=3.0))
    assert scaled.amplitude_of_log(4.0) == pytest.approx(3.0 * 2.0 * 2.0)
    with pytest.raises(sf.DomainError):
        sf.SlowlyVaryingSpec("log_power", 1.0, -0.75)
    with pytest.raises(sf.DomainError):
        sf.SlowlyVaryingSpec("nope", 1.0)


@pytest.mark.parametrize("make", [
    lambda: sf.SlowlyVaryingSpec("constant", math.inf),
    lambda: sf.SlowlyVaryingSpec("constant", math.nan),
    lambda: sf.SlowlyVaryingSpec("log_power", math.inf, 0.5),
    lambda: sf.SlowlyVaryingSpec("log_power", 0.5, math.nan),
    lambda: sf.SlowlyVaryingSpec("log_power", 0.5, math.inf),
    lambda: sf.SlowlyVaryingSpec("constant", 0.5, 0.7),
    lambda: sf.AutocovarianceSpec("fgn", 0.3, scale=math.nan),
    lambda: sf.AutocovarianceSpec("fgn", 0.3, scale=math.inf),
    lambda: sf.AutocovarianceSpec("fgn", 0.3, scale=-1.0),
    lambda: sf.AutocovarianceSpec("fgn", 0.3, scale=0.0),
    lambda: sf.AutocovarianceSpec("user_sequence", values=(1.0, math.nan)),
    lambda: sf.AutocovarianceSpec("user_sequence", values=(math.inf, 0.5)),
], ids=["const-c-inf", "const-c-nan", "logpow-c-inf", "logpow-rho-nan", "logpow-rho-inf",
        "const-rho-nonzero", "scale-nan", "scale-inf", "scale-negative", "scale-zero",
        "values-nan", "values-inf"])
def test_spec_fields_reject_non_finite(make):
    # a non-finite field would come out as an inf or nan Fisher value, a bare
    # ValueError or a numerical failure (QuadratureError, LinAlgError); a
    # constant ell has no rho to take
    with pytest.raises(sf.DomainError):
        make()


def test_is_critical_agrees_with_rational_arithmetic():
    # K - alpha == 1/4 decided in integers on the binary value of alpha, as
    # Fraction decides it; the grid holds the one critical point of the
    # valid domain, (0, -1/4), its float neighbours, and the preset alphas
    alphas = {float(a) for a in np.linspace(-0.49, 0.49, 99)}
    alphas |= {0.5 - H for H in (0.25, 0.3, 0.5, 0.6, 0.75, 0.9)}
    alphas |= {0.1 + 0.2 - 0.55, -0.25, 0.0}
    a = -0.25
    for _ in range(3):
        a = float(np.nextafter(a, 0.0))
        alphas.add(a)
    a = -0.25
    for _ in range(3):
        a = float(np.nextafter(a, -1.0))
        alphas.add(a)
    critical = []
    for K in range(4):
        for alpha in sorted(alphas):
            if not K > alpha:
                continue
            spec = sf.user_spec(16, 0.2, 1.0, 1.0, K, [1.0], alpha,
                                sf.SlowlyVaryingSpec("constant", 0.0))
            want = Fraction(K) - Fraction(alpha) == Fraction(1, 4)
            assert spec.is_critical is want, (K, alpha)
            critical += [(K, alpha)] if want else []
            assert replace(spec, alpha=np.float64(alpha)).is_critical is want
    assert critical == [(0, -0.25)]
    assert sf.large_error_spec(1000, 0.75, 0.1).is_critical
