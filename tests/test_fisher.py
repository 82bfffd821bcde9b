"""Fisher layer: exact eigenvalue sum vs trace oracle, spectral integral,
closed-form constants and their cross-identities, regime dispatch, scans."""

import json
import math
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import scalefisher as sf
from scalefisher._quad import panel_integrate
from scalefisher.fisher import (
    INTEGRAL_RTOL,
    METHODS,
    _phase_prefactor,
    _ratio_sq,
    information_sum,
    spectral_crossover,
)
from scalefisher.model import with_n


def flat_spec(n, beta=0.5, sigma=1.0, tau=1.0):
    """White signal, white noise: every whitened eigenvalue equals 1/tau^2."""
    return sf.user_spec(n, beta=beta, sigma=sigma, tau=tau, K=0,
                        gamma_values=[1.0], alpha=-0.1,
                        ell=sf.SlowlyVaryingSpec("constant", 0.0))


def white_fisher(n, beta, sigma, tau):
    w = float(n) ** (-2.0 * beta) / tau ** 2
    return 0.5 * n * w ** 2 / (sigma ** 2 * w + 1.0) ** 2


def brownian_white_fisher(spec):
    """The exact Fisher information of Brownian motion under white noise,
    fbm-wn at H = 1/2, in closed form at any n, with no lam array.

    There lam_j = gamma_0 / (tau^2 s_j), s_j = 2 - 2 cos u_j, so
    I = (b^2 / 2) sum_j (x - cos u_j)^-2 with b = gamma_0 n^(-2 beta) / (2 tau^2)
    and x = 1 + sigma^2 b.  The cos u_j are the zeros of the Chebyshev
    polynomial of the third kind, V_n(cos th) = cos((n + 1/2) th) / cos(th / 2),
    so with x = cosh t and L(t) = log V_n(cosh t) the sum is -(log V_n)''(x)
    = (L' cosh t - L'' sinh t) / sinh^3 t.  It is taken times t^3, and b^2
    as (e / t^2)^2 t^4 with e = x - 1 = sigma^2 b: t is about sqrt(2 e), so
    nothing under- or overflows up to n = 1e300.  t = acosh(1 + e) comes
    from e without forming x, and sech^2 through exp(-a), which underflows
    to 0 where cosh would overflow."""
    sigma, m = spec.sigma, spec.n + 0.5
    e = sigma ** 2 * spec.gamma(0) * float(spec.n) ** (-2.0 * spec.beta) / (2.0 * spec.tau ** 2)
    t = math.log1p(e + math.sqrt(e * (2.0 + e)))
    q = math.exp(-2.0 * m * t)
    dl = m * (1.0 - q) / (1.0 + q) - 0.5 * math.tanh(t / 2.0)
    d2l = (2.0 * m * math.exp(-m * t) / (1.0 + q)) ** 2 - 0.25 / math.cosh(t / 2.0) ** 2
    sum_t3 = (dl * math.cosh(t) - d2l * math.sinh(t)) * (t / math.sinh(t)) ** 3
    return 0.5 * (e / (sigma * t) ** 2) ** 2 * t * sum_t3


# ---------------------------------------------------------------------------
# exact Fisher
# ---------------------------------------------------------------------------

def test_exact_white_noise_closed_form():
    for n, beta, sigma, tau in [(64, 0.5, 1.0, 1.0), (128, 0.3, 2.0, 0.7)]:
        spec = flat_spec(n, beta, sigma, tau)
        assert sf.fisher_exact(spec) == pytest.approx(
            white_fisher(n, beta, sigma, tau), rel=1e-10)


def test_exact_matches_trace_oracle():
    for spec in (sf.fbm_wn_spec(96, 0.3), sf.fbm_wn_spec(64, 0.75, sigma=1.2, tau=0.8),
                 sf.integrated_fbm_spec(48, 0.1)):
        val = sf.fisher_exact(spec)
        cov_x = spec.cov_x()
        cov_z = (spec.sigma ** 2 * float(spec.n) ** (-2 * spec.beta) * cov_x
                 + sf.diff_cov(spec.n, spec.K, spec.tau, spec.noise_convention))
        b = float(spec.n) ** (-2 * spec.beta) * np.linalg.solve(cov_z, cov_x)
        assert val == pytest.approx(0.5 * float(np.sum(b * b.T)), rel=1e-6)


def test_exact_integrated_preset_matches_high_precision_oracle():
    # I = 1/2 tr((Cov(z)^-1 n^(-2 beta) Cov(x))^2) solved in 40-digit mpmath
    # arithmetic on the float64 cov_x and diff_cov entries, so it checks the
    # linear algebra alone; Cov(y) = tau^2 (D D^t)^2 has condition number
    # about n^4, which the whitening route loses to rounding
    spec = sf.integrated_fbm_spec(64, 0.1)
    assert sf.fisher_exact(spec) == pytest.approx(0.43164739668166273781, rel=2e-10)


# the seed references of the benchmark's fisher_exact checks
DENSE_REFS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())["dense"]


@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
def test_exact_white_route_matches_references(n):
    # at H = 1/2 the whitening is the closed-form cosine route; it must
    # meet the values the dense route gave
    sf.whitened_system.cache_clear()
    got = sf.fisher_exact(sf.fbm_wn_spec(n, 0.5))
    assert isinstance(sf.whitened_system(sf.fbm_wn_spec(n, 0.5)), sf.linalg._CosineSystem)
    assert abs(got / DENSE_REFS[f"fbm-wn:n={n}:H=0.50"] - 1.0) <= 1e-13


def test_exact_scaling_law():
    spec = sf.fbm_wn_spec(72, 0.6, sigma=1.1, tau=0.9)
    base = sf.fisher_exact(spec)
    c = 1.8
    scaled = sf.fbm_wn_spec(72, 0.6, sigma=c * 1.1, tau=c * 0.9)
    assert sf.fisher_exact(scaled) == pytest.approx(base / c ** 4, rel=1e-10)


def test_exact_convention_invariance():
    spec_a = sf.fbm_wn_spec(64, 0.4)
    spec_b = sf.ModelSpec(**{**spec_a.__dict__, "noise_convention": "deltaT_delta"})
    assert sf.fisher_exact(spec_a) == pytest.approx(
        sf.fisher_exact(spec_b), rel=1e-10)


def test_exact_monotonicity():
    spec = sf.fbm_wn_spec(64, 0.6)
    lam = sf.whitened_system(spec).lam
    base = information_sum(1.0, lam, 64, 0.6)
    # increasing every eigenvalue increases the information
    assert information_sum(1.0, lam * 1.01, 64, 0.6) > base
    bumped = lam.copy()
    bumped[5] *= 1.1
    assert information_sum(1.0, bumped, 64, 0.6) > base
    # increasing tau decreases it
    hi_tau = sf.fbm_wn_spec(64, 0.6, tau=1.2)
    assert sf.fisher_exact(hi_tau) < sf.fisher_exact(spec)


@pytest.mark.parametrize("n, sigma", [
    *((n, sigma) for n in (1, 2, 3, 64, 257, 2048) for sigma in (0.3, 1.0, 2.0)),
    (8192, 1.0)])
def test_exact_meets_brownian_white_closed_form(n, sigma):
    # the exact route sums n eigenvalues; the closed form is O(1) work
    spec = sf.fbm_wn_spec(n, 0.5, sigma=sigma)
    assert abs(sf.fisher_exact(spec) / brownian_white_fisher(spec) - 1.0) <= 4e-15


@pytest.mark.parametrize("n", [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 8, 10 ** 20, 10 ** 100, 10 ** 300])
def test_integral_meets_brownian_white_closed_form(n):
    # the spectral integral misses the exact value by I / (2n); the gap is
    # resolved where it is above the integral's rounding, up to n = 1e8
    spec = sf.fbm_wn_spec(n, 0.5)
    exact, integral = brownian_white_fisher(spec), sf.fisher_integral(spec)
    assert integral == pytest.approx(exact * (1.0 - 0.5 / n), rel=INTEGRAL_RTOL)
    if n <= 10 ** 8:
        assert abs((exact - integral) / (exact / (2 * n)) - 1.0) <= 1e-3


def test_benchmark_h_half_desk_scale():
    # n^(-1/2) / I -> 8 sigma^3 tau for the half-index preset
    spec = sf.fbm_wn_spec(4096, 0.5)
    inv = 1.0 / sf.fisher_exact(spec)
    assert np.sqrt(4096.0) * inv == pytest.approx(8.0, rel=0.10)


# ---------------------------------------------------------------------------
# spectral integral
# ---------------------------------------------------------------------------

def test_integral_flat_matches_exact():
    spec = flat_spec(100, beta=0.5)
    assert sf.fisher_integral(spec) == pytest.approx(
        sf.fisher_exact(spec), rel=1e-6)


def test_integral_benchmark_h_half():
    spec = sf.fbm_wn_spec(10 ** 8, 0.5)
    val = sf.fisher_integral(spec)
    assert np.sqrt(1e8) / val == pytest.approx(8.0, rel=0.01)


def test_integral_benchmark_h_quarter():
    spec = sf.fbm_wn_spec(10 ** 8, 0.25)
    val = sf.fisher_integral(spec)
    assert (1e8) ** (2.0 / 3.0) / val == pytest.approx(10.64, rel=0.02)


def test_integral_scaled_parameters():
    # the sigma/tau dependence of the inverse: 8 sigma^3 tau n^(-1/2)
    spec = sf.fbm_wn_spec(10 ** 6, 0.5, sigma=2.0, tau=0.5)
    val = sf.fisher_integral(spec)
    assert np.sqrt(1e6) / val == pytest.approx(8.0 * 2.0 ** 3 * 0.5, rel=0.01)


def test_integral_vs_exact_desk_scale():
    for H in (0.25, 0.75):
        spec = sf.fbm_wn_spec(256, H)
        assert sf.fisher_integral(spec) == pytest.approx(
            sf.fisher_exact(spec), rel=0.05)


def test_integral_sandwich():
    # the noise spectrum lies between 4^-K tau^2 lam^(2K) and tau^2 lam^(2K),
    # so the integral with either bound in its place brackets the Fisher value;
    # each bound integral runs on 512 log panels each side of the crossover
    def bound(spec, fac):
        pref = spec.sigma ** 2 * float(spec.n) ** (-2 * spec.beta)

        def ratio_sq(lam):
            noise = fac * spec.tau ** 2 * lam ** (2 * spec.K)
            return 1.0 / (1.0 + noise / (pref * spec.spectral_density_x(lam))) ** 2

        anchor = spectral_crossover(spec)
        lam_lo = anchor * 1e-9
        edges = np.concatenate([np.geomspace(lam_lo, anchor, 513),
                                np.geomspace(anchor, np.pi, 513)[1:]])
        flat = ratio_sq(np.array([lam_lo]))[0] * lam_lo
        return spec.n / (2 * np.pi * spec.sigma ** 4) * (panel_integrate(ratio_sq, edges) + flat)

    for spec in (sf.fbm_wn_spec(2000, 0.7), sf.large_error_spec(5000, 0.9, 0.3)):
        val = sf.fisher_integral(spec)
        # the larger noise bound gives the smaller information
        low, high = bound(spec, 1.0), bound(spec, 4.0 ** -spec.K)
        assert low <= val * (1 + 1e-9)
        assert val <= high * (1 + 1e-9)


# half a step of the crossover search's 601-point geometric grid on [1e-30, pi]
HALF_GRID_STEP = (math.pi / 1e-30) ** (1 / 1200)


def test_crossover_search_evaluates_spectrum_sparingly(monkeypatch):
    # one grid call; the anchor is the geometric mean of the grid bracket
    calls = []
    orig = sf.ModelSpec.noise_to_signal

    def counted(self, lam):
        calls.append(np.size(lam))
        return orig(self, lam)

    monkeypatch.setattr(sf.ModelSpec, "noise_to_signal", counted)
    spec = sf.fbm_wn_spec(10 ** 6, 0.3)
    lam_c = spectral_crossover(spec)
    assert len(calls) == 1
    # the scaled signal spectrum crosses the noise spectrum within half a
    # grid step either side: log r < 0 below, > 0 above
    below, above = orig(spec, np.array([lam_c / HALF_GRID_STEP, lam_c * HALF_GRID_STEP]))
    assert below < 0 < above


def test_integral_evaluates_spectrum_sparingly(monkeypatch):
    # the crossover grid, the flat piece below anchor * 1e-9, then the panel
    # sum and its one halving check
    calls = []
    orig = sf.ModelSpec.noise_to_signal

    def counted(self, lam):
        calls.append(np.size(lam))
        return orig(self, lam)

    monkeypatch.setattr(sf.ModelSpec, "noise_to_signal", counted)
    sf.fisher_integral(sf.fbm_wn_spec(10 ** 6, 0.3))
    assert 0 < len(calls) <= 4
    assert calls.count(1) == 1


@pytest.mark.parametrize("spec", [
    sf.fbm_wn_spec(10 ** 6, 0.3),
    sf.integrated_fbm_spec(10 ** 6, 0.2),
    sf.user_spec(10 ** 5, 0.1, 1.0, 1.0, 0, [1.0, 0.3, 0.1], -0.05,
                 sf.SlowlyVaryingSpec("constant", 0.3)),
], ids=["fbm-wn", "integrated-fbm", "user"])
def test_integral_does_not_depend_on_anchor_within_grid_bracket(spec, monkeypatch):
    # the crossover only sets the panels' lower end anchor * 1e-9: anchoring
    # at either end of the grid bracket instead of its geometric mean moves
    # no digit that counts
    lam_c = spectral_crossover(spec)
    value = sf.fisher_integral(spec)
    for end in (lam_c / HALF_GRID_STEP, lam_c * HALF_GRID_STEP):
        monkeypatch.setattr(sf.fisher, "spectral_crossover", lambda s, end=end: end)
        assert sf.fisher_integral(spec) == pytest.approx(value, rel=1e-13)


def reference_integral(spec):
    """fisher_integral on the same [lam_lo, pi] and flat piece below it, with
    the panel sum on log panels 1/8 wide: 8 times narrower than the rule's."""
    ratio_sq = partial(_ratio_sq, spec)
    anchor = spectral_crossover(spec) or math.pi
    lam_lo = max(anchor * 1e-9, sf.fisher.LAM_FLOOR)
    m = 8 * math.ceil(math.log(math.pi / lam_lo))
    total = panel_integrate(ratio_sq, np.geomspace(lam_lo, math.pi, m + 1))
    total += ratio_sq(np.array([lam_lo]))[0] * lam_lo
    return total * spec.n / (2 * math.pi * spec.sigma ** 4)


@pytest.mark.parametrize("spec", [
    *(sf.fbm_wn_spec(10 ** e, H) for H in (0.1, 0.5, 0.9) for e in (3, 8, 200)),
    *(sf.integrated_fbm_spec(10 ** e, 0.2) for e in (8, 300)),
    # the K = 0 integrand's mass sits near lam ~ 1, far above the crossover:
    # panels that widen away from the crossover miss it
    *(sf.large_error_spec(10 ** 40, H, beta)
      for H, beta in ((0.9, 0.3), (0.75, 0.1), (0.7, 0.1), (0.6, 0.05))),
    sf.user_spec(10 ** 6, 0.2, 1.0, 1.0, 1, [2.0, 1.0, 0.7], -0.2,
                 sf.SlowlyVaryingSpec("log_power", 0.5, 0.5)),
], ids=lambda spec: (f"{spec.preset}-H={spec.x_cov.hurst}-beta={spec.beta}"
                     f"-n={float(spec.n):.0e}"))
def test_integral_matches_finer_panels(spec):
    assert sf.fisher_integral(spec) == pytest.approx(reference_integral(spec), rel=1e-13)


def test_integral_raises_when_halving_check_fails(monkeypatch):
    # one 50-wide panel against two: they disagree by far more than INTEGRAL_RTOL
    monkeypatch.setattr(sf.fisher, "PANEL_LOG_WIDTH", 50.0)
    with pytest.raises(sf.QuadratureError, match="did not converge") as err:
        sf.fisher_integral(sf.fbm_wn_spec(10 ** 6, 0.3))
    info = err.value.info
    assert set(info) == {"coarse", "fine", "panels", "rtol", "crossover", "n"}
    assert info["panels"] == 1
    assert abs(info["fine"] - info["coarse"]) > info["rtol"] * abs(info["fine"])


@pytest.mark.parametrize("e, crossover_below", [(100, 1e-60), (150, 1e-90), (200, 1e-120),
                                                 (250, 1e-150), (300, 1e-180)])
def test_integral_plateau_beyond_float_range(e, crossover_below):
    # n^(4 beta) = 1e360 and beyond: the plateau sigma^-4 n^(4 beta) of
    # f^2 / h^2 is past the float range, the integrand scaled by it is not;
    # from e = 200 on n^(-2 beta) itself underflows, and the route raised
    # "no crossover" until the noise-to-signal ratio was built in logs
    spec = sf.fbm_wn_spec(10 ** e, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert spectral_crossover(spec) < crossover_below
        integral = sf.fisher_integral(spec)
        closed = sf.fisher_closed_form(spec).closed_form
    assert integral == pytest.approx(closed, rel=1e-11)


def test_integral_crossover_below_grid_floor():
    # the crossover lies near 3e-52 (fbm-wn), 3e-163 and 3e-173 (user), below
    # the search grid's 1e-30: the grid goes on down by decades instead of
    # anchoring at pi.  Below about 1e-154 the bracket's product lo * hi
    # underflowed to 0, read as "no crossover": anchored at pi, the user spec
    # at n = 1e85 read 2.7e-7 low
    user = [sf.user_spec(10 ** e, 0.1, 1.0, 1.0, 0, [1.0, 0.3, 0.1], -0.05,
                         sf.SlowlyVaryingSpec("constant", 0.3)) for e in (85, 90)]
    for spec in [sf.fbm_wn_spec(10 ** 80, 0.9)] + user:
        assert spectral_crossover(spec) < 1e-30
        assert sf.fisher_integral(spec) == pytest.approx(
            sf.fisher_closed_form(spec).closed_form, rel=1e-12)


def test_integral_critical_ratio_keeps_falling_below_grid_floor():
    # critical user spec: its crossover leaves the 1e-30 grid near n = 1e75;
    # past it the integral / closed-form ratio still falls toward 1
    def ratio(e):
        spec = sf.user_spec(10 ** e, 0.1, 1.0, 1.0, 0, [1.0, 0.3, 0.1], -0.25,
                            sf.SlowlyVaryingSpec("constant", 0.3))
        return sf.fisher_integral(spec) / sf.fisher_closed_form(spec).closed_form

    at_74 = ratio(74)
    assert 1.0 < ratio(100) < at_74


def test_crossover_search_raises_without_a_crossover():
    # the crossover n^(-beta diamond) is about 1e-400, below LAM_FLOOR: the
    # noise dominates down to it, and the integrand there is not flat
    spec = sf.user_spec(10 ** 40, 0.1, 1.0, 1.0, 0, [1.0, 0.3, 0.1], -0.01,
                        sf.SlowlyVaryingSpec("constant", 0.3))
    with pytest.raises(sf.QuadratureError, match="no crossover"):
        spectral_crossover(spec)


def test_crossover_search_rejects_zero_sigma():
    # the ratio's log took math.log(0.0): a bare "math domain error"
    with pytest.raises(sf.DomainError, match="sigma > 0"):
        spectral_crossover(replace(sf.fbm_wn_spec(64, 0.5), sigma=0.0))


@pytest.mark.parametrize("H", [0.05, 0.2])
def test_integral_integrated_preset_far_below_1e30(H):
    # at n = 1e110 the crossover lies far below 1e-30, where sin^4(lam/2)
    # underflowed and the ratio read 1 - 6.3e-6 (H = 0.05), 1 - 4.7e-3 (H = 0.2).
    # With the noise symbol a subnormal, H = 0.2 still read 1 + 1.1e-7 at
    # n = 1e112 and raised from 1e113 on, until the ratio was built in logs
    for e in (110,) if H == 0.05 else (110, 112, 113, 150, 300):
        spec = sf.integrated_fbm_spec(10 ** e, H)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ratio = sf.fisher_integral(spec) / sf.fisher_closed_form(spec).closed_form
        assert ratio == pytest.approx(1.0, abs=1e-11), e


def test_integral_integrated_preset_runs():
    spec = sf.integrated_fbm_spec(512, 0.1)
    val = sf.fisher_integral(spec)
    exact = sf.fisher_exact(spec)
    assert val > 0
    assert val == pytest.approx(exact, rel=0.5)  # coarse: o(1) terms at small n


@pytest.mark.parametrize("sigma", [1e-81, 1e-90])
def test_integral_sigma_fourth_power_below_float_range(sigma):
    # sigma^4 underflows to 0 below sigma = 1e-81, while the integral (about
    # sigma^-3 here) is finite: the scaling read "float division by zero"
    spec = sf.fbm_wn_spec(64, 0.5, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        integral = sf.fisher_integral(spec)
    assert integral == pytest.approx(sf.fisher_closed_form(spec).closed_form, rel=1e-12)


def test_integral_beyond_float_range_raises():
    # about 1e450: the float arithmetic would return inf without a word
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match="float range"):
            sf.fisher_integral(sf.fbm_wn_spec(64, 0.5, sigma=1e-150))


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def test_ch_golden_values():
    assert sf.closed_form_constant_cH(0.5) == pytest.approx(0.125, abs=1e-12)
    inv_quarter = 1.0 / sf.closed_form_constant_cH(0.25)
    assert inv_quarter == pytest.approx(27.0 / (np.sqrt(3.0) * np.pi ** (1.0 / 3.0)),
                                        rel=1e-12)
    assert inv_quarter == pytest.approx(10.64, rel=5e-3)
    inv_3q = 1.0 / sf.closed_form_constant_cH(0.75)
    assert inv_3q == pytest.approx(
        25.0 * np.sqrt(5.0 + np.sqrt(5.0)) / (np.sqrt(2.0) * 3.0 ** 1.4 * np.pi ** 0.2),
        rel=1e-12)
    assert inv_3q == pytest.approx(8.12, rel=5e-3)
    with pytest.raises(sf.DomainError):
        sf.closed_form_constant_cH(1.0)


@pytest.mark.parametrize("H", [0.3, 0.6])
def test_subcritical_constant_matches_ch(H):
    # ell^(dia/2) C(dia, alpha) with ell = H |2H - 1| reduces to c_H
    dia = 2.0 / (2.0 * H + 1.0)
    alpha = 0.5 - H
    ell = H * abs(2.0 * H - 1.0)
    lhs = ell ** (dia / 2.0) * sf.closed_form_constant_C(dia, alpha)
    assert lhs == pytest.approx(sf.closed_form_constant_cH(H), rel=1e-10)


def test_large_error_constant_matches_example_coefficient():
    # H in (3/4, 1): the subcritical constant equals
    # (H-1) (2 Gamma(2H-1) sin(pi H))^(1/(2H-1)) / ((2H-1)^2 sin(pi/(2H-1)))
    H = 0.9
    dia = 2.0 / (2.0 * H - 1.0)
    alpha = 0.5 - H
    m = 2.0 * H - 1.0
    coeff = ((H - 1.0) / (m ** 2 * math.sin(math.pi / m))
             * (2.0 * gamma_fn(m) * math.sin(math.pi * H)) ** (1.0 / m))
    assert sf.closed_form_constant_C(dia, alpha) == pytest.approx(coeff, rel=1e-10)


def test_constant_C_sign_and_domain():
    for dia, alpha in [(1.0, -0.3), (2.5, -0.4), (3.5, -0.05), (1.5, 0.2)]:
        assert sf.closed_form_constant_C(dia, alpha) > 0
    for dia, alpha in [(4.5, -0.3), (0.0, -0.3), (2.0, 0.0), (2.0, 0.6)]:
        with pytest.raises(sf.DomainError):
            sf.closed_form_constant_C(dia, alpha)


def test_prefactor_continuous_at_two():
    # removable 0/0 at diamond = 2; analytic limit is 1/(2 pi)
    assert _phase_prefactor(2.0) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)
    for eps in (1e-7, -1e-7):
        # approach is linear with slope 1/2 relative, so +-1e-7 stays within 1e-6
        assert _phase_prefactor(2.0 + eps) == pytest.approx(
            _phase_prefactor(2.0), rel=1e-6)
    alpha = -0.3
    left = sf.closed_form_constant_C(2.0 - 1e-8, alpha)
    right = sf.closed_form_constant_C(2.0 + 1e-8, alpha)
    assert left == pytest.approx(right, rel=1e-6)


# ---------------------------------------------------------------------------
# closed-form dispatch
# ---------------------------------------------------------------------------

def test_closed_form_fbm_wn_h_half():
    spec = sf.fbm_wn_spec(10 ** 6, 0.5, sigma=2.0, tau=0.5)
    report = sf.fisher_closed_form(spec)
    expect = (1e6) ** 0.5 * 2.0 ** (-3.0) * 0.5 ** (-1.0) * 0.125
    assert report.closed_form == pytest.approx(expect, rel=1e-12)
    assert report.regime == "subcritical"
    assert report.rate_exponent == pytest.approx(0.5)


def test_closed_form_supercritical_normalized():
    spec = sf.large_error_spec(10 ** 6, 0.6, 0.05)  # normalized: sum gamma^2 = 1
    report = sf.fisher_closed_form(spec)
    expect = (1e6) ** (1.0 - 4.0 * 0.05) / 2.0
    assert report.closed_form == pytest.approx(expect, rel=1e-13)
    assert report.regime == "supercritical"
    assert report.diamond == pytest.approx(10.0, rel=1e-12)
    assert report.rate_exponent == pytest.approx(0.8)


def test_closed_form_critical_log_factor():
    # alpha = -1/4, K = 0, constant unit amplitude: 4 beta n^(1-4 beta) log(n) / tau^4
    beta, n = 0.1, 10 ** 6
    spec = sf.user_spec(n, beta=beta, sigma=1.0, tau=1.0, K=0,
                        gamma_values=[1.0], alpha=-0.25,
                        ell=sf.SlowlyVaryingSpec("constant", 1.0))
    report = sf.fisher_closed_form(spec)
    expect = 4.0 * beta * float(n) ** (1.0 - 4.0 * beta) * math.log(n)
    assert report.closed_form == pytest.approx(expect, rel=1e-12)
    assert report.regime == "critical"
    assert report.log_factor


def test_critical_preset_is_detected():
    spec = sf.large_error_spec(1000, 0.75, 0.1)
    assert spec.is_critical
    report = sf.fisher_closed_form(spec)
    assert report.regime == "critical"
    # amplitude of the critical formula carries ell^2
    expect = (4.0 * 0.1 * 1000.0 ** 0.6 * math.log(1000.0) * spec.ell.c ** 2)
    assert report.closed_form == pytest.approx(expect, rel=1e-12)


def test_critical_log_power_matches_integral_form():
    beta, rho = 0.1, 0.5

    def make(n, ell):
        return sf.user_spec(n, beta=beta, sigma=1.0, tau=1.0, K=0,
                            gamma_values=[1.0], alpha=-0.25, ell=ell)

    def general_form(spec):
        # n^(1-4 beta) tau^-4 int_{q_n}^1 ell^2(1/lam) dlam/lam with
        # q_n = n^(-4 beta) ell^2(n^(4 beta)): for ell(x) = c (log x)^rho the
        # integral is c^2 L^(2 rho + 1) / (2 rho + 1), L = log(1/q_n)
        n = float(spec.n)
        s = 4 * beta * math.log(n)
        big_l = s - 2 * math.log(spec.amplitude_of_log(s))
        p = 2 * spec.ell.rho + 1
        return (n ** (1 - 4 * beta) * spec.tau ** -4 * spec.amplitude_of_log(1.0) ** 2
                * big_l ** p / p)

    # constant unit amplitude: the general form is exactly the log-factor
    # formula, since log(1/q_n) = 4 beta log n with ell = 1
    const = make(10 ** 6, sf.SlowlyVaryingSpec("constant", 1.0))
    assert general_form(const) == pytest.approx(
        sf.fisher_closed_form(const).closed_form, rel=1e-10)

    # log-power: the log-factor formula is the general form's slowly
    # approached limit
    lp = sf.SlowlyVaryingSpec("log_power", 1.0, rho)
    ratios = [general_form(make(n, lp)) / sf.fisher_closed_form(make(n, lp)).closed_form
              for n in (10 ** 6, 10 ** 12, 10 ** 24)]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_near_critical_warning():
    spec = sf.user_spec(1000, beta=0.05, sigma=1.0, tau=1.0, K=0,
                        gamma_values=[1.0], alpha=-0.2500001,
                        ell=sf.SlowlyVaryingSpec("constant", 1.0))
    report = sf.fisher_closed_form(spec)
    assert any("phase transition" in w for w in report.warnings)


def test_condition_warning():
    # K - alpha <= beta violates the theorem conditions outright
    spec = sf.large_error_spec(1000, 0.9, 0.39)
    assert sf.fisher_closed_form(spec).warnings == ()
    tight = sf.user_spec(1000, beta=0.5, sigma=1.0, tau=1.0, K=0,
                         gamma_values=[1.0], alpha=-0.3,
                         ell=sf.SlowlyVaryingSpec("constant", 1.0))
    assert any("outside the validity" in w for w in sf.fisher_closed_form(tight).warnings)


def test_closed_form_user_alpha_zero_rejected():
    spec = sf.user_spec(100, beta=0.5, sigma=1.0, tau=1.0, K=1,
                        gamma_values=[1.0], alpha=0.0,
                        ell=sf.SlowlyVaryingSpec("constant", 1.0))
    with pytest.raises(sf.DomainError):
        sf.fisher_closed_form(spec)


def test_closed_form_integrated_preset_display():
    # twice-differenced integrated-motion model: the subcritical constant
    # reduces to (H+1) sin^(1/(2H+3))(pi H) Gamma(2H+1)^(1/(2H+3))
    #            / ((2H+3)^2 sin(pi/(2H+3)))
    H, n = 0.1, 10 ** 6
    spec = sf.integrated_fbm_spec(n, H)
    assert spec.diamond == pytest.approx(2.0 / (2 * H + 3), rel=1e-14)
    ref = (float(n) ** (1.0 / (2 * H + 3)) * (H + 1)
           * math.sin(math.pi * H) ** (1.0 / (2 * H + 3))
           * gamma_fn(2 * H + 1) ** (1.0 / (2 * H + 3))
           / ((2 * H + 3) ** 2 * math.sin(math.pi / (2 * H + 3))))
    assert sf.fisher_closed_form(spec).closed_form == pytest.approx(ref, rel=1e-12)


def test_integral_approaches_closed_form_integrated():
    spec = sf.integrated_fbm_spec(10 ** 5, 0.1)
    ratio = sf.fisher_integral(spec) / sf.fisher_closed_form(spec).closed_form
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_integral_approaches_closed_form_large_error():
    # subcritical large-error model: integral/closed-form ratio near one at large n
    spec = sf.large_error_spec(10 ** 7, 0.9, 0.3)
    ratio = sf.fisher_integral(spec) / sf.fisher_closed_form(spec).closed_form
    assert ratio == pytest.approx(1.0, abs=0.05)


def test_report_serialization_roundtrip():
    report = sf.fisher_report(flat_spec(64), methods=("exact", "closed-form"))
    text = report.to_json()
    parsed = json.loads(text)
    assert json.loads(json.dumps(parsed)) == parsed
    assert set(parsed) >= {"n", "exact", "integral", "closed_form", "diamond",
                           "regime", "rate_exponent"}
    assert parsed["integral"] is None


def test_report_rejects_unknown_methods():
    # a misspelt name ran neither the exact nor the integral route; "all" is
    # the CLI's word for METHODS, not a method
    with pytest.raises(sf.DomainError, match=r"\['integal', 'all'\]"):
        sf.fisher_report(flat_spec(64), methods=("exact", "integal", "all"))
    report = sf.fisher_report(flat_spec(64), methods=METHODS)
    assert report.exact is not None and report.integral is not None


# ---------------------------------------------------------------------------
# rate scans
# ---------------------------------------------------------------------------

def test_rate_scan_flat_analytic_slope():
    spec = flat_spec(100, beta=0.25)
    grid = [10 ** 4, 10 ** 5, 10 ** 6]
    scan = sf.rate_scan(spec, grid)
    analytic = [white_fisher(n, 0.25, 1.0, 1.0) for n in grid]
    x, y = np.log(grid), np.log(analytic)
    slope = np.polyfit(x, y, 1)[0]
    assert scan.slope_integral == pytest.approx(slope, abs=1e-6)
    assert [v for v in scan.n_grid] == grid


def test_rate_scan_validation():
    with pytest.raises(sf.DomainError):
        sf.rate_scan(flat_spec(10), [100, 100])
    with pytest.raises(sf.DomainError):
        sf.rate_scan(flat_spec(10), [])
    # one size leaves the slope undetermined
    with pytest.raises(sf.DomainError):
        sf.rate_scan(flat_spec(10), [100])


def test_with_n_helper():
    spec = sf.fbm_wn_spec(100, 0.3)
    assert with_n(spec, 500).n == 500
    assert with_n(spec, 500).beta == spec.beta
