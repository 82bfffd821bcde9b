"""Fisher information for the scale parameter sigma^2, three ways: exact
finite-n eigenvalue sum, spectral-integral approximation, and closed-form
asymptotics with the subcritical / critical / supercritical phase split."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial

import numpy as np

from ._quad import QuadratureError, panel_integrate
from .linalg import (WhitenedSystem, _cosine_system, _unit_difference_width, diff_cov,
                     whiten)
from .model import MAX_DENSE_N, DomainError, ModelSpec, with_n

REGIME_SUB = "subcritical"
REGIME_CRITICAL = "critical"
REGIME_SUPER = "supercritical"

METHODS = ("exact", "integral", "closed-form")  # the routes fisher_report runs

INTEGRAL_RTOL = 1e-6    # relative agreement of the panel rule and its halving
PANEL_LOG_WIDTH = 1.0   # widest log(lam) span of one spectral-integral panel
CROSSOVER_DECADES = 10  # decades per call when the crossover lies below 1e-30
# lowest frequency the spectral route evaluates: the flat piece of the
# integral starts no lower, and the crossover search stops here.  The
# user-sequence tail overflows its node range below about 4e-307.
LAM_FLOOR = 1e-300


def information_weights(lam: np.ndarray, n: int, beta: float) -> np.ndarray:
    """Information weights w_i = lam_i n^(-2 beta) of the whitened coordinates:
    the transformed squares have mean sigma^2 w_i + 1."""
    return lam * float(n) ** (-2.0 * beta)


def information_sum(u: float, lam: np.ndarray, n: int, beta: float) -> float:
    """Eigenvalue form (1/2) sum w_i^2 / (u w_i + 1)^2 with w = information_weights."""
    w = information_weights(lam, n, beta)
    return 0.5 * float(np.sum((w / (u * w + 1.0)) ** 2))


def _white_variance(spec: ModelSpec) -> float | None:
    """gamma_0 when Cov(x) = gamma_0 I exactly, else None: lags 1 .. n-1 of
    the Toeplitz Cov(x) are all 0, read from the n autocovariances with no
    n x n array.  The integrated kind's first row is not Toeplitz, and
    beyond MAX_DENSE_N ``cov_x`` refuses the spec, so both give None."""
    if spec.n > MAX_DENSE_N or spec.x_cov.kind == "integrated_fbm_increment":
        return None
    gamma = np.asarray_chkfinite(spec.gamma_array(spec.n - 1))
    return None if gamma[1:].any() else float(gamma[0])


@lru_cache(maxsize=1)
def whitened_system(spec: ModelSpec) -> WhitenedSystem:
    """Whitening of (Cov(x), Cov(y)) for a model spec; only the last spec's
    system is cached, since callers work through one spec at a time.

    A white signal under the noise I or D D^t (K = 0, or K = 1 under D D^t,
    at tau = 1) is whitened in closed form by the cosine basis, from gamma_0
    and the band of Cov(y) alone: the system holds O(n) numbers, and
    ``transform`` is an FFT.  Any other spec is whitened densely by
    ``whiten``, and its system holds two n x n arrays once ``basis`` is
    read.  Cov(y) is built on both routes: the closed form is taken only
    when it is exactly I or D D^t."""
    gamma0 = _white_variance(spec)
    if gamma0 is None:
        return whiten(spec.cov_x(), diff_cov(spec.n, spec.K, spec.tau, spec.noise_convention))
    cov_y = diff_cov(spec.n, spec.K, spec.tau, spec.noise_convention)
    kd = _unit_difference_width(cov_y)
    if kd is None:
        return whiten(spec.cov_x(), cov_y)
    return _cosine_system(gamma0, spec.n, kd)


def fisher_exact(spec: ModelSpec) -> float:
    """Exact finite-n Fisher information for sigma^2."""
    return information_sum(spec.sigma ** 2, whitened_system(spec).lam, spec.n, spec.beta)


# ---------------------------------------------------------------------------
# spectral-integral approximation
# ---------------------------------------------------------------------------

def _ratio_sq(spec: ModelSpec, lam):
    """(1 + r)^-2 at lam, r = noise / (sigma^2 n^(-2 beta) f) from its log
    ``ModelSpec.noise_to_signal``: the integrand f^2 / h^2 over its plateau
    (sigma^2 n^(-2 beta))^-2, which ``fisher_integral`` carries in
    n / (2 pi sigma^4) instead.  It lies in [0, 1], so a plateau beyond the
    float range cannot overflow; it is 0 where f vanishes or exp(log r) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(spec.noise_to_signal(lam))) ** 2


def _crossover_decades(spec: ModelSpec) -> float | None:
    """Crossover below 1e-30, for a spec whose noise dominates at 1e-30: the
    geometric mean 10^(1/2-k) of the first decade (10^-k, 10^(1-k)) down
    where the signal dominates (log r < 0), CROSSOVER_DECADES per call.
    None if there is none down to LAM_FLOOR but the integrand is flat and
    nonzero up to pi * 1e-9, where ``fisher_integral`` would then treat it
    as flat, so anchoring at pi is exact.  Otherwise the crossover lies
    below LAM_FLOOR: QuadratureError reports it rather than integrate
    without an anchor."""
    exps = np.arange(-30, round(math.log10(LAM_FLOOR)) - 1, -1)
    for start in range(1, exps.size, CROSSOVER_DECADES):
        decades = 10.0 ** exps[start:start + CROSSOVER_DECADES]
        above = np.nonzero(spec.noise_to_signal(decades) < 0)[0]
        if above.size:
            return 10.0 ** (float(exps[start + int(above[0])]) + 0.5)
    floor, flat_lo = _ratio_sq(spec, np.array([LAM_FLOOR, np.pi * 1e-9]))
    if floor == 0.0 or not math.isclose(floor, flat_lo, rel_tol=INTEGRAL_RTOL):
        raise QuadratureError(
            "the noise spectrum dominates the scaled signal spectrum down to "
            f"lam = {LAM_FLOOR:g}, and the integrand is not flat and nonzero "
            "there: no crossover to anchor the integral",
            info={"lam_floor": LAM_FLOOR, "n": spec.n})
    return None


def spectral_crossover(spec: ModelSpec) -> float | None:
    """Frequency where the scaled signal spectrum crosses the noise spectrum
    (log r = 0 for ``ModelSpec.noise_to_signal``), to within one grid step,
    or None if the signal dominates down to 1e-30, or the noise dominates
    down to LAM_FLOOR over an integrand that is flat there.

    The grid is geometric on [1e-30, pi]; the first sign change on it gives
    the geometric mean of its bracket, taken as a product of square roots,
    since lo * hi underflows below about 1e-154.  If the noise dominates on
    all of it, ``_crossover_decades`` goes on down and gives the middle of
    a decade.  The crossover only sets the lower end of
    ``fisher_integral``'s panels, so it is not narrowed further."""
    grid = np.geomspace(1e-30, np.pi, 601)
    sign = np.sign(spec.noise_to_signal(grid))
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if idx.size:
        return math.sqrt(grid[idx[0]]) * math.sqrt(grid[idx[0] + 1])
    if sign[0] < 0:
        return None
    return _crossover_decades(spec)


def fisher_integral(spec: ModelSpec) -> float:
    """Spectral-integral Fisher approximation
    (n^(1-4 beta) / 2 pi) * int_0^pi f^2 / h_n^2, computed as
    (n / 2 pi sigma^4) * int_0^pi (1 + noise / (sigma^2 n^(-2 beta) f))^-2,
    whose integrand is at most 1 at every n.

    Gauss panels of equal width in log lam, at most PANEL_LOG_WIDTH, over
    [lam_lo, pi] with lam_lo = anchor * 1e-9 (no lower than LAM_FLOOR), where
    the anchor is ``spectral_crossover``'s value, or pi if it is None: the
    integrand drops off its plateau at the crossover, and is flat below
    lam_lo, so that piece is one evaluation.  The panel sum is checked once
    against the sum on panels of half the width; QuadratureError if the two
    differ by more than INTEGRAL_RTOL relative, else the finer one is used.
    DomainError at sigma = 0, where the scaling n / (2 pi sigma^4) is
    undefined.  The scaling divides by sigma^2 twice, since sigma^4
    underflows below sigma = 1e-81 while the result is still finite;
    OverflowError if the result is beyond the float range.
    """
    if spec.sigma == 0:
        raise DomainError("the spectral integral needs sigma > 0")
    ratio_sq = partial(_ratio_sq, spec)
    anchor = spectral_crossover(spec)
    lam_lo = max((np.pi if anchor is None else anchor) * 1e-9, LAM_FLOOR)
    flat = float(ratio_sq(np.array([lam_lo]))[0]) * lam_lo
    m = math.ceil(math.log(np.pi / lam_lo) / PANEL_LOG_WIDTH)
    coarse = panel_integrate(ratio_sq, np.geomspace(lam_lo, np.pi, m + 1)) + flat
    fine = panel_integrate(ratio_sq, np.geomspace(lam_lo, np.pi, 2 * m + 1)) + flat
    if abs(fine - coarse) > INTEGRAL_RTOL * max(abs(fine), 1e-300):
        raise QuadratureError(
            "Fisher spectral integral did not converge",
            info={"coarse": coarse, "fine": fine, "panels": m, "rtol": INTEGRAL_RTOL,
                  "crossover": anchor, "n": spec.n})
    value = fine * (float(spec.n) / (2.0 * math.pi * spec.sigma ** 2)) / spec.sigma ** 2
    if not math.isfinite(value):
        raise OverflowError(f"the Fisher spectral integral at sigma = {spec.sigma:g} "
                            "exceeds the float range")
    return value


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _phase_prefactor(diamond: float) -> float:
    """(2 - dia) dia / (8 sin(dia pi / 2)) evaluated without cancellation.

    Writing d = dia - 2, the expression equals dia * d / (8 sin(pi d / 2)),
    smooth through the removable singularity at dia = 2 with limit 1/(2 pi).
    """
    d = diamond - 2.0
    return diamond / (4.0 * np.pi * np.sinc(d / 2.0))


def closed_form_constant_cH(H: float) -> float:
    """Asymptotic constant for the fractional-motion-plus-noise family,
    c_H = H sin^(1/(2H+1))(pi H) Gamma(2H+1)^(1/(2H+1))
          / ((2H+1)^2 sin(pi/(2H+1)))."""
    if not 0.0 < H < 1.0:
        raise DomainError(f"Hurst index must lie in (0,1), got {H}")
    e = 1.0 / (2.0 * H + 1.0)
    return (H * math.sin(math.pi * H) ** e * math.gamma(2.0 * H + 1.0) ** e
            / ((2.0 * H + 1.0) ** 2 * math.sin(math.pi * e)))


def closed_form_constant_C(diamond: float, alpha: float) -> float:
    """Subcritical closed-form constant
    C = (2 - dia) dia / (8 sin(dia pi/2)) * (2 sign(-alpha) Gamma(-2 alpha) cos(pi alpha))^(dia/2)."""
    if not 0.0 < diamond < 4.0:
        raise DomainError(f"diamond must lie in (0,4), got {diamond}")
    if not -0.5 < alpha < 0.5 or alpha == 0.0:
        raise DomainError("alpha must lie in (-1/2, 1/2) and be nonzero "
                          "(the constant diverges as alpha -> 0)")
    c_alpha = 2.0 * math.copysign(1.0, -alpha) * math.gamma(-2.0 * alpha) \
        * math.cos(math.pi * alpha)
    return _phase_prefactor(diamond) * c_alpha ** (diamond / 2.0)


@dataclass(frozen=True)
class FisherReport:
    """Fisher values plus scaling-regime metadata for one model spec."""
    n: int
    exact: float | None
    integral: float | None
    closed_form: float
    diamond: float
    regime: str
    rate_exponent: float
    log_factor: bool = False
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The fields by name, in declaration order; ``warnings`` as a list."""
        return {**asdict(self), "warnings": list(self.warnings)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _condition_warnings(spec: ModelSpec) -> list[str]:
    gap = spec.K - spec.alpha
    weak = max(spec.beta, (4.0 * spec.alpha + 1.0) * spec.beta)
    if gap <= weak:
        return ["K - alpha <= max(beta, (4 alpha + 1) beta): outside the "
                "validity range of the asymptotic formulas"]
    if gap <= 0.25 and not spec.is_critical:
        return ["K - alpha <= 1/4: asymptotics require the global Lipschitz "
                "bound on the signal spectral density"]
    return []


def _closed_form_subcritical(spec: ModelSpec) -> float:
    n = float(spec.n)
    dia = spec.diamond
    base = n ** (1.0 - dia * spec.beta) * spec.sigma ** (dia - 4.0) * spec.tau ** (-dia)
    if spec.x_cov.kind in ("fgn", "integrated_fbm_increment"):
        # ell * C_alpha collapses to Gamma(2H+1) sin(pi H) for this family,
        # removing the alpha = 0 singularity (continuous through H = 1/2)
        H = spec.x_cov.hurst
        amp = spec.x_cov.scale * math.gamma(2.0 * H + 1.0) * math.sin(math.pi * H)
        return base * _phase_prefactor(dia) * amp ** (dia / 2.0)
    if spec.alpha == 0.0:
        raise DomainError("subcritical closed form requires alpha != 0 for "
                          "user-specified autocovariances")
    ell_val = spec.amplitude_of_log(dia * spec.beta * math.log(n))
    return base * ell_val ** (dia / 2.0) * closed_form_constant_C(dia, spec.alpha)


def _closed_form_critical(spec: ModelSpec) -> float:
    n = float(spec.n)
    rho = spec.ell.rho
    c_eff = spec.amplitude_of_log(1.0)  # scale c, at log x = 1
    return (n ** (1.0 - 4.0 * spec.beta) * math.log(n) ** (2.0 * rho + 1.0)
            * spec.tau ** (-4.0) * (4.0 * spec.beta) ** (2.0 * rho + 1.0)
            / (2.0 * rho + 1.0) * c_eff ** 2)


def _closed_form_supercritical(spec: ModelSpec) -> float:
    return (float(spec.n) ** (1.0 - 4.0 * spec.beta) / (2.0 * spec.tau ** 4)
            * spec.sum_gamma_squared())


def fisher_closed_form(spec: ModelSpec) -> FisherReport:
    """Closed-form asymptotic Fisher information, dispatching on the
    characteristic diamond = 1/(K - alpha) across the phase transition at 4.
    DomainError at sigma = 0, where the subcritical form diverges."""
    if spec.sigma == 0:
        raise DomainError("the closed form needs sigma > 0")
    warnings = _condition_warnings(spec)
    dia = spec.diamond
    if spec.is_critical:
        regime, log_factor = REGIME_CRITICAL, True
        value = _closed_form_critical(spec)
        rate_exp = 1.0 - 4.0 * spec.beta
    elif dia < 4.0:
        regime, log_factor = REGIME_SUB, False
        value = _closed_form_subcritical(spec)
        rate_exp = 1.0 - dia * spec.beta
    else:
        regime, log_factor = REGIME_SUPER, False
        value = _closed_form_supercritical(spec)
        rate_exp = 1.0 - 4.0 * spec.beta
    if not spec.is_critical and abs(dia - 4.0) < 1e-3:
        warnings = warnings + [
            "diamond is within 1e-3 of the phase transition; the critical "
            f"formula would give {_closed_form_critical(spec):.6g}"]
    return FisherReport(
        n=spec.n, exact=None, integral=None, closed_form=float(value),
        diamond=float(dia), regime=regime, rate_exponent=float(rate_exp),
        log_factor=log_factor, warnings=tuple(warnings))


def fisher_report(spec: ModelSpec, methods=METHODS) -> FisherReport:
    """Combined report; ``methods``, a subset of ``METHODS``, selects whether
    the exact and integral routes run.  The closed form always runs: it
    carries the regime.  DomainError names any entry not in ``METHODS``."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise DomainError(f"unknown Fisher method(s) {unknown}; choose from {METHODS}")
    return replace(
        fisher_closed_form(spec),
        exact=fisher_exact(spec) if "exact" in methods else None,
        integral=fisher_integral(spec) if "integral" in methods else None)


# ---------------------------------------------------------------------------
# rate scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateScan:
    """Per-n Fisher values over a grid plus fitted log-log slopes."""
    n_grid: tuple[int, ...]
    integral: tuple[float, ...]
    closed_form: tuple[float, ...]
    slope_integral: float
    slope_closed_form: float

    def rows(self):
        return list(zip(self.n_grid, self.integral, self.closed_form))


def _loglog_slope(ns, vals) -> float:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(vals, dtype=float))
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(coef[1])


def rate_scan(spec: ModelSpec, n_grid) -> RateScan:
    """Evaluate the integral and closed-form Fisher over an increasing grid
    of sample sizes and fit the growth exponents."""
    n_grid = [int(v) for v in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or len(n_grid) < 2:
        raise DomainError("n_grid must be strictly increasing and hold at least "
                          "two sizes to fit a slope")
    ints, closeds = [], []
    for n in n_grid:
        sub = with_n(spec, n)
        ints.append(fisher_integral(sub))
        closeds.append(fisher_closed_form(sub).closed_form)
    return RateScan(
        n_grid=tuple(n_grid), integral=tuple(ints), closed_form=tuple(closeds),
        slope_integral=_loglog_slope(n_grid, ints),
        slope_closed_form=_loglog_slope(n_grid, closeds))
