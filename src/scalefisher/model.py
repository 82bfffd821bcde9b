"""Model specifications: signal autocovariances, slowly varying amplitudes,
and spectral densities for the observation model z_i = sigma * n^(-beta) * x_i + y_i.

The signal process x is stationary (up to a boundary term for the
integrated-motion preset) with long- or short-range dependence; the noise y
is a K-th order difference of white noise with level tau.  A ``ModelSpec``
has one spectral density, ``spectral_density_x``, for every kind of signal,
and one slowly varying amplitude, ``amplitude_of_log``, which alone applies
``x_cov.scale`` to ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quad import cos_tail_sum, power_tail_sum

# frequencies per block of the series: bounds its block x lag and block x
# quadrature-node temporaries
SERIES_BLOCK = 4096
SUM_SQ_HEAD = 64  # lags below max(SUM_SQ_HEAD, len(values)) sum_gamma_squared sums directly
# even Taylor orders k = 0, 2, ..., 2 (LATTICE_TERMS - 1) of the folded lattice
# sum's series in the shift (see _folded_lattice)
LATTICE_TERMS = 16
# largest n of the dense routes (exact Fisher, estimation, sampling).
# Whitening peaks at three n x n float64 arrays (1.5 GiB at the limit) for
# K = 0 and for K = 1 under D D^t at tau = 1, and at four (2 GiB) for the
# rest, measured by tracemalloc at n = 1024 (tests/test_linalg.py); a white
# signal under that unit noise peaks at one, the noise covariance
MAX_DENSE_N = 8192

DELTA_DELTAT = "delta_deltaT"   # Cov(y) = tau^2 (D D^t)^K
DELTAT_DELTA = "deltaT_delta"   # Cov(y) = tau^2 (D^t D)^K
CONVENTIONS = (DELTA_DELTAT, DELTAT_DELTA)


class DomainError(ValueError):
    """A parameter lies outside its mathematically valid domain."""


def is_integer(v) -> bool:
    """True for a Python or numpy integer, and False for a bool, which is
    an int to Python but no count."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def noise_symbol(lam, K: int, tau: float):
    """Symbol 4^K tau^2 sin^(2K)(lam/2) of the noise covariance tau^2 (D D^t)^K:
    its spectral density, and its eigenvalues at the cosine nodes."""
    return 4.0 ** K * tau ** 2 * np.sin(lam / 2.0) ** (2 * K)


# ---------------------------------------------------------------------------
# autocovariance kernels
# ---------------------------------------------------------------------------

# stencils ((c_j, a_j), ...) of sum_j c_j |w + a_j|^p; the order of the terms
# is the order of summation
_SECOND_DIFF = ((1.0, 1.0), (1.0, -1.0), (-2.0, 0.0))
_THIRD_DIFF = ((1.0, 1.0), (-3.0, 0.0), (3.0, -1.0), (-1.0, -2.0))
_FOURTH_DIFF = ((1.0, 2.0), (-4.0, 1.0), (6.0, 0.0), (-4.0, -1.0), (1.0, -2.0))


def _moment(stencil, m: int) -> float:
    """M_m = sum_j c_j a_j^m of a stencil ((c_j, a_j), ...)."""
    return sum(c * a ** m for c, a in stencil)


def _series_coefficients(p: float, moment, w_min: float, step: int):
    """(m0, b) of sum_m binom(p, m) moment(m) w^(p-m) = w^(p-m0) sum_i b_i
    w^(-step i), m0 the first m >= 1 with a nonzero moment (step 2 when the
    odd moments vanish), up to the first term below double precision at the
    smallest w, w_min, where the series converges slowest."""
    m0 = next(m for m in range(1, 400) if moment(m) != 0.0)
    coefs, binom, total, inv_min = [], 1.0, 0.0, 1.0 / w_min
    for m in range(1, 400):
        binom *= (p - (m - 1)) / m
        if m < m0 or (m - m0) % step:
            continue
        coefs.append(binom * moment(m))
        term = coefs[-1] * inv_min ** m
        total += term
        if abs(term) <= np.finfo(float).eps * abs(total):
            break
    return m0, coefs


def _binomial_series(p: float, moment, w, step: int):
    """The series of ``_series_coefficients`` at w > 0, by Horner in w^-step."""
    m0, coefs = _series_coefficients(p, moment, float(w.min()), step)
    v = (1.0 / w) ** step
    series = np.full_like(w, coefs[-1])
    for b in coefs[-2::-1]:
        series *= v
        series += b
    return w ** p / w ** m0 * series


def _power_stencil(p: float, stencil, w, switch: float):
    """sum_j c_j |w + a_j|^p at w >= 0, for a difference stencil
    ((c_j, a_j), ...) with sum_j c_j = 0.

    Below ``switch`` the sum is evaluated directly.  Beyond it the terms
    nearly cancel, so the binomial series w^p sum_m binom(p, m) M_m w^(-m),
    M_m = sum_j c_j a_j^m, is used (``switch`` must exceed every |a_j|).
    Symmetric stencils have no odd moments, so their series runs in 1/w^2.
    """
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    near = w < switch
    wn = w[near]
    acc = np.zeros_like(wn)
    for c, a in stencil:
        acc += c * np.abs(wn + a) ** p
    out[near] = acc
    wf = w[~near]
    if wf.size:
        step = 2 if sorted(stencil) == sorted((c, -a) for c, a in stencil) else 1
        out[~near] = _binomial_series(p, partial(_moment, stencil), wf, step)
    return out


# the integrated-motion stencils reach |a_j| = 2: their series from w = 3 on
_INTEGRATED_SWITCH = 3.0


def _preset_kernel(xc) -> tuple:
    """(p, stencil, switch, divisor) of a preset's gamma_k = sum_j c_j |k + a_j|^p
    / divisor, a series from k = switch on: fgn the second difference of
    |k|^(2H) / 2, the integrated preset the fourth of |k|^(2H+2) / (2 (2H+1) (2H+2))."""
    H = xc.hurst
    if xc.kind == "fgn":
        return 2 * H, _SECOND_DIFF, 8.0, 2.0
    return 2 * H + 2, _FOURTH_DIFF, _INTEGRATED_SWITCH, 2.0 * (2 * H + 1) * (2 * H + 2)


def _preset_gamma(xc, k):
    """gamma_k / scale of a preset AutocovarianceSpec at lags k >= 0."""
    k = np.asarray(k)
    if np.any(k < 0):
        raise DomainError("lag must be nonnegative")
    p, stencil, switch, divisor = _preset_kernel(xc)
    out = _power_stencil(p, stencil, k, switch) / divisor
    return out if k.ndim else float(out)


def gamma_fgn(H: float, k):
    """Autocovariance of unit-variance fractional Gaussian noise at lag k."""
    return _preset_gamma(AutocovarianceSpec("fgn", H), k)


def gamma_integrated_fbm(H: float, k):
    """Stationary autocovariance of consecutive-window increments of
    integrated fractional motion (window length 1), valid for H in (0, 1/4)."""
    return _preset_gamma(AutocovarianceSpec("integrated_fbm_increment", H), k)


def integrated_fbm_boundary_cov(H: float, n: int) -> np.ndarray:
    """Cov(x_1, x_j), j = 1..n, for the integrated-motion preset.

    x_1 is the plain window integral (no differencing), hence nonstationary:
    Var x_1 = 1/(2H+2), and for k = j - 1 >= 1 the drift part
    (second difference of |k|^(2H+1)) / (2 (2H+1)) minus half of
    g2(k+1) - 3 g2(k) + 3 g2(k-1) - g2(k-2), g2 = |x|^(2H+2) / ((2H+1)(2H+2)).
    Both parts grow like k^(2H-1) while their difference is O(k^(2H-2)), so
    from k = 3 on they are one binomial series in 1/k, whose leading terms
    cancel exactly: with q = 2H+1, binom(q+1, m+1) / (q+1) = binom(q, m) / (m+1)
    puts the g2 part's moment M_(m+1) / (m+1) beside the drift's M_m.
    """
    q = 2.0 * H + 1.0
    k = np.arange(1, n, dtype=float)
    near = k < _INTEGRATED_SWITCH
    row = np.empty_like(k)
    row[near] = (_power_stencil(q, _SECOND_DIFF, k[near], _INTEGRATED_SWITCH) / (2.0 * q)
                 - _power_stencil(q + 1, _THIRD_DIFF, k[near], _INTEGRATED_SWITCH)
                 / (2.0 * q * (q + 1)))
    if not near.all():
        moment = lambda m: (_moment(_SECOND_DIFF, m)
                            - _moment(_THIRD_DIFF, m + 1) / (m + 1)) / (2.0 * q)
        row[~near] = _binomial_series(q, moment, k[~near], 1)
    return np.concatenate([[1.0 / (2.0 * H + 2.0)], row])


# denominators (2j)! / B_2j, j = 1..12, of the Euler-Maclaurin corrections in
# Cephes zeta, the routine behind scipy.special.zeta
_ZETA_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
            -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
            1.1646782814350067249e14, -4.5979787224074726105e15,
            1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 2.0 ** -53


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta(x, q) = sum_{j >= 0} (j + q)^-x for q > 0 and x > 1 (its
    continuation at x < 1) by Euler-Maclaurin (DLMF 25.11), step for step as
    Cephes ``zeta``: direct terms until at least nine are summed and the
    shifted argument exceeds 9, then the tail's integral, half its first term
    and up to 12 Bernoulli corrections, each stopping once a term is below
    2^-53 of the sum."""
    s = q ** -x
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for den in _ZETA_EM:
        a *= x + k
        b /= w
        t = a * b / den
        s += t
        if abs(t / s) < _MACHEP:
            break
        k += 1.0
        b /= w
        a *= x + k
        k += 1.0
    return s


def _rising_binomial(s: float, k: int) -> float:
    """C(s+k-1, k) = prod_{i=1..k} (s-1+i) / i, as one quotient of the two
    products; for s < 4 and k <= 30 both stay below 1e37."""
    num = den = 1.0
    for i in range(1, k + 1):
        num *= s - 1.0 + i
        den *= i
    return num / den


# one entry per Hurst index in use: a rate scan over an H grid holds a few dozen
@lru_cache(maxsize=64)
def _lattice_coefficients(s: float) -> tuple[float, ...]:
    """2 C(s+k-1, k) zeta(s+k, 2) for k = 0, 2, ..., 2 (LATTICE_TERMS - 1):
    the even Taylor coefficients of zeta(s, 2 + q) + zeta(s, 2 - q) in q."""
    return tuple(2.0 * _rising_binomial(s, k) * _hurwitz_zeta(s + k, 2.0)
                 for k in range(0, 2 * LATTICE_TERMS, 2))


def _folded_lattice(s: float, q):
    """Folded lattice sum sum_{j in Z} |j + q|^(-s) = zeta(s, q) + zeta(s, 1 - q)
    for s > 1 and q in (0, 1/2], without its j = 0 term q^-s, which
    overflows for small q and is left to the caller.

    The terms j = 1, -1 are powers; the rest are zeta(s, 2 + q) +
    zeta(s, 2 - q), whose Taylor series in the shift (DLMF 25.11.10) keeps
    the even orders only: 2 sum_{k even} C(s+k-1, k) zeta(s+k, 2) q^k, summed
    by Horner in q^2.  Its coefficients depend on s alone, so they are built
    once per s (``_lattice_coefficients``, a small cache of tuples).  Every
    term is positive, so nothing cancels.  The terms grow with q and s: at
    q = 1/2 and s < 3.5 (the largest preset s, the integrated preset's
    2H + 3) the first omitted one, k = 2 LATTICE_TERMS, is below 2e-17 and
    each later one is below 0.08 times the one before, against a sum above
    its j = -1 term 2^s > 2."""
    coef = _lattice_coefficients(float(s))
    q = np.asarray(q, dtype=float)
    q2 = q * q
    series = np.full_like(q2, coef[-1])
    for c in coef[-2::-1]:
        series *= q2
        series += c
    return series + (1.0 - q) ** -s + (1.0 + q) ** -s


# ---------------------------------------------------------------------------
# spec types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutocovarianceSpec:
    """Autocovariance of the signal process, gamma_k = gamma_{-k}.

    kind: "fgn" (Hurst H in (0,1)), "integrated_fbm_increment" (H in (0,1/4)),
    or "user_sequence" (explicit leading values).  ``scale`` multiplies every
    gamma_k (used e.g. to normalize sum gamma_k^2 to one).
    """
    kind: str
    hurst: float | None = None
    values: tuple[float, ...] = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fgn", "user_sequence", "integrated_fbm_increment"):
            raise DomainError(f"unknown autocovariance kind {self.kind!r}")
        if self.kind == "fgn" and not (self.hurst is not None and 0 < self.hurst < 1):
            raise DomainError(f"fgn requires Hurst index in (0,1), got {self.hurst}")
        if self.kind == "integrated_fbm_increment" and not (
                self.hurst is not None and 0 < self.hurst < 0.25):
            raise DomainError(f"integrated_fbm_increment requires H in (0, 1/4), got {self.hurst}")
        if self.kind == "user_sequence" and len(self.values) == 0:
            raise DomainError("user_sequence requires at least gamma_0")
        if not all(map(math.isfinite, self.values)):
            raise DomainError(f"autocovariance values must be finite, got {self.values}")
        if not 0 < self.scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """Slowly varying amplitude ell(x) = c (log x)^rho at x > 1: "constant"
    (rho = 0) or "log_power".  ``ModelSpec.amplitude_of_log`` evaluates it."""
    kind: str
    c: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "log_power"):
            raise DomainError(f"unknown slowly varying kind {self.kind!r}")
        if not (math.isfinite(self.c) and math.isfinite(self.rho)):
            raise DomainError(f"amplitude c and exponent rho must be finite, got "
                              f"c = {self.c}, rho = {self.rho}")
        if self.kind == "constant":
            if self.c < 0:
                raise DomainError("constant amplitude must be nonnegative")
            if self.rho != 0:
                raise DomainError(f"constant amplitude takes rho = 0, got {self.rho}")
        else:
            if self.c <= 0:
                raise DomainError("log_power amplitude must be positive")
            if self.rho <= -0.5:
                raise DomainError("log_power exponent must be > -1/2")


@dataclass(frozen=True)
class ModelSpec:
    """One instance of the observation model z = sigma n^(-beta) x + y."""
    n: int
    beta: float
    sigma: float
    tau: float
    K: int
    x_cov: AutocovarianceSpec
    ell: SlowlyVaryingSpec
    alpha: float
    noise_convention: str = DELTA_DELTAT
    preset: str = "user"

    def __post_init__(self):
        # a float n or K would pass the comparisons below, then fail deep in
        # numpy (n = 64.0) or give a Fisher value for a size that does not
        # exist (n = 64.5)
        if not is_integer(self.n) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        # chained comparisons, so nan and inf fail them too
        if not 0 < self.beta < math.inf:
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not 0 <= self.sigma < math.inf:
            raise DomainError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not 0 < self.tau < math.inf:
            raise DomainError(f"tau must be positive and finite, got {self.tau}")
        if not is_integer(self.K) or self.K < 0:
            raise DomainError(f"K must be a nonnegative integer, got {self.K!r}")
        if not -0.5 < self.alpha < 0.5:
            raise DomainError("alpha must lie in (-1/2, 1/2)")
        if self.K <= self.alpha:
            raise DomainError("K must exceed alpha (diamond = 1/(K - alpha) > 0)")
        if self.noise_convention not in CONVENTIONS:
            raise DomainError(f"noise_convention must be one of {CONVENTIONS}")
        # a numpy integer passes the checks but is no JSON number: keep Python
        # ints, which hash and compare equal to it
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "K", int(self.K))

    @property
    def diamond(self) -> float:
        return 1.0 / (self.K - self.alpha)

    @property
    def is_critical(self) -> bool:
        """diamond == 4 decided exactly on (K, alpha), in integers: alpha is
        the binary fraction p / q that ``as_integer_ratio`` gives, so
        K - alpha = 1/4 exactly when 4 (K q - p) = q."""
        p, q = float(self.alpha).as_integer_ratio()
        return 4 * (self.K * q - p) == q

    # -- autocovariance ----------------------------------------------------

    def gamma(self, k):
        """gamma_k of the (stationary part of the) signal process; a user
        sequence goes on beyond its values as sign(-alpha) k^(-2 alpha - 1)
        ``amplitude_of_log(log k)``."""
        xc = self.x_cov
        if xc.kind != "user_sequence":
            return xc.scale * _preset_gamma(xc, k)
        k_arr = np.atleast_1d(np.asarray(k, dtype=int))
        vals = np.asarray(xc.values, dtype=float)
        out = np.empty(k_arr.shape, dtype=float)
        inside = k_arr < len(vals)
        out[inside] = vals[k_arr[inside]] * xc.scale
        if np.any(~inside):
            kk = k_arr[~inside].astype(float)
            out[~inside] = (np.sign(-self.alpha) * kk ** (-2 * self.alpha - 1)
                            * self.amplitude_of_log(np.log(kk)))
        return float(out[0]) if np.ndim(k) == 0 else out

    def gamma_array(self, kmax: int) -> np.ndarray:
        return np.asarray(self.gamma(np.arange(kmax + 1)))

    def cov_x(self) -> np.ndarray:
        """Dense covariance of (x_1 .. x_n); Toeplitz except for the
        nonstationary first row/column of the integrated-motion preset.
        DomainError beyond MAX_DENSE_N, before anything is allocated."""
        if self.n > MAX_DENSE_N:
            raise DomainError(
                f"n = {self.n} exceeds MAX_DENSE_N = {MAX_DENSE_N}, the largest n of the "
                "dense routes (exact Fisher, estimation, sampling); for the Fisher "
                "information at this n use --method integral or --method closed-form")
        g = self.gamma_array(self.n - 1) if self.n > 1 else np.array([self.gamma(0)])
        # row i of the Toeplitz matrix is the window of (g_(n-1) .. g_1, g_0 ..
        # g_(n-1)) that starts at n - 1 - i: the windows in reverse, copied once
        cov = sliding_window_view(np.concatenate([g[:0:-1], g]), self.n)[::-1].copy()
        if self.x_cov.kind == "integrated_fbm_increment":
            b = self.x_cov.scale * integrated_fbm_boundary_cov(self.x_cov.hurst, self.n)
            cov[0, :] = b
            cov[:, 0] = b
        return cov

    # -- spectral densities -------------------------------------------------

    def _check_lambda(self, lam):
        """lam as a float array; DomainError unless every entry is in (0, pi].
        A nan fails both comparisons, since the min or max it yields is nan."""
        lam = np.asarray(lam, dtype=float)
        if lam.size and not (lam.min() > 0.0 and lam.max() <= np.pi):
            raise DomainError("frequency must lie in (0, pi]")
        return lam

    def amplitude_of_log(self, s):
        """Slowly varying amplitude scale c s^rho = scale ell(e^s) of the power
        law gamma_k ~ sign(-alpha) k^(-2 alpha - 1) scale ell(k), at s = log x
        for real x > 1 and at complex s, without forming e^s."""
        return self.x_cov.scale * self.ell.c * s ** self.ell.rho

    def _preset_constants(self) -> tuple[float, int, float]:
        """(amp, m, s) of a preset's density amp sin^(2m)(lam/2) (q^-s + L(q)),
        q = lam / 2 pi, L = ``_folded_lattice``: m = 1 (fgn) or 2, s = 2H + 2m - 1."""
        H = self.x_cov.hurst
        m = 2 if self.x_cov.kind == "integrated_fbm_increment" else 1
        s = 2.0 * H + (2 * m - 1)
        # the scalar factor, by math: fgn's 1 - cos lam is 2 sin^2(lam/2)
        amp = (self.x_cov.scale * 4.0 ** m * math.sin(math.pi * H)
               * math.gamma(2.0 * H + 1.0) * (2.0 * math.pi) ** -s)
        return amp, m, s

    def spectral_density_x(self, lam):
        """Signal spectral density f = sum_k gamma_k cos(k lam) on (0, pi].

        Presets: the folded power law, the lattice sum by ``_folded_lattice``.
        fgn: 2 sin(pi H) Gamma(2H+1) (1 - cos lam) sum_j |2 pi j + lam|^(-2H-1).
        The integrated preset's unit-window average multiplies the continuous
        spectrum by (sin(w/2)/(w/2))^2: 16 sin(pi H) Gamma(2H+1) sin^4(lam/2)
        sum_j |2 pi j + lam|^(-2H-3).  With (amp, m, s) from
        ``_preset_constants``, the j = 0 term sin^(2m)(lam/2) q^-s is
        evaluated as (sin(lam/2) / q)^(2m) q^(2m-s): far below 1e-30 the sine
        power underflows and q^-s overflows, while the term is finite.

        User sequences: a series over blocks of SERIES_BLOCK frequencies, the
        lags below k0 = max(len(values), 2) explicitly, the rest by
        ``_quad.cos_tail_sum`` from the power law that gamma follows exactly
        from k0 on."""
        lam = self._check_lambda(lam)
        if self.x_cov.kind != "user_sequence":
            amp, m, s = self._preset_constants()
            q = lam / (2.0 * np.pi)
            sine = np.sin(lam / 2.0)
            sin2, ratio2 = sine * sine, (sine / q) ** 2
            if m == 2:
                sin2, ratio2 = sin2 * sin2, ratio2 * ratio2
            return amp * (sin2 * _folded_lattice(s, q) + ratio2 * q ** (2 * m - s))
        k0 = max(len(self.x_cov.values), 2)
        g = self.gamma_array(k0 - 1)
        flat, lags = lam.ravel(), np.arange(1, k0)
        out = np.empty_like(flat)
        for lo in range(0, flat.size, SERIES_BLOCK):
            blk = flat[lo:lo + SERIES_BLOCK]
            out[lo:lo + SERIES_BLOCK] = g[0] + 2.0 * (
                np.cos(np.outer(blk, lags)) @ g[1:] + self._gamma_tail_cos(blk, k0))
        return float(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)

    def _gamma_tail_cos(self, lam, k_start: int):
        """sum_{k >= k_start} gamma_k cos(k lam) from the asymptote of gamma."""
        return np.sign(-self.alpha) * cos_tail_sum(2.0 * self.alpha + 1.0, lam, k_start,
                                                   self.amplitude_of_log)

    def noise_to_signal(self, lam):
        """log r, r = noise / (pref f): the noise spectrum 4^K tau^2
        sin^(2K)(lam/2) over the signal's times pref = sigma^2 n^(-2 beta).
        It is built in logs, as pref, the noise and f each leave the float
        range at extreme n while r does not: log pref by math.log of the int
        n; for presets log f = log amp + 2m log sin(lam/2) - s log q +
        log1p(q^s L(q)) (``_preset_constants``), whose sine term cancels the
        noise's exactly where K = m; for user sequences the log of the series,
        -inf where it is <= 0, so that log r = +inf there.  DomainError at
        sigma = 0, where there is no signal to divide by."""
        if self.sigma == 0:
            raise DomainError("the noise-to-signal ratio needs sigma > 0")
        lam = self._check_lambda(lam)
        log_pref = 2.0 * math.log(self.sigma) - 2.0 * self.beta * math.log(self.n)
        log_scale = self.K * math.log(4.0) + 2.0 * math.log(self.tau) - log_pref
        log_sin = np.log(np.sin(lam / 2.0))
        if self.x_cov.kind == "user_sequence":
            with np.errstate(divide="ignore"):  # f <= 0: log f = -inf
                log_f = np.log(np.maximum(self.spectral_density_x(lam), 0.0))
            return log_scale + 2 * self.K * log_sin - log_f
        amp, m, s = self._preset_constants()
        q = lam / (2.0 * np.pi)
        return (log_scale - math.log(amp) + 2 * (self.K - m) * log_sin + s * np.log(q)
                - np.log1p(q ** s * _folded_lattice(s, q)))

    def sum_gamma_squared(self) -> float:
        """sum_{k in Z} gamma_k^2, exact to rounding, for alpha > -1/4: lags
        below k0 = max(SUM_SQ_HEAD, len(values)) directly; from k0 on, gamma_k
        = k^(-2 alpha - 1) sum_i b_i k^(-2 i) (a preset's binomial series, the
        stencils being symmetric; b_0 = sign(-alpha) scale c for a constant
        ell), and its square's series sums to sum_j A_j zeta(4 alpha + 2 + 2 j,
        k0); a log-power ell's tail by ``power_tail_sum``."""
        if self.alpha <= -0.25:
            raise DomainError("sum of squared autocovariances diverges for alpha <= -1/4")
        xc, e = self.x_cov, 4.0 * self.alpha + 2.0
        k0 = max(SUM_SQ_HEAD, len(xc.values))
        g = self.gamma_array(k0 - 1)
        head = g[0] ** 2 + 2.0 * float(np.sum(g[1:] ** 2))
        if xc.kind != "user_sequence":
            p, stencil, _, divisor = _preset_kernel(xc)
            _, b = _series_coefficients(p, partial(_moment, stencil), k0, 2)
            b = np.array(b) * (xc.scale / divisor)
        elif self.ell.kind == "constant":
            b = np.array([np.sign(-self.alpha) * self.amplitude_of_log(1.0)])
        else:
            tail = power_tail_sum(e, k0, lambda s: self.amplitude_of_log(s) ** 2)
            return head + 2.0 * np.sign(self.alpha) ** 2 * tail
        return head + 2.0 * sum(a * _hurwitz_zeta(e + 2 * j, k0)
                                for j, a in enumerate(np.convolve(b, b)))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def fbm_wn_spec(n: int, H: float, sigma: float = 1.0, tau: float = 1.0) -> ModelSpec:
    """Increments of scaled fractional motion plus differenced white noise:
    beta = H, K = 1, alpha = 1/2 - H."""
    if not 0 < H < 1:
        raise DomainError(f"Hurst index must lie in (0,1), got {H}")
    return ModelSpec(
        n=n, beta=H, sigma=sigma, tau=tau, K=1,
        x_cov=AutocovarianceSpec(kind="fgn", hurst=H),
        ell=SlowlyVaryingSpec("constant", H * abs(2 * H - 1)),
        alpha=0.5 - H,
        noise_convention=DELTA_DELTAT,
        preset="fbm-wn",
    )


def large_error_spec(n: int, H: float, beta: float, sigma: float = 1.0,
                     tau: float = 1.0) -> ModelSpec:
    """Long-range dependent signal observed under noise growing like n^beta:
    K = 0, alpha = 1/2 - H with H in (1/2, 1); requires 0 < beta < H - 1/2.

    For H < 3/4 gamma is rescaled so that sum gamma_k^2 = 1, which normalises
    exactly (``sum_gamma_squared`` is exact to rounding); for H >= 3/4 it is
    left as is, the squares not being summable."""
    if not 0.5 < H < 1:
        raise DomainError(f"large-error preset requires H in (1/2, 1), got {H}")
    if not 0 < beta < H - 0.5:
        raise DomainError(f"large-error preset requires 0 < beta < H - 1/2 = {H - 0.5}")
    spec = ModelSpec(
        n=n, beta=beta, sigma=sigma, tau=tau, K=0,
        x_cov=AutocovarianceSpec(kind="fgn", hurst=H),
        ell=SlowlyVaryingSpec("constant", H * abs(2 * H - 1)),
        alpha=0.5 - H, preset="large-error")
    if H >= 0.75:
        return spec
    scale = 1.0 / math.sqrt(spec.sum_gamma_squared())
    return replace(spec, x_cov=replace(spec.x_cov, scale=scale))


def integrated_fbm_spec(n: int, H: float, sigma: float = 1.0, tau: float = 1.0) -> ModelSpec:
    """Twice-differenced observations of integrated fractional motion under
    white noise: beta = 1 + H, K = 2, alpha = 1/2 - H with H in (0, 1/4)."""
    if not 0 < H < 0.25:
        raise DomainError(f"integrated-motion preset requires H in (0, 1/4), got {H}")
    return ModelSpec(
        n=n, beta=1.0 + H, sigma=sigma, tau=tau, K=2,
        x_cov=AutocovarianceSpec(kind="integrated_fbm_increment", hurst=H),
        ell=SlowlyVaryingSpec("constant", H * (1.0 - 2.0 * H)),
        alpha=0.5 - H,
        noise_convention=DELTA_DELTAT,
        preset="integrated-fbm",
    )


def user_spec(n: int, beta: float, sigma: float, tau: float, K: int,
              gamma_values, alpha: float, ell: SlowlyVaryingSpec,
              noise_convention: str = DELTA_DELTAT) -> ModelSpec:
    """Fully user-specified model; alpha is taken as known structure."""
    return ModelSpec(
        n=n, beta=beta, sigma=sigma, tau=tau, K=K,
        x_cov=AutocovarianceSpec(kind="user_sequence",
                                 values=tuple(float(v) for v in gamma_values)),
        ell=ell, alpha=alpha, noise_convention=noise_convention, preset="user",
    )


PRESET_IDS = ("fbm-wn", "large-error", "integrated-fbm", "user")


def with_n(spec: ModelSpec, n: int) -> ModelSpec:
    """Same model at a different sample size."""
    return replace(spec, n=n)
