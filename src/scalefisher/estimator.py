"""Oracle, preliminary, two-stage, and final estimators for sigma^2.

The paper's two-stage estimator splits the whitened coordinates into a small
prefix used for a truncated preliminary estimate and a complement where the
preliminary value is plugged into the oracle weights; that value is unbiased
for any plug-in and asymptotically attains the Cramer-Rao bound, but discards
the prefix information.  The final estimate starts from it and solves the
likelihood equation for sigma^2 over all coordinates, whose root is the fixed
point of the same plug-in weighted sum."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .fisher import information_sum, information_weights, whitened_system
from .linalg import WhitenedSystem
from .model import DomainError, ModelSpec

MIN_INFORMATION = 2.0
ROOT_RTOL = 1e-13


class InsufficientInformation(RuntimeError):
    """Total information at unit scale is too small to support the split."""


@dataclass(frozen=True)
class SplitPlan:
    """Prefix split of the descending-eigenvalue order: the prefix a_n is
    the first k of the n coordinates, its complement the rest.

    The prefix collects information just past sqrt(I1_n), so its share of
    the total vanishes asymptotically while still growing without bound."""
    k: int
    n: int
    i1_an: float
    i1_n: float
    delta_n: float

    def summary(self) -> dict:
        return {
            "split_size": self.k,
            "complement_size": self.n - self.k,
            "I1_An": self.i1_an,
            "I1_n": self.i1_n,
            "delta_n": self.delta_n,
        }


def make_split(lam: np.ndarray, n: int, beta: float) -> SplitPlan:
    """Smallest prefix of the descending eigenvalues whose unit-scale
    information reaches sqrt(I1_n); requires I1_n >= MIN_INFORMATION."""
    lam = np.asarray(lam, dtype=float)
    w = information_weights(lam, n, beta)
    contrib = 0.5 * (w / (w + 1.0)) ** 2
    i1_n = float(np.sum(contrib))
    if i1_n < MIN_INFORMATION:
        raise InsufficientInformation(
            f"I1_n = {i1_n:.4g} < {MIN_INFORMATION}: too little information "
            f"at n = {n} for a meaningful sample split")
    cum = np.cumsum(contrib)
    k_star = int(np.searchsorted(cum, np.sqrt(i1_n))) + 1
    k_star = min(k_star, lam.size - 1)  # keep the complement nonempty
    i1_an = float(cum[k_star - 1])
    delta_n = float(np.clip(i1_an ** (-0.125), 0.0, 1.0))
    return SplitPlan(k=k_star, n=lam.size, i1_an=i1_an, i1_n=i1_n, delta_n=delta_n)


@dataclass(frozen=True)
class EstimateResult:
    """Preliminary, truncated, and final estimates with diagnostics.

    ``plugin_fisher`` is the Fisher information over all coordinates at the
    returned ``sigma2_hat`` (at the true sigma^2 for oracle rows); its
    inverse is the plug-in variance of that value."""
    preliminary_V: float
    sigma2_tilde: float
    sigma2_two_stage: float
    sigma2_hat: float
    plugin_fisher: float
    split: dict
    lam_max: float
    lam_min: float

    def to_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _weighted_sum(z2: np.ndarray, w: np.ndarray, u: float) -> float:
    """(2 I_u)^-1 sum_i w_i (z2_i - 1) / (u w_i + 1)^2 with
    I_u = (1/2) sum_i w_i^2 / (u w_i + 1)^2 over the coordinates given: all
    of them, or a slice for one part of the split, summed in index order by
    numpy's pairwise summation."""
    denom = (u * w + 1.0) ** 2
    info = 0.5 * float(np.sum(w ** 2 / denom))
    return float(np.sum(w * (z2 - 1.0) / denom)) / (2.0 * info)


def _likelihood_root(z2: np.ndarray, w: np.ndarray, start: float) -> float:
    """Root in u >= 0 of the score for sigma^2,
    S(u) = (1/2) sum_i w_i (z2_i - u w_i - 1) / (u w_i + 1)^2.

    Returns 0, the boundary of the parameter space, when S(0) <= 0.  Otherwise
    every term of S is <= 0 at u_hi = max_i (z2_i - 1) / w_i, so the root lies
    in (0, u_hi].  Newton steps on S from ``start`` are kept while they land
    inside the bracket and move less than half its width; otherwise the
    bracket is bisected.  Every evaluated point becomes an end of the
    bracket, so the search ends."""
    if np.sum(w * (z2 - 1.0)) <= 0.0:
        return 0.0
    pos = w > 0  # eigenvalues clipped to zero carry no information
    lo, hi = 0.0, float(np.max((z2[pos] - 1.0) / w[pos]))
    u = min(start, hi)
    while True:
        d = u * w + 1.0
        r = z2 - d
        score = float(np.sum(w * r / d ** 2))                  # 2 S(u)
        if score > 0.0:
            lo = u
        else:
            hi = u
        curv = float(np.sum(w ** 2 * (r + z2) / d ** 3))       # -2 S'(u)
        nxt = u + score / curv if curv > 0.0 else np.inf
        if abs(nxt - u) <= ROOT_RTOL * u:
            return nxt
        if not (lo < nxt < hi and abs(nxt - u) <= 0.5 * (hi - lo)):
            nxt = 0.5 * (lo + hi)
            if nxt in (lo, hi):
                return nxt
        u = nxt


def _checked_data(z, spec: ModelSpec) -> np.ndarray:
    """z as a float vector; DomainError unless it is n finite numbers."""
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.n,):
        raise DomainError(f"data of shape {z.shape} does not match spec n = {spec.n}")
    if not np.all(np.isfinite(z)):
        raise DomainError("data contains non-finite values")
    return z


def oracle_estimate(z: np.ndarray, spec: ModelSpec) -> float:
    """Oracle estimator using the true sigma^2 in the weights (testing
    baseline; unbiased with variance equal to the inverse information)."""
    z = _checked_data(z, spec)
    system = whitened_system(spec)
    w = information_weights(system.lam, spec.n, spec.beta)
    return _weighted_sum(system.transform(z) ** 2, w, spec.sigma ** 2)


def estimate(z: np.ndarray, spec: ModelSpec) -> EstimateResult:
    """Efficient estimator of sigma^2 from one observation vector.

    The paper's two-stage value (preliminary estimate on the prefix split,
    clipped to [delta_n, 1/delta_n], plugged into the oracle weights on the
    complement) is kept as ``sigma2_two_stage``.  It starts the search for the
    root of the likelihood equation over all coordinates (the clipped
    preliminary value starts it when the two-stage value is not positive),
    returned as ``sigma2_hat``.  That root is 0 when the score is already
    non-positive at the boundary sigma^2 = 0 of the parameter space."""
    z = _checked_data(z, spec)
    system = whitened_system(spec)
    split = make_split(system.lam, spec.n, spec.beta)
    w = information_weights(system.lam, spec.n, spec.beta)
    return _estimate_from_squares(system.transform(z) ** 2, w, split, system, spec)


def _estimate_from_squares(z2: np.ndarray, w: np.ndarray, split: SplitPlan,
                           system: WhitenedSystem, spec: ModelSpec) -> EstimateResult:
    """``estimate`` from the squared transformed data z2, with the weights
    and split of ``system`` built once by the caller."""
    v = _weighted_sum(z2[:split.k], w[:split.k], 1.0)
    sigma2_tilde = float(np.clip(v, split.delta_n, 1.0 / split.delta_n))
    two_stage = _weighted_sum(z2[split.k:], w[split.k:], sigma2_tilde)
    if not np.isfinite(two_stage):
        raise DomainError("estimator produced a non-finite value")
    start = two_stage if two_stage > 0.0 else sigma2_tilde
    sigma2_hat = _likelihood_root(z2, w, start)
    return EstimateResult(
        preliminary_V=v, sigma2_tilde=sigma2_tilde,
        sigma2_two_stage=two_stage, sigma2_hat=sigma2_hat,
        plugin_fisher=information_sum(sigma2_hat, system.lam, spec.n, spec.beta),
        split=split.summary(),
        lam_max=float(system.lam[0]), lam_min=float(system.lam[-1]))
