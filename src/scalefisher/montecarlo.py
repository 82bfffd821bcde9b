"""Exact sampling of the observation model and batch efficiency studies.

Each draw costs one triangular product with the Cholesky factor of the
signal covariance and one cosine transform by FFT for the noise.
Replicate streams are counter-based (Philox keyed by (seed, replicate)), so
a replicate's draw is bit-identical whether generated alone, in a different
batch, or on a different worker count."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky, LinAlgError
from scipy.linalg.blas import dtrmv

from .estimator import EstimateResult, estimate, oracle_estimate
from .fisher import fisher_exact, whitened_system
from .linalg import NotPositiveDefiniteError, cosine_transform, dct_nodes, DELTAT_DELTA
from .model import DomainError, ModelSpec

ESTIMATORS = ("oracle", "efficient")


@lru_cache(maxsize=1)
def _signal_chol(spec: ModelSpec) -> np.ndarray:
    """Lower Cholesky factor of Cov(x), Fortran-ordered so that ``dtrmv``
    reads it in place.  Read-only, because the factor is shared through the
    cache, which keeps only the last spec's: callers sample one spec at a
    time."""
    try:
        factor = np.asfortranarray(cholesky(spec.cov_x(), lower=True))
    except LinAlgError as exc:
        raise NotPositiveDefiniteError("signal covariance is not positive definite") from exc
    factor.flags.writeable = False
    return factor


def _rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(rep_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_z(spec: ModelSpec, seed: int, rep_index: int = 0) -> np.ndarray:
    """One exact draw of the observation vector.

    Signal: L xi, with L the lower Cholesky factor of Cov(x), by a BLAS
    triangular product that reads only L's lower half.  Noise: C diag(d)
    xi_noise, synthesized in the cosine eigenbasis C where its covariance is
    exactly diagonal (index-reversed for the D^t D convention), with C
    applied by ``cosine_transform``.
    """
    rng = _rep_rng(seed, rep_index)
    xi = rng.standard_normal(spec.n)
    xi_noise = rng.standard_normal(spec.n)
    x = dtrmv(_signal_chol(spec), xi, lower=1)
    u = dct_nodes(spec.n)
    d = 2.0 ** spec.K * spec.tau * np.sin(u / 2.0) ** spec.K
    y = cosine_transform(d * xi_noise)
    if spec.noise_convention == DELTAT_DELTA:
        y = y[::-1]
    return spec.sigma * float(spec.n) ** (-spec.beta) * x + y


@dataclass(frozen=True)
class McStudy:
    """Replicated estimates with the efficiency product I * MSE."""
    spec: ModelSpec
    reps: int
    seed: int
    estimator: str
    estimates: tuple[EstimateResult, ...]
    mse: float
    fisher_exact: float
    normalized: float

    @property
    def values(self) -> np.ndarray:
        return np.array([e.sigma2_hat for e in self.estimates])

    def to_dict(self) -> dict:
        return {
            "preset": self.spec.preset,
            "n": self.spec.n,
            "sigma": self.spec.sigma,
            "tau": self.spec.tau,
            "beta": self.spec.beta,
            "K": self.spec.K,
            "reps": self.reps,
            "seed": self.seed,
            "estimator": self.estimator,
            "mse": self.mse,
            "fisher_exact": self.fisher_exact,
            "normalized": self.normalized,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run_study(spec: ModelSpec, reps: int, seed: int, estimator: str = "efficient",
              workers: int = 1) -> McStudy:
    """Independent replicates of simulate-then-estimate; deterministic for
    fixed (spec, reps, seed) and any worker count (results merged in
    replicate order)."""
    if reps < 2:
        raise DomainError("need at least two replicates")
    if estimator not in ESTIMATORS:
        raise DomainError(f"estimator must be one of {ESTIMATORS}")
    system = whitened_system(spec)
    _signal_chol(spec)
    info = fisher_exact(spec, system=system)

    def one(rep: int) -> EstimateResult:
        z = sample_z(spec, seed, rep)
        if estimator == "oracle":
            val = oracle_estimate(z, system, spec)
            return EstimateResult(
                preliminary_V=val, sigma2_tilde=val, sigma2_two_stage=val,
                sigma2_hat=val,
                plugin_fisher=info, split={}, lam_max=float(system.lam[0]),
                lam_min=float(system.lam[-1]))
        return estimate(z, spec, system=system)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(rep) for rep in range(reps)]

    truth = spec.sigma ** 2
    errs = np.array([r.sigma2_hat for r in results]) - truth
    mse = float(np.mean(errs ** 2))
    return McStudy(
        spec=spec, reps=reps, seed=seed, estimator=estimator,
        estimates=tuple(results), mse=mse, fisher_exact=info,
        normalized=info * mse)
