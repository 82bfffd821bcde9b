"""Exact sampling of the observation model and batch efficiency studies.

Draws are made in panels of ``linalg.PANEL`` replicates: the signal
factor L of Cov(x) = L L^t applied to the panel, and K running differences
along each row of noise draws, which apply the exact integer factor F of
the noise covariance tau^2 F F^t.  When Cov(x) is diagonal (a white
signal), L is the scalar sqrt(gamma_0) and the panel is scaled; otherwise
L is the Cholesky factor, computed in Cov(x)'s own buffer, and the product
is one BLAS triangular product (trmm).  A single draw is the one live column
of its panel, so there is one code path, and a column's bits do not depend
on its position or its neighbours.  Replicate streams are counter-based (Philox keyed by (seed,
replicate)), so a replicate's draw is bit-identical whether generated alone
or in a different batch.  Studies run replicates panel by panel in one
thread, one stage at a time across the panel, so each n x n array (the
signal's Cholesky factor, the eigenbasis of a dense whitening) is read once
per panel rather than once per replicate, and every estimate equals that
of ``sample_z`` + ``estimate``.  A white signal under the noise I or D D^t
has none: it is drawn by scaling and whitened by FFT.

The Cholesky factorisation and the BLAS product are scipy's compiled
wrappers, loaded on first use by ``linalg._scipy_wrappers`` without
importing the ``scipy.linalg`` package, so that importing this package, the
spectral and closed-form routes, drawing a white signal and studying one
under the noise I or D D^t load no scipy."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .estimator import EstimateResult, _estimate_from_squares, _weighted_sum, make_split
from .fisher import _white_variance, fisher_exact, information_weights, whitened_system
from .linalg import (PANEL, NotPositiveDefiniteError, _difference_noise, _panel_ranges,
                     _scipy_wrappers)
from .model import DomainError, ModelSpec, is_integer

ESTIMATORS = ("oracle", "efficient")


@lru_cache(maxsize=1)
def _signal_chol(spec: ModelSpec) -> float | np.ndarray:
    """The factor L of Cov(x) = L L^t that draws the signal, decided once
    per spec.  For a white signal, Cov(x) = gamma_0 I (``_white_variance``),
    L is the scalar sqrt(gamma_0), with no n x n array (``dtrmm`` with
    sqrt(gamma_0) I has the same bits).  Otherwise L is the lower Cholesky
    factor, computed by potrf in the fresh Cov(x)'s own buffer (Cov(x) is
    exactly symmetric, so its transpose is the same matrix in Fortran
    order), which ``dtrmm`` then reads in place.  Read-only, because the
    factor is shared through the cache, which keeps only the last spec's:
    callers sample one spec at a time."""
    gamma0 = _white_variance(spec)
    if gamma0 is not None:
        if not gamma0 > 0:
            raise NotPositiveDefiniteError("signal covariance is not positive definite")
        return float(np.sqrt(gamma0))
    cov_x = np.asarray_chkfinite(spec.cov_x())
    factor, info = _scipy_wrappers("_flapack").dpotrf(cov_x.T, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError("signal covariance is not positive definite")
    factor.flags.writeable = False
    return factor


def _check_seed(seed) -> int:
    if not is_integer(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    return int(seed)


def _rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(rep_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_z(spec: ModelSpec, seed: int, rep_index: int = 0) -> np.ndarray:
    """One exact draw of the observation vector.

    Signal: L xi, with L from ``_signal_chol``: the scalar sqrt(gamma_0)
    when Cov(x) is diagonal, else the lower Cholesky factor of Cov(x),
    applied by a BLAS triangular product that reads only its lower half.
    Noise: tau F xi_noise, with F = (D D^t)^(K // 2) D^(K % 2) the integer
    factor of (D D^t)^K (index-reversed for the D^t D convention), applied
    as K running differences in O(K n).  The draw is the one live column of
    a ``_sample_each`` panel.  DomainError, before any work, unless ``seed``
    is an integer (negative seeds are taken modulo 2^64) and ``rep_index``
    an integer in [0, 2^64).
    """
    seed = _check_seed(seed)
    if not (is_integer(rep_index) and 0 <= rep_index < 2 ** 64):
        raise DomainError(f"rep_index must be an integer in [0, 2^64), got {rep_index!r}")
    rep_index = int(rep_index)
    return _sample_each(spec, seed, range(rep_index, rep_index + 1))[:, 0].copy()


def _sample_each(spec: ModelSpec, seed: int, reps: range) -> np.ndarray:
    """``sample_z`` of each of the at most PANEL replicates in ``reps``, as
    the leading columns of an n x PANEL Fortran-ordered panel whose other
    columns are zero.  The signal factor is taken once per panel: a white
    signal scales the panel of draws, any other is one BLAS trmm of L with
    it, so L is read once per panel; the noise is K running differences
    along each live row of draws, elementwise.  A column of a width-PANEL
    panel gets the same bits at any position whatever its neighbours hold,
    so a replicate's draw does not depend on the range."""
    factor = _signal_chol(spec)
    n = spec.n
    xi = np.zeros((n, PANEL), order="F")
    xi_noise = np.empty((len(reps), n))
    for j, rep in enumerate(reps):
        rng = _rep_rng(seed, rep)
        xi[:, j] = rng.standard_normal(n)
        xi_noise[j] = rng.standard_normal(n)
    if isinstance(factor, float):
        x = factor * xi
    else:
        x = _scipy_wrappers("_fblas").dtrmm(1.0, factor, xi, lower=1)
    y = _difference_noise(xi_noise, spec.K, spec.noise_convention)
    z = spec.sigma * float(n) ** (-spec.beta) * x
    z[:, :len(reps)] += spec.tau * y.T
    return z


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

    @property
    def normalized_se(self) -> float:
        """Standard error of ``normalized``: I * std(err^2) / sqrt(reps)."""
        err2 = (self.values - self.spec.sigma ** 2) ** 2
        return self.fisher_exact * float(np.std(err2, ddof=1)) / float(np.sqrt(self.reps))

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
            "normalized_se": self.normalized_se,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def run_study(spec: ModelSpec, reps: int, seed: int, estimator: str = "efficient",
              workers: int = 1) -> McStudy:
    """Independent replicates of simulate-then-estimate, in replicate
    order; deterministic for fixed (spec, reps, seed).

    Replicates run in one thread, in consecutive panels of at most
    ``linalg.PANEL``, stage by stage (draws, one signal scaling or trmm,
    the noise's running differences, the panel's data map, then the
    estimator on each column), so each n x n array is read once per panel
    rather than once per replicate.  The data map is one whitening solve
    and one eigenbasis gemm, or for a white signal under the noise I or
    D D^t one FFT each way.  ``sample_z`` and
    ``estimate`` (or ``oracle_estimate``) make the same panel calls with
    one live column, and a column's bits do not depend on its position or
    neighbours, so each estimate is bit-identical to theirs for any panel
    filling.  For
    parallelism give the BLAS library threads.  The split and the
    information weights are built once per study.  DomainError, before any
    work, unless ``reps`` is an integer >= 2, ``seed`` an integer,
    ``estimator`` one of ``ESTIMATORS`` and ``workers`` the integer 1 (a
    keyword kept for callers that pass it)."""
    if not is_integer(reps) or reps < 2:
        raise DomainError(f"reps must be an integer >= 2, got {reps!r}")
    # Python ints from here, so the study's JSON can hold them
    reps, seed = int(reps), _check_seed(seed)
    if estimator not in ESTIMATORS:
        raise DomainError(f"estimator must be one of {ESTIMATORS}")
    if not is_integer(workers) or workers != 1:
        raise DomainError(f"workers must be 1 (replicates run in one thread), got {workers!r}")
    system = whitened_system(spec)
    _signal_chol(spec)
    info = fisher_exact(spec)
    w = information_weights(system.lam, spec.n, spec.beta)
    lam_max, lam_min = float(system.lam[0]), float(system.lam[-1])

    if estimator == "oracle":
        def finish(z2: np.ndarray) -> EstimateResult:
            val = _weighted_sum(z2, w, spec.sigma ** 2)
            return EstimateResult(
                preliminary_V=val, sigma2_tilde=val, sigma2_two_stage=val,
                sigma2_hat=val, plugin_fisher=info, split={},
                lam_max=lam_max, lam_min=lam_min)
    else:
        split = make_split(system.lam, spec.n, spec.beta)

        def finish(z2: np.ndarray) -> EstimateResult:
            return _estimate_from_squares(z2, w, split, system, spec)

    results = []
    for part in _panel_ranges(reps):
        q = system._transform_each(_sample_each(spec, seed, part))
        results.extend(finish(q[:, j] ** 2) for j in range(len(part)))

    truth = spec.sigma ** 2
    errs = np.array([r.sigma2_hat for r in results]) - truth
    mse = float(np.mean(errs ** 2))
    return McStudy(
        spec=spec, reps=reps, seed=seed, estimator=estimator,
        estimates=tuple(results), mse=mse, fisher_exact=info,
        normalized=info * mse)
