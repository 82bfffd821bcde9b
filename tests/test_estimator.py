"""Estimator layer: information splitting, oracle identities, and the
two-stage efficient estimator."""

import math
import threading

import numpy as np
import pytest

import scalefisher as sf
from scalefisher.estimator import MIN_INFORMATION, _weighted_sum
from scalefisher.fisher import information_sum, information_weights


def flat_spec(n, beta=0.05, sigma=1.0, tau=1.0):
    return sf.user_spec(n, beta=beta, sigma=sigma, tau=tau, K=0,
                        gamma_values=[1.0], alpha=-0.1,
                        ell=sf.SlowlyVaryingSpec("constant", 0.0))


# ---------------------------------------------------------------------------
# partial information
# ---------------------------------------------------------------------------

def test_partial_fisher_empty_and_full():
    spec = sf.fbm_wn_spec(128, 0.5)
    lam = sf.whitened_system(spec).lam
    assert information_sum(1.0, lam[:0], 128, 0.5) == 0.0
    full = information_sum(spec.sigma ** 2, lam, 128, 0.5)
    assert full == pytest.approx(sf.fisher_exact(spec), rel=1e-14)


def test_partial_fisher_equal_eigenvalues():
    n, beta, tau = 50, 0.3, 1.3
    lam = np.full(n, 1.0 / tau ** 2)
    u = 0.7
    w = lam[0] * n ** (-2.0 * beta)
    expect = n * w ** 2 / (2.0 * (u * w + 1.0) ** 2)
    got = information_sum(u, lam, n, beta)
    assert got == pytest.approx(expect, rel=1e-14)


def test_partial_fisher_additive():
    spec = sf.fbm_wn_spec(200, 0.4)
    lam = sf.whitened_system(spec).lam
    left = information_sum(1.0, lam[:60], 200, 0.4)
    right = information_sum(1.0, lam[60:], 200, 0.4)
    total = information_sum(1.0, lam, 200, 0.4)
    assert left + right == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_make_split_equal_contributions():
    # all eigenvalues equal: k* = ceil(sqrt(n c) / c) with c the per-index mass
    n, beta = 10_000, 0.05
    lam = np.ones(n)
    w = n ** (-2.0 * beta)
    c = 0.5 * (w / (w + 1.0)) ** 2
    plan = sf.make_split(lam, n, beta)
    assert plan.k == math.ceil(math.sqrt(n * c) / c)
    assert plan.i1_n == pytest.approx(n * c, rel=1e-12)


@pytest.mark.parametrize("n", [512, 1024])
def test_split_invariants_fbm_wn(n):
    spec = sf.fbm_wn_spec(n, 0.5)
    lam = sf.whitened_system(spec).lam
    plan = sf.make_split(lam, n, 0.5)
    assert math.sqrt(plan.i1_n) <= plan.i1_an <= math.sqrt(plan.i1_n) + 1.0
    # the prefix a_n is the first k coordinates, its complement the other n - k
    assert 1 <= plan.k < plan.n == n
    assert plan.summary()["split_size"] + plan.summary()["complement_size"] == n
    assert plan.delta_n == pytest.approx(min(1.0, plan.i1_an ** -0.125))
    # additivity of the two information masses
    rest = information_sum(1.0, lam[plan.k:], n, 0.5)
    assert plan.i1_an + rest == pytest.approx(plan.i1_n, rel=1e-12)


def test_split_growth():
    plans = {}
    for n in (512, 1024):
        spec = sf.fbm_wn_spec(n, 0.5)
        plans[n] = sf.make_split(sf.whitened_system(spec).lam, n, 0.5)
    assert plans[1024].i1_an > plans[512].i1_an
    assert plans[1024].i1_an / plans[1024].i1_n < plans[512].i1_an / plans[512].i1_n


def test_split_insufficient_information():
    lam = np.ones(16)
    with pytest.raises(sf.InsufficientInformation):
        sf.make_split(lam, 16, 1.0)
    assert MIN_INFORMATION == 2.0


# ---------------------------------------------------------------------------
# oracle estimator
# ---------------------------------------------------------------------------

def test_oracle_zero_vector_value():
    spec = sf.fbm_wn_spec(64, 0.6, sigma=1.2)
    system = sf.whitened_system(spec)
    info = sf.fisher_exact(spec)
    w = system.lam * 64.0 ** (-2 * 0.6)
    expect = -np.sum(w / (spec.sigma ** 2 * w + 1.0) ** 2) / (2.0 * info)
    got = sf.oracle_estimate(np.zeros(64), spec)
    assert got == pytest.approx(float(expect), rel=1e-12)


def test_oracle_mean_substitution_identity():
    # plugging E ztilde_i^2 = sigma^2 n^(-2 beta) lam_i + 1 returns sigma^2
    # exactly, for any subset and any plug-in value in the weights
    spec = sf.fbm_wn_spec(96, 0.35, sigma=1.4)
    system = sf.whitened_system(spec)
    w = system.lam * 96.0 ** (-2 * spec.beta)
    mean_z2 = spec.sigma ** 2 * w + 1.0
    for u in (0.3, 1.0, spec.sigma ** 2, 5.0):
        for idx in (np.arange(96), np.arange(10, 60), np.arange(0, 96, 3)):
            val = _weighted_sum(mean_z2[idx], w[idx], u)
            assert val == pytest.approx(spec.sigma ** 2, rel=1e-10)


def test_oracle_monte_carlo_moments():
    spec = sf.fbm_wn_spec(512, 0.5)
    info = sf.fisher_exact(spec)
    reps = 2000
    vals = np.array([
        sf.oracle_estimate(sf.sample_z(spec, seed=2024, rep_index=r), spec)
        for r in range(reps)])
    se_mean = math.sqrt(1.0 / (info * reps))
    assert abs(vals.mean() - spec.sigma ** 2) <= 3.0 * se_mean
    assert vals.var() == pytest.approx(1.0 / info, rel=0.15)


# ---------------------------------------------------------------------------
# efficient estimator
# ---------------------------------------------------------------------------

def test_estimate_exact_mean_data_recovers_sigma2():
    # data engineered so every transformed square equals its expectation:
    # both stages return sigma^2 exactly
    spec = sf.fbm_wn_spec(512, 0.5, sigma=1.0)
    system = sf.whitened_system(spec)
    w = system.lam * float(spec.n) ** (-2 * spec.beta)
    ztilde = np.sqrt(spec.sigma ** 2 * w + 1.0)
    kd = system.a_band.shape[0] - 1
    a = sum(np.diag(system.a_band[kd - d, d:], d) for d in range(kd + 1))
    z = a.T @ (system.basis @ ztilde)
    res = sf.estimate(z, spec)
    assert res.preliminary_V == pytest.approx(spec.sigma ** 2, rel=1e-10)
    assert res.sigma2_tilde == pytest.approx(spec.sigma ** 2, rel=1e-10)
    assert res.sigma2_hat == pytest.approx(spec.sigma ** 2, rel=1e-10)
    assert res.plugin_fisher == pytest.approx(sf.fisher_exact(spec), rel=1e-9)


def test_estimate_clamps_low_preliminary():
    spec = sf.fbm_wn_spec(512, 0.5)
    res = sf.estimate(np.zeros(512), spec)
    plan_delta = res.split["delta_n"]
    assert res.preliminary_V < plan_delta
    assert res.sigma2_tilde == plan_delta
    # every whitened square is 0 < 1, so the score is negative at sigma^2 = 0
    # and the likelihood root sits on the boundary of the parameter space
    assert res.sigma2_hat == 0.0


def test_estimate_validation():
    # estimate and oracle_estimate share one check of the data: the oracle
    # returned nan for a NaN entry, and numpy's broadcast ValueError for a
    # wrong length or a column
    spec = sf.fbm_wn_spec(64, 0.5)
    bad = np.zeros(64)
    bad[7] = np.nan
    for est in (sf.estimate, sf.oracle_estimate):
        for z in (np.zeros(63), np.zeros((64, 1)), bad):
            with pytest.raises(sf.DomainError, match="data"):
                est(z, spec)
    with pytest.raises(sf.InsufficientInformation):
        sf.estimate(np.zeros(16), sf.fbm_wn_spec(16, 0.5))


def test_weighted_sum_slices_equal_sorted_index_sums():
    # the split parts are a prefix and its complement, so slices of z2 and w
    # give the sums of the ascending index sets bit for bit
    spec = sf.fbm_wn_spec(128, 0.5)
    system = sf.whitened_system(spec)
    rng = np.random.default_rng(3)
    z2 = rng.chisquare(1, size=128)
    w = information_weights(system.lam, 128, 0.5)

    def sorted_index_sum(idx, u):
        idx = np.sort(idx)
        wb = w[idx]
        denom = (u * wb + 1.0) ** 2
        info = 0.5 * float(np.sum(wb ** 2 / denom))
        return float(np.sum(wb * (z2[idx] - 1.0) / denom)) / (2.0 * info)

    for k in (1, 17, 40, 127):
        assert _weighted_sum(z2[:k], w[:k], 1.0) == sorted_index_sum(
            rng.permutation(np.arange(k)), 1.0)
        assert _weighted_sum(z2[k:], w[k:], 0.9) == sorted_index_sum(
            rng.permutation(np.arange(k, 128)), 0.9)


def test_estimate_deterministic():
    spec = sf.fbm_wn_spec(512, 0.5)
    z = sf.sample_z(spec, seed=11, rep_index=0)
    r1 = sf.estimate(z, spec)
    r2 = sf.estimate(z, spec)
    assert r1.sigma2_hat == r2.sigma2_hat
    assert r1.to_dict() == r2.to_dict()


def test_eigenbasis_built_once_under_racing_readers(monkeypatch):
    # threads that call estimate on the shared cached system race to the
    # first read of its eigenbasis, which the system's lock builds once; each
    # result equals a serial estimate of the same draw.  H = 0.3: a white
    # signal (H = 0.5) is whitened in closed form, with no eigenbasis to build
    spec = sf.fbm_wn_spec(512, 0.3)
    sf.whitened_system.cache_clear()
    sf.whitened_system(spec)
    calls = []
    build = sf.linalg._tridiagonal_eigenvectors
    monkeypatch.setattr(sf.linalg, "_tridiagonal_eigenvectors",
                        lambda *args: calls.append(1) or build(*args))
    draws = [sf.sample_z(spec, seed=3, rep_index=r) for r in range(4)]
    barrier = threading.Barrier(len(draws))
    results = [None] * len(draws)

    def read(i):
        barrier.wait()
        results[i] = sf.estimate(draws[i], spec).to_dict()

    threads = [threading.Thread(target=read, args=(i,)) for i in range(len(draws))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert results == [sf.estimate(z, spec).to_dict() for z in draws]


def test_estimate_result_json():
    spec = sf.fbm_wn_spec(512, 0.5)
    res = sf.estimate(sf.sample_z(spec, seed=5, rep_index=1), spec)
    import json
    parsed = json.loads(res.to_json())
    assert set(parsed) == {"preliminary_V", "sigma2_tilde", "sigma2_two_stage",
                           "sigma2_hat", "plugin_fisher", "split", "lam_max",
                           "lam_min"}
    assert parsed["split"]["split_size"] + parsed["split"]["complement_size"] == 512
