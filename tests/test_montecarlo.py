"""Sampling layer: exact covariance reproduction, counter-based replicate
streams, and study aggregation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import scalefisher as sf
from scalefisher.estimator import _estimate_from_squares
from scalefisher.fisher import information_weights


def empirical_cov(spec, reps, seed):
    s = np.stack([sf.sample_z(spec, seed, r) for r in range(reps)])
    return s.T @ s / reps  # mean is known to be zero


def max_se_violation(emp, target, reps):
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / reps)
    return float(np.max(np.abs(emp - target) / se))


def test_noise_only_covariance():
    # sigma = 0 is allowed in the sampler: y-part must reproduce diff_cov
    spec = replace(sf.fbm_wn_spec(64, 0.7, tau=0.8), sigma=0.0)
    emp = empirical_cov(spec, 10_000, seed=101)
    target = sf.diff_cov(64, spec.K, spec.tau, spec.noise_convention)
    assert max_se_violation(emp, target, 10_000) <= 5.0


def test_full_covariance_small_n():
    spec = sf.fbm_wn_spec(32, 0.6, sigma=1.5, tau=0.9)
    emp = empirical_cov(spec, 100_000, seed=77)
    target = (spec.sigma ** 2 * 32.0 ** (-2 * spec.beta) * spec.cov_x()
              + sf.diff_cov(32, spec.K, spec.tau, spec.noise_convention))
    assert max_se_violation(emp, target, 100_000) <= 5.0


@pytest.mark.parametrize("K", [1, 2])
def test_covariance_other_convention(K):
    # the reversed noise convention at both difference orders of the presets
    base = sf.fbm_wn_spec(48, 0.4, tau=1.1) if K == 1 \
        else sf.integrated_fbm_spec(48, 0.1, tau=1.1)
    spec = replace(base, sigma=0.0, noise_convention="deltaT_delta")
    emp = empirical_cov(spec, 10_000, seed=5)
    target = sf.diff_cov(48, K, 1.1, "deltaT_delta")
    assert max_se_violation(emp, target, 10_000) <= 5.0


def test_integrated_preset_sampling_covariance():
    spec = sf.integrated_fbm_spec(24, 0.1, sigma=2.0, tau=0.5)
    emp = empirical_cov(spec, 40_000, seed=9)
    target = (spec.sigma ** 2 * 24.0 ** (-2 * spec.beta) * spec.cov_x()
              + sf.diff_cov(24, 2, 0.5, spec.noise_convention))
    assert max_se_violation(emp, target, 40_000) <= 5.0


def test_sampler_rejects_nonpositive_tau():
    with pytest.raises(sf.DomainError):
        sf.fbm_wn_spec(16, 0.5, tau=0.0)


def dense_noise_factor(n, K, convention):
    """(D D^t)^(K // 2) D^(K % 2), rows reversed under D^t D: the integer
    factor F with F F^t = (D D^t)^K or (D^t D)^K."""
    d = np.eye(n) - np.eye(n, k=-1)
    f = np.linalg.matrix_power(d @ d.T, K // 2) @ np.linalg.matrix_power(d, K % 2)
    return f[::-1] if convention == "deltaT_delta" else f


@pytest.mark.parametrize("make_spec", [
    lambda: sf.fbm_wn_spec(257, 0.3, sigma=1.4, tau=0.7),
    lambda: replace(sf.fbm_wn_spec(200, 0.6), noise_convention="deltaT_delta"),
    lambda: sf.integrated_fbm_spec(128, 0.1, tau=1.3),
    # at n = 1 Cov(x) is diagonal, but its entry is the integrated kind's
    # nonstationary first-row variance, not gamma_0
    lambda: sf.integrated_fbm_spec(1, 0.1, tau=1.3),
    lambda: sf.user_spec(96, 0.2, 1.1, 0.9, 0, [1.0, 0.3], -0.25,
                         sf.SlowlyVaryingSpec("constant", 0.1)),
], ids=["fbm-wn", "fbm-wn-deltaT_delta", "integrated-fbm", "integrated-fbm-1", "user-K0"])
def test_sample_z_matches_dense_reference(make_spec):
    # sigma n^-beta L xi + tau F xi_noise with dense products, from the
    # same replicate stream: the fast sampler moves draws only by rounding
    spec = make_spec()
    factor = sf.montecarlo._signal_chol(spec)
    assert factor.flags.f_contiguous and not factor.flags.writeable
    rng = sf.montecarlo._rep_rng(31, 4)
    xi, xi_noise = rng.standard_normal(spec.n), rng.standard_normal(spec.n)
    y = spec.tau * dense_noise_factor(spec.n, spec.K, spec.noise_convention) @ xi_noise
    expect = spec.sigma * float(spec.n) ** (-spec.beta) * (factor @ xi) + y
    got = sf.sample_z(spec, 31, 4)
    assert np.abs(got - expect).max() <= 1e-11 * np.abs(got).max()


def dense_factor_panel(spec, seed, reps):
    """The panel of ``_sample_each`` through the dense factor, for any
    Cov(x): dpotrf of Cov(x), then one dtrmm with the panel of the same
    Philox draws."""
    from scipy.linalg.blas import dtrmm
    from scipy.linalg.lapack import dpotrf
    factor, info = dpotrf(spec.cov_x(), lower=1, clean=1)
    assert info == 0
    xi = np.zeros((spec.n, sf.linalg.PANEL), order="F")
    xi_noise = np.empty((len(reps), spec.n))
    for j, rep in enumerate(reps):
        rng = sf.montecarlo._rep_rng(seed, rep)
        xi[:, j] = rng.standard_normal(spec.n)
        xi_noise[j] = rng.standard_normal(spec.n)
    y = sf.linalg._difference_noise(xi_noise, spec.K, spec.noise_convention)
    z = spec.sigma * float(spec.n) ** (-spec.beta) * dtrmm(1.0, factor, xi, lower=1)
    z[:, :len(reps)] += spec.tau * y.T
    return z


@pytest.mark.parametrize("make_spec", [
    *(lambda n=n: sf.fbm_wn_spec(n, 0.5) for n in (1, 2, 64, 513)),
    lambda: sf.fbm_wn_spec(64, 0.5, sigma=1.7, tau=0.3),
    lambda: replace(sf.fbm_wn_spec(64, 0.5, sigma=1.7, tau=0.3), noise_convention="deltaT_delta"),
    lambda: sf.user_spec(64, 0.2, 1.0, 1.0, 2, [2.0], 0.1, sf.SlowlyVaryingSpec("constant", 0.0)),
], ids=["fbm-wn-1", "fbm-wn-2", "fbm-wn-64", "fbm-wn-513", "fbm-wn-scaled",
        "fbm-wn-scaled-deltaT_delta", "user-K2-gamma0-2"])
def test_white_signal_has_the_bits_of_its_cholesky_factor(make_spec):
    # a diagonal Cov(x) = gamma_0 I is drawn as sqrt(gamma_0) xi, which is
    # what dtrmm with its Cholesky factor sqrt(gamma_0) I computes: the
    # scaled panel must keep those bits, with 1 and with PANEL live columns
    spec = make_spec()
    factor = sf.montecarlo._signal_chol(spec)
    assert isinstance(factor, float) and factor == np.sqrt(spec.gamma(0))
    for live in (1, sf.linalg.PANEL):
        reps = range(3, 3 + live)
        assert np.array_equal(sf.montecarlo._sample_each(spec, 5, reps),
                              dense_factor_panel(spec, 5, reps)), live
    assert np.array_equal(sf.sample_z(spec, 5, 3), dense_factor_panel(spec, 5, range(3, 4))[:, 0])


def test_white_sampler_builds_no_dense_factor(monkeypatch):
    # a white signal needs no n x n covariance, Cholesky factor or trmm
    calls = []
    cov_x, wrappers = sf.ModelSpec.cov_x, sf.montecarlo._scipy_wrappers

    class Counting:
        def __init__(self, module):
            self.module = module

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self.module, name)

    monkeypatch.setattr(sf.ModelSpec, "cov_x",
                        lambda spec: (calls.append("cov_x"), cov_x(spec))[1])
    monkeypatch.setattr(sf.montecarlo, "_scipy_wrappers", lambda name: Counting(wrappers(name)))
    sf.montecarlo._signal_chol.cache_clear()
    sf.sample_z(sf.fbm_wn_spec(2048, 0.5), 1)
    sf.sample_z(sf.fbm_wn_spec(2048, 0.5), 2)
    assert calls == []
    # the control: a correlated signal takes the dense factor once per spec
    # and one trmm per draw
    sf.sample_z(sf.fbm_wn_spec(64, 0.3), 1)
    sf.sample_z(sf.fbm_wn_spec(64, 0.3), 2)
    assert sorted(calls) == ["cov_x", "dpotrf", "dtrmm", "dtrmm"]


@pytest.mark.parametrize("make_spec", [
    *(lambda n=n: sf.fbm_wn_spec(n, 0.3) for n in (1, 2, 64, 257)),
    lambda: sf.integrated_fbm_spec(64, 0.1),
    lambda: sf.user_spec(96, 0.2, 1.1, 0.9, 0, [1.0, 0.3], -0.25,
                         sf.SlowlyVaryingSpec("constant", 0.1)),
], ids=["fbm-wn-1", "fbm-wn-2", "fbm-wn-64", "fbm-wn-257", "integrated-fbm", "user-K0"])
def test_signal_factor_has_the_bits_of_potrf_on_a_copy(make_spec):
    # potrf factorises the fresh Cov(x) in its own buffer, through its
    # transpose: Cov(x) is exactly symmetric, so the factor must keep the
    # bits of potrf on a separate copy.  At n = 1 the fbm-wn signal is
    # white, and its scalar is that potrf's one entry
    from scipy.linalg.lapack import dpotrf
    spec = make_spec()
    cov_x = spec.cov_x()
    assert np.array_equal(cov_x, cov_x.T)
    expect, info = dpotrf(cov_x.copy(), lower=1, clean=1)
    assert info == 0
    sf.montecarlo._signal_chol.cache_clear()
    factor = sf.montecarlo._signal_chol(spec)
    assert np.array_equal(np.reshape(factor, expect.shape), expect)


def test_signal_factor_peak_memory():
    # potrf overwrites Cov(x), so the peak is about one n x n array (1.13
    # at n = 1024, with the autocovariances Cov(x) is built from), not two
    spec = sf.fbm_wn_spec(1024, 0.3)
    sf.montecarlo._signal_chol(sf.fbm_wn_spec(8, 0.3))     # imports are not counted
    sf.montecarlo._signal_chol.cache_clear()
    tracemalloc.start()
    try:
        sf.montecarlo._signal_chol(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * spec.n ** 2


@pytest.mark.parametrize("gamma0", [0.0, -1.0])
def test_white_signal_needs_positive_variance(gamma0):
    # Cov(x) = gamma_0 I with gamma_0 <= 0 has no factor, as dpotrf says of it
    spec = sf.user_spec(16, beta=0.2, sigma=1.0, tau=1.0, K=0, gamma_values=[gamma0],
                        alpha=-0.1, ell=sf.SlowlyVaryingSpec("constant", 0.0))
    with pytest.raises(sf.NotPositiveDefiniteError, match="signal covariance"):
        sf.sample_z(spec, 0)


@pytest.mark.parametrize("convention", ["delta_deltaT", "deltaT_delta"])
@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_noise_factor_is_exact(K, convention):
    # the running differences apply an integer F with F F^t = diff_cov to
    # the last bit, and each row of a batch keeps the bits of its own call
    for n in (1, 2, 3, 9, 64):
        f = sf.linalg._difference_noise(np.eye(n), K, convention).T
        assert np.array_equal(f, dense_noise_factor(n, K, convention)), n
        assert np.array_equal(f @ f.T, sf.diff_cov(n, K, 1.0, convention)), n
    rows = np.random.default_rng(K).standard_normal((sf.linalg.PANEL, 64))
    batched = sf.linalg._difference_noise(rows, K, convention)
    for p in range(len(rows)):
        assert np.array_equal(batched[p], sf.linalg._difference_noise(rows[p], K, convention)), p


def test_counter_based_streams():
    spec = sf.fbm_wn_spec(128, 0.5)
    a = sf.sample_z(spec, seed=42, rep_index=3)
    b = sf.sample_z(spec, seed=42, rep_index=3)
    assert np.array_equal(a, b)
    c = sf.sample_z(spec, seed=42, rep_index=4)
    assert not np.array_equal(a, c)
    d = sf.sample_z(spec, seed=43, rep_index=3)
    assert not np.array_equal(a, d)


def test_sample_z_rejects_negative_rep_index():
    # the Philox key is unsigned: numpy raised a bare OverflowError; a float
    # raised a bare TypeError from range, and True was taken as replicate 1
    spec = sf.fbm_wn_spec(64, 0.5)
    for rep_index in (-1, 2 ** 64, 1.5, True):
        with pytest.raises(sf.DomainError, match="rep_index"):
            sf.sample_z(spec, 3, rep_index)
    assert np.array_equal(sf.sample_z(spec, 3, np.uint64(2)), sf.sample_z(spec, 3, 2))


def test_seed_is_an_integer_of_any_kind(monkeypatch):
    # numpy integers raised OverflowError in the Philox key, and a float or
    # None a bare TypeError, in run_study only after the whitening
    spec = sf.fbm_wn_spec(64, 0.5)
    z = sf.sample_z(spec, 3)
    for seed in (np.int64(3), np.int32(3), np.uint64(3)):
        assert np.array_equal(sf.sample_z(spec, seed), z), type(seed)
    # a negative seed is taken modulo 2^64
    assert np.array_equal(sf.sample_z(spec, -1), sf.sample_z(spec, 2 ** 64 - 1))
    monkeypatch.setattr(sf.montecarlo, "whitened_system",
                        lambda spec: pytest.fail("whitened before the check"))
    for seed in (1.5, None, True, "3"):
        with pytest.raises(sf.DomainError, match="seed"):
            sf.sample_z(spec, seed)
        with pytest.raises(sf.DomainError, match="seed"):
            sf.run_study(spec, 4, seed)


def test_run_study_deterministic():
    # workers=1 is the one count run_study accepts, as a numpy integer too
    spec = sf.fbm_wn_spec(512, 0.5)
    s1 = sf.run_study(spec, reps=20, seed=7)
    s2 = sf.run_study(spec, reps=20, seed=7, workers=np.int64(1))
    assert np.array_equal(s1.values, s2.values)
    assert s1.mse == s2.mse and s1.normalized == s2.normalized


def test_run_study_replicates_match_standalone_sampler():
    spec = sf.fbm_wn_spec(512, 0.5)
    study = sf.run_study(spec, reps=5, seed=99)
    z2 = sf.sample_z(spec, 99, 2)
    standalone = sf.estimate(z2, spec)
    assert study.estimates[2].sigma2_hat == standalone.sigma2_hat


USER_K0 = sf.user_spec(96, 0.2, 1.1, 0.9, 0, [1.0, 0.3], -0.25,
                       sf.SlowlyVaryingSpec("constant", 0.1))
WHITE_K0 = sf.user_spec(96, 0.05, 1.1, 1.0, 0, [1.0], -0.25, sf.SlowlyVaryingSpec("constant", 0.0))


@pytest.mark.parametrize("make_spec", [
    lambda: sf.fbm_wn_spec(257, 0.3),
    lambda: replace(sf.fbm_wn_spec(257, 0.3), noise_convention="deltaT_delta"),
    lambda: sf.integrated_fbm_spec(129, 0.1),
    lambda: sf.integrated_fbm_spec(129, 0.1, tau=0.05),
    lambda: USER_K0,
    lambda: sf.fbm_wn_spec(257, 0.5),
    lambda: WHITE_K0,
], ids=["fbm-wn", "fbm-wn-deltaT_delta", "integrated-fbm", "integrated-fbm-low-noise",
        "user-K0", "white-fbm-wn", "white-K0"])
@pytest.mark.parametrize("workers", [1])
def test_staged_study_equals_one_replicate_calls(make_spec, workers):
    # run_study works through panels of replicates stage by stage, in one
    # thread; every replicate must still equal the standalone sampler and
    # estimators, bit for bit, across panel boundaries and a ragged last
    # panel, with the worker count given as the one it accepts
    spec = make_spec()
    reps, seed = 4 * sf.linalg.PANEL + 5, 11
    system = sf.whitened_system(spec)
    draws = [sf.sample_z(spec, seed, r) for r in range(reps)]
    oracle = sf.run_study(spec, reps, seed, estimator="oracle", workers=workers)
    assert [e.sigma2_hat for e in oracle.estimates] == \
        [sf.oracle_estimate(z, spec) for z in draws]
    try:
        sf.make_split(system.lam, spec.n, spec.beta)
    except sf.InsufficientInformation:
        # too little information to split: both paths refuse alike
        with pytest.raises(sf.InsufficientInformation):
            sf.estimate(draws[0], spec)
        with pytest.raises(sf.InsufficientInformation):
            sf.run_study(spec, reps, seed, workers=workers)
        return
    study = sf.run_study(spec, reps, seed, workers=workers)
    assert [e.to_dict() for e in study.estimates] == \
        [sf.estimate(z, spec).to_dict() for z in draws]


@pytest.mark.parametrize("n", [512, 2048])
def test_white_study_matches_dense_whitening(n):
    # each estimate of a study whitened in closed form (the FFT data map of
    # the cosine basis) against the same draw whitened densely by whiten()
    spec = sf.fbm_wn_spec(n, 0.5)
    reps, seed = 64, 29
    sf.whitened_system.cache_clear()
    study = sf.run_study(spec, reps, seed)
    assert isinstance(sf.whitened_system(spec), sf.linalg._CosineSystem)
    dense = sf.whiten(spec.cov_x(), sf.diff_cov(n, spec.K, spec.tau, spec.noise_convention))
    w = information_weights(dense.lam, n, spec.beta)
    split = sf.make_split(dense.lam, n, spec.beta)
    assert split.k == study.estimates[0].split["split_size"]
    z2 = dense.transform(np.column_stack([sf.sample_z(spec, seed, r) for r in range(reps)])) ** 2
    want = [_estimate_from_squares(z2[:, r], w, split, dense, spec).sigma2_hat
            for r in range(reps)]
    assert min(want) > 0
    np.testing.assert_allclose(study.values, want, rtol=1e-10, atol=0)


def exact_law_study(spec, reps, seed):
    """I * MSE of ``estimate``, and its SE, under the exact law of the squared
    whitened data: independent (sigma^2 w_i + 1) chi^2_1 coordinates with
    w = information_weights(lam), drawn from lam alone without sampling z."""
    system = sf.whitened_system(spec)
    w = information_weights(system.lam, spec.n, spec.beta)
    split = sf.make_split(system.lam, spec.n, spec.beta)
    u = spec.sigma ** 2
    rng = np.random.default_rng(seed)
    err2 = np.empty(reps)
    for r in range(reps):
        z2 = (u * w + 1.0) * rng.standard_normal(spec.n) ** 2
        err2[r] = (_estimate_from_squares(z2, w, split, system, spec).sigma2_hat - u) ** 2
    info = sf.fisher_exact(spec)
    return info * float(np.mean(err2)), info * float(np.std(err2, ddof=1)) / np.sqrt(reps)


@pytest.mark.parametrize("n", [512, 2048])
def test_study_agrees_with_exact_law(n, capsys):
    # whitening is exact, so the sampler and the transform add nothing to the
    # law of the estimate: criterion 7's study (500 reps, seed 777) must agree
    # with the exact law within the combined standard error
    spec = sf.fbm_wn_spec(n, 0.5)
    study = sf.run_study(spec, reps=500, seed=777)
    law, law_se = exact_law_study(spec, reps=5000, seed=1)
    z = (study.normalized - law) / np.hypot(study.normalized_se, law_se)
    with capsys.disabled():
        print(f"\nfbm-wn H=0.5 n={n}: run_study I*MSE {study.normalized:.3f} "
              f"± {study.normalized_se:.3f}, exact law {law:.3f} ± {law_se:.3f}, "
              f"z = {z:+.2f}")
    assert abs(z) <= 4


@pytest.mark.parametrize("sigma", [0.3, 2.0])
def test_estimate_efficiency_away_from_unit_scale(sigma, capsys):
    # the pilot and the information weights depend on sigma, so efficiency
    # at sigma = 1 alone says nothing of it elsewhere; a plug-in held near
    # sigma^2 = 1 reads about 3.1 at sigma = 0.3
    spec = sf.fbm_wn_spec(512, 0.5, sigma=sigma)
    law, law_se = exact_law_study(spec, reps=2000, seed=1)
    with capsys.disabled():
        print(f"\nfbm-wn H=0.5 n=512 sigma={sigma}: exact-law I*MSE {law:.3f} ± {law_se:.3f}")
    assert law <= 1.6


def test_normalized_se_definition():
    spec = sf.fbm_wn_spec(512, 0.5, sigma=1.3)
    study = sf.run_study(spec, reps=25, seed=1)
    err2 = [(e.sigma2_hat - 1.3 ** 2) ** 2 for e in study.estimates]
    mean = sum(err2) / 25
    sd = (sum((v - mean) ** 2 for v in err2) / 24) ** 0.5
    assert study.normalized_se == pytest.approx(study.fisher_exact * sd / 5.0, rel=1e-12)


def test_oracle_study_efficiency():
    spec = sf.fbm_wn_spec(512, 0.5)
    study = sf.run_study(spec, reps=2000, seed=2025, estimator="oracle")
    assert 0.85 <= study.normalized <= 1.15


def test_study_mse_definition():
    spec = sf.fbm_wn_spec(512, 0.5, sigma=1.3)
    study = sf.run_study(spec, reps=25, seed=1)
    manual = float(np.mean((study.values - 1.3 ** 2) ** 2))
    assert study.mse == pytest.approx(manual, rel=1e-15)
    assert study.normalized == pytest.approx(study.fisher_exact * manual, rel=1e-15)
    assert study.normalized > 0


def test_run_study_validation():
    spec = sf.fbm_wn_spec(64, 0.5)
    with pytest.raises(sf.DomainError):
        sf.run_study(spec, reps=1, seed=0)
    with pytest.raises(sf.DomainError):
        sf.run_study(spec, reps=10, seed=0, estimator="wrong")
    # a fractional count passed the check and failed later, in range() or
    # in the split
    with pytest.raises(sf.DomainError, match="reps"):
        sf.run_study(spec, reps=2.5, seed=0)


@pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True,
                                     pytest.param(2, id="int-2"),
                                     pytest.param(3, id="int-3")])
def test_run_study_rejects_bad_worker_count(monkeypatch, workers):
    # studies run in one thread, so 1 is the only worker count; True, which
    # equals 1 in Python, is no count.  The check comes before the whitening
    monkeypatch.setattr(sf.montecarlo, "whitened_system",
                        lambda spec: pytest.fail("whitened before the check"))
    with pytest.raises(sf.DomainError, match="workers"):
        sf.run_study(sf.fbm_wn_spec(64, 0.5), reps=4, seed=0, estimator="oracle",
                     workers=workers)


def test_indefinite_signal_covariance_is_rejected():
    # gamma = (1, 2) is no autocovariance: Cov(x) has eigenvalue -2.28, so
    # the signal factor does not exist
    spec = sf.user_spec(16, beta=0.2, sigma=1.0, tau=1.0, K=0, gamma_values=[1, 2],
                        alpha=-0.1, ell=sf.SlowlyVaryingSpec("constant"))
    with pytest.raises(sf.NotPositiveDefiniteError, match="signal covariance"):
        sf.sample_z(spec, 0)


def test_study_json():
    import json
    spec = sf.fbm_wn_spec(512, 0.5)
    study = sf.run_study(spec, reps=10, seed=4)
    parsed = json.loads(study.to_json())
    assert parsed["reps"] == 10 and parsed["estimator"] == "efficient"
    assert parsed["normalized"] == pytest.approx(study.normalized)
    # the standard error of I * MSE follows it, as its own float
    assert list(parsed)[list(parsed).index("normalized") + 1] == "normalized_se"
    assert parsed["normalized_se"] == study.normalized_se
    # numpy integer counts are valid, and are written as JSON numbers
    spec = sf.fbm_wn_spec(64, 0.5, tau=0.25)
    assert sf.run_study(spec, np.int64(4), np.int64(3)).to_json() == \
        sf.run_study(spec, 4, 3).to_json()
