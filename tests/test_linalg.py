"""Structured-matrix layer: difference covariances, the cosine eigenbasis,
and the whitening transform."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular, toeplitz

import scalefisher as sf
from scalefisher.fisher import information_sum
from scalefisher.model import integrated_fbm_boundary_cov, noise_symbol


def dense_diff_cov(n, K, tau, convention):
    d = np.eye(n) - np.eye(n, k=-1)
    base = d @ d.T if convention == "delta_deltaT" else d.T @ d
    return tau ** 2 * np.linalg.matrix_power(base, K) if K else tau ** 2 * np.eye(n)


def dense_factor(system):
    """The dense upper-triangular noise factor A, from its band storage."""
    kd = system.a_band.shape[0] - 1
    return sum(np.diag(system.a_band[kd - d, d:], d) for d in range(kd + 1))


# ---------------------------------------------------------------------------
# Toeplitz signal covariance
# ---------------------------------------------------------------------------

def test_toeplitz_fgn_corner_entry():
    t = sf.fbm_wn_spec(3, 0.75).cov_x()
    expect = 0.5 * (3 ** 1.5 - 2 * 2 ** 1.5 + 1)  # fBM-increment oracle at lag 2
    assert t[0, 2] == pytest.approx(expect, abs=1e-14)
    assert t[2, 0] == t[0, 2]


@pytest.mark.parametrize("spec", [sf.fbm_wn_spec(1, 0.3), sf.fbm_wn_spec(2, 0.3),
                                  sf.fbm_wn_spec(257, 0.7), sf.integrated_fbm_spec(64, 0.1)],
                         ids=["fgn-1", "fgn-2", "fgn-257", "integrated-64"])
def test_cov_x_equals_scipy_toeplitz(spec):
    # the strided copy over the mirrored lags is the matrix toeplitz builds;
    # the integrated preset replaces its first row and column by the boundary
    expect = toeplitz(spec.gamma_array(spec.n - 1))
    if spec.x_cov.kind == "integrated_fbm_increment":
        boundary = integrated_fbm_boundary_cov(spec.x_cov.hurst, spec.n)
        expect[0, :] = boundary
        expect[:, 0] = boundary
    cov = spec.cov_x()
    assert np.array_equal(cov, expect)
    assert cov.flags.c_contiguous and cov.flags.writeable


# ---------------------------------------------------------------------------
# difference covariances
# ---------------------------------------------------------------------------

def test_diff_cov_k0():
    assert np.array_equal(sf.diff_cov(4, 0, 2.0), 4.0 * np.eye(4))


def test_diff_cov_k1_conventions():
    got = sf.diff_cov(3, 1, 1.0, "deltaT_delta")
    expect = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(got, expect)
    got = sf.diff_cov(3, 1, 1.0, "delta_deltaT")
    expect = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.array_equal(got, expect)


def test_diff_cov_matches_dense_product():
    for K in (1, 2, 3):
        for conv in ("delta_deltaT", "deltaT_delta"):
            assert np.allclose(sf.diff_cov(6, K, 1.3, conv),
                               dense_diff_cov(6, K, 1.3, conv), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 11, 12, 64, 513])
def test_diff_cov_band_equals_integer_power(n):
    # the banded build against the dense power it replaced (float64 BLAS on
    # integer entries, so exact), entry for entry; below 4K + 2 points the
    # corners overlap and the power is dense
    for K in range(5):
        for conv in ("delta_deltaT", "deltaT_delta"):
            d = np.eye(n) - np.eye(n, k=-1)
            base = d @ d.T if conv == "delta_deltaT" else d.T @ d
            power = np.linalg.matrix_power(base, K)
            assert np.array_equal(sf.diff_cov(n, K, 1.0, conv), power)
            assert np.array_equal(sf.diff_cov(n, K, 1.3, conv), 1.3 ** 2 * power)


def test_reversal_identity_exact():
    # reversing row/column order swaps the two conventions, with integer entries
    for K in (1, 2):
        a = sf.diff_cov(7, K, 1.0, "delta_deltaT")
        b = sf.diff_cov(7, K, 1.0, "deltaT_delta")
        assert np.array_equal(a[::-1, ::-1], b)


# ---------------------------------------------------------------------------
# cosine basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 7, 64, 257])
def test_dct_orthonormal_and_symmetric(n):
    c = sf.dct_basis(n)
    assert np.abs(c @ c.T - np.eye(n)).max() <= 1e-12
    assert np.abs(c - c.T).max() <= 1e-12


def test_dct_single_point():
    eig = noise_symbol(sf.dct_nodes(1), 1, 1.0)
    assert eig[0] == pytest.approx(4 * np.sin(np.pi / 6) ** 2, abs=1e-15)
    assert eig[0] == pytest.approx(1.0, abs=1e-15)  # the 1x1 matrix D^t D = [1]


def test_dct_k0_flat():
    eig = noise_symbol(sf.dct_nodes(5), 0, 1.7)
    assert np.allclose(eig, 1.7 ** 2)


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("conv", ["delta_deltaT", "deltaT_delta"])
def test_dct_eigenvalues_match_dense(K, conv):
    n = 64
    # the cosine basis C diagonalizes D D^t; the row-reversed basis D^t D
    eig = noise_symbol(sf.dct_nodes(n), K, 1.0)
    basis = sf.dct_basis(n) if conv == "delta_deltaT" else sf.dct_basis(n)[::-1]
    dense = np.linalg.eigvalsh(sf.diff_cov(n, K, 1.0, conv))
    assert np.allclose(np.sort(eig), dense, rtol=1e-8)
    # and the basis actually reconstructs the covariance
    rec = (basis * eig[None, :]) @ basis.T
    assert np.abs(rec - sf.diff_cov(n, K, 1.0, conv)).max() <= 1e-10


def test_dn_noise_symbol_reproduces_diff_cov():
    # D_n(g) = C diag(g(u_1) .. g(u_n)) C with the noise symbol for g is the
    # D D^t product: the half-shift cosine basis diagonalizes it exactly
    n = 24
    c = sf.dct_basis(n)
    got = (c * noise_symbol(sf.dct_nodes(n), 1, 1.0)[None, :]) @ c
    assert np.abs(got - sf.diff_cov(n, 1, 1.0, "delta_deltaT")).max() <= 1e-10


# ---------------------------------------------------------------------------
# whitening
# ---------------------------------------------------------------------------

def test_whiten_identity_case():
    n, tau = 12, 1.7
    sys = sf.whiten(np.eye(n), tau ** 2 * np.eye(n))
    assert np.allclose(sys.lam, 1.0 / tau ** 2, rtol=1e-12)


def test_whiten_reconstruction():
    rng = np.random.default_rng(7)
    n = 40
    m = rng.standard_normal((n, n))
    cov_x = m @ m.T / n
    cov_y = sf.diff_cov(n, 1, 0.8)
    sys = sf.whiten(cov_x, cov_y)
    lhs = (sys.basis * sys.lam[None, :]) @ sys.basis.T
    a_inv_t = np.linalg.inv(dense_factor(sys)).T
    rhs = a_inv_t @ cov_x @ a_inv_t.T
    assert np.abs(lhs - rhs).max() <= 1e-9
    assert np.all(np.diff(sys.lam) <= 1e-12)  # descending


def test_whiten_joint_scale_invariance():
    spec = sf.fbm_wn_spec(48, 0.7)
    cov_x = spec.cov_x()
    cov_y = sf.diff_cov(48, 1, 1.0)
    lam1 = sf.whiten(cov_x, cov_y).lam
    c = 7.3
    lam2 = sf.whiten(c * cov_x, c * cov_y).lam
    assert np.allclose(lam1, lam2, rtol=1e-9)


def test_whiten_tau_scaling():
    spec = sf.fbm_wn_spec(48, 0.3)
    cov_x = spec.cov_x()
    m = sf.diff_cov(48, 1, 1.0)
    lam1 = sf.whiten(cov_x, m).lam
    tau2 = 2.6
    lam2 = sf.whiten(cov_x, tau2 * m).lam
    assert np.allclose(lam2, lam1 / tau2, rtol=1e-9)


def test_whiten_transform_diagonalizes_cov_z():
    # Cov of the transformed data is diag(sigma^2 n^(-2 beta) lam_i + 1)
    spec = sf.fbm_wn_spec(128, 0.6, sigma=1.3, tau=0.7)
    sys = sf.whitened_system(spec)
    cov_z = (spec.sigma ** 2 * float(spec.n) ** (-2 * spec.beta) * spec.cov_x()
             + sf.diff_cov(spec.n, spec.K, spec.tau, spec.noise_convention))
    transform = np.column_stack([sys.transform(col) for col in np.eye(spec.n)])
    got = transform @ cov_z @ transform.T
    expect = np.diag(spec.sigma ** 2 * float(spec.n) ** (-2 * spec.beta) * sys.lam + 1.0)
    assert np.abs(got - expect).max() <= 1e-9


@pytest.mark.parametrize("K", [0, 1, 2])
@pytest.mark.parametrize("conv", ["delta_deltaT", "deltaT_delta"])
def test_noise_factor_band(K, conv):
    # the Cholesky factor of the banded noise covariance is exactly zero
    # beyond its band, so the band alone carries it and the banded solve
    # matches the dense triangular one
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 64, 257):
        cov_y = sf.diff_cov(n, K, 0.9, conv)
        dense = cholesky(cov_y, lower=False)
        kd = min(K, n - 1)
        assert np.all(np.triu(dense, kd + 1) == 0.0)
        system = sf.whiten(toeplitz(sf.gamma_fgn(0.3, np.arange(n))), cov_y)
        assert system.a_band.shape == (kd + 1, n)
        assert np.array_equal(dense_factor(system), dense)
        for z in (rng.standard_normal(n), rng.standard_normal((n, n))):
            expect = system.basis.T @ solve_triangular(dense, z, trans="T", lower=False)
            got = system.transform(z)
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
@pytest.mark.parametrize("K", [0, 1, 2])
@pytest.mark.parametrize("conv", ["delta_deltaT", "deltaT_delta"])
def test_whiten_banded_build_matches_dense_solves(n, K, conv):
    # M = A^-t Cov(x) A^-1 comes from two banded solves; the two dense
    # triangular solves give the same matrix, and the input is left as it was
    cov_x = toeplitz(sf.gamma_fgn(0.3, np.arange(n)))
    cov_x.flags.writeable = False
    before = cov_x.copy()
    cov_y = sf.diff_cov(n, K, 0.9, conv)
    system = sf.whiten(cov_x, cov_y)
    a = cholesky(cov_y, lower=False)
    s1 = solve_triangular(a, cov_x, trans="T", lower=False)
    expect = solve_triangular(a, s1.T, trans="T", lower=False).T
    got = (system.basis * system.lam[None, :]) @ system.basis.T
    assert np.abs(got - expect).max() <= 1e-12 * system.lam[0]
    assert np.array_equal(cov_x, before)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
@pytest.mark.parametrize("K", [0, 1])
@pytest.mark.parametrize("signal", ["toeplitz", "product"])
def test_closed_form_factor_is_bit_identical_to_cholesky(n, K, signal, monkeypatch):
    # for Cov(y) = I or D D^t the noise factor is I or D^t in closed form
    # and M is a pair of running sums; the dense Cholesky factor and its two
    # banded solves give the same bits, also for a signal covariance that
    # is symmetric only up to rounding (a BLAS product)
    if signal == "toeplitz":
        cov_x = toeplitz(sf.gamma_fgn(0.3, np.arange(n)))
    else:
        g = np.random.default_rng(n).standard_normal((n, n))
        cov_x = g @ g.T / n
    cov_x.flags.writeable = False
    before = cov_x.copy()
    cov_y = sf.diff_cov(n, K, 1.0)
    assert sf.linalg._unit_difference_width(cov_y) == min(K, n - 1)
    closed = sf.whiten(cov_x, cov_y)
    monkeypatch.setattr(sf.linalg, "_unit_difference_width", lambda cov_y: None)
    dense = sf.whiten(cov_x, cov_y)
    for name in ("lam", "a_band", "basis"):
        assert np.array_equal(getattr(closed, name), getattr(dense, name)), name
        assert not getattr(closed, name).flags.writeable, name
    z = np.random.default_rng(n + 1).standard_normal((n, n))
    assert np.array_equal(closed.transform(z), dense.transform(z))
    assert np.array_equal(cov_x, before)


USER_K0 = sf.user_spec(64, beta=0.25, sigma=1.0, tau=1.0, K=0, gamma_values=(2.0, 1.0, 0.7),
                       alpha=-0.2, ell=sf.SlowlyVaryingSpec("constant", 0.5))


def white_spec(n, K, gamma0=1.3):
    """Cov(x) = gamma0 I: a user sequence with no lags beyond gamma_0."""
    return sf.user_spec(n, beta=0.05, sigma=1.0, tau=1.0, K=K, gamma_values=[gamma0],
                        alpha=-0.1, ell=sf.SlowlyVaryingSpec("constant", 0.0))


@pytest.mark.parametrize("spec, route", [
    (sf.fbm_wn_spec(64, 0.3), "_running_sum_reduction"),
    (USER_K0, "_running_sum_reduction"),
    (sf.integrated_fbm_spec(64, 0.1), "_cholesky_reduction"),
    (replace(sf.fbm_wn_spec(64, 0.3), noise_convention="deltaT_delta"), "_cholesky_reduction"),
    (sf.fbm_wn_spec(64, 0.3, tau=0.9), "_cholesky_reduction"),
    (replace(USER_K0, tau=0.9), "_cholesky_reduction"),
    (sf.fbm_wn_spec(64, 0.5), "cosine"),
    (white_spec(64, 0), "cosine"),
    (sf.fbm_wn_spec(1, 0.3), "cosine"),
    (replace(sf.fbm_wn_spec(64, 0.5), noise_convention="deltaT_delta"), "_cholesky_reduction"),
    (sf.fbm_wn_spec(64, 0.5, tau=0.9), "_cholesky_reduction"),
    (white_spec(64, 2), "_cholesky_reduction"),
], ids=["fbm-wn", "user-K0", "integrated-fbm", "fbm-wn-DtD", "fbm-wn-tau", "user-K0-tau",
        "white-fbm-wn", "white-K0", "fbm-wn-1", "white-fbm-wn-DtD", "white-fbm-wn-tau",
        "white-K2"])
def test_whitened_system_takes_closed_form_factor_for_unit_noise(spec, route, monkeypatch):
    # K = 0, and K = 1 under D D^t, at tau = 1 skip the Cholesky; scaled
    # noise, D^t D and K = 2 keep it, since their rounded factor is not the
    # closed form to the bit.  A white signal (H = 1/2, or n = 1) under the
    # unit noise skips the whole dense reduction: the cosine basis
    # diagonalises its pencil; under any other noise it keeps its route
    routes = []
    for name in ("_running_sum_reduction", "_cholesky_reduction"):
        build = getattr(sf.linalg, name)
        monkeypatch.setattr(sf.linalg, name,
                            lambda *args, build=build, name=name: routes.append(name) or build(*args))
    sf.whitened_system.cache_clear()
    system = sf.whitened_system(spec)
    cosine = isinstance(system, sf.linalg._CosineSystem)
    assert (["cosine"] if cosine else routes) == [route]
    assert not (cosine and routes)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 257, 2048])
@pytest.mark.parametrize("K", [0, 1])
def test_cosine_system_matches_dense_whitening(n, K):
    # the closed-form system of a white signal against whiten() on the
    # dense Cov(x) = gamma_0 I and Cov(y) = I or D D^t
    spec = sf.fbm_wn_spec(n, 0.5) if K else white_spec(n, 0)
    sf.whitened_system.cache_clear()
    system = sf.whitened_system(spec)
    assert isinstance(system, sf.linalg._CosineSystem)
    cov_x = spec.cov_x()
    cov_y = sf.diff_cov(n, spec.K, spec.tau, spec.noise_convention)
    dense = sf.whiten(cov_x, cov_y)
    assert np.array_equal(system.a_band, dense.a_band)
    assert np.abs(system.lam - dense.lam).max() <= 1e-14 * dense.lam[0]
    assert np.all(np.diff(system.lam) <= 0)
    want = information_sum(spec.sigma ** 2, dense.lam, n, spec.beta)
    assert abs(sf.fisher_exact(spec) / want - 1.0) <= 1e-13
    basis = system.basis
    assert not basis.flags.writeable and basis is system.basis
    assert np.abs(basis.T @ basis - np.eye(n)).max() <= 1e-13
    # the basis diagonalises M = A^-t Cov(x) A^-1, from the dense solves
    a = dense_factor(system)
    m = solve_triangular(a, solve_triangular(a, cov_x, trans="T").T, trans="T").T
    assert np.abs((basis * system.lam) @ basis.T - m).max() <= 1e-12 * system.lam[0]
    rng = np.random.default_rng(n)
    for z in (rng.standard_normal(n), rng.standard_normal((n, 11))):
        expect = basis.T @ solve_triangular(a, z, trans="T")
        got = system.transform(z)
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("gamma0", [0.0, -1.0])
def test_degenerate_white_signal_meets_the_dense_verdict(gamma0):
    # Cov(x) = 0 has lam = 0, as whiten() finds it; Cov(x) = -I is refused alike
    spec = white_spec(16, 1, gamma0=gamma0)
    cov_x, cov_y = spec.cov_x(), sf.diff_cov(16, 1, 1.0)
    sf.whitened_system.cache_clear()
    if gamma0 == 0.0:
        assert np.array_equal(sf.whitened_system(spec).lam, sf.whiten(cov_x, cov_y).lam)
        return
    with pytest.raises(sf.NotPositiveDefiniteError, match="negative definite"):
        sf.whiten(cov_x, cov_y)
    with pytest.raises(sf.NotPositiveDefiniteError, match="negative definite"):
        sf.whitened_system(spec)


@pytest.mark.parametrize("spec, arrays", [(sf.fbm_wn_spec(1024, 0.3), 3.1),
                                          (sf.integrated_fbm_spec(1024, 0.1), 4.1),
                                          (sf.fbm_wn_spec(1024, 0.5), 1.1)],
                         ids=["fbm-wn", "integrated-fbm", "white-fbm-wn"])
def test_whitening_peak_memory(spec, arrays):
    # counting Cov(x) and Cov(y), the closed-form route adds only M, which
    # it symmetrises, reduces and keeps the reflectors in; the Cholesky
    # route holds both banded solves' outputs at once.  A white signal under
    # unit noise builds Cov(y) alone, and holds O(n) numbers after it
    sf.whitened_system(sf.fbm_wn_spec(8, 0.3)).basis     # imports are not counted
    sf.whitened_system(sf.fbm_wn_spec(8, 0.5)).transform(np.zeros(8))
    sf.whitened_system.cache_clear()
    tracemalloc.start()
    try:
        sf.whitened_system(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * spec.n ** 2


@pytest.mark.parametrize("spec", [sf.fbm_wn_spec(1024, 0.3), sf.integrated_fbm_spec(1024, 0.1)],
                         ids=["fbm-wn", "integrated-fbm"])
def test_first_basis_read_peak_memory(spec):
    # beside the reduced matrix that the system keeps until then, the first
    # read holds two n x n arrays at each step: the tridiagonal's
    # eigenvectors z and the copy of z[1:]; with z gone, that copy and the
    # copied reflector block; then the copy and the basis
    sf.whitened_system(sf.fbm_wn_spec(8, 0.3)).basis     # imports are not counted
    sf.whitened_system.cache_clear()
    system = sf.whitened_system(spec)
    tracemalloc.start()
    try:
        system.basis
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 8 * spec.n ** 2


@pytest.mark.parametrize("spec", [sf.fbm_wn_spec(257, 0.3), sf.integrated_fbm_spec(64, 0.1)],
                         ids=["fbm-wn", "integrated-fbm"])
def test_whiten_lam_does_not_depend_on_read_order(spec):
    # lam comes from the tridiagonal form when the system is built, and the
    # eigenvectors from the same form when first read: reading basis first
    # leaves lam as it is
    cov_x = spec.cov_x()
    cov_y = sf.diff_cov(spec.n, spec.K, spec.tau, spec.noise_convention)
    basis_first = sf.whiten(cov_x, cov_y)
    basis = basis_first.basis
    lam_first = sf.whiten(cov_x, cov_y)
    lam = lam_first.lam.copy()
    assert np.array_equal(basis_first.lam, lam)
    assert np.array_equal(lam_first.basis, basis)
    assert np.abs(basis.T @ basis - np.eye(spec.n)).max() <= 1e-13


def test_fisher_exact_reads_no_eigenvectors(monkeypatch):
    # the exact Fisher information needs lam only; the eigenvectors are
    # built on the first read of basis, once, whoever reads it
    calls = []
    build = sf.linalg._tridiagonal_eigenvectors
    monkeypatch.setattr(sf.linalg, "_tridiagonal_eigenvectors",
                        lambda *args: calls.append(1) or build(*args))
    spec = sf.fbm_wn_spec(96, 0.7)
    sf.whitened_system.cache_clear()
    cold = sf.fisher_exact(spec)
    assert not calls
    fresh = sf.whiten(spec.cov_x(), sf.diff_cov(spec.n, spec.K, spec.tau))
    assert fresh.basis is fresh.basis and len(calls) == 1
    assert np.array_equal(fresh.lam, sf.whitened_system(spec).lam)


def test_whiten_rejects_indefinite_noise():
    with pytest.raises(sf.NotPositiveDefiniteError):
        sf.whiten(np.eye(3), np.diag([1.0, -1.0, 1.0]))


def test_whiten_rejects_non_finite_noise():
    # a NaN is refused before the factorisation, not factorised into the band
    with pytest.raises(ValueError):
        sf.whiten(np.eye(3), np.diag([1.0, np.nan, 1.0]))


def test_cached_arrays_are_read_only():
    # the whitened system is shared through its cache, so a write through a
    # returned array would silently change it, on the dense route (H = 0.3)
    # and the closed-form one (H = 0.5); the uncached cosine basis is
    # read-only too, so no caller mistakes it for scratch space
    with pytest.raises(ValueError):
        sf.dct_basis(8)[0, 0] = 1.0
    for H in (0.3, 0.5):
        system = sf.whitened_system(sf.fbm_wn_spec(16, H))
        with pytest.raises(ValueError):
            system.lam[0] = 1.0
        assert not system.basis.flags.writeable and not system.a_band.flags.writeable


# ---------------------------------------------------------------------------
# BLAS-3 panels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, H", [
    *(pytest.param(n, 0.3, id=str(n)) for n in (31, 129, 257, 512)),
    *(pytest.param(n, 0.5, id=f"white-{n}") for n in (1, 2, 3, 31, 129, 257, 512, 2048, 4096))])
def test_panel_columns_are_position_independent(n, H):
    # sample_z and estimate make the panel calls of run_study with one live
    # column at position 0 and zeros beside it; run_study fills every
    # position.  Each product must give a column the same bits at any
    # position p < PANEL whatever its neighbours hold.  At width 16 this
    # fails on the SkylakeX kernels of OpenBLAS 0.3.30: columns 12-15 of trmm
    # differ from column 0 at n = 31, 129 and 257, and of gemm at n = 257.
    # A white signal (H = 0.5) is scaled, not multiplied by a factor, and
    # whitened by FFTs over the panel's columns rather than gemm
    from scipy.linalg.blas import dtrmm
    width = sf.linalg.PANEL
    spec = sf.fbm_wn_spec(n, H)
    factor = sf.montecarlo._signal_chol(spec)
    system = sf.whitened_system(spec)
    assert isinstance(factor, float) is (H == 0.5)
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)

    def column(p, neighbours):
        panel = np.asfortranarray(neighbours)
        panel[:, p] = v
        return panel

    alone = column(0, np.zeros((n, width)))
    trmm0 = None if H == 0.5 else dtrmm(1.0, factor, alone, lower=1)[:, 0]
    whiten0 = system._transform_each(alone)[:, 0]
    for p in range(width):
        panel = column(p, rng.standard_normal((n, width)))
        if trmm0 is not None:
            assert np.array_equal(dtrmm(1.0, factor, panel, lower=1)[:, p], trmm0), p
        assert np.array_equal(system._transform_each(panel)[:, p], whiten0), p
