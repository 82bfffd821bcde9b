"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria that are asymptotic statements are checked through the stated
finite-n tolerance bands and trend checks."""

import math

import numpy as np
import pytest

import scalefisher as sf
from scalefisher.estimator import _weighted_sum
from scalefisher.model import noise_symbol


def _report(capsys, ok: bool, line: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {tag}: {line}", flush=True)


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_ch_golden_values(capsys):
    ch_half = sf.closed_form_constant_cH(0.5)
    inv_quarter = 1.0 / sf.closed_form_constant_cH(0.25)
    inv_3q = 1.0 / sf.closed_form_constant_cH(0.75)
    ok = (abs(ch_half - 0.125) <= 1e-12
          and abs(inv_quarter / 10.64 - 1.0) <= 0.005
          and abs(inv_3q / 8.12 - 1.0) <= 0.005)
    _report(capsys, ok, f"criterion 1 (c_H golden values): c_1/2={ch_half:.15g}, "
                f"1/c_1/4={inv_quarter:.6g} (10.64), 1/c_3/4={inv_3q:.6g} (8.12)")
    assert abs(ch_half - 0.125) <= 1e-12
    assert inv_quarter == pytest.approx(10.64, rel=0.005)
    assert inv_3q == pytest.approx(8.12, rel=0.005)


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_h_half_benchmark(capsys):
    spec = sf.fbm_wn_spec(10 ** 8, 0.5, sigma=1.0, tau=1.0)
    val = math.sqrt(1e8) / sf.fisher_integral(spec)
    ok = abs(val / 8.0 - 1.0) <= 0.01
    _report(capsys, ok, f"criterion 2 (n=1e8 half-index benchmark): sqrt(n)/I = {val:.6g}, "
                f"target 8 within 1%")
    assert val == pytest.approx(8.0, rel=0.01)


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_exact_vs_integral(capsys):
    rows = []
    for H in (0.25, 0.5, 0.75):
        spec = sf.fbm_wn_spec(2048, H)
        exact = sf.fisher_exact(spec)
        integral = sf.fisher_integral(spec)
        rows.append((H, exact, integral, abs(exact - integral) / exact))
    ok = all(r[3] <= 0.10 for r in rows)
    detail = ", ".join(f"H={r[0]}: rel={r[3]:.4f}" for r in rows)
    _report(capsys, ok, f"criterion 3 (exact vs integral, n=2048): {detail} (tol 10%)")
    for H, exact, integral, rel in rows:
        assert rel <= 0.10, (H, exact, integral)


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_eq12_corollary_identity(capsys):
    rows = []
    for H in (0.3, 0.6):
        dia = 2.0 / (2.0 * H + 1.0)
        alpha = 0.5 - H
        ell = H * abs(2.0 * H - 1.0)
        via_c = ell ** (dia / 2.0) * sf.closed_form_constant_C(dia, alpha)
        via_ch = sf.closed_form_constant_cH(H)
        rows.append((H, abs(via_c / via_ch - 1.0)))
    ok = all(r[1] <= 1e-10 for r in rows)
    detail = ", ".join(f"H={r[0]}: rel={r[1]:.3g}" for r in rows)
    _report(capsys, ok, f"criterion 4 (general constant vs c_H identity): {detail} (tol 1e-10)")
    for H, rel in rows:
        assert rel <= 1e-10


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_elbow_effect(capsys):
    grid = [int(v) for v in np.geomspace(1e5, 1e8, 7).round()]

    sub = sf.large_error_spec(grid[0], 0.9, 0.3)          # diamond = 2.5 < 4
    scan_sub = sf.rate_scan(sub, grid)
    want_sub = 1.0 - 2.5 * 0.3
    err_sub = abs(scan_sub.slope_integral - want_sub)

    sup = sf.large_error_spec(grid[0], 0.6, 0.05)         # diamond = 10 > 4
    scan_sup = sf.rate_scan(sup, grid)
    want_sup = 1.0 - 4.0 * 0.05
    err_sup = abs(scan_sup.slope_integral - want_sup)

    crit = sf.large_error_spec(grid[0], 0.75, 0.1)        # diamond = 4
    vals = []
    for n in grid:
        spec_n = sf.with_n(crit, n)
        vals.append(sf.fisher_integral(spec_n) * float(n) ** (4 * 0.1 - 1.0)
                    / math.log(n))
    vals = np.array(vals)
    fldev = float(np.max(np.abs(vals / vals.mean() - 1.0)))

    ok = err_sub <= 0.05 and err_sup <= 0.05 and fldev <= 0.10
    _report(capsys, ok, "criterion 5 (elbow effect): "
                f"H=0.9 slope={scan_sub.slope_integral:.4f} (want {want_sub}), "
                f"H=0.6 slope={scan_sup.slope_integral:.4f} (want {want_sup}), "
                f"H=0.75 log-normalized flatness dev={fldev:.3f} (tol 0.10)")
    assert err_sub <= 0.05
    assert err_sup <= 0.05
    assert fldev <= 0.10


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_oracle_efficiency(capsys):
    spec = sf.fbm_wn_spec(512, 0.5)
    system = sf.whitened_system(spec)

    # exact property: substituting the transformed second moments returns sigma^2
    w = system.lam * float(spec.n) ** (-2 * spec.beta)
    mean_z2 = spec.sigma ** 2 * w + 1.0
    sub = _weighted_sum(mean_z2, w, spec.sigma ** 2)
    exact_ok = abs(sub / spec.sigma ** 2 - 1.0) <= 1e-10

    study = sf.run_study(spec, reps=2000, seed=2025, estimator="oracle")
    mc_ok = 0.85 <= study.normalized <= 1.15
    _report(capsys, exact_ok and mc_ok,
            f"criterion 6 (oracle efficiency): substitution rel err "
            f"{abs(sub / spec.sigma ** 2 - 1.0):.2e} (tol 1e-10), "
            f"I*Var = {study.normalized:.4f} in [0.85, 1.15]")
    assert exact_ok
    assert 0.85 <= study.normalized <= 1.15


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_efficient_estimator_desk_scale(capsys):
    bands = {}
    for H in (0.3, 0.5, 0.7):
        spec = sf.fbm_wn_spec(2048, H)
        bands[H] = sf.run_study(spec, reps=500, seed=777).normalized
    trend = {2048: bands[0.5]}
    for n in (512, 4096):
        spec = sf.fbm_wn_spec(n, 0.5)
        trend[n] = sf.run_study(spec, reps=500, seed=777).normalized
    gaps = [abs(trend[n] - 1.0) for n in (512, 2048, 4096)]
    trend_ok = gaps[0] > gaps[1] > gaps[2]
    band_ok = all(0.8 <= v <= 1.5 for v in bands.values())
    detail = ", ".join(f"H={h}: I*MSE={v:.3f}" for h, v in bands.items())
    _report(capsys, band_ok and trend_ok,
            f"criterion 7 (first-order efficiency at n=2048): {detail} "
            f"(band [0.8, 1.5]); H=0.5 trend over n=512/2048/4096: "
            f"{trend[512]:.3f} / {trend[2048]:.3f} / {trend[4096]:.3f}")
    assert gaps[2] < gaps[0], trend
    assert trend_ok, trend
    for h, v in bands.items():
        assert 0.8 <= v <= 1.5, (
            f"I*MSE = {v:.3f} at H={h}: the likelihood root over all "
            f"coordinates should be first-order efficient at n=2048")


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_structural_suite(capsys):
    checks = {}

    orth = max(np.abs(sf.dct_basis(n) @ sf.dct_basis(n).T - np.eye(n)).max()
               for n in (1, 7, 64, 257))
    checks["dct_orthonormality"] = orth <= 1e-12

    eig_ok = True
    for K in (1, 2):
        eig = noise_symbol(sf.dct_nodes(64), K, 1.0)
        dense = np.linalg.eigvalsh(sf.diff_cov(64, K, 1.0, "deltaT_delta"))
        rel = np.abs(np.sort(eig) - dense) / np.abs(dense)
        eig_ok &= bool(rel.max() <= 1e-8)
    checks["dct_eigenvalues_K12"] = eig_ok

    spec_a = sf.fbm_wn_spec(64, 0.4)
    spec_b = sf.ModelSpec(**{**spec_a.__dict__, "noise_convention": "deltaT_delta"})
    ia, ib = sf.fisher_exact(spec_a), sf.fisher_exact(spec_b)
    checks["convention_invariance"] = abs(ia / ib - 1.0) <= 1e-10

    c = 1.7
    base = sf.fisher_exact(sf.fbm_wn_spec(64, 0.6, sigma=1.1, tau=0.9))
    scaled = sf.fisher_exact(sf.fbm_wn_spec(64, 0.6, sigma=c * 1.1, tau=c * 0.9))
    checks["scaling_law"] = abs(scaled * c ** 4 / base - 1.0) <= 1e-10

    spec = sf.fbm_wn_spec(128, 0.6, sigma=1.3, tau=0.7)
    sys_ = sf.whitened_system(spec)
    cov_z = (spec.sigma ** 2 * 128.0 ** (-2 * spec.beta) * spec.cov_x()
             + sf.diff_cov(128, 1, 0.7, spec.noise_convention))
    t = sys_.transform(np.eye(128))
    got = t @ cov_z @ t.T
    expect = np.diag(spec.sigma ** 2 * 128.0 ** (-2 * spec.beta) * sys_.lam + 1.0)
    checks["whitened_diagonalization"] = bool(np.abs(got - expect).max() <= 1e-9)

    ok = all(checks.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    _report(capsys, ok, f"criterion 8 (structural suite): {detail}")
    assert ok, checks


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_split_behavior(capsys):
    stats = []
    for n in (512, 1024, 2048, 4096):
        spec = sf.fbm_wn_spec(n, 0.5)
        lam = sf.whitened_system(spec).lam
        plan = sf.make_split(lam, n, 0.5)
        stats.append((n, plan.i1_an, plan.i1_an / plan.i1_n))
    masses = [s[1] for s in stats]
    ratios = [s[2] for s in stats]
    increasing = all(b > a for a, b in zip(masses, masses[1:]))
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    detail = ", ".join(f"n={s[0]}: I1_An={s[1]:.4f}, share={s[2]:.4f}" for s in stats)
    _report(capsys, increasing and decreasing, f"criterion 9 (split growth): {detail}")
    assert increasing, stats
    assert decreasing, stats
