"""Command-line behavior: validation vs numerical exit codes, file I/O,
determinism, JSON round-trips."""

import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

import scalefisher as sf
from scalefisher.cli import _parse_n_grid, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fisher_all_agreement(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "fisher", "--preset", "fbm-wn", "--H", "0.5",
                         "--sigma", "1", "--tau", "1", "--n", "512",
                         "--method", "all", "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["exact"] is not None and payload["integral"] is not None
    rel = abs(payload["exact"] - payload["integral"]) / payload["exact"]
    assert rel < 0.10
    assert payload["relative_differences"]["exact_vs_integral"] < 0.10


def test_fisher_closed_form_h_half(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--preset", "fbm-wn", "--H", "0.5",
                           "--n", "1000000", "--method", "closed-form")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == pytest.approx(1000000.0 ** 0.5 * 0.125, rel=1e-12)
    assert payload["exact"] is None and payload["integral"] is None


def test_fisher_closed_form_log_power_supercritical(capsys):
    # diamond = 10: n^(1 - 4 beta) / 2 times sum gamma_k^2 = 1 + 2 (0.5^2) +
    # 2 (0.3^2) sum_{k >= 2} k^-1.6 log k; with mpmath at 40 digits the sum is
    # 1.5 + 0.18 (-mpmath.zeta(1.6, 2, 1)) and the closed form 100^0.2 / 2 times it
    code, out, _ = run_cli(capsys, "fisher", "--preset", "user", "--n", "100",
                           "--beta", "0.2", "--K", "0", "--alpha", "-0.1", "--gamma", "1,0.5",
                           "--ell", "logpow:0.3:0.5", "--method", "closed-form")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "supercritical"
    assert payload["closed_form"] == pytest.approx(2.496805035274835188, rel=1e-13)


def test_fisher_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "fisher", "--preset", "fbm-wn", "--H", "1.5",
                           "--n", "100")
    assert code == 2
    assert "Hurst" in err


def test_estimate_end_to_end(capsys, tmp_path):
    spec = sf.fbm_wn_spec(512, 0.5)
    z = sf.sample_z(spec, seed=31, rep_index=0)
    data = tmp_path / "z.txt"
    data.write_text("".join(f"{v:.17g}\n" for v in z))
    code, out, _ = run_cli(capsys, "estimate", "--preset", "fbm-wn", "--H", "0.5",
                           "--n", "512", "--input", str(data))
    assert code == 0
    payload = json.loads(out)
    assert np.isfinite(payload["sigma2_hat"])
    assert payload["plugin_fisher"] > 0
    assert payload["split"]["split_size"] >= 1


def test_estimate_empty_file(capsys, tmp_path):
    data = tmp_path / "empty.txt"
    data.write_text("")
    code, _, err = run_cli(capsys, "estimate", "--preset", "fbm-wn", "--H", "0.5",
                           "--n", "512", "--input", str(data))
    assert code == 2
    assert "no data" in err


def test_estimate_bad_token_cites_line(capsys, tmp_path):
    lines = ["0.1"] * 6 + ["not-a-number"] + ["0.2"] * 5
    data = tmp_path / "bad.txt"
    data.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "estimate", "--preset", "fbm-wn", "--H", "0.5",
                           "--n", "12", "--input", str(data))
    assert code == 2
    assert "line 7" in err


def test_estimate_length_mismatch(capsys, tmp_path):
    data = tmp_path / "short.txt"
    data.write_text("1.0\n2.0\n")
    code, _, err = run_cli(capsys, "estimate", "--preset", "fbm-wn", "--H", "0.5",
                           "--n", "512", "--input", str(data))
    assert code == 2
    assert "2 values" in err


def test_estimate_numerical_exit_code(capsys, tmp_path):
    # n too small for the split: numerical failure, distinct exit code
    data = tmp_path / "tiny.txt"
    data.write_text("".join(f"{v}\n" for v in np.zeros(16)))
    code, _, err = run_cli(capsys, "estimate", "--preset", "fbm-wn", "--H", "0.5",
                           "--n", "16", "--input", str(data))
    assert code == 3
    assert "information" in err.lower()


def test_simulate_indefinite_signal_exit_code(capsys):
    # gamma = (1, 2) makes Cov(x) indefinite: a numerical failure, no output
    code, out, err = run_cli(capsys, "simulate", "--preset", "user", "--n", "16", "--beta", "0.2",
                             "--K", "0", "--alpha", "-0.1", "--gamma", "1,2", "--seed", "1")
    assert code == 3
    assert out == ""
    assert "signal covariance is not positive definite" in err


def test_simulate_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "simulate", "--preset", "fbm-wn", "--H", "0.5",
                             "--n", "64", "--seed", "42", "--reps", "2",
                             "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header, first = a.read_text().splitlines()[:2]
    assert header == "rep,index,z"
    assert first.startswith("0,0,")


def test_simulate_panels_equal_single_draws(capsys, tmp_path):
    # nine replicates span two panels of PANEL = 8; each block of rows is
    # the replicate's own sample_z, bit for bit
    assert sf.linalg.PANEL < 9
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(capsys, "simulate", "--preset", "fbm-wn", "--H", "0.3",
                         "--n", "64", "--seed", "42", "--reps", "9",
                         "--output", str(out))
    assert code == 0
    spec = sf.fbm_wn_spec(64, 0.3)
    rows = out.read_text().splitlines()[1:]
    assert rows == [f"{rep},{i},{v:.17g}" for rep in range(9)
                    for i, v in enumerate(sf.sample_z(spec, 42, rep))]


def test_mc_study_zero_reps_rejected(capsys):
    # run_study owns the replicate-count rule, and its DomainError exits 2
    code, out, err = run_cli(capsys, "mc-study", "--preset", "fbm-wn", "--H", "0.5",
                             "--n", "64", "--seed", "1", "--reps", "0")
    assert code == 2 and not out
    assert "reps" in err


def test_mc_study_with_per_rep_csv(capsys, tmp_path):
    per_rep = tmp_path / "reps.csv"
    out = tmp_path / "study.json"
    code, _, _ = run_cli(capsys, "mc-study", "--preset", "fbm-wn", "--H", "0.5",
                         "--n", "512", "--seed", "8", "--reps", "4",
                         "--per-rep", str(per_rep), "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["reps"] == 4
    rows = per_rep.read_text().splitlines()
    assert rows[0] == "rep,V,sigma2_tilde,sigma2_hat"
    assert len(rows) == 5


def test_rate_scan_csv_and_slope(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, stdout, _ = run_cli(capsys, "rate-scan", "--preset", "fbm-wn", "--H", "0.5",
                              "--n-grid", "1e4:1e6:logsteps=3",
                              "--output", str(out))
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "n,fisher_integral,fisher_closed_form"
    assert len(rows) == 4
    summary = json.loads(stdout)
    assert summary["slope_integral"] == pytest.approx(0.5, abs=0.02)
    assert summary["slope_closed_form"] == pytest.approx(0.5, abs=1e-9)


def test_rate_scan_bad_grid(capsys):
    code, _, err = run_cli(capsys, "rate-scan", "--preset", "fbm-wn", "--H", "0.5",
                           "--n-grid", "10:5:logsteps=3")
    assert code == 2


@pytest.mark.parametrize("H", [0.3, 0.5])
def test_rate_scan_grid_beyond_int64(capsys, H):
    # the grid is built in Python ints, so sizes past 9.2e18 neither overflow
    # a cast nor warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "rate-scan", "--preset", "fbm-wn", "--H", str(H),
                                 "--n-grid", "1e20:1e40:logsteps=3")
    assert code == 0
    assert set(json.loads(err)) == {"slope_integral", "slope_closed_form"}
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    assert [int(r.split(",")[0]) for r in rows] == [10 ** 20, 10 ** 30, 10 ** 40]
    for row in rows:
        _, integral, closed = map(float, row.split(","))
        assert integral / closed == pytest.approx(1.0, abs=1e-12)


def test_fisher_integral_crossover_below_grid_floor(capsys):
    # at n = 1e80 the crossover lies below 1e-30; the integral must still
    # match the closed form rather than miss by a factor 1e198
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "fisher", "--preset", "fbm-wn", "--H", "0.9",
                               "--n", "1" + "0" * 80, "--method", "integral")
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] == pytest.approx(payload["closed_form"], rel=1e-6)


def test_fisher_integral_plateau_beyond_float_range(capsys):
    # at n = 1e100 the integrand's plateau n^(4 beta) = 1e360 overflowed and
    # the integral exited 3 with "did not converge"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "fisher", "--preset", "fbm-wn", "--H", "0.9",
                               "--n", "1" + "0" * 100, "--method", "integral")
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] == pytest.approx(payload["closed_form"], rel=1e-6)


def test_rate_scan_log_grid_integers():
    assert _parse_n_grid("1e5:1e8:logsteps=4") == [100000, 1000000, 10000000, 100000000]
    assert _parse_n_grid("1e5:1e8:logsteps=7") == [
        100000, 316228, 1000000, 3162278, 10000000, 31622777, 100000000]
    # decimal powers are exact ints, not the binary value of the float 1e30
    assert _parse_n_grid("1e20:1e40:logsteps=3") == [10 ** 20, 10 ** 30, 10 ** 40]


def test_rate_scan_comma_grid_integers():
    # each point is exact: 1e30 is not the float's binary value, and two
    # integers 2 apart beyond 2^53 stay apart instead of rounding together
    assert _parse_n_grid("1e30,1e40") == [10 ** 30, 10 ** 40]
    assert _parse_n_grid("100000000000000000001,100000000000000000003") == [
        10 ** 20 + 1, 10 ** 20 + 3]
    assert _parse_n_grid("64, 1.5e3,4096") == [64, 1500, 4096]


@pytest.mark.parametrize("argv", [
    ("fisher", "--H", "0.3", "--method", "exact"),
    ("simulate", "--H", "0.3", "--seed", "1", "--reps", "1"),
    # a white signal is drawn with no n x n array, but is refused alike
    ("simulate", "--H", "0.5", "--seed", "1", "--reps", "1"),
])
def test_dense_routes_refuse_large_n(capsys, argv):
    # an n x n covariance at n = 1e5 needs 74.5 GiB: refused before allocating
    code, out, err = run_cli(capsys, argv[0], "--preset", "fbm-wn", "--n", "100000",
                             *argv[1:])
    assert code == 2 and not out
    assert f"MAX_DENSE_N = {sf.model.MAX_DENSE_N}" in err
    assert "--method integral" in err and "closed-form" in err
    assert "Traceback" not in err


def test_rate_scan_rejects_n(capsys):
    # every grid value replaces n, so a given --n would be silently ignored
    code, out, err = run_cli(capsys, "rate-scan", "--preset", "fbm-wn", "--H", "0.5",
                             "--n", "20000", "--n-grid", "1e4:1e6:logsteps=3")
    assert code == 2
    assert "--n" in err and "--n-grid" in err and not out


USER_MODEL = ("--preset", "user", "--beta", "0.25", "--K", "0", "--alpha", "-0.25")


@pytest.mark.parametrize("argv, flag", [
    (("fisher", *USER_MODEL, "--n", "100", "--gamma", "1,x"), "--gamma"),
    (("fisher", *USER_MODEL, "--n", "100", "--gamma", "1", "--ell", "constant:abc"),
     "--ell"),
    (("rate-scan", "--H", "0.5", "--n-grid", "1e4:1e6:logsteps=x"), "--n-grid"),
    (("rate-scan", "--H", "0.5", "--n-grid", ","), "--n-grid"),
    # a fractional size ran as its floor
    (("rate-scan", "--H", "0.5", "--n-grid", "2.7,5"), "--n-grid"),
    # non-finite model parameters passed ModelSpec's checks: a bare NaN (not
    # JSON), 0.0 from every Fisher route, rows of nan; the error names the
    # parameter
    (("fisher", "--H", "0.5", "--n", "64", "--sigma", "nan", "--method", "closed-form"),
     "sigma"),
    (("fisher", "--H", "0.5", "--n", "64", "--sigma", "inf", "--method", "all"), "sigma"),
    (("simulate", "--H", "0.5", "--n", "16", "--seed", "1", "--tau", "nan"), "tau"),
    (("fisher", *USER_MODEL, "--beta", "nan", "--n", "100", "--gamma", "1",
      "--method", "closed-form"), "beta"),
])
def test_malformed_number_exit_code(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert flag in err


def test_rate_scan_one_size_is_a_validation_error(capsys):
    # one point fixes no slope: lstsq returned its minimum-norm answer
    code, out, err = run_cli(capsys, "rate-scan", "--preset", "fbm-wn", "--H", "0.3",
                             "--n-grid", "1000")
    assert code == 2 and not out
    assert "two sizes" in err


@pytest.mark.parametrize("argv, flag", [
    (("--preset", "fbm-wn", "--H", "0.5", "--convention", "deltaT_delta"), "--convention"),
    (("--preset", "fbm-wn", "--H", "0.5", "--beta", "0.5"), "--beta"),
    (("--preset", "large-error", "--H", "0.9", "--beta", "0.3", "--K", "1"), "--K"),
    (("--preset", "integrated-fbm", "--H", "0.1", "--ell", "constant:1"), "--ell"),
    ((*USER_MODEL, "--gamma", "1", "--H", "0.5"), "--H"),
])
def test_preset_rejects_flags_it_does_not_read(capsys, argv, flag):
    code, _, err = run_cli(capsys, "simulate", *argv, "--n", "16", "--seed", "1")
    assert code == 2
    assert flag in err


def test_user_preset_requires_flags(capsys):
    code, _, err = run_cli(capsys, "fisher", "--preset", "user", "--n", "100")
    assert code == 2
    assert "--gamma" in err


def test_user_preset_full(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--preset", "user", "--n", "100",
                           "--beta", "0.25", "--K", "0", "--alpha", "-0.25",
                           "--gamma", "1.0", "--ell", "constant:1",
                           "--method", "closed-form")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "critical"
    assert payload["log_factor"] is True


def test_json_output_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--preset", "large-error", "--H", "0.6",
                           "--beta", "0.05", "--n", "10000", "--method", "closed-form")
    assert code == 0
    parsed = json.loads(out)
    assert json.loads(json.dumps(parsed)) == parsed
    assert parsed["regime"] == "supercritical"


def test_unknown_subcommand_exit(capsys):
    assert main(["definitely-not-a-command"]) == 2


def test_json_outputs_are_the_library_results(capsys, tmp_path):
    # fisher and estimate print the result's to_json(), keyed by the result
    # type's field names in order; mc-study writes the study's to_json() to
    # its --output file, which ends in a newline like stdout and every CSV
    spec_args = ("--preset", "fbm-wn", "--H", "0.5", "--n", "512")
    spec = sf.fbm_wn_spec(512, 0.5)
    code, out, _ = run_cli(capsys, "fisher", *spec_args, "--method", "closed-form")
    assert code == 0
    report = sf.fisher_report(spec, ("closed-form",))
    assert out == report.to_json() + "\n"
    assert list(json.loads(out)) == [f.name for f in fields(sf.FisherReport)]
    # warnings is a list in the dict too, since [] != ()
    assert json.loads(out) == report.to_dict()

    z = sf.sample_z(spec, 5)
    data = tmp_path / "z.txt"
    data.write_text("".join(f"{v!r}\n" for v in z.tolist()))
    code, out, _ = run_cli(capsys, "estimate", *spec_args, "--input", str(data))
    assert code == 0
    assert out == sf.estimate(z, spec).to_json() + "\n"
    assert list(json.loads(out)) == [f.name for f in fields(sf.EstimateResult)]

    study = tmp_path / "study.json"
    code, out, _ = run_cli(capsys, "mc-study", *spec_args, "--seed", "21",
                           "--reps", "6", "--output", str(study))
    assert code == 0 and not out
    assert study.read_text() == sf.run_study(spec, 6, 21).to_json() + "\n"
    assert "normalized_se" in json.loads(study.read_text())


@pytest.mark.parametrize("argv", [
    ("fisher", "--n", "64", "--method", "all"),
    ("fisher", "--n", "64", "--method", "exact"),
    ("fisher", "--n", "64", "--method", "integral"),
    ("rate-scan", "--n-grid", "1e4,1e5"),
])
def test_zero_sigma_is_a_validation_error(capsys, argv):
    # the closed form (which every fisher call runs) and the spectral
    # integral divide by sigma; they ended in a ZeroDivisionError traceback
    code, out, err = run_cli(capsys, *argv[:1], "--preset", "fbm-wn", "--H", "0.5",
                             "--sigma", "0", *argv[1:])
    assert code == 2 and not out
    assert "sigma > 0" in err


@pytest.mark.parametrize("sigma", ["1e-200", "1e-150", "1e200"])
def test_sigma_out_of_float_range_is_a_numerical_error(capsys, sigma):
    # a power of sigma overflows, or the Fisher value (about sigma^-3) does
    code, out, err = run_cli(capsys, "fisher", "--preset", "fbm-wn", "--H", "0.5",
                             "--n", "64", "--sigma", sigma)
    assert code == 3 and not out
    assert "float range" in err


def test_fisher_integral_at_tiny_sigma(capsys):
    # sigma^4 underflows to 0 at sigma = 1e-90, while the integral is 1e270,
    # as the closed form; it exited 3 with "float division by zero"
    code, out, _ = run_cli(capsys, "fisher", "--preset", "fbm-wn", "--H", "0.5",
                           "--n", "64", "--sigma", "1e-90", "--method", "integral")
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] == pytest.approx(payload["closed_form"], rel=1e-12)
    assert payload["closed_form"] == pytest.approx(1e270, rel=1e-12)
