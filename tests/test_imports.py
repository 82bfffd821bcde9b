"""Start-up: the spectral and closed-form routes, and the CLI commands built on
them, run without loading scipy or a thread pool; only the dense LAPACK routes
load scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scalefisher as sf

# run in a fresh interpreter, against the scalefisher the tests import
PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

import scalefisher as sf
import scalefisher.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

spec = sf.fbm_wn_spec(512, 0.3)
sf.fisher_integral(spec)
sf.fisher_closed_form(spec)
sf.rate_scan(spec, [10 ** 4, 10 ** 5])
# the supercritical sums: Hurwitz-zeta tails, and the Abel-Plana tail of a
# log-power amplitude
sf.fisher_closed_form(sf.large_error_spec(10 ** 5, 0.6, 0.05))
sf.fisher_closed_form(sf.user_spec(100, beta=0.2, sigma=1.0, tau=1.0, K=0, gamma_values=[1, 0.5],
                                   alpha=-0.1, ell=sf.SlowlyVaryingSpec("log_power", 0.3, 0.5)))
codes = []
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    for argv in (["fisher", "--n", "512", "--method", "integral"],
                 ["fisher", "--n", "512", "--method", "closed-form"],
                 ["rate-scan", "--n-grid", "1e4,1e5"]):
        codes.append(scalefisher.cli.main(
            [argv[0], "--preset", "fbm-wn", "--H", "0.3", *argv[1:]]))
spectral = scipy_modules()
futures = "concurrent.futures" in sys.modules
sf.fisher_exact(sf.fbm_wn_spec(64, 0.3))
print(json.dumps({"codes": codes, "spectral": spectral, "futures": futures,
                  "exact": scipy_modules()}))
"""


def test_spectral_routes_do_not_load_scipy():
    src = str(Path(sf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0, 0]
    assert got["spectral"] == []
    # Monte Carlo studies run in one thread, so the package imports no pool
    assert got["futures"] is False
    # the control: the exact route needs LAPACK, and loads it on first use
    assert "scipy.linalg" in got["exact"]
