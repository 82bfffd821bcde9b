"""Start-up: the spectral and closed-form routes, the CLI commands built on
them, the draws of a white signal, and its exact Fisher information,
estimates and studies under the noise I or D D^t run without loading scipy
or a thread pool; the dense LAPACK routes load scipy's compiled LAPACK and
BLAS wrappers without importing the scipy.linalg package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scalefisher as sf

# modules that no route of the package may load: Monte Carlo studies run in
# one thread, so no pool; numpy.f2py and numpy.testing come only with the
# scipy.linalg package import, which the dense routes skip
UNLOADED = ("concurrent.futures", "numpy.f2py", "numpy.testing")

# run in a fresh interpreter, against the scalefisher the tests import
PROBE = """
import csv, io, json, os, sys, tempfile
from contextlib import redirect_stderr, redirect_stdout

import scalefisher as sf
import scalefisher.cli

# is_critical decides diamond = 4 in integers, with no Fraction
startup = [m for m in ("fractions", "decimal") if m in sys.modules]

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def loaded(names):
    return [m for m in names if m in sys.modules]

def cli(*argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return scalefisher.cli.main(list(argv))

spec = sf.fbm_wn_spec(512, 0.3)
sf.fisher_integral(spec)
sf.fisher_closed_form(spec)
sf.rate_scan(spec, [10 ** 4, 10 ** 5])
# the supercritical sums: Hurwitz-zeta tails, and the Abel-Plana tail of a
# log-power amplitude
sf.fisher_closed_form(sf.large_error_spec(10 ** 5, 0.6, 0.05))
sf.fisher_closed_form(sf.user_spec(100, beta=0.2, sigma=1.0, tau=1.0, K=0, gamma_values=[1, 0.5],
                                   alpha=-0.1, ell=sf.SlowlyVaryingSpec("log_power", 0.3, 0.5)))
fbm = ["--preset", "fbm-wn", "--H", "0.3"]
codes = [cli("fisher", *fbm, "--n", "512", "--method", "integral"),
         cli("fisher", *fbm, "--n", "512", "--method", "closed-form"),
         cli("rate-scan", *fbm, "--n-grid", "1e4,1e5")]
# a white signal is drawn by scaling, with no factorisation or BLAS product
sf.sample_z(sf.fbm_wn_spec(512, 0.5), 1)
spectral = scipy_modules()
# and at tau = 1 it is whitened by FFT, with no LAPACK or BLAS; n = 256 has
# the information the sample split needs at tau = 1
white = ["--preset", "fbm-wn", "--H", "0.5", "--n", "256"]
sf.fisher_exact(sf.fbm_wn_spec(256, 0.5))
with tempfile.TemporaryDirectory() as tmp:
    data = os.path.join(tmp, "z.txt")
    with open(data, "w") as out:
        out.writelines(f"{v!r}\\n" for v in sf.sample_z(sf.fbm_wn_spec(256, 0.5), 3).tolist())
    white_codes = [cli("fisher", *white, "--method", "exact"),
                   cli("estimate", *white, "--input", data),
                   cli("mc-study", *white, "--seed", "7", "--reps", "8")]
white_loaded = scipy_modules()
sf.fisher_exact(sf.fbm_wn_spec(64, 0.3))
exact = scipy_modules()
# tau = 0.25 puts enough information in n = 64 for the sample split
dense = ["--preset", "fbm-wn", "--H", "0.5", "--n", "64", "--tau", "0.25"]
with tempfile.TemporaryDirectory() as tmp:
    sim, data = os.path.join(tmp, "sim.csv"), os.path.join(tmp, "z.txt")
    dense_codes = [cli("simulate", *dense, "--seed", "1", "--output", sim)]
    with open(sim) as rows, open(data, "w") as out:
        out.writelines(row["z"] + "\\n" for row in csv.DictReader(rows))
    dense_codes += [cli("estimate", *dense, "--input", data),
                    cli("mc-study", *dense, "--seed", "7", "--reps", "8")]
print(json.dumps({"codes": codes, "spectral": spectral, "exact": exact,
                  "white_codes": white_codes, "white": white_loaded,
                  "dense_codes": dense_codes, "dense": scipy_modules(),
                  "unloaded": loaded(UNLOADED), "startup": startup}))
"""

# routines the dense routes call, by the scipy.linalg module that re-exports them
ROUTINES = {"lapack": ("dsytrd", "dsytrd_lwork", "dsterf", "dstevd", "dormqr", "dtbtrs", "dpotrf"),
            "blas": ("dgemm", "dtrmm")}

# the library's wrappers against scipy.linalg's, with the package imported
# after the dense routes ran ("library-first") or before ("scipy-first")
IDENTITY_PROBE = """
import importlib, importlib.util, json, sys

import scalefisher as sf
from scalefisher.linalg import _scipy_wrappers

# every module the loader loads from its file passes through here
loads = []
find_spec = importlib.util.spec_from_file_location
importlib.util.spec_from_file_location = lambda name, *a, **k: (loads.append(name),
                                                                find_spec(name, *a, **k))[1]

NAMES = {"lapack": "_flapack", "blas": "_fblas"}
scipy_first = sys.argv[1] == "scipy-first"
if scipy_first:
    import scipy.linalg
    registered = {name: sys.modules["scipy.linalg." + name] for name in NAMES.values()}

def run():
    spec = sf.fbm_wn_spec(64, 0.5, tau=0.25)
    # H = 0.3, since a white signal (H = 0.5) is drawn without dpotrf and
    # dtrmm, and at tau = 1 whitened without dsytrd
    return [sf.fisher_exact(sf.fbm_wn_spec(64, 0.3)),
            sf.estimate(sf.sample_z(spec, 1), spec).to_dict(),
            sf.sample_z(sf.fbm_wn_spec(64, 0.3), 1).tolist()]

first = run()
package_before = "scipy.linalg" in sys.modules
import scipy.linalg
reused = all(_scipy_wrappers(name) is registered[name] for name in NAMES.values()) \\
    if scipy_first else None
unlike = [f"{kind}.{routine}" for kind, routines in ROUTINES.items()
          for routine in routines
          if getattr(_scipy_wrappers(NAMES[kind]), routine)
          is not getattr(importlib.import_module("scipy.linalg." + kind), routine)]
# the cached systems and signal factor are dropped, so the repeat calls the
# wrappers again, now with the package imported
sf.fisher.whitened_system.cache_clear()
sf.montecarlo._signal_chol.cache_clear()
print(json.dumps({"package_before": package_before, "reused": reused, "unlike": unlike,
                  "first": first, "second": run(), "loads": loads}))
"""


def _probe(code: str, *args: str) -> dict:
    src = str(Path(sf.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_spectral_routes_do_not_load_scipy():
    got = _probe(f"UNLOADED = {UNLOADED!r}\n" + PROBE)
    assert got["codes"] == [0, 0, 0]
    assert got["spectral"] == []
    assert got["startup"] == []
    # fisher --method exact, estimate and mc-study on a white signal at tau = 1
    assert got["white_codes"] == [0, 0, 0]
    assert got["white"] == []
    # the control: the exact route needs LAPACK, and loads scipy's compiled
    # wrappers on first use, but not the scipy.linalg package
    assert "scipy.linalg._flapack" in got["exact"]
    assert "scipy.linalg" not in got["exact"]
    # simulate, estimate and mc-study need BLAS as well, and no more
    assert got["dense_codes"] == [0, 0, 0]
    assert {"scipy.linalg._flapack", "scipy.linalg._fblas"} <= set(got["dense"])
    assert "scipy.linalg" not in got["dense"]
    assert got["unloaded"] == []


@pytest.fixture(scope="module")
def identity_runs():
    return {order: _probe(f"ROUTINES = {ROUTINES!r}\n" + IDENTITY_PROBE, order)
            for order in ("library-first", "scipy-first")}


@pytest.mark.parametrize("order", ["library-first", "scipy-first"])
def test_wrappers_are_scipys_own(identity_runs, order):
    got = identity_runs[order]
    assert got["package_before"] is (order == "scipy-first")
    # every routine the dense routes call is the object scipy.linalg.lapack /
    # .blas re-exports, so the outputs are scipy's bits
    assert got["unlike"] == []
    if order == "scipy-first":
        # the modules the package import registered are used, not loaded again
        assert got["reused"] is True
        assert got["loads"] == []
    else:
        # each module is loaded once, and the package import reuses it
        assert sorted(got["loads"]) == ["scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert got["second"] == got["first"]
    assert got["first"] == identity_runs["library-first"]["first"]
