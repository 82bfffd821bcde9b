"""Regenerate refs.json, the reference values the workloads check against.

    PYTHONPATH=src python3 perfbench/make_refs.py

The stored file was computed once at the commit it records; a change that
claims a gain must not regenerate it.  Covers every input any seed can
draw: the dense grid (full and smoke sizes) and the spectral grid.
"""

import json
import os
import subprocess

from run import BLAS_THREAD_ENV

# the same BLAS threading as the benchmark: the integrated-motion (K = 2)
# values move by about 1e-8 relative between one and two BLAS threads
os.environ.update(BLAS_THREAD_ENV)

import scalefisher as sf  # noqa: E402
from workloads import (DENSE_H, DENSE_MIX, DENSE_SMOKE_MIX, IFBM_H, LARGE_ERROR, N_GRID,  # noqa: E402
                       USER, BENCH_DIR, dense_key, dense_spec, fbm_key, le_key,
                       spectral_H_grid, user_spec)


def _spectral(spec) -> dict:
    report = sf.fisher_closed_form(spec)
    return {"integral": sf.fisher_integral(spec), "closed_form": report.closed_form,
            "regime": report.regime}


def main() -> None:
    dense = {}
    for preset, n, _ in DENSE_MIX + DENSE_SMOKE_MIX:
        for H in ((IFBM_H,) if preset == "integrated-fbm" else DENSE_H):
            dense[dense_key(preset, n, H)] = sf.fisher_exact(dense_spec(preset, n, H))
    spectral = {}
    for H in spectral_H_grid():
        for n in N_GRID:
            spectral[fbm_key(H, n)] = _spectral(sf.fbm_wn_spec(n, H))
    for H, beta in LARGE_ERROR:
        for n in N_GRID:
            spectral[le_key(H, beta, n)] = _spectral(sf.large_error_spec(n, H, beta))
    spectral[f"user:n={USER['n']}"] = _spectral(user_spec())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR,
                            capture_output=True, text=True).stdout.strip() or None
    out = {"commit": commit, "dense": dense, "spectral": spectral}
    (BENCH_DIR / "refs.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
