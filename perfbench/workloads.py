"""The four benchmark workloads.

Each workload is a closed loop with one caller and one op in flight.  It
builds its ops in rounds: a round has a fixed op mix whose inputs (Hurst
indices, sampler seeds, op order) come from the workload seed and the round
index, so every run of a workload measures the same mix of work.

Library calls go through module attributes (``sf.fisher_exact``,
``sf.fisher.whitened_system``) at call time, so the traced run sees them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

import scalefisher as sf

BENCH_DIR = Path(__file__).resolve().parent


@lru_cache(maxsize=None)
def refs() -> dict:
    """Reference values computed by make_refs.py at the seed commit."""
    return json.loads((BENCH_DIR / "refs.json").read_text())


# exact Fisher: the cosine-basis route agrees with Cholesky to 5e-14; a wrong
# eigenvalue set is off by far more
DENSE_RTOL = 1e-10
# the spectral integral converges to rtol 1e-6; closed forms are formulas
# except the supercritical squared-autocovariance sum (rtol 1e-6)
INTEGRAL_RTOL = 1e-5
CLOSED_RTOL = 1e-6
SLOPE_TOL = 0.05
MC_SE_BAND = 4.0


@dataclass(frozen=True)
class Op:
    """One op: ``label`` names its class in the op mix, ``key`` its inputs."""
    label: str
    key: str
    args: tuple = ()


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _clear(fn) -> None:
    clear = getattr(fn, "cache_clear", None)
    if clear is not None:
        clear()


class Workload:
    """Base: subclasses set ``name``, ``mix`` and ``min_ops``."""
    name = ""
    min_ops = 20

    def __init__(self, seed: int, smoke: bool = False, workdir: Path | None = None):
        self.seed = int(seed)
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = None

    def setup(self) -> None:
        """Spec construction and once-per-session warm-up."""

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> str | None:
        """Failure reason for one op, or None."""
        return None

    def check_round(self, ops, results) -> list[str | None]:
        return [None] * len(ops)

    def check_run(self, ops, results) -> str | None:
        return None

    def extras(self, ops, results, latencies) -> dict:
        """Per-layer metrics that come from results rather than spans."""
        return {}

    def close(self) -> None:
        """Remove files the workload wrote."""


# ---------------------------------------------------------------------------
# dense_exact
# ---------------------------------------------------------------------------

DENSE_H = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
IFBM_H = 0.1
# (preset, n, ops per round).  n = 2048 is left out: one op takes ~10 s, so a
# run could not hold enough ops for a tail percentile; mc_desk's set-up
# whitens at n = 2048 instead.  As many ops are cheaper as dearer than the
# fbm-wn n = 512 ops, so the median is the middle of that group, not its edge.
DENSE_MIX = (("fbm-wn", 512, 8), ("fbm-wn", 256, 1), ("integrated-fbm", 256, 1),
             ("integrated-fbm", 512, 1), ("fbm-wn", 1024, 1))
DENSE_SMOKE_MIX = (("fbm-wn", 64, 2), ("fbm-wn", 128, 1), ("integrated-fbm", 64, 1))


def dense_key(preset: str, n: int, H: float) -> str:
    return f"{preset}:n={n}:H={H:.2f}"


def dense_spec(preset: str, n: int, H: float):
    return sf.fbm_wn_spec(n, H) if preset == "fbm-wn" else sf.integrated_fbm_spec(n, H)


class DenseExact(Workload):
    """fisher_exact on a cold whitening cache, as a fresh CLI call finds it."""
    name = "dense_exact"
    min_ops = 40

    @property
    def mix(self):
        return DENSE_SMOKE_MIX if self.smoke else DENSE_MIX

    def setup(self):
        for preset, n, _ in self.mix:
            if preset == "integrated-fbm":
                # stationary lag block, cached by the model per (H, n)
                dense_spec(preset, n, IFBM_H).gamma_array(n - 1)
        np.linalg.eigh(np.eye(8))

    def round_ops(self, r):
        rng = _rng(self.seed, r)
        ops = []
        for preset, n, count in self.mix:
            for _ in range(count):
                H = IFBM_H if preset == "integrated-fbm" else float(rng.choice(DENSE_H))
                ops.append(Op(f"{preset} n={n}", dense_key(preset, n, H), (preset, n, H)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op):
        _clear(sf.fisher.whitened_system)
        _clear(sf.linalg.dct_basis)
        return float(sf.fisher_exact(dense_spec(*op.args)))

    def check(self, op, result):
        ref = refs()["dense"][op.key]
        if not math.isfinite(result) or _rel(result, ref) > DENSE_RTOL:
            return f"exact {result!r} vs reference {ref!r}"
        return None


# ---------------------------------------------------------------------------
# spectral_scan
# ---------------------------------------------------------------------------

N_GRID = tuple(int(round(v)) for v in np.geomspace(1e5, 1e8, 7))
SMOKE_N_GRID = (N_GRID[0], N_GRID[2], N_GRID[6])
# one Hurst index per stratum, jittered by the seed; 0.5 stays fixed for the
# sqrt(1e8)/I = 8 invariant
H_STRATA = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
H_JITTER = (-0.025, 0.0, 0.025)
SMOKE_H = (0.3, 0.5, 0.7)
# large-error regimes: subcritical, critical, supercritical
LARGE_ERROR = ((0.9, 0.3), (0.75, 0.1), (0.6, 0.05))
USER = dict(n=N_GRID[0], beta=0.25, sigma=1.0, tau=1.0, K=1,
            gamma_values=(2.0, 1.0, 0.7), alpha=-0.2)
USER_ELL = 0.5


def spectral_H_grid():
    return sorted({round(h + (0.0 if h == 0.5 else j), 3)
                   for h in H_STRATA for j in H_JITTER})


def fbm_key(H: float, n: int) -> str:
    return f"fbm-wn:H={H:.3f}:n={n}"


def le_key(H: float, beta: float, n: int) -> str:
    return f"large-error:H={H}:beta={beta}:n={n}"


def user_spec():
    return sf.user_spec(ell=sf.SlowlyVaryingSpec("constant", USER_ELL), **USER)


def expected_slope(spec) -> float | None:
    """Growth exponent of the Fisher information, None at the critical
    point where a log factor bends the log-log fit."""
    if spec.is_critical:
        return None
    dia = min(spec.diamond, 4.0)
    return 1.0 - dia * spec.beta


class SpectralScan(Workload):
    """fisher_integral plus fisher_closed_form for one (spec, n)."""
    name = "spectral_scan"

    def setup(self):
        grid = SMOKE_H if self.smoke else spectral_H_grid()
        self.fbm = {H: sf.fbm_wn_spec(N_GRID[0], H) for H in grid}
        self.le = {(H, b): sf.large_error_spec(N_GRID[0], H, b) for H, b in LARGE_ERROR}
        self.user = user_spec()

    def round_ops(self, r):
        rng = _rng(self.seed, r)
        grid = SMOKE_N_GRID if self.smoke else N_GRID
        hs = SMOKE_H if self.smoke else [
            h if h == 0.5 else round(h + float(rng.choice(H_JITTER)), 3) for h in H_STRATA]
        ops = [Op("fbm-wn", fbm_key(H, n), ("fbm", H, n)) for H in hs for n in grid]
        ops += [Op("large-error", le_key(H, b, n), ("le", (H, b), n))
                for H, b in LARGE_ERROR for n in grid]
        ops = [ops[i] for i in rng.permutation(len(ops))]
        if not self.smoke:
            # mid-round, so the zeta-route ops sample two separate stretches
            ops.insert(len(ops) // 2, Op("user-sequence", f"user:n={USER['n']}",
                                         ("user", None, USER["n"])))
        return ops

    def _spec(self, op):
        family, which, n = op.args
        base = self.user if family == "user" else (self.fbm if family == "fbm" else self.le)[which]
        return sf.with_n(base, n)

    def run(self, op):
        spec = self._spec(op)
        integral = float(sf.fisher_integral(spec))
        report = sf.fisher_closed_form(spec)
        return integral, float(report.closed_form), report.regime

    def check(self, op, result):
        ref = refs()["spectral"][op.key]
        integral, closed, regime = result
        if not (math.isfinite(integral) and math.isfinite(closed)):
            return "non-finite value"
        if _rel(integral, ref["integral"]) > INTEGRAL_RTOL:
            return f"integral {integral!r} vs reference {ref['integral']!r}"
        if _rel(closed, ref["closed_form"]) > CLOSED_RTOL:
            return f"closed form {closed!r} vs reference {ref['closed_form']!r}"
        if regime != ref["regime"]:
            return f"regime {regime} vs reference {ref['regime']}"
        if op.args[0] == "fbm" and op.args[1] == 0.5 and op.args[2] == 10 ** 8:
            ratio = math.sqrt(1e8) / integral
            if abs(ratio / 8.0 - 1.0) > 0.01:
                return f"sqrt(1e8)/I = {ratio:.6g}, not within 1% of 8"
        return None

    def check_round(self, ops, results):
        """Fitted log-log slopes of each spec over the n grid."""
        out = [None] * len(ops)
        groups: dict[tuple, list[int]] = {}
        for i, op in enumerate(ops):
            if op.args[0] != "user":
                groups.setdefault(op.args[:2], []).append(i)
        for idx in groups.values():
            expected = expected_slope(self._spec(ops[idx[0]]))
            if expected is None or len(idx) < 2:
                continue
            ns = np.log([ops[i].args[2] for i in idx])
            for col, what in ((0, "integral"), (1, "closed-form")):
                try:
                    ys = np.log([results[i][col] for i in idx])
                except TypeError:
                    continue  # the op itself failed and is counted already
                slope = float(np.polyfit(ns, ys, 1)[0])
                if abs(slope - expected) > SLOPE_TOL:
                    for i in idx:
                        out[i] = f"{what} slope {slope:.4f} vs {expected:.4f}"
        return out


# ---------------------------------------------------------------------------
# mc_desk
# ---------------------------------------------------------------------------

MC_N, MC_H = 2048, 0.5
MC_SMOKE_N = 512
MC_BATCH = 16
MC_ROUND = 8


class McDesk(Workload):
    """run_study(efficient) in batches of replicates; set-up whitens once."""
    name = "mc_desk"
    min_ops = 40

    def setup(self):
        n = MC_SMOKE_N if self.smoke else MC_N
        self.spec = sf.fbm_wn_spec(n, MC_H)
        sf.fisher.whitened_system(self.spec)
        sf.run_study(self.spec, reps=2, seed=0)  # signal factor, cosine basis

    def round_ops(self, r):
        per = 2 if self.smoke else MC_ROUND
        batch = 4 if self.smoke else MC_BATCH
        ops = []
        for b in range(r * per, (r + 1) * per):
            bseed = int(np.random.SeedSequence([self.seed, b]).generate_state(1)[0])
            ops.append(Op(f"batch of {batch}", f"batch={b}", (bseed, batch)))
        return ops

    def run(self, op):
        bseed, reps = op.args
        study = sf.run_study(self.spec, reps=reps, seed=bseed, estimator="efficient",
                             workers=1)
        split = study.estimates[0].split
        return (tuple(float(v) for v in study.values), float(study.fisher_exact),
                float(split.get("I1_n", math.nan)), float(split.get("I1_An", math.nan)))

    def check(self, op, result):
        if not all(math.isfinite(v) for v in result[0]):
            return "non-finite estimate"
        return None

    def check_run(self, ops, results):
        vals = np.array([v for r in results if r is not None for v in r[0]])
        if vals.size < 2:
            return "too few estimates"
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        bias = abs(float(np.mean(vals)) - self.spec.sigma ** 2)
        if not bias <= MC_SE_BAND * se:
            return f"|mean - sigma^2| = {bias:.4g} exceeds {MC_SE_BAND} SE = {MC_SE_BAND * se:.4g}"
        return None

    def extras(self, ops, results, latencies):
        done = [r for r in results if r is not None]
        if not done:
            return {}
        vals = np.array([v for r in done for v in r[0]])
        info, i1_n, i1_an = done[0][1], done[0][2], done[0][3]
        err2 = (vals - self.spec.sigma ** 2) ** 2
        return {
            "estimator.imse": info * float(np.mean(err2)),
            "estimator.imse_se": info * float(np.std(err2, ddof=1)) / math.sqrt(err2.size),
            "estimator.split_floor": i1_n / (i1_n - i1_an),
        }


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------

CLI_N, CLI_H = 512, 0.5
CLI_REPS = 16
CLI_SCAN = ("--preset", "large-error", "--H", "0.9", "--beta", "0.3",
            "--n-grid", "1e5:1e8:logsteps=4")
CLI_COMMANDS = ("fisher", "simulate", "estimate", "mc-study", "rate-scan")


def _floats(text: str, column: int) -> list[float]:
    return [float(line.split(",")[column]) for line in text.strip().splitlines()[1:]]


class CliRoundtrip(Workload):
    """One `python -m scalefisher.cli` process per op; outputs must equal
    the in-process library results."""
    name = "cli_roundtrip"

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spec = sf.fbm_wn_spec(CLI_N, CLI_H)
        self.model = ("--preset", "fbm-wn", "--H", str(CLI_H), "--n", str(CLI_N))
        self.ref_fisher = sf.fisher_report(self.spec).to_dict()
        self.ref_scan = sf.rate_scan(sf.large_error_spec(10 ** 5, 0.9, 0.3),
                                     [100000, 1000000, 10000000, 100000000])
        sf.sample_z(self.spec, 0)  # signal factor for the sampler reference
        self.root = BENCH_DIR.parent

    def _path(self, name):
        return str(self.workdir / name)

    def round_ops(self, r):
        rng = _rng(self.seed, r)
        s_sim, s_mc = (int(v) for v in rng.integers(0, 2 ** 31, size=2))
        argv = {
            "fisher": ("fisher", *self.model, "--method", "all"),
            "simulate": ("simulate", *self.model, "--seed", str(s_sim), "--reps", "1",
                         "--output", self._path("sim.csv")),
            "estimate": ("estimate", *self.model, "--input", self._path("data.txt")),
            "mc-study": ("mc-study", *self.model, "--seed", str(s_mc),
                         "--reps", str(CLI_REPS), "--per-rep", self._path("reps.csv")),
            "rate-scan": ("rate-scan", *CLI_SCAN, "--output", self._path("scan.csv")),
        }
        seeds = {"simulate": s_sim, "mc-study": s_mc}
        return [Op(cmd, f"{cmd}:round={r}", (argv[cmd], seeds.get(cmd)))
                for cmd in CLI_COMMANDS]

    def run(self, op):
        argv, _ = op.args
        out_file = {"simulate": "sim.csv", "mc-study": "reps.csv",
                    "rate-scan": "scan.csv"}.get(op.label)
        spans = self.workdir / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "scalefisher.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_entry.py"), str(spans), *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=120)
        if self.tracer is not None and spans.exists():
            rec = json.loads(spans.read_text())
            self.tracer.graft(rec["spans"], rec["cache"], self.tracer.root)
            spans.unlink()
        text = Path(self._path(out_file)).read_text() if out_file and proc.returncode == 0 else ""
        return proc.returncode, proc.stdout, text

    def check(self, op, result):
        code, stdout, text = result
        if code != 0:
            return f"exit code {code}"
        seed = op.args[1]
        if op.label == "fisher":
            got = json.loads(stdout)
            bad = [k for k, v in self.ref_fisher.items() if got.get(k) != v]
            return f"fisher fields differ: {bad}" if bad else None
        if op.label == "simulate":
            z = sf.sample_z(self.spec, seed, 0)
            vals = _floats(text, 2)
            Path(self._path("data.txt")).write_text(
                "".join(line.split(",")[2] + "\n" for line in text.strip().splitlines()[1:]))
            return None if vals == z.tolist() else "simulated values differ from sample_z"
        if op.label == "estimate":
            z = np.loadtxt(self._path("data.txt"))
            want = json.loads(sf.estimate(z, self.spec).to_json())
            return None if json.loads(stdout) == want else "estimate differs"
        if op.label == "mc-study":
            study = sf.run_study(self.spec, CLI_REPS, seed)
            if json.loads(stdout) != json.loads(study.to_json()):
                return "mc-study summary differs"
            return None if _floats(text, 3) == study.values.tolist() \
                else "per-replicate estimates differ"
        rows = [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]
        if rows != [list(map(float, r)) for r in self.ref_scan.rows()]:
            return "rate-scan rows differ"
        slopes = {"slope_integral": self.ref_scan.slope_integral,
                  "slope_closed_form": self.ref_scan.slope_closed_form}
        return None if json.loads(stdout) == slopes else "rate-scan slopes differ"

    def extras(self, ops, results, latencies):
        out = {}
        for cmd in CLI_COMMANDS:
            lat = [t for op, t in zip(ops, latencies) if op.label == cmd]
            out[f"cli.{cmd}.p50_ms"] = 1e3 * float(np.median(lat)) if lat else 0.0
        rounds = max(len(ops) // len(CLI_COMMANDS), 1)
        written = sum(len(r[2].encode()) for r in results if r is not None)
        out["cli.bytes_written"] = written / rounds
        return out

    def close(self):
        if self.workdir is not None and self.workdir.exists():
            for f in self.workdir.iterdir():
                f.unlink()
            self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (DenseExact, SpectralScan, McDesk, CliRoundtrip)}
