"""Command-line front end: fisher, estimate, simulate, mc-study, rate-scan.

All file outputs are written atomically (temp file + rename); exit code 0
means the result file or stdout payload was fully written, 2 flags invalid
inputs, 3 flags numerical failures."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from ._quad import QuadratureError
from .estimator import InsufficientInformation, estimate
from .fisher import METHODS, fisher_report, rate_scan
from .linalg import NotPositiveDefiniteError, _panel_ranges
from .model import (
    CONVENTIONS,
    DELTA_DELTAT,
    PRESET_IDS,
    DomainError,
    ModelSpec,
    SlowlyVaryingSpec,
    fbm_wn_spec,
    integrated_fbm_spec,
    large_error_spec,
    user_spec,
)
from .montecarlo import _sample_each, run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (QuadratureError, NotPositiveDefiniteError,
                     InsufficientInformation, np.linalg.LinAlgError)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".scalefisher-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    """``text`` to the --output file or else stdout, ending in one newline
    either way."""
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "output", None):
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


def _number(flag: str, text: str, kind=float):
    """kind(text) if that is a finite number, else a DomainError naming the flag."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"{flag}: {text!r} is not a finite number")
    return value


def _add_model_args(p: argparse.ArgumentParser, require_n: bool = True) -> None:
    p.add_argument("--preset", choices=PRESET_IDS, default="fbm-wn")
    p.add_argument("--n", type=int, required=require_n, help="sample size")
    p.add_argument("--H", type=float, help="Hurst index (fbm-wn, large-error, integrated-fbm)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--beta", type=float, help="scale exponent (large-error and user presets)")
    p.add_argument("--K", type=int, help="difference order (user preset)")
    p.add_argument("--alpha", type=float, help="long-memory index (user preset)")
    p.add_argument("--gamma", type=str,
                   help="comma-separated leading autocovariances (user preset)")
    p.add_argument("--ell", type=str,
                   help="slowly varying part, constant:C or logpow:C:RHO "
                        "(user preset; default constant:1)")
    p.add_argument("--convention", choices=CONVENTIONS,
                   help=f"noise convention (user preset; default {DELTA_DELTAT})")


# the model flags each preset reads besides --n, --sigma and --tau; any other
# one given is rejected rather than silently ignored
_PRESET_FLAGS = {
    "fbm-wn": ("H",),
    "large-error": ("H", "beta"),
    "integrated-fbm": ("H",),
    "user": ("beta", "K", "alpha", "gamma", "ell", "convention"),
}
_MODEL_FLAGS = ("H", "beta", "K", "alpha", "gamma", "ell", "convention")
# the named presets' constructors, called as (n, *preset flags, sigma, tau)
_NAMED_PRESETS = {
    "fbm-wn": fbm_wn_spec,
    "large-error": large_error_spec,
    "integrated-fbm": integrated_fbm_spec,
}


def _parse_ell(text: str) -> SlowlyVaryingSpec:
    parts = text.split(":")
    if parts[0] == "constant" and len(parts) == 2:
        return SlowlyVaryingSpec("constant", _number("--ell", parts[1]))
    if parts[0] == "logpow" and len(parts) == 3:
        return SlowlyVaryingSpec("log_power", _number("--ell", parts[1]),
                                 _number("--ell", parts[2]))
    raise DomainError(f"--ell: cannot parse slowly varying spec {text!r}")


def build_spec(args) -> ModelSpec:
    flags = _PRESET_FLAGS[args.preset]
    unread = [f"--{k}" for k in _MODEL_FLAGS
              if getattr(args, k) is not None and k not in flags]
    if unread:
        raise DomainError(f"{args.preset} preset does not read {', '.join(unread)}")
    if args.preset in _NAMED_PRESETS:
        values = [getattr(args, k) for k in flags]
        if None in values:
            raise DomainError(f"{args.preset} preset requires "
                              + " and ".join(f"--{k}" for k in flags))
        return _NAMED_PRESETS[args.preset](args.n, *values, args.sigma, args.tau)
    required = {"--beta": args.beta, "--K": args.K, "--alpha": args.alpha,
                "--gamma": args.gamma}
    missing = [k for k, v in required.items() if v is None]
    if missing:
        raise DomainError(f"user preset requires {', '.join(missing)}")
    gamma_vals = [_number("--gamma", v) for v in args.gamma.split(",") if v.strip()]
    return user_spec(args.n, args.beta, args.sigma, args.tau, args.K,
                     gamma_vals, args.alpha,
                     _parse_ell("constant:1" if args.ell is None else args.ell),
                     noise_convention=args.convention or DELTA_DELTAT)


def _grid_int(v: float) -> int:
    """A log-grid point as an int: the exact 10**k when v is that power up to
    rounding, so 1e30 prints as 1 and 30 zeros rather than its binary value."""
    k = round(math.log10(v))
    if k >= 0 and math.isclose(v, 10.0 ** k, rel_tol=1e-12):
        return 10 ** k
    return int(round(v))


def _grid_point(text: str) -> int:
    """A sample size of --n-grid as an exact int: an integer literal by int,
    a float literal that is a whole number by ``_grid_int``."""
    try:
        n = int(text)
    except ValueError:
        v = _number("--n-grid", text)
        n = _grid_int(v) if v.is_integer() and v >= 1 else None
    if n is None or n < 1:
        raise DomainError(f"--n-grid: {text!r} is not a positive whole number")
    return n


def _parse_n_grid(text: str) -> list[int]:
    """Grid syntax: 'n1,n2,...' or 'lo:hi:logsteps=K'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("logsteps="):
            raise DomainError(f"--n-grid: cannot parse {text!r}")
        lo, hi = _grid_point(parts[0]), _grid_point(parts[1])
        steps = _number("--n-grid", parts[2].split("=", 1)[1], int)
        if steps < 2 or hi <= lo:
            raise DomainError(f"--n-grid: invalid bounds in {text!r}")
        # Python ints: int64 would overflow beyond 9.2e18
        inner = np.geomspace(float(lo), float(hi), steps)[1:-1]
        return sorted({lo, hi, *(_grid_int(v) for v in inner)})
    grid = [_grid_point(v) for v in text.split(",") if v.strip()]
    if not grid:
        raise DomainError(f"--n-grid: {text!r} lists no sample size")
    return grid


def _read_data(path: str, n: int) -> np.ndarray:
    try:
        fh = open(path, "r")
    except OSError as exc:
        raise DomainError(f"cannot open input file: {exc}") from exc
    values = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                raise DomainError(
                    f"line {lineno}: cannot parse {token!r} as a number") from None
    if not values:
        raise DomainError("input file contains no data")
    if len(values) != n:
        raise DomainError(f"input has {len(values)} values but spec n = {n}")
    return np.array(values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fisher(args) -> int:
    spec = build_spec(args)
    methods = METHODS if args.method == "all" else (args.method,)
    report = fisher_report(spec, methods=methods)
    payload = report.to_dict()
    if args.method == "all":
        vals = {k: payload[k] for k in (m.replace("-", "_") for m in METHODS)}
        diffs = {}
        for a in vals:
            for b in vals:
                if a < b and vals[a] and vals[b]:
                    diffs[f"{a}_vs_{b}"] = abs(vals[a] - vals[b]) / max(
                        abs(vals[a]), abs(vals[b]))
        payload["relative_differences"] = diffs
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_estimate(args) -> int:
    spec = build_spec(args)
    z = _read_data(args.input, spec.n)
    result = estimate(z, spec)
    _emit(args, result.to_json())
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = build_spec(args)
    if args.reps < 1:
        raise DomainError("need at least one replicate")
    lines = ["rep,index,z"]
    # a panel of replicates at a time, as run_study draws them; each column
    # has the bits of its own sample_z
    for reps in _panel_ranges(args.reps):
        z = _sample_each(spec, args.seed, reps)
        for j, rep in enumerate(reps):
            lines.extend(f"{rep},{i},{_fmt(v)}" for i, v in enumerate(z[:, j]))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_mc_study(args) -> int:
    spec = build_spec(args)
    study = run_study(spec, args.reps, args.seed, estimator=args.estimator)
    if args.per_rep:
        rows = ["rep,V,sigma2_tilde,sigma2_hat"]
        rows.extend(
            f"{i},{_fmt(e.preliminary_V)},{_fmt(e.sigma2_tilde)},{_fmt(e.sigma2_hat)}"
            for i, e in enumerate(study.estimates))
        _atomic_write(args.per_rep, "\n".join(rows) + "\n")
    _emit(args, study.to_json())
    return EXIT_OK


def cmd_rate_scan(args) -> int:
    if args.n is not None:
        raise DomainError("rate-scan does not read --n; give the sizes with --n-grid")
    grid = _parse_n_grid(args.n_grid)
    args.n = grid[0]  # the spec needs some n; rate_scan replaces it per grid value
    spec = build_spec(args)
    scan = rate_scan(spec, grid)
    lines = ["n,fisher_integral,fisher_closed_form"]
    lines.extend(f"{n},{_fmt(a)},{_fmt(b)}" for n, a, b in scan.rows())
    _emit(args, "\n".join(lines) + "\n")
    summary = {"slope_integral": scan.slope_integral,
               "slope_closed_form": scan.slope_closed_form}
    if getattr(args, "output", None):
        sys.stdout.write(json.dumps(summary) + "\n")
    else:
        sys.stderr.write(json.dumps(summary) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalefisher",
        description="Fisher information and efficient estimation of the scale "
                    "parameter in Gaussian signal-plus-noise time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fisher", help="compute Fisher information")
    _add_model_args(p)
    p.add_argument("--method", choices=(*METHODS, "all"), default="all")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("estimate", help="estimate sigma^2 from a data file")
    _add_model_args(p)
    p.add_argument("--input", required=True, help="newline-delimited data values")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="draw replicates of the model")
    _add_model_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mc-study", help="replicate simulate-then-estimate study")
    _add_model_args(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--estimator", choices=("oracle", "efficient"), default="efficient")
    p.add_argument("--per-rep", help="also write a per-replicate CSV here")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_mc_study)

    p = sub.add_parser("rate-scan", help="Fisher growth across sample sizes")
    _add_model_args(p, require_n=False)
    p.add_argument("--n-grid", required=True,
                   help="'n1,n2,...' or 'lo:hi:logsteps=K'")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_rate_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except ArithmeticError as exc:
        # a float out of range: a power of sigma or a Fisher value past 1e308
        sys.stderr.write(f"numerical error: a value left the float range: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
