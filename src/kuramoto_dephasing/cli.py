"""Batch front-end: config parsing, run orchestration, artifact output.

One JSON config file fully determines a run; command-line flags only
choose paths and verbosity, never physics, so a run is reproducible from
the config alone.  Subcommands:

  solve     outer solve + density reconstruction + decay fits; writes
            order_parameter.csv, dephasing.csv, ledger.json, summary.json
  simulate  solve, then a finite-N forward cross-check; writes
            particles.csv and comparison.csv next to the solve outputs
  fit       standalone decay fit of any exported CSV column
  verify    full acceptance battery (optionally validating a config first)

Exit codes: 0 all checks pass, 1 a certification failed, 2 unusable
config, 3 the solver refused to converge (ledger.json still written).

The kinetic outputs are bit-identical across runs of the same config;
seeds enter only the particle side.  CSV: header row, t in the first
column, 17-significant-digit scientific format.  summary.json carries a
schema_version and the frozen key set {config_echo, norms,
cauchy_ratios, contraction, estimrn_check, lemma_ratios, decay_fit,
envelope, tail_bounds, schema_version}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decay import (
    DecayModel,
    InsufficientDataError,
    NonPositiveValuesError,
    certify_envelope,
    fit_decay,
)
from .norms_grids import Grid, GridError, WeightSpec, build_grid
from .particles import empirical_order_parameter, init_from_solution, simulate
from .scheme import (
    NotConvergingError,
    SolveResult,
    TailBudgetError,
    outer_solve,
    reconstruct,
    verify_lemmas,
)
from .spectral_state import AsymptoticState, FrequencyProfile, InvalidStateError

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "run_solve",
    "run_simulate",
    "run_fit",
    "run_verify",
    "main",
]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "KURAMOTO_DEPHASING_OUTPUT"
_CSV_FMT = "%.16e"

log = logging.getLogger("kuramoto_dephasing")


class ConfigError(ValueError):
    """The config file cannot be turned into a valid run."""


@dataclass(frozen=True)
class RunConfig:
    state: AsymptoticState
    grid: Grid
    mu: float
    weight: WeightSpec
    tol_picard: float
    tol_outer: float
    tail_budget: float | None
    particles: dict | None
    output_dir: Path
    echo: dict


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _section(cfg: dict, key: str, required: bool = True):
    # an optional section may be absent or null
    sec = cfg.get(key)
    if sec is None:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return None
    if not isinstance(sec, dict):
        raise ConfigError(
            f"config section {key!r} must be a JSON object, got {type(sec).__name__}"
        )
    return sec


def _finite(name: str, v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {v!r}")
    return x


def _as_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"mode amplitude must be a number or [re, im], got {v!r}")


def load_config(path, output_dir_override=None) -> RunConfig:
    """Parse and validate a JSON run config.

    Raises ConfigError for anything the run cannot start from: JSON
    syntax, missing keys, a section that is not an object, non-finite
    numbers, invalid state or grid parameters, a float64 field larger than
    physical memory, a weight that overflows at t_max or has no finite
    gains, tolerances that are not positive.  A weight class that
    disagrees with the state's declared decay class is legal but logged
    as a warning.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        pspec = _section(raw, "profile")
        profile = FrequencyProfile(
            kind=str(_require(pspec, "kind")), scale=float(_require(pspec, "scale"))
        )
        modes = {int(k): _as_complex(v) for k, v in _section(raw, "modes").items()}
        dspec = _section(raw, "decay")
        state = AsymptoticState(
            profile=profile,
            modes=modes,
            decay_kind=str(_require(dspec, "kind")),
            decay_rate=float(_require(dspec, "rate")),
        )
        gspec = _section(raw, "grid")
        t_max = _finite("grid t_max", _require(gspec, "t_max"))
        dt = _finite("grid dt", _require(gspec, "dt"))
        n_theta = int(_require(gspec, "n_theta"))
        n_omega = int(gspec["n_omega"]) if "n_omega" in gspec else None
        grid = build_grid(profile, t_max=t_max, dt=dt, n_theta=n_theta, n_omega=n_omega)
        mu = float(_require(raw, "mu"))
        if not (mu >= 0.0 and math.isfinite(mu)):
            raise ConfigError("mu must be finite and >= 0")

        wspec = _section(raw, "weight", required=False)
        if wspec is None:
            weight = WeightSpec(state.decay_kind, state.decay_rate)
        else:
            weight = WeightSpec(
                str(_require(wspec, "kind")), float(_require(wspec, "rate"))
            )
        if weight.kind != state.decay_kind:
            log.warning(
                "weight class %r does not match the state's declared decay %r; "
                "norms will measure a different envelope than the data promises",
                weight.kind,
                state.decay_kind,
            )
        weight.check_finite(grid.t_max)

        tols = _section(raw, "tolerances", required=False) or {}
        tol_picard = float(tols.get("tol_picard", 1e-12))
        tol_outer = float(tols.get("tol_outer", 1e-10))
        tail_budget = tols.get("tail_budget")
        if tail_budget is not None:
            tail_budget = float(tail_budget)
        for name, val in (
            ("tol_picard", tol_picard),
            ("tol_outer", tol_outer),
            ("tail_budget", tail_budget),
        ):
            if val is not None and not (val > 0.0 and math.isfinite(val)):
                raise ConfigError(f"tolerance {name} must be finite and > 0")

        particles = _section(raw, "particles", required=False)
        if particles is not None:
            particles = {
                "n": int(_require(particles, "n")),
                "dt": _finite("particles dt", _require(particles, "dt")),
                # default matches the pinned acceptance realization
                "seed": int(particles.get("seed", 1)),
            }
            if particles["n"] < 1 or particles["dt"] <= 0.0:
                raise ConfigError("particles need n >= 1 and dt > 0")

        out = output_dir_override or os.environ.get(OUTPUT_DIR_ENV) or raw.get(
            "output_dir", "."
        )
        if not isinstance(out, str):
            raise ConfigError(f"output_dir must be a string, got {out!r}")
    except ConfigError:
        raise
    except (InvalidStateError, GridError, ValueError, TypeError, OverflowError) as e:
        raise ConfigError(f"invalid config: {e}") from e
    return RunConfig(
        state=state,
        grid=grid,
        mu=mu,
        weight=weight,
        tol_picard=tol_picard,
        tol_outer=tol_outer,
        tail_budget=tail_budget,
        particles=particles,
        output_dir=Path(out),
        echo=raw,
    )


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    return x


def _dump_json(path: Path, obj):
    path.write_text(json.dumps(_jsonable(obj), indent=1, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, columns):
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt=_CSV_FMT, delimiter=",", header=header, comments="")


def _try_fit(times, values, kind, window):
    """Fit + certify, degrading to None when the path carries no signal
    (all below floor, too short a window) instead of failing the run."""
    try:
        model = fit_decay(times, values, kind, window=window)
    except (InsufficientDataError, NonPositiveValuesError, ValueError) as e:
        log.info("decay fit (%s) skipped: %s", kind, e)
        return None, None
    cert = certify_envelope(times, values, model)
    return model, cert


def _fit_window(kind: str, t_max: float):
    if kind == "exponential":
        return (min(2.0, 0.25 * t_max), min(15.0, t_max))
    return (min(5.0, 0.25 * t_max), t_max)


def _summarize(cfg: RunConfig, result: SolveResult, recon, checks) -> dict:
    times = result.grid.times()
    recs = result.ledger.records
    r_path = result.path.r()
    window = _fit_window(cfg.weight.kind, result.grid.t_max)
    fit_r, cert_r = _try_fit(times, r_path, cfg.weight.kind, window)
    fit_d, cert_d = _try_fit(times, recon.dephasing, cfg.weight.kind, window)

    def model_dict(m):
        return None if m is None else dataclasses.asdict(m)

    return {
        "schema_version": SCHEMA_VERSION,
        "config_echo": cfg.echo,
        "norms": {
            "free_norm": result.ledger.free_norm,
            "final_r_norm": result.path.norm,
            "per_iterate_r_norm": [r["r_norm"] for r in recs],
            "final_deviation_norm": recs[-1]["dev_norm"] if recs else 0.0,
            "sup_r": float(r_path.max()),
            "mass": recon.mass,
            "mass_ok": recon.mass_ok(),
            "mass_times": recon.times,
            "jacobian_min": recon.jacobian_min,
            "density_min": recon.min_value,
        },
        "cauchy_ratios": [
            r["cauchy_ratio"] for r in recs if r["cauchy_ratio"] is not None
        ],
        "contraction": {
            **checks["explicit"]["contraction"],
            "per_iterate": [dict(r["contraction"]) for r in recs],
        },
        "estimrn_check": checks["explicit"]["deviation_bound"],
        "lemma_ratios": {
            "path_lipschitz": checks["explicit"]["path_lipschitz"],
            "generic": checks["generic"],
            "all_explicit_pass": checks["all_explicit_pass"],
        },
        "decay_fit": {
            "order_parameter": model_dict(fit_r),
            "dephasing": model_dict(fit_d),
        },
        "envelope": {
            "order_parameter": None if cert_r is None else dataclasses.asdict(cert_r),
            "dephasing": None if cert_d is None else dataclasses.asdict(cert_d),
        },
        "tail_bounds": {
            "budget": result.ledger.tail_budget,
            "per_iterate": [r["tail_bound"] for r in recs],
            "final": recs[-1]["tail_bound"] if recs else 0.0,
        },
    }


def _mass_times(grid: Grid):
    wanted = [t for t in (0.0, 5.0, 10.0) if t <= grid.t_max + 1e-12]
    if len(wanted) < 3:
        wanted = [0.0, round(0.5 * grid.t_max / grid.dt) * grid.dt, grid.t_max]
    return tuple(dict.fromkeys(wanted))


def _solve_and_write(cfg: RunConfig):
    """Shared solve-certify-write path; returns (exit_code, result|None)."""
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = outer_solve(
            cfg.state,
            cfg.grid,
            cfg.mu,
            weight=cfg.weight,
            tol_outer=cfg.tol_outer,
            tol_picard=cfg.tol_picard,
            tail_budget=cfg.tail_budget,
        )
    except NotConvergingError as e:
        log.error("solver refused: %s", e.reason)
        _dump_json(outdir / "ledger.json", e.ledger.to_dict())
        return 3, None
    except TailBudgetError as e:
        log.error("tail certification failed: %s", e)
        return 1, None

    times = cfg.grid.times()
    recon = reconstruct(result, times=_mass_times(cfg.grid))
    checks = verify_lemmas(result.ledger, cfg.weight, cfg.mu)
    summary = _summarize(cfg, result, recon, checks)

    z = result.path.values
    _write_csv(
        outdir / "order_parameter.csv",
        "t,re_z,im_z,r",
        (times, z.real, z.imag, np.abs(z)),
    )
    _write_csv(outdir / "dephasing.csv", "t,distance", (times, recon.dephasing))
    _dump_json(outdir / "ledger.json", result.ledger.to_dict())
    _dump_json(outdir / "summary.json", summary)

    ok = bool(checks["all_explicit_pass"] and recon.mass_ok() and result.converged)
    log.info(
        "solve finished: n_outer=%d explicit_checks=%s mass_ok=%s",
        result.n_outer,
        checks["all_explicit_pass"],
        recon.mass_ok(),
    )
    return (0 if ok else 1), result


def run_solve(cfg: RunConfig) -> int:
    """Solve, certify, write artifacts.  Returns the process exit code."""
    code, _ = _solve_and_write(cfg)
    return code


def run_simulate(cfg: RunConfig) -> int:
    """Kinetic solve plus finite-N forward run; writes the comparison."""
    if cfg.particles is None:
        raise ConfigError("simulate needs a 'particles' section in the config")
    code, result = _solve_and_write(cfg)
    if result is None:
        return code
    n, dt_p, seed = (cfg.particles[k] for k in ("n", "dt", "seed"))
    ens, n_resampled = init_from_solution(result.field, cfg.state, n, seed=seed)
    if n_resampled:
        log.info("resampled %d labels outside the frequency rule", n_resampled)
    n_steps = int(round(cfg.grid.t_max / dt_p))
    stride = max(1, int(round(cfg.grid.dt / dt_p)))
    times_p, z_p, _ = simulate(ens, dt_p, n_steps, record_every=stride)

    outdir = cfg.output_dir
    _write_csv(
        outdir / "particles.csv",
        "t,r_n,phi_n",
        (times_p, np.abs(z_p), np.angle(z_p)),
    )
    r_kin = np.interp(times_p, cfg.grid.times(), result.path.r())
    diff = np.abs(np.abs(z_p) - r_kin)
    _write_csv(
        outdir / "comparison.csv",
        "t,r_kinetic,r_n,abs_diff",
        (times_p, r_kin, np.abs(z_p), diff),
    )
    log.info(
        "particle run: N=%d dt=%g sup|R_N - R|=%.4g", n, dt_p, float(diff.max())
    )
    return 0


def run_fit(csv_path, column: str, kind: str, window=None) -> int:
    """Standalone decay fit of one CSV column; prints JSON to stdout."""
    try:
        with open(csv_path) as fh:
            names = [c.strip() for c in fh.readline().split(",")]
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as e:
        log.error("cannot read CSV %s: %s", csv_path, e)
        return 2
    if not names or names[0] != "t" or column not in names:
        log.error("CSV must have a 't' first column and a %r column", column)
        return 2
    times = data[:, 0]
    values = data[:, names.index(column)]
    try:
        model = fit_decay(times, values, kind, window=window)
    except (InsufficientDataError, NonPositiveValuesError, ValueError) as e:
        log.error("fit failed: %s", e)
        return 1
    cert = certify_envelope(times, values, model)
    print(
        json.dumps(
            _jsonable(
                {
                    "fit": dataclasses.asdict(model),
                    "envelope": dataclasses.asdict(cert),
                }
            ),
            indent=1,
            sort_keys=True,
        )
    )
    return 0


def run_verify(config_path=None) -> int:
    """Acceptance battery; optionally validates a user config first."""
    if config_path is not None:
        try:
            load_config(config_path)
        except ConfigError as e:
            log.error("config check failed: %s", e)
            print(f"config check: FAIL ({e})")
            return 2
        print("config check: pass")
    from .acceptance import run_all

    results = run_all()
    for res in results:
        print(res.line())
    n_bad = sum(not r.passed for r in results)
    print(f"{len(results) - n_bad}/{len(results)} acceptance criteria passed")
    return 0 if n_bad == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kuramoto-dephasing",
        description="kinetic mean-field phase solver with certified decay",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("solve", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output-dir", default=None)

    p = sub.add_parser("fit")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", default="r")
    p.add_argument(
        "--kind", default="exponential", choices=("exponential", "polynomial")
    )
    p.add_argument("--window", nargs=2, type=float, default=None)

    p = sub.add_parser("verify")
    p.add_argument("--config", default=None)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )

    if args.command == "fit":
        window = tuple(args.window) if args.window else None
        return run_fit(args.csv, args.column, args.kind, window)
    if args.command == "verify":
        return run_verify(args.config)

    try:
        cfg = load_config(args.config, output_dir_override=args.output_dir)
        if args.command == "solve":
            return run_solve(cfg)
        return run_simulate(cfg)
    except ConfigError as e:
        log.error("%s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
