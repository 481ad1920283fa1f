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
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decay import SeriesError, certify_envelope, fit_decay
from .norms_grids import Grid, WeightSpec, build_grid
from .particles import compare_to_kinetic, comparison_inputs
from .scheme import (
    NotConvergingError,
    SolveResult,
    TailBudgetError,
    outer_solve,
    reconstruct,
    solve_inputs,
    verify_lemmas,
)
from .spectral_state import AsymptoticState, FrequencyProfile, real

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


def _as_complex(v):
    # [re, im] as a complex number; AsymptoticState refuses the rest
    if isinstance(v, list) and len(v) == 2:
        return complex(real("mode amplitude", v[0]), real("mode amplitude", v[1]))
    return v


def _whole(v):
    # a JSON count may be written as an integral float: 16.0 for 16
    return int(v) if isinstance(v, float) and v.is_integer() else v


def _unique_keys(pairs) -> dict:
    # a JSON object as a dict; json.loads would keep the last of two equal
    # keys and drop the other's value without a word
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _mode_index(key: str) -> int:
    # int() also reads "01", " 1", "1_0" and the digits of other scripts,
    # so two keys could name one mode and one amplitude be dropped: a mode
    # key must be the canonical decimal of its integer
    try:
        k = int(key)
    except ValueError:
        k = None
    if k is None or str(k) != key:
        raise ConfigError(f"mode key {key!r} is not a canonical decimal integer")
    return k


def load_config(path, output_dir_override=None) -> RunConfig:
    """Parse a JSON run config into the arguments of a run.

    Each value goes to the library call that takes it, and a refusal there
    is re-raised as the ConfigError "invalid config: <reason>": the solve's
    arguments are checked by ``scheme.solve_inputs`` and the particle
    section by ``particles.comparison_inputs``, both before the solve.
    The JSON adds its own ConfigErrors: a file that cannot be read, is not
    UTF-8 or not JSON, a key given twice in one object, a missing key or
    section, a section that is not an object, a mode key that is not a
    canonical decimal and an output_dir that is not a string.  An
    amplitude may be [re, im], a count an integral float (16.0), and the
    particle seed defaults to 1.  A weight class other than the state's
    decay class is legal but logged as a warning.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        pspec = _section(raw, "profile")
        profile = FrequencyProfile(str(_require(pspec, "kind")), _require(pspec, "scale"))
        modes = {_mode_index(k): _as_complex(v) for k, v in _section(raw, "modes").items()}
        dspec = _section(raw, "decay")
        state = AsymptoticState(profile, modes, str(_require(dspec, "kind")),
                                _require(dspec, "rate"))
        gspec = _section(raw, "grid")
        grid = build_grid(profile, _require(gspec, "t_max"), _require(gspec, "dt"),
                          _whole(_require(gspec, "n_theta")), _whole(gspec.get("n_omega")))
        weight = _section(raw, "weight", required=False)
        if weight is not None:
            weight = WeightSpec(str(_require(weight, "kind")), _require(weight, "rate"))
        tols = _section(raw, "tolerances", required=False) or {}
        mu, weight, tol_outer, tol_picard, tail_budget = solve_inputs(
            state, grid, _require(raw, "mu"), weight,
            **{k: tols[k] for k in ("tol_outer", "tol_picard", "tail_budget") if k in tols},
        )
        if weight.kind != state.decay_kind:
            log.warning(
                "weight class %r does not match the state's declared decay %r; "
                "norms will measure a different envelope than the data promises",
                weight.kind,
                state.decay_kind,
            )

        particles = _section(raw, "particles", required=False)
        if particles is not None:
            # the default seed is the pinned acceptance realization
            n, dt, seed = comparison_inputs(grid, _whole(_require(particles, "n")),
                                            _require(particles, "dt"),
                                            _whole(particles.get("seed", 1)))
            particles = {"n": n, "dt": dt, "seed": seed}

        out = output_dir_override or os.environ.get(OUTPUT_DIR_ENV) or raw.get(
            "output_dir", "."
        )
        if not isinstance(out, str):
            raise ConfigError(f"output_dir must be a string, got {out!r}")
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as e:
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


def _json_default(x):
    # json.dumps's hook for what it cannot write itself: an array as a
    # list, a numpy scalar as the Python number it holds
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _dump_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1, sort_keys=True, default=_json_default) + "\n")


def _write_csv(path: Path, header: str, columns):
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt=_CSV_FMT, delimiter=",", header=header, comments="")


def _try_fit(times, values, kind):
    """Fit + certify, degrading to None when the path carries no signal
    (all below floor, too short a window) instead of failing the run."""
    try:
        model = fit_decay(times, values, kind)
    except ValueError as e:
        log.info("decay fit (%s) skipped: %s", kind, e)
        return None, None
    cert = certify_envelope(times, values, model)
    return model, cert


def _summarize(cfg: RunConfig, result: SolveResult, recon, checks) -> dict:
    times = result.grid.times()
    recs = result.ledger.records
    r_path = result.path.r()
    fit_r, cert_r = _try_fit(times, r_path, cfg.weight.kind)
    fit_d, cert_d = _try_fit(times, recon.dephasing, cfg.weight.kind)

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


def _solve_and_write(cfg: RunConfig):
    """Shared solve-certify-write path; returns (exit_code, result|None).

    Raises ConfigError, before the solve, when the output directory cannot
    be created.
    """
    outdir = cfg.output_dir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {outdir}: {e.strerror or e}") from e
    try:
        result = outer_solve(cfg.state, cfg.grid, cfg.mu, cfg.weight, cfg.tol_outer,
                             cfg.tol_picard, cfg.tail_budget)
    except NotConvergingError as e:
        log.error("solver refused: %s", e.reason)
        _dump_json(outdir / "ledger.json", e.ledger.to_dict())
        return 3, None
    except TailBudgetError as e:
        log.error("tail certification failed: %s", e)
        return 1, None

    times = cfg.grid.times()
    recon = reconstruct(result)
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

    ok = bool(checks["all_explicit_pass"] and recon.mass_ok() and recon.gamma_ok()
              and result.converged)
    log.info(
        "solve finished: n_outer=%d explicit_checks=%s mass_ok=%s gamma_margin=%r",
        result.n_outer,
        checks["all_explicit_pass"],
        recon.mass_ok(),
        recon.gamma_margin,
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
    run = compare_to_kinetic(result, n, dt_p, seed)
    if run.n_resampled:
        log.info("resampled %d labels outside the frequency rule", run.n_resampled)

    outdir = cfg.output_dir
    r_n = np.abs(run.z)
    _write_csv(outdir / "particles.csv", "t,r_n,phi_n", (run.times, r_n, np.angle(run.z)))
    _write_csv(
        outdir / "comparison.csv",
        "t,r_kinetic,r_n,abs_diff",
        (run.times, run.r_kinetic, r_n, run.gap),
    )
    log.info(
        "particle run: N=%d dt=%g sup|R_N - R|=%.4g", n, dt_p, float(run.gap.max())
    )
    return 0


def run_fit(csv_path, column: str, kind: str, window=None) -> int:
    """Standalone decay fit of one CSV column; prints JSON to stdout.

    Returns 2 for a CSV that cannot be read as a header and full rows, or
    a series or window that ``fit_decay`` or ``certify_envelope`` refuses
    (SeriesError), 1 when the fit fails on its data, else 0.
    """
    try:
        with open(csv_path) as fh:
            names = [c.strip() for c in fh.readline().split(",")]
        with warnings.catch_warnings():
            # a header with no rows is refused below, in one line
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as e:
        log.error("cannot read CSV %s: %s", csv_path, e)
        return 2
    if not names or names[0] != "t" or column not in names:
        log.error("CSV must have a 't' first column and a %r column", column)
        return 2
    if data.shape[0] == 0 or data.shape[1] != len(names):
        log.error(
            "CSV %s needs data rows of %d values, one per header name; found %d rows of %d",
            csv_path, len(names), data.shape[0], data.shape[1],
        )
        return 2
    times = data[:, 0]
    values = data[:, names.index(column)]
    try:
        model = fit_decay(times, values, kind, window=window)
        cert = certify_envelope(times, values, model)
    except SeriesError as e:
        log.error("CSV %s, columns t and %s: %s", csv_path, column, e)
        return 2
    except ValueError as e:
        # too few usable points, negative values or a path that does not decay
        log.error("fit failed: %s", e)
        return 1
    print(
        json.dumps(
            {"fit": dataclasses.asdict(model), "envelope": dataclasses.asdict(cert)},
            indent=1,
            sort_keys=True,
            default=_json_default,
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
