"""Command-line contract tests: exit codes, artifact schemas, and
bit-for-bit reproducibility of the kinetic outputs."""

import copy
import dataclasses
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kuramoto_dephasing import WeightSpec, cli, norms_grids, outer_solve, particles, reconstruct
from kuramoto_dephasing.cli import ConfigError, load_config, main

SUMMARY_KEYS = {
    "config_echo",
    "norms",
    "cauchy_ratios",
    "contraction",
    "estimrn_check",
    "lemma_ratios",
    "decay_fit",
    "envelope",
    "tail_bounds",
    "schema_version",
}

KINETIC_FILES = ("order_parameter.csv", "dephasing.csv", "ledger.json", "summary.json")


def base_config(**overrides):
    cfg = {
        "profile": {"kind": "lorentzian", "scale": 1.0},
        "modes": {"1": [0.05, 0.0]},
        "decay": {"kind": "exponential", "rate": 0.9},
        "grid": {"t_max": 16.0, "dt": 0.05, "n_theta": 32},
        "mu": 0.05,
        "tolerances": {"tol_picard": 1e-12, "tol_outer": 1e-10},
    }
    cfg.update(overrides)
    return cfg


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("solve")
    cfg = write_config(root / "cfg.json", base_config())
    out = root / "out"
    code = main(["solve", "--config", cfg, "--output-dir", str(out)])
    return code, out


def test_solve_exit_code(solve_run):
    assert solve_run[0] == 0


def test_solve_writes_all_artifacts(solve_run):
    _, out = solve_run
    for name in KINETIC_FILES:
        assert (out / name).is_file(), name


def test_summary_schema(solve_run):
    summary = json.loads((solve_run[1] / "summary.json").read_text())
    assert set(summary) == SUMMARY_KEYS
    assert summary["schema_version"] == 1
    assert summary["contraction"]["pass"] is True
    assert summary["norms"]["mass_ok"] is True
    assert summary["decay_fit"]["order_parameter"]["rate"] == pytest.approx(
        1.0, abs=0.01
    )


def test_csv_layout(solve_run):
    _, out = solve_run
    op = (out / "order_parameter.csv").read_text().splitlines()
    assert op[0] == "t,re_z,im_z,r"
    de = (out / "dephasing.csv").read_text().splitlines()
    assert de[0] == "t,distance"
    data = np.loadtxt(out / "order_parameter.csv", delimiter=",", skiprows=1)
    assert data[0, 0] == 0.0 and data[-1, 0] == 16.0
    assert np.all(np.diff(data[:, 0]) > 0)


def test_outputs_are_bit_identical_across_runs(solve_run, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", cfg, "--output-dir", str(out2)]) == 0
    for name in KINETIC_FILES:
        assert filecmp.cmp(solve_run[1] / name, out2 / name, shallow=False), name


_AFFINITY = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

# a solve in a fresh interpreter, pinned to one CPU (argv[1]) before the
# package is imported, or left on the full mask ("")
_PINNED_SOLVE = """
import os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from kuramoto_dephasing import characteristics
from kuramoto_dephasing.cli import main
assert characteristics._PARTS == len(os.sched_getaffinity(0))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(len(_AFFINITY) < 2, reason="the affinity mask holds one CPU")
def test_kinetic_artifacts_do_not_depend_on_the_cpus_a_run_may_use(tmp_path):
    import subprocess
    import sys

    import kuramoto_dephasing

    cfg = write_config(tmp_path / "cfg.json", base_config(
        grid={"t_max": 16.0, "dt": 0.05, "n_theta": 10, "n_omega": 65}))
    env = dict(os.environ)
    package_root = str(Path(kuramoto_dephasing.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    outs = {}
    for label, cpu in (("one_cpu", str(_AFFINITY[0])), ("all_cpus", "")):
        outs[label] = tmp_path / label
        run = subprocess.run(
            [sys.executable, "-c", _PINNED_SOLVE, cpu,
             "solve", "--config", cfg, "--output-dir", str(outs[label])],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
    for name in KINETIC_FILES:
        assert filecmp.cmp(outs["one_cpu"] / name, outs["all_cpus"] / name, shallow=False), name


def test_simulate_writes_particle_artifacts(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        base_config(particles={"n": 2000, "dt": 0.02, "seed": 3}),
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    for name in KINETIC_FILES + ("particles.csv", "comparison.csv"):
        assert (out / name).is_file(), name
    comp = np.loadtxt(out / "comparison.csv", delimiter=",", skiprows=1)
    header = (out / "comparison.csv").read_text().splitlines()[0]
    assert header == "t,r_kinetic,r_n,abs_diff"
    # finite-N error at N=2000 stays within a few CLT widths
    assert float(comp[:, 3].max()) < 0.1


def test_simulate_requires_particle_section(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 2


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad)]) == 2


def test_missing_file_is_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


def test_corrupted_grid_is_reported(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        base_config(grid={"t_max": 16.0, "dt": 0.05, "n_theta": 4}),
    )
    assert main(["solve", "--config", cfg]) == 2
    assert main(["verify", "--config", cfg]) == 2


def test_noncontractive_mu_exits_3_with_ledger(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config(mu=10.0))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(out)]) == 3
    ledger = json.loads((out / "ledger.json").read_text())
    assert ledger["status"] != "converged"
    assert len(ledger["records"]) >= 1
    assert not (out / "summary.json").exists()


def test_short_horizon_fails_tail_certification(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        base_config(grid={"t_max": 12.0, "dt": 0.05, "n_theta": 16}),
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(out)]) == 1
    assert not (out / "summary.json").exists()


def test_fit_subcommand_round_trips(solve_run, capsys):
    _, out = solve_run
    code = main(
        ["fit", "--csv", str(out / "order_parameter.csv"), "--column", "r",
         "--kind", "exponential", "--window", "2", "12"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"fit", "envelope"}
    assert payload["fit"]["rate"] == pytest.approx(1.0, abs=0.01)
    assert payload["envelope"]["passed"] is True


@pytest.mark.parametrize(
    "column, window, code",
    [
        ("r", ("nan", "5"), 2),
        ("r", ("2", "inf"), 2),
        ("r", ("5", "2"), 2),
        ("r", ("5", "5"), 2),
        ("r", ("-1", "5"), 2),
        ("r", ("2", "17"), 2),
        # a window inside the data with too few points for a fit
        ("r", ("15.8", "16"), 1),
    ],
    ids=["lo_nan", "hi_inf", "reversed", "empty", "before_start",
         "past_end", "too_few_points"],
)
def test_fit_window_misuse_is_a_usage_error(solve_run, caplog, column, window, code):
    _, out = solve_run
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        got = main(["fit", "--csv", str(out / "order_parameter.csv"), "--column", column,
                    "--kind", "exponential", "--window", *window])
    assert got == code
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]


README_CONFIG = base_config(grid={"t_max": 20.0, "dt": 0.05, "n_theta": 64})
SMALL_POLYNOMIAL_CONFIG = base_config(
    profile={"kind": "laplace", "scale": 1.0},
    decay={"kind": "polynomial", "rate": 2.0},
    grid={"t_max": 16.0, "dt": 0.1, "n_theta": 8, "n_omega": 80},
    tolerances={"tol_picard": 1e-12, "tol_outer": 1e-10, "tail_budget": 0.1},
)


@pytest.fixture(scope="module")
def summary_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("summaries")
    runs = {}
    for name, raw in (("readme", README_CONFIG), ("polynomial", SMALL_POLYNOMIAL_CONFIG)):
        out = root / name
        assert main(["solve", "--config", write_config(root / f"{name}.json", raw),
                     "--output-dir", str(out)]) == 0
        runs[name] = (out, raw["decay"]["kind"])
    return runs


@pytest.mark.parametrize(
    "run, csv, column, entry",
    [("readme", "order_parameter.csv", "r", "order_parameter"),
     ("readme", "dephasing.csv", "distance", "dephasing"),
     ("polynomial", "order_parameter.csv", "r", "order_parameter"),
     ("polynomial", "dephasing.csv", "distance", "dephasing")],
)
def test_fit_without_a_window_reproduces_the_summary_fit(summary_runs, capsys, run, csv, column,
                                                         entry):
    # fit used to default to [2, t_max] (exponential) where summary.json
    # fits on [2, 15]: on the README run, rate 0.99988737 against 0.99999999
    out, kind = summary_runs[run]
    capsys.readouterr()
    assert main(["fit", "--csv", str(out / csv), "--column", column, "--kind", kind]) == 0
    fit = json.loads(capsys.readouterr().out)["fit"]
    want = json.loads((out / "summary.json").read_text())["decay_fit"][entry]
    assert want is not None
    assert [fit[k] for k in ("window", "rate", "amplitude")] == [
        want[k] for k in ("window", "rate", "amplitude")]


def test_fit_unknown_column_is_config_error(solve_run):
    _, out = solve_run
    code = main(
        ["fit", "--csv", str(out / "order_parameter.csv"), "--column", "bogus",
         "--kind", "exponential"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "text",
    ["t,r\n", "t,r\n0\n1\n"],
    ids=["header_only", "rows_shorter_than_header"],
)
def test_fit_csv_without_full_rows_is_a_usage_error(tmp_path, caplog, text):
    # both once ended in an IndexError traceback
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        got = main(["fit", "--csv", str(path), "--column", "r"])
    assert got == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]


def _edit_row(column, row, value):
    def edit(t, r):
        (t if column == "t" else r)[row] = value
    return edit


def _duplicate_t(t, r):
    t[11] = t[10]


def _reverse(t, r):
    t[:], r[:] = t[::-1].copy(), r[::-1].copy()


@pytest.mark.parametrize(
    "edit",
    [_edit_row("r", 10, math.nan), _edit_row("r", 10, math.inf), _edit_row("r", 10, -math.inf),
     _edit_row("t", 10, math.nan), _edit_row("t", -1, math.inf), _reverse, _duplicate_t],
    ids=["column_nan", "column_inf", "column_minus_inf", "t_nan", "t_inf", "t_decreasing",
         "t_duplicate"],
)
def test_fit_refuses_a_malformed_csv_before_fitting(tmp_path, caplog, monkeypatch, edit):
    # these once exited 0, printing NaN or Infinity into the JSON (column
    # nan and inf, t nan) or a fit over duplicate times, or 1 with "fit
    # failed" (t inf, decreasing t)
    t = 0.05 * np.arange(321)
    r = 0.05 * np.exp(-t)
    edit(t, r)
    path = tmp_path / "bad.csv"
    path.write_text("t,r\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), r.tolist())))

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran on a malformed CSV")

    monkeypatch.setattr("kuramoto_dephasing.decay.np.polyfit", no_fit)
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        got = main(["fit", "--csv", str(path), "--column", "r"])
    assert got == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]


def _late_csv(path, start, step):
    # 0.05 e^-t from t = start to 20
    t = start + step * np.arange(round((20.0 - start) / step) + 1)
    r = 0.05 * np.exp(-t)
    path.write_text("t,r\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), r.tolist())))
    return str(path)


def test_fit_of_a_series_with_no_early_part_exits_2_in_one_line(tmp_path, caplog, capsys):
    # t = 16 .. 20 has no time at or before 0.75 * 20: the envelope
    # certificate once ended in a traceback of numpy's
    csv = _late_csv(tmp_path / "late.csv", 16.0, 0.1)
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        got = main(["fit", "--csv", csv, "--window", "16", "20"])
    assert got == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0] and "early fraction" in errors[0]
    assert capsys.readouterr().out == ""


def test_fit_without_a_window_fits_a_late_series_from_its_first_time(tmp_path, capsys):
    # the default window (2, 15) once refused a series starting at t = 3
    csv = _late_csv(tmp_path / "late.csv", 3.0, 0.05)
    capsys.readouterr()
    assert main(["fit", "--csv", csv]) == 0
    fit = json.loads(capsys.readouterr().out)["fit"]
    assert fit["window"] == [3.0, 15.0]
    assert fit["rate"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("margin", [1.01, math.nan], ids=["above_bound", "nan"])
def test_a_gamma_margin_above_its_bound_fails_solve(tmp_path, monkeypatch, caplog, margin):
    # |Gamma| <= beta is the running bound the density is built on: a
    # margin above 1 + 1e-12, or NaN, fails the run, whose artifacts are
    # still written
    def doctored(result):
        return dataclasses.replace(reconstruct(result), gamma_margin=margin)

    monkeypatch.setattr(cli, "reconstruct", doctored)
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "out"
    with caplog.at_level("INFO", logger="kuramoto_dephasing"):
        assert main(["solve", "--config", cfg, "--output-dir", str(out)]) == 1
    for name in KINETIC_FILES:
        assert (out / name).is_file(), name
    finished = [r.getMessage() for r in caplog.records if "solve finished" in r.getMessage()]
    assert len(finished) == 1 and f" gamma_margin={margin!r}" in finished[0]


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("KURAMOTO_DEPHASING_OUTPUT", str(envdir))
    cfg = load_config(write_config(tmp_path / "cfg.json", base_config()))
    assert cfg.output_dir == envdir


def test_flag_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("KURAMOTO_DEPHASING_OUTPUT", str(tmp_path / "from_env"))
    cfg = load_config(
        write_config(tmp_path / "cfg.json", base_config()),
        output_dir_override=str(tmp_path / "from_flag"),
    )
    assert cfg.output_dir == tmp_path / "from_flag"


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("source", ["config", "flag", "env"])
@pytest.mark.parametrize("below", ["sub", ""], ids=["under_a_file", "a_file"])
def test_uncreatable_output_dir_exits_2_with_one_line(tmp_path, monkeypatch, caplog,
                                                      command, source, below):
    # a directory under an existing file (NotADirectoryError) or the file
    # itself (FileExistsError): the refusal names the directory and comes
    # before the solve, which must not run
    from kuramoto_dephasing import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output directory was made")

    monkeypatch.setattr(cli, "outer_solve", no_solve)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KURAMOTO_DEPHASING_OUTPUT", raising=False)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    outdir = str(blocker / below) if below else str(blocker)
    raw = base_config(particles={"n": 100, "dt": 0.05})
    args = [command, "--config"]
    if source == "config":
        raw["output_dir"] = outdir
    elif source == "env":
        monkeypatch.setenv("KURAMOTO_DEPHASING_OUTPUT", outdir)
    args.append(write_config(tmp_path / "cfg.json", raw))
    if source == "flag":
        args += ["--output-dir", outdir]
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        code = main(args)
    assert code == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert outdir in errors[0]


def test_weight_mismatch_warns_but_loads(tmp_path, caplog):
    raw = base_config(weight={"kind": "polynomial", "rate": 2.0})
    with caplog.at_level("WARNING", logger="kuramoto_dephasing.cli"):
        cfg = load_config(write_config(tmp_path / "cfg.json", raw))
    assert cfg.weight.kind == "polynomial"
    assert any("weight" in rec.message for rec in caplog.records)


def test_negative_mu_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path / "cfg.json", base_config(mu=-0.1)))


@pytest.mark.parametrize(
    "overrides",
    [
        {"modes": [[0.05, 0.0]]},
        {"tolerances": [1e-12, 1e-10]},
        {"modes": {"1": float("nan")}},
        {"profile": ["lorentzian", 1.0]},
        {"decay": "exponential"},
        {"grid": [16.0, 0.05, 32]},
        {"weight": ["exponential", 0.9]},
        {"particles": [2000, 0.02]},
        {"decay": {"kind": "exponential", "rate": float("nan")}},
        {"grid": {"t_max": float("inf"), "dt": 0.05, "n_theta": 32}},
        {"grid": {"t_max": 16.0, "dt": 0.05, "n_theta": float("inf")}},
        {"output_dir": 5},
        # e^{0.9 * 800} overflows: weighted norms of the zero path were NaN
        {"grid": {"t_max": 800, "dt": 0.05, "n_theta": 8, "n_omega": 16}},
        # finite but far larger than memory; refused before any allocation
        {"grid": {"t_max": 1e300, "dt": 0.05, "n_theta": 32}},
        {"grid": {"t_max": 16.0, "dt": 0.05, "n_theta": 32, "n_omega": 10**15}},
        # JSON booleans passed float() and int() as 1 and 0
        {"mu": True},
        {"profile": {"kind": "lorentzian", "scale": True}},
        {"modes": {"1": True}},
        {"modes": {"1": [0.05, False]}},
        {"decay": {"kind": "exponential", "rate": True}},
        {"grid": {"t_max": True, "dt": 0.05, "n_theta": 32}},
        {"grid": {"t_max": 16.0, "dt": 0.05, "n_theta": 32, "n_omega": True}},
        {"weight": {"kind": "exponential", "rate": True}},
        {"tolerances": {"tol_picard": 1e-12, "tol_outer": True}},
        {"tolerances": {"tail_budget": True}},
        {"particles": {"n": True, "dt": 0.02}},
        {"particles": {"n": 2000, "dt": 0.02, "seed": False}},
        # t_max / dt = 1.6e13 RK4 steps
        {"particles": {"n": 100, "dt": 1e-12}},
        {"particles": {"n": 100, "dt": math.nextafter(0.05 / 4096, 0.0)}},
        # JSON strings passed float() and int(); int() truncated fractions
        {"mu": "0.05"},
        {"profile": {"kind": "lorentzian", "scale": "1.0"}},
        {"modes": {"1": ["0.05", 0.0]}},
        {"grid": {"t_max": 16.0, "dt": 0.05, "n_theta": 32, "n_omega": "32"}},
        {"grid": {"t_max": 16.0, "dt": 0.05, "n_theta": 16.9}},
        {"grid": {"t_max": 16.0, "dt": 0.05, "n_theta": 32, "n_omega": 64.5}},
        {"particles": {"n": 2000.5, "dt": 0.02}},
        {"particles": {"n": 2000, "dt": 0.02, "seed": 1.5}},
        {"particles": {"n": 2000, "dt": 0.02, "seed": "1"}},
        # the sampler's generator takes no negative seed: a traceback after the solve
        {"particles": {"n": 2000, "dt": 0.02, "seed": -1}},
        # int() read these mode keys: "01" and "1" collided, and one
        # amplitude was dropped without a word
        {"modes": {"1": 0.05, "01": 0.2}},
        {"modes": {"1_0": 0.05}},
        {"modes": {" 1": 0.05}},
        {"modes": {"\u0661": 0.05}},
    ],
    ids=[
        "modes_list", "tolerances_list", "mode_nan", "profile_list", "decay_string",
        "grid_list", "weight_list", "particles_list", "decay_rate_nan",
        "t_max_inf", "n_theta_inf", "output_dir_number", "exp_weight_overflow",
        "t_max_huge", "n_omega_huge",
        "mu_true", "scale_true", "mode_true", "mode_part_false", "decay_rate_true",
        "t_max_true", "n_omega_true", "weight_rate_true", "tol_outer_true",
        "tail_budget_true", "particles_n_true", "particles_seed_false",
        "particles_dt_tiny", "particles_dt_below_limit",
        "mu_string", "scale_string", "mode_part_string", "n_omega_string",
        "n_theta_fraction", "n_omega_fraction", "particles_n_fraction",
        "particles_seed_fraction", "particles_seed_string", "particles_seed_negative",
        "mode_key_leading_zero", "mode_key_underscore", "mode_key_space", "mode_key_arabic_one",
    ],
)
def test_malformed_config_exits_2_with_one_line(tmp_path, monkeypatch, caplog, overrides):
    # no --output-dir, so the config's own output_dir is validated too
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KURAMOTO_DEPHASING_OUTPUT", raising=False)
    cfg = write_config(tmp_path / "cfg.json", base_config(**overrides))
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        code = main(["solve", "--config", cfg])
    assert code == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "\u0661", "+1", "one"])
def test_a_mode_key_that_is_not_canonical_decimal_is_named(tmp_path, key):
    with pytest.raises(ConfigError, match=re.escape(f"mode key {key!r} is not a canonical")):
        load_config(write_config(tmp_path / "cfg.json", base_config(modes={key: 0.05})))


def test_a_key_given_twice_is_refused_by_name(tmp_path, monkeypatch, caplog):
    # json.loads keeps the last of two equal keys; the first amplitude
    # would be dropped
    monkeypatch.chdir(tmp_path)
    text = json.dumps(base_config()).replace('{"1": [0.05, 0.0]}', '{"1": 0.05, "1": 0.2}')
    assert text.count('"1"') == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        assert main(["solve", "--config", str(cfg)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["config key '1' appears twice in one object"]


EIGHT_ANGLES = {"t_max": 16.0, "dt": 0.05, "n_theta": 8}


@pytest.mark.parametrize("k", [4, 8], ids=["half_n_theta", "n_theta"])
def test_a_mode_the_angle_grid_aliases_exits_2_naming_k_and_n_theta(tmp_path, monkeypatch,
                                                                     caplog, k):
    # on 8 angles mode 8 reads as mode 0: it used to solve, read mass 1.1
    # at every probe time and exit 1 as if certification had failed
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json",
                       base_config(modes={str(k): 0.05}, grid=EIGHT_ANGLES))
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        assert main(["solve", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [
        f"invalid config: mode {k} is not resolved by n_theta = 8: modes must be below n_theta/2 = 4"
    ]


def test_the_highest_resolved_mode_loads_with_unit_mass(tmp_path):
    cfg = load_config(write_config(tmp_path / "cfg.json",
                                   base_config(modes={"3": 0.05}, mu=0.0, grid=EIGHT_ANGLES)))
    result = outer_solve(cfg.state, cfg.grid, cfg.mu, weight=cfg.weight)
    mass = np.asarray(reconstruct(result, times=(0.0, 5.0, 10.0)).mass)
    assert np.max(np.abs(mass - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
def test_a_frequency_rule_that_overflows_exits_2_with_one_stderr_line(tmp_path, kind):
    # the rule's overflow used to print four numpy warnings (eight lines)
    # before the error; stderr is the one line of the error
    cfg = write_config(tmp_path / "cfg.json",
                       base_config(profile={"kind": kind, "scale": 1e308}))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "kuramoto_dephasing.cli", "solve", "--config", cfg,
         "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        "ERROR invalid config: omega nodes and weights must be finite"
    ]


def test_poly_weight_rate_200_ends_in_a_physics_exit_code(tmp_path, monkeypatch, caplog):
    # finite at t_max = 16 with finite gains (the gain sup is taken in log
    # space where its linear product is lost), so the config is valid: the
    # run ends in a solver verdict, not a config refusal or a traceback
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json",
                       base_config(weight={"kind": "polynomial", "rate": 200.0}))
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        code = main(["solve", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert code in (0, 1, 3)
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert all("\n" not in e for e in errors)
    ledger = json.loads((tmp_path / "out" / "ledger.json").read_text())
    assert ledger["weight"] == "(1+t^2)^(200/2)"


def test_integral_floats_load_as_counts(tmp_path):
    raw = base_config(
        grid={"t_max": 16.0, "dt": 0.05, "n_theta": 32.0, "n_omega": 65.0},
        particles={"n": 2000.0, "dt": 0.02, "seed": 3.0},
    )
    cfg = load_config(write_config(tmp_path / "cfg.json", raw))
    assert (cfg.grid.n_theta, cfg.grid.n_omega) == (32, 65)
    assert cfg.particles["n"] == 2000 and cfg.particles["seed"] == 3
    assert all(type(v) is int for v in (cfg.particles["n"], cfg.particles["seed"]))


def test_particle_step_at_the_oracle_cap_still_loads(tmp_path):
    # grid dt / 4096, the finest RK4 sub-step the oracle takes, is the limit
    limit = 0.05 / 4096
    raw = base_config(particles={"n": 100, "dt": limit})
    assert load_config(write_config(tmp_path / "cfg.json", raw)).particles["dt"] == limit
    raw = base_config(particles={"n": 100, "dt": math.nextafter(limit, 0.0)})
    with pytest.raises(ConfigError, match="below grid dt / 4096"):
        load_config(write_config(tmp_path / "cfg.json", raw))


HORIZON_20 = {"t_max": 20.0, "dt": 0.05, "n_theta": 32}


@pytest.mark.parametrize("dt", [45.0, 30.0], ids=["no_step", "past_the_horizon"])
def test_a_particle_step_longer_than_the_horizon_exits_2_before_the_solve(tmp_path, monkeypatch,
                                                                          caplog, dt):
    # simulate runs t_max / dt steps: dt = 45 rounded that to 0 and ended in
    # a traceback after the solve, dt = 30 took one step to t = 30
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json",
                       base_config(grid=HORIZON_20, particles={"n": 100, "dt": dt}))
    out = tmp_path / "out"
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"invalid config: particles dt {dt:.3g} is above grid t_max 20"]
    assert not out.exists()


def test_a_particle_step_of_the_whole_horizon_still_loads(tmp_path):
    raw = base_config(grid=HORIZON_20, particles={"n": 100, "dt": 20.0})
    assert load_config(write_config(tmp_path / "cfg.json", raw)).particles["dt"] == 20.0


def test_a_particle_step_that_does_not_divide_the_horizon_stops_short_of_it(tmp_path):
    # t_max / dt = 5/3 used to round to 2 steps, ending at t = 24 where
    # r_kinetic is np.interp's clamp of the t = 20 value
    cfg = write_config(tmp_path / "cfg.json",
                       base_config(grid=HORIZON_20, particles={"n": 100, "dt": 12.0}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
    for name in ("particles.csv", "comparison.csv"):
        t = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)[:, 0]
        assert list(t) == [0.0, 12.0], name


def test_a_state_with_no_modes_solves_to_zero_dephasing(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config(modes={}))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(out)]) == 0
    deph = np.loadtxt(out / "dephasing.csv", delimiter=",", skiprows=1, ndmin=2)
    assert deph.shape[0] > 1 and np.all(deph[:, 1] == 0.0)


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
def test_a_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, monkeypatch, caplog, capsys,
                                                            command):
    # a UTF-16 byte order mark, ff fe, used to end in a UnicodeDecodeError
    # traceback; verify refuses before the acceptance battery
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    text = json.dumps(base_config(particles={"n": 100, "dt": 0.02}))
    cfg.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    args = [command, "--config", str(cfg)]
    if command != "verify":
        args += ["--output-dir", str(tmp_path / "out")]
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        assert main(args) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert f"config {cfg} is not UTF-8 text" in errors[0]
    assert "Traceback" not in "".join(capsys.readouterr())
    assert not (tmp_path / "out").exists()


def test_null_optional_sections_take_defaults(tmp_path):
    raw = base_config(weight=None, tolerances=None, particles=None)
    cfg = load_config(write_config(tmp_path / "cfg.json", raw))
    assert cfg.weight == WeightSpec("exponential", 0.9)
    assert cfg.tol_picard == 1e-12 and cfg.particles is None


def test_verbose_logs_one_line_per_outer_iterate(solve_run, tmp_path, caplog):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    with caplog.at_level("DEBUG", logger="kuramoto_dephasing"):
        assert main(["-v", "solve", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "kuramoto_dephasing.scheme"]
    ledger = json.loads((solve_run[1] / "ledger.json").read_text())
    assert len(lines) == len(ledger["records"])
    for line, rec in zip(lines, ledger["records"]):
        assert line.startswith(f"outer n={rec['n']}")
        assert f"sweeps={rec['contraction']['sweeps']}" in line
        # the tiles swept, by Taylor terms of their kernel, and those skipped
        assert re.search(r" terms=(-|(\d+|trig):\d+(,(\d+|trig):\d+)*) skipped=\d+ ", line)
    assert "certification" in lines[-1]
    # the first iterate sweeps nothing, and one joint sweep skips no tile
    assert " terms=- skipped=0 " in lines[0]
    assert all(" skipped=0 " in line for line in lines[:-1])
    # the joint iterates run on 16 of the config's 32 angles, the
    # certification on all of them
    assert all(" n_c=16 " in line for line in lines[:-1]) and " n_c=32 " in lines[-1]
    # the log's counts stay out of the ledger and the summary
    summary = (solve_run[1] / "summary.json").read_text()
    for key in ('"tile_terms"', '"tiles_skipped"', '"n_c"'):
        assert key not in json.dumps(ledger) and key not in summary


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"mu": -0.1}, "mu"),
        ({"tolerances": {"tol_outer": 0}}, "tol_outer"),
        ({"tolerances": {"tail_budget": math.nan}}, "tail_budget"),
        # n_theta = 32 aliases mode 16
        ({"modes": {"16": 0.05}}, "n_theta"),
    ],
    ids=["mu_negative", "tol_outer_zero", "tail_budget_nan", "mode_half_n_theta"],
)
def test_a_config_the_library_refuses_fails_verify_and_solve_in_one_line(
        tmp_path, monkeypatch, caplog, capsys, overrides, named):
    # these rules live in the library (scheme.solve_inputs), and load_config
    # still applies them: verify --config fails before the battery, and
    # solve before any output file is written
    from kuramoto_dephasing import acceptance

    def no_battery(*args, **kwargs):
        raise AssertionError("the acceptance battery ran")

    monkeypatch.setattr(acceptance, "run_all", no_battery)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", base_config(**overrides))
    assert main(["verify", "--config", cfg]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config check: FAIL (invalid config: ")
    assert named in lines[0]
    out = tmp_path / "out"
    caplog.clear()
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        assert main(["solve", "--config", cfg, "--output-dir", str(out)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0] and named in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"t_max": 1e300, "dt": 0.05, "n_theta": 32}, "exceeds physical memory"),
        ({"t_max": 800, "dt": 0.05, "n_theta": 8, "n_omega": 16}, "overflows at t_max"),
    ],
    ids=["huge_grid", "weight_overflow"],
)
def test_boundary_refusals_name_their_cause(tmp_path, grid, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write_config(tmp_path / "cfg.json", base_config(grid=grid)))


# -- fuzzing: one leaf of a tiny valid config replaced by any JSON value ------

# solves in well under a second; every section and every optional key is set,
# so each of them can be mutated (output_dir is left out: --output-dir wins)
TINY_CONFIG = {
    "profile": {"kind": "lorentzian", "scale": 1.0},
    "modes": {"1": [0.05, 0.0]},
    "decay": {"kind": "exponential", "rate": 0.9},
    "grid": {"t_max": 2.0, "dt": 0.25, "n_theta": 8, "n_omega": 16},
    "mu": 0.05,
    "weight": {"kind": "exponential", "rate": 0.9},
    "tolerances": {"tol_picard": 1e-12, "tol_outer": 1e-10, "tail_budget": 1.0},
    "particles": {"n": 100, "dt": 0.1, "seed": 1},
}
# the field-size refusal reads physical memory; a 16 MB machine keeps every
# grid a mutation can produce small enough to solve here in moments
FUZZ_MEMORY = 16 << 20
ENSEMBLE_BYTES = particles.peak_bytes(1)


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix]
    return [p for k, v in items for p in _leaf_paths(v, prefix + (k,))]


# the boundary values a config check most often misses, drawn often
_edge_values = st.sampled_from([math.inf, -math.inf, math.nan, 0, -1, 1e-300, 10**30, ""])
_json_values = st.recursive(
    _edge_values
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _fake_sysconf(name):
    return {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": FUZZ_MEMORY // 4096}[name]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(_leaf_paths(TINY_CONFIG)), value=_json_values)
def test_fuzzed_config_never_crashes(caplog, capsys, path, value):
    cfg = copy.deepcopy(TINY_CONFIG)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    caplog.clear()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sysconf", _fake_sysconf)
        cfg_path = write_config(Path(tmp) / "cfg.json", cfg)
        with caplog.at_level("INFO", logger="kuramoto_dephasing"):
            code = main(["solve", "--config", cfg_path, "--output-dir", str(Path(tmp) / "out")])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    assert not any(r.exc_info for r in caplog.records)
    if code == 2:
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "\n" not in errors[0]


@pytest.mark.parametrize(
    "n, refused",
    [(3.59e16, True), (FUZZ_MEMORY // ENSEMBLE_BYTES + 1, True),
     (FUZZ_MEMORY // ENSEMBLE_BYTES, False), (10**400, True)],
    ids=["fuzz_find", "one_over", "at_limit", "past_the_float_range"],
)
def test_particle_ensemble_larger_than_memory_is_refused(tmp_path, monkeypatch, caplog,
                                                          n, refused):
    # the run's peak of float64 arrays of length n must fit in (faked)
    # physical memory
    monkeypatch.setattr(os, "sysconf", _fake_sysconf)
    cfg = write_config(tmp_path / "cfg.json", dict(TINY_CONFIG, particles={"n": n, "dt": 0.1}))
    if not refused:
        assert load_config(cfg).particles["n"] == n
        return
    with pytest.raises(ConfigError, match="particle ensemble .* exceeds physical memory"):
        load_config(cfg)
    with caplog.at_level("ERROR", logger="kuramoto_dephasing"):
        code = main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]


def test_an_ensemble_between_six_arrays_and_its_peak_exits_2_before_the_solve(tmp_path,
                                                                               monkeypatch):
    # 8 float64 arrays of length n fit the old six-array estimate, but not
    # the run's measured peak: such a run used to solve, then fail on memory
    n = 100_000
    monkeypatch.setattr(norms_grids, "physical_memory", lambda: 8 * 8 * n)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "outer_solve", no_solve)
    cfg = write_config(tmp_path / "cfg.json", dict(TINY_CONFIG, particles={"n": n, "dt": 0.1}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 2
    assert not out.exists()
