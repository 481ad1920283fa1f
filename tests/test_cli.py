"""Command-line contract tests: exit codes, artifact schemas, and
bit-for-bit reproducibility of the kinetic outputs."""

import filecmp
import json

import numpy as np
import pytest

from kuramoto_dephasing import WeightSpec
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


def test_fit_unknown_column_is_config_error(solve_run):
    _, out = solve_run
    code = main(
        ["fit", "--csv", str(out / "order_parameter.csv"), "--column", "bogus",
         "--kind", "exponential"]
    )
    assert code == 2


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
    ],
    ids=[
        "modes_list", "tolerances_list", "mode_nan", "profile_list", "decay_string",
        "grid_list", "weight_list", "particles_list", "decay_rate_nan",
        "t_max_inf", "n_theta_inf", "output_dir_number",
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
    assert "certification" in lines[-1]
