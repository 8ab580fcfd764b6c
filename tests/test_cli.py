import json

import pytest

from sedlab.cli import main
from sedlab.experiments import SCENARIO_NAMES

FAST_CONFIG = {
    "scenario": "ground_state",
    "dt": 0.1,
    "n_samples": 1 << 16,
    "omega_cut": 16.0,
    "n_ensemble": 8,
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    cfg = dict(FAST_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_list_prints_all_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(SCENARIO_NAMES)


def test_unknown_scenario_exits_2(capsys):
    assert main(["run", "--scenario", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "ground_state" in err and "dipoles" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "ground_state", "bogus_key": 1}))
    assert main(["run", "--config", str(path)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_run_writes_byte_identical_reports(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--seed", "42",
                 "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "42",
                 "--out", str(out2)]) == 0
    r1 = (out1 / "ground_state_report.json").read_bytes()
    r2 = (out2 / "ground_state_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert report["seed"] == 42
    assert report["config"]["grid"]["n_ensemble"] == 8
    assert "runtime" not in report


def test_run_reports_resource_usage_on_stderr(tmp_path, capsys):
    out = tmp_path / "usage"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    usage = lines[lines.index(next(l for l in lines if l.startswith("runtime:"))) + 1]
    for field in ("resources: user ", " sys ", " minor_faults ", " peak_rss "):
        assert field in usage
    assert "resources" not in captured.out
    assert "resources" not in (out / "ground_state_report.json").read_text()
    assert "resources" not in (out / "ground_state_report.csv").read_text()


def test_run_exits_2_when_an_oscillator_scenario_has_omega0_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "coherent_decay", "omega0": 0.0,
                                  "n_samples": 1 << 14, "n_ensemble": 2})
    out = tmp_path / "free"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "omega0 must be > 0" in capsys.readouterr().err
    assert not (out / "coherent_decay_report.json").exists()


def test_run_exits_2_on_a_single_member_ensemble(tmp_path, capsys):
    out = tmp_path / "single"
    cfg = write_config(tmp_path, {"n_ensemble": 1})
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "n_ensemble must be >= 2, got 1" in capsys.readouterr().err
    assert not (out / "ground_state_report.json").exists()


def test_run_jobs_do_not_change_report(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "j1", tmp_path / "j4"
    main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out1),
          "--jobs", "1"])
    main(["run", "--config", str(cfg), "--seed", "7", "--out", str(out2),
          "--jobs", "4"])
    assert (out1 / "ground_state_report.json").read_bytes() == \
        (out2 / "ground_state_report.json").read_bytes()


def test_run_emits_requested_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "artifacts"
    code = main(["run", "--config", str(cfg), "--seed", "42", "--out", str(out),
                 "--emit", "report", "trajectories", "spectra"])
    assert code == 0
    assert (out / "ground_state_report.json").exists()
    assert (out / "ground_state_report.csv").exists()
    assert (out / "ground_state_field.bin").exists()


def test_run_respects_out_dir_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "only_here"
    main(["run", "--config", str(cfg), "--out", str(out)])
    made = {p.name for p in tmp_path.iterdir()}
    assert made == {"cfg.json", "only_here"}


def test_analytic_ground_state(capsys):
    assert main(["analytic", "--quantity", "ground_state"]) == 0
    out = capsys.readouterr().out
    assert "x_var=0.5" in out
    assert "p_var=0.5" in out
    assert "mean_energy=0.5" in out


def test_analytic_dipoles(capsys):
    assert main(["analytic", "--quantity", "dipoles", "--K", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "mean_H=0.998746073" in out


def test_analytic_planck(capsys):
    assert main(["analytic", "--quantity", "planck", "--kT", "0.5"]) == 0
    assert "0.656517643" in capsys.readouterr().out


def test_jobs_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SEDLAB_JOBS", "3")
    from sedlab.cli import _resolve, build_parser

    args = build_parser().parse_args(["run", "--scenario", "ground_state"])
    _, _, meta = _resolve("ground_state", {}, args)
    assert meta["jobs"] == 3
    # an explicit flag wins over the environment
    args = build_parser().parse_args(["run", "--scenario", "ground_state",
                                      "--jobs", "2"])
    _, _, meta = _resolve("ground_state", {}, args)
    assert meta["jobs"] == 2


def test_config_file_seed_applies(tmp_path):
    cfg = write_config(tmp_path, extra={"seed": 314})
    out = tmp_path / "seeded"
    main(["run", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "ground_state_report.json").read_text())
    assert report["seed"] == 314


def test_run_exits_1_when_a_row_fails(tmp_path, capsys):
    # seed 156 at this tiny budget trips the position KS row (found by scan;
    # at the 1% level a small fraction of seeds must fail by construction)
    cfg = write_config(tmp_path)
    out = tmp_path / "failing"
    code = main(["run", "--config", str(cfg), "--seed", "156",
                 "--out", str(out)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    # the report is still written, with the failing row recorded
    report = json.loads((out / "ground_state_report.json").read_text())
    assert any(row["pass"] is False for row in report["rows"])


def test_bad_emit_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--emit", "everything"]) == 2
    assert "emit" in capsys.readouterr().err


def test_run_exits_2_on_a_non_finite_report(tmp_path, monkeypatch, capsys):
    import sedlab.cli
    from sedlab.experiments import ExperimentReport, Row

    def nan_report(scenario, **kwargs):
        return ExperimentReport(scenario=scenario, config={}, runtime=0.0, seed=1,
                                rows=[Row("x_variance", float("nan"), 0.0, 0.5, 0.03)])

    monkeypatch.setattr(sedlab.cli, "run_scenario", nan_report)
    out = tmp_path / "nan"
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    assert "x_variance" in capsys.readouterr().err
    assert not (out / "ground_state_report.json").exists()


def test_run_exits_2_when_a_lag_exceeds_the_periodicity_guard(tmp_path, capsys):
    # free_thermal's 100-unit lag is 10,000 samples, beyond n/10 = 6,553
    cfg = write_config(tmp_path, {"scenario": "free_thermal", "dt": 0.01,
                                  "n_samples": 1 << 16, "omega_cut": 300.0})
    out = tmp_path / "lag"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "periodicity guard" in capsys.readouterr().err
    assert not (out / "free_thermal_report.json").exists()
