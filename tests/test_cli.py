import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sedlab.cli import main
from sedlab.experiments import SCENARIO_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"

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


@pytest.mark.parametrize("argv, printed", [
    (["ground_state"], "x_var=0.5 p_var=0.5 mean_energy=0.5"),
    (["heisenberg"], "x_var*p_var=0.25"),
    (["commutators", "--t", "2.5"], "c_xx(2.5)=0.583126 c_pp=0.591038 c_xp=-0.801144"),
    (["energy_fluctuation", "--t", "50"],
     "recomputed=0.443548 paper_printed=0.393469 window_exact=0.461586"),
    (["dipoles", "--K", "0.1"],
     "x_plus_var=0.527046 x_minus_var=0.476731 cross=0.0251575 mean_H=0.998746073 "
     "E_int_exact=-0.00125393 E_int_paper_series=-0.005"),
    (["planck", "--kT", "0.5"], "mean_energy=0.656517643"),
    (["free_particle", "--kT", "1.0", "--t", "2.0"],
     "thermal_dx2=0.04 thermal_v_var=1 zpf_dx2=0.0374048 zpf_dv2=102.46 "
     "electron_size=0.0494952"),
    # the free particle has no omega0, so the oscillator's tau*omega0 limit
    # does not apply to it
    (["free_particle", "--tau", "0.6"],
     "thermal_dx2=0 thermal_v_var=0 zpf_dx2=0.415601 zpf_dv2=6.0519 "
     "electron_size=0.383389"),
])
def test_analytic_prints_every_quantity(argv, printed, capsys):
    assert main(["analytic", "--quantity", *argv]) == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("quantity", ["planck", "free_particle"])
def test_analytic_rejects_negative_temperature(quantity, capsys):
    assert main(["analytic", "--quantity", quantity, "--kT", "-1"]) == 2
    assert "kT must be >= 0, got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, violations", [
    (["free_particle", "--tau", "0"], ["tau must be > 0, got 0.0"]),
    (["free_particle", "--tau", "-1"], ["tau must be > 0, got -1.0"]),
    (["heisenberg", "--tau", "nan"], ["tau must be a finite real number, got nan"]),
    (["planck", "--kT", "0", "--omega0", "-2"], ["omega0 must be > 0, got -2.0"]),
    (["ground_state", "--tau", "5"], ["tau*omega0 = 5 exceeds the hard limit 0.5"]),
    (["commutators", "--t", "nan"], ["--t must be finite, got nan"]),
    (["free_particle", "--t", "inf"], ["--t must be finite, got inf"]),
    (["energy_fluctuation", "--t", "inf"], ["--t must be finite, got inf"]),
    # zpf_dv2 takes ln(omega_c tau), which the clamp at 1 used to hide
    (["free_particle", "--omega-c", "-1"], ["omega_c*tau = -0.01 must be > 1"]),
    (["free_particle", "--omega-c", "100"], ["omega_c*tau = 1 must be > 1"]),
    (["free_particle", "--kT", "-1", "--t", "nan"],
     ["kT must be >= 0, got -1.0", "--t must be finite, got nan"]),
])
def test_analytic_validates_its_parameters(argv, violations, capsys):
    assert main(["analytic", "--quantity", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + "; ".join(violations) + "\n"


@pytest.mark.parametrize("bad, message", [
    ({"dt": "0.1"}, "dt must be a finite real number, got '0.1'"),
    ({"dt": None}, "dt must be a finite real number, got None"),
    ({"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ({"n_ensemble": 8.5}, "n_ensemble must be an integer, got 8.5"),
    ({"n_samples": 32768.0}, "n_samples must be an integer, got 32768.0"),
    pytest.param({"n_samples": 10 ** 400},
                 f"n_samples must be an integer within int64, got {10 ** 400!r}",
                 id="n_samples-beyond-int64"),
    pytest.param({"n_ensemble": 10 ** 30},
                 f"n_ensemble must be an integer within int64, got {10 ** 30!r}",
                 id="n_ensemble-beyond-int64"),
    pytest.param({"dt": 1e304, "omega_cut": 1e-305},
                 "duration dt*n_samples = inf must be finite", id="infinite-duration"),
])
def test_run_exits_2_on_a_config_value_of_the_wrong_type(bad, message, tmp_path, capsys):
    # a second, range violation is listed in the same message
    cfg = write_config(tmp_path, {**bad, "kT": -1.0})
    out = tmp_path / "typed"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "kT must be >= 0, got -1.0" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "ground_state_report.json").exists()


def test_bad_jobs_environment_exits_2_only_where_jobs_are_read(monkeypatch, capsys):
    monkeypatch.setenv("SEDLAB_JOBS", "two")
    assert main(["list"]) == 0
    assert main(["run", "--scenario", "ground_state"]) == 2
    assert "SEDLAB_JOBS must be an integer >= 1, got 'two'" in capsys.readouterr().err
    assert main(["verify"]) == 2
    assert "SEDLAB_JOBS" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["x", 0, 1.5, True])
def test_bad_config_jobs_exits_2(jobs, tmp_path, capsys):
    cfg = write_config(tmp_path, {"jobs": jobs})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "j")]) == 2
    assert f"config jobs must be an integer >= 1, got {jobs!r}" in capsys.readouterr().err


def test_jobs_flag_below_one_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--jobs", "0"]) == 2
    assert "--jobs must be an integer >= 1, got 0" in capsys.readouterr().err


def test_config_emit_must_be_a_list(tmp_path, capsys):
    cfg = write_config(tmp_path, {"emit": "report"})
    out = tmp_path / "emit"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "emit must be a list of flags, got 'report'" in capsys.readouterr().err
    assert not out.exists()


def test_config_out_must_be_a_directory_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"out": 5})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "out must be a directory name, got 5" in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} == {"cfg.json"}


def test_run_exits_2_on_an_integer_literal_too_long_to_read(tmp_path, capsys):
    cfg = tmp_path / "long.json"
    cfg.write_text('{"scenario": "ground_state", "n_samples": 1' + "0" * 5000 + "}")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "long")]) == 2
    assert "cannot read config" in capsys.readouterr().err


#: planck_thermal on a short grid, at a temperature where 2 kT, the
#: members' squared energies or their Parseval sums overflowed float64
HOT_FIELD = {"scenario": "planck_thermal", "dt": 0.2, "n_samples": 16384, "omega_cut": 5.0,
             "n_ensemble": 2}


@pytest.mark.parametrize("case", [
    1e200, 1e300, 1e308,  # kT of a planck_thermal run on HOT_FIELD
    ["planck", "--kT", "1e308"],
    ["free_particle", "--kT", "1e308", "--t", "1e308"],
    ["free_particle", "--kT", "1e99", "--t", "1e308"],
    ["ground_state", "--omega0", "1e-320"],
    # omega0^2 overflowed (OverflowError) and omega0^3 underflowed (ZeroDivisionError)
    ["ground_state", "--omega0", "1.4e154", "--K", "1"],
    ["dipoles", "--omega0", "1e-110"],
], ids=lambda case: f"run kT={case:g}" if isinstance(case, float) else " ".join(case))
def test_a_hot_or_extreme_configuration_exits_2_or_reports_finite_values(case, tmp_path):
    # under -W error: a warning would end the process in a traceback
    if isinstance(case, float):
        config = tmp_path / "hot.json"
        config.write_text(json.dumps({**HOT_FIELD, "kT": case}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    else:
        argv = ["analytic", "--quantity", *case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "sedlab", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    if done.returncode == 2:
        assert done.stdout == "" and done.stderr.startswith("error: ")
        assert "float64" in done.stderr
    elif argv[0] == "run":
        assert done.returncode in (0, 1)
        report = json.loads((tmp_path / "out" / "planck_thermal_report.json").read_text())
        assert all(math.isfinite(row["estimated"]) for row in report["rows"])
    else:
        assert done.returncode == 0
        assert all(math.isfinite(float(pair.split("=")[1])) for pair in done.stdout.split())
