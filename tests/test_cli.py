import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ksblowup import cli
from ksblowup import eigenbasis as eb
from ksblowup import profile as pr
from ksblowup import sim

# the kernel every run steps with and measures its slices with: the compiled
# passes wherever they build
KERNEL = "numpy" if sim._library() is None else "compiled"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported only inside the functions that need it: the NumPy
    # fallback of the stepper and the discrete spectrum
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", "import sys, ksblowup.cli; print(sorted("
                          "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_constants_d3(capsys):
    code, out, _ = run_cli(["constants", "--d", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == "39360"
    assert doc["c"] == "1/118080"
    assert doc["projection_check"] == "0"
    assert doc["H"][1] == ["-6", "1"]


def test_constants_d4(capsys):
    code, out, _ = run_cli(["constants", "--d", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["B"] == "576"
    assert doc["c"] == "1/288"
    assert doc["phi"][2] == ["24", "-2", "1/32"]


def test_constants_d5_rejected(capsys):
    code, out, err = run_cli(["constants", "--d", "5"], capsys)
    assert code == cli.EXIT_USAGE
    assert "integer" in err


# ---------------------------------------------------------------------------
# profile / spectrum
# ---------------------------------------------------------------------------

def test_profile_csv(tmp_path, capsys):
    code, out, _ = run_cli(["--output-dir", str(tmp_path), "profile", "--d", "4",
                            "--xi-max", "5", "--points", "11"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "xi,Q,Qprime,F"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.25)
    assert (tmp_path / "profile_d4.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(["spectrum", "--d", "4", "--n", "400", "--count", "3"], capsys)
    assert code == 0
    rows = out.strip().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals[0] == pytest.approx(0.0, abs=1e-4)
    assert vals[1] == pytest.approx(-0.5, abs=1e-3)
    code, _, err = run_cli(["spectrum", "--d", "4", "--n", "400", "--count", "0"], capsys)
    assert code == cli.EXIT_USAGE and "count must lie in [1, n]" in err


# ---------------------------------------------------------------------------
# simulate + decompose round trip
# ---------------------------------------------------------------------------

def test_simulate_and_decompose_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "d = 4\n"
        "n = 512\n"
        "s0 = 50.0\n"
        "horizon = 0.5\n"
        "cadence = 0.1\n"
        "A = 20.0\n"
        "K = 10.0\n"
        "escape_factor = 1e9\n"
    )
    outdir = tmp_path / "out"
    code, out, _ = run_cli(["--output-dir", str(outdir), "simulate",
                            "--config", str(cfg)], capsys)
    assert code == 0
    ts = (outdir / "timeseries.csv").read_text().splitlines()
    assert ts[0].startswith("s,eps0,eps1,eps2,eps3,tilde_l2rho,flat0")
    assert len(ts) - 1 == 6          # horizon / cadence + 1 slices
    snap = outdir / "snapshot_final.csv"
    assert snap.exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["runs"][0]["command"] == "simulate"
    assert str(cfg) in manifest["runs"][0]["inputs"]
    run = manifest["runs"][0]["verdicts"]
    assert f"steps: {run['steps']}" in out
    assert 0.0 < run["dt_min"] <= run["dt_max"] <= 0.1
    assert run["steps"] * run["dt_max"] >= 0.5 and run["message"] == ""
    assert run["step_s"] > 0.0 and run["diag_s"] > 0.0
    assert run["stop_reason"] == "horizon"
    assert run["kernel"] == run["slice_kernel"] == KERNEL

    code2, out2, _ = run_cli(["--output-dir", str(outdir), "decompose",
                              "--snapshot", str(snap), "--s", "50.5",
                              "--d", "4", "--A", "20"], capsys)
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["s"] == 50.5 and doc["d"] == 4
    assert "verdict" in doc and "ratios" in doc
    manifest2 = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest2["runs"]) == 2          # append-only


@pytest.mark.filterwarnings("ignore:loadtxt")
@pytest.mark.parametrize("rows", ["", "0.0,0.25\n", "0.0\n1.0\n"])
def test_decompose_rejects_a_snapshot_without_two_rows_of_y_v(tmp_path, capsys, rows):
    # header only, one row, one column: a usage error, not a failed criterion
    snap = tmp_path / "snap.csv"
    snap.write_text("y,v\n" + rows)
    code, _, err = run_cli(["decompose", "--snapshot", str(snap), "--s", "50",
                            "--d", "4"], capsys)
    assert code == cli.EXIT_USAGE and "at least two rows of y,v" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_decompose_rejects_a_non_finite_snapshot(tmp_path, capsys, bad):
    # one NaN in v would print every ratio as NaN under the verdict "inside"
    y = [i * 0.1 for i in range(601)]
    lines = [f"{yy},{0.25 if i != 300 else bad}" for i, yy in enumerate(y)]
    snap = tmp_path / "snap.csv"
    snap.write_text("y,v\n" + "\n".join(lines) + "\n")
    code, out, err = run_cli(["decompose", "--snapshot", str(snap), "--s", "50",
                              "--d", "4"], capsys)
    assert code == cli.EXIT_USAGE and "non-finite" in err and out == ""


@pytest.mark.parametrize("amplitude", ["-20", "0", "nan", "inf"])
def test_decompose_rejects_an_amplitude_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                        amplitude):
    # the bounds scale with A: A = 0 would divide by zero, and a negative or
    # NaN A would read "inside"
    snap = tmp_path / "snap.csv"
    snap.write_text("y,v\n" + "".join(f"{0.1 * i},0.25\n" for i in range(601)))
    code, out, err = run_cli(["decompose", "--snapshot", str(snap), "--s", "50",
                              "--d", "4", "--A", amplitude], capsys)
    assert code == cli.EXIT_USAGE and "A must be positive and finite" in err and out == ""


def test_simulate_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d = 4\nwavelength = 3\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_USAGE
    assert "wavelength" in err


@pytest.mark.parametrize("line", ["horizon = nan", "cadence = nan", "dt = nan", "horizon = inf"])
def test_simulate_non_finite_time_rejected(tmp_path, capsys, line):
    # float() reads "nan" and "inf"; a run from either would never return
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("d = 4\nframe = physical\nn = 32\ny_max = 10\ns0 = 0\n"
                   f"horizon = 1\ncadence = 0.01\ndt = 1e-3\n{line}\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_USAGE == 2
    assert f"{line.split()[0]} must be positive and finite" in err


@pytest.mark.parametrize("line", ["scheme = upwind", "stretch = 1.02"])
def test_simulate_removed_keys_rejected(tmp_path, capsys, line):
    # the advection stencil and the grid spacing are fixed: no key selects them
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"d = 4\n{line}\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_USAGE
    assert "unknown config key" in err


# ---------------------------------------------------------------------------
# shoot
# ---------------------------------------------------------------------------

def test_shoot_zero_budget_usage_error(capsys):
    code, _, err = run_cli(["shoot", "--d", "4", "--budget", "0"], capsys)
    assert code == cli.EXIT_USAGE


def test_shoot_writes_search_log(tmp_path, capsys):
    outdir = tmp_path / "shootout"
    code, out, _ = run_cli(["--output-dir", str(outdir), "shoot", "--d", "4",
                            "--s0", "50", "--A", "2000", "--horizon", "2",
                            "--budget", "3"], capsys)
    assert code == 0
    log = json.loads((outdir / "search_log.json").read_text())
    assert len(log["probes"]) <= 3 and log["probes"]
    assert all(isinstance(p["steps"], int) and p["steps"] > 0 for p in log["probes"])
    assert all(p["wall_s"] > 0.0 for p in log["probes"])
    assert all(0.0 < p["step_s"] and 0.0 < p["diag_s"]
               and p["step_s"] + p["diag_s"] <= p["wall_s"] for p in log["probes"])
    assert all(p["stop_reason"] == ("horizon" if p["exit_mode"] is None else "mode exit")
               for p in log["probes"])
    assert (outdir / "best_timeseries.csv").exists()


def test_search_log_and_criterion_10_log_the_same_probes(tmp_path, capsys):
    # `shoot`'s defaults are criterion 10's search: both write its one summary
    from ksblowup import acceptance
    code, _, _ = run_cli(["--output-dir", str(tmp_path), "shoot", "--d", "4",
                          "--budget", "3"], capsys)
    assert code == 0
    log = json.loads((tmp_path / "search_log.json").read_text())
    (run,) = acceptance.criterion_10(budget=3).runs
    assert run.pop("search") == "trap" and set(run) == set(log)

    def untimed(probes):
        return [{k: v for k, v in p.items() if k not in ("wall_s", "step_s", "diag_s")}
                for p in probes]

    assert untimed(run.pop("probes")) == untimed(log.pop("probes"))
    assert run == log


def test_shoot_config_file_sets_s0_A_horizon(tmp_path, capsys):
    cfg = tmp_path / "shoot.cfg"
    cfg.write_text("s0 = 60\nA = 2000\nhorizon = 0.5\nn = 256\nbump_K = 2\n")
    for flags, horizon in (([], "0.5"), (["--horizon", "0.3"], "0.3")):
        outdir = tmp_path / f"out{horizon}"
        code, _, _ = run_cli(["--output-dir", str(outdir), "shoot", "--d", "4",
                              "--config", str(cfg), "--budget", "1", *flags], capsys)
        assert code == 0
        resolved = json.loads((outdir / "manifest.json").read_text())["runs"][-1]["config"]["resolved"]
        for item in ("s0=60.0,", "A=2000.0,", f"horizon={horizon},", "bump_K=2.0"):
            assert item in resolved


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exact_suite(tmp_path, capsys):
    code, out, _ = run_cli(["--output-dir", str(tmp_path), "verify",
                            "--suite", "exact"], capsys)
    assert code == 0
    assert out.count("PASS") == 4
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(r["passed"] for r in report["results"])


def test_verify_report_lists_the_runs_of_criteria_7_and_9(tmp_path, capsys):
    report = {}
    for suite in ("sim", "slopes"):
        run_cli(["--output-dir", str(tmp_path), "verify", "--suite", suite], capsys)
        for r in json.loads((tmp_path / "verify_report.json").read_text())["results"]:
            report[r["name"].split()[0]] = r
    assert report["6"]["runs"] == [] and report["8"]["runs"] == []
    # criterion 7: the steady loops at d = 3 and 4, then the ODE at two dts
    runs7 = report["7"]["runs"]
    assert [(r["d"], r["steps"], r["dt_min"], r["dt_max"]) for r in runs7] == [
        (3, 10000, 1e-3, 1e-3), (4, 10000, 1e-3, 1e-3), (4, 10000, 1e-4, 1e-4),
        (4, 20000, 5e-5, 5e-5)]
    assert all(r["step_s"] > 0 for r in runs7)
    assert all(r["kernel"] == KERNEL for r in runs7)
    # criterion 9: the one self-similar run's step count, dt range, time split
    (run9,) = report["9"]["runs"]
    assert run9["verdict"] == "completed" and run9["stop_reason"] == "horizon"
    assert run9["steps"] >= 10.0 / run9["dt_max"] and 0 < run9["dt_min"] <= run9["dt_max"]
    assert run9["step_s"] > 0 and run9["diag_s"] > 0
    assert run9["kernel"] == run9["slice_kernel"] == KERNEL


def test_verify_report_lists_the_run_and_search_of_criterion_11(tmp_path, capsys):
    code, out, _ = run_cli(["--output-dir", str(tmp_path), "verify", "--suite", "final"], capsys)
    (result,) = json.loads((tmp_path / "verify_report.json").read_text())["results"]
    run, tuning = result["runs"]
    # the physical run: its steps are the printed count, its dt range capped
    # at 0.1 (1 - t) below the blowup time, on the 4097-node grid
    assert f"{run['steps']} physical steps" in out and run["steps"] > 0
    assert 0 < run["dt_min"] <= run["dt_max"] <= 0.1 * math.exp(-11.5)
    assert run["kernel"] == KERNEL and run["step_s"] > 0        # one-step stretches
    # the trap search that tuned its amplitudes, probe by probe
    assert tuning["search"] == "tuning" and 0 < len(tuning["probes"]) <= 40
    assert all(len(probe["q"]) == 2 and probe["steps"] > 0 for probe in tuning["probes"])
    assert len(tuning["brackets"]) == 2 and all(lo <= hi for lo, hi in tuning["brackets"])
    assert f"tuning verdict {tuning['verdict']};" in out


def test_verify_fault_injection(capsys, monkeypatch):
    # corrupt the spectral-constant computation and check verify names it
    from fractions import Fraction
    monkeypatch.setattr(eb, "compute_B", lambda d: Fraction(7))
    try:
        code, out, _ = run_cli(["verify", "--suite", "exact"], capsys)
    finally:
        # no ProfileParams built from the corrupted constant may stay cached
        pr.make_profile_params.cache_clear()
    assert code == cli.EXIT_FAIL
    assert "FAIL  1 exact constants" in out
    assert "compute_B" in out
