import json

import pytest

from ksblowup import cli
from ksblowup import eigenbasis as eb


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    code2, out2, _ = run_cli(["--output-dir", str(outdir), "decompose",
                              "--snapshot", str(snap), "--s", "50.5",
                              "--d", "4", "--A", "20"], capsys)
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["s"] == 50.5 and doc["d"] == 4
    assert "verdict" in doc and "ratios" in doc
    manifest2 = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest2["runs"]) == 2          # append-only


def test_simulate_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d = 4\nwavelength = 3\n")
    code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == cli.EXIT_USAGE
    assert "wavelength" in err


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
    assert (outdir / "best_timeseries.csv").exists()


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


def test_verify_fault_injection(capsys, monkeypatch):
    # corrupt the spectral-constant computation and check verify names it
    from fractions import Fraction
    monkeypatch.setattr(eb, "compute_B", lambda d: Fraction(7))
    code, out, _ = run_cli(["verify", "--suite", "exact"], capsys)
    assert code == cli.EXIT_FAIL
    assert "FAIL  1 exact constants" in out
    assert "compute_B" in out
