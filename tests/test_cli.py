import csv
import json

import pytest

from riccati4.cli import main

EPS_CONFIG = """
[equation]
a3 = 0
a2 = -5
a1 = 0
a0 = 4
r0 = 0.001*exp(-t)

[domain]
nodes = 512
"""


@pytest.fixture()
def eps_config(tmp_path):
    path = tmp_path / "eps.ini"
    path.write_text(EPS_CONFIG)
    return path


def test_report_subcommand(eps_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["report", "--config", str(eps_config), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["overall_pass"] is True

    report = json.loads((out / "report.json").read_text())
    root1 = report["roots"]["1"]
    assert root1["solve"]["orientation"] == "direct"
    assert root1["constants"]["smallness_ok"] is True
    assert report["wronskian"]["rel_error"] <= 0.01

    with open(out / "z_root1.csv") as handle:
        header = next(csv.reader(handle))
    assert header == ["t", "z", "dz", "d2z"]
    with open(out / "ratios_root1.csv") as handle:
        header = next(csv.reader(handle))
    assert header == ["t", "y", "y1_over_y", "y2_over_y", "y3_over_y", "y4_over_y"]


def test_analyze_subcommand_skips_solve(eps_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(eps_config), "--out", str(out),
                 "--roots", "1"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["roots"]["1"]["solve"] is None
    assert report["roots"]["1"]["constants"]["Phi"] == pytest.approx(20.2312, rel=1e-4)
    assert not (out / "z_root1.csv").exists()


def test_solve_subcommand_with_trace(eps_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--config", str(eps_config), "--out", str(out),
                 "--roots", "1", "--trace"])
    assert code == 0
    with open(out / "trace_root1.csv") as handle:
        header = next(csv.reader(handle))
    assert header == ["iter", "t", "z", "dz", "d2z"]


def test_exit_code_numerical_failure(tmp_path, capsys):
    config = tmp_path / "big.ini"
    config.write_text(EPS_CONFIG.replace("0.001", "10"))
    code = main(["report", "--config", config.as_posix(), "--out",
                 str(tmp_path / "out")])
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["overall_pass"] is False
    assert any(not r["constants"]["smallness_ok"]
               for r in report["roots"].values() if r["constants"])


def test_exit_code_input_error(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[equation]\na3 = 0\nbogus = 1\n")
    code = main(["report", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_preset_biharmonic_roundtrip(tmp_path, capsys):
    target = tmp_path / "bh.ini"
    assert main(["preset-biharmonic", "--n", "6", "--p", "6", "--out",
                 str(target)]) == 0
    text = target.read_text()
    assert "[equation]" in text and "0.8" in text

    code = main(["analyze", "--config", str(target), "--out",
                 str(tmp_path / "out"), "--roots", "1"])
    assert code == 0


def test_exit_code_infinite_horizon(tmp_path, capsys):
    config = tmp_path / "inf.ini"
    config.write_text(EPS_CONFIG.replace("nodes = 512", "nodes = 512\nt_max = inf"))
    code = main(["report", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "t_max" in capsys.readouterr().err


def test_near_resonant_spectrum_exits_cleanly(tmp_path, capsys):
    # gaps of about 4.4e-8 give a horizon near 6e8, so the node nearest the
    # end of the oracle's span is t0 itself
    config = tmp_path / "near.ini"
    config.write_text("[equation]\na2 = -2.0000001\na0 = 1.0000001\n")
    code = main(["report", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["roots"]["4"]["oracle"]["riccati_direction"] == "backward"


@pytest.mark.parametrize("roots", ["0", "1,5"])
def test_roots_out_of_range_is_input_error(eps_config, tmp_path, capsys, roots):
    out = tmp_path / "out"
    code = main(["analyze", "--config", str(eps_config), "--out", str(out),
                 "--roots", roots])
    assert code == 2
    assert "root indices" in capsys.readouterr().err
    assert not out.exists()


def test_too_deep_expression_is_input_error(tmp_path, capsys):
    config = tmp_path / "deep.ini"
    config.write_text(EPS_CONFIG.replace("0.001*exp(-t)", "(" * 300 + "t" + ")" * 300))
    code = main(["analyze", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "nests deeper than" in err and "Traceback" not in err


def test_t0_the_grid_cannot_resolve_is_input_error(tmp_path, capsys):
    config = tmp_path / "far.ini"
    config.write_text(EPS_CONFIG.replace("nodes = 512", "nodes = 256\nt0 = 1e12"))
    code = main(["report", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "t0=1000000000000.0" in err and "Traceback" not in err


@pytest.mark.parametrize("r0, message", [("1e999", "bad number literal '1e999'"),
                                         ("50%", "r0")])
def test_malformed_ini_value_is_input_error(tmp_path, capsys, r0, message):
    config = tmp_path / "bad.ini"
    config.write_text(EPS_CONFIG.replace("0.001*exp(-t)", r0))
    code = main(["analyze", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
