import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_epsilon_study_smoke(capsys):
    load_script("run_epsilon_study").study([1e-3])
    row = capsys.readouterr().out.strip().splitlines()[-1].split()
    # eps, rho1, rho*A*vs, Phi, iters, residual, env ratio
    assert len(row) == 7
    assert row[1] == "5.000e-04"
    assert row[3] == "20.2312"
    assert float(row[6]) <= 1.0


def test_dump_reports_is_reproducible(tmp_path):
    dump = load_script("dump_reports").dump
    trees = []
    for name in ("a", "b"):
        (target,) = dump(tmp_path / name, ["standard"], [0])
        assert target.name == "standard-seed0"
        trees.append({p.name: p.read_bytes() for p in target.iterdir()})
    assert "report.json" in trees[0] and "wronskian.csv" in trees[0]
    assert trees[0] == trees[1]


def test_run_biharmonic_smoke(tmp_path, monkeypatch, capsys):
    script = load_script("run_biharmonic")
    monkeypatch.setattr("sys.argv", ["run_biharmonic.py", "--out", str(tmp_path)])
    assert script.main() == 0
    assert (tmp_path / "report.json").is_file()
    assert "overall pass: True" in capsys.readouterr().out
