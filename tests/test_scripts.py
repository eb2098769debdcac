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
