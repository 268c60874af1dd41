"""Smoke runs of the command-line scripts under ``scripts/`` with tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("convergence_study", ["--hops", "10"]),
        ("sif_sweep", ["--ratios", "0.5", "--out", "{tmp}/sif.csv"]),
        ("run_benchmarks", ["--only", "crossing-single", "--out", "{tmp}"]),
    ],
)
def test_script_main_exits_zero(name, argv, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out
