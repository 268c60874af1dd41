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


def test_convergence_study_prints_the_preset_error(capsys):
    # at 22 hops the study's mesh is the inclined-crack preset's (nx = 38),
    # so its rel_L2 is the preset's reference error, 0.0290335
    assert load_script("convergence_study").main(["--hops", "22"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[3] == "rel_L2"
    assert row.split()[0] == "22" and row.split()[3] == "0.0290"
