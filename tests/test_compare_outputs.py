"""tools/compare_outputs.py: the per-column summary of a differing CSV and
the spectrum commands of the workload configs."""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tools"))
import compare_outputs  # noqa: E402
import workloads  # noqa: E402  (perfbench/, put on the path by compare_outputs)

from spdecutoff import build_box_eigensystem  # noqa: E402
from spdecutoff.cli import main  # noqa: E402

HEADER = "case,p,eps,rho_or_delta,renormalized,profile,bound,pass\n"


def test_largest_relative_change_per_column_and_pass_flips():
    parent = (HEADER + "x,2,0.5,0,1.0,2.0,0.5,true\n"
              "x,2,0.5,1,4.0,2.0,inf,true\n").encode()
    change = (HEADER + "x,2,0.5,0,1.25,2.0,0.5,false\n"
              "x,2,0.5,1,4.0,2.5,1.0,true\n").encode()
    assert compare_outputs.csv_change(parent, change) == \
        "; renormalized 0.2, profile 0.2, bound inf, pass flips 1"


def test_rows_that_do_not_line_up_give_no_summary():
    parent = (HEADER + "x,2,0.5,0,1.0,2.0,0.5,true\n").encode()
    other_rho = (HEADER + "x,2,0.5,1,1.0,2.0,0.5,true\n").encode()
    assert compare_outputs.csv_change(parent, other_rho) == ""
    assert compare_outputs.csv_change(parent, HEADER.encode()) == ""


def test_one_spectrum_command_per_config_with_dims(tmp_path):
    counts = {}
    for workload in workloads.WORKLOADS:
        out = str(tmp_path / workload / "out")
        argvs = workloads.write_commands(workload, 0, str(tmp_path / workload / "cfg"), out)
        spectra = compare_outputs.spectrum_commands(argvs, out)
        counts[workload] = len(spectra)
        for argv in spectra:
            assert argv[0] == "spectrum" and argv[1] == "--config"
            assert os.path.dirname(argv[4]) == os.path.join(out, "spectrum")
    assert counts == {"wave-overdamped": 1, "heat-3d": 3, "wave-window": 1, "monte-carlo": 0}


def test_spectrum_command_writes_the_eigensystem_json(tmp_path):
    out = str(tmp_path / "out")
    argvs = workloads.write_commands("wave-overdamped", 0, str(tmp_path / "cfg"), out)
    [argv] = compare_outputs.spectrum_commands(argvs, out)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with open(argv[2]) as f:
        dims = json.load(f)["dims"]
    with open(argv[4]) as f:
        assert f.read() == build_box_eigensystem(dims).to_json() + "\n"


def pycache_dirs(tree):
    return [dirpath for dirpath, _, _ in os.walk(tree) if os.path.basename(dirpath) == "__pycache__"]


def test_a_run_writes_no_bytecode_into_either_tree(tmp_path, monkeypatch, capsys):
    trees = [tmp_path / side for side in compare_outputs.SIDES]
    for tree in trees:
        shutil.copytree(os.path.join(ROOT, "src", "spdecutoff"), tree / "spdecutoff",
                        ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(workloads, "WORKLOADS", ("wave-window",))
    assert compare_outputs.main([str(t) for t in trees] + ["--seeds", "0"]) == 0
    assert capsys.readouterr().out.endswith("of 1 workloads; 0 faults\n")
    assert pycache_dirs(tmp_path) == []


def test_importing_the_workloads_writes_no_bytecode(tmp_path):
    for sub, name in (("tools", "compare_outputs.py"), ("perfbench", "workloads.py")):
        (tmp_path / sub).mkdir()
        shutil.copy(os.path.join(ROOT, sub, name), tmp_path / sub / name)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, str(tmp_path / "tools" / "compare_outputs.py"), "--help"],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    assert pycache_dirs(tmp_path) == []
