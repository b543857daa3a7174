"""The README's library quick tour, run as a doctest, and the CI's test and smoke lines."""

import doctest
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import test_golden_cli
from homdecomp import cli
from test_golden_grid import SPECS

README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tier1.yml"


def test_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_ci_runs_the_roadmap_tier1_line():
    root = README.parent
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["tests"]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", (root / "ROADMAP.md").read_text())
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12"]
    # the test extra pyproject.toml declares, so CI installs what README names
    assert job["steps"][-2]["run"] == "pip install '.[test]'"
    assert "pip install -e '.[test]'" in README.read_text()
    # with the 15 slowest tests listed in every CI log
    assert job["steps"][-1]["run"] == tier1.group(1) + " --durations=15"


def test_readme_names_the_build_requirements_of_its_install_lines():
    # --no-build-isolation installs no build requirement, so README names them
    # next to the flag, with pyproject.toml's setuptools floor
    pyproject = (README.parent / "pyproject.toml").read_text()
    requires = re.search(r"^\[build-system\]\nrequires = \[(.*)\]$", pyproject, re.M).group(1)
    floor, = re.findall(r'"setuptools>=(\d+)"', requires)
    text = README.read_text()
    install = text[text.index("## Install"):]
    install = install[:install.index("\n## ", 1)]
    assert "--no-build-isolation" in install and "`wheel`" in install
    assert f"`setuptools>={floor}`" in install
    assert set(re.findall(r"setuptools>=(\d+)", text)) == {floor}


def test_every_ci_job_has_a_timeout():
    # without one a hung job holds its runner for GitHub's 6-hour default
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert sorted(workflow["jobs"]) == ["bench-smoke", "install-smoke", "tests"]
    for name, job in workflow["jobs"].items():
        minutes = job.get("timeout-minutes")
        assert type(minutes) is int and 1 <= minutes <= 30, name


def test_ci_smoke_runs_every_benchmark_workload():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    job = workflow["jobs"]["bench-smoke"]
    assert job["strategy"]["matrix"]["workload"] == ["grid", "analyze", "verify"]
    traced_run, traced_check, run, check = (step["run"] for step in job["steps"][-4:])
    # a traced run first, so a name the tracer wraps that stops resolving fails CI
    assert traced_run == ("python3 bench/run.py --workload ${{ matrix.workload }} "
                          "--seed 1 --seconds 2 --trace 1 > trace.out")
    assert traced_check.startswith("tail -n 1 trace.out | ")
    assert '["correct"] is not True' in traced_check
    assert run.startswith("python3 bench/run.py --workload ${{ matrix.workload }} "
                          "--seed 1 --seconds 2 --trace 0")
    assert '["correct"] is not True' in check


def install_smoke_runs() -> list:
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["install-smoke"]
    # the installed package alone: no source path and no editable install
    assert "PYTHONPATH" not in str(job)
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[0] == "pip install '.[test]'"
    assert not any(re.search(r"pip install .*(-e\b|--editable)", run) for run in runs)
    return runs


def test_ci_smoke_runs_the_installed_console_script():
    runs = install_smoke_runs()
    # the installed package, with bytecode caching as users run it, imports no
    # dataclasses; tests/test_decomp.py checks the same from src/
    no_dataclasses, = (run for run in runs if "import homdecomp.cli;" in run)
    python, flag, script = shlex.split(no_dataclasses)
    assert (python, flag) == ("python3", "-c")
    assert 'added = {"dataclasses", "inspect"} & (set(sys.modules) - before)' in script
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": str(README.parent / "src")})
    # every spec the console script reads is a golden spec, every file it diffs a golden file
    for run in runs:
        if spec := re.fullmatch(r"printf '([^']*)' > (\S+)\.ring", run):
            assert spec[1].replace("\\n", "\n") == (test_golden_cli.ALL_SPECS | SPECS)[spec[2]]
        if diff := re.fullmatch(r"diff \S+ (tests/golden/\S+)", run):
            assert (README.parent / diff[1]).is_file()
    # exit 0 on a grid; exit 2, no stdout and the cap on stderr past the stabilization cap
    grid = ["printf 'ring x y\\nrelations x^2 xy^3\\nsop y^2\\n' > x2-xy3.ring",
            "homdecomp grid x2-xy3.ring --max 6 > grid.out",
            "diff grid.out tests/golden/grid/x2-xy3-max6-ascii.out"]
    case = "x2-xy64-stabilize"
    cap = ["printf 'ring x y\\nrelations x^2 xy^64\\nsop y\\n' > x2-xy64.ring",
           "code=0; homdecomp stabilize x2-xy64.ring > stabilize-cap.out "
           "2> stabilize-cap.err || code=$?; test \"$code\" -eq 2",
           "test ! -s stabilize-cap.out",
           "python3 -c 'import json, sys; sys.exit(open(\"stabilize-cap.err\").read()"
           " != json.load(open(\"tests/golden/cli/manifest.json\"))"
           f"[\"{case}\"][\"stderr\"])'"]
    for steps in (grid, cap):
        at = [runs.index(run) for run in steps]
        assert at == sorted(at)
    assert test_golden_cli.load_case(case) == {
        "exit": 2, "stdout": "",
        "stderr": "error: stabilization index exceeded the cap 64\n"}


def test_ci_smoke_diffs_every_golden_dir_written_by_the_installed_package(tmp_path):
    runs = install_smoke_runs()
    root = README.parent
    # before any writer runs, a step fails if homdecomp resolves inside the checkout's src/
    guard, = (run for run in runs if "homdecomp.__file__" in run)
    script = shlex.split(guard)[-1]
    checkout = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert checkout.returncode == 1 and "inside the checkout" in checkout.stderr
    shutil.copytree(root / "src" / "homdecomp", tmp_path / "homdecomp")
    subprocess.run([sys.executable, "-c", script], cwd=root, check=True,
                   env={**os.environ, "PYTHONPATH": str(tmp_path)})
    # each golden directory, rewritten by its writer and diffed whole, so a new case needs no step
    kinds = [path.name for path in (root / "tests" / "golden").iterdir() if path.is_dir()]
    assert kinds
    for kind in kinds:
        write = runs.index(f"python3 tests/test_golden_{kind}.py out/{kind}")
        assert runs.index(guard) < write < runs.index(f"diff -r out/{kind} tests/golden/{kind}")


def test_readme_and_verify_help_name_the_options_each_statement_reads(capsys, monkeypatch):
    table = {name: set(reads) for name, (reads, _) in cli.STATEMENTS.items()}
    text = README.read_text()
    bullet = re.search(r"- `verify` with an option its statement does not read\.(.*?read none)\.",
                       text, re.S).group(1)
    said = {}
    for clause in bullet.split(";"):
        quoted = re.findall(r"`([^`]*)`", clause)
        for name in (q for q in quoted if not q.startswith("--")):
            assert name not in said, name
            said[name] = {q[2:] for q in quoted if q.startswith("--")}
    assert said == table
    assert f"--theorem {{{','.join(cli.STATEMENTS)}}}" in text
    monkeypatch.setenv("COLUMNS", "200")  # no wrapped help lines
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--theorem {{{','.join(cli.STATEMENTS)}}}" in help_text
    helps = dict(re.findall(r"--(\w+) [A-Z]+ ([^-]*?)(?= --|$)", help_text))
    assert set(helps) == set().union(*table.values())
    for flag, help_line in helps.items():
        readers = [name for name, reads in table.items() if flag in reads]
        assert help_line.endswith(f", used by {' and '.join(readers)}"), (flag, help_line)
