"""The README's library quick tour, run as a doctest, and the CI's test and smoke lines."""

import doctest
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import test_golden_cli
from homdecomp import cli
from test_golden_grid import GOLDEN, SPECS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_ci_runs_the_roadmap_tier1_line():
    root = README.parent
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    job = workflow["jobs"]["tests"]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", (root / "ROADMAP.md").read_text())
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12"]
    # the test extra pyproject.toml declares, so CI installs what README names
    assert job["steps"][-2]["run"] == "pip install '.[test]'"
    assert "pip install -e '.[test]'" in README.read_text()
    assert job["steps"][-1]["run"] == tier1.group(1)


def test_every_ci_job_has_a_timeout():
    # without one a hung job holds its runner for GitHub's 6-hour default
    workflow = yaml.safe_load((README.parent / ".github" / "workflows" / "tier1.yml").read_text())
    assert sorted(workflow["jobs"]) == ["bench-smoke", "install-smoke", "tests"]
    for name, job in workflow["jobs"].items():
        minutes = job.get("timeout-minutes")
        assert type(minutes) is int and 1 <= minutes <= 30, name


def test_ci_smoke_runs_every_benchmark_workload():
    workflow = yaml.safe_load((README.parent / ".github" / "workflows" / "tier1.yml").read_text())
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


def test_ci_smoke_runs_the_installed_console_script():
    workflow = yaml.safe_load((README.parent / ".github" / "workflows" / "tier1.yml").read_text())
    steps = workflow["jobs"]["install-smoke"]["steps"]
    (install, no_dataclasses,
     spec, run, diff, analyze_run, analyze_diff, stab_spec, stab_run, stab_diff,
     cap_spec, cap_run, cap_stdout, cap_stderr,
     power_spec, power_run, power_diff,
     grid4_spec, grid4_run, grid4_diff,
     grid3_spec, grid3_run, grid3_diff,
     rows_spec, rows_run, rows_diff,
     blocks_spec, blocks_run, blocks_diff,
     verify_run, verify_diff,
     cm_spec, cm_run, cm_diff,
     connected_run, connected_diff,
     cm_stab_run, cm_stab_diff,
     reduced_run, reduced_diff) = (step["run"] for step in steps[-40:])
    assert install == "pip install ."
    # the installed package, with bytecode caching as users run it, imports no
    # dataclasses; tests/test_decomp.py checks the same from src/
    python, flag, script = shlex.split(no_dataclasses)
    assert (python, flag) == ("python3", "-c")
    assert "before = set(sys.modules); import homdecomp.cli;" in script
    assert 'added = {"dataclasses", "inspect"} & (set(sys.modules) - before)' in script
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": str(README.parent / "src")})
    text = re.fullmatch(r"printf '([^']*)' > x2-xy3\.ring", spec).group(1)
    assert text.replace("\\n", "\n") == SPECS["x2-xy3"]
    assert run == "homdecomp grid x2-xy3.ring --max 6 > grid.out"
    case = "x2-xy3-max6-ascii"
    assert diff == f"diff grid.out tests/golden/grid/{case}.out"
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    assert manifest[case] == {"exit": 0, "stderr": "", "svg": False}
    # the one report that prints cyclic and free_over_base side by side
    assert analyze_run == "homdecomp analyze x2-xy3.ring --powers 3 > analyze.out"
    case = "x2-xy3-analyze-powers"
    assert test_golden_cli.CASES[case] == ("x2-xy3", ["analyze", "--powers", "3"])
    assert analyze_diff == f"diff analyze.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    # stabilize on the last ring of (x^2, xy^m) under the stabilization cap
    text = re.fullmatch(r"printf '([^']*)' > x2-xy63\.ring", stab_spec).group(1)
    assert text.replace("\\n", "\n") == test_golden_cli.ALL_SPECS["x2-xy63"]
    assert stab_run == "homdecomp stabilize x2-xy63.ring > stabilize.out"
    case = "x2-xy63-stabilize"
    assert stab_diff == f"diff stabilize.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    # the first ring of the family past the cap: exit 2, no stdout, the cap named on stderr
    text = re.fullmatch(r"printf '([^']*)' > x2-xy64\.ring", cap_spec).group(1)
    assert text.replace("\\n", "\n") == test_golden_cli.ALL_SPECS["x2-xy64"]
    assert cap_run == ("code=0; homdecomp stabilize x2-xy64.ring > stabilize-cap.out "
                       "2> stabilize-cap.err || code=$?; test \"$code\" -eq 2")
    assert cap_stdout == "test ! -s stabilize-cap.out"
    case = "x2-xy64-stabilize"
    assert cap_stderr == ("python3 -c 'import json, sys; sys.exit(open(\"stabilize-cap.err\").read()"
                          " != json.load(open(\"tests/golden/cli/manifest.json\"))"
                          f"[\"{case}\"][\"stderr\"])'")
    assert test_golden_cli.load_case(case) == {
        "exit": 2, "stdout": "",
        "stderr": "error: stabilization index exceeded the cap 64\n"}
    # 2.7 on (x^2, xy^10z^10), whose first non-CM parameter power is y^11
    text = re.fullmatch(r"printf '([^']*)' > x2-xy10z10\.ring", power_spec).group(1)
    assert text.replace("\\n", "\n") == test_golden_cli.ALL_SPECS["x2-xy10z10"]
    assert power_run == "homdecomp verify x2-xy10z10.ring --theorem 2.7 > non-cm-power.out"
    case = "x2-xy10z10-verify-2.7"
    assert power_diff == f"diff non-cm-power.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    # a 4-variable grid, whose boxes have many rows of the last variable
    text = re.fullmatch(r"printf '([^']*)' > x2-xyzw\.ring", grid4_spec).group(1)
    assert text.replace("\\n", "\n") == SPECS["x2-xyzw"]
    assert grid4_run == "homdecomp grid x2-xyzw.ring --max 3 --format json > grid4.out"
    case = "x2-xyzw-max3-json"
    assert grid4_diff == f"diff grid4.out tests/golden/grid/{case}.out"
    assert manifest[case] == {"exit": 0, "stderr": "", "svg": False}
    # a grid whose parameter y sits among the row variables, so each point's rows move
    text = re.fullmatch(r"printf '([^']*)' > x2-xyz\.ring", grid3_spec).group(1)
    assert text.replace("\\n", "\n") == SPECS["x2-xyz"]
    assert grid3_run == "homdecomp grid x2-xyz.ring --max 6 --format json > grid3.out"
    case = "x2-xyz-max6-json"
    assert grid3_diff == f"diff grid3.out tests/golden/grid/{case}.out"
    assert manifest[case] == {"exit": 0, "stderr": "", "svg": False}
    # a grid whose boxes hold 4 rows of y each, with all three classes along t1
    text = re.fullmatch(r"printf '([^']*)' > x4-x3y3-x2y7\.ring", rows_spec).group(1)
    assert text.replace("\\n", "\n") == SPECS["x4-x3y3-x2y7"]
    assert rows_run == "homdecomp grid x4-x3y3-x2y7.ring --max 8 --format json > grid-rows.out"
    case = "x4-x3y3-x2y7-max8-json"
    assert rows_diff == f"diff grid-rows.out tests/golden/grid/{case}.out"
    assert manifest[case] == {"exit": 0, "stderr": "", "svg": False}
    # the one golden report whose blocks interleave in graded-lex order
    text = re.fullmatch(r"printf '([^']*)' > x2-xyz-y3\.ring", blocks_spec).group(1)
    assert text.replace("\\n", "\n") == test_golden_cli.ALL_SPECS["x2-xyz-y3"]
    assert blocks_run == "homdecomp analyze x2-xyz-y3.ring --powers 2 > analyze-blocks.out"
    case = "x2-xyz-y3-analyze-powers"
    assert test_golden_cli.CASES[case] == ("x2-xyz-y3", ["analyze", "--powers", "2"])
    assert blocks_diff == f"diff analyze-blocks.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    report = json.loads(test_golden_cli.load_case(case)["stdout"])
    assert report["hom"]["decomposition"]["partition"] == [[0, 2, 3, 5], [1, 4]]
    # a statement run through cli.STATEMENTS, on the first step's x2-xy3.ring
    assert verify_run == "homdecomp verify x2-xy3.ring --theorem 3.3 > verify.out"
    case = "x2-xy3-verify-3.3"
    assert test_golden_cli.CASES[case] == ("x2-xy3", ["verify", "--theorem", "3.3"])
    assert verify_diff == f"diff verify.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    # a CM ring: depth zero false, read off an empty Γ_m(R)
    text = re.fullmatch(r"printf '([^']*)' > cm-x2\.ring", cm_spec).group(1)
    assert text.replace("\\n", "\n") == test_golden_cli.ALL_SPECS["cm-x2"]
    assert cm_run == "homdecomp analyze cm-x2.ring --powers 2,2 > analyze-cm.out"
    case = "cm-x2-analyze-powers"
    assert test_golden_cli.CASES[case] == ("cm-x2", ["analyze", "--powers", "2,2"])
    assert cm_diff == f"diff analyze-cm.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    report = json.loads(test_golden_cli.load_case(case)["stdout"])
    assert (report["depth_zero"], report["gamma_generators"]) == (False, [])
    # analyze's stratum, a connected Hom that is not cyclic, on the first step's x2-xy3.ring
    assert connected_run == "homdecomp analyze x2-xy3.ring --powers 2 > analyze-connected.out"
    case = "x2-xy3-analyze-powers-connected"
    assert test_golden_cli.CASES[case] == ("x2-xy3", ["analyze", "--powers", "2"])
    assert connected_diff == f"diff analyze-connected.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    hom = json.loads(test_golden_cli.load_case(case)["stdout"])["hom"]
    assert (hom["cyclic"], hom["decomposition"]["verdict"]) == (False, "indecomposable")
    # stabilize where Γ_m(R) = I, on the CM ring's cm-x2.ring: index 0, no generators
    assert cm_stab_run == "homdecomp stabilize cm-x2.ring > stabilize-cm.out"
    case = "cm-x2-stabilize"
    assert test_golden_cli.CASES[case] == ("cm-x2", ["stabilize"])
    assert cm_stab_diff == f"diff stabilize-cm.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0
    report = json.loads(test_golden_cli.load_case(case)["stdout"])
    assert (report["stabilization_index"], report["gamma_generators"]) == (0, [])
    # 4.1 reads depth zero on the ring its reduction chain built, on x2-xy10z10.ring
    assert reduced_run == "homdecomp verify x2-xy10z10.ring --theorem 4.1 > verify-4.1.out"
    case = "x2-xy10z10-verify-4.1"
    assert test_golden_cli.CASES[case] == ("x2-xy10z10", ["verify", "--theorem", "4.1"])
    assert reduced_diff == f"diff verify-4.1.out tests/golden/cli/{case}.out"
    assert test_golden_cli.load_case(case)["exit"] == 0


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
