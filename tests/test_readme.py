"""The README's library quick tour, run as a doctest, and the CI's test and smoke lines."""

import doctest
import json
import re
from pathlib import Path

import pytest

import test_golden_cli
from test_golden_grid import GOLDEN, SPECS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_ci_runs_the_roadmap_tier1_line():
    yaml = pytest.importorskip("yaml")
    root = README.parent
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    job = workflow["jobs"]["tests"]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", (root / "ROADMAP.md").read_text())
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12"]
    assert job["steps"][-2]["run"] == "pip install pytest hypothesis"
    assert job["steps"][-1]["run"] == tier1.group(1)


def test_ci_smoke_runs_every_benchmark_workload():
    yaml = pytest.importorskip("yaml")
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
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((README.parent / ".github" / "workflows" / "tier1.yml").read_text())
    steps = workflow["jobs"]["install-smoke"]["steps"]
    (install, spec, run, diff, analyze_run, analyze_diff, stab_spec, stab_run, stab_diff,
     power_spec, power_run, power_diff,
     grid4_spec, grid4_run, grid4_diff,
     grid3_spec, grid3_run, grid3_diff,
     rows_spec, rows_run, rows_diff,
     blocks_spec, blocks_run, blocks_diff) = (step["run"] for step in steps[-24:])
    assert install == "pip install ."
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
