"""`homdecomp grid` output, byte for byte, against committed golden files.

Each case runs the CLI in-process on one ring spec, at one --max and in
one mode (ascii, json, or ascii with --out SVG), and compares stdout,
stderr, the exit code and the SVG file with tests/golden/grid.  The
golden files hold the output of the grid route that built one Hom per
point, and the multi-row cases that of the route that listed every
point's basis cells; a faster route must reproduce them exactly.

    PYTHONPATH=src python tests/test_golden_grid.py DIR

writes the current code's output for every case into DIR.  CI's install-smoke
job runs it without PYTHONPATH, against the installed package, and
`diff -r`s DIR with tests/golden/grid.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from homdecomp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "grid"

SPECS = {
    "x2-xyz": "ring x y z\nrelations x^2 xyz\nsop y z\n",
    "x2-xy3": "ring x y\nrelations x^2 xy^3\nsop y^2\n",
    "x2-xyz-y3": "ring x y z\nrelations x^2 xyz y^3\nsop z\n",
    "x2-xyzw": "ring x y z w\nrelations x^2 xyzw\nsop y z w\n",
    "x4-x3y3-x2y7": "ring x y\nrelations x^4 x^3y^3 x^2y^7\nsop y^2\n",
    "x3-x2y2z3": "ring x y z\nrelations x^3 x^2y^2z^3\nsop y^2 z\n",
}
MODES = {"ascii": [], "json": ["--format", "json"], "svg": ["--out"]}
CASES = [f"{spec}-max{tmax}-{mode}" for spec in list(SPECS)[:4] for tmax in (1, 3, 6)
         for mode in MODES]
# boxes of several rows per point: x4-x3y3-x2y7 has 4 rows and all three classes
CASES += [f"{spec}-{mode}" for spec in ("x4-x3y3-x2y7-max8", "x3-x2y2z3-max5")
          for mode in ("ascii", "json")]


def run_case(case: str, workdir: Path) -> dict:
    """Run one case; its exit code, stdout, stderr and SVG text (None if none)."""
    spec, tmax, mode = case.rsplit("-", 2)
    spec_path = workdir / f"{spec}.ring"
    spec_path.write_text(SPECS[spec], encoding="utf-8")
    svg_path = workdir / f"{case}.svg"
    argv = ["grid", str(spec_path), "--max", tmax[len("max"):]] + MODES[mode]
    if mode == "svg":
        argv.append(str(svg_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    svg = svg_path.read_text(encoding="utf-8") if svg_path.exists() else None
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "svg": svg}


def write_case(case: str, result: dict, target: Path) -> dict:
    """Write stdout and SVG as files under target; the manifest entry for the rest."""
    (target / f"{case}.out").write_text(result["stdout"], encoding="utf-8")
    if result["svg"] is not None:
        (target / f"{case}.svg").write_text(result["svg"], encoding="utf-8")
    return {"exit": result["exit"], "stderr": result["stderr"], "svg": result["svg"] is not None}


def load_case(case: str) -> dict:
    entry = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))[case]
    svg = (GOLDEN / f"{case}.svg").read_text(encoding="utf-8") if entry["svg"] else None
    return {"exit": entry["exit"],
            "stdout": (GOLDEN / f"{case}.out").read_text(encoding="utf-8"),
            "stderr": entry["stderr"], "svg": svg}


def test_manifest_lists_every_case():
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(CASES)
    # the cases cover rendered grids and the refused renderings alike
    assert {entry["exit"] for entry in manifest.values()} == {0, 2}
    assert sum(entry["svg"] for entry in manifest.values()) == 3


@pytest.mark.parametrize("case", CASES)
def test_grid_output_matches_golden(case, tmp_path):
    assert run_case(case, tmp_path) == load_case(case)


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as work:
        for case in CASES:
            manifest[case] = write_case(case, run_case(case, Path(work)), target)
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")
