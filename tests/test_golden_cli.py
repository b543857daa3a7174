"""`homdecomp analyze`, `verify` and `stabilize` output, byte for byte, against golden files.

Each case runs the CLI in-process on one ring spec with one set of
options and compares stdout, stderr and the exit code with
tests/golden/cli.  The cases cover b given as powers and as explicit
monomials, the statements rees, 3.1, 3.3, 4.1, 4.2, 2.5 and 2.6 on the
grid golden specs and on two Cohen-Macaulay specs, 2.7 on the specs
with two and three parameters, the refusals the hypotheses and the b
validation raise, and stabilize on every spec, including the last ring
of the family (x^2, xy^m) under the stabilization cap and the first one
past it.  2.7, 4.1 and 4.2 also run on (x^2, xy^m z^m), whose first
non-CM parameter power is y^(m+1).  Partition indices in the reports follow the grlex order of
the Hom basis, so the files pin that order too.

    PYTHONPATH=src python tests/test_golden_cli.py DIR

writes the current code's output for every case into DIR.  CI's install-smoke
job runs it without PYTHONPATH, against the installed package, and
`diff -r`s DIR with tests/golden/cli.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from homdecomp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

SPECS = {
    "x2-xyz": "ring x y z\nrelations x^2 xyz\nsop y z\n",
    "x2-xy3": "ring x y\nrelations x^2 xy^3\nsop y^2\n",
    "x2-xyz-y3": "ring x y z\nrelations x^2 xyz y^3\nsop z\n",
    "x2-xyzw": "ring x y z w\nrelations x^2 xyzw\nsop y z w\n",
    "cm-x2": "ring x y z\nrelations x^2\nsop y z^2\n",
    "cm-x2y3": "ring x y z\nrelations x^2 y^3\nsop z^2\n",
}
# specs that only stabilize runs on: stabilization index 64, the cap, and 65
STABILIZE_SPECS = {
    "x2-xy63": "ring x y\nrelations x^2 xy^63\nsop y\n",
    "x2-xy64": "ring x y\nrelations x^2 xy^64\nsop y\n",
}
# specs that only 2.7, 4.1 and 4.2 run on: the first non-CM power y^(m+1) is y^10 and y^11
NON_CM_POWER_SPECS = {
    "x2-xy9z9": "ring x y z\nrelations x^2 xy^9z^9\nsop y z\n",
    "x2-xy10z10": "ring x y z\nrelations x^2 xy^10z^10\nsop y z\n",
}
ALL_SPECS = SPECS | STABILIZE_SPECS | NON_CM_POWER_SPECS

# b for analyze and verify rees, as powers and as explicit monomials
POWERS = {"x2-xyz": "2,3", "x2-xy3": "3", "x2-xyz-y3": "2", "x2-xyzw": "2,1,3",
          "cm-x2": "2,2", "cm-x2y3": "3"}
EXPLICIT_B = {"x2-xyz": "(z^2, y^3)", "x2-xy3": "(y^8)", "x2-xyz-y3": "(z^4)",
              "x2-xyzw": "(w^2, z, y^2)", "cm-x2": "(z^4, y)", "cm-x2y3": "(z^6)"}
# --powers for J and --b for N in 2.6
TRANSFER = {"x2-xyz": ("2,2", "(y^3, z^3)"), "x2-xy3": ("2", "(y^6)"),
            "x2-xyz-y3": ("3", "(z^4)"), "x2-xyzw": ("1,2,1", "(y^2, z^4, w^2)"),
            "cm-x2": ("2,1", "(y^2, z^4)"), "cm-x2y3": ("2", "(z^4)")}


def _cases() -> dict:
    """Case name -> (spec, subcommand and options)."""
    cases = {}
    for spec in SPECS:
        cases[f"{spec}-analyze-powers"] = spec, ["analyze", "--powers", POWERS[spec]]
        cases[f"{spec}-analyze-b"] = spec, ["analyze", "--b", EXPLICIT_B[spec]]
        cases[f"{spec}-verify-rees"] = spec, ["verify", "--theorem", "rees"]
        if spec.startswith("cm-"):
            cases[f"{spec}-verify-rees-powers"] = spec, ["verify", "--theorem", "rees",
                                                         "--powers", POWERS[spec]]
            cases[f"{spec}-verify-rees-b"] = spec, ["verify", "--theorem", "rees",
                                                    "--b", EXPLICIT_B[spec]]
        for theorem in ("3.1", "3.3", "4.1", "4.2"):
            cases[f"{spec}-verify-{theorem}"] = spec, ["verify", "--theorem", theorem]
        powers, b = TRANSFER[spec]
        cases[f"{spec}-verify-2.6"] = spec, ["verify", "--theorem", "2.6",
                                             "--powers", powers, "--b", b]
        cases[f"{spec}-verify-2.5"] = spec, ["verify", "--theorem", "2.5", "--seed", "7"]
    for spec in ("x2-xyz", "x2-xyzw", "cm-x2"):
        cases[f"{spec}-verify-2.7"] = spec, ["verify", "--theorem", "2.7"]
    for spec in NON_CM_POWER_SPECS:
        for theorem in ("2.7", "4.1", "4.2"):
            cases[f"{spec}-verify-{theorem}"] = spec, ["verify", "--theorem", theorem]
    for spec in SPECS | STABILIZE_SPECS:
        cases[f"{spec}-stabilize"] = spec, ["stabilize"]
    # the refusals of b, which every route shares
    cases["x2-xy3-analyze-a"] = "x2-xy3", ["analyze", "--a", "(y)", "--b", "(y^3)"]
    cases["x2-xy3-analyze-b-outside-a"] = "x2-xy3", ["analyze", "--b", "(y)"]
    cases["x2-xy3-analyze-b-not-parameter"] = "x2-xy3", ["analyze", "--b", "(xy^2)"]
    cases["x2-xy3-analyze-powers-zero"] = "x2-xy3", ["analyze", "--powers", "0"]
    cases["x2-xy3-analyze-powers-count"] = "x2-xy3", ["analyze", "--powers", "1,2"]
    # 2.6 reads --powers for J as analyze does, so it refuses them with the same texts
    for name, powers in (("zero", "0"), ("count", "1,2")):
        cases[f"x2-xy3-verify-2.6-powers-{name}"] = "x2-xy3", ["verify", "--theorem", "2.6",
                                                               "--powers", powers, "--b", "(y^4)"]
    # a connected Hom that is not cyclic: analyze's stratum, indecomposable and not free
    cases["x2-xy3-analyze-powers-connected"] = "x2-xy3", ["analyze", "--powers", "2"]
    cases["x2-xyz-analyze-b-short"] = "x2-xyz", ["analyze", "--b", "(y^2)"]
    return cases


CASES = _cases()


def run_case(case: str, workdir: Path) -> dict:
    """Run one case; its exit code, stdout and stderr."""
    spec, (command, *options) = CASES[case]
    spec_path = workdir / f"{spec}.ring"
    spec_path.write_text(ALL_SPECS[spec], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(spec_path)] + options)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_case(case: str) -> dict:
    entry = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))[case]
    return {"exit": entry["exit"],
            "stdout": (GOLDEN / f"{case}.out").read_text(encoding="utf-8"),
            "stderr": entry["stderr"]}


def test_manifest_lists_every_case():
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest) == sorted(CASES)
    # every statement passes somewhere and every refusal is a bad-input exit
    assert {entry["exit"] for entry in manifest.values()} == {0, 2}
    for theorem in ("rees", "3.1", "3.3", "4.1", "4.2", "2.5", "2.6", "2.7"):
        assert any(manifest[case]["exit"] == 0 for case in CASES
                   if case.endswith(f"-verify-{theorem}"))
    assert manifest["x2-xy63-stabilize"]["exit"] == 0
    assert manifest["x2-xy64-stabilize"]["exit"] == 2
    for spec, power in (("x2-xy9z9", 10), ("x2-xy10z10", 11)):
        assert manifest[f"{spec}-verify-2.7"]["exit"] == 0
        assert f'"power": {power},' in load_case(f"{spec}-verify-2.7")["stdout"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert run_case(case, tmp_path) == load_case(case)


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as work:
        for case in sorted(CASES):
            result = run_case(case, Path(work))
            (target / f"{case}.out").write_text(result["stdout"], encoding="utf-8")
            manifest[case] = {"exit": result["exit"], "stderr": result["stderr"]}
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")
