"""Ring-spec grammar, report schemas, grid renderings, exit codes."""

import json
import re

import pytest

from conftest import serialize_ring_spec
from homdecomp import cli
from homdecomp.cli import (
    RingSpec,
    RingSpecError,
    main,
    parse_ring_file,
    render_grid_figure,
)
from homdecomp.monomials import MonomialIdeal
from homdecomp.rings import LocalRing, validate_sop
from homdecomp.theorems import classify_grid

E51 = "ring x y\nrelations x^2 xy^2\nsop y\n"
E52_M3 = "ring x y\nrelations x^2 xy^3\nsop y^2\n"
FIG1 = "ring x y z\nrelations x^2 xyz\nsop y z\n"
CM = "ring x y\nrelations x^2\nsop y\n"


def three_var_class(t) -> str:
    """Class of k[x,y,z]/(x^2, xyz), sop y, z, at powers t, in closed form."""
    return "DECOMPOSABLE" if min(t) >= 2 else "FREE_CYCLIC"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRingSpecParsing:
    def test_basic_spec(self):
        spec = parse_ring_file(E52_M3)
        assert spec.variables == ("x", "y")
        assert spec.relations == ("x^2", "xy^3")
        assert spec.sop == ("y^2",)
        assert spec.seed is None

    def test_comments_and_blank_lines(self):
        spec = parse_ring_file("# header\n\nring x y  # trailing\n\nrelations x^2\n")
        assert spec.variables == ("x", "y")
        assert spec.relations == ("x^2",)

    def test_relations_are_canonicalized(self):
        # y^1 x^2 reads back as the graded-lex normal form
        spec = parse_ring_file("ring x y\nrelations y^1x^2\n")
        assert spec.relations == ("x^2y",)

    def test_prime_and_seed_keys(self):
        with pytest.raises(RingSpecError, match="line 2: unknown key 'prime'"):
            parse_ring_file("ring x y\nprime 7\nseed 3\n")
        assert parse_ring_file("ring x y\nseed 3\n").seed == 3

    def test_duplicate_variable(self):
        with pytest.raises(RingSpecError, match="line 1: duplicate variable"):
            parse_ring_file("ring x x\n")

    def test_duplicate_section(self):
        with pytest.raises(RingSpecError, match="line 3: duplicate sop"):
            parse_ring_file("ring x y\nsop y\nsop x\n")

    def test_unknown_key(self):
        with pytest.raises(RingSpecError, match="line 2: unknown key 'ideal'"):
            parse_ring_file("ring x y\nideal x^2\n")

    def test_undeclared_variable(self):
        with pytest.raises(RingSpecError, match="line 2"):
            parse_ring_file("ring x y\nrelations z^2\n")

    def test_ring_must_come_first(self):
        with pytest.raises(RingSpecError, match="line 1: ring must be declared"):
            parse_ring_file("relations x^2\nring x y\n")

    def test_missing_ring(self):
        with pytest.raises(RingSpecError, match="no ring line"):
            parse_ring_file("# nothing here\n")

    def test_bad_variable_name(self):
        with pytest.raises(RingSpecError, match="bad variable name"):
            parse_ring_file("ring x 2y\n")

    @pytest.mark.parametrize("names, longer, shorter", [
        ("x y xy", "xy", "x"), ("ab a", "ab", "a"), ("y xyz xy", "xyz", "xy")])
    def test_variable_name_beginning_with_another(self, tmp_path, capsys, names, longer, shorter):
        # under `ring x y xy`, x^1y would be stored as xy and read back as the variable xy
        message = (f"line 2: variable name '{longer}' begins with the variable name "
                   f"'{shorter}'")
        text = f"# names\nring {names}\nrelations x^1y x^2 y^2\nsop xy\n"
        with pytest.raises(RingSpecError, match=f"^{re.escape(message)}$"):
            parse_ring_file(text)
        path = write(tmp_path, "prefix.ring", text)
        assert run(capsys, "stabilize", path) == (2, "", f"error: {message}\n")

    def test_bad_integer_key(self):
        with pytest.raises(RingSpecError, match="one integer"):
            parse_ring_file("ring x y\nseed seven\n")

    @pytest.mark.parametrize("line, message", [
        ("seed ²", "line 2: seed takes one integer"),
        ("seed ٣", "line 2: seed takes one integer"),
        ("relations x^²", "line 2: missing exponent after '^' in 'x^²'")])
    def test_non_ascii_digits_name_their_line(self, tmp_path, capsys, line, message):
        # str.isdigit accepts '²', which int() refuses without a line number
        text = f"ring x y\n{line}\nsop y\n"
        with pytest.raises(RingSpecError, match=f"^{re.escape(message)}$"):
            parse_ring_file(text)
        path = write(tmp_path, "digits.ring", text)
        assert run(capsys, "stabilize", path) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", [E51, E52_M3, FIG1, CM,
                                      "ring a b c\nrelations a^2 abc\nsop b c\nseed 5"])
    def test_round_trip(self, text):
        spec = parse_ring_file(text)
        assert parse_ring_file(serialize_ring_spec(spec)) == spec

    def test_zero_relations_ring(self):
        spec = parse_ring_file("ring x y\nsop x y\n")
        assert repr(spec.ring()) == "k[x, y]/(0)"


class TestAnalyze:
    def test_free_cyclic_example(self, tmp_path, capsys):
        path = write(tmp_path, "e51.ring", E51)
        code, out, _ = run(capsys, "analyze", path, "--a", "(y)", "--b", "(y^2)")
        assert code == 0
        report = json.loads(out)
        assert report["hom"]["cyclic"] is True
        assert report["hom"]["free_over_base"] is True
        assert report["hom"]["length"] == 2
        assert report["hom"]["decomposition"]["verdict"] == "indecomposable"

    def test_noncyclic_indecomposable_example(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, _ = run(capsys, "analyze", path, "--b", "(y^4)")
        assert code == 0
        report = json.loads(out)
        assert report["hom"]["cyclic"] is False
        assert report["hom"]["minimal_generators"] == 2
        assert report["hom"]["decomposition"]["verdict"] == "indecomposable"
        assert report["stabilization_index"] == 4
        assert report["gamma_generators"] == ["x"]

    def test_powers_flag(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, _ = run(capsys, "analyze", path, "--powers", "3")
        assert code == 0
        report = json.loads(out)
        assert report["b"] == "(y^6)"
        assert report["hom"]["decomposition"]["verdict"] == "decomposable"

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        _, first, _ = run(capsys, "analyze", path, "--powers", "3")
        _, second, _ = run(capsys, "analyze", path, "--powers", "3")
        assert first == second

    def test_decomposition_schema(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        _, out, _ = run(capsys, "analyze", path, "--powers", "3")
        dec = json.loads(out)["hom"]["decomposition"]
        assert dec == {"verdict": "decomposable", "method": "components",
                       "module_dim": 4, "summand_count": 2,
                       "partition": [[0, 1], [2, 3]]}
        _, out, _ = run(capsys, "analyze", path, "--b", "(y^4)")
        dec = json.loads(out)["hom"]["decomposition"]
        assert sorted(dec) == ["certificate", "method", "module_dim",
                               "summand_count", "verdict"]
        assert "Gordon-Green" in dec["certificate"]

    @pytest.mark.parametrize("command, flag", [
        ("analyze", "--prime"), ("analyze", "--seed"), ("grid", "--seed")])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        path = write(tmp_path, "e52.ring", E52_M3)
        with pytest.raises(SystemExit) as exc:
            main([command, path, flag, "5"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_spec_prime_is_rejected_and_seed_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "e52p.ring", E52_M3 + "prime 7\nseed 3\n")
        assert run(capsys, "analyze", path, "--powers", "3") == (
            2, "", "error: line 4: unknown key 'prime'\n")
        path = write(tmp_path, "e52.ring", E52_M3 + "seed 3\n")
        code, out, _ = run(capsys, "analyze", path, "--powers", "3")
        assert code == 0
        assert json.loads(out)["hom"]["decomposition"]["summand_count"] == 2

    def test_length_cap_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "wide.ring", "ring x y\nrelations x^2000 xy\nsop y\n")
        code, _, err = run(capsys, "analyze", path, "--powers", "2000")
        assert code == 2
        assert err.startswith("error: ")
        assert "exceeds cap 1000000" in err

    def test_report_enumerates_the_base_once(self, monkeypatch):
        scans = []
        original = MonomialIdeal.length

        def counting(self, *args, **kwargs):
            scans.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MonomialIdeal, "length", counting)
        spec = parse_ring_file("ring x y\nrelations x^4 x^3y^9\nsop y^5\n")
        report = cli.analysis_report(spec, None, None, [3])
        assert report["hom"]["non_free_witness"] == "x^3"
        assert [spec.ring().fmt_ideal(I) for I in scans] == ["(x^4, y^5)"]

    def test_b_outside_a_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "e51.ring", E51)
        code, _, err = run(capsys, "analyze", path, "--a", "(y^2)", "--b", "(y)")
        assert code == 2
        assert "not inside a" in err

    def test_missing_b_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "e51.ring", E51)
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert "--b or --powers" in err

    def test_b_and_powers_are_alternatives(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--b", "(y^8)", "--powers", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --powers: not allowed with argument --b" in captured.err

    @pytest.mark.parametrize("argv", [
        ("analyze",),
        ("verify", "--theorem", "rees"),
        ("verify", "--theorem", "2.6", "--b", "(y^8)"),
    ])
    def test_empty_powers_is_refused_not_dropped(self, tmp_path, capsys, argv):
        path = write(tmp_path, "e52.ring", E52_M3)
        assert run(capsys, argv[0], path, *argv[1:], "--powers", "") == (
            2, "", "error: bad --powers value '': comma-separated integers in ASCII digits\n")

    @pytest.mark.parametrize("argv", [("analyze",), ("verify", "--theorem", "rees")])
    def test_empty_b_is_refused_not_defaulted(self, tmp_path, capsys, argv):
        # an empty --b is a b, not a missing one: rees must not fall back to its default
        path = write(tmp_path, "cm.ring", CM)
        assert run(capsys, argv[0], path, *argv[1:], "--b", "()") == (
            2, "", "error: b must not be empty\n")

    @pytest.mark.parametrize("argv", [
        ("analyze", "--powers", "2"),
        ("grid", "--max", "2"),
        ("verify", "--theorem", "3.1"),
    ])
    def test_unit_parameter_exits_2(self, tmp_path, capsys, argv):
        path = write(tmp_path, "unit.ring", "ring x y\nrelations x^2 xy^2\nsop 1\n")
        code, _, err = run(capsys, argv[0], path, *argv[1:])
        assert code == 2
        assert "parameter 1 is the unit 1" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent.ring", "--powers", "2")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv, option", [
        (("analyze", "--powers", "1_0"), "--powers"),
        (("analyze", "--powers", "٣"), "--powers"),
        (("verify", "--theorem", "rees", "--powers", "2,²"), "--powers"),
        (("grid", "--max", "٣"), "--max"),
        (("grid", "--max", "1_0"), "--max"),
        (("grid", "--max", "-1"), "--max"),
        (("verify", "--theorem", "2.5", "--seed", "-5"), "--seed"),
        (("verify", "--theorem", "2.5", "--seed", "٣"), "--seed"),
    ])
    def test_cli_integers_take_ascii_digits_only(self, tmp_path, capsys, argv, option):
        # the spec's rule for seed and exponents; int() reads all of these
        path = write(tmp_path, "e52.ring", E52_M3)
        try:
            code = main([argv[0], path, *argv[1:]])
        except SystemExit as exc:  # argparse refuses a bad --max or --seed
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert option in captured.err


FIG1_T4 = """\
t2 4 | F D D D
t2 3 | F D D D
t2 2 | F D D D
t2 1 | F F F F
     +--------
       1 2 3 4  t1

F free cyclic  C cyclic non-free  I indecomposable non-cyclic  D decomposable
"""

STRIP_M3 = """\
t1 | 1 2 3 4 5 6
   | F I D D D D

F free cyclic  C cyclic non-free  I indecomposable non-cyclic  D decomposable
"""


class TestGrid:
    def test_two_parameter_ascii(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        code, out, _ = run(capsys, "grid", path, "--max", "4")
        assert code == 0
        assert out == FIG1_T4

    def test_one_parameter_strip(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, _ = run(capsys, "grid", path, "--max", "6")
        assert code == 0
        assert out == STRIP_M3

    def test_json_points(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        code, out, _ = run(capsys, "grid", path, "--max", "2", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["sop"] == ["y", "z"]
        by_t = {tuple(p["t"]): p for p in report["points"]}
        assert by_t[(1, 1)]["class"] == "FREE_CYCLIC"
        assert by_t[(1, 1)]["free"] is True
        assert by_t[(2, 2)]["class"] == "DECOMPOSABLE"
        assert by_t[(2, 2)]["free"] is False

    def test_json_every_point(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        code, out, _ = run(capsys, "grid", path, "--max", "4", "--format", "json")
        assert code == 0
        points = json.loads(out)["points"]
        box = [[t1, t2] for t1 in range(1, 5) for t2 in range(1, 5)]
        assert [p["t"] for p in points] == box
        for p in points:
            assert p["class"] == three_var_class(p["t"]), p
            assert p["free"] is (1 in p["t"]), p

    def test_svg_written_and_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert run(capsys, "grid", path, "--max", "3", "--out", str(out1))[0] == 0
        assert run(capsys, "grid", path, "--max", "3", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
        assert text.rstrip().endswith("</svg>")

    def test_empty_grid(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        code, out, _ = run(capsys, "grid", path, "--max", "0")
        assert code == 0
        assert out == "empty grid\n"

    @pytest.mark.parametrize("fmt", ["ascii", "json"])
    def test_empty_grid_refuses_a_figure(self, tmp_path, capsys, fmt):
        path = write(tmp_path, "fig1.ring", FIG1)
        stale = tmp_path / "stale.svg"
        stale.write_text("<svg>an earlier grid</svg>\n", encoding="utf-8")
        before = stale.stat()
        fresh = tmp_path / "fresh.svg"
        for out in (stale, fresh):
            assert run(capsys, "grid", path, "--max", "0", "--format", fmt, "--out", str(out)) == (
                2, "", "error: --out needs --max 1 or more: an empty grid has no figure\n")
        assert stale.read_text(encoding="utf-8") == "<svg>an earlier grid</svg>\n"
        assert stale.stat().st_mtime_ns == before.st_mtime_ns
        assert not fresh.exists()

    def test_failed_figure_write_prints_nothing(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        for out in (tmp_path, tmp_path / "missing" / "f.svg"):
            for fmt in ("ascii", "json"):
                code, stdout, err = run(capsys, "grid", path, "--max", "2", "--format", fmt,
                                        "--out", str(out))
                assert (code, stdout) == (2, ""), (out, fmt)
                assert err.startswith("error: ") and str(out) in err
        assert not (tmp_path / "missing").exists()

    def test_failed_grid_leaves_the_figure_untouched(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        stale = tmp_path / "stale.svg"
        stale.write_text("<svg>an earlier grid</svg>\n", encoding="utf-8")
        before = stale.stat()
        assert run(capsys, "grid", path, "--max", "1001", "--out", str(stale)) == (
            2, "", "error: box volume 2004002 exceeds cap 1000000\n")
        assert stale.read_text(encoding="utf-8") == "<svg>an earlier grid</svg>\n"
        assert stale.stat().st_mtime_ns == before.st_mtime_ns

    def test_far_corner_over_the_cap_exits_2(self, tmp_path, capsys):
        # the far corner's box is 2 x 1001 x 1001; no point of the grid is scanned
        path = write(tmp_path, "fig1.ring", FIG1)
        assert run(capsys, "grid", path, "--max", "1001") == (
            2, "", "error: box volume 2004002 exceeds cap 1000000\n")

    def test_missing_sop_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "nosop.ring", "ring x y\nrelations x^2\n")
        for tmax in ("2", "0"):  # an empty grid checks its spec too
            code, _, err = run(capsys, "grid", path, "--max", tmax)
            assert code == 2
            assert "sop" in err

    def test_three_parameters_need_json(self, tmp_path, capsys):
        path = write(tmp_path, "big.ring", "ring x y z w\nrelations x^2 xyzw\nsop y z w\n")
        for tmax in (2, 0):
            code, _, err = run(capsys, "grid", path, "--max", str(tmax))
            assert code == 2
            assert "json" in err
            code, out, _ = run(capsys, "grid", path, "--max", str(tmax), "--format", "json")
            assert code == 0
            assert len(json.loads(out)["points"]) == tmax ** 3

    @pytest.fixture
    def no_classify(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "classify_grid", lambda *args: calls.append(args))
        return calls

    def test_three_parameter_ascii_exits_before_classifying(self, tmp_path, capsys,
                                                             no_classify):
        path = write(tmp_path, "four.ring", "ring x y z w\nrelations x^2 xyzw\nsop y z w\n")
        code, out, err = run(capsys, "grid", path, "--max", "6")
        assert (code, out) == (2, "")
        assert "json" in err
        assert no_classify == []

    def test_figure_of_one_parameter_exits_before_classifying(self, tmp_path, capsys,
                                                               no_classify):
        path = write(tmp_path, "m3.ring", E52_M3)
        svg = tmp_path / "f.svg"
        for tmax in ("2", "0"):
            code, out, err = run(capsys, "grid", path, "--max", tmax, "--format", "json",
                                 "--out", str(svg))
            assert (code, out) == (2, "")
            assert "two parameters" in err
        assert no_classify == []
        assert not svg.exists()


class TestSvgFigure:
    def grid(self, tmax):
        R = LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
        ps = validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")])
        return classify_grid(ps, tmax)

    def test_single_cell(self):
        svg = render_grid_figure(self.grid(1))
        assert svg.count('width="28" height="28"') == 1

    def test_legend_always_has_four_entries(self):
        svg = render_grid_figure(self.grid(2))
        for label in ("free cyclic", "cyclic non-free",
                      "indecomposable non-cyclic", "decomposable"):
            assert f">{label}</text>" in svg
        # background + 4 grid cells + 4 legend swatches
        assert svg.count("<rect ") == 9

    def test_axis_labels(self):
        svg = render_grid_figure(self.grid(2))
        assert ">t1</text>" in svg
        assert ">t2</text>" in svg

    def test_rejects_one_parameter_grid(self):
        R = LocalRing.from_text(("x", "y"), "(x^2, xy^3)")
        ps = validate_sop(R, [R.parse_monomial("y^2")])
        with pytest.raises(ValueError, match="two parameters"):
            render_grid_figure(classify_grid(ps, 2))


class TestStabilize:
    def test_power_family(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, _ = run(capsys, "stabilize", path)
        assert code == 0
        report = json.loads(out)
        assert report["stabilization_index"] == 4
        assert report["gamma_generators"] == ["x"]

    def test_cm_ring_is_zero(self, tmp_path, capsys):
        path = write(tmp_path, "cm.ring", CM)
        code, out, _ = run(capsys, "stabilize", path)
        assert code == 0
        report = json.loads(out)
        assert report["stabilization_index"] == 0
        assert report["gamma_generators"] == []

    @pytest.mark.parametrize("relations, message", [
        ("x^1500 xy", "stabilization index exceeded the cap 64"),
        ("x^2 xy^100", "stabilization index exceeded the cap 64"),
    ])
    def test_caps_exit_2_and_name_the_cap(self, tmp_path, capsys, relations, message):
        path = write(tmp_path, "deep.ring", f"ring x y\nrelations {relations}\nsop y\n")
        code, out, err = run(capsys, "stabilize", path)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.fixture
def saturations(monkeypatch):
    """The ideals MonomialIdeal.saturation is called on, in order."""
    calls = []
    saturation = MonomialIdeal.saturation

    def counting(self, J):
        calls.append(self)
        return saturation(self, J)

    monkeypatch.setattr(MonomialIdeal, "saturation", counting)
    return calls


@pytest.mark.parametrize("text, argv", [
    (E52_M3, ["analyze", "--powers", "3"]),
    (CM, ["analyze", "--powers", "3"]),
    (E52_M3, ["stabilize"]),
    (E51, ["verify", "--theorem", "3.1"]),
    (E52_M3, ["verify", "--theorem", "3.3"]),
    (FIG1, ["verify", "--theorem", "4.1"]),
    (FIG1, ["verify", "--theorem", "4.2"]),
], ids=["analyze", "analyze-cm", "stabilize", "3.1", "3.3", "4.1", "4.2"])
def test_each_report_reads_one_saturation(tmp_path, capsys, saturations, text, argv):
    # the torsion generators, the index and depth zero all come off one Γ_m(R)
    code, out, _ = run(capsys, argv[0], write(tmp_path, "r.ring", text), *argv[1:])
    assert code == 0 and out
    assert len(saturations) == 1


def test_statements_refuse_positive_depth_after_one_saturation(tmp_path, capsys, saturations):
    path = write(tmp_path, "cm.ring", CM)
    assert run(capsys, "verify", path, "--theorem", "3.1") == (
        2, "", "error: needs depth zero; the torsion part is trivial otherwise\n")
    assert run(capsys, "verify", path, "--theorem", "3.3") == (
        2, "", "error: needs depth zero; over a CM ring Hom stays free\n")
    assert len(saturations) == 2


class TestVerify:
    def test_nonfree_without_a_monomial_parameter(self, tmp_path, capsys):
        path = write(tmp_path, "two.ring", "ring x y z\nrelations x^2 xy xz yz\n")
        assert run(capsys, "verify", path, "--theorem", "3.3") == (
            2, "", "error: no monomial parameter: the variables y, z "
                   "have no pure power in the relations\n")

    def test_rees_on_hypersurface(self, tmp_path, capsys):
        path = write(tmp_path, "cm.ring", CM)
        code, out, _ = run(capsys, "verify", path, "--theorem", "rees", "--powers", "3")
        assert code == 0
        report = json.loads(out)
        assert report["statement"] == "rees"
        assert report["parameters"]["length"] == 2

    def test_dim1_splitting_passes(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, _ = run(capsys, "verify", path, "--theorem", "3.1")
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["n"] == 4
        assert report["decomposition"]["verdict"] == "decomposable"

    def test_dim1_on_cm_ring_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "cm.ring", CM)
        code, _, err = run(capsys, "verify", path, "--theorem", "3.1")
        assert code == 2
        assert "depth zero" in err

    def test_power_searches(self, tmp_path, capsys):
        path = write(tmp_path, "fig1.ring", FIG1)
        code, out, _ = run(capsys, "verify", path, "--theorem", "4.1")
        assert code == 0
        assert json.loads(out)["parameters"]["n"] == [2, 4]
        code, out, _ = run(capsys, "verify", path, "--theorem", "4.2")
        assert code == 0
        assert json.loads(out)["parameters"]["N"] == [2, 6]

    def test_radical_transfer_flags_required(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, _, err = run(capsys, "verify", path, "--theorem", "2.6")
        assert code == 2
        assert "--powers" in err

    def test_radical_transfer(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, _ = run(capsys, "verify", path, "--theorem", "2.6",
                           "--powers", "2", "--b", "(y^8)")
        assert code == 0
        assert "enlarged ideal keeps the decomposition" in json.loads(out)["checks"]

    def test_radical_transfer_refuses_a_zero_module(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, err = run(capsys, "verify", path, "--theorem", "2.6",
                             "--powers", "2", "--b", "(1)")
        assert (code, out) == (2, "")
        assert err == "error: I + b is the unit ideal; the module Hom(R/a, R/(I + b)) is zero\n"

    def test_colon_identity_and_non_cm_power(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        code, out, _ = run(capsys, "verify", path, "--theorem", "2.5")
        assert code == 0
        assert "all 100" in json.loads(out)["checks"][0]
        path = write(tmp_path, "fig1.ring", FIG1)
        code, out, _ = run(capsys, "verify", path, "--theorem", "2.7")
        assert code == 0
        assert json.loads(out)["parameters"]["power"] == 2

    @pytest.mark.parametrize("flag,spec_seed,expected", [
        ("0", None, 0), ("5", 3, 5), (None, 0, 0), (None, 3, 3), (None, None, 7)])
    def test_colon_identity_seed(self, tmp_path, capsys, flag, spec_seed, expected):
        text = E52_M3 + (f"seed {spec_seed}\n" if spec_seed is not None else "")
        path = write(tmp_path, "e52.ring", text)
        argv = ["verify", path, "--theorem", "2.5"] + (["--seed", flag] if flag else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        assert report["parameters"]["seed"] == expected
        assert report["instance"].endswith(f"seed {expected}")

    @pytest.mark.parametrize("theorem, flags, message", [
        ("3.3", ["--a", "(y)"], "--theorem 3.3 does not read --a"),
        ("4.1", ["--powers", "9,9", "--seed", "3"], "--theorem 4.1 does not read --powers"),
        ("4.2", ["--seed", "3"], "--theorem 4.2 does not read --seed"),
        ("2.7", ["--b", "(y^8)"], "--theorem 2.7 does not read --b"),
        ("3.1", ["--seed", "3"], "--theorem 3.1 does not read --seed"),
        ("2.5", ["--a", "(y)"], "--theorem 2.5 does not read --a"),
        ("2.6", ["--powers", "2", "--b", "(y^8)", "--seed", "3"],
         "--theorem 2.6 does not read --seed"),
        ("rees", ["--a", "(y)"], "--theorem rees does not read --a"),
        ("rees", ["--b", "(y^8)", "--powers", "3"],
         "--theorem rees takes --b or --powers, not both"),
    ])
    def test_flags_the_statement_does_not_read_exit_2(self, tmp_path, capsys,
                                                       theorem, flags, message):
        path = write(tmp_path, "fig1.ring", FIG1)
        assert run(capsys, "verify", path, "--theorem", theorem, *flags) == (
            2, "", f"error: {message}\n")

    def test_unknown_theorem_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "e52.ring", E52_M3)
        with pytest.raises(SystemExit) as exc:
            main(["verify", path, "--theorem", "5.9"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_failed_check_exits_1(self, tmp_path, capsys, monkeypatch):
        from homdecomp import cli
        from homdecomp.theorems import VerificationError

        def boom(ring, a, c=None):
            raise VerificationError("forced")

        monkeypatch.setattr(cli, "verify_thm_dim1", boom)
        path = write(tmp_path, "e52.ring", E52_M3)
        code, _, err = run(capsys, "verify", path, "--theorem", "3.1")
        assert code == 1
        assert "check failed" in err

    def test_internal_error_exits_1(self, tmp_path, capsys, monkeypatch):
        from homdecomp import cli

        def boom(ring, a, c=None):
            raise AssertionError("broken invariant")

        monkeypatch.setattr(cli, "verify_thm_dim1", boom)
        path = write(tmp_path, "e52.ring", E52_M3)
        code, _, err = run(capsys, "verify", path, "--theorem", "3.1")
        assert code == 1
        assert "internal error" in err
