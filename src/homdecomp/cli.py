"""Command-line front end: ring-spec files in, deterministic reports out.

Four subcommands: analyze (one Hom module, JSON), grid (lattice
classification, ASCII/JSON plus an optional SVG), stabilize (index and
torsion generators), verify (one named statement).  All output is
byte-deterministic for fixed inputs (and seed, for verify 2.5).

Exit codes: 0 success, 2 bad input, failed hypothesis or exceeded
resource cap, 1 defect.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import NamedTuple

from .decomp import decide
from .hom import _b_ideal, b_exponents, build_hom
from .monomials import CapExceeded, format_monomial, parse_monomial
from .rings import (
    LocalRing,
    depth_is_zero,
    gamma_module_generators,
    is_cohen_macaulay,
    stabilization_index,
    validate_sop,
)
from .theorems import (
    GridClassification,
    PointClass,
    VerificationError,
    check_radical_transfer,
    classify_grid,
    search_decomposable_powers,
    search_nonfree_powers,
    verify_colon_identity,
    verify_non_cm_power,
    verify_rees,
    verify_thm_dim1,
    verify_thm_nonfree,
)

# each class's ASCII glyph, SVG fill and legend label, in legend order
CLASS_STYLE = {
    PointClass.FREE_CYCLIC: ("F", "#a8ddb5", "free cyclic"),
    PointClass.CYCLIC_NONFREE: ("C", "#7bccc4", "cyclic non-free"),
    PointClass.INDECOMPOSABLE_NONCYCLIC: ("I", "#fdbb84", "indecomposable non-cyclic"),
    PointClass.DECOMPOSABLE: ("D", "#e34a33", "decomposable"),
}


def _require_ascii_grid(d: int) -> None:
    if d not in (1, 2):
        raise ValueError("ascii grids need one or two parameters; use --format json")


def _require_figure_grid(d: int) -> None:
    if d != 2:
        raise ValueError("figure rendering needs exactly two parameters")


def _is_ascii_int(text: str) -> bool:
    """The spec's rule for seed and exponents: ASCII digits only.

    int() also reads '1_0' as 10, '٣' as 3, and ' 3' and '-5', and
    str.isdigit alone accepts '²', which int() refuses.
    """
    return text.isascii() and text.isdigit()


class RingSpecError(ValueError):
    """Malformed ring-spec text; the message carries the line number."""


class RingSpec(NamedTuple):
    """Parsed ring-spec file: the ring plus an optional sop and seed.

    seed feeds verify's randomized 2.5 check.
    """

    variables: tuple[str, ...]
    relations: tuple[str, ...] = ()
    sop: tuple[str, ...] = ()
    seed: int | None = None

    def ring(self) -> LocalRing:
        body = "(" + (", ".join(self.relations) if self.relations else "0") + ")"
        return LocalRing.from_text(self.variables, body)

    def parameter_system(self):
        if not self.sop:
            raise ValueError("the spec declares no sop")
        ring = self.ring()
        return validate_sop(ring, [ring.parse_monomial(t) for t in self.sop])


def parse_ring_file(text: str) -> RingSpec:
    """Line grammar: `ring x y`, `relations x^2 xy`, `sop y`, `seed 3`.

    Blank lines and `#` comments are skipped.  Keys may appear once,
    `ring` must come before any monomials, and every monomial must use
    declared variables only.  No variable name may begin with another
    one: monomials are stored as text and parsed again by longest match,
    which would read `x^1y` of `ring x y xy`, stored as `xy`, as the
    variable `xy`.
    """
    variables: tuple[str, ...] | None = None
    sections: dict[str, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        if key in sections or (key == "ring" and variables is not None):
            raise RingSpecError(f"line {lineno}: duplicate {key} section")
        if key == "ring":
            if not rest:
                raise RingSpecError(f"line {lineno}: ring line needs variable names")
            for name in rest:
                if not name.isalpha():
                    raise RingSpecError(f"line {lineno}: bad variable name {name!r}")
            if len(set(rest)) != len(rest):
                raise RingSpecError(f"line {lineno}: duplicate variable")
            for name, other in itertools.permutations(rest, 2):
                if name.startswith(other):
                    raise RingSpecError(f"line {lineno}: variable name {name!r} begins "
                                        f"with the variable name {other!r}")
            variables = tuple(rest)
            continue
        if key in ("relations", "sop"):
            if variables is None:
                raise RingSpecError(f"line {lineno}: ring must be declared before {key}")
            monos = []
            for t in rest:
                try:
                    monos.append(format_monomial(parse_monomial(t, variables), variables))
                except ValueError as exc:
                    raise RingSpecError(f"line {lineno}: {exc}") from exc
            sections[key] = tuple(monos)
            continue
        if key == "seed":
            if len(rest) != 1 or not _is_ascii_int(rest[0]):
                raise RingSpecError(f"line {lineno}: {key} takes one integer")
            sections[key] = (int(rest[0]),)
            continue
        raise RingSpecError(f"line {lineno}: unknown key {key!r}")
    if variables is None:
        raise RingSpecError("no ring line found")
    return RingSpec(
        variables=variables,
        relations=sections.get("relations", ()),
        sop=sections.get("sop", ()),
        seed=sections.get("seed", (None,))[0],
    )


def _ring_json(ring: LocalRing) -> dict:
    return {"variables": ring.variables, "relations": ring.fmt_ideal(ring.defining)}


def _b_spec(ring: LocalRing, b_text: str | None, powers: list | None) -> list | None:
    """b as --b's generators or --powers' exponents; None when neither is given."""
    if b_text is not None:
        return list(ring.parse_ideal(b_text).gens)
    return powers


def analysis_report(spec: RingSpec, a_text: str | None, b_text: str | None,
                    powers: list | None, prime: int | None = None,
                    seed: int | None = None) -> dict:
    """The full pipeline on one (a, b) pair, as a JSON-ready dict.

    prime and seed are unused: the decision reads the monomial action
    graph, which needs neither a field nor randomness.  They stay in the
    signature for callers that pass all six arguments.
    """
    ring = spec.ring()
    if a_text is not None:
        a_gens = list(ring.parse_ideal(a_text).gens)
    elif spec.sop:
        a_gens = [ring.parse_monomial(t) for t in spec.sop]
    else:
        raise ValueError("no a ideal: pass --a or declare a sop in the spec")
    ps = validate_sop(ring, a_gens)
    b_spec = _b_spec(ring, b_text, powers)
    if b_spec is None:
        raise ValueError("no b ideal: pass --b or --powers")
    Q = build_hom(ps, b_spec)
    verdict = decide(Q)
    witness = Q.non_free_annihilator_witness()
    return {
        "ring": _ring_json(ring),
        "a": ring.fmt_ideal(ps.a_ideal),
        "b": ring.fmt_ideal(Q.b_ideal),
        "dimension": ring.dimension(),
        "depth_zero": depth_is_zero(ring),
        "cohen_macaulay": is_cohen_macaulay(ps),
        "gamma_generators": tuple(map(ring.fmt, gamma_module_generators(ring))),
        "stabilization_index": stabilization_index(ring),
        "hom": {
            "length": Q.length(),
            "minimal_generators": Q.minimal_generator_count(),
            "cyclic": Q.is_cyclic(),
            "base_length": Q.base_length(),
            "free_over_base": Q.is_free_over_base(),
            "non_free_witness": ring.fmt(witness) if witness is not None else None,
            "decomposition": verdict.as_dict(),
        },
    }


def grid_report(grid: GridClassification) -> dict:
    ring = grid.ps.ring
    points = []
    for t, cls in grid.classes.items():
        points.append({
            "t": list(t),
            "class": cls.value,
            "free": cls is PointClass.FREE_CYCLIC,
        })
    return {
        "ring": _ring_json(ring),
        "sop": [ring.fmt(p) for p in grid.ps.params],
        "max": grid.tmax,
        "points": points,
    }


def render_grid_ascii(grid: GridClassification) -> str:
    """Terminal picture; rows are t2 from the top down, columns t1."""
    d = len(grid.ps.params)
    _require_ascii_grid(d)
    T = grid.tmax
    w = len(str(T))
    glyph = {cls: g for cls, (g, _, _) in CLASS_STYLE.items()}
    lines = []
    if d == 1:
        cells = " ".join(glyph[grid.classes[(t,)]].rjust(w) for t in range(1, T + 1))
        axis = " ".join(str(t).rjust(w) for t in range(1, T + 1))
        lines.append("t1 | " + axis)
        lines.append("   | " + cells)
    else:
        for t2 in range(T, 0, -1):
            row = " ".join(glyph[grid.classes[(t1, t2)]].rjust(w) for t1 in range(1, T + 1))
            lines.append(f"t2 {str(t2).rjust(w)} | " + row)
        lines.append("   " + " " * w + " +" + "-" * ((w + 1) * T))
        axis = " ".join(str(t).rjust(w) for t in range(1, T + 1))
        lines.append("   " + " " * w + "   " + axis + "  t1")
    lines.append("")
    lines.append("  ".join(f"{g} {label}" for g, _, label in CLASS_STYLE.values()))
    return "\n".join(lines) + "\n"


CELL = 28
MARGIN_LEFT = 46
MARGIN_TOP = 16
MARGIN_BOTTOM = 40
LEGEND_WIDTH = 210


def render_grid_figure(grid: GridClassification) -> str:
    """Deterministic SVG for a two-parameter grid; one square per point."""
    _require_figure_grid(len(grid.ps.params))
    T = grid.tmax
    width = MARGIN_LEFT + CELL * T + 24 + LEGEND_WIDTH
    height = MARGIN_TOP + CELL * T + MARGIN_BOTTOM
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for (t1, t2), cls in grid.classes.items():
        x = MARGIN_LEFT + (t1 - 1) * CELL
        y = MARGIN_TOP + (T - t2) * CELL
        out.append(
            f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
            f'fill="{CLASS_STYLE[cls][1]}" stroke="#555555" stroke-width="1"/>')
    font = 'font-family="monospace" font-size="12" fill="#000000"'
    for t1 in range(1, T + 1):
        x = MARGIN_LEFT + (t1 - 1) * CELL + CELL // 2
        y = MARGIN_TOP + CELL * T + 16
        out.append(f'<text x="{x}" y="{y}" text-anchor="middle" {font}>{t1}</text>')
    for t2 in range(1, T + 1):
        x = MARGIN_LEFT - 8
        y = MARGIN_TOP + (T - t2) * CELL + CELL // 2 + 4
        out.append(f'<text x="{x}" y="{y}" text-anchor="end" {font}>{t2}</text>')
    out.append(
        f'<text x="{MARGIN_LEFT + CELL * T // 2}" y="{MARGIN_TOP + CELL * T + 32}" '
        f'text-anchor="middle" {font}>t1</text>')
    out.append(f'<text x="14" y="{MARGIN_TOP + CELL * T // 2}" {font}>t2</text>')
    lv = MARGIN_LEFT + CELL * T + 24
    for i, (_, fill, label) in enumerate(CLASS_STYLE.values()):
        y = MARGIN_TOP + 8 + i * 22
        out.append(
            f'<rect x="{lv}" y="{y}" width="14" height="14" fill="{fill}" '
            f'stroke="#555555" stroke-width="1"/>')
        out.append(f'<text x="{lv + 20}" y="{y + 11}" {font}>{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _load_spec(path: str) -> RingSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ring_file(fh.read())


def _ascii_int(text: str) -> int:
    """argparse type for --max and --seed, read by the spec's rule."""
    if not _is_ascii_int(text):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _parse_powers(text: str | None) -> list | None:
    """--powers' exponent list; None when the option is not given."""
    if text is None:
        return None
    entries = text.split(",")
    if not all(map(_is_ascii_int, entries)):
        raise ValueError(
            f"bad --powers value {text!r}: comma-separated integers in ASCII digits")
    return [int(v) for v in entries]


def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    _emit(analysis_report(spec, args.a, args.b, _parse_powers(args.powers)))
    return 0


def cmd_grid(args) -> int:
    ps = _load_spec(args.spec).parameter_system()
    if args.format == "ascii":
        _require_ascii_grid(len(ps.params))
    if args.out:
        _require_figure_grid(len(ps.params))
        if args.max == 0:
            raise ValueError("--out needs --max 1 or more: an empty grid has no figure")
    if args.max == 0:
        if args.format == "json":
            _emit({"max": 0, "points": []})
        else:
            sys.stdout.write("empty grid\n")
        return 0
    grid = classify_grid(ps, args.max)
    if args.out:  # before any output, so a failed write leaves stdout empty
        svg = render_grid_figure(grid)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    if args.format == "json":
        _emit(grid_report(grid))
    else:
        sys.stdout.write(render_grid_ascii(grid))
    return 0


def cmd_stabilize(args) -> int:
    ring = _load_spec(args.spec).ring()
    _emit({
        "ring": _ring_json(ring),
        "stabilization_index": stabilization_index(ring),
        "gamma_generators": tuple(map(ring.fmt, gamma_module_generators(ring))),
    })
    return 0


def _single_parameter(spec: RingSpec, ring: LocalRing, a_text: str | None):
    if a_text is not None:
        gens = ring.parse_ideal(a_text).gens
        if len(gens) != 1:
            raise ValueError("--a must be a principal ideal here")
        return gens[0]
    ps = spec.parameter_system()
    if len(ps.params) != 1:
        raise ValueError("need a single parameter: one-element sop or --a")
    return ps.params[0]


def _rees(spec: RingSpec, ring: LocalRing, args):
    ps = spec.parameter_system()
    b_spec = _b_spec(ring, args.b, _parse_powers(args.powers))
    return verify_rees(ps, [2] * len(ps.params) if b_spec is None else b_spec)


def _colon_identity(spec: RingSpec, ring: LocalRing, args):
    seed = args.seed if args.seed is not None else spec.seed
    return verify_colon_identity(ring, seed=7 if seed is None else seed)


def _radical_transfer(spec: RingSpec, ring: LocalRing, args):
    if args.powers is None or args.b is None:
        raise ValueError("--theorem 2.6 needs --powers (for J) and --b (for N)")
    ps = spec.parameter_system()
    small = _b_ideal(ps, b_exponents(ps, _parse_powers(args.powers)))
    return check_radical_transfer(ring, small, ps.a_ideal, ring.parse_ideal(args.b))


# each statement verify runs: the options it reads (it refuses any other) and
# its runner, called as run(spec, ring, args)
STATEMENTS = {
    "rees": (("b", "powers"), _rees),
    "3.1": (("a",), lambda spec, ring, args:
            verify_thm_dim1(ring, _single_parameter(spec, ring, args.a))),
    "3.3": ((), lambda spec, ring, args: verify_thm_nonfree(ring)),
    "4.1": ((), lambda spec, ring, args: search_decomposable_powers(spec.parameter_system())),
    "4.2": ((), lambda spec, ring, args: search_nonfree_powers(spec.parameter_system())),
    "2.5": (("seed",), _colon_identity),
    "2.6": (("powers", "b"), _radical_transfer),
    "2.7": ((), lambda spec, ring, args: verify_non_cm_power(spec.parameter_system())),
}


def cmd_verify(args) -> int:
    name = args.theorem
    reads, run = STATEMENTS[name]
    for flag in ("a", "b", "powers", "seed"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"--theorem {name} does not read --{flag}")
    if name == "rees" and args.b is not None and args.powers is not None:
        raise ValueError("--theorem rees takes --b or --powers, not both")
    spec = _load_spec(args.spec)
    _emit(run(spec, spec.ring(), args).as_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homdecomp",
        description="Hom-module construction and decomposition over monomial rings")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify one Hom module")
    pa.add_argument("spec", help="ring-spec file")
    pa.add_argument("--a", help="ideal text, e.g. \"(y)\"; default: the spec's sop")
    b_opts = pa.add_mutually_exclusive_group()
    b_opts.add_argument("--b", help="ideal text for b")
    b_opts.add_argument("--powers", help="b as parameter powers, e.g. \"2,3\"")
    pa.set_defaults(run=cmd_analyze)

    pg = sub.add_parser("grid", help="classify the exponent lattice")
    pg.add_argument("spec", help="ring-spec file; must declare a sop")
    pg.add_argument("--max", type=_ascii_int, default=5, help="box size T (default 5)")
    pg.add_argument("--out", help="write an SVG figure here (two parameters only)")
    pg.add_argument("--format", choices=("ascii", "json"), default="ascii")
    pg.set_defaults(run=cmd_grid)

    ps_ = sub.add_parser("stabilize", help="stabilization index and torsion generators")
    ps_.add_argument("spec", help="ring-spec file")
    ps_.set_defaults(run=cmd_stabilize)

    pv = sub.add_parser("verify", help="run one named statement check")
    pv.add_argument("spec", help="ring-spec file")
    pv.add_argument("--theorem", required=True, choices=tuple(STATEMENTS))
    for flag, kind, what in (("a", None, "principal ideal"), ("b", None, "ideal text"),
                             ("powers", None, "exponent list"),
                             ("seed", _ascii_int, "seed for the random instances")):
        readers = " and ".join(name for name, (reads, _) in STATEMENTS.items() if flag in reads)
        pv.add_argument(f"--{flag}", type=kind, help=f"{what}, used by {readers}")
    pv.set_defaults(run=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CapExceeded, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
