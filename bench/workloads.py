"""The three benchmark workloads: seeded inputs, op decks and output checks.

Every workload is built from one ``random.Random(seed)``; the library only
ever sees the generated rings, specs and exponent vectors.  A workload
draws its ops once, covering every stratum of its inputs, so a run has
the same mix of work whatever the seed; that keeps runs on different
seeds comparable.  A deck is all of those ops in a fresh seeded order, so
every op runs once per deck and again in every later deck of the run.
The timed loop always finishes the deck it is in.

Op outputs are checked against facts computed here, independently of the
code under test where a cheap one exists:

- ``components``: the benchmark's own union-find over ``Q.basis()``,
  joining ``u`` and ``u*x_i`` whenever ``u*x_i`` is not in
  ``Q.denominator``.  The module is graded with one-dimensional degrees,
  so by Gordon-Green it splits exactly when there are two or more
  components.
- the closed-form classes of the power strips and of the 3-variable grid.
- the stabilization index ``m + 1`` of the power family ``k[x,y]/(x^2, xy^m)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

OK, KNOWN_DEFECT, FAILED, MISMATCH = "ok", "known-defect", "failed", "mismatch"


@dataclass(frozen=True)
class Op:
    """One closed-loop request: a library call plus the check of its output.

    check(output) returns (status, message) with status OK, KNOWN_DEFECT
    (the op failed in the one documented way: stabilize past the cap),
    FAILED (the op did not produce an output, e.g. a non-zero exit) or
    MISMATCH (the output is wrong).  In a deck every status but OK is a
    failed op; among a workload's probes KNOWN_DEFECT is expected.  label
    names the op's input; points is the number of lattice points the op
    classifies.
    """

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    points: int = 1


def action_components(Q) -> int:
    """Connected components of the one-step action graph on Q's monomial basis."""
    basis = Q.basis()
    index = {u: i for i, u in enumerate(basis)}
    parent = list(range(len(basis)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    B = Q.denominator
    for i, u in enumerate(basis):
        for v in range(len(u)):
            w = u[:v] + (u[v] + 1,) + u[v + 1:]
            if B.contains(w):
                continue
            if w not in index:
                raise ValueError(f"action leaves the basis at {w}")
            ra, rb = find(i), find(index[w])
            if ra != rb:
                parent[rb] = ra
    return sum(1 for i in range(len(basis)) if find(i) == i)


# ----------------------------------------------------------------------- grid

# strip strata: one job per T, each paired with an m drawn from its own bin
# of STRIP_M; strips stay well below the 3-variable T = 4 job, so the median
# job of a deck is that job whatever the draws
STRIP_T = (4, 5, 6, 7, 8)
STRIP_M = (2, 16)
THREE_T = (4, 5, 6, 7, 8)
FOUR_T = (2, 3, 4)


def strip_class(m: int, t: int) -> str:
    """Closed-form class of k[x,y]/(x^2, xy^m), sop y^2, at power t."""
    if 2 * t < m + 1:
        return "FREE_CYCLIC"
    if 2 * t == m + 1:
        return "INDECOMPOSABLE_NONCYCLIC"
    return "DECOMPOSABLE"


def three_var_class(t) -> str:
    """Closed-form class of k[x,y,z]/(x^2, xyz), sop y, z, at powers t."""
    return "DECOMPOSABLE" if min(t) >= 2 else "FREE_CYCLIC"


def stratified(rng: random.Random, bounds: tuple[int, int], n: int) -> list[int]:
    """One draw from each of n near-equal bins that split bounds (inclusive).

    An op's cost can grow steeply with the drawn value; one draw per bin
    keeps a deck's total cost nearly the same whatever the seed.
    """
    lo, hi = bounds
    edges = [lo + (hi - lo + 1) * i // n for i in range(n + 1)]
    return [rng.randint(edges[i], edges[i + 1] - 1) for i in range(n)]


class Workload:
    """The ops drawn at set-up, in `ops`, replayed in seeded order.

    `probes` are ops that hit a known defect: they run once, untimed,
    after the timed phase, so the defect stays visible without failing
    ops in the decks.
    """

    rng: random.Random
    ops: list[Op]
    probes: tuple[Op, ...] = ()

    def deck(self) -> list[Op]:
        deck = list(self.ops)
        self.rng.shuffle(deck)
        return deck


class GridWorkload(Workload):
    """One op is one classify_grid(ps, T) job over three ring families."""

    name = "grid"

    def __init__(self, lib, seed: int, scratch: Path):
        self.lib = lib
        self.rng = random.Random(seed)
        rings, theorems = lib.rings, lib.theorems
        three = rings.LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
        four = rings.LocalRing.from_text(("x", "y", "z", "w"), "(x^2, xyzw)")
        self.families = {
            "three": rings.validate_sop(three, [three.parse_monomial(v) for v in "yz"]),
            "four": rings.validate_sop(four, [four.parse_monomial(v) for v in "yzw"]),
        }
        self.strips = {}
        for m in range(STRIP_M[0], STRIP_M[1] + 1):
            ring = theorems.power_family_ring(m)
            self.strips[m] = rings.validate_sop(ring, [ring.parse_monomial("y^2")])
        self._components: dict = {}
        ms = stratified(self.rng, STRIP_M, len(STRIP_T))
        self.rng.shuffle(ms)
        jobs = [("strip", m, self.strips[m], T) for m, T in zip(ms, STRIP_T)]
        jobs += [("three", None, self.families["three"], T) for T in THREE_T]
        jobs += [("four", None, self.families["four"], T) for T in FOUR_T]
        self.ops = [self._op(*job) for job in jobs]

    def _op(self, family: str, m, ps, T: int) -> Op:
        theorems = self.lib.theorems
        d = len(ps.params)
        return Op(
            kind=f"grid:{family}",
            label=f"{family} m={m} T={T}" if m else f"{family} T={T}",
            call=lambda: theorems.classify_grid(ps, T),
            check=lambda grid: self._check(family, m, ps, T, grid),
            points=T ** d,
        )

    def _components_at(self, key, ps, t) -> int:
        got = self._components.get((key, t))
        if got is None:
            got = self._components[(key, t)] = action_components(
                self.lib.hom.build_hom(ps, list(t)))
        return got

    def _check(self, family, m, ps, T, grid) -> tuple:
        d = len(ps.params)
        if len(grid.classes) != T ** d or any(
                not all(1 <= e <= T for e in t) for t in grid.classes):
            return MISMATCH, f"{family} T={T}: lattice is not [1, {T}]^{d}"
        for t, cls in grid.classes.items():
            comps = self._components_at((family, m), ps, t)
            if (comps >= 2) != (cls.value == "DECOMPOSABLE"):
                return MISMATCH, f"{family} m={m} t={t}: {cls.value} with {comps} components"
            if family == "strip" and cls.value != strip_class(m, t[0]):
                return MISMATCH, f"strip m={m} t={t}: {cls.value}, closed form {strip_class(m, t[0])}"
            if family == "three" and cls.value != three_var_class(t):
                return MISMATCH, f"three t={t}: {cls.value}, closed form {three_var_class(t)}"
        return OK, ""


# -------------------------------------------------------------------- analyze

ANALYZE_E = (3, 4)
ANALYZE_G = (2, 20)
ANALYZE_S = (1, 8)
ANALYZE_POWERS = [3]
ANALYZE_LENGTH = (6, 20)


class AnalyzeWorkload(Workload):
    """One op is one cli.analysis_report call on a connected non-cyclic Hom.

    Draws k[x,y]/(x^e, x^{e-1} y^g) with sop y^s and powers 3 from the
    box ANALYZE_E x ANALYZE_G x ANALYZE_S, keeping a draw when its Hom has
    length in ANALYZE_LENGTH, at least two generators and one component.
    A deck is every kept draw once.
    """

    name = "analyze"

    def __init__(self, lib, seed: int, scratch: Path):
        self.lib = lib
        self.rng = random.Random(seed)
        draws = [(e, g, s) for e in ANALYZE_E
                 for g in range(ANALYZE_G[0], ANALYZE_G[1] + 1)
                 for s in range(ANALYZE_S[0], ANALYZE_S[1] + 1)]
        self.rng.shuffle(draws)
        self.kept = []
        for e, g, s in draws:
            spec = lib.cli.RingSpec(("x", "y"), (f"x^{e}", f"x^{e - 1}y^{g}"), (f"y^{s}",))
            Q = lib.hom.build_hom(spec.parameter_system(), ANALYZE_POWERS)
            length = Q.length()
            if (ANALYZE_LENGTH[0] <= length <= ANALYZE_LENGTH[1]
                    and Q.minimal_generator_count() >= 2 and action_components(Q) == 1):
                self.kept.append((spec, length))
        if not self.kept:
            raise RuntimeError("no qualifying analyze draw")
        self.ops = [self._op(spec, length) for spec, length in self.kept]

    def _op(self, spec, length: int) -> Op:
        cli = self.lib.cli
        return Op(
            kind="analyze",
            label=f"relations {' '.join(spec.relations)}, sop {spec.sop[0]}",
            call=lambda: cli.analysis_report(spec, None, None, ANALYZE_POWERS, None, 0),
            check=lambda report: _check_analysis(spec, length, report),
        )


def _check_analysis(spec, length: int, report: dict) -> tuple:
    hom = report["hom"]
    dec = hom["decomposition"]
    where = f"relations {spec.relations}, sop {spec.sop}"
    if hom["length"] != length or hom["minimal_generators"] < 2 or hom["cyclic"]:
        return MISMATCH, f"{where}: length/generators {hom['length']}/{hom['minimal_generators']}"
    if dec["verdict"] != "indecomposable":
        return MISMATCH, f"{where}: verdict {dec['verdict']} on a connected module"
    if dec["summand_count"] != 1:
        return MISMATCH, f"{where}: summand_count {dec['summand_count']}"
    return OK, ""


# --------------------------------------------------------------------- verify

DIM1_C_POWERS = 6
# random rings drawn for the corpus; enough that its distinct rings are,
# for almost every seed, all that the corpus generator can produce
CORPUS_EXTRA = 240
STABILIZE_PER_SIDE = 8
STABILIZE_BELOW_CAP = (33, 63)
STABILIZE_AT_CAP = (64, 96)
SEARCHES = (("decomposable", "three"), ("nonfree", "three"),
            ("decomposable", "four"), ("nonfree", "four"))

DIM1_CHECKS = (
    "colon identity: (B : a) = (c a^n) + (0 : a)",
    "intersection identity: B = ((c a^n) + I) cap ((0 : a) + B)",
    "both summands are nonzero",
    "summand lengths add up",
    "engine confirms a decomposition",
)
NONFREE_CHECKS = (
    "colon identity: (B : a) = (c a) + Gamma",
    "intersection identity: B = ((c a) + I) cap (Gamma + B)",
    "both summands are nonzero",
    "summand lengths add up",
    "Gamma has a generator outside (a) + I",
    "witness kills the cyclic summand",
    "module is not free over the base",
    "annihilator witness found on the module",
    "engine confirms a decomposition",
)
SEARCH_CHECKS = {
    "decomposable": ("engine confirms a decomposition",),
    "nonfree": ("engine confirms a decomposition", "module is not free over the base",
                "annihilator witness found on the module"),
}


class VerifyWorkload(Workload):
    """One op is one statement-verifier call.

    A deck holds, for every distinct ring of
    dim1_corpus(extra=CORPUS_EXTRA, seed=seed), six verify_thm_dim1 calls
    (c = 1, a, ..., a^5) and two verify_thm_nonfree calls (c = 1, a0);
    the four power searches on the 3- and 4-variable rings; and
    STABILIZE_PER_SIDE `homdecomp stabilize` runs through cli.main on
    k[x,y]/(x^2, xy^m) with m below the stabilization cap 64, one m drawn
    from each of that many bins of STABILIZE_BELOW_CAP.  Another
    STABILIZE_PER_SIDE runs with m at or above the cap are the probes:
    they exit 1 at the seed commit (the known defect).
    """

    name = "verify"

    def __init__(self, lib, seed: int, scratch: Path):
        self.lib = lib
        self.rng = random.Random(seed)
        th, rings = lib.theorems, lib.rings
        corpus = dict.fromkeys(th.dim1_corpus(extra=CORPUS_EXTRA, seed=seed))
        self.corpus = [(ring, th.first_monomial_parameter(ring)) for ring in corpus]
        three = rings.LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
        four = rings.LocalRing.from_text(("x", "y", "z", "w"), "(x^2, xyzw)")
        self.searches = {
            "three": rings.validate_sop(three, [three.parse_monomial(v) for v in "yz"]),
            "four": rings.validate_sop(four, [four.parse_monomial(v) for v in "yzw"]),
        }
        self.spec_paths = {}
        spec_dir = scratch / "specs"
        spec_dir.mkdir(parents=True, exist_ok=True)
        for m in range(STABILIZE_BELOW_CAP[0], STABILIZE_AT_CAP[1] + 1):
            path = self.spec_paths[m] = spec_dir / f"power_m{m}.ring"
            path.write_text(f"ring x y\nrelations x^2 xy^{m}\nsop y\n", encoding="utf-8")
        ops = []
        for ring, a in self.corpus:
            for j in range(DIM1_C_POWERS):
                c = None if j == 0 else tuple(e * j for e in a)
                ops.append(self._dim1_op(ring, a, c))
            for c in (None, a):
                ops.append(self._nonfree_op(ring, c))
        ops += [self._search_op(kind, family) for kind, family in SEARCHES]
        ops += [self._stabilize_op(m)
                for m in stratified(self.rng, STABILIZE_BELOW_CAP, STABILIZE_PER_SIDE)]
        self.ops = ops
        self.probes = tuple(self._stabilize_op(m)
                            for m in stratified(self.rng, STABILIZE_AT_CAP, STABILIZE_PER_SIDE))

    def _dim1_op(self, ring, a, c) -> Op:
        th = self.lib.theorems
        return Op("verify:dim1", f"{ring!r} c={c}", lambda: th.verify_thm_dim1(ring, a, c),
                  lambda rep: _check_report(rep, DIM1_CHECKS))

    def _nonfree_op(self, ring, c) -> Op:
        th = self.lib.theorems
        return Op("verify:nonfree", f"{ring!r} c={c}", lambda: th.verify_thm_nonfree(ring, c),
                  lambda rep: _check_report(rep, NONFREE_CHECKS))

    def _search_op(self, kind: str, family: str) -> Op:
        th = self.lib.theorems
        ps = self.searches[family]
        return Op(f"verify:search-{kind}", family,
                  lambda: getattr(th, f"search_{kind}_powers")(ps),
                  lambda rep: _check_report(rep, SEARCH_CHECKS[kind]))

    def _stabilize_op(self, m: int) -> Op:
        cli = self.lib.cli
        argv = ["stabilize", str(self.spec_paths[m])]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return Op("verify:stabilize", f"m={m}", call, lambda res: _check_stabilize(m, res))


def _check_report(report, names) -> tuple:
    missing = [n for n in names if n not in report.checks]
    if missing:
        return MISMATCH, f"{report.statement} on {report.instance}: missing checks {missing}"
    if report.decomposition is None or not report.decomposition.decomposable:
        return MISMATCH, f"{report.statement} on {report.instance}: no decomposition"
    return OK, ""


def _check_stabilize(m: int, result) -> tuple:
    code, out, err = result
    if code != 0:
        cap = STABILIZE_AT_CAP[0]
        if m >= cap and f"exceeded the cap {cap}" in err:
            return KNOWN_DEFECT, f"stabilize exit {code}: {err.strip()}"
        return FAILED, f"stabilize m={m} exit {code}: {err.strip()}"
    index = json.loads(out)["stabilization_index"]
    if index != m + 1:
        return MISMATCH, f"stabilize m={m}: index {index}, expected {m + 1}"
    return OK, ""


WORKLOADS = {w.name: w for w in (GridWorkload, AnalyzeWorkload, VerifyWorkload)}
