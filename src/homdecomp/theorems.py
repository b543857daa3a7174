"""Executable statements about Hom_R(R/a, M/bM).

Each verifier builds the instance the statement speaks of and checks its
claims on it, so a passing report certifies a concrete instance of the
statement rather than replaying stored answers.  3.1 and 3.3 test their
colon and intersection identities and read their summand lengths in one
pass over the Hom's row scan (_check_split); 2.6, 3.1, 3.3, 4.1 and 4.2
run the decomposition engine on the assembled module, while rees, 2.5
and 2.7 run none.  The ring facts Γ_m(R) and the stabilization index
are read through homdecomp.rings, which finds each on the first read
for a ring object and keeps it there.

Every verifier records its checks through one _Checks builder, which
holds the instance text, records each check as it passes, raises
VerificationError naming the first one that fails, and builds the
TheoremReport, so a passing report lists only checks that ran and
passed.  Verifiers raise ValueError when the hypotheses do not hold and
VerificationError when a hypothesis-satisfying instance fails a check;
the second kind of failure always means a defect in this library.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys
from collections.abc import Mapping
from enum import Enum
from operator import le, mul
from typing import NamedTuple

from .decomp import DecompositionReport, decide
from .hom import (HomSubquotient, b_exponents, build_hom, hom_from_ideals, parameter_box,
                  row_intervals)
from .monomials import (
    CapExceeded,
    Monomial,
    MonomialIdeal,
    _checked,
    divides,
    grlex_key,
    mono_mul,
    mono_pow,
    monomials_between,
    row_thresholds,
)
from .rings import (
    LocalRing,
    ParameterSystem,
    colon_identity_check,
    depth_is_zero,
    find_non_cm_power,
    gamma_m,
    is_cohen_macaulay,
    reduced_system,
    stabilization_index,
    validate_sop,
)

DEPTH_ZERO_DRAWS = 200
COLON_IDENTITY_DRAWS = 100


class VerificationError(RuntimeError):
    """A check failed on an instance satisfying the hypotheses."""


class TheoremReport(NamedTuple):
    """Outcome of one verified instance.

    checks lists every predicate that was tested, in order; a report is
    only ever built by _Checks.report, after all of them passed.
    """

    statement: str
    instance: str
    parameters: dict
    checks: tuple[str, ...]
    decomposition: DecompositionReport | None = None

    def as_dict(self) -> dict:
        out = {
            "statement": self.statement,
            "instance": self.instance,
            "parameters": dict(self.parameters),
            "checks": list(self.checks),
        }
        if self.decomposition is not None:
            out["decomposition"] = self.decomposition.as_dict()
        return out


# every check list a passing report has held, each kept as one tuple; every
# check name is fixed text, so the statements hold few distinct lists
_CHECK_LISTS: dict[tuple[str, ...], tuple[str, ...]] = {}


class _Checks:
    """The checks of one statement instance, recorded as they pass.

    Calling it with a check name and a result records the check, or
    raises VerificationError naming the check and the instance when the
    result is false.  report() builds the TheoremReport from what was
    recorded.  A passing report of a statement lists the same checks
    every time, so the report holds the one tuple that every report with
    its check list holds, and the instance text interned; a caller that
    keeps many reports stores each text once, and no report keeps the
    builder.
    """

    __slots__ = ("instance", "names")

    def __init__(self, instance: str):
        self.instance = sys.intern(instance)
        self.names: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        if not ok:
            raise VerificationError(f"{name}: failed for {self.instance}")
        self.names.append(name)

    def decomposition(self, Q: HomSubquotient) -> DecompositionReport:
        """decide(Q), checked to be a split."""
        report = decide(Q)
        self("engine confirms a decomposition", report.decomposable)
        return report

    def not_free(self, Q: HomSubquotient) -> Monomial:
        """Q's annihilator witness, once Q is checked not to be free over the base."""
        self("module is not free over the base", not Q.is_free_over_base())
        w = Q.non_free_annihilator_witness()
        self("annihilator witness found on the module", w is not None)
        return w

    def report(self, statement: str, parameters: dict,
               decomposition: DecompositionReport | None = None) -> TheoremReport:
        names = tuple(self.names)
        return TheoremReport(statement, self.instance, parameters,
                             _CHECK_LISTS.setdefault(names, names), decomposition)


def _split_hypotheses(ring: LocalRing, c: Monomial | None, why: str) -> Monomial:
    """The c of 3.1 and 3.3, by default 1, once ring has dimension one and depth zero.

    why ends the depth-zero refusal, which differs between the two.
    """
    c = (0,) * ring.ambient if c is None else _checked(c, ring.ambient)
    if ring.dimension() != 1:
        raise ValueError("needs a one-dimensional ring")
    if not depth_is_zero(ring):
        raise ValueError(f"needs depth zero; {why}")
    return c


def _split_check_names(gen: str, tors: str) -> tuple[str, str]:
    return (f"colon identity: (B : a) = ({gen}) + {tors}",
            f"intersection identity: B = (({gen}) + I) cap ({tors} + B)")


# built once, so that every report of a statement shares the same strings
DIM1_SPLIT_CHECKS = _split_check_names("c a^n", "(0 : a)")
NONFREE_SPLIT_CHECKS = _split_check_names("c a", "Gamma")


def _check_split(checks: _Checks, Q: HomSubquotient, gen: Monomial, tors: MonomialIdeal,
                 names: tuple[str, str]) -> list[int]:
    """Check the splitting C/B = ((gen) + I)/B ⊕ (tors + B)/B behind 3.1 and 3.3.

    Checks the colon identity C = (B : a) = (gen) + I + tors, the
    intersection identity B = ((gen) + I) ∩ (tors + B), and that the two
    layers are nonzero with lengths adding up to the Hom length.  names
    holds the first two check names, from _split_check_names.  Returns
    the two lengths.  All of it is read off one pass over Q.rows.spans,
    so no ideal is built and no monomial is listed.

    Write L = (gen) + I, a cell u = (p, k) with p its first n - 1
    exponents, and [lo, hi) for row p's interval of basis cells, the
    cells of C outside B (hom.row_intervals).  (p, k) is a multiple of
    gen exactly when gen' <= p and k >= gen_n, and lies in tors exactly
    when k >= r(p), the least t_n over the generators t of tors with
    t' <= p.  So in row p the gen layer, the basis cells in L, is
    [g, hi) for g = max(lo, gen_n) when gen' <= p, and the tors layer
    is [t, hi) for t = max(lo, r(p)); either start is hi when the layer
    misses the row.  A cell outside B lies in L exactly when it is a
    multiple of gen, as I ⊆ B.  A monomial u lies in C when its row
    holds basis cells and u_n >= lo, or, in any other row, when it lies
    in B: a cell below lo is outside B and C, and a cell at or past hi
    is in B.  The rows hold no cell of B, so B is tested on generators:
    B is I + 𝔟 for 𝔟 = Q.b_ideal, and I ⊆ L, so B ⊆ L exactly when 𝔟's
    generators lie in L, and B ⊆ L + tors exactly when those outside L
    lie in tors.

    Colon identity.  A monomial lies in a sum of monomial ideals when it
    lies in one of them (Miller-Sturmfels, ch. 1).  If C = L + tors,
    then gen and tors' generators lie in C, and each row's first basis
    cell (p, lo) lies in L or in tors, so g = lo or t = lo; and B ⊆ C =
    L + tors.  Conversely, if gen and tors' generators lie in C, then
    L + tors ⊆ C, as I ⊆ B ⊆ C; every basis cell (p, k) is a multiple of
    (p, lo), which lies in L or tors when min(g, t) = lo; and with B ⊆
    L + tors, C, which is B and the basis cells, lies in L + tors.  So
    the identity holds exactly when those memberships hold, 𝔟's
    generators outside L lie in tors, and min(g, t) = lo in every row.

    Intersection identity.  B ⊆ tors + B always, so B ⊆ L ∩ (tors + B)
    exactly when 𝔟's generators lie in L.  The other inclusion fails
    exactly when some monomial outside B lies in L and in tors + B, that
    is in (gen) and in tors.  This verdict is read only once the colon
    identity holds, as checks raises at the first failing check; then
    (gen) and tors lie in C, such a monomial is a basis cell, and it is
    one exactly when the two layers of its row overlap, max(g, t) < hi.

    Lengths.  Once both identities hold, L and tors lie in C, so the
    cells of L and of tors + B outside B are the rows' two layers, and
    each length is the sum of hi - g or of hi - t.

    >>> from .rings import LocalRing, validate_sop
    >>> R = LocalRing.from_text(("x", "y"), "(x^2, xy^3)")   # 3.3 with n = 4
    >>> Q = build_hom(validate_sop(R, [(0, 4)]), [(0, 8)])
    >>> _check_split(_Checks(""), Q, (0, 4), gamma_m(R), NONFREE_SPLIT_CHECKS)
    [4, 3]
    """
    spans, B, I = Q.rows.spans, Q.denominator, Q.ring.defining

    def in_C(u: Monomial) -> bool:
        span = spans.get(u[:-1])
        return u[-1] >= span[0] if span else B.contains(u)

    above, at = gen[:-1], gen[-1]
    layer = [(h[:-1], h[-1]) for h in tors.gens]
    outside_L = [v for v in Q.b_ideal.gens if not divides(gen, v) and not I.contains(v)]
    colon = all(map(tors.contains, outside_L)) and all(map(in_C, (gen,) + tors.gens))
    meet = not outside_L
    lengths = [0, 0]
    for p, (lo, hi, _) in spans.items():
        g = min(hi, max(lo, at)) if all(map(le, above, p)) else hi
        t = hi
        for q, k in layer:
            if k < t and all(map(le, q, p)):
                t = k
        t = max(lo, t)
        colon = colon and min(g, t) == lo
        meet = meet and max(g, t) == hi
        lengths[0] += hi - g
        lengths[1] += hi - t
    checks(names[0], colon)
    checks(names[1], meet)
    checks("both summands are nonzero", min(lengths) > 0)
    checks("summand lengths add up", sum(lengths) == Q.length())
    return lengths


def first_monomial_parameter(ring: LocalRing) -> Monomial:
    """Grlex-smallest monomial parameter of a one-dimensional ring.

    A monomial u is a parameter exactly when I + (u) has finite
    colength, that is when every variable has a pure power in I or in
    (u) (Miller-Sturmfels, ch. 1-3).  As the ring has dimension one,
    some variable has no pure power in I.  A monomial other than 1 is a
    pure power of at most one variable, so a parameter exists only when
    exactly one variable x_j has none, and then x_j is the smallest.
    """
    if ring.dimension() != 1:
        raise ValueError("parameter search needs a one-dimensional ring")
    free = [i for i, e in enumerate(ring._pure_powers) if e is None]
    if len(free) > 1:
        names = ", ".join(ring.variables[i] for i in free)
        raise ValueError(f"no monomial parameter: the variables {names} "
                         "have no pure power in the relations")
    return tuple(int(i == free[0]) for i in range(ring.ambient))


def verify_rees(ps: ParameterSystem, b_spec) -> TheoremReport:
    """Nested parameter ideals of a Cohen-Macaulay ring give free cyclic Hom.

    Hom_R(R/a, R/b) is then isomorphic to S = R/(a + I): one generator,
    free of rank one, length equal to length(S).
    """
    if not is_cohen_macaulay(ps):
        raise ValueError("the parameter system is not a regular sequence; ring is not CM here")
    Q = build_hom(ps, b_spec)
    ring = ps.ring
    checks = _Checks(f"{ring!r}, a = {ring.fmt_ideal(ps.a_ideal)}, "
                     f"b = {ring.fmt_ideal(Q.b_ideal)}")
    checks("cyclic: one minimal generator", Q.minimal_generator_count() == 1)
    checks("free of rank one over the base", Q.is_free_over_base())
    checks("length equals length of R/(a + I)", Q.length() == Q.base_length())
    return checks.report("rees", {"length": Q.length()})


def verify_thm_dim1(ring: LocalRing, a: Monomial, c: Monomial | None = None) -> TheoremReport:
    """Splitting of Hom(R/(a), R/(c a^{n+1})) in dimension one, depth zero.

    n is the stabilization index.  The verifier checks both identities
    behind the splitting on the Hom's row scan (_check_split),

        (B : a) = (c a^n) + (0 : a)   and   B = ((c a^n) + I) ∩ ((0 : a) + B)

    with B = (c a^{n+1}) + I, then checks that the two summands have
    positive lengths adding up to the Hom length, and that the engine
    finds the module decomposable.
    """
    c = _split_hypotheses(ring, c, "the torsion part is trivial otherwise")
    ps = validate_sop(ring, [a])
    n = stabilization_index(ring)
    b = mono_mul(c, mono_pow(a, n + 1))
    Q = build_hom(ps, [b])  # validates b: c must keep c*a^{n+1} a parameter
    checks = _Checks(f"{ring!r}, a = {ring.fmt(a)}, c = {ring.fmt(c)}")
    lengths = _check_split(checks, Q, mono_mul(c, mono_pow(a, n)),
                           ring.defining.colon_monomial(a), DIM1_SPLIT_CHECKS)
    report = checks.decomposition(Q)
    return checks.report("3.1", {
        "n": n,
        "a": ring.fmt(a),
        "c": ring.fmt(c),
        "b": ring.fmt(b),
        "hom_length": Q.length(),
        "summand_lengths": lengths,
    }, report)


def verify_thm_nonfree(ring: LocalRing, c: Monomial | None = None) -> TheoremReport:
    """Decomposable and non-free Hom from a deep parameter.

    With n the stabilization index, a = a0^n for a monomial parameter a0,
    and b = c a^2, the module Hom(R/(a), R/(b)) splits as
    ((c a) + I)/B  ⊕  (Γ + B)/B and the first summand is killed by any
    element of Γ outside (a) + I, so the module cannot be free.
    """
    c = _split_hypotheses(ring, c, "over a CM ring Hom stays free")
    n = stabilization_index(ring)
    a0 = first_monomial_parameter(ring)
    a = mono_pow(a0, n)
    b = mono_mul(c, mono_pow(a, 2))
    ps = validate_sop(ring, [a])
    Q = build_hom(ps, [b])  # validates b
    ca = mono_mul(c, a)
    checks = _Checks(f"{ring!r}, a = {ring.fmt(a)}, c = {ring.fmt(c)}")
    lengths = _check_split(checks, Q, ca, gamma_m(ring), NONFREE_SPLIT_CHECKS)
    torsion = [g for g in gamma_m(ring).gens if not ps.ideal.contains(g)]
    checks("Gamma has a generator outside (a) + I", bool(torsion))
    w = min(torsion, key=grlex_key)
    checks("witness kills the cyclic summand", Q.denominator.contains(mono_mul(w, ca)))
    checks.not_free(Q)
    report = checks.decomposition(Q)
    return checks.report("3.3", {
        "n": n,
        "base": ring.fmt(a0),
        "a": ring.fmt(a),
        "c": ring.fmt(c),
        "b": ring.fmt(b),
        "witness": ring.fmt(w),
        "hom_length": Q.length(),
        "summand_lengths": lengths,
    }, report)


def _reduction_chain(ps: ParameterSystem) -> tuple[dict, int]:
    """The induction behind 4.1 and 4.2, run down to dimension one.

    While two or more parameters remain, quotient by the first parameter
    power a_i^s that keeps the ring non-CM (find_non_cm_power).  Returns
    the steps as {position of a_i in ps: s}, in the order taken, and the
    stabilization index n of the one-dimensional ring reached, which has
    depth zero because it is not CM.  The one parameter never quotiented
    is the position missing from the steps.
    """
    positions = list(range(len(ps.params)))
    steps = {}
    while len(ps.params) > 1:
        i, s = find_non_cm_power(ps)
        steps[positions.pop(i - 1)] = s
        ps = reduced_system(ps, i, s)
    if not depth_is_zero(ps.ring):
        raise VerificationError(f"induction reached a CM ring: {ps.ring!r}")
    return steps, stabilization_index(ps.ring)


def search_decomposable_powers(ps: ParameterSystem) -> TheoremReport:
    """Exponents n with Hom(R/a, R/(a_1^{n_1}, ..., a_d^{n_d})) decomposable.

    Follows the induction (_reduction_chain): each quotient step fixes
    the exponent of the parameter it quotients by, and the last
    parameter gets the stabilization index plus one.  The assembled
    module is then handed to the engine, and for d >= 2 the first
    reduction step is cross-checked through check_radical_transfer.
    """
    if is_cohen_macaulay(ps):
        raise ValueError("ring is CM along these parameters; Hom stays indecomposable")
    ring = ps.ring
    steps, n = _reduction_chain(ps)
    exps = [steps.get(k, n + 1) for k in range(len(ps.params))]
    checks = _Checks(f"{ring!r}, a = {ring.fmt_ideal(ps.a_ideal)}")
    parameters: dict = {}
    if steps:
        first = next(iter(steps))
        parameters["index"] = first + 1
        parameters["power"] = steps[first]
    parameters["n"] = exps
    report = checks.decomposition(build_hom(ps, exps))
    if steps:
        # the induction transfers the split from the smaller ideal
        # (a_i^{n_i}, rest) up to a itself; rerun that step explicitly
        j_gens = [mono_pow(p, exps[k]) if k == first else p for k, p in enumerate(ps.params)]
        n_gens = [mono_pow(p, e) for p, e in zip(ps.params, exps)]
        transfer = check_radical_transfer(
            ring,
            MonomialIdeal(ring.ambient, j_gens),
            ps.a_ideal,
            MonomialIdeal(ring.ambient, n_gens),
        )
        for name in transfer.checks:
            checks(f"transfer step: {name}", True)
    return checks.report("4.1", parameters, report)


def search_nonfree_powers(ps: ParameterSystem) -> TheoremReport:
    """Exponents n, N making Hom(R/(a_i^{n_i}), R/(a_i^{N_i})) split non-free.

    Same induction as the decomposability search, but the last parameter
    digs to the stabilization depth: it gets n_i = n and N_i = 2n, which
    places the torsion submodule inside the Hom and rules out freeness.
    Every quotient step's parameter gets n_i = N_i = s, so b is given by
    the powers 1, ..., 1, 2 of the new parameters.
    """
    if is_cohen_macaulay(ps):
        raise ValueError("ring is CM along these parameters; Hom stays free")
    ring = ps.ring
    steps, n = _reduction_chain(ps)
    d = len(ps.params)
    n_vec = [steps.get(k, n) for k in range(d)]
    t = [1 if k in steps else 2 for k in range(d)]
    ps2 = validate_sop(ring, [mono_pow(p, e) for p, e in zip(ps.params, n_vec)])
    Q = build_hom(ps2, t)
    checks = _Checks(f"{ring!r}, a = {ring.fmt_ideal(ps2.a_ideal)}")
    report = checks.decomposition(Q)
    w = checks.not_free(Q)
    return checks.report("4.2", {
        "n": n_vec,
        "N": [e * k for e, k in zip(n_vec, t)],
        "witness": ring.fmt(w),
        "hom_length": Q.length(),
    }, report)


def check_radical_transfer(ring: LocalRing, small: MonomialIdeal, large: MonomialIdeal,
                           module_ideal: MonomialIdeal) -> TheoremReport:
    """Decomposability of Hom(R/J, N) transfers to Hom(R/I, N) when √J = √I.

    J = small must sit inside I = large with the same radical (relative
    to the defining ideal).  When the engine finds the small-side Hom
    decomposable, the large-side Hom must be decomposable as well; if
    the small side is indecomposable there is nothing to transfer and
    the report says so.
    """
    if not large.contains_ideal(small):
        raise ValueError("J must be contained in I")
    if (small + ring.defining).radical() != (large + ring.defining).radical():
        raise ValueError("J and I must have the same radical modulo the defining ideal")
    checks = _Checks(f"{ring!r}, J = {ring.fmt_ideal(small)}, I = {ring.fmt_ideal(large)}, "
                     f"N = R/{ring.fmt_ideal(module_ideal)}")
    source = decide(hom_from_ideals(ring, small, module_ideal))
    if not source.decomposable:
        checks("source Hom indecomposable; transfer holds vacuously", True)
        return checks.report("2.6", {"vacuous": True}, source)
    checks("source Hom decomposable", True)
    target = decide(hom_from_ideals(ring, large, module_ideal))
    checks("enlarged ideal keeps the decomposition", target.decomposable)
    return checks.report("2.6", {"vacuous": False}, target)


def verify_colon_identity(ring: LocalRing, seed: int = 7) -> TheoremReport:
    """Randomized check of (b a^r L :_L a^p) = a^{r-q}(b a^q L :_L a^p) + (0 :_L a^p).

    Draws COLON_IDENTITY_DRAWS tuples (L, a, b, p <= q <= r) over the
    given ring and verifies the identity on each.  Exponents stay small;
    the point is breadth across module shapes, not depth in any one of
    them.
    """
    count = COLON_IDENTITY_DRAWS
    rng = random.Random(seed)
    nv = ring.ambient
    failures = 0
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(1, 3)):
            gens.append(tuple(rng.randint(0, 2) for _ in range(nv)))
        L = MonomialIdeal(nv, gens)
        a = tuple(rng.randint(0, 2) for _ in range(nv))
        b = tuple(rng.randint(0, 1) for _ in range(nv))
        p = rng.randint(1, 3)
        q = rng.randint(p, 4)
        r = rng.randint(q, 4)
        if not colon_identity_check(ring, L, a, b, p, q, r):
            failures += 1
    checks = _Checks(f"{ring!r}, {count} random instances, seed {seed}")
    checks(f"colon identity held on all {count} instances", failures == 0)
    return checks.report("2.5", {"count": count, "seed": seed})


def _non_regular_witness_holds(ps: ParameterSystem) -> bool:
    """Whether a checked monomial shows that ps is not a regular sequence.

    Takes the first parameter a_j = x_v^e whose variable divides a
    generator g of I, with J = I + (a_1..a_{j-1}) and
    w = g / x_v^{min(g_v, e)}, and checks w ∉ J and w·a_j ∈ J.  Then a_j
    kills the nonzero class of w modulo the parameters before it, so the
    sequence is not regular and the ring is not CM along ps (see
    is_cohen_macaulay).  False when no such parameter exists.
    """
    I = ps.ring.defining
    for j, (v, a) in enumerate(zip(ps.variables, ps.params)):
        g = next((g for g in I.gens if g[v]), None)
        if g is not None:
            w = g[:v] + (g[v] - min(g[v], a[v]),) + g[v + 1:]
            J = I + MonomialIdeal(I.ambient, ps.params[:j])
            return not J.contains(w) and J.contains(mono_mul(w, a))
    return False


def verify_non_cm_power(ps: ParameterSystem) -> TheoremReport:
    """Some parameter power quotient of a non-CM ring stays non-CM.

    Reports the first (index, power) found and re-checks that quotienting
    by it really does break the CM property for the remaining parameters,
    through a zero-divisor witness on the quotient whose memberships are
    checked (_non_regular_witness_holds), not through the closed form
    that chose the power.
    """
    if is_cohen_macaulay(ps):
        raise ValueError("ring is CM along these parameters")
    if len(ps.params) < 2:
        raise ValueError("needs at least two parameters")
    ring = ps.ring
    i, s = find_non_cm_power(ps)
    checks = _Checks(f"{ring!r}, a = {ring.fmt_ideal(ps.a_ideal)}")
    reduced = reduced_system(ps, i, s)
    checks("quotient by the chosen power is not CM", _non_regular_witness_holds(reduced))
    checks("quotient dimension drops by one", reduced.ring.dimension() == ring.dimension() - 1)
    return checks.report("2.7", {"index": i, "power": s,
                                 "parameter": ring.fmt(ps.params[i - 1])})


# ---------------------------------------------------------------- lattice maps


class PointClass(str, Enum):
    """Verdict for one exponent vector t: the type of Hom(R/a, R/(a_i^{t_i})).

    CYCLIC_NONFREE cannot occur on a validated system: classify_point
    proves that such a Hom is free exactly when it is cyclic.  The value
    stays, as the grid legend prints its glyph.
    """

    FREE_CYCLIC = "FREE_CYCLIC"
    CYCLIC_NONFREE = "CYCLIC_NONFREE"
    INDECOMPOSABLE_NONCYCLIC = "INDECOMPOSABLE_NONCYCLIC"
    DECOMPOSABLE = "DECOMPOSABLE"


def classify_point(ps: ParameterSystem, powers) -> PointClass:
    """Class of Hom(R/a, R/bR) at one lattice point t, for b = (a_i^{t_i}).

    hom.row_intervals reads C/B off the row table of the box that
    hom.parameter_box gives at b's exponent vector f = e∘t
    (hom.b_exponents), as build_hom does: each row's interval of
    basis cells, the rows that hold a generator of C, and the number of
    components of the one-step action graph.  No cell, ideal, colon or
    Hom object is built.  A cyclic module is free, by the theorem below,
    and indecomposable, as it is a quotient of the local base.  Otherwise
    the components are the summands decide() reports, and a non-cyclic
    module is not free.

    Theorem.  Let a_i = x_{v_i}^{e_i} be a system that validate_sop
    accepts and b = (x_{v_i}^{f_i}) with f >= e, as every b that
    hom.b_exponents accepts is (its docstring proves it).  Then H = Hom(R/a, R/b)
    = C/B has length at least length(S), S = R/(I + a), and H is free
    over S exactly when it is cyclic.

    Proof.  Write a monomial (y, z), y its exponents on the x_{v_i} and
    z the others, and y = r + e∘k with 0 <= r < e.  B is I plus the pure
    powers, so (y, z) is outside B exactly when y < f and (y, z) is
    outside I.  For each (r, z) let D(r, z) be the set of k with
    (r + e∘k, z) outside B.  B is an ideal, so D(r, z) is a down-set,
    finite as y < f, and it holds k = 0 exactly when (r, z) is outside I
    (r < e <= f), that is when (r, z) is a basis monomial of S.  A cell
    (r + e∘k, z) outside B lies in C = (B : a) exactly when each
    k + 1_i leaves D(r, z), as (r + e∘k, z)·a_i = (r + e∘(k + 1_i), z).
    So the basis cells of H of class (r, z) are the maximal elements of
    D(r, z).  Each of the length(S) basis monomials (r, z) of S gives a
    non-empty finite down-set, which has a maximal element, so
    length(H) >= length(S).

    Cyclic implies free.  I + a kills H, so a cyclic H is R/J for an
    ideal J ⊇ I + a, a quotient of S.  Its length is at least
    length(S), so the surjection S -> H is an isomorphism and H is free
    of rank one.

    Free implies cyclic.  No generator of I has its support among the
    x_{v_i} (ParameterSystem.variables), so w0 = (f - e, 0) lies
    outside B.  It lies in C, as w0·a_i has y_i = f_i, and w0 / x_{v_i}
    does not, as (w0 / x_{v_i})·a_i is (f - e + (e_i - 1)·1_i, 0),
    outside B; so w0 is a minimal generator of C outside B.  If H is
    free of rank mu, the mu minimal generators of C outside B map S^mu
    onto H, an isomorphism as both have length mu·length(S), so they
    form a basis.  Then the annihilator of w0 is I + a, and
    (f - e + s, z) = (s, z)·w0 lies outside B for every basis monomial
    (s, z) of S.  For fixed z, the s with (s, z) a basis monomial of S
    form a down-set Σ_z of the box [0, e).  The map s -> (f - e + s)
    mod e, a cyclic shift in each coordinate, is injective and maps Σ_z
    into itself, as (its value, z) divides (f - e + s, z), which is
    outside I; so it permutes Σ_z.  And f - e + s lies in [f - e, f),
    where it is the largest y < f of its residue r.  So for each basis
    monomial (r, z) of S, D(r, z) holds the k of that y, the largest k
    with r + e∘k < f, and has one maximal element.  Then length(H) =
    length(S) = mu·length(S), and mu = 1.

    classify_point therefore reads neither S nor a length: one
    generator is FREE_CYCLIC, and CYCLIC_NONFREE never arises.
    """
    t = list(powers)
    if not all(type(e) is int for e in t):  # bool is an int subclass and is refused
        raise ValueError("a lattice point is a list of integer exponents")
    box = parameter_box(ps, b_exponents(ps, t))
    return _row_class(row_thresholds(ps.ring.defining, box), ps.params)


def _row_class(f, a_gens) -> PointClass:
    """A point's class off its row table f, by classify_point's theorem."""
    rows = row_intervals(f, a_gens)
    if len(rows.heads) == 1:
        return PointClass.FREE_CYCLIC
    if rows.count >= 2:
        return PointClass.DECOMPOSABLE
    return PointClass.INDECOMPOSABLE_NONCYCLIC


_CLASSES = tuple(PointClass)
_CLASS_INDEX = {cls: i for i, cls in enumerate(_CLASSES)}


class BoxMap(Mapping):
    """Read-only map from the points of the box [1, tmax]^d to their PointClass.

    The points' codes sit in one bytes object in itertools.product order,
    which is sorted order, each the index of a class in PointClass, so no
    point is stored as a key.  A key that is not a length-d tuple of ints
    in [1, tmax] raises KeyError, so ``in`` answers False for it; a bool
    is no int here, as it is no exponent to classify_point.
    """

    __slots__ = ("tmax", "dim", "_codes")

    def __init__(self, tmax: int, dim: int, codes: bytes):
        self.tmax = tmax
        self.dim = dim
        self._codes = codes

    def __getitem__(self, t):
        if not (isinstance(t, tuple) and len(t) == self.dim
                and all(type(e) is int and 1 <= e <= self.tmax for e in t)):
            raise KeyError(t)
        pos = 0
        for e in t:
            pos = pos * self.tmax + e - 1
        return _CLASSES[self._codes[pos]]

    def __iter__(self):
        return itertools.product(range(1, self.tmax + 1), repeat=self.dim)

    def __len__(self) -> int:
        return len(self._codes)

    def __repr__(self) -> str:
        return f"BoxMap(tmax={self.tmax}, dim={self.dim})"


class GridClassification(NamedTuple):
    """Point classes over the full exponent box [1, tmax]^d.

    codes holds one byte per point in itertools.product order, the index
    of its class in PointClass; classes is the view that decodes it.  A
    point is free over the base exactly when it is FREE_CYCLIC (see
    classify_point).
    """

    ps: ParameterSystem
    tmax: int
    codes: bytes

    @property
    def classes(self) -> BoxMap:
        return BoxMap(self.tmax, len(self.ps.params), self.codes)


def classify_grid(ps: ParameterSystem, tmax: int) -> GridClassification:
    """classify_point at every point of [1, tmax]^d, off one box and one row table for the grid.

    hom.b_exponents reads the far corner T = (tmax, ..., tmax) once, as
    the exponent vector e∘T of b = (a_i^{tmax}), a_i = x_{v_i}^{e_i}, and
    hom.parameter_box and monomials.row_thresholds build T's box and
    table, which row_thresholds holds to LENGTH_CAP: a grid whose far
    corner is over the cap raises that corner's CapExceeded before any
    point is classified.  Each point t then takes parameter_box(ps, e∘t),
    classify_point's box at t, as b_exponents(ps, t) = e∘t (its
    docstring proves that every accepted b is such an f), and reads the
    slice f_t(p) = min(top_t, f_T(p)) of T's table for p in its own box
    of rows, top_t being its bound on the last variable.  Every check
    passes at t once it passes at T: t is d integers >= 1, and the
    variables parameter_box leaves without a bound are T's.  t's box
    lies inside T's, as e_i t_i <= e_i tmax, so it is within LENGTH_CAP.

    Proof that the slice is t's own table.  row_thresholds gives
    f_t(p) = min(top_t, r(p)), with r(p) the least last exponent of a
    generator of I whose other exponents are at most p (no bound when
    there is none), which depends on p alone and not on the box.  So
    top_t <= top_T, and t's box of rows lies inside T's, so
    f_T(p) = min(top_T, r(p)) is defined at each row p of t, and
    min(top_t, f_T(p)) = min(top_t, top_T, r(p)) = min(top_t, r(p)) =
    f_t(p).
    """
    if type(tmax) is not int:
        raise ValueError("tmax must be an integer")
    if tmax < 1:
        raise ValueError("tmax must be at least 1")
    d = len(ps.params)
    far = row_thresholds(ps.ring.defining, parameter_box(ps, b_exponents(ps, [tmax] * d)))
    e = [a[v] for v, a in zip(ps.variables, ps.params)]
    codes = bytearray()
    for t in itertools.product(range(1, tmax + 1), repeat=d):
        *head, top = parameter_box(ps, map(mul, e, t))
        f = {p: min(top, far[p]) for p in itertools.product(*map(range, head))}
        codes.append(_CLASS_INDEX[_row_class(f, ps.params)])
    return GridClassification(ps, tmax, bytes(codes))


# ------------------------------------------------------------------- corpora


def power_family_ring(m: int) -> LocalRing:
    """k[x,y]/(x^2, x y^m): dimension one, depth zero, torsion x*k[y]/(y^m)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return LocalRing.from_text(("x", "y"), f"(x^2, xy^{m})")


def socle_family_ring(n1: int) -> LocalRing:
    """k[x,y,z]/(x^2, xyz, y^n1): dimension one along z, depth zero for n1 >= 2."""
    if n1 < 2:
        raise ValueError("n1 must be at least 2")
    return LocalRing.from_text(("x", "y", "z"), f"(x^2, xyz, y^{n1})")


@functools.cache
def _accepted_ring(variables: tuple[str, ...], relations: str) -> LocalRing | None:
    """The ring k[variables]/(relations) if a random corpus may hold it, else None.

    A corpus ring has dimension one, depth zero and stabilization index
    at most 5.  Both of the last two are read off the ring's one
    saturation Γ = gamma_m(ring): depth zero is depth_is_zero, Γ ≠ I.
    The index is the least n with m^n ∩ Γ ⊆ I; as m^(n+1) ⊆ m^n, the
    condition holds for every n past the index, so the index is at most
    5 exactly when m^5 ∩ Γ ⊆ I.  That ideal is spanned by the monomials
    of Γ of degree at least 5, so it lies in I exactly when every
    monomial of Γ outside I, a finite set, has degree below 5.

    The test reads nothing but the text, so it runs once per text;
    random_depth_zero_ring draws from 46 texts, so the memo holds at
    most 46 entries.
    """
    ring = LocalRing.from_text(variables, relations)
    if ring.dimension() != 1 or not depth_is_zero(ring):
        return None
    if all(sum(u) < 5 for u in monomials_between(gamma_m(ring), ring.defining)):
        return ring
    return None


def random_depth_zero_ring(rng: random.Random) -> LocalRing:
    """One random monomial ring of dimension one and depth zero.

    A draw is one of 46 relation texts: 30 of the form (x^e, x^f y^g) and
    16 of the form (x^e, x y^g z^h, y^k).  Draws repeat until one passes
    the acceptance test of _accepted_ring, which caps the stabilization
    index at 5 so that suite modules built from the draw stay small;
    structured families cover the deeper cases.  It bounds the index by
    a degree test on one saturation Γ: every monomial of Γ outside I has
    degree below 5, with no index loop.  The test is memoized per text
    and takes nothing from rng, so the memo changes neither the draws
    nor the ring that a given rng state yields.
    """
    for _ in range(DEPTH_ZERO_DRAWS):
        if rng.random() < 0.5:
            e = rng.randint(2, 4)
            f = rng.randint(1, e - 1)
            g = rng.randint(1, 5)
            ring = _accepted_ring(("x", "y"), f"(x^{e}, x^{f}y^{g})")
        else:
            e = rng.randint(2, 3)
            g = rng.randint(1, 2)
            h = rng.randint(1, 2)
            k = rng.randint(2, 3)
            ring = _accepted_ring(("x", "y", "z"), f"(x^{e}, xy^{g}z^{h}, y^{k})")
        if ring is not None:
            return ring
    raise CapExceeded(f"no depth-zero draw in {DEPTH_ZERO_DRAWS} tries")


def dim1_corpus(extra: int = 24, seed: int = 2026) -> list[LocalRing]:
    """Structured families plus `extra` random rings, all dim 1 and depth 0.

    The random rings come from random_depth_zero_ring, whose draws range
    over 46 relation texts; a text drawn again gives the memoized ring
    object rather than a new, equal one.  The acceptance test (depth
    zero, and the degree test on Γ outside I that bounds the index)
    uses no randomness, so the memo leaves the list unchanged: it
    depends on seed and extra alone.
    """
    rings = [power_family_ring(m) for m in range(2, 7)]
    rings += [socle_family_ring(n) for n in range(2, 7)]
    rng = random.Random(seed)
    while len(rings) < 10 + extra:
        rings.append(random_depth_zero_ring(rng))
    return rings
