"""Executable statements about Hom_R(R/a, M/bM).

Each verifier re-derives every quantity it needs (stabilization index,
colon ideals, summand lengths) and runs the decomposition engine on the
assembled module, so a passing report certifies a concrete instance of
the statement rather than replaying stored answers.  Verifiers raise
ValueError when the hypotheses do not hold and VerificationError when a
hypothesis-satisfying instance fails a check; the second kind of failure
always means a defect in this library.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum

from .decomp import DecompositionReport, decide
from .hom import HomSubquotient, build_hom, hom_from_ideals
from .monomials import Monomial, MonomialIdeal, grlex_key, mono_mul, monomials_between
from .rings import (
    LocalRing,
    ParameterSystem,
    SearchCapExceeded,
    colon_identity_check,
    depth_is_zero,
    find_non_cm_power,
    gamma_m,
    gamma_module_generators,
    is_cohen_macaulay,
    stabilization_index,
    validate_sop,
)

PARAMETER_DEGREE_CAP = 8


class VerificationError(RuntimeError):
    """A check failed on an instance satisfying the hypotheses."""


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verified instance.

    checks lists every predicate that was tested, in order; a report is
    only ever constructed after all of them passed.
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
            out["decomposition"] = decomposition_dict(self.decomposition)
        return out


def decomposition_dict(rep: DecompositionReport) -> dict:
    """JSON-ready view of a decomposition report."""
    out = {
        "verdict": rep.verdict,
        "method": rep.method,
        "module_dim": rep.module_dim,
        "summand_count": rep.summand_count,
    }
    if rep.partition is not None:
        out["partition"] = [list(block) for block in rep.partition]
    if rep.certificate is not None:
        out["certificate"] = rep.certificate
    return out


def _check(checks: list, instance: str, name: str, ok: bool) -> None:
    if not ok:
        raise VerificationError(f"{name}: failed for {instance}")
    checks.append(name)


def _pow(u: Monomial, k: int) -> Monomial:
    return tuple(e * k for e in u)


def _one(ring: LocalRing) -> Monomial:
    return (0,) * ring.ambient


def _layer_length(upper: MonomialIdeal, lower: MonomialIdeal) -> int:
    """Length of upper/lower for nested monomial ideals; it must be finite."""
    return len(monomials_between(upper, lower))


def _monomials_of_degree(nvars: int, deg: int):
    if nvars == 1:
        yield (deg,)
        return
    for e in range(deg, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, deg - e):
            yield (e,) + rest


def first_monomial_parameter(ring: LocalRing, max_degree: int = PARAMETER_DEGREE_CAP) -> Monomial:
    """Grlex-smallest monomial parameter of a one-dimensional ring."""
    if ring.dimension() != 1:
        raise ValueError("parameter search needs a one-dimensional ring")
    for deg in range(1, max_degree + 1):
        for u in sorted(_monomials_of_degree(ring.ambient, deg), key=grlex_key):
            if ring.is_zero_element(u):
                continue
            try:
                validate_sop(ring, [u])
            except ValueError:
                continue
            return u
    raise SearchCapExceeded(f"no monomial parameter of degree <= {max_degree}")


def verify_rees(ps: ParameterSystem, b_spec) -> TheoremReport:
    """Nested parameter ideals of a Cohen-Macaulay ring give free cyclic Hom.

    Hom_R(R/a, R/b) is then isomorphic to S = R/(a + I): one generator,
    free of rank one, length equal to length(S).
    """
    if not is_cohen_macaulay(ps):
        raise ValueError("the parameter system is not a regular sequence; ring is not CM here")
    Q = build_hom(ps, b_spec)
    ring = ps.ring
    instance = f"{ring!r}, a = {ring.fmt_ideal(ps.a_ideal)}, b = {ring.fmt_ideal(Q.b_ideal)}"
    checks: list = []
    _check(checks, instance, "cyclic: one minimal generator", Q.minimal_generator_count() == 1)
    _check(checks, instance, "free of rank one over the base", Q.is_free_over_base())
    _check(checks, instance, "length equals length of R/(a + I)", Q.length() == Q.base_length())
    return TheoremReport(
        statement="rees",
        instance=instance,
        parameters={"length": Q.length()},
        checks=tuple(checks),
    )


def verify_thm_dim1(ring: LocalRing, a: Monomial, c: Monomial | None = None) -> TheoremReport:
    """Splitting of Hom(R/(a), R/(c a^{n+1})) in dimension one, depth zero.

    n is the stabilization index.  The verifier recomputes both colon
    identities behind the splitting,

        (B : a) = (c a^n) + (0 : a)   and   B = ((c a^n) + I) ∩ ((0 : a) + B)

    with B = (c a^{n+1}) + I, then checks that the two summands have
    positive lengths adding up to the Hom length, and that the engine
    finds the module decomposable.
    """
    if ring.dimension() != 1:
        raise ValueError("needs a one-dimensional ring")
    if not depth_is_zero(ring):
        raise ValueError("needs depth zero; the torsion part is trivial otherwise")
    if c is None:
        c = _one(ring)
    ps = validate_sop(ring, [a])
    n = stabilization_index(ring)
    b = mono_mul(c, _pow(a, n + 1))
    validate_sop(ring, [b])  # c must keep c*a^{n+1} a parameter
    Q = build_hom(ps, [b])

    I = ring.defining
    B = Q.denominator
    can = mono_mul(c, _pow(a, n))
    left = MonomialIdeal(ring.ambient, [can]) + I
    tors = I.colon_monomial(a)
    instance = f"{ring!r}, a = {ring.fmt(a)}, c = {ring.fmt(c)}"
    checks: list = []
    _check(checks, instance, "colon identity: (B : a) = (c a^n) + (0 : a)",
           B.colon_monomial(a) == left + tors)
    _check(checks, instance, "intersection identity: B = ((c a^n) + I) cap ((0 : a) + B)",
           B == left.intersect(tors + B))
    lv = _layer_length(left, B)
    rv = _layer_length(tors + B, B)
    _check(checks, instance, "both summands are nonzero", lv > 0 and rv > 0)
    _check(checks, instance, "summand lengths add up", lv + rv == Q.length())
    report = decide(Q)
    _check(checks, instance, "engine confirms a decomposition", report.decomposable)
    return TheoremReport(
        statement="3.1",
        instance=instance,
        parameters={
            "n": n,
            "a": ring.fmt(a),
            "c": ring.fmt(c),
            "b": ring.fmt(b),
            "hom_length": Q.length(),
            "summand_lengths": [lv, rv],
        },
        checks=tuple(checks),
        decomposition=report,
    )


def verify_thm_nonfree(ring: LocalRing, c: Monomial | None = None) -> TheoremReport:
    """Decomposable and non-free Hom from a deep parameter.

    With n the stabilization index, a = a0^n for a monomial parameter a0,
    and b = c a^2, the module Hom(R/(a), R/(b)) splits as
    ((c a) + I)/B  ⊕  (Γ + B)/B and the first summand is killed by any
    element of Γ outside (a) + I, so the module cannot be free.
    """
    if ring.dimension() != 1:
        raise ValueError("needs a one-dimensional ring")
    if not depth_is_zero(ring):
        raise ValueError("needs depth zero; over a CM ring Hom stays free")
    if c is None:
        c = _one(ring)
    n = stabilization_index(ring)
    a0 = first_monomial_parameter(ring)
    a = _pow(a0, n)
    b = mono_mul(c, _pow(a, 2))
    ps = validate_sop(ring, [a])
    validate_sop(ring, [b])
    Q = build_hom(ps, [b])

    I = ring.defining
    B = Q.denominator
    sat = gamma_m(ring)
    ca = mono_mul(c, a)
    left = MonomialIdeal(ring.ambient, [ca]) + I
    instance = f"{ring!r}, a = {ring.fmt(a)}, c = {ring.fmt(c)}"
    checks: list = []
    _check(checks, instance, "colon identity: (B : a) = (c a) + Gamma",
           B.colon_monomial(a) == left + sat)
    _check(checks, instance, "intersection identity: B = ((c a) + I) cap (Gamma + B)",
           B == left.intersect(sat + B))
    lv = _layer_length(left, B)
    rv = _layer_length(sat + B, B)
    _check(checks, instance, "both summands are nonzero", lv > 0 and rv > 0)
    _check(checks, instance, "summand lengths add up", lv + rv == Q.length())

    torsion = [g for g in gamma_module_generators(ring)
               if not (MonomialIdeal(ring.ambient, [a]) + I).contains(g)]
    _check(checks, instance, "Gamma has a generator outside (a) + I", bool(torsion))
    w = min(torsion, key=grlex_key)
    _check(checks, instance, "witness kills the cyclic summand",
           B.contains(mono_mul(w, ca)))
    _check(checks, instance, "module is not free over the base",
           not Q.is_free_over_base())
    _check(checks, instance, "annihilator witness found on the module",
           Q.non_free_annihilator_witness() is not None)
    report = decide(Q)
    _check(checks, instance, "engine confirms a decomposition", report.decomposable)
    return TheoremReport(
        statement="3.3",
        instance=instance,
        parameters={
            "n": n,
            "base": ring.fmt(a0),
            "a": ring.fmt(a),
            "c": ring.fmt(c),
            "b": ring.fmt(b),
            "witness": ring.fmt(w),
            "hom_length": Q.length(),
            "summand_lengths": [lv, rv],
        },
        checks=tuple(checks),
        decomposition=report,
    )


def _reduced_system(ps: ParameterSystem, index: int, power: int) -> ParameterSystem:
    """ps with parameter #index (1-based) raised to `power` and quotiented out."""
    extra = MonomialIdeal(ps.ring.ambient, [_pow(ps.params[index - 1], power)])
    rest = [p for j, p in enumerate(ps.params) if j != index - 1]
    return validate_sop(ps.ring.quotient(extra), rest)


def _weave(d: int, index: int, value: int, tail: list) -> list:
    out = []
    it = iter(tail)
    for j in range(d):
        out.append(value if j == index - 1 else next(it))
    return out


def _decomposable_exponents(ps: ParameterSystem) -> list[int]:
    ring = ps.ring
    if len(ps.params) == 1:
        # a non-CM ring of dimension one has depth zero
        if not depth_is_zero(ring):
            raise VerificationError(f"induction reached a CM ring: {ring!r}")
        return [stabilization_index(ring) + 1]
    i, s = find_non_cm_power(ps)
    tail = _decomposable_exponents(_reduced_system(ps, i, s))
    return _weave(len(ps.params), i, s, tail)


def search_decomposable_powers(ps: ParameterSystem) -> TheoremReport:
    """Exponents n with Hom(R/a, R/(a_1^{n_1}, ..., a_d^{n_d})) decomposable.

    Follows the induction: pick a parameter power that destroys the CM
    property, quotient by it, and recurse; in dimension one take the
    stabilization index plus one.  The assembled module is then handed
    to the engine, and for d >= 2 the first reduction step is
    cross-checked through check_radical_transfer.
    """
    if is_cohen_macaulay(ps):
        raise ValueError("ring is CM along these parameters; Hom stays indecomposable")
    ring = ps.ring
    d = len(ps.params)
    checks: list = []
    instance = f"{ring!r}, a = {ring.fmt_ideal(ps.a_ideal)}"
    parameters: dict = {}
    if d == 1:
        exps = _decomposable_exponents(ps)
    else:
        i, s = find_non_cm_power(ps)
        parameters["index"] = i
        parameters["power"] = s
        tail = _decomposable_exponents(_reduced_system(ps, i, s))
        exps = _weave(d, i, s, tail)
    parameters["n"] = list(exps)
    Q = build_hom(ps, exps)
    report = decide(Q)
    _check(checks, instance, "engine confirms a decomposition", report.decomposable)
    if d >= 2:
        # the induction transfers the split from the smaller ideal
        # (a_i^{n_i}, rest) up to a itself; rerun that step explicitly
        j_gens = [_pow(p, exps[k]) if k == i - 1 else p for k, p in enumerate(ps.params)]
        n_gens = [_pow(p, exps[k]) for k, p in enumerate(ps.params)]
        transfer = check_radical_transfer(
            ring,
            MonomialIdeal(ring.ambient, j_gens),
            ps.a_ideal,
            MonomialIdeal(ring.ambient, n_gens),
        )
        for name in transfer.checks:
            checks.append(f"transfer step: {name}")
    return TheoremReport(
        statement="4.1",
        instance=instance,
        parameters=parameters,
        checks=tuple(checks),
        decomposition=report,
    )


def _nonfree_exponents(ps: ParameterSystem) -> tuple[list[int], list[int]]:
    ring = ps.ring
    if len(ps.params) == 1:
        if not depth_is_zero(ring):
            raise VerificationError(f"induction reached a CM ring: {ring!r}")
        n = stabilization_index(ring)
        return [n], [2 * n]
    i, s = find_non_cm_power(ps)
    tail_n, tail_b = _nonfree_exponents(_reduced_system(ps, i, s))
    d = len(ps.params)
    return _weave(d, i, s, tail_n), _weave(d, i, s, tail_b)


def search_nonfree_powers(ps: ParameterSystem) -> TheoremReport:
    """Exponents n, N making Hom(R/(a_i^{n_i}), R/(a_i^{N_i})) split non-free.

    Same induction as the decomposability search, but the base case digs
    to the stabilization depth: a = a0^n and b = a^2, which places the
    torsion submodule inside the Hom and rules out freeness.
    """
    if is_cohen_macaulay(ps):
        raise ValueError("ring is CM along these parameters; Hom stays free")
    ring = ps.ring
    n_vec, b_vec = _nonfree_exponents(ps)
    ps2 = validate_sop(ring, [_pow(p, k) for p, k in zip(ps.params, n_vec)])
    Q = build_hom(ps2, [_pow(p, k) for p, k in zip(ps.params, b_vec)])
    instance = f"{ring!r}, a = {ring.fmt_ideal(ps2.a_ideal)}"
    checks: list = []
    report = decide(Q)
    _check(checks, instance, "engine confirms a decomposition", report.decomposable)
    _check(checks, instance, "module is not free over the base",
           not Q.is_free_over_base())
    w = Q.non_free_annihilator_witness()
    _check(checks, instance, "annihilator witness found on the module", w is not None)
    return TheoremReport(
        statement="4.2",
        instance=instance,
        parameters={
            "n": list(n_vec),
            "N": list(b_vec),
            "witness": ring.fmt(w),
            "hom_length": Q.length(),
        },
        checks=tuple(checks),
        decomposition=report,
    )


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
    instance = (f"{ring!r}, J = {ring.fmt_ideal(small)}, I = {ring.fmt_ideal(large)}, "
                f"N = R/{ring.fmt_ideal(module_ideal)}")
    checks: list = []
    source = decide(hom_from_ideals(ring, small, module_ideal))
    if not source.decomposable:
        checks.append("source Hom indecomposable; transfer holds vacuously")
        return TheoremReport("2.6", instance, {"vacuous": True},
                             tuple(checks), decomposition=source)
    checks.append("source Hom decomposable")
    target = decide(hom_from_ideals(ring, large, module_ideal))
    _check(checks, instance, "enlarged ideal keeps the decomposition", target.decomposable)
    return TheoremReport("2.6", instance, {"vacuous": False},
                         tuple(checks), decomposition=target)


def verify_colon_identity(ring: LocalRing, count: int = 100, seed: int = 7) -> TheoremReport:
    """Randomized check of (b a^r L :_L a^p) = a^{r-q}(b a^q L :_L a^p) + (0 :_L a^p).

    Draws `count` tuples (L, a, b, p <= q <= r) over the given ring and
    verifies the identity on each.  Exponents stay small; the point is
    breadth across module shapes, not depth in any one of them.
    """
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
    instance = f"{ring!r}, {count} random instances, seed {seed}"
    checks: list = []
    _check(checks, instance, f"colon identity held on all {count} instances", failures == 0)
    return TheoremReport("2.5", instance, {"count": count, "seed": seed}, tuple(checks))


def verify_non_cm_power(ps: ParameterSystem) -> TheoremReport:
    """Some parameter power quotient of a non-CM ring stays non-CM.

    Reports the first (index, power) found and re-checks that quotienting
    by it really does break the CM property for the remaining parameters.
    """
    if is_cohen_macaulay(ps):
        raise ValueError("ring is CM along these parameters")
    if len(ps.params) < 2:
        raise ValueError("needs at least two parameters")
    ring = ps.ring
    i, s = find_non_cm_power(ps)
    instance = f"{ring!r}, a = {ring.fmt_ideal(ps.a_ideal)}"
    checks: list = []
    reduced = _reduced_system(ps, i, s)
    _check(checks, instance, "quotient by the chosen power is not CM",
           not is_cohen_macaulay(reduced))
    _check(checks, instance, "quotient dimension drops by one",
           reduced.ring.dimension() == ring.dimension() - 1)
    return TheoremReport(
        statement="2.7",
        instance=instance,
        parameters={"index": i, "power": s,
                    "parameter": ring.fmt(ps.params[i - 1])},
        checks=tuple(checks),
    )


# ---------------------------------------------------------------- lattice maps


class PointClass(str, Enum):
    """Verdict for one exponent vector t: the type of Hom(R/a, R/(a_i^{t_i}))."""

    FREE_CYCLIC = "FREE_CYCLIC"
    CYCLIC_NONFREE = "CYCLIC_NONFREE"
    INDECOMPOSABLE_NONCYCLIC = "INDECOMPOSABLE_NONCYCLIC"
    DECOMPOSABLE = "DECOMPOSABLE"


def classify_point(ps: ParameterSystem, powers) -> PointClass:
    """Class of the Hom module at one lattice point.

    Cyclic modules over the Artinian local base are indecomposable, so
    the engine only runs when there are at least two generators.
    """
    Q = build_hom(ps, list(powers))
    if Q.is_cyclic():
        return PointClass.FREE_CYCLIC if Q.is_free_over_base() else PointClass.CYCLIC_NONFREE
    if decide(Q).decomposable:
        return PointClass.DECOMPOSABLE
    return PointClass.INDECOMPOSABLE_NONCYCLIC


@dataclass(frozen=True)
class GridClassification:
    """Point classes over the full exponent box [1, tmax]^d."""

    ps: ParameterSystem
    tmax: int
    classes: dict
    free: dict

    def lattice(self) -> list:
        return sorted(self.classes)


def classify_grid(ps: ParameterSystem, tmax: int) -> GridClassification:
    if tmax < 1:
        raise ValueError("tmax must be at least 1")
    classes = {}
    free = {}
    for t in itertools.product(range(1, tmax + 1), repeat=len(ps.params)):
        classes[t] = classify_point(ps, t)
        free[t] = build_hom(ps, list(t)).is_free_over_base()
    return GridClassification(ps, tmax, classes, free)


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


def random_depth_zero_ring(rng: random.Random, tries: int = 200) -> LocalRing:
    """One random monomial ring of dimension one and depth zero.

    The stabilization index is capped so that suite modules built from
    the draw stay small; structured families cover the deeper cases.
    """
    for _ in range(tries):
        if rng.random() < 0.5:
            e = rng.randint(2, 4)
            f = rng.randint(1, e - 1)
            g = rng.randint(1, 5)
            ring = LocalRing.from_text(("x", "y"), f"(x^{e}, x^{f}y^{g})")
        else:
            e = rng.randint(2, 3)
            g = rng.randint(1, 2)
            h = rng.randint(1, 2)
            k = rng.randint(2, 3)
            ring = LocalRing.from_text(("x", "y", "z"), f"(x^{e}, xy^{g}z^{h}, y^{k})")
        if (ring.dimension() == 1 and depth_is_zero(ring)
                and stabilization_index(ring) <= 5):
            return ring
    raise SearchCapExceeded(f"no depth-zero draw in {tries} tries")


def dim1_corpus(extra: int = 24, seed: int = 2026) -> list[LocalRing]:
    """Structured families plus `extra` random rings, all dim 1 and depth 0."""
    rings = [power_family_ring(m) for m in range(2, 7)]
    rings += [socle_family_ring(n) for n in range(2, 7)]
    rng = random.Random(seed)
    while len(rings) < 10 + extra:
        rings.append(random_depth_zero_ring(rng))
    return rings


def cm_corpus() -> list[ParameterSystem]:
    """Cohen-Macaulay rings with their full parameter systems."""
    out = []
    R = LocalRing.from_text(("x", "y"), "(0)")
    out.append(validate_sop(R, [R.parse_monomial("x"), R.parse_monomial("y")]))
    R = LocalRing.from_text(("x", "y"), "(x^2)")
    out.append(validate_sop(R, [R.parse_monomial("y")]))
    R = LocalRing.from_text(("x", "y", "z"), "(x^3)")
    out.append(validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")]))
    return out


def cm_power_pairs() -> list:
    """(parameter system, exponent vector) pairs for the free-cyclic suite."""
    pairs = []
    for ps in cm_corpus():
        d = len(ps.params)
        for t in itertools.product(range(1, 4), repeat=d):
            pairs.append((ps, list(t)))
        squared = validate_sop(ps.ring, [_pow(p, 2) for p in ps.params])
        for t in itertools.product(range(1, 3), repeat=d):
            pairs.append((squared, list(t)))
    return pairs
