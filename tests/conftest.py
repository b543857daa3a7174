"""Shared oracle helpers for the test suite.

The oracles here are deliberately naive: bounded enumeration and brute
force linear algebra, independent of the implementation under test.
"""

from __future__ import annotations

from itertools import product as cartesian

from hypothesis import assume
from hypothesis import strategies as st

from homdecomp.hom import hom_from_ideals
from homdecomp.monomials import MonomialIdeal, grlex_key, mono_mul
from homdecomp.rings import LocalRing, validate_sop


def enumerate_monomials(ambient: int, max_exp: int):
    """Every exponent vector with all entries <= max_exp."""
    return [u for u in cartesian(range(max_exp + 1), repeat=ambient)]


def random_ideal(rng, ambient: int, max_gens: int = 4, max_exp: int = 4) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        gens.append(tuple(rng.randint(0, max_exp) for _ in range(ambient)))
    return MonomialIdeal(ambient, gens)


def random_proper_ideal(rng, ambient: int, max_gens: int = 4, max_exp: int = 4) -> MonomialIdeal:
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            g = tuple(rng.randint(0, max_exp) for _ in range(ambient))
            if sum(g) > 0:
                gens.append(g)
        if gens:
            return MonomialIdeal(ambient, gens)


def oracle_colon_member(I: MonomialIdeal, J: MonomialIdeal, u) -> bool:
    """u is in (I : J) iff u*h lands in I for every generator h of J."""
    return all(I.contains(mono_mul(u, h)) for h in J.gens)


def oracle_saturation_member(I: MonomialIdeal, J: MonomialIdeal, u, max_steps: int = 30) -> bool:
    """u is in (I : J^infinity) iff some power of J multiplies u into I."""
    frontier = {u}
    for _ in range(max_steps):
        if all(I.contains(w) for w in frontier):
            return True
        frontier = {mono_mul(w, h) for w in frontier for h in J.gens if not I.contains(w)}
    return all(I.contains(w) for w in frontier)


def brute_force_box_count(I: MonomialIdeal) -> int:
    """Count monomials outside I inside the pure-power box, by direct loops."""
    bounds = []
    for i in range(I.ambient):
        pures = [g[i] for g in I.gens
                 if g[i] > 0 and all(e == 0 for j, e in enumerate(g) if j != i)]
        bounds.append(min(pures))
    count = 0
    for u in cartesian(*(range(b) for b in bounds)):
        if not I.contains(u):
            count += 1
    return count


def oracle_monomials_between(upper: MonomialIdeal, lower: MonomialIdeal):
    """The monomials of upper outside lower, by filtering a box; None if infinitely many.

    With M the largest exponent of any generator of either ideal, capping
    an exponent above M at M + 1 changes membership in neither ideal.  So
    the set is infinite exactly when the box [0, M+1]^n holds a member
    with an exponent M + 1, and otherwise it lies in the box [0, M]^n.
    """
    top = max((e for g in upper.gens + lower.gens for e in g), default=0)
    members = [u for u in enumerate_monomials(upper.ambient, top + 1)
               if upper.contains(u) and not lower.contains(u)]
    if any(top + 1 in u for u in members):
        return None
    return sorted(members, key=grlex_key)


@st.composite
def monomial_ideals(draw, ambient: int, max_exp: int = 3, min_gens: int = 0,
                    max_gens: int = 3):
    """A monomial ideal on ambient variables; zero and unit ideals included."""
    exp = st.integers(0, max_exp)
    gens = draw(st.lists(st.tuples(*[exp] * ambient), min_size=min_gens, max_size=max_gens))
    return MonomialIdeal(ambient, gens)


@st.composite
def torsion_ideals(draw, ambient: int):
    """(x^e, x^f y^g, x^h z^k, ...) with f, h < e, plus at most one random generator.

    Without the extra generator k[x]/I has positive dimension and nonzero
    torsion: x^max(f, h) is outside I but in its saturation by m.
    """
    e = draw(st.integers(2, 3))
    gens = [(e,) + (0,) * (ambient - 1)]
    for j in range(1, ambient):
        gens.append(tuple(draw(st.integers(1, e - 1)) if k == 0 else
                          draw(st.integers(1, 3)) if k == j else 0 for k in range(ambient)))
    gens += draw(monomial_ideals(ambient, max_gens=1)).gens
    return MonomialIdeal(ambient, gens)


@st.composite
def monomial_homs(draw):
    """Hom(R/a, R/b) on 2-3 variables, length at most 20.

    x^e kills the ring's dimension in the x direction, one or two further
    relations are free to mix the variables (which is where splittings
    come from), a is a power of each remaining variable and b a power of
    each generator of a; a and b may each gain one arbitrary monomial.
    """
    d = draw(st.integers(2, 3))
    top = 6 if d == 2 else 3
    exp = st.integers(0, top)
    pure = lambda i, e: tuple(e if k == i else 0 for k in range(d))  # noqa: E731
    relations = [pure(0, draw(st.integers(1, top)))]
    relations += draw(st.lists(st.tuples(st.integers(1, top), *[exp] * (d - 1)),
                               min_size=1, max_size=2))
    s = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    t = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    extra = st.lists(st.tuples(*[exp] * d).filter(any), max_size=1)
    a = [pure(i + 1, si) for i, si in enumerate(s)] + draw(extra)
    b = [pure(i + 1, si * ti) for i, (si, ti) in enumerate(zip(s, t))] + draw(extra)
    ring = LocalRing(tuple("xyz"[:d]), MonomialIdeal(d, relations))
    Q = hom_from_ideals(ring, MonomialIdeal(d, a), MonomialIdeal(d, b))
    assume(Q.length() <= 20)
    return Q


@st.composite
def power_specs(draw):
    """A validated parameter system on 2-3 variables and exponents t_i in 1..3.

    The relations are those of monomial_homs, plus, on three variables,
    possibly a pure power of z, which drops the dimension to one.  The
    variables other than x that lie in no such power are exactly the
    ones without a pure power in I, one per dimension, and the
    parameters are powers of them.
    """
    d = draw(st.integers(2, 3))
    exp = st.integers(0, 3)
    pure = lambda i, e: tuple(e if k == i else 0 for k in range(d))  # noqa: E731
    relations = [pure(0, draw(st.integers(1, 3)))]
    relations += draw(st.lists(st.tuples(st.integers(1, 3), *[exp] * (d - 1)),
                               min_size=1, max_size=2))
    free = list(range(1, d))
    if d == 3 and draw(st.booleans()):
        relations.append(pure(2, draw(st.integers(1, 3))))
        free = [1]
    ring = LocalRing(tuple("xyz"[:d]), MonomialIdeal(d, relations))
    ps = validate_sop(ring, [pure(i, draw(st.integers(1, 3))) for i in free])
    t = draw(st.lists(st.integers(1, 3), min_size=len(free), max_size=len(free)))
    return ps, t
