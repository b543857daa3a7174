import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_monomials,
    monomial_ideals,
    oracle_colon_member,
    oracle_monomials_between,
    oracle_saturation_fixpoint,
    oracle_saturation_member,
    brute_force_box_count,
    random_ideal,
    random_proper_ideal,
    reference_colon,
    torsion_ideals,
)
from homdecomp import monomials
from homdecomp.monomials import (
    CapExceeded,
    MonomialIdeal,
    _ideal,
    divides,
    format_ideal,
    format_monomial,
    grlex_key,
    monomials_between,
    parse_ideal,
    parse_monomial,
)


XYZ = ("x", "y", "z")


def ideal(text, names=("x", "y")):
    return parse_ideal(text, names)


# ---------------------------------------------------------------------------
# construction and minimalization
# ---------------------------------------------------------------------------

def test_minimalize_drops_multiples():
    I = MonomialIdeal(2, [(0, 1), (1, 1), (2, 0)])
    assert I.gens == ((0, 1), (2, 0))


def test_minimalize_walkthrough():
    # x^2, xy^2, y^2, xy^3: both xy powers are multiples of y^2
    I = ideal("(x^2, xy^2, y^2, xy^3)")
    assert I == ideal("(x^2, y^2)")


def test_minimalize_is_canonical_under_shuffle():
    rng = random.Random(11)
    for _ in range(100):
        I = random_ideal(rng, rng.randint(1, 3))
        gens = list(I.gens)
        # add redundant multiples and shuffle
        for g in list(gens)[:2]:
            gens.append(tuple(e + rng.randint(0, 2) for e in g))
        rng.shuffle(gens)
        assert MonomialIdeal(I.ambient, gens) == I


def test_construction_validates():
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, -1)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        MonomialIdeal(9, [])
    with pytest.raises(AttributeError):
        I = MonomialIdeal(2, [(1, 0)])
        I.gens = ()


BAD_MONOMIALS = [(1,), (1, 0, 0), (), (1, -1), (-2, 0), (1.0, 0), (0, 0.5), ("a", 1), (None, 0),
                 (True, 0)]


@pytest.mark.parametrize("u", BAD_MONOMIALS, ids=repr)
def test_monomials_are_checked_where_they_enter(u):
    I = MonomialIdeal(2, [(2, 0), (1, 1)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, 0), u])
    # zip would cut a short u down, and a negative exponent can cancel one of I's
    with pytest.raises(ValueError):
        I * u
    with pytest.raises(ValueError):
        I.colon_monomial(u)


def test_product_by_a_short_monomial_is_refused():
    # (x^2, xy) * (1,) would read as (x^3, x^2 y)'s first exponents alone
    with pytest.raises(ValueError, match=r"monomial \(1,\) does not have 2 exponents"):
        ideal("(x^2, xy)") * (1,)
    with pytest.raises(ValueError, match="non-negative integers"):
        ideal("(xy)") * (0, -1)  # would give (x), a valid-looking ideal
    with pytest.raises(ValueError, match="non-negative integers"):
        ideal("(xy)").colon_monomial((0, -1))  # would give (xy^2)
    # a monomial given as a list is read as a tuple
    assert ideal("(x^2, xy)").colon_monomial([1, 0]) == ideal("(x, y)")


@pytest.mark.parametrize("text", ["(x^-1)", "(x^1.5)", "(z)", "(xy, x^)", "x^2"])
def test_parse_ideal_refuses_bad_monomials(text):
    with pytest.raises(ValueError):
        parse_ideal(text, ("x", "y"))


def is_canonical(I: MonomialIdeal) -> bool:
    """I equals the ideal the public constructor builds from its generators,
    and those are minimal and in strictly increasing graded-lex order."""
    gens = list(I.gens)
    keys = [grlex_key(g) for g in gens]
    minimal = not any(divides(g, h) for g in gens for h in gens if g != h)
    return (I == MonomialIdeal(I.ambient, gens) and minimal and keys == sorted(set(keys))
            and all(type(g) is tuple for g in gens))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    monomial_ideals(n), monomial_ideals(n), st.tuples(*[st.integers(0, 3)] * n))))
def test_kernel_results_are_canonical(drawn):
    I, J, u = drawn
    results = [I + J, I * J, I * u, I.intersect(J), I.colon_monomial(u), I.radical()]
    if not J.is_zero():
        results += [I.colon(J), I.saturation(J)]
    for result in results:
        assert result.ambient == I.ambient
        assert is_canonical(result), result


def test_zero_and_unit():
    Z = MonomialIdeal.zero(2)
    U = MonomialIdeal.unit(2)
    assert Z.is_zero() and not Z.is_unit()
    assert U.is_unit() and not U.is_zero()
    assert U.contains((0, 0)) and not Z.contains((0, 0))


# ---------------------------------------------------------------------------
# membership, sum, product, intersection
# ---------------------------------------------------------------------------

def test_contains_examples():
    I = ideal("(x^2, xy^2)")
    assert I.contains(parse_monomial("x^3y", ("x", "y")))
    assert not I.contains(parse_monomial("xy", ("x", "y")))
    assert MonomialIdeal.unit(2).contains((0, 0))


def test_sum_product_examples():
    assert ideal("(x^2)") + ideal("(xy)") == ideal("(x^2, xy)")
    assert ideal("(x)") * ideal("(y)") == ideal("(xy)")
    assert ideal("(x^2, xy)") * ideal("(y)") == ideal("(x^2y, xy^2)")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(monomial_ideals(n), monomial_ideals(n))),
       st.data())
def test_sum_merges_the_two_minimal_generator_sets(pair, data):
    # monomial_ideals draws the zero and the unit ideal; J also takes some of I's generators
    I, J = pair
    if I.gens:
        shared = data.draw(st.lists(st.sampled_from(I.gens), max_size=2))
        J = MonomialIdeal(J.ambient, J.gens + tuple(shared))
    assert I + J == _ideal(I.ambient, I.gens + J.gens)
    assert J + I == _ideal(I.ambient, J.gens + I.gens)


@pytest.mark.parametrize("text", ["(0)", "(1)", "(x^2, xy)", "(y^3, x^2y)"])
def test_sum_with_the_zero_and_unit_ideals(text):
    I, zero, unit = ideal(text), MonomialIdeal.zero(2), MonomialIdeal.unit(2)
    assert I + zero == zero + I == I + I == I
    assert I + unit == unit + I == unit


def test_intersect_examples():
    assert ideal("(x)").intersect(ideal("(y)")) == ideal("(xy)")
    assert ideal("(x)").intersect(MonomialIdeal.unit(2)) == ideal("(x)")
    assert ideal("(x)").intersect(MonomialIdeal.zero(2)).is_zero()


def test_membership_semantics_on_random_ideals():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 3)
        I, J = random_ideal(rng, n), random_ideal(rng, n)
        box = enumerate_monomials(n, 5)
        S, P, X = I + J, I * J, I.intersect(J)
        for u in box:
            assert S.contains(u) == (I.contains(u) or J.contains(u))
            assert X.contains(u) == (I.contains(u) and J.contains(u))
            if P.contains(u):
                assert I.contains(u) and J.contains(u)


# ---------------------------------------------------------------------------
# colon and saturation
# ---------------------------------------------------------------------------

def test_colon_frozen_values():
    # oracle-checked below; these literals were frozen from the oracle run
    assert ideal("(x^2, xy^2)").colon(ideal("(y)")) == ideal("(x^2, xy)")
    assert ideal("(x^2, xy^3, y^4)").colon(ideal("(y^2)")) == ideal("(x^2, xy, y^2)")
    I = ideal("(x^2, xy^2)")
    assert I.colon(MonomialIdeal.unit(2)) == I
    with pytest.raises(ValueError):
        I.colon(MonomialIdeal.zero(2))


def test_colon_matches_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 3)
        I, J = random_ideal(rng, n), random_proper_ideal(rng, n)
        Q = I.colon(J)
        for u in enumerate_monomials(n, 4):
            assert Q.contains(u) == oracle_colon_member(I, J, u)


@st.composite
def colon_pairs(draw):
    """(I, J) on 1-4 variables with exponents up to 12.

    J holds random monomials other than 1 and, now and then, the unit
    monomial or a generator of I, where a part of the colon outside I is
    empty.  Half the exponents are 0, so that some generator of I is
    coprime to some generator of J: its quotient is itself, and only
    the summand I keeps it.  J's exponents stay below a drawn cap, since
    a J inside I only gives the unit ideal.
    """
    n = draw(st.integers(1, 4))
    I_exp = st.one_of(st.just(0), st.integers(1, 12))
    I_gens = st.tuples(*[I_exp] * n).filter(any)
    I = MonomialIdeal(n, draw(st.lists(I_gens, min_size=1, max_size=4)))
    J_exp = st.one_of(st.just(0), st.integers(1, draw(st.integers(1, 12))))
    J_gens = draw(st.lists(st.tuples(*[J_exp] * n).filter(any), min_size=1, max_size=3))
    J_gens += draw(st.lists(st.sampled_from([(0,) * n] + list(I.gens)), max_size=1))
    return I, MonomialIdeal(n, J_gens)


@settings(max_examples=300, deadline=None)
@given(colon_pairs())
def test_colon_matches_pairwise_intersection(pair):
    I, J = pair
    assert I.colon(J) == reference_colon(I, J)


def test_colon_of_zero_ideal():
    assert ideal("(x^2, y^2)").colon(ideal("(x)")) == ideal("(x, y^2)")
    for J in (ideal("(x, y^3)"), MonomialIdeal.unit(2), ideal("(xy)")):
        assert ideal("(0)").colon(J).is_zero()
        assert reference_colon(ideal("(0)"), J).is_zero()
    with pytest.raises(ValueError):
        ideal("(0)").colon(MonomialIdeal.zero(2))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    monomial_ideals(n, max_exp=6, max_gens=4), st.tuples(*[st.integers(0, 7)] * n))))
def test_contains_is_some_generator_dividing(case):
    I, u = case
    assert I.contains(u) == any(divides(g, u) for g in I.gens)


def test_colon_iterated_is_colon_of_product():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n)
        u = tuple(rng.randint(0, 3) for _ in range(n))
        v = tuple(rng.randint(0, 3) for _ in range(n))
        lhs = I.colon_monomial(u).colon_monomial(v)
        rhs = I.colon_monomial(tuple(a + b for a, b in zip(u, v)))
        assert lhs == rhs


def test_saturation_frozen_values():
    m = ideal("(x, y)")
    assert ideal("(x^2, xy^2)").saturation(m) == ideal("(x)")
    assert MonomialIdeal.zero(2).saturation(m).is_zero()
    assert ideal("(x^2)").saturation(m) == ideal("(x^2)")
    # saturating (x) by (x, y) stays (x): no power of y falls into (x)
    assert ideal("(x)").saturation(m) == ideal("(x)")


def test_saturation_past_a_thousand_colon_steps():
    # a colon walk takes 1500 steps to reach (x) here
    I, m = ideal("(x^1500, xy)"), ideal("(x, y)")
    assert I.saturation(m) == ideal("(x)")
    with pytest.raises(ValueError, match="zero ideal"):
        I.saturation(MonomialIdeal.zero(2))


@st.composite
def saturation_pairs(draw):
    """(I, J) on 1-3 variables with exponents up to 6.

    J is the maximal ideal, the unit ideal or random (generators of
    mixed support, and now and then the unit ideal again).  I may be the
    zero ideal, and it gains pure powers of some variables half the time.
    """
    n = draw(st.integers(1, 3))
    pure = lambda i, e: tuple(e if k == i else 0 for k in range(n))  # noqa: E731
    I = draw(monomial_ideals(n, max_exp=6))
    if draw(st.booleans()):
        I += MonomialIdeal(n, [pure(i, draw(st.integers(1, 6)))
                               for i in range(n) if draw(st.booleans())])
    J = draw(st.one_of(st.just(MonomialIdeal(n, [pure(i, 1) for i in range(n)])),
                       st.just(MonomialIdeal.unit(n)),
                       monomial_ideals(n, min_gens=1)))
    return I, J


@settings(max_examples=300, deadline=None)
@given(saturation_pairs())
@example((ideal("(x^2, xy^3)"), ideal("(x, y)")))                       # J = m
@example((ideal("(x^3y, y^4z^2, xz^5)", XYZ), ideal("(xy, yz^2)", XYZ)))  # mixed support
@example((ideal("(x^2, xy^3)"), MonomialIdeal.unit(2)))                   # unit J
@example((MonomialIdeal.zero(3), ideal("(x, yz)", XYZ)))                  # zero I
@example((ideal("(x^4, y^3, xyz^2)", XYZ), ideal("(x, y, z)", XYZ)))     # pure powers
def test_saturation_matches_colon_fixpoint(pair):
    I, J = pair
    assert I.saturation(J).gens == oracle_saturation_fixpoint(I, J).gens


def test_saturation_oracle_default_bound_reaches_deep_members():
    # 1 lies in ((x^12, y^12, z^12) : m^infinity), the unit ideal, but
    # only x^11 y^11 z^11 times one more variable, 34 steps up, is in I
    I = MonomialIdeal(3, [(12, 0, 0), (0, 12, 0), (0, 0, 12)])
    m = MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert I.saturation(m).is_unit()
    assert oracle_saturation_member(I, m, (0, 0, 0))
    assert not oracle_saturation_member(I, m, (0, 0, 0), max_steps=33)
    assert oracle_saturation_member(I, m, (0, 0, 0), max_steps=34)


def test_saturation_matches_oracle():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n)
        J = random_proper_ideal(rng, n, max_exp=2)
        S = I.saturation(J)
        for u in enumerate_monomials(n, 3):
            assert S.contains(u) == oracle_saturation_member(I, J, u)


def test_saturation_is_fixpoint():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        I = random_ideal(rng, n)
        J = random_proper_ideal(rng, n, max_exp=2)
        S = I.saturation(J)
        assert S.colon(J) == S
        assert S.contains_ideal(I)


# ---------------------------------------------------------------------------
# radical, dimension, colength, standard monomials
# ---------------------------------------------------------------------------

def test_radical_examples():
    assert ideal("(x^2, xy^3)").radical() == ideal("(x)")
    assert ideal("(x^2, y^4)").radical() == ideal("(x, y)")
    assert MonomialIdeal.zero(2).radical().is_zero()
    assert MonomialIdeal.unit(2).radical().is_unit()


def test_dimension_examples():
    assert parse_ideal("(x^2, xyz)", ("x", "y", "z")).dimension() == 2
    assert ideal("(x^2, xy^2)").dimension() == 1
    assert MonomialIdeal.zero(3).dimension() == 3
    assert MonomialIdeal.unit(3).dimension() == -1
    assert ideal("(x^2, y^3)").dimension() == 0


def test_dimension_equals_dimension_of_radical():
    rng = random.Random(31)
    for _ in range(80):
        I = random_ideal(rng, rng.randint(1, 4))
        assert I.dimension() == I.radical().dimension()


def test_finite_colength():
    assert ideal("(x^2, y^2)").is_finite_colength()
    assert not ideal("(x^2, xy)").is_finite_colength()
    assert MonomialIdeal.unit(2).is_finite_colength()
    assert not MonomialIdeal.zero(1).is_finite_colength()


def test_finite_colength_iff_dimension_zero():
    rng = random.Random(37)
    for _ in range(80):
        I = random_ideal(rng, rng.randint(1, 3))
        if I.is_unit():
            continue
        assert I.is_finite_colength() == (I.dimension() == 0)


def test_standard_monomials_example():
    I = ideal("(x^2, y^2)")
    assert I.standard_monomials() == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert I.length() == 4
    assert MonomialIdeal.unit(2).length() == 0


def test_length_matches_brute_force():
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        I = random_proper_ideal(rng, rng.randint(1, 3), max_exp=5)
        if not I.is_finite_colength():
            continue
        assert I.length() == brute_force_box_count(I)
        checked += 1


def test_length_cap(monkeypatch):
    I = parse_ideal("(x^200, y^200, z^200)", ("x", "y", "z"))
    monkeypatch.setattr(monomials, "LENGTH_CAP", 10**5)
    with pytest.raises(CapExceeded):
        I.length()
    with pytest.raises(ValueError):
        ideal("(x^2)").length()


def test_monomials_between_example():
    # (x, y^2) minus (x^2, xy, y^3): the walk from x and y^2 stops at once
    upper, lower = ideal("(x, y^2)"), ideal("(x^2, xy, y^3)")
    assert monomials_between(upper, lower) == [(1, 0), (0, 2)]
    assert monomials_between(MonomialIdeal.unit(2), lower) == lower.standard_monomials()
    assert monomials_between(lower, upper) == []
    assert monomials_between(MonomialIdeal.zero(2), lower) == []


def test_monomials_between_cap(monkeypatch):
    monkeypatch.setattr(monomials, "LENGTH_CAP", 5)
    with pytest.raises(CapExceeded, match="exceeds cap 5"):
        monomials_between(MonomialIdeal.unit(2), ideal("(x^3, y^3)"))
    # (x) minus (x^2): the walk along y never ends, and the cap stops it
    monkeypatch.setattr(monomials, "LENGTH_CAP", 100)
    with pytest.raises(CapExceeded, match="exceeds cap 100"):
        monomials_between(ideal("(x)"), ideal("(x^2)"))


@st.composite
def ideal_pairs(draw):
    """(upper, lower) on 2-3 variables.

    Either lower gets a pure power of each variable with some chance, so
    it often has finite colength and often not, and upper is random; or,
    for the torsion case, lower is a torsion ideal, mostly of infinite
    colength, and upper is its saturation by the maximal ideal.
    """
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        pures = [tuple(draw(st.integers(1, 4)) if k == i else 0 for k in range(n))
                 for i in range(n) if draw(st.integers(0, 4))]
        lower = draw(monomial_ideals(n)) + MonomialIdeal(n, pures)
        return draw(monomial_ideals(n, max_exp=2, min_gens=1)), lower
    lower = draw(torsion_ideals(n))
    maximal = MonomialIdeal(n, [tuple(int(k == i) for k in range(n)) for i in range(n)])
    return lower.saturation(maximal), lower


@settings(max_examples=300, deadline=None)
@given(ideal_pairs())
def test_monomials_between_matches_box_filter(pair):
    upper, lower = pair
    expected = oracle_monomials_between(upper, lower)
    if expected is None:
        with mock.patch.object(monomials, "LENGTH_CAP", 500), pytest.raises(CapExceeded):
            monomials_between(upper, lower)
    else:
        assert monomials_between(upper, lower) == expected


# ---------------------------------------------------------------------------
# colon, intersection, saturation and length against the oracles, with
# exponents up to 12
# ---------------------------------------------------------------------------

BIG = 12


def probes_near(ideals, extra):
    """extra, plus each generator of the ideals and its one-step divisors.

    A generator lies in its ideal and a one-step divisor of it does not,
    so these probes sit on both sides of every generator.
    """
    out = list(extra)
    for I in ideals:
        for g in I.gens:
            out.append(g)
            out += [g[:i] + (g[i] - 1,) + g[i + 1:] for i in range(len(g)) if g[i]]
    return out


def big_case(n, divisor):
    """(I, J, extra probes) on n variables, I with exponents up to BIG and J from divisor."""
    return st.tuples(monomial_ideals(n, max_exp=BIG), divisor,
                     st.lists(st.tuples(*[st.integers(0, BIG + 1)] * n), max_size=8))


@settings(max_examples=75, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: big_case(n, monomial_ideals(n, max_exp=BIG, min_gens=1))))
def test_colon_and_intersection_match_membership_big(case):
    I, J, extra = case
    colon, meet = I.colon(J), I.intersect(J)
    for u in probes_near((colon, meet, I, J), extra):
        assert colon.contains(u) == oracle_colon_member(I, J, u)
        assert meet.contains(u) == (I.contains(u) and J.contains(u))


@settings(max_examples=75, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: big_case(n, monomial_ideals(n, max_exp=2, min_gens=1, max_gens=2))))
def test_saturation_matches_oracle_big(case):
    I, J, extra = case
    sat = I.saturation(J)
    # u is in the saturation iff u * h^BIG is in I for every generator h
    # of J, so products of len(J.gens) * BIG generators of J settle it
    steps = len(J.gens) * BIG + 1
    for u in probes_near((sat, I), extra):
        assert sat.contains(u) == oracle_saturation_member(I, J, u, steps)


@settings(max_examples=75, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    monomial_ideals(n, max_exp=BIG), st.tuples(*[st.integers(1, BIG)] * n))))
def test_length_matches_box_count_big(case):
    I, pures = case
    n = I.ambient
    I = I + MonomialIdeal(n, [tuple(e if k == i else 0 for k in range(n))
                              for i, e in enumerate(pures)])
    assume(not I.is_unit())
    assert I.length() == brute_force_box_count(I)


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------

def test_parse_monomial():
    names = ("x", "y", "z")
    assert parse_monomial("x^2", names) == (2, 0, 0)
    assert parse_monomial("xy^3", names) == (1, 3, 0)
    assert parse_monomial("xyz", names) == (1, 1, 1)
    assert parse_monomial("1", names) == (0, 0, 0)
    assert parse_monomial("x^0", names) == (0, 0, 0)
    with pytest.raises(ValueError):
        parse_monomial("xw", names)
    with pytest.raises(ValueError):
        parse_monomial("x^", names)
    for text in ("x^²", "y^٣"):  # digits that str.isdigit accepts and int() refuses or reads
        with pytest.raises(ValueError, match="missing exponent"):
            parse_monomial(text, names)
    with pytest.raises(ValueError):
        parse_monomial("", names)


def test_parse_and_format_ideal():
    names = ("x", "y")
    assert format_ideal(parse_ideal("(xy^3, x^2)", names), names) == "(x^2, xy^3)"
    assert format_ideal(MonomialIdeal.zero(2), names) == "(0)"
    assert format_ideal(MonomialIdeal.unit(2), names) == "(1)"
    assert parse_ideal("(0)", names).is_zero()
    assert parse_ideal("()", names).is_zero()
    with pytest.raises(ValueError):
        parse_ideal("x^2, y", names)


def test_format_round_trip():
    rng = random.Random(43)
    names = ("x", "y", "z")
    for _ in range(60):
        I = random_ideal(rng, 3)
        assert parse_ideal(format_ideal(I, names), names) == I
        for g in I.gens:
            assert parse_monomial(format_monomial(g, names), names) == g
