"""Statement-level verifiers: fixed instances worked out by hand, then suites.

The expected numbers (stabilization indices, exponent vectors, summand
lengths, witnesses) were derived independently from the ideal arithmetic
before these tests were written; the verifiers must reproduce them.
"""

import gc
import itertools
import json
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, assume, find, given, settings
from hypothesis import strategies as st

from conftest import (
    accepted,
    box_basis,
    cm_corpus,
    cm_power_pairs,
    colon_route,
    drawn_systems,
    local_rings,
    monomial_homs,
    nonfree_homs,
    one_dimensional_rings,
    oracle_first_monomial_parameter,
    oracle_split_identities,
    power_specs,
    split_statement_rings,
)
from homdecomp import hom, monomials, rings, theorems
from homdecomp.decomp import DecompositionReport, decide
from homdecomp.hom import (HomSubquotient, b_exponents, build_hom, hom_from_ideals, parameter_box,
                          row_intervals)
from homdecomp.monomials import (CapExceeded, MonomialIdeal, grlex_key, mono_mul, mono_pow,
                                 monomials_between, row_thresholds)
from homdecomp.rings import (LocalRing, ParameterSystem, depth_is_zero, gamma_m,
                             stabilization_index, validate_sop)
from homdecomp.theorems import (
    DIM1_SPLIT_CHECKS,
    GridClassification,
    PointClass,
    TheoremReport,
    VerificationError,
    check_radical_transfer,
    classify_grid,
    classify_point,
    dim1_corpus,
    first_monomial_parameter,
    power_family_ring,
    search_decomposable_powers,
    search_nonfree_powers,
    socle_family_ring,
    verify_colon_identity,
    verify_non_cm_power,
    verify_rees,
    verify_thm_dim1,
    verify_thm_nonfree,
)


def ring2(relations):
    return LocalRing.from_text(("x", "y"), relations)


def sop(ring, *texts):
    return validate_sop(ring, [ring.parse_monomial(t) for t in texts])


THREE_VARS = LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
FOUR_VARS = LocalRing.from_text(("x", "y", "z", "w"), "(x^2, xyzw)")


class TestReesFreeness:
    def test_every_cm_pair_is_free_cyclic(self):
        pairs = cm_power_pairs()
        assert len(pairs) >= 20
        for ps, t in pairs:
            rep = verify_rees(ps, t)
            assert rep.statement == "rees"
            assert len(rep.checks) == 3

    def test_regular_ring_explicit_pair(self):
        R = ring2("(0)")
        rep = verify_rees(sop(R, "x", "y"), [2, 3])
        # S = k[x,y]/(x,y) has length 1, so the Hom has length 1
        assert rep.parameters["length"] == 1

    def test_hypersurface_pair(self):
        R = ring2("(x^2)")
        rep = verify_rees(sop(R, "y"), [3])
        assert rep.parameters["length"] == 2  # length of k[x,y]/(x^2, y)

    def test_non_cm_ring_is_rejected(self):
        R = ring2("(x^2, xy^2)")
        with pytest.raises(ValueError, match="not CM"):
            verify_rees(sop(R, "y"), [2])


class TestDim1Splitting:
    def test_frozen_instance_m3(self):
        R = ring2("(x^2, xy^3)")
        rep = verify_thm_dim1(R, R.parse_monomial("y"))
        assert rep.parameters["n"] == 4
        assert rep.parameters["b"] == "y^5"
        assert rep.parameters["hom_length"] == 2
        assert rep.parameters["summand_lengths"] == [1, 1]
        assert rep.decomposition is not None and rep.decomposition.decomposable
        assert "engine confirms a decomposition" in rep.checks

    def test_frozen_instance_m2(self):
        R = ring2("(x^2, xy^2)")
        rep = verify_thm_dim1(R, R.parse_monomial("y"))
        assert rep.parameters["n"] == 3
        assert rep.parameters["b"] == "y^4"

    def test_socle_family_instance(self):
        R = socle_family_ring(2)
        rep = verify_thm_dim1(R, R.parse_monomial("z"))
        assert rep.parameters["n"] == 3
        assert rep.parameters["b"] == "z^4"
        # any deeper power of z keeps the conclusion
        ps = sop(R, "z")
        assert classify_point(ps, [5]) is PointClass.DECOMPOSABLE

    def test_scaling_by_c(self):
        R = ring2("(x^2, xy^3)")
        rep = verify_thm_dim1(R, R.parse_monomial("y"), R.parse_monomial("y^2"))
        assert rep.parameters["b"] == "y^7"
        lv, rv = rep.parameters["summand_lengths"]
        assert lv > 0 and rv > 0
        assert lv + rv == rep.parameters["hom_length"]

    def test_wrong_dimension_is_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            verify_thm_dim1(THREE_VARS, THREE_VARS.parse_monomial("z"))

    def test_positive_depth_is_rejected(self):
        R = ring2("(x^2)")
        with pytest.raises(ValueError, match="depth zero"):
            verify_thm_dim1(R, R.parse_monomial("y"))


class TestNonfreeSplitting:
    def test_frozen_instance_m3(self):
        R = ring2("(x^2, xy^3)")
        rep = verify_thm_nonfree(R)
        assert rep.parameters["n"] == 4
        assert rep.parameters["a"] == "y^4"
        assert rep.parameters["b"] == "y^8"
        assert rep.parameters["witness"] == "x"
        assert rep.parameters["hom_length"] == 7
        assert rep.parameters["summand_lengths"] == [4, 3]

    def test_frozen_instance_m2(self):
        R = ring2("(x^2, xy^2)")
        rep = verify_thm_nonfree(R)
        assert rep.parameters["n"] == 3
        assert rep.parameters["a"] == "y^3"
        assert rep.parameters["b"] == "y^6"

    def test_cm_ring_is_rejected(self):
        R = ring2("(x^2)")
        with pytest.raises(ValueError, match="depth zero"):
            verify_thm_nonfree(R)

    def test_scaled_instance_stays_nonfree(self):
        R = ring2("(x^2, xy^3)")
        rep = verify_thm_nonfree(R, R.parse_monomial("y"))
        assert rep.parameters["b"] == "y^9"
        assert "module is not free over the base" in rep.checks


def dim1_split(ring, c_power):
    """Q, gen and tors of verify_thm_dim1(ring, a, a^c_power), a the first monomial parameter."""
    a = first_monomial_parameter(ring)
    c = mono_pow(a, c_power)
    n = stabilization_index(ring)
    Q = build_hom(validate_sop(ring, [a]), [mono_mul(c, mono_pow(a, n + 1))])
    return Q, mono_mul(c, mono_pow(a, n)), ring.defining.colon_monomial(a)


def nonfree_split(Q):
    """gen = c a and tors = Γ of a nonfree_homs module Hom(R/(a), R/(c a^2))."""
    (a,), (b,) = Q.a_ideal.gens, Q.b_ideal.gens
    return Q, tuple(e - f for e, f in zip(b, a)), gamma_m(Q.ring)


SPLIT_CHECKS = DIM1_SPLIT_CHECKS + ("both summands are nonzero", "summand lengths add up")


def split_outcome(Q, gen, tors):
    """_check_split's lengths, or the name of the first check it fails."""
    try:
        return theorems._check_split(theorems._Checks(""), Q, gen, tors, DIM1_SPLIT_CHECKS)
    except VerificationError as err:
        return str(err).removesuffix(": failed for ")


def oracle_split_outcome(Q, gen, tors):
    """split_outcome read off oracle_split_identities' ideals, built in full."""
    colon, meet, lengths = oracle_split_identities(Q, gen, tors)
    verdicts = (colon, meet, min(lengths) > 0, sum(lengths) == Q.length())
    return next((name for name, ok in zip(SPLIT_CHECKS, verdicts) if not ok), lengths)


def split_layers(Q, tors):
    """tors, then the five torsion layers tried beside it: (0 : a), I, (0 : a^2), C and Γ.

    (0 : a) is the right layer of 3.1 and Γ that of 3.3; the others break
    a check on some draws.
    """
    I = Q.ring.defining
    (a,) = Q.a_ideal.gens
    return (tors, I.colon_monomial(a), I, I.colon_monomial(mono_pow(a, 2)), Q.numerator,
            gamma_m(Q.ring))


def check_split_against_oracle(Q, gen, tors):
    """_check_split passes on tors with the oracle's lengths, and matches it on every layer.

    On each layer the outcome is the lengths, or the name of the first
    check that fails, and it must be the oracle's.
    """
    lengths = oracle_split_outcome(Q, gen, tors)
    assert isinstance(lengths, list)
    checks = theorems._Checks("")
    assert theorems._check_split(checks, Q, gen, tors, DIM1_SPLIT_CHECKS) == lengths
    assert checks.names == list(SPLIT_CHECKS)
    for layer in split_layers(Q, tors)[1:]:
        assert split_outcome(Q, gen, layer) == oracle_split_outcome(Q, gen, layer)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split_statement_rings(), st.sampled_from([0, 1, 2]))
def test_split_checks_match_the_ideal_oracle_in_dimension_one(ring, c_power):
    assume_dim1_statement(ring)
    check_split_against_oracle(*dim1_split(ring, c_power))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nonfree_homs())
def test_split_checks_match_the_ideal_oracle_on_nonfree_homs(Q):
    check_split_against_oracle(*nonfree_split(Q))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split_statement_rings(), st.sampled_from([0, 1, 2]), st.data())
def test_split_checks_match_the_ideal_oracle_on_a_moved_gen(ring, c_power, data):
    # gen moved up or down one step in one variable: the colon identity
    # fails on every layer but C, and with tors = C each of the colon
    # identity, the intersection identity and the nonzero summands fails
    # on some draws
    assume_dim1_statement(ring)
    Q, gen, tors = dim1_split(ring, c_power)
    v = data.draw(st.integers(0, ring.ambient - 1))
    moved = gen[:v] + (gen[v] + data.draw(st.sampled_from([1, -1])),) + gen[v + 1:]
    assume(moved[v] >= 0)
    for layer in split_layers(Q, tors):
        assert split_outcome(Q, moved, layer) == oracle_split_outcome(Q, moved, layer)


def assume_dim1_statement(ring):
    """Reject draws that 3.1 refuses: positive depth, no monomial parameter, index past the cap."""
    assume(depth_is_zero(ring))
    try:
        first_monomial_parameter(ring)
        stabilization_index(ring)
    except (ValueError, CapExceeded):
        assume(False)


# 3.1 on k[x,y]/(x^2, xy^3) with a = y and c = 1 has n = 4, B = (y^5) + I,
# C = (y^4, x^2, xy^2), gen = y^4 and tors = (0 : y) = (x^2, xy^2).  The
# basis rows are x^0, cells y^4, and x^1, cells xy^2.  Each case swaps in a
# wrong gen or tors that breaks one condition of _check_split's row pass
@pytest.mark.parametrize("gen_power, layer, failing", [
    (4, "I", 0),           # row x^1 starts at xy^2, which is in neither (y^4) + I nor I
    (4, "(0 : a^2)", 0),   # only tors' generators in C: xy, a generator of (0 : y^2), is not
    (4, "Gamma", 0),       # only tors' generators in C: x, which generates Γ, is not
    (3, "(0 : a)", 0),     # only gen in C: y^3 is not
    (4, "C", 1),           # the layers overlap in y^4, in (y^4) + I and in C but not in B
    (6, "C", 1),           # y^5, a generator of B, is not in (y^6) + I
])
def test_split_checks_refuse_a_wrong_layer(gen_power, layer, failing):
    R = ring2("(x^2, xy^3)")
    y = R.parse_monomial("y")
    Q = build_hom(sop(R, "y"), [5])
    I = R.defining
    tors = {"I": I, "(0 : a)": I.colon_monomial(y), "(0 : a^2)": I.colon_monomial(mono_pow(y, 2)),
            "Gamma": gamma_m(R), "C": Q.numerator}[layer]
    gen = mono_pow(y, gen_power)
    verdicts = oracle_split_identities(Q, gen, tors)[:2]
    assert verdicts == (failing == 1, failing == 0)
    checks = theorems._Checks("instance")
    name = DIM1_SPLIT_CHECKS[failing]
    with pytest.raises(VerificationError, match=f"^{re.escape(name)}: failed for instance$"):
        theorems._check_split(checks, Q, gen, tors, DIM1_SPLIT_CHECKS)
    assert checks.names == list(DIM1_SPLIT_CHECKS[:failing])


def test_split_checks_test_b_on_its_generators():
    # hom_from_ideals keeps b as given.  Over I = (x^2, xy^3), b = (x^2, y^5)
    # gives 3.1's module with a = y, and its generator x^2 lies in I, so in
    # (y^4) + I.  Over I = (x^3, y^3), Hom(k[x,y]/(x, y), k[x,y]/(x^2, y^2))
    # has C = (xy) + B, and its one basis cell xy starts the gen layer of
    # gen = xy, but b's generators x^2 and y^2 lie in neither (xy) + I nor
    # the zero tors: the rows alone would pass both identities
    R = ring2("(x^2, xy^3)")
    Q = hom_from_ideals(R, R.parse_ideal("(y)"), R.parse_ideal("(x^2, y^5)"))
    tors = R.defining.colon_monomial((0, 1))
    assert split_outcome(Q, (0, 4), tors) == oracle_split_outcome(Q, (0, 4), tors) == [1, 1]
    R = ring2("(x^3, y^3)")
    Q = hom_from_ideals(R, R.parse_ideal("(x, y)"), R.parse_ideal("(x^2, y^2)"))
    assert Q.basis() == ((1, 1),)
    zero = MonomialIdeal.zero(2)
    assert oracle_split_identities(Q, (1, 1), zero)[:2] == (False, False)
    assert split_outcome(Q, (1, 1), zero) == DIM1_SPLIT_CHECKS[0]
    assert split_outcome(Q, (1, 1), Q.numerator) == DIM1_SPLIT_CHECKS[1]


@pytest.mark.parametrize("statement", ["3.1", "3.3"])
def test_split_statements_intersect_nothing_and_never_revalidate_b(monkeypatch, statement):
    # once the ring keeps Γ and its index, the identities are read off the
    # Hom's row scan and b is accepted in closed form
    R = power_family_ring(3)
    y = R.parse_monomial("y")

    def run():
        return verify_thm_dim1(R, y, y) if statement == "3.1" else verify_thm_nonfree(R, y)

    expected = run().as_dict()
    intersect = MonomialIdeal.intersect
    between = monomials._between
    intersections, validations, walks = [], [], []

    def counted_intersect(self, other):
        intersections.append(self)
        return intersect(self, other)

    def counted_validate(*args):
        validations.append(args)
        return validate_sop(*args)

    def counted_between(*args):
        walks.append(args)
        return between(*args)

    monkeypatch.setattr(MonomialIdeal, "intersect", counted_intersect)
    monkeypatch.setattr(hom, "validate_sop", counted_validate)
    monkeypatch.setattr(monomials, "_between", counted_between)
    assert not hasattr(theorems, "_between")
    assert run().as_dict() == expected
    assert intersections == []
    assert validations == []
    assert walks == []


# c reaches b only through mono_mul, which checks nothing: a negative
# exponent would cancel into b while c prints as 1, and zip cuts a short c
@pytest.mark.parametrize("c, message", [
    ((0, -1), "non-negative integers"),
    ((-1, 0), "non-negative integers"),
    ((0,), "does not have 2 exponents"),
])
def test_statements_check_c_where_it_enters(c, message):
    R = power_family_ring(3)
    with pytest.raises(ValueError, match=message):
        verify_thm_dim1(R, (0, 1), c)
    with pytest.raises(ValueError, match=message):
        verify_thm_nonfree(R, c)


def test_reports_share_one_saturation_per_ring(monkeypatch):
    saturation = MonomialIdeal.saturation
    calls = []

    def counted(self, J):
        calls.append(self)
        return saturation(self, J)

    monkeypatch.setattr(MonomialIdeal, "saturation", counted)
    R = power_family_ring(3)
    y = R.parse_monomial("y")
    assert verify_thm_dim1(R, y).parameters["n"] == 4
    assert verify_thm_dim1(R, y, y).parameters["b"] == "y^6"
    assert verify_thm_nonfree(R).parameters["witness"] == "x"
    assert rings.gamma_module_generators(R) == [R.parse_monomial("x")]
    assert depth_is_zero(R) and stabilization_index(R) == 4
    assert calls == [R.defining]


class TestPowerSearches:
    def test_three_variable_decomposable_exponents(self):
        ps = sop(THREE_VARS, "y", "z")
        rep = search_decomposable_powers(ps)
        assert rep.parameters["n"] == [2, 4]
        assert rep.parameters["index"] == 1
        assert rep.parameters["power"] == 2
        assert rep.decomposition.decomposable
        assert any(name.startswith("transfer step") for name in rep.checks)

    def test_four_variable_decomposable_exponents(self):
        ps = sop(FOUR_VARS, "y", "z", "w")
        rep = search_decomposable_powers(ps)
        assert rep.parameters["n"] == [2, 2, 5]

    def test_three_variable_nonfree_exponents(self):
        ps = sop(THREE_VARS, "y", "z")
        rep = search_nonfree_powers(ps)
        assert rep.parameters["n"] == [2, 3]
        assert rep.parameters["N"] == [2, 6]
        assert "module is not free over the base" in rep.checks

    def test_four_variable_nonfree_exponents(self):
        ps = sop(FOUR_VARS, "y", "z", "w")
        rep = search_nonfree_powers(ps)
        assert rep.parameters["n"] == [2, 2, 4]
        assert rep.parameters["N"] == [2, 2, 8]

    def test_dimension_one_base_case(self):
        R = power_family_ring(3)
        rep = search_decomposable_powers(sop(R, "y"))
        assert rep.parameters["n"] == [5]  # stabilization index 4, plus one
        rep = search_nonfree_powers(sop(R, "y"))
        assert rep.parameters["n"] == [4]
        assert rep.parameters["N"] == [8]

    def test_cm_input_is_rejected(self):
        R = ring2("(x^2)")
        with pytest.raises(ValueError, match="CM"):
            search_decomposable_powers(sop(R, "y"))
        with pytest.raises(ValueError, match="CM"):
            search_nonfree_powers(sop(R, "y"))


class TestRadicalTransfer:
    def test_vacuous_when_source_is_cyclic(self):
        # Hom(R/(y^6), R/(y^6)) is R/(y^6) itself: cyclic, indecomposable
        R = ring2("(x^2, xy^3)")
        rep = check_radical_transfer(R, R.parse_ideal("(y^6)"),
                                     R.parse_ideal("(y^2)"), R.parse_ideal("(y^6)"))
        assert rep.parameters["vacuous"] is True
        assert not rep.decomposition.decomposable

    def test_transfer_fires_on_split_source(self):
        R = ring2("(x^2, xy^3)")
        rep = check_radical_transfer(R, R.parse_ideal("(y^4)"),
                                     R.parse_ideal("(y^2)"), R.parse_ideal("(y^8)"))
        assert rep.parameters["vacuous"] is False
        assert "enlarged ideal keeps the decomposition" in rep.checks
        assert rep.decomposition.decomposable

    def test_identical_ideals_pass(self):
        R = ring2("(x^2, xy^3)")
        J = R.parse_ideal("(y^2)")
        rep = check_radical_transfer(R, J, J, R.parse_ideal("(y^6)"))
        assert rep.statement == "2.6"

    def test_containment_is_required(self):
        R = ring2("(x^2, xy^3)")
        with pytest.raises(ValueError, match="contained"):
            check_radical_transfer(R, R.parse_ideal("(y)"),
                                   R.parse_ideal("(y^2)"), R.parse_ideal("(y^4)"))

    def test_equal_radicals_are_required(self):
        R = ring2("(x^2, xy^3)")
        with pytest.raises(ValueError, match="radical"):
            check_radical_transfer(R, R.parse_ideal("(x^2y^2)"),
                                   R.parse_ideal("(y^2)"), R.parse_ideal("(y^4)"))


class TestColonIdentitySuite:
    def test_hundred_instances_on_two_rings(self):
        for ring in (ring2("(x^2, xy^3)"), socle_family_ring(3)):
            rep = verify_colon_identity(ring, seed=7)
            assert rep.checks == ("colon identity held on all 100 instances",)

    def test_regular_ring_instances(self, monkeypatch):
        monkeypatch.setattr(theorems, "COLON_IDENTITY_DRAWS", 50)
        rep = verify_colon_identity(ring2("(0)"), seed=1)
        assert rep.parameters["count"] == 50


class TestNonCmPowerSearch:
    def test_three_variable_first_power(self):
        rep = verify_non_cm_power(sop(THREE_VARS, "y", "z"))
        assert (rep.parameters["index"], rep.parameters["power"]) == (1, 2)
        assert rep.parameters["parameter"] == "y"

    def test_four_variable_first_power(self):
        rep = verify_non_cm_power(sop(FOUR_VARS, "y", "z", "w"))
        assert (rep.parameters["index"], rep.parameters["power"]) == (1, 2)

    def test_needs_two_parameters(self):
        R = ring2("(x^2, xy^2)")
        with pytest.raises(ValueError, match="two parameters"):
            verify_non_cm_power(sop(R, "y"))

    def test_cm_input_is_rejected(self):
        R = LocalRing.from_text(("x", "y", "z"), "(x^3)")
        with pytest.raises(ValueError, match="CM"):
            verify_non_cm_power(sop(R, "y", "z"))

    def test_quotient_check_reads_the_witness_not_the_closed_form(self, monkeypatch):
        R = LocalRing.from_text(("x", "y", "z"), "(x^2, xy^10z^10)")
        ps = sop(R, "y", "z")
        # the closed form calls every quotient CM: the witness still holds
        monkeypatch.setattr(theorems, "is_cohen_macaulay", lambda system: system is not ps)
        assert verify_non_cm_power(ps).parameters["power"] == 11
        # y^10 leaves (x^2, y^10), along which z is regular: no witness
        monkeypatch.setattr(theorems, "find_non_cm_power", lambda system: (1, 10))
        with pytest.raises(VerificationError,
                           match="^quotient by the chosen power is not CM: failed for "):
            verify_non_cm_power(ps)


# class of U_t = Hom(R/(y^2), R/(y^2t)) over k[x,y]/(x^2, xy^m):
# free cyclic while 2t <= m, one boundary point at t = (m+1)/2 for odd m,
# decomposable beyond
def expected_power_family_class(m, t):
    if t < (m + 1) / 2:
        return PointClass.FREE_CYCLIC
    if 2 * t == m + 1:
        return PointClass.INDECOMPOSABLE_NONCYCLIC
    return PointClass.DECOMPOSABLE


class TestPointClasses:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_power_family_strip(self, m):
        R = power_family_ring(m)
        ps = sop(R, "y^2")
        for t in range(1, m + 4):
            assert classify_point(ps, [t]) is expected_power_family_class(m, t), (m, t)

    def test_two_parameter_grid_corners(self):
        ps = sop(THREE_VARS, "y", "z")
        assert classify_point(ps, [1, 1]) is PointClass.FREE_CYCLIC
        assert classify_point(ps, [1, 3]) is PointClass.FREE_CYCLIC
        assert classify_point(ps, [3, 1]) is PointClass.FREE_CYCLIC
        assert classify_point(ps, [2, 2]) is PointClass.DECOMPOSABLE
        assert classify_point(ps, [3, 2]) is PointClass.DECOMPOSABLE

    def test_grid_matches_pointwise(self):
        ps = sop(THREE_VARS, "y", "z")
        grid = classify_grid(ps, 3)
        assert isinstance(grid, GridClassification)
        assert len(grid.classes) == 9
        for t, got in grid.classes.items():
            cls = classify_point(ps, t)
            assert got is grid.classes[t] is cls
            assert (got is PointClass.FREE_CYCLIC) is (1 in t)
            assert (cls is PointClass.FREE_CYCLIC) is (1 in t)

    def test_grid_rejects_empty_box(self):
        ps = sop(THREE_VARS, "y", "z")
        with pytest.raises(ValueError, match="^tmax must be at least 1$"):
            classify_grid(ps, 0)

    @pytest.mark.parametrize("tmax", [True, False, 2.0, "3"])
    def test_grid_rejects_a_box_size_that_is_no_integer(self, tmax):
        with pytest.raises(ValueError, match="^tmax must be an integer$"):
            classify_grid(sop(THREE_VARS, "y", "z"), tmax)


def two_hom_point(ps, t):
    """A point's class and freeness, each from its own fresh Hom."""
    Q = build_hom(ps, list(t))
    if Q.is_cyclic():
        cls = PointClass.FREE_CYCLIC if Q.is_free_over_base() else PointClass.CYCLIC_NONFREE
    elif decide(Q).decomposable:
        cls = PointClass.DECOMPOSABLE
    else:
        cls = PointClass.INDECOMPOSABLE_NONCYCLIC
    return cls, build_hom(ps, list(t)).is_free_over_base()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs())
def test_grid_matches_two_hom_points(spec):
    ps, _ = spec
    d = len(ps.params)
    grid = classify_grid(ps, 3)
    box = list(itertools.product(range(1, 4), repeat=d))
    assert len(grid.classes) == 3 ** d
    assert list(grid.classes) == [t for t, _ in grid.classes.items()] == sorted(box)
    for t in box:
        cls = grid.classes[t]
        # a grid point is free exactly when it is FREE_CYCLIC (classify_point's theorem)
        assert (cls, cls is PointClass.FREE_CYCLIC) == two_hom_point(ps, t), t
    for bad in [(0,) * d, (4,) * d, (1,) * (d + 1), (1,) * (d - 1), (1,) * (d - 1) + (0,)]:
        with pytest.raises(KeyError):
            grid.classes[bad]
        assert bad not in grid.classes


def grid_systems():
    """Accepted drawn_systems draws with a parameter, and power_specs systems.

    Both put a parameter's variable last (the top bound moves with t) or
    among the first variables (the box of rows moves with t).
    """
    drawn = drawn_systems().filter(lambda drawn: drawn[1] and accepted(drawn))
    return st.one_of(drawn.map(lambda drawn: validate_sop(*drawn)),
                     power_specs().map(lambda spec: spec[0]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_systems(), st.integers(1, 4))
def test_grid_codes_match_classify_point(ps, tmax):
    # the grid slices one far-corner table; classify_point builds each point's own
    grid = classify_grid(ps, tmax)
    points = itertools.product(range(1, tmax + 1), repeat=len(ps.params))
    assert grid.codes == bytes(theorems._CLASS_INDEX[classify_point(ps, list(t))] for t in points)


def monomial_hom_system(Q):
    """The parameter system of a monomial_homs draw: a's pure powers of y and z.

    Every relation of that ring involves x, and x has a pure power in it,
    so y (and z) are the free variables and a holds one pure power of each.
    """
    pure = [g for g in Q.a_ideal.gens if g[0] == 0 and sum(map(bool, g)) == 1]
    return validate_sop(Q.ring, sorted(pure, reverse=True))


def check_point_against_homs(ps, t):
    """classify_point against build_hom + decide, and its box basis against the colon route."""
    cls, free = two_hom_point(ps, t)
    assert classify_point(ps, t) is cls
    assert free is (cls is PointClass.FREE_CYCLIC)  # classify_point's theorem
    basis, generators = box_basis(row_intervals(
        row_thresholds(ps.ring.defining, parameter_box(ps, b_exponents(ps, t))), ps.params))
    b_gens = [mono_pow(a, k) for a, k in zip(ps.params, t)]
    B = ps.ring.defining + MonomialIdeal(ps.ring.ambient, b_gens)
    _, oracle_basis, count = colon_route(ps.a_ideal, B)
    assert sorted(basis, key=grlex_key) == oracle_basis
    assert len(generators) == count


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs(), st.data())
def test_point_matches_two_hom_points(spec, data):
    ps, _ = spec
    t = data.draw(st.lists(st.integers(1, 6), min_size=len(ps.params), max_size=len(ps.params)))
    check_point_against_homs(ps, t)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(monomial_homs(), st.data())
def test_point_matches_two_hom_points_on_monomial_homs(Q, data):
    ps = monomial_hom_system(Q)
    t = data.draw(st.lists(st.integers(1, 6), min_size=len(ps.params), max_size=len(ps.params)))
    check_point_against_homs(ps, t)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(drawn_systems(), power_specs().map(lambda spec: (spec[0].ring, spec[0].params))),
       st.data())
def test_validated_hom_is_free_exactly_when_cyclic(drawn, data):
    """classify_point's theorem on build_hom, for b = (x_{v_i}^{f_i}) with any f_i >= e_i."""
    if not drawn[1] or not accepted(drawn):
        return
    ps = validate_sop(*drawn)
    b = [tuple(e + data.draw(st.integers(0, 4)) if e else 0 for e in a) for a in ps.params]
    Q = build_hom(ps, b)
    assert Q.is_cyclic() == Q.is_free_over_base()
    assert Q.length() >= Q.base_length()


@settings(max_examples=300, deadline=None)
@given(drawn_systems())
def test_accepted_systems_are_pure_powers_of_free_variables(drawn):
    ring, params = drawn
    if not accepted(drawn):
        return
    ps = validate_sop(ring, params)
    supports = [[v for v, e in enumerate(a) if e] for a in ps.params]
    assert all(len(support) == 1 for support in supports)
    variables = [support[0] for support in supports]
    assert ps.variables == tuple(variables)
    assert len(set(variables)) == len(variables)
    for v in variables:
        assert not any(g[v] and sum(map(bool, g)) == 1 for g in ring.defining.gens)


def test_drawn_systems_reach_accepted_systems():
    ring, params = find(drawn_systems(),
                        lambda drawn: len(drawn[1]) >= 2 and accepted(drawn)
                        and not drawn[0].defining.is_zero())
    assert len(validate_sop(ring, params).params) >= 2


@pytest.mark.parametrize("variables, relations, params, named", [
    ("xy", "(x^2)", ["xy"], "xy"),           # not a pure power
    ("xyz", "(x^2, xyz)", ["y", "y^2"], "y^2"),  # a variable taken twice
    ("xyz", "(x^2, xyz)", ["x", "z"], "x"),    # x has a pure power in I
])
def test_point_refuses_parameters_off_the_box(variables, relations, params, named):
    ring = LocalRing.from_text(tuple(variables), relations)
    ps = ParameterSystem(ring, tuple(ring.parse_monomial(p) for p in params))
    with pytest.raises(ValueError, match=f"^parameter {re.escape(named)} is not a pure power"):
        classify_point(ps, [1] * len(params))


def test_point_errors_match_build_hom(monkeypatch):
    empty = validate_sop(ring2("(x^2, y^3)"), [])
    with pytest.raises(ValueError, match="^b must not be empty$"):
        classify_grid(empty, 2)
    ps = sop(THREE_VARS, "y", "z")
    cases = [(ps, [1]), (ps, [1, 2, 3]), (ps, [0, 1]),
             (ParameterSystem(THREE_VARS, ((0, 1, 0),)), [1])]  # z is left unbounded
    for system, t in cases:
        with pytest.raises(ValueError) as expected:
            build_hom(system, t)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            classify_point(system, t)
    # a bool is an int to isinstance, but no exponent
    for t in ([1.5, 1], [True, 1], [1, True], [False, 2]):
        with pytest.raises(ValueError, match="^a lattice point is a list of integer exponents$"):
            classify_point(ps, t)
        with pytest.raises(ValueError, match="^b must be all exponents or all monomials$"):
            build_hom(ps, t)
    for t in [(1000, 1000), [1000, 1000]]:
        with pytest.raises(CapExceeded, match="^box volume 2000000 exceeds cap 1000000$"):
            classify_point(ps, t)
    # the cap is read at call time, as build_hom reads it
    monkeypatch.setattr(monomials, "LENGTH_CAP", 31)
    for build in (classify_point, build_hom):
        with pytest.raises(CapExceeded, match="^box volume 32 exceeds cap 31$"):
            build(ps, [4, 4])
    assert classify_point(ps, [4, 3]) is PointClass.DECOMPOSABLE


def test_grid_over_the_cap_raises_the_far_corners_error(monkeypatch):
    # the boxes have volume 2·t1·t2; the far corner (4, 4), at 32, is checked
    # first, and no point is classified once it is over the cap
    scans = []

    def counting_intervals(*args):
        scans.append(args)
        return row_intervals(*args)

    monkeypatch.setattr(monomials, "LENGTH_CAP", 15)
    monkeypatch.setattr(theorems, "row_intervals", counting_intervals)
    with pytest.raises(CapExceeded, match="^box volume 32 exceeds cap 15$"):
        classify_grid(sop(THREE_VARS, "y", "z"), 4)
    assert scans == []


def test_grid_builds_no_hom(monkeypatch):
    # b read and one row table built once per grid, at the far corner, sliced per point
    homs, tables, points, specs = [], [], [], []
    original_init = HomSubquotient.__init__

    def counting_build(*args):
        homs.append(args[1])
        return build_hom(*args)

    def counting_init(self, *args):
        homs.append(self)
        original_init(self, *args)

    def counting_table(L, bounds):
        tables.append(list(bounds))
        return row_thresholds(L, bounds)

    def counting_point(*args):
        points.append(tuple(args[1]))
        return classify_point(*args)

    def counting_exponents(ps, b_spec):
        specs.append(list(b_spec))
        return b_exponents(ps, b_spec)

    monkeypatch.setattr(theorems, "build_hom", counting_build)
    monkeypatch.setattr(hom, "build_hom", counting_build)
    monkeypatch.setattr(HomSubquotient, "__init__", counting_init)
    monkeypatch.setattr(theorems, "row_thresholds", counting_table)
    monkeypatch.setattr(hom, "row_thresholds", counting_table)
    monkeypatch.setattr(theorems, "classify_point", counting_point)
    monkeypatch.setattr(theorems, "b_exponents", counting_exponents)
    for ring, texts, tmax in [(THREE_VARS, ("y", "z"), 4), (FOUR_VARS, ("y", "z", "w"), 3)]:
        ps = sop(ring, *texts)
        tables.clear()
        specs.clear()
        grid = classify_grid(ps, tmax)
        assert len(grid.classes) == tmax ** len(texts)
        assert specs == [[tmax] * len(texts)]
        assert tables == [parameter_box(ps, b_exponents(ps, [tmax] * len(texts)))]
    assert homs == []
    assert points == []


@pytest.mark.parametrize("ring, texts, tmax", [
    (THREE_VARS, ("y", "z"), 4),
    (FOUR_VARS, ("y", "z", "w"), 3),
])
def test_grid_builds_no_ideal_per_point(monkeypatch, ring, texts, tmax):
    ps = sop(ring, *texts)
    calls = []
    original = MonomialIdeal.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    def counting_between(*args):
        calls.append(args)
        return monomials_between(*args)

    monkeypatch.setattr(MonomialIdeal, "__init__", counting_init)
    monkeypatch.setattr(theorems, "monomials_between", counting_between)
    # hom builds every module off the box kernel and does not walk between ideals
    assert not hasattr(hom, "monomials_between")
    grid = classify_grid(ps, tmax)
    assert len(grid.classes) == tmax ** len(texts)
    assert calls == []


def test_grid_views_refuse_malformed_keys():
    view = classify_grid(sop(ring2("(x^2, xy^3)"), "y^2"), 3).classes
    for bad in [(1.5,), 5, ("a",), (True,)]:  # a bool is no exponent
        with pytest.raises(KeyError):
            view[bad]
        assert bad not in view
    assert (1,) in view and view.get((1.5,)) is None


def test_grid_result_is_dense():
    ps = sop(THREE_VARS, "y", "z")
    classify_grid(ps, 1)  # the system caches its parameter variables on first use
    gc.collect()
    tracemalloc.start()
    try:
        grid = classify_grid(ps, 12)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(grid.classes) == 144
    assert kept / 144 < 4


# every text random_depth_zero_ring can draw: 30 (x^e, x^f y^g) and 16 (x^e, x y^g z^h, y^k)
DRAW_SPACE = ([(("x", "y"), f"(x^{e}, x^{f}y^{g})")
               for e in range(2, 5) for f in range(1, e) for g in range(1, 6)]
              + [(("x", "y", "z"), f"(x^{e}, xy^{g}z^{h}, y^{k})")
                 for e in range(2, 4) for g in range(1, 3) for h in range(1, 3)
                 for k in range(2, 4)])


@settings(max_examples=150, deadline=None)
@given(local_rings())
def test_index_bound_is_a_degree_bound_on_the_torsion(R):
    # _accepted_ring's degree test on Γ outside I, against the index loop at every bound
    index = stabilization_index(R)
    torsion = monomials_between(gamma_m(R), R.defining)
    for n in range(9):
        assert (index <= n) == (not any(sum(u) >= n for u in torsion))


class TestCorpora:
    def test_dim1_corpus_shape(self):
        corpus = dim1_corpus()
        assert len(corpus) >= 20
        for ring in corpus:
            assert ring.dimension() == 1
            assert depth_is_zero(ring)

    def test_corpus_is_deterministic(self):
        a = [repr(r) for r in dim1_corpus()]
        b = [repr(r) for r in dim1_corpus()]
        assert a == b

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_memoized_draws_pass_the_acceptance_test_afresh(self, seed):
        # each ring rebuilt from its text and retested with no memo in between
        corpus = dim1_corpus(extra=240, seed=seed)
        for i, ring in enumerate(corpus):
            fresh = LocalRing.from_text(ring.variables, ring.fmt_ideal(ring.defining))
            assert fresh == ring
            assert fresh.dimension() == 1
            assert depth_is_zero(fresh)
            # the structured families are not drawn, and go deeper
            assert i < 10 or stabilization_index(fresh) <= 5

    def test_acceptance_matches_the_index_loop_on_the_whole_draw_space(self):
        assert len(set(DRAW_SPACE)) == 46
        kept = 0
        for variables, relations in DRAW_SPACE:
            ring = LocalRing.from_text(variables, relations)
            loop = (ring.dimension() == 1 and depth_is_zero(ring)
                    and stabilization_index(ring) <= 5)
            assert (theorems._accepted_ring(variables, relations) is not None) == loop, relations
            kept += loop
        assert (kept, len(DRAW_SPACE) - kept) == (26, 20)

    def test_corpus_reads_each_text_off_one_saturation(self, monkeypatch):
        saturation = MonomialIdeal.saturation
        calls = []

        def counted(self, J):
            calls.append(self)
            return saturation(self, J)

        def no_loop(ring):
            raise AssertionError("the acceptance test ran the index loop")

        monkeypatch.setattr(MonomialIdeal, "saturation", counted)
        monkeypatch.setattr(theorems, "stabilization_index", no_loop)
        theorems._accepted_ring.cache_clear()
        dim1_corpus(extra=240, seed=1)
        # seed 1 draws all 46 texts, and each is tested once
        assert len(calls) == theorems._accepted_ring.cache_info().misses == 46

    def test_acceptance_memo_holds_at_most_the_draw_space(self):
        for seed in range(50):
            dim1_corpus(extra=24, seed=seed)
        # 30 texts (x^e, x^f y^g) and 16 texts (x^e, x y^g z^h, y^k)
        assert theorems._accepted_ring.cache_info().currsize <= 46

    def test_first_parameter_of_families(self):
        assert power_family_ring(3).fmt(first_monomial_parameter(power_family_ring(3))) == "y"
        assert socle_family_ring(2).fmt(first_monomial_parameter(socle_family_ring(2))) == "z"

    def test_family_bounds(self):
        with pytest.raises(ValueError):
            power_family_ring(0)
        with pytest.raises(ValueError):
            socle_family_ring(1)

    def test_cm_corpus_members(self):
        names = [repr(ps.ring) for ps in cm_corpus()]
        assert names == ["k[x, y]/(0)", "k[x, y]/(x^2)", "k[x, y, z]/(x^3)"]


class TestReportSerialization:
    def test_reports_round_trip_through_json(self):
        R = ring2("(x^2, xy^3)")
        rep = verify_thm_nonfree(R)
        blob = json.dumps(rep.as_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["statement"] == "3.3"
        assert back["decomposition"]["verdict"] == "decomposable"
        assert back["decomposition"]["partition"]

    def test_report_without_decomposition(self):
        rep = verify_colon_identity(ring2("(x^2, xy^2)"), seed=0)
        assert "decomposition" not in rep.as_dict()


SPLIT = ("both summands are nonzero", "summand lengths add up")
ENGINE = "engine confirms a decomposition"
NONFREE = ("module is not free over the base", "annihilator witness found on the module")


class TestCheckNames:
    """The full checks tuples; bench/workloads.py matches these names, so they must not drift."""

    def test_dim_one_statements(self):
        R = ring2("(x^2, xy^3)")
        assert verify_thm_dim1(R, R.parse_monomial("y")).checks == (
            "colon identity: (B : a) = (c a^n) + (0 : a)",
            "intersection identity: B = ((c a^n) + I) cap ((0 : a) + B)",
            *SPLIT, ENGINE)
        assert verify_thm_nonfree(R).checks == (
            "colon identity: (B : a) = (c a) + Gamma",
            "intersection identity: B = ((c a) + I) cap (Gamma + B)",
            *SPLIT,
            "Gamma has a generator outside (a) + I",
            "witness kills the cyclic summand",
            *NONFREE, ENGINE)
        ps = sop(R, "y^2")
        assert search_decomposable_powers(ps).checks == (ENGINE,)
        assert search_nonfree_powers(ps).checks == (ENGINE, *NONFREE)

    def test_power_searches_in_dimension_two(self):
        ps = sop(THREE_VARS, "y", "z")
        assert search_decomposable_powers(ps).checks == (
            ENGINE,
            "transfer step: source Hom decomposable",
            "transfer step: enlarged ideal keeps the decomposition")
        assert search_nonfree_powers(ps).checks == (ENGINE, *NONFREE)


def shared_text_report(statement):
    """statement's report on inputs built afresh, so two calls run on equal, distinct rings.

    3.1 and 3.3 run on k[x,y]/(x^2, xy^3) with a = y and c = y, 2.7 and the
    power searches on k[x,y,z]/(x^2, xyz) with a = (y, z).
    """
    R, F = ring2("(x^2, xy^3)"), LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
    y = R.parse_monomial("y")
    return {
        "rees": lambda: verify_rees(sop(ring2("(x^2)"), "y"), [2]),
        "2.5": lambda: verify_colon_identity(ring2("(x^2, xy^2)"), seed=0),
        "2.6": lambda: check_radical_transfer(R, R.parse_ideal("(y^4)"), R.parse_ideal("(y^2)"),
                                              R.parse_ideal("(y^8)")),
        "2.7": lambda: verify_non_cm_power(sop(F, "y", "z")),
        "3.1": lambda: verify_thm_dim1(R, y, y),
        "3.3": lambda: verify_thm_nonfree(R, y),
        "4.1": lambda: search_decomposable_powers(sop(F, "y", "z")),
        "4.2": lambda: search_nonfree_powers(sop(F, "y", "z")),
    }[statement]()


# as_dict() of each statement's shared_text_report
SHARED_TEXT_REPORTS = {
    "rees": {
        "statement": "rees",
        "instance": "k[x, y]/(x^2), a = (y), b = (y^2)",
        "parameters": {"length": 2},
        "checks": ["cyclic: one minimal generator", "free of rank one over the base",
                   "length equals length of R/(a + I)"],
    },
    "2.5": {
        "statement": "2.5",
        "instance": "k[x, y]/(x^2, xy^2), 100 random instances, seed 0",
        "parameters": {"count": 100, "seed": 0},
        "checks": ["colon identity held on all 100 instances"],
    },
    "2.6": {
        "statement": "2.6",
        "instance": "k[x, y]/(x^2, xy^3), J = (y^4), I = (y^2), N = R/(y^8)",
        "parameters": {"vacuous": False},
        "checks": ["source Hom decomposable", "enlarged ideal keeps the decomposition"],
        "decomposition": {"verdict": "decomposable", "method": "components", "module_dim": 4,
                          "summand_count": 2, "partition": [[0, 1], [2, 3]]},
    },
    "2.7": {
        "statement": "2.7",
        "instance": "k[x, y, z]/(x^2, xyz), a = (y, z)",
        "parameters": {"index": 1, "power": 2, "parameter": "y"},
        "checks": ["quotient by the chosen power is not CM", "quotient dimension drops by one"],
    },
    "3.1": {
        "statement": "3.1",
        "instance": "k[x, y]/(x^2, xy^3), a = y, c = y",
        "parameters": {"n": 4, "a": "y", "c": "y", "b": "y^6", "hom_length": 2,
                       "summand_lengths": [1, 1]},
        "checks": ["colon identity: (B : a) = (c a^n) + (0 : a)",
                   "intersection identity: B = ((c a^n) + I) cap ((0 : a) + B)",
                   *SPLIT, ENGINE],
        "decomposition": {"verdict": "decomposable", "method": "components", "module_dim": 2,
                          "summand_count": 2, "partition": [[0], [1]]},
    },
    "3.3": {
        "statement": "3.3",
        "instance": "k[x, y]/(x^2, xy^3), a = y^4, c = y",
        "parameters": {"n": 4, "base": "y", "a": "y^4", "c": "y", "b": "y^9", "witness": "x",
                       "hom_length": 7, "summand_lengths": [4, 3]},
        "checks": ["colon identity: (B : a) = (c a) + Gamma",
                   "intersection identity: B = ((c a) + I) cap (Gamma + B)",
                   *SPLIT,
                   "Gamma has a generator outside (a) + I",
                   "witness kills the cyclic summand",
                   *NONFREE, ENGINE],
        "decomposition": {"verdict": "decomposable", "method": "components", "module_dim": 7,
                          "summand_count": 2, "partition": [[0, 1, 2], [3, 4, 5, 6]]},
    },
    "4.1": {
        "statement": "4.1",
        "instance": "k[x, y, z]/(x^2, xyz), a = (y, z)",
        "parameters": {"index": 1, "power": 2, "n": [2, 4]},
        "checks": [ENGINE, "transfer step: source Hom decomposable",
                   "transfer step: enlarged ideal keeps the decomposition"],
        "decomposition": {"verdict": "decomposable", "method": "components", "module_dim": 3,
                          "summand_count": 3, "partition": [[0], [1], [2]]},
    },
    "4.2": {
        "statement": "4.2",
        "instance": "k[x, y, z]/(x^2, xyz), a = (y^2, z^3)",
        "parameters": {"n": [2, 3], "N": [2, 6], "witness": "xy", "hom_length": 10},
        "checks": [ENGINE, *NONFREE],
        "decomposition": {"verdict": "decomposable", "method": "components", "module_dim": 10,
                          "summand_count": 2, "partition": [[0], [1, 2, 3, 4, 5, 6, 7, 8, 9]]},
    },
}


@pytest.mark.parametrize("statement", SHARED_TEXT_REPORTS)
def test_reports_on_equal_inputs_share_their_texts(statement):
    # two equal rings, not one object: a caller that keeps many reports
    # stores each check list and each instance text once
    first, second = shared_text_report(statement), shared_text_report(statement)
    assert first.checks is second.checks
    assert first.instance is second.instance
    assert first.as_dict() == second.as_dict() == SHARED_TEXT_REPORTS[statement]


def indecomposable(Q):
    return DecompositionReport("indecomposable", "components", Q.length(), 1)


# each failing check raises with its own name and the report's instance text
@pytest.mark.parametrize("statement, name", [
    ("3.1", ENGINE), ("3.3", ENGINE), ("4.1", ENGINE), ("4.2", ENGINE),
    ("3.3", NONFREE[0]), ("4.2", NONFREE[0]),
])
def test_a_failing_check_names_itself_and_the_instance(monkeypatch, statement, name):
    if name == ENGINE:
        monkeypatch.setattr(theorems, "decide", indecomposable)
    else:
        monkeypatch.setattr(HomSubquotient, "is_free_over_base", lambda self: True)
    instance = SHARED_TEXT_REPORTS[statement]["instance"]
    with pytest.raises(VerificationError,
                       match=f"^{re.escape(name)}: failed for {re.escape(instance)}$"):
        shared_text_report(statement)


@settings(max_examples=100, deadline=None)
@given(one_dimensional_rings())
def test_first_parameter_matches_search(ring):
    expected = oracle_first_monomial_parameter(ring)
    if expected is None:
        with pytest.raises(ValueError, match="no monomial parameter"):
            first_monomial_parameter(ring)
    else:
        assert first_monomial_parameter(ring) == expected
