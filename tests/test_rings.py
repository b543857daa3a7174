import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    accepted,
    drawn_systems,
    enumerate_monomials,
    fresh_corpus_ring,
    gamma_monomial_basis,
    ideal_power,
    is_regular_element,
    is_regular_sequence,
    local_rings,
    monomial_ideals,
    oracle_depth_is_zero,
    oracle_non_cm_power,
    oracle_saturation_member,
    oracle_stabilization_index,
    power_specs,
    random_proper_ideal,
    torsion_ideals,
    verify_deck_statements,
)
from homdecomp import monomials, rings, theorems
from homdecomp.hom import HomSubquotient, build_hom, hom_from_ideals
from homdecomp.monomials import CapExceeded, MonomialIdeal, grlex_key, parse_ideal
from homdecomp.rings import (
    LocalRing,
    ParameterSystem,
    colon_identity_check,
    depth_is_zero,
    find_non_cm_power,
    gamma_m,
    gamma_module_generators,
    is_cohen_macaulay,
    stabilization_index,
    validate_sop,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def ring(relations, names=XY):
    return LocalRing.from_text(names, relations)


# ---------------------------------------------------------------------------
# ring construction and parameter systems
# ---------------------------------------------------------------------------

def test_ring_construction():
    R = ring("(x^2, xy^2)")
    assert R.dimension() == 1
    assert R.maximal_ideal == parse_ideal("(x, y)", XY)
    assert R.maximal_ideal is R.maximal_ideal  # built once per ring
    assert gamma_m(R) is gamma_m(R)  # saturated once per ring
    with pytest.raises(ValueError):
        ring("(1)")
    with pytest.raises(ValueError):
        LocalRing(("x", "x"), MonomialIdeal(2, [(2, 0)]))


def count_containment_tests(monkeypatch) -> list:
    """The receiver of every MonomialIdeal.contains_ideal call from now on.

    The index search makes one such call per n it tries; nothing else in
    stabilization_index, 3.1 or 3.3 calls contains_ideal.
    """
    contains_ideal = MonomialIdeal.contains_ideal
    calls = []

    def counted(self, J):
        calls.append(self)
        return contains_ideal(self, J)

    monkeypatch.setattr(MonomialIdeal, "contains_ideal", counted)
    return calls


def test_stabilization_index_is_searched_once_per_ring(monkeypatch):
    calls = count_containment_tests(monkeypatch)
    R = ring("(x^2, xy^3)")
    assert stabilization_index(R) == stabilization_index(R) == 4
    assert calls == [R.defining] * 5  # n = 0, ..., 4 in one search
    # the six 3.1 and two 3.3 statements the verify benchmark runs per ring
    calls.clear()
    S = fresh_corpus_ring()
    n = oracle_stabilization_index(S)
    assert [rep.parameters["n"] for rep in verify_deck_statements(S)] == [n] * 8
    assert calls == [S.defining] * (n + 1)


def test_dimension_and_text_are_kept_on_the_ring(monkeypatch):
    S, fresh = fresh_corpus_ring(), fresh_corpus_ring()
    scans, texts = [], []
    dimension, format_ideal = MonomialIdeal.dimension, rings.format_ideal

    def counted_dimension(self):
        scans.append(self)
        return dimension(self)

    def counted_format(I, names):
        texts.append(I)
        return format_ideal(I, names)

    monkeypatch.setattr(MonomialIdeal, "dimension", counted_dimension)
    monkeypatch.setattr(rings, "format_ideal", counted_format)
    # the six 3.1 and two 3.3 statements the verify benchmark runs per ring
    verify_deck_statements(S)
    assert scans == [S.defining]
    assert texts == [S.defining]
    assert vars(S)["_dimension"] == 1 and "_repr" in vars(S) and "_repr" not in vars(fresh)
    assert S == fresh and hash(S) == hash(fresh) and repr(S) == repr(fresh)


def test_stabilization_cap_exit_is_not_kept(monkeypatch):
    calls = count_containment_tests(monkeypatch)
    R = ring("(x^2, xy^64)")
    for reads in (1, 2):
        with pytest.raises(CapExceeded, match="stabilization index exceeded the cap 64"):
            stabilization_index(R)
        assert "_index" not in vars(R)
        assert len(calls) == 65 * reads  # n = 0, ..., 64 on every read


def test_a_ring_that_kept_its_index_is_the_same_value():
    R = x2_xy3()
    assert stabilization_index(R) == 4
    fresh = x2_xy3()
    assert vars(R)["_index"] == 4 and "_index" not in vars(fresh)
    assert R == fresh and hash(R) == hash(fresh) and repr(R) == repr(fresh)


def test_validate_sop():
    R = ring("(x^2, xy^2)")
    ps = validate_sop(R, [R.parse_monomial("y")])
    assert ps.ideal == parse_ideal("(x^2, y)", XY)
    assert ps.a_ideal == parse_ideal("(y)", XY)
    assert ps.base.defining == ps.ideal
    assert ps.base.length() == 2
    with pytest.raises(ValueError):
        validate_sop(R, [])
    with pytest.raises(ValueError):
        validate_sop(R, [R.parse_monomial("x")])  # (x^2, xy^2, x) misses y
    S = ring("(x^2, xyz)", XYZ)
    assert validate_sop(S, [S.parse_monomial("y"), S.parse_monomial("z")]).params == (
        (0, 1, 0),
        (0, 0, 1),
    )


def x2_xy3():
    return ring("(x^2, xy^3)")


def y2_system():
    R = x2_xy3()
    return validate_sop(R, [R.parse_monomial("y^2")])


# per class: a builder of equal objects, a builder of an unequal one, the
# attributes == and hash must not read, and the repr text, which reaches
# benchmark labels and error messages
VALUE_CLASSES = {
    LocalRing: (x2_xy3, lambda: ring("(x^2, xy^4)"),
                ("maximal_ideal", "_dimension", "_repr", "_length", "_gamma", "_index"),
                "k[x, y]/(x^2, xy^3)"),
    ParameterSystem: (y2_system, lambda: validate_sop(x2_xy3(), [(0, 3)]),
                      ("a_ideal", "base", "variables"),
                      "ParameterSystem(ring=k[x, y]/(x^2, xy^3), params=((0, 2),), "
                      "ideal=MonomialIdeal(2, [(2, 0), (0, 2)]))"),
    HomSubquotient: (lambda: build_hom(y2_system(), [3]), lambda: build_hom(y2_system(), [2]),
                     ("rows", "_generators", "_length", "numerator", "_basis"),
                     "HomSubquotient(ring=k[x, y]/(x^2, xy^3), a_ideal=MonomialIdeal(2, [(0, 2)]), "
                     "b_ideal=MonomialIdeal(2, [(0, 6)]), "
                     "denominator=MonomialIdeal(2, [(2, 0), (1, 3), (0, 6)]), "
                     "base=k[x, y]/(x^2, y^2))"),
}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_rings_systems_and_modules_are_values(cls):
    build, build_other, unread, text = VALUE_CLASSES[cls]
    x, y = build(), build()
    assert type(x) is cls and x is not y
    assert x == y and hash(x) == hash(y)
    assert x != build_other()
    for name in ("ring", "variables", "params", "ideal", "rows", "maximal_ideal", "anything"):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(x, name)
    for name in unread:
        vars(y)[name] = None
    assert x == y and hash(x) == hash(y)
    assert repr(x) == text


def test_values_given_as_lists_are_stored_as_int_tuples():
    R = x2_xy3()
    ps = validate_sop(R, [[0, 2]])
    assert ps.params == ((0, 2),) and type(ps.params[0]) is tuple
    assert hash(ps) == hash(y2_system())
    L = LocalRing(["x", "y"], R.defining)
    assert L.variables == XY and type(L.variables) is tuple
    assert L == R and hash(L) == hash(R)
    assert hash(ParameterSystem(L, [[0, 2]])) == hash(ps)


@pytest.mark.parametrize("call", [
    lambda R: validate_sop(R, [(0, True)]),
    lambda R: ParameterSystem(R, [(0, True)]),
    lambda R: build_hom(validate_sop(R, [(0, 1)]), [(0, True)]),
], ids=["validate_sop", "ParameterSystem", "build_hom"])
def test_bool_exponents_are_refused(call):
    with pytest.raises(ValueError, match="non-negative integers"):
        call(ring("(x^2, xy^2)"))


def test_length_is_counted_once_and_keeps_its_cap(monkeypatch):
    R = ring("(x^3, y^4)")
    reads = []
    original_length = MonomialIdeal.length

    def counting_length(self, *args, **kwargs):
        reads.append(self)
        return original_length(self, *args, **kwargs)

    monkeypatch.setattr(MonomialIdeal, "length", counting_length)
    assert R.length() == 12
    assert R.length() == 12
    assert reads == [R.defining]
    assert R == ring("(x^3, y^4)")
    monkeypatch.setattr(monomials, "LENGTH_CAP", 11)
    with pytest.raises(CapExceeded):
        ring("(x^3, y^4)").length()


def test_validate_sop_rejects_unit_parameter():
    R = ring("(x^2, xy^2)")
    with pytest.raises(ValueError, match="parameter 1 is the unit 1"):
        validate_sop(R, [R.parse_monomial("1")])
    F = ring("(x^2, xyz)", XYZ)
    with pytest.raises(ValueError, match="parameter 2 is the unit 1"):
        validate_sop(F, [F.parse_monomial("y"), F.parse_monomial("1")])


def test_unvalidated_unit_parameter_blames_the_base_ring():
    # k[x,y]/(x^2) is no zero ring; the unit parameter makes the base
    # S = R/(I + a) zero, in the text hom_from_ideals gives for a unit a
    R = ring("(x^2)")
    with pytest.raises(ValueError) as system:
        ParameterSystem(R, [(0, 0)])
    with pytest.raises(ValueError) as hom:
        hom_from_ideals(R, MonomialIdeal.unit(2), parse_ideal("(y^2)", XY))
    assert str(system.value) == str(hom.value) == (
        "a is the unit ideal; the base ring R/(I + a) is zero")


def test_regular_element():
    S = ring("(x^2, xyz)", XYZ)
    assert not is_regular_element(S, S.parse_monomial("y"))
    R = ring("(x^2)")
    assert is_regular_element(R, R.parse_monomial("y"))
    assert not is_regular_element(R, R.parse_monomial("x"))
    with pytest.raises(ValueError):
        is_regular_element(R, R.parse_monomial("x^2"))


def test_regular_sequence():
    S = ring("(x^2)", XYZ)
    assert is_regular_sequence(S, [S.parse_monomial("y"), S.parse_monomial("z")])
    T = ring("(x^2, xyz)", XYZ)
    assert not is_regular_sequence(T, [T.parse_monomial("y"), T.parse_monomial("z")])
    assert is_regular_sequence(T, [])
    R = ring("(x^2)")
    with pytest.raises(ValueError):
        is_regular_sequence(R, [R.parse_monomial("y"), R.parse_monomial("y")])


def test_cohen_macaulay():
    R = ring("(x^2)")
    assert is_cohen_macaulay(validate_sop(R, [R.parse_monomial("y")]))
    E = ring("(x^2, xy^3)")
    assert not is_cohen_macaulay(validate_sop(E, [E.parse_monomial("y")]))
    F = ring("(x^2, xyz)", XYZ)
    ps = validate_sop(F, [F.parse_monomial("y"), F.parse_monomial("z")])
    assert not is_cohen_macaulay(ps)
    # y is regular, z is not regular modulo y
    G = ring("(x^2, xz^2)", XYZ)
    assert not is_cohen_macaulay(validate_sop(G, [G.parse_monomial("y"), G.parse_monomial("z")]))


# drawn_systems rarely yields a non-CM system with two parameters, power_specs often does
@settings(max_examples=500, deadline=None)
@given(st.one_of(drawn_systems(), power_specs().map(lambda spec: (spec[0].ring, spec[0].params))))
def test_cm_and_non_cm_power_match_the_walk_oracles(drawn):
    if not accepted(drawn):
        return
    ps = validate_sop(*drawn)
    cm = is_cohen_macaulay(ps)
    assert cm == is_regular_sequence(ps.ring, list(ps.params))
    assert theorems._non_regular_witness_holds(ps) is not cm
    if not cm and len(ps.params) >= 2:
        assert find_non_cm_power(ps) == oracle_non_cm_power(ps)


def test_cm_and_non_cm_power_build_no_quotient_and_take_no_colon(monkeypatch):
    F = ring("(x^2, xyz)", XYZ)
    ps = validate_sop(F, [F.parse_monomial("y"), F.parse_monomial("z")])
    C = ring("(x^3)", XYZ)
    cm = validate_sop(C, [C.parse_monomial("y"), C.parse_monomial("z^2")])

    def refuse(*args):
        raise AssertionError("the CM test built a quotient, counted a dimension or took a colon")

    monkeypatch.setattr(LocalRing, "quotient", refuse)
    monkeypatch.setattr(LocalRing, "dimension", refuse)
    monkeypatch.setattr(MonomialIdeal, "colon_monomial", refuse)
    assert not is_cohen_macaulay(ps)
    assert find_non_cm_power(ps) == (1, 2)
    assert is_cohen_macaulay(cm)
    with pytest.raises(ValueError, match="^the ring is CM; no non-CM parameter power exists$"):
        find_non_cm_power(cm)


def test_cm_is_sop_independent():
    # several parameter systems per ring must agree
    cases = [
        (ring("(x^2)"), [["y"], ["y^2"], ["y^3"]], True),
        (ring("(x^2, xy^3)"), [["y"], ["y^2"], ["y^4"]], False),
        (
            ring("(x^2, xyz)", XYZ),
            [["y", "z"], ["z", "y"], ["y^2", "z"], ["y", "z^3"], ["y^2", "z^2"]],
            False,
        ),
        (
            ring("(x^3)", XYZ),
            [["y", "z"], ["z", "y"], ["y^2", "z^2"]],
            True,
        ),
    ]
    for R, sops, expected in cases:
        for sop in sops:
            ps = validate_sop(R, [R.parse_monomial(t) for t in sop])
            assert is_cohen_macaulay(ps) == expected


# ---------------------------------------------------------------------------
# depth, torsion, stabilization
# ---------------------------------------------------------------------------

def test_depth_zero_and_socle():
    E = ring("(x^2, xy^3)")
    assert depth_is_zero(E)
    R = ring("(x^2)")
    assert not depth_is_zero(R)
    S2 = ring("(x^2, xyz, y^2)", XYZ)
    assert depth_is_zero(S2)


def test_gamma_examples():
    E = ring("(x^2, xy^2)")
    assert gamma_m(E) == parse_ideal("(x)", XY)
    assert gamma_module_generators(E) == [E.parse_monomial("x")]
    R = ring("(x^2)")
    assert gamma_m(R) == parse_ideal("(x^2)", XY)
    assert gamma_module_generators(R) == []
    Z = ring("(0)")
    assert gamma_m(Z).is_zero()


def test_gamma_basis():
    E = ring("(x^2, xy^3)")
    assert gamma_monomial_basis(E) == [
        E.parse_monomial("x"),
        E.parse_monomial("xy"),
        E.parse_monomial("xy^2"),
    ]
    assert gamma_monomial_basis(ring("(x^2)")) == []


def test_gamma_basis_cap_is_an_input_error(monkeypatch):
    R = ring("(x^2, xy^5)")  # torsion x, xy, ..., xy^4
    monkeypatch.setattr(monomials, "LENGTH_CAP", 5)
    assert len(gamma_monomial_basis(R)) == 5
    monkeypatch.setattr(monomials, "LENGTH_CAP", 3)
    with pytest.raises(CapExceeded, match="exceeds cap 3"):
        gamma_monomial_basis(R)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.one_of(monomial_ideals(n, min_gens=1), torsion_ideals(n))))
def test_gamma_basis_matches_saturation_oracle(I):
    if I.is_unit():
        return
    R = LocalRing(XYZ[: I.ambient], I)
    # the torsion lies in the box [0, M]^n for M the top exponent of I, so
    # its degrees stay at most n * M and m^(n M + 1) kills each element
    top = max(max(g) for g in I.gens)
    steps = I.ambient * top + 1
    expected = sorted(
        (u for u in enumerate_monomials(I.ambient, top)
         if not I.contains(u)
         and oracle_saturation_member(I, R.maximal_ideal, u, max_steps=steps)),
        key=grlex_key)
    assert gamma_monomial_basis(R) == expected


def test_depth_zero_iff_gamma_nonzero():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 3)
        I = random_proper_ideal(rng, n)
        if I.is_unit():
            continue
        R = LocalRing(XYZ[:n], I)
        assert oracle_depth_is_zero(R) == (len(gamma_module_generators(R)) > 0)


@settings(max_examples=150, deadline=None)
@given(local_rings(1, 4))
def test_depth_zero_iff_gamma_is_not_the_defining_ideal(R):
    # the socle route of the oracle against the Γ route depth_is_zero reads
    assert oracle_depth_is_zero(R) == depth_is_zero(R) == (gamma_m(R) != R.defining)


@settings(max_examples=150, deadline=None)
@given(local_rings())
def test_stabilization_index_matches_closed_form(R):
    assert stabilization_index(R) == oracle_stabilization_index(R)


# m = 63 has index 64, the largest the stabilization cap allows
@pytest.mark.parametrize("m", [*range(2, 17), 33, 48, 63])
def test_stabilization_power_chain_family(m):
    R = ring(f"(x^2, xy^{m})")
    assert stabilization_index(R) == m + 1
    assert oracle_stabilization_index(R) == m + 1


def test_saturation_takes_no_colon_step(monkeypatch):
    def no_colon(self, J):
        raise AssertionError("saturation took a colon step")

    monkeypatch.setattr(MonomialIdeal, "colon", no_colon)
    R = ring("(x^2, xy^63)")
    assert R.fmt_ideal(gamma_m(R)) == "(x)"
    assert stabilization_index(R) == 64


def test_stabilization_cm_is_zero():
    assert stabilization_index(ring("(x^2)")) == 0
    assert stabilization_index(ring("(0)")) == 0


@pytest.mark.parametrize("n1", [2, 3, 4, 5, 6])
def test_stabilization_three_variable_family(n1):
    # torsion is spanned by xy, ..., xy^(n1-1): top degree n1, so the index
    # is n1 + 1
    R = ring(f"(x^2, xyz, y^{n1})", XYZ)
    basis = gamma_monomial_basis(R)
    assert basis == [R.parse_monomial(f"xy^{b}" if b > 1 else "xy") for b in range(1, n1)]
    assert stabilization_index(R) == n1 + 1
    assert oracle_stabilization_index(R) == n1 + 1


def test_stabilization_definition_is_sharp():
    rng = random.Random(53)
    checked = 0
    while checked < 25:
        I = random_proper_ideal(rng, rng.randint(2, 3), max_exp=3)
        if I.is_unit():
            continue
        R = LocalRing(XYZ[: I.ambient], I)
        n = stabilization_index(R)
        assert n == oracle_stabilization_index(R)
        sat = gamma_m(R)
        m = R.maximal_ideal
        assert R.defining.contains_ideal(ideal_power(m, n).intersect(sat))
        if n > 0:
            assert not R.defining.contains_ideal(ideal_power(m, n - 1).intersect(sat))
        checked += 1


def test_torsion_vanishing_for_any_finite_length_submodule():
    # any ideal K between I and the saturation has (m^n + I) ∩ K inside I
    # once n is past the stabilization index
    rng = random.Random(59)
    checked = 0
    while checked < 20:
        I = random_proper_ideal(rng, 2, max_exp=3)
        if I.is_unit():
            continue
        R = LocalRing(XY, I)
        basis = gamma_monomial_basis(R)
        if not basis:
            continue
        extra = rng.sample(basis, rng.randint(1, len(basis)))
        K = I + MonomialIdeal(2, extra)
        n = stabilization_index(R)
        assert I.contains_ideal(ideal_power(R.maximal_ideal, n).intersect(K))
        checked += 1


# ---------------------------------------------------------------------------
# the colon identity
# ---------------------------------------------------------------------------

def test_colon_identity_example():
    E = ring("(x^2, xy^3)")
    L = MonomialIdeal.unit(2)
    a = E.parse_monomial("y")
    b = E.parse_monomial("1")
    assert colon_identity_check(E, L, a, b, 1, 2, 3)
    with pytest.raises(ValueError):
        colon_identity_check(E, L, a, b, 2, 1, 3)


def test_colon_identity_randomized():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(1, 3)
        I = random_proper_ideal(rng, n, max_exp=3)
        if I.is_unit():
            continue
        R = LocalRing(XYZ[:n], I)
        L = random_proper_ideal(rng, n, max_exp=3) if rng.random() < 0.7 else MonomialIdeal.unit(n)
        a = tuple(rng.randint(0, 2) for _ in range(n))
        b = tuple(rng.randint(0, 2) for _ in range(n))
        p = rng.randint(1, 3)
        q = rng.randint(p, 4)
        r = rng.randint(q, 5)
        assert colon_identity_check(R, L, a, b, p, q, r)


# ---------------------------------------------------------------------------
# non-CM parameter powers
# ---------------------------------------------------------------------------

def test_find_non_cm_power_fig1_ring():
    F = ring("(x^2, xyz)", XYZ)
    ps = validate_sop(F, [F.parse_monomial("y"), F.parse_monomial("z")])
    assert find_non_cm_power(ps) == (1, 2)
    ps2 = validate_sop(F, [F.parse_monomial("z"), F.parse_monomial("y")])
    assert find_non_cm_power(ps2) == (1, 2)


def test_find_non_cm_power_regular_parameter():
    # z is regular on k[x,y,z]/(x^2, xy), so (1, 1) works with sop (z, y)
    R = ring("(x^2, xy)", XYZ)
    ps = validate_sop(R, [R.parse_monomial("z"), R.parse_monomial("y")])
    assert is_regular_element(R, R.parse_monomial("z"))
    assert find_non_cm_power(ps) == (1, 1)


@pytest.mark.parametrize("m", [1, 9, 10, 20])
def test_find_non_cm_power_has_no_cap(m):
    # the first non-CM power of y on (x^2, xy^m z^m) is y^(m+1)
    R = ring(f"(x^2, xy^{m}z^{m})", XYZ)
    ps = validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")])
    assert find_non_cm_power(ps) == oracle_non_cm_power(ps) == (1, m + 1)


def test_find_non_cm_power_rejects_cm_and_low_dim():
    R = ring("(x^3)", XYZ)
    ps = validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")])
    with pytest.raises(ValueError, match="^the ring is CM; no non-CM parameter power exists$"):
        find_non_cm_power(ps)
    E = ring("(x^2, xy^3)")
    with pytest.raises(ValueError, match="^needs a ring of dimension at least 2$"):
        find_non_cm_power(validate_sop(E, [E.parse_monomial("y")]))


def test_find_non_cm_power_verdict_is_checkable():
    F = ring("(x^2, xyz)", XYZ)
    ps = validate_sop(F, [F.parse_monomial("y"), F.parse_monomial("z")])
    i, s = find_non_cm_power(ps)
    a = ps.params[i - 1]
    power = tuple(e * s for e in a)
    quo = F.quotient(MonomialIdeal(3, [power]))
    rest = [p for j, p in enumerate(ps.params) if j != i - 1]
    validate_sop(quo, rest)
    assert not is_regular_sequence(quo, rest)
