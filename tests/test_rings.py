import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    enumerate_monomials,
    monomial_ideals,
    oracle_saturation_member,
    random_proper_ideal,
    torsion_ideals,
)
from homdecomp.monomials import LengthCapExceeded, MonomialIdeal, degree, grlex_key, parse_ideal
from homdecomp.rings import (
    LocalRing,
    SearchCapExceeded,
    colon_identity_check,
    depth_is_zero,
    find_non_cm_power,
    gamma_m,
    gamma_module_generators,
    gamma_monomial_basis,
    is_cohen_macaulay,
    is_regular_element,
    is_regular_sequence,
    socle_generators,
    stabilization_index,
    validate_sop,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def ring(relations, names=XY):
    return LocalRing.from_text(names, relations)


def stabilization_oracle(R):
    """Independent route: one past the top degree of the torsion module."""
    basis = gamma_monomial_basis(R)
    return 0 if not basis else 1 + max(degree(u) for u in basis)


# ---------------------------------------------------------------------------
# ring construction and parameter systems
# ---------------------------------------------------------------------------

def test_ring_construction():
    R = ring("(x^2, xy^2)")
    assert R.dimension() == 1
    assert R.maximal_ideal == parse_ideal("(x, y)", XY)
    with pytest.raises(ValueError):
        ring("(1)")
    with pytest.raises(ValueError):
        LocalRing(("x", "x"), MonomialIdeal(2, [(2, 0)]))


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


def test_length_is_counted_once_and_keeps_its_cap(monkeypatch):
    R = ring("(x^3, y^4)")
    scans = []
    original_scan = MonomialIdeal.standard_monomials

    def counting_scan(self, *args, **kwargs):
        scans.append(self)
        return original_scan(self, *args, **kwargs)

    monkeypatch.setattr(MonomialIdeal, "standard_monomials", counting_scan)
    assert R.length() == 12
    assert R.length() == 12
    assert scans == [R.defining]
    with pytest.raises(LengthCapExceeded):
        R.length(cap=11)
    assert R.length(cap=12) == 12
    assert R.length() == 12
    assert R == ring("(x^3, y^4)")


def test_validate_sop_rejects_unit_parameter():
    R = ring("(x^2, xy^2)")
    with pytest.raises(ValueError, match="parameter 1 is the unit 1"):
        validate_sop(R, [R.parse_monomial("1")])
    F = ring("(x^2, xyz)", XYZ)
    with pytest.raises(ValueError, match="parameter 2 is the unit 1"):
        validate_sop(F, [F.parse_monomial("y"), F.parse_monomial("1")])


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
    assert socle_generators(E) == [E.parse_monomial("xy^2")]
    R = ring("(x^2)")
    assert not depth_is_zero(R)
    S2 = ring("(x^2, xyz, y^2)", XYZ)
    assert depth_is_zero(S2)
    assert socle_generators(S2) == [S2.parse_monomial("xy")]


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


def test_gamma_basis_cap_is_an_input_error():
    R = ring("(x^2, xy^5)")  # torsion x, xy, ..., xy^4
    assert len(gamma_monomial_basis(R, cap=5)) == 5
    with pytest.raises(LengthCapExceeded, match="exceeds cap 3"):
        gamma_monomial_basis(R, cap=3)


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
        assert depth_is_zero(R) == (len(gamma_module_generators(R)) > 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_stabilization_power_chain_family(m):
    R = ring(f"(x^2, xy^{m})")
    assert stabilization_index(R) == m + 1
    assert stabilization_oracle(R) == m + 1


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
    assert stabilization_oracle(R) == n1 + 1


def test_stabilization_definition_is_sharp():
    rng = random.Random(53)
    checked = 0
    while checked < 25:
        I = random_proper_ideal(rng, rng.randint(2, 3), max_exp=3)
        if I.is_unit():
            continue
        R = LocalRing(XYZ[: I.ambient], I)
        n = stabilization_index(R)
        assert n == stabilization_oracle(R)
        sat = gamma_m(R)
        m = R.maximal_ideal
        assert R.defining.contains_ideal(m.power(n).intersect(sat))
        if n > 0:
            assert not R.defining.contains_ideal(m.power(n - 1).intersect(sat))
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
        assert I.contains_ideal(R.maximal_ideal.power(n).intersect(K))
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


def test_find_non_cm_power_rejects_cm_and_low_dim():
    R = ring("(x^3)", XYZ)
    ps = validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")])
    with pytest.raises(ValueError):
        find_non_cm_power(ps)
    E = ring("(x^2, xy^3)")
    with pytest.raises(ValueError):
        find_non_cm_power(validate_sop(E, [E.parse_monomial("y")]))


def test_find_non_cm_power_verdict_is_checkable():
    F = ring("(x^2, xyz)", XYZ)
    ps = validate_sop(F, [F.parse_monomial("y"), F.parse_monomial("z")])
    i, s = find_non_cm_power(ps)
    a = ps.params[i - 1]
    power = tuple(e * s for e in a)
    quo = F.quotient(MonomialIdeal(3, [power]))
    rest = [p for j, p in enumerate(ps.params) if j != i - 1]
    assert not is_cohen_macaulay(validate_sop(quo, rest))
