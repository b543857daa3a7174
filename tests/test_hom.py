"""Hom subquotients against frozen examples and a linear-algebra oracle.

The oracle counts R-linear maps R/a -> R/B directly: a k-linear map is a
matrix T with T X_v(source) = X_v(target) T for every variable, so the
Hom dimension is the nullity of the stacked commutation constraints.
That route never touches ideal colons, making it independent of the
implementation under test.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    action_blocks,
    box_basis,
    colon_route,
    monomial_homs,
    monomial_ideals,
    nonfree_homs,
    oracle_annihilator_witness,
    oracle_box_basis,
    oracle_monomials_between,
    power_specs,
)
from homdecomp import hom, theorems
from homdecomp.gfp import PrimeFieldMatrix
from homdecomp.hom import HomSubquotient, RowScan, UnionFind, build_hom, hom_from_ideals
from homdecomp.monomials import MonomialIdeal, mono_mul, monomials_between, row_thresholds
from homdecomp.oracle import connected_components
from homdecomp.rings import LocalRing, validate_sop


def make_ring(variables, text):
    return LocalRing.from_text(tuple(variables), text)


def make_hom(ring, sop_text, b_spec):
    params = [ring.parse_monomial(s) for s in sop_text.split()]
    ps = validate_sop(ring, params)
    if isinstance(b_spec, str):
        b_spec = [ring.parse_monomial(s) for s in b_spec.split()]
    return build_hom(ps, b_spec)


def ideal_of(ring, text):
    return ring.parse_ideal(text)


def quotient_actions(ideal, p):
    """Variable action matrices on the standard monomials of an ideal."""
    basis = ideal.standard_monomials()
    index = {u: i for i, u in enumerate(basis)}
    mats = []
    for v in range(ideal.ambient):
        step = tuple(1 if k == v else 0 for k in range(ideal.ambient))
        rows = [[0] * len(basis) for _ in range(len(basis))]
        for j, u in enumerate(basis):
            i = index.get(mono_mul(u, step))
            if i is not None:
                rows[i][j] = 1
        mats.append(PrimeFieldMatrix(rows, p))
    return basis, mats


def hom_dim_oracle(Q, p):
    """Nullity of T X_v(S) - X_v(R/B) T = 0 over F_p."""
    _, source = quotient_actions(Q.base.defining, p)
    _, target = quotient_actions(Q.denominator, p)
    ls = source[0].ncols
    lt = target[0].ncols
    rows = []
    for Xs, Xt in zip(source, target):
        for r in range(lt):
            for c in range(ls):
                row = [0] * (lt * ls)
                for k in range(ls):
                    row[r * ls + k] = (row[r * ls + k] + Xs.rows[k][c]) % p
                for k in range(lt):
                    row[k * ls + c] = (row[k * ls + c] - Xt.rows[r][k]) % p
                rows.append(row)
    return len(PrimeFieldMatrix(rows, p).nullspace())


def mu_oracle(Q, p):
    """mu = dim Q/mQ, with mQ spanned by the action-matrix columns."""
    pres = Q.presentation(p)
    ell = pres.module_dim
    stacked = [[0] * 0 for _ in range(ell)]
    for X in pres.actions:
        for i in range(ell):
            stacked[i] = stacked[i] + list(X.rows[i])
    return ell - PrimeFieldMatrix(stacked, p).rank()


CORPUS = [
    ("e5.1", ("x", "y"), "(x^2, xy^2)", "y", [2]),
    ("e5.2 t=1", ("x", "y"), "(x^2, xy^3)", "y^2", [1]),
    ("e5.2 t=2", ("x", "y"), "(x^2, xy^3)", "y^2", [2]),
    ("e5.2 t=3", ("x", "y"), "(x^2, xy^3)", "y^2", [3]),
    ("e5.2 t=4", ("x", "y"), "(x^2, xy^3)", "y^2", [4]),
    ("power a=y^4", ("x", "y"), "(x^2, xy^3)", "y^4", [2]),
    ("grid 2,2", ("x", "y", "z"), "(x^2, xyz)", "y z", [2, 2]),
    ("grid 3,2", ("x", "y", "z"), "(x^2, xyz)", "y z", [3, 2]),
    ("grid 1,3", ("x", "y", "z"), "(x^2, xyz)", "y z", [1, 3]),
    ("regular 2,3", ("x", "y"), "(0)", "x y", [2, 3]),
    ("hypersurface", ("x", "y"), "(x^3)", "y", [2]),
]

CORPUS_IDS = [row[0] for row in CORPUS]


def corpus_homs():
    out = []
    for name, variables, relations, sop, powers in CORPUS:
        ring = make_ring(variables, relations)
        out.append((name, make_hom(ring, sop, powers)))
    return out


class TestFrozenExamples:
    def test_two_variable_free_case(self):
        # k[x,y]/(x^2, xy^2), a = (y), b = (y^2)
        R = make_ring(("x", "y"), "(x^2, xy^2)")
        Q = make_hom(R, "y", [2])
        assert Q.denominator == ideal_of(R, "(x^2, y^2)")
        assert Q.numerator == ideal_of(R, "(y, x^2)")
        assert Q.basis() == (R.parse_monomial("y"), R.parse_monomial("xy"))
        assert Q.length() == 2
        assert Q.minimal_generator_count() == 1
        assert Q.is_cyclic()
        assert Q.base_length() == 2
        assert Q.is_free_over_base()
        assert Q.non_free_annihilator_witness() is None

    def test_power_family_collapse_point(self):
        # t = 1 gives b = a, so Hom is all of R/(I + a), free of rank 1
        R = make_ring(("x", "y"), "(x^2, xy^3)")
        Q = make_hom(R, "y^2", [1])
        assert Q.denominator == ideal_of(R, "(x^2, y^2)")
        assert Q.numerator.is_unit()
        assert Q.length() == 4
        assert Q.is_cyclic()
        assert Q.is_free_over_base()
        assert Q.non_free_annihilator_witness() is None

    def test_power_family_boundary_point(self):
        R = make_ring(("x", "y"), "(x^2, xy^3)")
        Q = make_hom(R, "y^2", [2])
        assert Q.denominator == ideal_of(R, "(x^2, xy^3, y^4)")
        assert Q.numerator == ideal_of(R, "(x^2, xy, y^2)")
        expected = tuple(R.parse_monomial(s) for s in ("xy", "y^2", "xy^2", "y^3"))
        assert Q.basis() == expected
        assert Q.minimal_generator_count() == 2
        assert not Q.is_cyclic()
        assert not Q.is_free_over_base()

    def test_power_family_split_point(self):
        R = make_ring(("x", "y"), "(x^2, xy^3)")
        Q = make_hom(R, "y^2", [3])
        assert Q.denominator == ideal_of(R, "(x^2, xy^3, y^6)")
        assert Q.numerator == ideal_of(R, "(x^2, xy, y^4)")
        expected = tuple(R.parse_monomial(s) for s in ("xy", "xy^2", "y^4", "y^5"))
        assert Q.basis() == expected
        assert Q.length() == 4
        assert Q.minimal_generator_count() == 2
        assert not Q.is_free_over_base()
        assert Q.non_free_annihilator_witness() == R.parse_monomial("x")

    def test_high_power_parameter_instance(self):
        # a = y^4 lands in m^4; b = a^2 = y^8
        R = make_ring(("x", "y"), "(x^2, xy^3)")
        Q = make_hom(R, "y^4", "y^8")
        assert Q.denominator == ideal_of(R, "(x^2, xy^3, y^8)")
        assert Q.numerator == ideal_of(R, "(x, y^4)")
        assert Q.length() == 7
        assert Q.minimal_generator_count() == 2
        assert Q.base_length() == 7
        assert not Q.is_free_over_base()
        assert Q.non_free_annihilator_witness() == R.parse_monomial("x")

    def test_grid_interior_point(self):
        R = make_ring(("x", "y", "z"), "(x^2, xyz)")
        Q = make_hom(R, "y z", [2, 2])
        assert Q.denominator == ideal_of(R, "(x^2, xyz, y^2, z^2)")
        assert Q.numerator == ideal_of(R, "(x^2, xy, xz, y^2, yz, z^2)")
        expected = tuple(R.parse_monomial(s) for s in ("xy", "xz", "yz"))
        assert Q.basis() == expected
        assert Q.minimal_generator_count() == 3
        assert Q.base_length() == 2
        assert not Q.is_free_over_base()
        assert Q.non_free_annihilator_witness() == R.parse_monomial("x")

    def test_grid_interior_asymmetric_point(self):
        R = make_ring(("x", "y", "z"), "(x^2, xyz)")
        Q = make_hom(R, "y z", [3, 2])
        expected = tuple(R.parse_monomial(s) for s in ("xz", "xy^2", "y^2z"))
        assert Q.basis() == expected
        assert Q.minimal_generator_count() == 3

    def test_grid_border_point(self):
        # t1 = 1 collapses the y-direction; the result is free cyclic
        R = make_ring(("x", "y", "z"), "(x^2, xyz)")
        Q = make_hom(R, "y z", [1, 3])
        assert Q.denominator == ideal_of(R, "(x^2, y, z^3)")
        assert Q.numerator == ideal_of(R, "(x^2, y, z^2)")
        expected = tuple(R.parse_monomial(s) for s in ("z^2", "xz^2"))
        assert Q.basis() == expected
        assert Q.minimal_generator_count() == 1
        assert Q.is_free_over_base()
        assert Q.non_free_annihilator_witness() is None

    def test_regular_sequence_rank_one(self):
        # full Rees collapse over a regular pair: Hom is the residue field
        R = make_ring(("x", "y"), "(0)")
        Q = make_hom(R, "x y", [2, 3])
        assert Q.numerator == ideal_of(R, "(x^2, xy^2, y^3)")
        assert Q.basis() == (R.parse_monomial("xy^2"),)
        assert Q.length() == 1
        assert Q.is_cyclic()
        assert Q.base_length() == 1
        assert Q.is_free_over_base()


class TestPresentation:
    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    def test_matrices_commute_and_are_nilpotent(self, name, Q):
        pres = Q.presentation(5)
        ell = pres.module_dim
        assert ell == Q.length()
        for X in pres.actions:
            assert all(e in (0, 1) for row in X.rows for e in row)
            assert all(sum(col) <= 1 for col in zip(*X.rows))
            assert (X ** max(ell, 1)).is_zero()
        for i, X in enumerate(pres.actions):
            for Y in pres.actions[i + 1:]:
                assert X * Y == Y * X

    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    def test_entries_match_monomial_action(self, name, Q):
        pres = Q.presentation(3)
        index = {u: i for i, u in enumerate(pres.basis)}
        for v in range(Q.ring.ambient):
            step = tuple(1 if k == v else 0 for k in range(Q.ring.ambient))
            for j, u in enumerate(pres.basis):
                w = mono_mul(u, step)
                for i in range(pres.module_dim):
                    expected = 1 if index.get(w) == i else 0
                    assert pres.actions[v].rows[i][j] == expected

    def test_prime_must_be_prime(self):
        R = make_ring(("x", "y"), "(x^2, xy^2)")
        Q = make_hom(R, "y", [2])
        with pytest.raises(ValueError):
            Q.presentation(6)

    def test_cap_enforced(self, monkeypatch):
        R = make_ring(("x", "y"), "(x^2, xy^2)")
        Q = make_hom(R, "y", [2])
        monkeypatch.setattr(hom, "PRESENTATION_CAP", 1)
        with pytest.raises(ValueError, match="exceeds cap 1"):
            Q.presentation(5)


class TestComponents:
    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    def test_blocks_match_presentation_graph(self, name, Q):
        assert Q.components() == connected_components(Q.presentation(3))

    def test_basis_is_enumerated_once(self):
        R = make_ring(("x", "y"), "(x^2, xy^3)")
        Q = make_hom(R, "y^2", [3])
        assert Q.basis() is Q.basis()
        assert Q.presentation(5).basis is Q.basis()


class TestAgainstLinearOracle:
    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    @pytest.mark.parametrize("p", [2, 3])
    def test_length_is_hom_dimension(self, name, Q, p):
        assert Q.length() == hom_dim_oracle(Q, p)

    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    def test_generator_count_is_covering_rank(self, name, Q):
        assert Q.minimal_generator_count() == mu_oracle(Q, 2)
        assert Q.minimal_generator_count() == mu_oracle(Q, 3)

    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    def test_generator_count_matches_standard_monomial_form(self, name, Q):
        V = Q.ring.maximal_ideal * Q.numerator + Q.denominator
        alt = sum(1 for u in V.standard_monomials() if u in Q.numerator)
        assert Q.minimal_generator_count() == alt


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(monomial_homs())
def test_basis_and_generator_count_match_box_forms(Q):
    B, C = Q.denominator, Q.numerator
    assert Q.basis() == tuple(u for u in B.standard_monomials() if u in C)
    V = Q.ring.maximal_ideal * C + B
    assert Q.minimal_generator_count() == sum(1 for g in C.gens if not V.contains(g))


def test_hom_and_layer_length_scan_no_box(monkeypatch):
    calls = []
    original = MonomialIdeal.standard_monomials

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MonomialIdeal, "standard_monomials", counting)
    R = make_ring(("x", "y", "z"), "(x^2, xyz)")
    Q = make_hom(R, "y z", [3, 2])
    assert Q.length() == 3 and Q.minimal_generator_count() == 3
    assert len(monomials_between(Q.numerator, Q.denominator)) == Q.length()
    assert calls == []


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs())
def test_power_path_matches_validated_paths(case):
    ps, t = case
    ring = ps.ring
    b_gens = [tuple(e * k for e in a) for a, k in zip(ps.params, t)]
    # the theorem the power path relies on instead of validating b
    assert validate_sop(ring, b_gens).params == tuple(b_gens)
    fast = build_hom(ps, t)
    explicit = build_hom(ps, b_gens)
    direct = hom_from_ideals(ring, MonomialIdeal(ring.ambient, ps.params),
                             MonomialIdeal(ring.ambient, b_gens))
    for Q in (explicit, direct):
        assert Q.numerator == fast.numerator
        assert Q.denominator == fast.denominator
        assert Q.basis() == fast.basis()
        assert Q.base.defining == fast.base.defining
        assert Q.minimal_generator_count() == fast.minimal_generator_count()
        assert Q.base_length() == fast.base_length()
        assert Q.is_free_over_base() is fast.is_free_over_base()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs())
def test_generators_outside_b_give_count_and_basis(case):
    ps, t = case
    Q = build_hom(ps, t)
    B, C = Q.denominator, Q.numerator
    assert Q.minimal_generator_count() == sum(1 for g in C.gens if not B.contains(g))
    assert list(Q.basis()) == oracle_monomials_between(C, B)


def check_against_colon_route(Q):
    """Q's basis, generator count, numerator and witness against the colon route."""
    C, basis, count = colon_route(Q.a_ideal, Q.denominator)
    assert Q.basis() == tuple(basis)
    assert Q.minimal_generator_count() == count
    assert Q.numerator == C
    assert Q.non_free_annihilator_witness() == oracle_annihilator_witness(Q, C)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(monomial_homs())
def test_kernel_matches_colon_route_on_monomial_homs(Q):
    check_against_colon_route(Q)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs(), st.data())
def test_kernel_matches_colon_route_on_powers(case, data):
    ps, _ = case
    d = len(ps.params)
    t = data.draw(st.lists(st.integers(1, 6), min_size=d, max_size=d))
    check_against_colon_route(build_hom(ps, t))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs(), st.data())
def test_kernel_matches_colon_route_on_explicit_b(case, data):
    ps, _ = case
    b_gens = []
    for a in ps.params:
        v = next(v for v, e in enumerate(a) if e)
        f = data.draw(st.integers(a[v], 6 * a[v]))
        b_gens.append(tuple(f if k == v else 0 for k in range(len(a))))
    check_against_colon_route(build_hom(ps, data.draw(st.permutations(b_gens))))


@st.composite
def box_kernel_inputs(draw):
    """L on 1-4 variables, finite box bounds and 1-3 generators of a.

    Each generator of a is a pure power of a random variable or a random
    monomial, which mostly mixes variables: only hom_from_ideals passes
    the kernel such generators.
    """
    n = draw(st.integers(1, 4))
    L = draw(monomial_ideals(n, min_gens=1))
    bounds = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    pure = st.builds(lambda v, e: tuple(e if k == v else 0 for k in range(n)),
                     st.integers(0, n - 1), st.integers(1, 3))
    mixed = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    a_gens = draw(st.lists(st.one_of(pure, mixed), min_size=1, max_size=3))
    return L, bounds, a_gens


@settings(max_examples=300, deadline=None)
@given(box_kernel_inputs())
def test_row_scan_matches_per_cell_scan(inputs):
    L, bounds, a_gens = inputs
    rows = hom.row_intervals(row_thresholds(L, bounds), a_gens)
    cells, generators = oracle_box_basis(L.contains, bounds, a_gens)
    assert box_basis(rows) == (cells, generators)
    assert (len(rows.heads), rows.count) == (len(generators), len(action_blocks(cells)))


def test_row_scan_lists_cells_and_blocks_of_a_small_box():
    # (x^2, xy^2) in the box [0, 2) x [0, 4), a = (y^2): rows x^0 and x^1 do not overlap
    rows = hom.row_intervals(row_thresholds(MonomialIdeal(2, [(2, 0), (1, 2)]), [2, 4]), [(0, 2)])
    assert box_basis(rows) == ([(0, 2), (0, 3), (1, 0), (1, 1)], ((0, 2), (1, 0)))
    assert rows.count == 2
    assert action_blocks([(0, 1), (1, 0), (1, 1), (0, 3)]) == ((0, 1, 2), (3,))


def check_blocks_against_cells(Q):
    """Q's blocks, read off its rows, against the per-cell search on its grlex basis."""
    assert Q.components() == action_blocks(Q.basis())
    assert len(Q.components()) == Q.rows.count


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(monomial_homs())
def test_row_blocks_match_cell_blocks_on_monomial_homs(Q):
    check_blocks_against_cells(Q)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs())
def test_row_blocks_match_cell_blocks_on_powers(case):
    check_blocks_against_cells(build_hom(*case))


class TestInvariants:
    """HomSubquotient derives its basis and C from a row scan, and checks C·a ⊆ B."""

    def parts(self):
        Q = make_hom(make_ring(("x", "y", "z"), "(x^2, xyz)"), "y z", [2, 2])
        return Q.ring, Q.a_ideal, Q.b_ideal, Q.denominator, Q.base, Q.rows

    def test_valid_parts_construct(self):
        ring, a, b, B, base, rows = self.parts()
        Q = HomSubquotient(ring, a, b, B, base, rows)
        assert Q.length() == 3
        assert Q.numerator == B.colon(a)
        assert Q.components() == action_blocks(Q.basis())

    def test_unit_numerator_is_refused(self):
        ring, a, b, B, base, _ = self.parts()
        # one row, (0, 0), whose interval starts at the unit cell and which holds a generator
        unit = RowScan({(0, 0): (0, 1, 0)}, [(0, 0)], UnionFind(1), 1)
        with pytest.raises(AssertionError, match="times a"):
            HomSubquotient(ring, a, b, B, base, unit)


def test_grid_reads_no_length_and_never_revalidates(monkeypatch):
    # classify_point's theorem: a point is free exactly when it is cyclic, so S is not counted
    R = make_ring(("x", "y", "z"), "(x^2, xyz)")
    ps = validate_sop(R, [R.parse_monomial("y"), R.parse_monomial("z")])
    reads = []
    validations = []
    original_length = MonomialIdeal.length

    def counting_length(self, *args, **kwargs):
        reads.append(self)
        return original_length(self, *args, **kwargs)

    def counting_validate(*args, **kwargs):
        validations.append(args)
        return validate_sop(*args, **kwargs)

    monkeypatch.setattr(MonomialIdeal, "length", counting_length)
    monkeypatch.setattr(hom, "validate_sop", counting_validate)
    grid = theorems.classify_grid(ps, 4)
    assert len(grid.classes) == 16
    assert reads == []
    assert validations == []


class TestWitnessSoundness:
    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    def test_witness_annihilates_and_is_nonzero(self, name, Q):
        w = Q.non_free_annihilator_witness()
        if w is None:
            return
        assert not Q.base.defining.contains(w)
        for g in Q.numerator.gens:
            assert Q.denominator.contains(mono_mul(w, g))
        assert not Q.is_free_over_base()

    @pytest.mark.parametrize("name,Q", corpus_homs(), ids=CORPUS_IDS)
    def test_free_modules_have_no_witness(self, name, Q):
        if Q.is_free_over_base():
            assert Q.non_free_annihilator_witness() is None

    def test_least_of_several_candidates(self):
        # (B : C) = (y, x^2, xz, z^2); x^2 and xz are nonzero in S, x^2 comes first
        R = make_ring(("x", "y", "z"), "(x^3, x^2z, xz^2)")
        Q = hom_from_ideals(R, ideal_of(R, "(y, z^2)"), ideal_of(R, "(y, z^4)"))
        assert Q.non_free_annihilator_witness() == R.parse_monomial("x^2")
        assert oracle_annihilator_witness(Q) == R.parse_monomial("x^2")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(monomial_homs())
def test_witness_matches_base_scan(Q):
    assert Q.non_free_annihilator_witness() == oracle_annihilator_witness(Q)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(power_specs())
def test_witness_matches_base_scan_on_powers(case):
    Q = build_hom(*case)
    assert Q.non_free_annihilator_witness() == oracle_annihilator_witness(Q)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nonfree_homs())
def test_witness_matches_base_scan_on_nonfree(Q):
    # every draw is non-free, and about half have two or more candidates
    witness = Q.non_free_annihilator_witness()
    assert witness is not None
    assert witness == oracle_annihilator_witness(Q)


class TestValidation:
    def test_exponent_count_must_match(self):
        R = make_ring(("x", "y"), "(0)")
        with pytest.raises(ValueError):
            make_hom(R, "x y", [2])

    def test_exponents_must_be_positive(self):
        R = make_ring(("x", "y"), "(0)")
        with pytest.raises(ValueError):
            make_hom(R, "x y", [2, 0])

    def test_explicit_b_must_lie_in_a(self):
        R = make_ring(("x", "y"), "(x^2)")
        with pytest.raises(ValueError, match="inside"):
            make_hom(R, "y", "x")

    def test_explicit_b_must_be_parameter_ideal(self):
        R = make_ring(("x", "y"), "(0)")
        with pytest.raises(ValueError):
            make_hom(R, "x y", "x^2 x^3")

    def test_mixed_spec_rejected(self):
        R = make_ring(("x", "y"), "(0)")
        ps = validate_sop(R, [R.parse_monomial("x"), R.parse_monomial("y")])
        with pytest.raises(ValueError):
            build_hom(ps, [2, R.parse_monomial("y")])

    def test_empty_spec_rejected(self):
        R = make_ring(("x", "y"), "(0)")
        ps = validate_sop(R, [R.parse_monomial("x"), R.parse_monomial("y")])
        with pytest.raises(ValueError):
            build_hom(ps, [])


class TestFromIdeals:
    def test_annihilator_of_full_defining_power(self):
        # a kills the module entirely, so Hom is the whole quotient
        R = make_ring(("x", "y"), "(x^2, xy^3)")
        J = ideal_of(R, "(y^6)")
        Q = hom_from_ideals(R, J, J)
        assert Q.numerator.is_unit()
        assert Q.length() == 9
        assert Q.is_cyclic()

    # a and b below are no nested parameter systems, so theorems.classify_point's
    # theorem does not apply, and is_free_over_base's length test is the answer
    def test_cyclic_and_not_free(self):
        R = make_ring(("x", "y"), "(y^2)")
        Q = hom_from_ideals(R, ideal_of(R, "(x^2, xy^2)"), ideal_of(R, "(x^2, xy)"))
        assert (Q.length(), Q.base_length(), Q.minimal_generator_count()) == (3, 4, 1)
        assert Q.is_cyclic() and not Q.is_free_over_base()

    def test_free_and_not_cyclic(self):
        R = make_ring(("x", "y"), "(x^3)")
        Q = hom_from_ideals(R, ideal_of(R, "(x, y)"), ideal_of(R, "(x^2y, y^3)"))
        assert (Q.length(), Q.base_length(), Q.minimal_generator_count()) == (2, 1, 2)
        assert not Q.is_cyclic() and Q.is_free_over_base()

    def test_zero_a_rejected(self):
        R = make_ring(("x", "y"), "(x^2)")
        with pytest.raises(ValueError):
            hom_from_ideals(R, MonomialIdeal(2, []), ideal_of(R, "(y^2)"))

    def test_unit_a_rejected(self):
        R = make_ring(("x", "y"), "(x^2)")
        with pytest.raises(ValueError, match="a is the unit ideal"):
            hom_from_ideals(R, MonomialIdeal.unit(2), ideal_of(R, "(y^2)"))

    def test_unit_b_rejected(self):
        # the module would be zero, and decide would call it indecomposable
        R = make_ring(("x", "y"), "(x^2, xy^3)")
        with pytest.raises(ValueError, match="^I \\+ b is the unit ideal"):
            hom_from_ideals(R, ideal_of(R, "(y^2)"), MonomialIdeal.unit(2))

    def test_non_artinian_quotient_rejected(self):
        R = make_ring(("x", "y"), "(x^2)")
        with pytest.raises(ValueError, match="Artinian"):
            hom_from_ideals(R, ideal_of(R, "(y)"), ideal_of(R, "(x)"))
