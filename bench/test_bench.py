"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize("n, pct, value, beyond", [
    (100, 90.0, 90, 10),      # p90.1 would leave 9
    (99, 89.8, 89, 10),       # p89.9 would leave 9
    (182, 94.5, 172, 10),
    (1000, 99.0, 990, 10),
    (20000, 99.9, 19980, 20),  # the highest step leaves more than ten
    (19, 50.0, 10, 9),        # too few for any step: the median, with its count
])
def test_tail_is_highest_step_with_ten_beyond(n, pct, value, beyond):
    samples = list(range(n, 0, -1))
    assert run.tail_percentile(samples) == (pct, value, beyond)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        run.tail_percentile([])


# ------------------------------------------------------------- self times


def span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0, tracing.NO_PARENT),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        span("root", 0.0, 10.0, tracing.NO_PARENT),
        span("x", 1.0, 5.0, 0),
        span("y", 3.0, 7.0, 0),
        span("z", 9.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_ops():
    tr = tracing.Tracer()
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    tr.op = 7
    i = tr.open(outer, now=0.0)
    j = tr.open(inner, now=1.0)
    tr.close(j, now=3.0)
    tr.close(i, now=4.0)
    assert tr.spans() == [("outer", 0.0, 4.0, tracing.NO_PARENT, 7), ("inner", 1.0, 3.0, 0, 7)]
    assert tracing.self_times(tr.spans()) == [2.0, 2.0]


# ---------------------------------------------------------------- wrappers


def package_attributes():
    """Every attribute of every homdecomp module and class, by identity."""
    snapshot = {}
    for name, module in sorted(sys.modules.items()):
        if name != "homdecomp" and not name.startswith("homdecomp."):
            continue
        for key, value in vars(module).items():
            snapshot[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snapshot[(name, key, attr)] = member
    return snapshot


def test_uninstall_restores_every_attribute(lib):
    before = package_attributes()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert lib.theorems.decide is not before[("homdecomp.decomp", "decide")]
        assert lib.cli.build_hom is lib.theorems.build_hom is lib.hom.build_hom
        assert lib.cli.stabilization_index is not before[("homdecomp.rings", "stabilization_index")]
        changed = [k for k, v in package_attributes().items() if before.get(k) is not v]
        assert len(changed) >= len(tracing.SPANS) + len(tracing.COUNTS)
    finally:
        tr.uninstall()
    assert not tr.installed
    after = package_attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_calls_are_recorded_and_untraced_calls_are_not(lib):
    ring = lib.theorems.power_family_ring(3)
    ps = lib.rings.validate_sop(ring, [ring.parse_monomial("y^2")])
    tr = tracing.Tracer()
    tr.install()
    try:
        lib.theorems.classify_grid(ps, 3)
    finally:
        tr.uninstall()
    names = {s[0] for s in tr.spans()}
    assert {"theorems.classify_grid", "theorems.classify_point", "hom.build_hom",
            "decomp.decide", "monomials.standard_monomials"} <= names
    recorded = len(tr.span_name)
    lib.theorems.classify_grid(ps, 3)
    assert len(tr.span_name) == recorded
    summary = tracing.summarize(tr)
    assert summary["theorems.homs_per_point"] == (2.0, "ratio")
    assert summary["theorems.classify_grid.calls"] == (1, "count")
    assert summary["monomials.divides.calls"][0] > 0


# ----------------------------------------------------------- component check


def small_corpus(lib):
    th, rings, hom = lib.theorems, lib.rings, lib.hom
    modules = []
    for m in range(2, 7):
        ring = th.power_family_ring(m)
        ps = rings.validate_sop(ring, [ring.parse_monomial("y^2")])
        modules += [hom.build_hom(ps, [t]) for t in range(1, m + 4)]
    three = rings.LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
    ps3 = rings.validate_sop(three, [three.parse_monomial(v) for v in "yz"])
    modules += [hom.build_hom(ps3, [a, b]) for a in (1, 2, 3) for b in (1, 2, 3)]
    for n1 in (2, 3, 4):
        ring = th.socle_family_ring(n1)
        ps = rings.validate_sop(ring, [ring.parse_monomial("z")])
        modules += [hom.build_hom(ps, [t]) for t in (n1, n1 + 2)]
    for e in (3, 4):
        for g in (3, 6, 9):
            ring = rings.LocalRing.from_text(("x", "y"), f"(x^{e}, x^{e - 1}y^{g})")
            ps = rings.validate_sop(ring, [ring.parse_monomial("y^2")])
            modules.append(hom.build_hom(ps, [3]))
    return modules


def test_component_check_agrees_with_decomp(lib):
    modules = small_corpus(lib)
    split = 0
    for Q in modules:
        ours = workloads.action_components(Q)
        theirs = len(lib.decomp.connected_components(Q.presentation(2)))
        assert ours == theirs
        split += ours >= 2
    assert len(modules) >= 50 and 0 < split < len(modules)


# --------------------------------------------------------- seeded workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_decks(lib, name, tmp_path):
    def decks(seed):
        wl = workloads.WORKLOADS[name](lib, seed, tmp_path)
        return [[(op.kind, op.label) for op in wl.deck()] for _ in range(3)]

    def mix(ds):
        return [sorted(kind for kind, _ in deck) for deck in ds]

    first = decks(5)
    assert decks(5) == first
    assert decks(6) != first
    assert mix(decks(6)) == mix(first)


def test_op_latency_is_its_median_at_reference_speed():
    def op(points):
        return workloads.Op("k", "", lambda: None, lambda _: (workloads.OK, ""), points)

    a, b = op(2), op(5)
    # (op, seconds, scale): a runs at 1, 2 and 6 ms scaled, b at 3 ms
    ok = [(a, 0.002, 0.5, None, None), (b, 0.003, 1.0, None, None),
          (a, 0.002, 1.0, None, None), (a, 0.003, 2.0, None, None)]
    result = {"ok": ok, "attempted": 5, "failed": 1}
    setups = [(0.5, 1.0), (0.7, 2.0), (0.6, 0.5)]
    metrics, _ = run.end_to_end(setups, result, wall=1.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(2.5)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 0.005)
    assert metrics["points_per_s"][0] == pytest.approx(7 / 0.005)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert "ok_ratio" not in metrics


def test_scale_takes_the_mean_of_the_reference_passes():
    ref = run.REFERENCE_MS / 1000.0
    assert run.scale(ref, ref) == pytest.approx(1.0)
    assert run.scale(ref, 3 * ref) == pytest.approx(0.5)
    assert run.reference_seconds() > 0


def test_stratified_draws_once_from_each_bin():
    import random
    bins = [(33, 35), (36, 39), (40, 43), (44, 47), (48, 51), (52, 55), (56, 59), (60, 63)]
    for seed in range(5):
        draws = workloads.stratified(random.Random(seed), (33, 63), 8)
        assert all(lo <= m <= hi for m, (lo, hi) in zip(draws, bins))
    assert workloads.stratified(random.Random(1), (2, 16), 5) != \
        workloads.stratified(random.Random(2), (2, 16), 5)


def test_verify_decks_stay_below_the_cap_and_probes_reach_it(lib, tmp_path):
    wl = workloads.VerifyWorkload(lib, 3, tmp_path)
    cap = workloads.STABILIZE_AT_CAP[0]
    deck_ms = [int(op.label[2:]) for op in wl.ops if op.kind == "verify:stabilize"]
    probe_ms = [int(op.label[2:]) for op in wl.probes]
    assert len(deck_ms) == len(probe_ms) == workloads.STABILIZE_PER_SIDE
    assert max(deck_ms) < cap <= min(probe_ms)
    assert workloads.GridWorkload(lib, 3, tmp_path).probes == ()


# ----------------------------------------------------------- failure classes


@pytest.mark.parametrize("m, code, err, status", [
    (70, 0, "", workloads.OK),
    (70, 1, "internal error: stabilization index exceeded the cap 64\n", workloads.KNOWN_DEFECT),
    (40, 1, "internal error: stabilization index exceeded the cap 64\n", workloads.FAILED),
    (70, 1, "internal error: something else\n", workloads.FAILED),
])
def test_only_stabilize_past_the_cap_is_the_known_defect(m, code, err, status):
    out = '{"stabilization_index": %d}' % (m + 1) if code == 0 else ""
    assert workloads._check_stabilize(m, (code, out, err))[0] == status


def test_the_known_defect_is_allowed_only_among_probes(lib):
    def op(kind, check):
        return workloads.Op(kind, "", lambda: None, check)

    known = (op("known", lambda _: (workloads.KNOWN_DEFECT, "cap")), 0.0, 1.0, None, None)
    good = (op("good", lambda _: (workloads.OK, "")), 0.0, 1.0, None, None)
    raised = (op("raised", lambda _: (workloads.OK, "")), 0.0, 1.0, None, ValueError("boom"))
    assert run.tally(lib, [good, known])["unexpected"] == 1
    probes = (workloads.OK, workloads.KNOWN_DEFECT)
    assert run.tally(lib, [good, known], allowed=probes)["unexpected"] == 0
    result = run.tally(lib, [good, known, raised], allowed=probes)
    assert (result["failed"], result["unexpected"], result["known"]) == (2, 1, 1)
