"""Every name the benchmark's tracer wraps must exist in homdecomp.

bench/tracing.py wraps package functions and methods by module and
attribute name, so a rename inside the package would break
`bench/run.py --trace 1`.  The tracer file is loaded by path; the lookup
below is the one its Tracer.patch does.  A traced grid run then pins the
grid counts the tracer reports: one row table per grid, read at the far
corner, and no classify_point call, Hom or ideal per point.  A traced
analyze report pins the torsion and basis counts: one saturation and one
index loop per report, and a basis listed only for a Hom that splits.
The eight statements the verify workload runs on one corpus ring read
the index eight times, and the ring saturates once.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

from conftest import fresh_corpus_ring, verify_deck_statements

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = tracing.SPANS + tracing.COUNTS


@pytest.mark.parametrize("name, module, path", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(name, module, path):
    mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        target = vars(getattr(mod, cls_name))[attr]
    else:
        target = getattr(mod, path)
    assert callable(target)


def import_package():
    # Tracer.install patches the homdecomp modules it finds in sys.modules
    package = importlib.import_module(tracing.PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{tracing.PACKAGE}.{info.name}")


def test_traced_grid_builds_no_hom(monkeypatch):
    import_package()
    rings = importlib.import_module(f"{tracing.PACKAGE}.rings")
    theorems = importlib.import_module(f"{tracing.PACKAGE}.theorems")
    ring = rings.LocalRing.from_text(("x", "y", "z"), "(x^2, xyz)")
    ps = rings.validate_sop(ring, [ring.parse_monomial(v) for v in "yz"])
    tables = []
    row_thresholds = theorems.row_thresholds

    def counting_table(L, bounds):
        tables.append(list(bounds))
        return row_thresholds(L, bounds)

    monkeypatch.setattr(theorems, "row_thresholds", counting_table)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        theorems.classify_grid(ps, 3)
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer)
    assert tables == [[2, 3, 3]]
    assert summary["theorems.classify_grid.calls"] == (1, "count")
    assert summary["theorems.homs_per_point"] == (0.0, "ratio")
    assert summary["theorems.classify_point.calls"] == (0, "count")
    # each point is read off a slice of that table: no Hom, ideal, colon or decide call
    for name in ("hom.build_hom", "hom.hom_from_ideals", "hom.basis",
                 "monomials.ideal_init", "decomp.decide"):
        assert summary[f"{name}.calls"] == (0, "count"), name
    assert summary["monomials.saturation.colon_steps"] == (0, "count")


# powers 3 split the Hom into two blocks; powers 2 leave it connected
@pytest.mark.parametrize("powers, basis_calls", [(3, 1), (2, 0)])
def test_traced_analyze_counts_the_torsion_and_basis_reads(powers, basis_calls):
    import_package()
    cli = importlib.import_module(f"{tracing.PACKAGE}.cli")
    spec = cli.RingSpec(("x", "y"), ("x^2", "xy^3"), ("y^2",))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.analysis_report(spec, None, None, [powers])
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer)
    assert summary["cli.analysis_report.calls"] == (1, "count")
    assert summary["monomials.saturation.calls"] == (1, "count")
    assert summary["rings.stabilization_index.calls"] == (1, "count")
    assert summary["hom.build_hom.calls"] == (1, "count")
    assert summary["hom.basis.calls"] == (basis_calls, "count")


def test_traced_verify_statements_read_the_kept_index():
    import_package()
    ring = fresh_corpus_ring()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verify_deck_statements(ring)
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer)
    assert summary["theorems.verify_thm_dim1.calls"] == (6, "count")
    assert summary["theorems.verify_thm_nonfree.calls"] == (2, "count")
    # the span still sees every read; the search behind them runs once
    assert summary["rings.stabilization_index.calls"] == (8, "count")
    assert summary["monomials.saturation.calls"] == (1, "count")
