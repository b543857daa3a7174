"""Span tracing of homdecomp from outside the package.

A :class:`Tracer` replaces chosen functions and methods of the loaded
``homdecomp`` modules with thin wrappers.  A span wrapper records one
span per call (name, start, end, parent span, op id) into flat arrays
kept in memory; a count wrapper only bumps a counter, for kernels that
are called too often to afford a span.  Module functions are patched in
every ``homdecomp`` module that holds the same object, so copies made by
``from .x import f`` are wrapped too.  :meth:`Tracer.uninstall` puts every
original back.

After the traced phase, :func:`summarize` folds the spans into per-name
call counts, inclusive and self times, plus the per-layer ratios that
the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "homdecomp"
LAYERS = ("monomials", "rings", "hom", "gfp", "decomp", "theorems", "cli")

# (span name, module, attribute path); a dotted path names a class method
SPANS = (
    ("monomials.standard_monomials", "monomials", "MonomialIdeal.standard_monomials"),
    ("monomials.ideal_init", "monomials", "MonomialIdeal.__init__"),
    ("monomials.saturation", "monomials", "MonomialIdeal.saturation"),
    ("rings.stabilization_index", "rings", "stabilization_index"),
    ("rings.gamma_m", "rings", "gamma_m"),
    ("hom.build_hom", "hom", "build_hom"),
    ("hom.hom_from_ideals", "hom", "hom_from_ideals"),
    ("hom.basis", "hom", "HomSubquotient.basis"),
    ("hom.presentation", "hom", "HomSubquotient.presentation"),
    ("gfp.matmul", "gfp", "PrimeFieldMatrix.__mul__"),
    ("gfp.nullspace", "gfp", "PrimeFieldMatrix.nullspace"),
    ("decomp.decide", "decomp", "decide"),
    ("decomp.is_decomposable", "decomp", "is_decomposable"),
    ("decomp.commutant", "decomp", "commutant"),
    ("theorems.classify_grid", "theorems", "classify_grid"),
    ("theorems.classify_point", "theorems", "classify_point"),
    ("theorems.verify_thm_dim1", "theorems", "verify_thm_dim1"),
    ("theorems.verify_thm_nonfree", "theorems", "verify_thm_nonfree"),
    ("theorems.search_decomposable_powers", "theorems", "search_decomposable_powers"),
    ("theorems.search_nonfree_powers", "theorems", "search_nonfree_powers"),
    ("cli.analysis_report", "cli", "analysis_report"),
    ("cli.main", "cli", "main"),
)

# counters without spans: (counter name, module, attribute path)
COUNTS = (
    ("monomials.divides.calls", "monomials", "divides"),
    ("monomials.contains.calls", "monomials", "MonomialIdeal.contains"),
    ("monomials.saturation.colon_steps", "monomials", "MonomialIdeal.colon"),
)

ROUTES = ("components", "frobenius", "fitting")

NO_PARENT = -1


class Tracer:
    """Wrappers plus the in-memory span store of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, now: float | None = None) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(time.perf_counter() if now is None else now)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.span_op.append(self.op)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, now: float | None = None) -> None:
        self.span_end[idx] = time.perf_counter() if now is None else now
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def spans(self):
        """(name, start, end, parent index, op id) for every recorded span."""
        names = self.names
        return [
            (names[n], s, e, p, o)
            for n, s, e, p, o in zip(self.span_name, self.span_start, self.span_end,
                                     self.span_parent, self.span_op)
        ]

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then each field's raw array."""
        fields = (("name", self.span_name), ("start", self.span_start),
                  ("end", self.span_end), ("parent", self.span_parent),
                  ("op", self.span_op))
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "byteorder": sys.byteorder,
            "fields": [[name, arr.typecode] for name, arr in fields],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, arr in fields:
                arr.tofile(fh)

    # ------------------------------------------------------------- wrappers

    def span_wrapper(self, name: str, fn, after=None):
        """fn wrapped in a span; after(tracer, args, result) runs on success."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def count_wrapper(self, key: str, fn, when=None):
        """fn wrapped in a counter; when(tracer) gates the count if given."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when(self):
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- patching

    def _modules(self):
        prefix = PACKAGE + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(prefix))]

    def patch(self, module: str, path: str, make) -> None:
        """Replace module.path by make(original), in every copy of it.

        A dotted path names a method, patched on its class.  A plain name
        is a module function; every package module holding the same
        object under any name gets the wrapper.
        """
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, make(original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for m in self._modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    self._set(m, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point in SPANS and COUNTS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        afters = {
            "monomials.standard_monomials": _after_standard_monomials,
            "gfp.matmul": _after_matmul,
            "decomp.commutant": _after_commutant,
            "decomp.is_decomposable": _after_is_decomposable,
            "theorems.classify_grid": _after_classify_grid,
        }
        try:
            for name, module, path in SPANS:
                self.patch(module, path,
                           lambda fn, n=name: self.span_wrapper(n, fn, afters.get(n)))
            for key, module, path in COUNTS:
                when = _inside_saturation if key.startswith("monomials.saturation.") else None
                self.patch(module, path,
                           lambda fn, k=key, w=when: self.count_wrapper(k, fn, w))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)


def _inside_saturation(tracer: Tracer) -> bool:
    return tracer.current() == "monomials.saturation"


def _after_standard_monomials(tracer: Tracer, args, result) -> None:
    ideal = args[0]
    if not ideal.gens:
        return
    volume = 1
    for i in range(ideal.ambient):
        pure = [g[i] for g in ideal.gens
                if g[i] > 0 and all(e == 0 for j, e in enumerate(g) if j != i)]
        volume *= min(pure) if pure else 0
    tracer.bump("monomials.standard_monomials.box_cells", volume)
    tracer.bump("monomials.standard_monomials.returned", len(result))


def _after_matmul(tracer: Tracer, args, result) -> None:
    left, right = args
    if isinstance(right, int):
        return
    tracer.bump("gfp.matmul.madds", left.nrows * left.ncols * right.ncols)


def _after_commutant(tracer: Tracer, args, result) -> None:
    if result.dim > tracer.counts.get("decomp.commutant.dim_max", 0):
        tracer.counts["decomp.commutant.dim_max"] = result.dim


def _after_is_decomposable(tracer: Tracer, args, result) -> None:
    tracer.bump(f"decomp.route.{result.method}")


def _after_classify_grid(tracer: Tracer, args, result) -> None:
    tracer.bump("theorems.grid_points", len(result.classes))


# ---------------------------------------------------------------- summaries


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    spans are (name, start, end, parent index, op id) tuples; children
    are clipped to their parent's interval and overlapping children are
    counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from one traced phase."""
    spans = tracer.spans()
    selfs = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    calls = {name: 0 for name, _, _ in SPANS}
    incl = {name: 0.0 for name, _, _ in SPANS}
    excl = {name: 0.0 for name, _, _ in SPANS}
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]

    def under(idx: int, ancestor: str) -> bool:
        p = parents[idx]
        while p != NO_PARENT:
            if names[p] == ancestor:
                return True
            p = parents[p]
        return False

    homs_in_grid = presentations_in_decide = commutants_in_decide = 0
    decided_points = set()
    for idx, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        excl[name] += selfs[idx]
        if name in ("hom.build_hom", "hom.hom_from_ideals") and under(idx, "theorems.classify_grid"):
            homs_in_grid += 1
        elif name == "hom.presentation" and under(idx, "decomp.decide"):
            presentations_in_decide += 1
        elif name == "decomp.commutant" and under(idx, "decomp.decide"):
            commutants_in_decide += 1
        elif name == "decomp.decide":
            p = parents[idx]
            while p != NO_PARENT:
                if names[p] == "theorems.classify_point":
                    decided_points.add(p)
                    break
                p = parents[p]
    for name, _, _ in SPANS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.ms"] = (incl[name] * 1000.0, "ms")
        out[f"{name}.self_ms"] = (excl[name] * 1000.0, "ms")
    c = tracer.counts
    out["monomials.divides.calls"] = (c.get("monomials.divides.calls", 0), "count")
    out["monomials.contains.calls"] = (c.get("monomials.contains.calls", 0), "count")
    box = c.get("monomials.standard_monomials.box_cells", 0)
    out["monomials.standard_monomials.box_cells"] = (box, "count")
    out["monomials.standard_monomials.yield"] = (
        _ratio(c.get("monomials.standard_monomials.returned", 0), box), "ratio")
    out["monomials.saturation.colon_steps"] = (c.get("monomials.saturation.colon_steps", 0), "count")
    homs = calls["hom.build_hom"] + calls["hom.hom_from_ideals"]
    out["hom.basis_per_hom"] = (_ratio(calls["hom.basis"], homs), "ratio")
    out["gfp.matmul.madds"] = (c.get("gfp.matmul.madds", 0), "count")
    out["decomp.commutant.dim_max"] = (c.get("decomp.commutant.dim_max", 0), "count")
    decides = calls["decomp.decide"]
    out["decomp.presentations_per_decide"] = (_ratio(presentations_in_decide, decides), "ratio")
    out["decomp.commutants_per_decide"] = (_ratio(commutants_in_decide, decides), "ratio")
    for route in ROUTES:
        out[f"decomp.route.{route}"] = (c.get(f"decomp.route.{route}", 0), "count")
    points = c.get("theorems.grid_points", 0)
    out["theorems.homs_per_point"] = (_ratio(homs_in_grid, points), "ratio")
    classified = calls["theorems.classify_point"]
    out["theorems.cyclic_shortcut_ratio"] = (
        _ratio(classified - len(decided_points), classified), "ratio")
    total_self = sum(selfs)
    for layer in LAYERS:
        layer_self = sum(excl[name] for name, _, _ in SPANS if name.startswith(layer + "."))
        out[f"layer.{layer}.self_share"] = (_ratio(layer_self, total_self), "ratio")
    return out
