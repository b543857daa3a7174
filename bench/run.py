#!/usr/bin/env python3
"""homdecomp benchmark: one workload per process, one closed-loop caller.

    python3 bench/run.py --workload {grid,analyze,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (importing homdecomp and generating the seeded inputs)
runs several times and its median is ``setup_s``.  The timed phase then
runs whole decks of ops back to back until ``--seconds`` have passed; the
outputs are checked after it, so checking costs no timed time.  Every
deck holds the same ops, and an op's latency is the median of its times
over the decks (see :func:`end_to_end`).

Every time is reported at reference speed.  A fixed pure-Python loop that
does not touch homdecomp runs between any two timed ops and around every
set-up; a timed span is scaled by REFERENCE_MS over the loop's mean time
just before and just after it.  On a shared host the speed of the whole
process swings by a third and more within seconds, and the loop slows
with it; a change to homdecomp moves the span and not the loop.  The
unscaled figures are printed as notes.

With ``--trace 0`` the end-to-end metrics are reported.  With
``--trace 1`` the same kind of phase runs untraced for half of
``--seconds``, then the very same ops run again with the tracer's
wrappers installed; the per-layer metrics come from that traced replay
and ``trace.overhead`` is its time over the untraced one's, both at
reference speed.  The
wrappers are removed before anything else runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every op that
raises, exits non-zero or fails its output check is failed; ``correct``
is false if any of them failed.  A workload's probes, ops that hit the
known defect (``stabilize`` past the stabilization cap 64), run once
after the timed phase and count neither as attempted nor as failed; each
must fail in exactly that documented way or succeed, or the run is
incorrect.  How many hit the defect is printed, and reported as
``rings.stabilization_index.cap_exits`` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "homdecomp"
OUT = ROOT / ".bench_out"
MODULES = ("monomials", "rings", "hom", "gfp", "decomp", "theorems", "cli")
SETUP_REPEATS = 9
# the reference loop's best time on a 2-core x86-64 host with Python 3.11,
# so reported times read as milliseconds on that host when it is idle
REFERENCE_MS = 0.25
REFERENCE_ROUNDS = 1000
# the tail is the highest percentile, in steps of 0.1 from 50 up, that
# leaves at least TAIL_MIN_BEYOND samples above it
TAIL_MIN_BEYOND = 10
TRACED_SHARE = 0.5


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (for example, no package source)."""


# -------------------------------------------------------------- reference


def _reference_loop() -> int:
    """Interpreter work like homdecomp's own: small tuples, a dict, ints."""
    cells: dict = {}
    for i in range(REFERENCE_ROUNDS):
        key = (i & 7, (i >> 3) & 7, i % 5)
        cells[key] = cells.get(key, 0) + 1
    return len(cells)


def reference_seconds() -> float:
    """One timed pass of the reference loop, with the collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that takes a span timed between two reference passes to
    reference speed."""
    return REFERENCE_MS / 1000.0 / ((before + after) / 2.0)


# ----------------------------------------------------------------- set-up


def load_library() -> SimpleNamespace:
    """Import homdecomp from the checkout afresh and return its modules."""
    for name in [n for n in sys.modules if n == "homdecomp" or n.startswith("homdecomp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("homdecomp")
    if Path(package.__file__).resolve().parent != PACKAGE.resolve():
        raise BenchmarkError(f"imported homdecomp from {package.__file__}, not from {PACKAGE}")
    return SimpleNamespace(**{m: importlib.import_module(f"homdecomp.{m}") for m in MODULES})


def set_up(workload: str, seed: int):
    """Import plus input generation, SETUP_REPEATS times; the last one is used.

    Returns the library, the workload and (seconds, scale) per set-up.
    """
    times = []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = load_library()
        wl = workloads.WORKLOADS[workload](lib, seed, OUT / workload)
        seconds = time.perf_counter() - t0
        after = reference_seconds()
        times.append((seconds, scale(before, after)))
        before = after
    # the discarded set-ups leave cyclic garbage; the timed phase should
    # not pay for collecting it
    gc.collect()
    return lib, wl, times


# ------------------------------------------------------------ timed phase


def run_ops(ops, tracer=None) -> list:
    """Call every op in order, a reference pass between any two.

    One (op, seconds, scale, output, exception) record each.
    """
    records = []
    before = reference_seconds()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            out, exc = op.call(), None
        except Exception as err:  # noqa: BLE001 - a raising op is a failed op
            out, exc = None, err
        seconds = time.perf_counter() - t0
        after = reference_seconds()
        records.append((op, seconds, scale(before, after), out, exc))
        before = after
    return records


def run_decks(wl, seconds: float):
    """Whole decks back to back until `seconds` have passed."""
    decks, records = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        deck = wl.deck()
        decks.append(deck)
        records += run_ops(deck)
    return decks, records, time.perf_counter() - start


def traced_run(wl, seconds: float, path: Path):
    """Untraced decks for a share of `seconds`, then the same ops traced.

    Returns the decks, every record of both phases, the per-layer
    metrics and notes; the spans are written to `path`.
    """
    decks, plain, plain_wall = run_decks(wl, seconds * TRACED_SHARE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run_ops([op for deck in decks for op in deck], tracer)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.dump(path)
    metrics = tracing.summarize(tracer)
    metrics["trace.overhead"] = (scaled_seconds(traced) / scaled_seconds(plain), "ratio")
    notes = [f"traced replay of {len(traced)} ops: {traced_wall:.3f} s, "
             f"untraced {plain_wall:.3f} s, {len(tracer.span_name)} spans in {path.relative_to(ROOT)}"]
    return decks, plain + traced, metrics, notes


def judge(lib, record) -> tuple:
    """(status, message) of one op record."""
    op, _, _, out, exc = record
    if exc is not None:
        if isinstance(exc, lib.theorems.VerificationError):
            return workloads.MISMATCH, f"{op.kind}: VerificationError: {exc}"
        return workloads.FAILED, f"{op.kind}: {type(exc).__name__}: {exc}"
    try:
        return op.check(out)
    except Exception as err:  # noqa: BLE001 - an unreadable output is a wrong one
        return workloads.MISMATCH, f"{op.kind}: output check raised {type(err).__name__}: {err}"


# ----------------------------------------------------------------- metrics


def tail_percentile(samples) -> tuple:
    """(percentile, value, samples beyond) at the highest percentile, in
    steps of 0.1, that leaves at least TAIL_MIN_BEYOND samples above its
    nearest-rank value.

    With fewer than 2 * TAIL_MIN_BEYOND samples no percentile from 50 up
    qualifies, and the median is returned with its smaller count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    for permille in range(999, 499, -1):
        rank = max(1, -(-permille * n // 1000))
        if n - rank >= TAIL_MIN_BEYOND or permille == 500:
            return permille / 10, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(args, setup_times, decks: int, ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": len(setup_times),
        "decks": decks,
        "ops": ops,
    }


def tally(lib, records, allowed=(workloads.OK,)) -> dict:
    """Statuses of the records, plus the failure messages grouped.

    Every record that is not OK is failed; `unexpected` counts those
    whose status is not in `allowed`, and any of them makes the run
    incorrect.  `known` counts the known-defect records.
    """
    ok, failures, unexpected, known = [], {}, 0, 0
    for record in records:
        status, message = judge(lib, record)
        if status == workloads.OK:
            ok.append(record)
            continue
        unexpected += status not in allowed
        known += status == workloads.KNOWN_DEFECT
        failures[message] = failures.get(message, 0) + 1
    return {"ok": ok, "failures": failures, "unexpected": unexpected, "known": known,
            "attempted": len(records), "failed": len(records) - len(ok)}


def scaled_seconds(records) -> float:
    """Total time of the records at reference speed."""
    return sum(seconds * factor for _, seconds, factor, _, _ in records)


def op_medians(records) -> list[tuple]:
    """(op, median ms at reference speed, median ms unscaled) per distinct op."""
    samples: dict[int, tuple] = {}
    for op, seconds, factor, _, _ in records:
        _, scaled, raw = samples.setdefault(id(op), (op, [], []))
        scaled.append(seconds * factor * 1000.0)
        raw.append(seconds * 1000.0)
    return [(op, statistics.median(scaled), statistics.median(raw))
            for op, scaled, raw in samples.values()]


def end_to_end(setup_times, result, wall: float) -> tuple[dict, list]:
    """The end-to-end metrics of an untraced run, plus notes.

    An op's latency is the median of its times at reference speed over
    the decks of the run.  op_p50_ms is the median of those latencies
    over the distinct successful ops; ops_per_s and points_per_s divide
    those ops and their lattice points by the sum of their latencies, so
    every op of the deck weighs once.  op_tail_ms is taken over every
    successful op record at reference speed.
    """
    ok = result["ok"]
    per_op = op_medians(ok)
    busy = sum(ms for _, ms, _ in per_op) / 1000.0
    setup_scaled = [seconds * factor for seconds, factor in setup_times]
    notes = [f"setup_s is the median of {len(setup_times)} set-ups at reference speed: "
             + ", ".join(f"{t:.4f}" for t in setup_scaled)
             + "; unscaled: " + ", ".join(f"{t:.4f}" for t, _ in setup_times)]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if per_op:
        samples = [seconds * factor * 1000.0 for _, seconds, factor, _, _ in ok]
        pct, value, beyond = tail_percentile(samples)
        metrics["ops_per_s"] = (len(per_op) / busy, "1/s")
        metrics["points_per_s"] = (sum(op.points for op, _, _ in per_op) / busy, "1/s")
        metrics["op_p50_ms"] = (statistics.median(ms for _, ms, _ in per_op), "ms")
        metrics["op_tail_ms"] = (value, "ms")
        notes.append(f"op_tail_ms is p{pct:g} of {len(samples)} successful op records, "
                     f"{beyond} beyond it")
        raw_busy = sum(raw for _, _, raw in per_op) / 1000.0
        notes.append(f"unscaled: ops_per_s {len(per_op) / raw_busy:.4f}, op_p50_ms "
                     f"{statistics.median(raw for _, _, raw in per_op):.4f}")
    by_kind: dict[str, list[float]] = {}
    for op, ms, _ in per_op:
        by_kind.setdefault(op.kind, []).append(ms)
    for kind, values in sorted(by_kind.items()):
        notes.append(f"{kind}: {len(values)} ops, median {statistics.median(values):.3f} ms, "
                     f"mean {statistics.fmean(values):.3f} ms")
    notes.append(f"wall clock: {len(ok)} ok ops in {wall:.3f} s, {len(ok) / wall:.4f} ops/s")
    failed_ratio = result["failed"] / result["attempted"]
    notes.append(f"failed_ratio = {result['failed']}/{result['attempted']} = {failed_ratio:.4f}")
    return metrics, notes


# -------------------------------------------------------------------- main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: no homdecomp source at {PACKAGE}\n")
        return 2
    sys.path.insert(0, str(SRC))
    try:
        lib, wl, setup_times = set_up(args.workload, args.seed)
    except (BenchmarkError, ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    if args.trace:
        path = OUT / args.workload / f"trace-seed{args.seed}.spans"
        decks, records, metrics, notes = traced_run(wl, args.seconds, path)
        result = tally(lib, records)
    else:
        decks, records, wall = run_decks(wl, args.seconds)
        result = tally(lib, records)
        metrics, notes = end_to_end(setup_times, result, wall)
    probes = tally(lib, run_ops(wl.probes), allowed=(workloads.OK, workloads.KNOWN_DEFECT))
    notes.append(f"probes: {probes['known']} of {probes['attempted']} hit the known defect, "
                 f"{probes['unexpected']} failed otherwise")
    if args.trace:
        metrics["rings.stabilization_index.cap_exits"] = (probes["known"], "count")
    record = run_record(args, setup_times, len(decks), len(records))
    print("run-record " + json.dumps(record, sort_keys=True))
    for note in notes:
        print("note " + note)
    for message, count in sorted(result["failures"].items()):
        print(f"failed {count} x {message}")
    for message, count in sorted(probes["failures"].items()):
        print(f"probe {count} x {message}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["unexpected"] == 0 and probes["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
