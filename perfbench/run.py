#!/usr/bin/env python3
"""Benchmark of defcalc's CLI, run in-process by one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  Each
operation is one ``cli.main(argv)`` call with stdout and stderr captured in
memory, issued after the previous one returns.  Between operations the
garbage collector runs, then the reference loop of ``pace.py``.  The
workload's operations (one round, built from the seed) first run once and are
checked against computations made apart from defcalc; timed rounds then repeat
until ``--seconds`` have passed, and every rerun must reproduce the checked
output byte for byte.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import pace
import spans
import workloads
from checks import Mismatch, Result

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROCESSES = 9
TAIL_PERCENTILE = 90  # at least 16 timed operations lie beyond it in every run (README.md)
PACE_WINDOW = 9  # operations in the rolling median of reference-loop times

PROBE = """
import statistics, time
import numpy
start = time.perf_counter()
import defcalc.cli
elapsed = time.perf_counter() - start
import pace
print(elapsed, statistics.median(pace.reference_loop() for _ in range(5)))
"""


def import_times() -> tuple[float, float]:
    """Set-up time and its defcalc part, from fresh interpreters run one at a
    time: numpy's import is taken as the constant REF_NUMPY_S, and the time
    to import defcalc.cli once numpy is loaded is scaled by the reference
    loop run in the same process afterwards (see pace.py).  Returns the
    median scaled set-up time and the median raw defcalc part.  One
    unmeasured process first writes the bytecode caches."""
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    scaled, raw = [], []
    for i in range(SETUP_PROCESSES + 1):
        done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        own, pace_s = map(float, done.stdout.split())
        if i:
            scaled.append(own * pace.REF_S / pace_s)
            raw.append(own)
    return pace.REF_NUMPY_S + statistics.median(scaled), statistics.median(raw)


def call(main, argv):
    """One operation: returns its result, its wall time and the time of the
    reference loop run just before it."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    pace_s = pace.reference_loop()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue()), elapsed, pace_s


def digest(res) -> bytes:
    return hashlib.blake2b(f"{res.rc}\0{res.out}\0{res.err}".encode(), digest_size=16).digest()


def verify(ops, main):
    """Run the round once and check every output.  Returns per-operation
    failure reasons ('' when it passed), output digests and row counts, the
    results the deferred checks still need, and the stdout bytes of the round."""
    reasons, digests, rows, keep, tables = [], [], [], {}, {}
    out_bytes = 0
    for i, op in enumerate(ops):
        res, _, _ = call(main, op.argv)
        digests.append(digest(res))
        rows.append(checks.row_count(res, op.fmt))
        out_bytes += len(res.out.encode())
        reason = ""
        try:
            tables[i] = op.check(res)
        except Mismatch as exc:
            reason = str(exc)
        if op.deferred is not None:
            keep[i] = res
        reasons.append(reason)
    for i, op in enumerate(ops):
        j = op.twin
        if j is not None and i < j and not reasons[i] and not reasons[j]:
            if tables[i].shape != tables[j].shape or not (tables[i] == tables[j]).all():
                reasons[i] = reasons[j] = "CSV and JSON tables differ"
    return reasons, digests, rows, keep, out_bytes


def run_deferred(ops, keep, reasons) -> None:
    import mpmath

    for i, res in keep.items():
        if reasons[i]:
            continue
        try:
            ops[i].deferred(res, mpmath)
        except Mismatch as exc:
            reasons[i] = str(exc)


def scale(walls: list, paces: list) -> list:
    """Wall times scaled by REF_S over the rolling median of the reference loop."""
    half = PACE_WINDOW // 2
    out = []
    for k, wall in enumerate(walls):
        near = paces[max(0, k - half): k + half + 1]
        out.append(wall * pace.REF_S / statistics.median(near))
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup_s, import_raw_s = import_times()
    cli_import_s = setup_s - pace.REF_NUMPY_S
    from defcalc import cli

    ops = workloads.build(args.workload, args.seed)
    reasons, digests, rows, keep, out_bytes = verify(ops, cli.main)
    tracer = spans.Tracer() if args.trace else None
    # Everything alive now lives to the end of the run: keep the collection
    # between operations (6 ms otherwise) from rescanning it.
    gc.collect()
    gc.freeze()

    # Timed rounds; a traced run alternates untraced and traced rounds.
    walls, paces, traced_flags, deltas = [], [], [], []
    reruns_differ = [0] * len(ops)
    started = time.perf_counter()
    while True:
        traced = bool(tracer) and len(traced_flags) % 2 == 1
        if traced:
            tracer.install(cli)
            before = tracer.snapshot()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            res, wall, pace_s = call(tracer.cli_main if traced else cli.main, op.argv)
            walls.append(wall)
            paces.append(pace_s)
            if digest(res) != digests[i]:
                reruns_differ[i] += 1
        traced_flags.append(traced)
        if traced:
            tracer.uninstall()
            after = tracer.snapshot()
            deltas.append(({k: after[k] - before[k] for k in after},
                           statistics.median(paces[-len(ops):])))
        if time.perf_counter() - started >= args.seconds and (not tracer or deltas):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_deferred(ops, keep, reasons)
    n_rounds = 1 + len(traced_flags)
    failed = sum(n_rounds if reasons[i] else reruns_differ[i] for i in range(len(ops)))
    correct = True
    for i, op in enumerate(ops):
        if reasons[i] and op.kept_fault:
            print(f"kept fault, op {i}: {op.kept_fault}: {reasons[i]}", file=sys.stderr)
        elif reasons[i] or reruns_differ[i]:
            correct = False
            why = reasons[i] or f"{reruns_differ[i]} reruns differ from the checked output"
            print(f"FAILED op {i} {' '.join(op.argv)}: {why}", file=sys.stderr)

    n = len(ops)
    scaled = scale(walls, paces)
    rounds = [scaled[r * n:(r + 1) * n] for r, t in enumerate(traced_flags) if not t]
    raw_rounds = [walls[r * n:(r + 1) * n] for r, t in enumerate(traced_flags) if not t]
    flat = [t for r in rounds for t in r]
    print(f"{args.workload} seed {args.seed}: {n} ops/round, {len(rounds)} timed rounds "
          f"({len(flat)} ops), {len(deltas)} traced; raw median op "
          f"{statistics.median(t for r in raw_rounds for t in r):.6f} s, raw median round "
          f"{statistics.median(map(sum, raw_rounds)):.4f} s, raw defcalc import {import_raw_s:.4f} s",
          file=sys.stderr)
    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
        per_round = [spans.layer_metrics(d) for d, _ in deltas]
        for name in per_round[0]:
            if unit_of(name) != "s" and len({p[name] for p in per_round}) > 1:
                print(f"{name} differs between traced rounds", file=sys.stderr)
        factors = [pace.REF_S / p for _, p in deltas]
        metrics = {}
        for name in per_round[0]:
            values = [p[name] * (f if unit_of(name) == "s" else 1.0)
                      for p, f in zip(per_round, factors)]
            metrics[name] = (statistics.mean(values), unit_of(name))
        metrics["cli.output_bytes"] = (out_bytes, "B")
        metrics["cli.import_s"] = (cli_import_s, "s")
        traced_sums = [sum(scaled[r * n:(r + 1) * n]) for r, t in enumerate(traced_flags) if t]
        overhead = statistics.median(traced_sums) / statistics.median(map(sum, rounds))
        metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "rows_per_s": (statistics.median(sum(rows) / sum(r) for r in rounds), "1/s"),
            "op_p50_s": (statistics.median(flat), "s"),
            "op_tail_s": (statistics.quantiles(flat, n=100)[TAIL_PERCENTILE - 1], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": n_rounds * n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "defcalc" / "cli.py").is_file():
        print(f"error: no defcalc sources at {SRC}; run from a defcalc checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(1, str(SRC))
    sys.exit(main())
