#!/usr/bin/env python3
"""Paired A/B runs of perfbench: a parent commit against the working tree.

    python3 tools/ab.py --parent REV --out BENCH_26.json \\
        --spec deriv_grid/1/10 --spec deriv_grid/23/10 --spec expr_corpus/1/5

Run from the repository root; only the standard library is used.  Both sides
are extracted with ``git archive`` into their own directories under one
work directory: the parent from REV, the change from the tracked files of
the working tree (``git stash create``, which touches nothing, or HEAD when
the tree is clean).  For each spec WORKLOAD/SEED/PAIRS, ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` runs on both trees in
alternating pairs, the parent first in odd pairs, with T the ``run_seconds``
of BENCHMARK.json; then ``--trace 1`` runs on ``TRACED`` at seed 1 for
``TRACED_PAIRS`` pairs.
The output keeps the layout of the earlier BENCH_*.json files (a workload
at seed 1 under its own name, else under WORKLOAD/SEED) and adds the wins
of each pair, the parent's interquartile range, the line count of
``src/defcalc/*.py`` on each side, and whether the runs could read
bytecode caches.  A run that reports wrong output stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACED, TRACED_PAIRS = "deriv_grid", 2  # the traced runs: workload and pairs, at seed 1


def extract(rev: str, dest: Path) -> Path:
    """The files of commit ``rev`` in ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=REPO, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its metrics by name."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        sys.exit(f"{tree.name}: {' '.join(argv[1:])} failed:\n{done.stderr}")
    print(f"{tree.name} {workload} seed {seed}: {lines[-1][:160]}", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(runs: list) -> dict:
    """Median, quartiles and interquartile range of each metric, and the runs."""
    out = {"median": {}, "quartiles": {}, "iqr": {}, "runs": runs}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out["median"][name] = statistics.median(values)
        out["quartiles"][name], out["iqr"][name] = [q1, q3], q3 - q1
    return out


def pairs(trees: dict, workload: str, seed: int, n: int, seconds: float, trace: int) -> dict:
    """``n`` alternating pairs; by side, the metrics of each run."""
    runs = {"parent": [], "change": []}
    for p in range(n):
        for side in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
            runs[side].append(run(trees[side], workload, seed, seconds, trace))
    return runs


def source_lines(tree: Path) -> int:
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src/defcalc").glob("*.py"))


def cached(tree: Path) -> bool:
    """Whether the run left bytecode of defcalc for this interpreter to read."""
    tag = sys.implementation.cache_tag
    return any((tree / "src/defcalc/__pycache__").glob(f"*.{tag}.pyc"))


def machine() -> dict:
    info = {"cpu": platform.processor(), "vcpus": os.cpu_count(), "simd": []}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    for line in cpuinfo:
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            info["cpu"] = value.strip()
        elif key.strip() == "flags":
            info["simd"] = sorted(f for f in value.split() if f.startswith(("avx", "sse4", "fma")))
    probe = "import platform, numpy; print(platform.python_version(), numpy.__version__)"
    versions = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    info["python"], info["numpy"] = (versions.stdout.split() + ["?", "?"])[:2]
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_*.json to write")
    parser.add_argument("--spec", action="append", required=True,
                        help="WORKLOAD/SEED/PAIRS; may be given more than once")
    parser.add_argument("--work", type=Path, help="directory for the two trees (default: temporary)")
    args = parser.parse_args()
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    change_rev = subprocess.run(["git", "stash", "create"], cwd=REPO, check=True,
                                capture_output=True, text=True).stdout.strip() or "HEAD"
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        trees = {"parent": extract(args.parent, Path(work) / "parent"),
                 "change": extract(change_rev, Path(work) / "change")}
        report = {
            "what": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                    "run unmodified on the parent commit and on this change, each from its own "
                    "copy in the same directory tree, in alternating pairs (parent first in odd "
                    "pairs); wins count the pairs in which the change did better",
            "machine": machine(),
            "source_lines": {side: source_lines(tree) for side, tree in trees.items()},
            "workloads": {},
        }
        for spec in args.spec:
            workload, seed, n = spec.split("/")
            runs = pairs(trees, workload, int(seed), int(n), seconds, 0)
            wins = {name: [(c[name] > p[name]) if directions[name] == "higher" else (c[name] < p[name])
                           for p, c in zip(runs["parent"], runs["change"])]
                    for name in runs["parent"][0]}
            parent, change = summary(runs["parent"]), summary(runs["change"])
            report["workloads"][workload if seed == "1" else f"{workload}/{seed}"] = {
                "seed": int(seed), "pairs": int(n), "parent": parent, "change": change,
                "change_wins": {name: sum(w) for name, w in wins.items()},
                "wins_per_pair": wins,
                "change_over_parent": {name: change["median"][name] / parent["median"][name]
                                       for name in parent["median"]},
            }
        report["traced"] = {
            "what": f"perfbench/run.py --workload {TRACED} --seed 1 --seconds {seconds:g} "
                    "--trace 1, alternating pairs (parent first in the first); times are "
                    "seconds per round",
            **pairs(trees, TRACED, 1, TRACED_PAIRS, seconds, 1)}
        report["bytecode"] = {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            "cached": {side: cached(tree) for side, tree in trees.items()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
