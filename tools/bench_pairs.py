"""Run the benchmark alternately on two revisions and compare the pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N [--out FILE]

PARENT and CHANGE are git revisions of the repository this file is in.  Each
run copies the committed files of its side into a new temporary directory
(``git archive``, so no ``__pycache__`` comes along) and runs
``python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 0`` in
it.  Pair i runs the parent first for even i and the change first for odd i.

The result goes into FILE (default ``BENCH.json``) in the layout of the
``BENCH_*.json`` files: ``workloads["W seed S"]`` holds, per side, the runs,
median, quartiles and interquartile range of each end-to-end metric of
BENCHMARK.json, with the sides' correctness and op counts, and per metric the
number of pairs in which the change read lower; ``summary["W seed S"]`` holds
one line per metric.  Other entries of an existing FILE are kept, so one FILE
collects several workloads and seeds.  The top level records both commits,
the command and the machine, with whether PYTHONDONTWRITEBYTECODE was set,
which decides whether a run's imports could write bytecode into its copy.
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

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 10
SIDES = ("parent", "change")


def side_stats(results: list[dict]) -> dict:
    """Per side: ``correct``, ``failed``, ``attempted`` over its runs, and per
    metric the runs with their median, quartiles (inclusive method) and IQR.
    ``results`` are the JSON result lines of ``perfbench/run.py``."""
    metrics = {}
    for name in results[0]["metrics"]:
        runs = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        metrics[name] = {"runs": runs, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    return {
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "metrics": metrics,
    }


def pairs_lower(parent: dict, change: dict) -> dict[str, int]:
    """Per metric, the pairs in which the change's run reads lower."""
    return {
        name: sum(c < p for p, c in zip(m["runs"], change["metrics"][name]["runs"]))
        for name, m in parent["metrics"].items()
    }


def summary_lines(parent: dict, change: dict, bounds: dict[str, float]) -> dict[str, str]:
    """One line per metric: the medians, their relative change, the pairs the
    change read lower in, the median gap (parent minus change) against the
    parent's IQR, and the metric's bound."""
    lower = pairs_lower(parent, change)
    out = {}
    for name, p in parent["metrics"].items():
        c = change["metrics"][name]
        pairs = len(p["runs"])
        rel = 100 * (c["median"] - p["median"]) / p["median"]
        out[name] = (
            f"{p['median']:.4g} -> {c['median']:.4g} ({rel:+.1f} %), change lower in "
            f"{lower[name]}/{pairs} pairs, median gap {p['median'] - c['median']:.4g} "
            f"against a parent IQR of {p['iqr']:.4g}; bound {bounds[name]}"
        )
    return out


def _commit(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()


def _run(commit: str, workload: str, seed: int) -> dict:
    """One benchmark run in a fresh copy of ``commit``: its result line."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", *args], cwd=tmp, check=True, capture_output=True, text=True
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("need at least 2 pairs for quartiles")
    commits = {"parent": _commit(args.parent), "change": _commit(args.change)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    first = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(_run(commits[side], args.workload, args.seed))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    stats = {side: side_stats(results[side]) for side in SIDES}

    out_path = Path(args.out)
    out = json.loads(out_path.read_text()) if out_path.exists() else {}
    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    out.update(
        command=f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        machine=(
            f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}; in each pair "
            "the parent and the change alternate which runs first; every run starts from a fresh copy of "
            f"its side's committed files (git archive); PYTHONDONTWRITEBYTECODE {bytecode}"
        ),
        parent_commit=commits["parent"],
        change_commit=commits["change"],
    )
    key = f"{args.workload} seed {args.seed}"
    out.setdefault("summary", {})[key] = summary_lines(stats["parent"], stats["change"], bounds)
    out.setdefault("workloads", {})[key] = {
        "seed": args.seed,
        "pairs": args.pairs,
        "first_in_pair": first,
        **stats,
        "change_lower_in_pairs": pairs_lower(stats["parent"], stats["change"]),
    }
    out_path.write_text(json.dumps(out, indent=1) + "\n")
    for name, line in out["summary"][key].items():
        print(f"{key} {name}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
