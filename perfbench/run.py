"""The wpvol benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh interpreter
(``worker.py``), so the module-level memo tables of wpvol start empty.

With ``--trace 0`` the run repeats whole passes while the next one is expected
to end within S seconds (at least one), adds set-up-only processes until set-up
has been measured three times, and prints every end-to-end metric of
BENCHMARK.json: the median over passes of each pass's value.  With
``--trace 1`` it runs one untraced and one traced pass and prints every
per-layer metric of BENCHMARK.json, with the tracing overhead as the ratio of
the two timed phases.  The spans go to perfbench/out/.

Outputs are checked outside the timed region against golden digests and
fixtures; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
DEADLINE_S = 170.0  # a run must end within 180 s


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile that still has
    at least ``beyond`` samples above it."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = n - beyond
    return 100.0 * rank / n, sorted(samples)[rank - 1]


class Workers:
    """Starts the worker processes of one run."""

    def __init__(self, name: str, seed: int, started: float):
        self.name, self.seed, self.started = name, seed, started

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def __call__(self, mode: str) -> dict:
        env = dict(os.environ, PYTHONHASHSEED="0")
        args = [self.name, str(self.seed), mode, repr(time.perf_counter()), str(HERE / "out")]
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(self.left(), 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker for {self.name} exited {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_metrics(p: dict) -> dict[str, float]:
    return {
        "wall_s": p["wall_s"],
        "op_p50_ms": statistics.median(p["op_ms"]),
        "op_tail_ms": tail_percentile(p["op_ms"])[1],
        "peak_rss_mb": p["peak_rss_mb"],
    }


def measure(workers: Workers, seconds: float):
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(workers("pass"))
        took = time.monotonic() - t0
        if time.monotonic() - workers.started + took > seconds or took > workers.left():
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(workers("setup")["setup_s"])
    per_pass = [pass_metrics(p) for p in passes]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["setup_s"] = statistics.median(setups)
    print(
        f"{workers.name} seed {workers.seed}: {len(passes)} pass(es) of {len(passes[0]['op_ms'])} ops; "
        f"op_tail_ms is p{tail_percentile(passes[0]['op_ms'])[0]:.2f} ({TAIL_BEYOND} samples beyond); "
        f"set-up measured {len(setups)} times; timed phase {statistics.median(p['raw_wall_s'] for p in passes):.3f} s "
        f"before speed normalization"
    )
    return passes, metrics, len({p["digest"] for p in passes}) == 1


def measure_traced(workers: Workers):
    base = workers("pass")
    traced = workers("trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    same = traced["digest"] == base["digest"]
    print(
        f"{workers.name} seed {workers.seed}: traced timed phase {traced['wall_s']:.3f} s against "
        f"{base['wall_s']:.3f} s untraced; output digests {'equal' if same else 'DIFFER'}; "
        f"spans in {traced['spans_file']}"
    )
    return [base, traced], metrics, same


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "wpvol" / "__init__.py").is_file():
        print(f"no wpvol sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2

    workers = Workers(args.workload, args.seed, started)
    try:
        if args.trace:
            passes, metrics, consistent = measure_traced(workers)
            declared = spec["per_layer"]
        else:
            passes, metrics, consistent = measure(workers, args.seconds)
            declared = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    fixture_failures = [line for p in passes for line in p["fixture_failures"]]
    for p in passes:
        for line in p["failures"]:
            print(f"FAILED: {line}")
    for line in fixture_failures:
        print(f"FAILED fixture: {line}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0 and not fixture_failures and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
