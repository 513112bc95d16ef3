"""One benchmark pass in a fresh interpreter, so every wpvol memo table starts empty.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED OUT_DIR

MODE is ``setup`` (stop after set-up), ``pass`` (set-up, timed ops, checks)
or ``trace`` (a pass with every public wpvol function traced; the spans are
written to OUT_DIR).  SPAWNED is the parent's ``time.perf_counter()`` just
before it started this process, so set-up time counts interpreter start-up.
Times are normalized for machine speed (speed.py).  Prints one JSON object
on stdout.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe


def main(argv: list[str]) -> dict:
    name, seed, mode, spawned, out_dir = argv
    seed, spawned = int(seed), float(spawned)
    probe = SpeedProbe()
    probe.start()

    import workloads

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name]()
    ops = workload.setup(seed)
    setup_end, setup_probes = perf_counter(), probe.total

    spans = []
    outputs = []
    if mode != "setup":
        for op in ops:
            # Objects from set-up and earlier ops move out of the collector's
            # generations, so a collection inside an op scans only what that op
            # made; otherwise full collections land on ops by allocation count
            # and their cost depends on the op order.
            gc.freeze()
            t0, p0 = perf_counter(), probe.total
            try:
                out = workload.run(op)
            except Exception as exc:  # a failed op is counted, and the run goes on
                out = exc
            t1 = perf_counter()
            spans.append((t0, t1, (t1 - t0) - (probe.total - p0)))
            outputs.append(out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()

    scaled = probe.normalizer()
    result = {"setup_s": scaled(spawned, setup_end, setup_end - spawned - setup_probes)}
    if mode == "setup":
        return result
    op_ms = [scaled(*span) * 1000.0 for span in spans]
    result.update(
        wall_s=sum(op_ms) / 1000.0,
        raw_wall_s=sum(busy for _, _, busy in spans),
        op_ms=op_ms,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:  # before the checks, whose own wpvol calls are not part of the pass
        result["layers"] = tracer.metrics()
        path = Path(out_dir) / f"spans-{name}-seed{seed}.json.gz"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(path)
        result["spans_file"] = str(path)

    golden = json.loads((Path(__file__).parent / "golden.json").read_text())
    run_digest = hashlib.sha256()
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failures.append(f"{op}: raised {type(out).__name__}: {out}")
            run_digest.update(b"error\n")
            continue
        try:
            found = workload.problems(op, out)
            for key, value in workload.golden(op, out).items():
                if golden.get(key) != value:
                    found.append(f"{key}: digest {value[:16]} differs from the golden file")
            run_digest.update((workloads.digest(workload.record(op, out)) + "\n").encode())
        except Exception as exc:  # an output the checks cannot read is a failed op
            found = [f"{op}: checking the output raised {type(exc).__name__}: {exc}"]
            run_digest.update(b"error\n")
        if found:
            failures.append("; ".join(found))

    result.update(
        attempted=len(ops),
        failed=len(failures),
        failures=failures[:5],
        fixture_failures=workloads.fixture_problems(),
        digest=run_digest.hexdigest(),
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
