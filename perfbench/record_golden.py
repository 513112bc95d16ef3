"""Write golden.json: the SHA-256 of every output the workloads check.

    python3 perfbench/record_golden.py

Run at a commit whose outputs pass the test suite and ``wpvol verify --suite
all``.  Later runs must reproduce these digests bit for bit.  Every op of
volume_table and enumerate is covered whatever the seed; the
point queries are covered through the volume tables of their four spaces,
which include the space of volume_table.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads


def main() -> None:
    golden: dict[str, str] = {}
    sources = [
        workloads.VolumeTable(tuple(dict.fromkeys(workloads.PointQueries.SPACES))),  # includes volume_table's space
        workloads.Enumerate(),
    ]
    problems = workloads.fixture_problems()
    if problems:
        raise SystemExit(f"not recording at a commit that fails the fixtures: {problems}")
    for workload in sources:
        for op in workload.setup(0):
            out = workload.run(op)
            problems = workload.problems(op, out)
            if problems:
                raise SystemExit(f"not recording a failing output: {problems}")
            golden.update(workload.golden(op, out))
    path = Path(__file__).parent / "golden.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {path}")


if __name__ == "__main__":
    main()
