"""Record the reference result digests the benchmark checks against.

    python3 hostbench/record_reference.py --seeds 0-31

Runs every operation of every workload once per seed and writes
``hostbench/reference.json``: for each seed, workload and result key
(design, or campaign cell and shard) the digest of every simulated
field.  Run it only at a commit whose results are known good: a later
commit that changes any simulated count then shows up as failed
operations.  Seeds not recorded are still checked for determinism and
for the invariants in :mod:`hostbench.workloads`.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, import_path


def record(seeds) -> dict:
    from hostbench.workloads import WORKLOADS

    digests: dict[str, dict] = {}
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            entry = digests.setdefault(str(seed), {}).setdefault(name, {})
            for op in workload.prepare(seed):
                result = op.run()
                problems = workload.problems(op, result)
                if problems:
                    sys.exit(f"seed {seed} {name}/{op.name}: {problems}")
                entry.update(workload.digests(op, result))
        print(f"recorded seed {seed}", file=sys.stderr, flush=True)
    return {"digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range a-b")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    import_path()
    reference = record(list(range(int(first), int(last or first) + 1)))
    path = ROOT / "hostbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
