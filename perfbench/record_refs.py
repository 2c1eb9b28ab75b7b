"""Record the reference report of every benchmark input.

    python3 perfbench/record_refs.py [WORKLOAD ...]

Run at a commit whose driver outputs are trusted; later runs of
`run.py` check every call against these references.  For each
workload it calls the driver once on every driver seed of the pool,
keeps the SHA-256 of the report (and, for the float workload, the
whole report), and splits the pool into the input batches.

The split is stratified by the recorded call time: the pool sorted by
cost is cut into strata of BATCHES inputs, and each stratum deals one
input to every batch in a fixed shuffled order.  Every batch thus holds
the same mix of cheap and costly inputs, so runs on different seeds
time comparable work.
"""

from __future__ import annotations

import json
import random
import sys
from time import perf_counter

from run import OUT_DIR, bootstrap


def stratify(costs: dict[int, float], batches: int, salt: str) -> list[list[int]]:
    rng = random.Random(salt)
    ordered = sorted(costs, key=lambda seed: (costs[seed], seed))
    out: list[list[int]] = [[] for _ in range(batches)]
    for start in range(0, len(ordered), batches):
        stratum = ordered[start : start + batches]
        rng.shuffle(stratum)
        for batch, seed in zip(out, stratum):
            batch.append(seed)
    for batch in out:
        rng.shuffle(batch)
    return out


def record(workload) -> dict:
    from checks import digest
    from workloads import BATCHES

    out = OUT_DIR / f"{workload.name}.csv"
    costs, reports = {}, {}
    for seed in workload.pool:
        start = perf_counter()
        status = workload.call(seed, out)
        costs[seed] = perf_counter() - start
        text = out.read_text(encoding="utf-8")
        if status != 0:
            raise SystemExit(f"{workload.name}: driver seed {seed} exited {status}")
        entry = {"sha256": digest(text), "seconds": round(costs[seed], 4)}
        if not workload.exact:
            entry["csv"] = text
        reports[str(seed)] = entry
    return {
        "workload": workload.name,
        "command": workload.command,
        "config": workload.config,
        "batches": stratify(costs, BATCHES, workload.name),
        "reports": reports,
    }


def main(argv: list[str]) -> int:
    bootstrap()
    from checks import REFS
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    REFS.mkdir(exist_ok=True)
    for name in names:
        data = record(WORKLOADS[name])
        path = REFS / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {len(data['reports'])} reports -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
