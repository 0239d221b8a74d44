"""Recompute the pinned pass digests in digests.json.

    python3 bench/pin_digests.py --seeds 0-47 --jobs 2

Re-pin only when the bytes a workload produces are meant to change: a new
workload size, or a program change whose CHANGES.md entry says why its
outputs moved. A speed-up must leave every digest as it is.
"""

import argparse
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import run  # first: pins the BLAS threads before numpy is imported
import speed
from tracing import StepClock
from workloads import WORKLOADS


def pass_digest(task: tuple[str, int]) -> tuple[str, int, str]:
    workload, seed = task
    run.import_program()
    from ugatlab.sim import TrafficSim

    clock = StepClock(speed.probe)
    clock.install(TrafficSim)
    wl = WORKLOADS[workload](seed, run.WORK / f"pin-{workload}-seed{seed}-pid{os.getpid()}", clock)
    try:
        for j in range(wl.subseeds):
            wl.setup(j)
        return workload, seed, wl.unit()
    finally:
        wl.close()
        clock.uninstall(TrafficSim)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-47")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    tasks = [(w, s) for w in WORKLOADS for s in args.seeds]
    with ProcessPoolExecutor(args.jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(pass_digest, tasks))
    data = json.loads(run.DIGESTS.read_text())
    for workload, seed, digest in results:
        data["digests"].setdefault(workload, {})[str(seed)] = digest
    for workload, table in data["digests"].items():
        data["digests"][workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    run.DIGESTS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"pinned {len(results)} digests in {run.DIGESTS}")


if __name__ == "__main__":
    main()
