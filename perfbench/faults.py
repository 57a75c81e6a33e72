"""Reproduce the two program faults the benchmark leaves out of its traffic.

Usage, from the root of a checkout::

    python3 perfbench/faults.py

* ``shard-thread-race`` — a 2116-window routed chip scanned by cnn-dct
  as 4 shards on 2 shard-worker threads, against the monolithic scan.
  ``features/dct.py`` keeps the scratch buffers of
  ``feature_tensor_batch`` in a module-level dict, so concurrent shard
  threads can overwrite each other's features.  The fault is
  intermittent; it is reported present if any of ``ATTEMPTS`` scans
  differs from the monolithic one.
* ``chip-job-deadlock`` — two chip jobs submitted together to a
  2-worker fleet.  Each coordinator holds its worker thread while it
  waits for its shard child jobs, so with as many chip jobs as workers
  no worker is left to run a child.  Reported present if neither job
  settles within ``WAIT_S`` seconds; the fleet is then drained, which
  releases the coordinators.

Nothing here is timed, and the benchmark run does not depend on it.  The
command prints one JSON line per fault and exits 0 whatever it finds.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: 46 x 46 = 2116 windows at the 768 nm window, 256 nm step
RACE_CHIP_NM = 768 + 45 * 256

#: seed of the faults' layouts
SEED = 1

#: sharded scans tried against the monolithic one
ATTEMPTS = 3

#: bounded wait for the two chip jobs to settle, in seconds
WAIT_S = 15.0


def shard_thread_race(seed: int, attempts: int) -> dict:
    import numpy as np

    from repro.api import EngineConfig, scan_chip
    from perfbench.inputs import routed_chip, training_library
    from perfbench.workloads import Sizes, fit_cnn

    sizes = Sizes()
    detector = fit_cnn(sizes, training_library(sizes.library_clips))
    layer, region = routed_chip(seed, RACE_CHIP_NM)
    mono = scan_chip(layer, detector,
                     EngineConfig.from_kwargs(infer_backend="fused"),
                     region=region)
    runs = []
    for _ in range(attempts):
        sharded = scan_chip(
            layer, detector,
            EngineConfig.from_kwargs(infer_backend="fused", shards=4,
                                     shard_workers=2, instance_dedup=False),
            region=region,
        )
        diff = np.abs(np.asarray(sharded.scores) - np.asarray(mono.scores))
        runs.append({
            "windows_off": int(np.sum(diff > 1e-9)),
            "max_abs_diff": float(diff.max()),
            "flag_flips": int(np.sum(np.asarray(sharded.flagged)
                                     != np.asarray(mono.flagged))),
        })
    return {
        "fault": "shard-thread-race",
        "present": any(r["windows_off"] for r in runs),
        "windows": mono.n_windows,
        "runs": runs,
    }


def chip_job_deadlock(seed: int, wait_s: float) -> dict:
    from repro.api import (
        JobManager,
        ScanService,
        ServiceClient,
        WorkerFleet,
        create,
        encode_job_request,
    )
    from perfbench.inputs import array_chip, training_library
    from perfbench.workloads import Sizes
    import numpy as np

    detector = create("logistic-density")
    detector.fit(training_library(Sizes().library_clips),
                 rng=np.random.default_rng(0))
    chips = [array_chip(seed + k, 3) for k in range(2)]
    manager = JobManager.in_memory()
    # both jobs are queued before any worker starts, so each of the two
    # workers claims one coordinator (submitted over HTTP, a worker can
    # claim the first job's shard children before the second job lands)
    ids = [
        manager.submit(encode_job_request(
            chip.layer, chip.region, chip={"shards": 4}),
            client="faults").job_id
        for chip in chips
    ]
    fleet = WorkerFleet(manager, detector, workers=2)
    service = ScanService(manager, fleet=fleet).start()
    try:
        client = ServiceClient(service.url)
        deadline = time.monotonic() + wait_s
        states = {}
        while time.monotonic() < deadline:
            states = {i: client.status(i)["state"] for i in ids}
            if all(s not in ("queued", "running") for s in states.values()):
                break
            time.sleep(0.2)
        stuck = sorted(i for i, s in states.items()
                       if s in ("queued", "running"))
    finally:
        drained = service.drain(timeout=10.0)
        service.stop()
    return {
        "fault": "chip-job-deadlock",
        "present": len(stuck) == len(ids),
        "waited_s": wait_s,
        "states": states,
        "drained": drained,
        "threads_left": [t.name for t in threading.enumerate()
                         if t.name.startswith("repro-")],
    }


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"faults: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    print(json.dumps(shard_thread_race(SEED, ATTEMPTS)), flush=True)
    print(json.dumps(chip_job_deadlock(SEED, WAIT_S)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
