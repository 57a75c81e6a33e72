"""The three workloads: set-up, a checked warm-up round, timed rounds.

Each workload object is driven by ``run.py`` in the same order:
``setup()``, then ``prepare()``: one warm-up operation per input
(``warm(k)``), whose outputs get every independent check
(``check_warm(k)``), then ``measure(seconds)`` (closed-loop timed rounds,
each checked against the warm-up output of its input), then ``close()``.
Set-up time runs until the first input is warmed, so lazy work the
program does on first use counts as set-up.
"""

from __future__ import annotations

import copy
import random
import shutil
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import (
    CascadeDetector,
    EngineConfig,
    HotspotOracle,
    JobManager,
    ScanEngine,
    ScanService,
    ServiceClient,
    ShardPlanner,
    WorkerFleet,
    canonical_report_json,
    create,
    encode_job_request,
    scan_chip,
)
from repro.nn import CNNDetectorConfig
from repro.service import (
    FileJobQueue,
    FileJobStore,
    FileResultStore,
    ServiceError,
)

from . import checks
from .inputs import (
    CELL_NM,
    CORE_NM,
    LIBRARY_SEED,
    WINDOW_NM,
    array_chip,
    routed_chip,
    service_blocks,
    training_library,
)
from .tracing import Tracer


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    library_clips: int = 64
    cnn_epochs: int = 3
    chip_nm: int = 8192
    chips: int = 2
    sample_windows: int = 24
    array_nx: int = 12
    arrays: int = 4
    service_blocks: int = 8


#: share of each chip's windows flagged, and so litho-verified, on
#: ``chip-verified``
VERIFY_SHARE = 0.04

#: closed-loop clients and fleet workers of ``service-durable`` (the
#: host's 2 CPUs)
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2


@dataclass
class Measured:
    """What the timed rounds produced."""

    #: the user-facing latency of each operation (see README)
    latencies: List[float] = field(default_factory=list)
    #: wall time of each full chip scan (chip workloads)
    scan_times: List[float] = field(default_factory=list)
    #: windows per full scan, or per served job
    windows: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    jobs: int = 0
    elapsed_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def note(self, problems: List[str], ops: int = 1) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.failures.extend(problems)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)


def canonical(report) -> str:
    return canonical_report_json(report.to_json())


def sample_indices(seed: int, n: int, k: int, always=()) -> List[int]:
    """``always`` plus ``k`` seeded window indices."""
    rng = np.random.default_rng([int(seed), 9])
    picked = set(int(i) for i in always)
    picked.update(int(i) for i in rng.choice(n, size=min(k, n),
                                            replace=False))
    return sorted(picked)


def fit_cnn(sizes: Sizes, library):
    detector = create("cnn-dct", config=CNNDetectorConfig(
        epochs=sizes.cnn_epochs, biased_epochs=1, backend="fused"))
    detector.fit(library, rng=np.random.default_rng(LIBRARY_SEED))
    return detector


class Workload:
    name = ""
    #: operations in one round (the unit of ``attempted``)
    ops_per_round = 1

    def __init__(self, seed: int, workdir: Path,
                 sizes: Optional[Sizes] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes or Sizes()
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self) -> int:
        raise NotImplementedError

    def warm(self, k: int) -> None:
        """The untimed operation(s) on input ``k``; keeps the outputs."""
        raise NotImplementedError

    def check_warm(self, k: int) -> List[str]:
        """Every independent check of the outputs ``warm(k)`` kept."""
        raise NotImplementedError

    def prepare(self, first_warmed: Callable[[], None] = lambda: None
                ) -> List[str]:
        """Warm and check every input; ``first_warmed`` is called once the
        first input is warmed, before any check runs."""
        problems = []
        for k in range(self.inputs()):
            self.warm(k)
            if k == 0:
                first_warmed()
            problems += self.check_warm(k)
        return problems

    def measure(self, seconds: float) -> Measured:
        raise NotImplementedError

    def close(self) -> None:
        pass

    @contextmanager
    def untraced(self):
        """Suspend span recording (the benchmark's own checking code)."""
        phase = self.tracer.phase if self.tracer is not None else None
        if self.tracer is not None:
            self.tracer.phase = None
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.phase = phase

    def _closed_loop(self, seconds: float,
                     one_round: Callable[[Measured], None],
                     cycle: int = 1) -> Measured:
        """Rounds until ``seconds`` have passed, in whole cycles and at
        least two of them, so every input is measured at least twice."""
        out = Measured()
        t0 = perf_counter()
        while (perf_counter() - t0 < seconds or out.rounds < 2 * cycle
               or out.rounds % cycle):
            if self.tracer is not None:
                self.tracer.set_op(out.rounds)
            one_round(out)
            out.rounds += 1
        out.elapsed_s = perf_counter() - t0
        return out


# --------------------------------------------------------------------------
class ChipVerified(Workload):
    """Routed chips scanned by cnn-dct (fused), every flag re-simulated.

    Rounds cycle through ``sizes.chips`` seeded chips, so one run's
    figures average over several layouts rather than resting on one.
    """

    name = "chip-verified"

    def setup(self) -> None:
        sizes = self.sizes
        self.detector = fit_cnn(sizes, training_library(sizes.library_clips))
        self.chips = [routed_chip(self.seed, sizes.chip_nm, k)
                      for k in range(sizes.chips)]
        self.oracle = HotspotOracle()
        self.config = EngineConfig.from_kwargs(infer_backend="fused")
        self.thresholds: List[float] = []
        self.reference: List[str] = []
        self.warmed: list = []

    def inputs(self) -> int:
        return len(self.chips)

    def scan(self, k: int, oracle=None):
        """Chip ``k`` at its operating point (once ``warm(k)`` set it)."""
        if k < len(self.thresholds):
            self.detector.threshold = self.thresholds[k]
        layer, region = self.chips[k]
        return scan_chip(layer, self.detector, self.config, region=region,
                         window_nm=WINDOW_NM, core_nm=CORE_NM, oracle=oracle)

    def warm(self, k: int) -> None:
        # operating point: verify the top ``VERIFY_SHARE`` of the chip's
        # windows, so every seed puts the same number through litho
        probe = self.scan(k)
        n = max(1, round(VERIFY_SHARE * probe.n_windows))
        self.thresholds.append(float(np.sort(probe.scores)[::-1][n - 1]))
        report = self.scan(k, self.oracle)
        self.reference.append(canonical(report))
        self.warmed.append(report)
        self.verified_windows = report.n_flagged
        self.n_windows = report.n_windows

    def check_warm(self, k: int) -> List[str]:
        return [f"chip {k}: {p}" for p in self.check(k, self.warmed[k])]

    def check(self, k: int, report) -> List[str]:
        """Every independent check of one verified scan of chip ``k``."""
        layer, region = self.chips[k]
        layers = copy.deepcopy(self.detector)
        layers.set_backend("layers")
        flagged = np.flatnonzero(np.asarray(report.flagged, dtype=bool))
        sample = sample_indices(self.seed, len(report.scores),
                                self.sizes.sample_windows, flagged)
        return (
            checks.check_window_count(report, region)
            + checks.check_flags(report, self.thresholds[k])
            + checks.check_reference_scores(report, sample, layer, layers)
            + checks.check_confirmed(report, layer, HotspotOracle())
        )

    def measure(self, seconds: float) -> Measured:
        def one_round(out: Measured) -> None:
            k = out.rounds % len(self.chips)
            t0 = perf_counter()
            report = self.scan(k, self.oracle)
            dt = perf_counter() - t0
            out.latencies.append(dt)
            out.scan_times.append(dt)
            with self.untraced():
                same = canonical(report) == self.reference[k]
            out.note([] if same else [f"chip {k}: verified scan differs "
                                      "from its checked warm-up scan"])

        out = self._closed_loop(seconds, one_round, cycle=len(self.chips))
        out.windows = self.n_windows
        return out


# --------------------------------------------------------------------------
class ChipArray(Workload):
    """A replicated array: cascade full scan with manifest, then re-scan."""

    name = "chip-array"
    ops_per_round = 2

    def setup(self) -> None:
        sizes = self.sizes
        library = training_library(sizes.library_clips)
        primary = create("cnn-dct", config=CNNDetectorConfig(
            epochs=sizes.cnn_epochs, biased_epochs=1, backend="fused"))
        self.detector = CascadeDetector(
            primary,
            matcher=create("pattern-fuzzy"),
            prefilter=create("logistic-density"),
        )
        self.detector.fit(library, rng=np.random.default_rng(LIBRARY_SEED))
        self.chips = [
            array_chip(self.seed, sizes.array_nx, k)
            for k in range(sizes.arrays)
        ]
        self.workdir.mkdir(parents=True, exist_ok=True)
        shard = dict(shards=sizes.array_nx ** 2, snap_nm=CELL_NM)
        self.configs = []
        for k in range(sizes.arrays):
            manifest = self.workdir / f"chip-manifest-{k}.npz"
            self.configs.append((
                EngineConfig.from_kwargs(manifest=manifest, **shard),
                EngineConfig.from_kwargs(rescan_from=manifest, **shard),
            ))
        self.plan = ShardPlanner(shard["shards"], snap_nm=shard["snap_nm"]).plan(
            self.chips[0].region, WINDOW_NM, CORE_NM)
        self.reference: list = []
        self.warmed: list = []

    def inputs(self) -> int:
        return len(self.chips)

    def scan_pair(self, k: int):
        """Array ``k``: full scan writing its manifest, then the re-scan
        of the edited array from that manifest."""
        chip, (full_config, rescan_config) = self.chips[k], self.configs[k]
        t0 = perf_counter()
        full = scan_chip(chip.layer, self.detector, full_config,
                         region=chip.region, window_nm=WINDOW_NM,
                         core_nm=CORE_NM)
        t1 = perf_counter()
        rescan = scan_chip(chip.edited, self.detector, rescan_config,
                           region=chip.region, window_nm=WINDOW_NM,
                           core_nm=CORE_NM)
        return full, rescan, t1 - t0, perf_counter() - t1

    def warm(self, k: int) -> None:
        full, rescan, _, _ = self.scan_pair(k)
        self.reference.append((canonical(full), canonical(rescan)))
        self.warmed.append((full, rescan))
        self.n_windows = full.n_windows

    def check_warm(self, k: int) -> List[str]:
        return [f"array {k}: {p}" for p in
                self.check(self.chips[k], *self.warmed[k])]

    def check(self, chip, full, rescan) -> List[str]:
        """Every independent check of one full scan and its re-scan."""
        detector = self.detector
        problems = []
        for report in (full, rescan):
            problems += checks.check_window_count(report, chip.region)
            problems += checks.check_flags(report, detector.threshold)
        problems += checks.check_translation_invariance(full)
        # the same invariance without the scan's dedup: per-clip scoring
        # of one congruent window in two different copies
        groups = checks.interior_windows(full.centers)
        copies = max(groups.values(), key=len) if groups else []
        sample = sample_indices(self.seed, len(full.scores),
                                self.sizes.sample_windows,
                                copies[:1] + copies[-1:])
        problems += checks.check_reference_scores(full, sample, chip.layer,
                                                  detector)
        problems += checks.check_edit_locality(full, rescan, chip.edit)
        problems += checks.check_reference_scores(
            rescan, checks.touched_windows(rescan, chip.edit), chip.edited,
            detector, label="edited: ")
        rescored = rescan.telemetry.counter("rescan_shards_rescored")
        want = checks.expected_rescored(self.plan, chip.edit)
        if rescored != want:
            problems.append(f"{rescored} shards re-scored, the edit meets "
                            f"{want} shard regions")
        return problems

    def measure(self, seconds: float) -> Measured:
        def one_round(out: Measured) -> None:
            k = out.rounds % len(self.chips)
            full, rescan, full_s, rescan_s = self.scan_pair(k)
            out.scan_times.append(full_s)
            out.latencies.append(rescan_s)
            with self.untraced():
                same = (canonical(full),
                        canonical(rescan)) == self.reference[k]
            out.note([] if same else [f"array {k}: full scan or re-scan "
                                      "differs from its checked warm-up"],
                     self.ops_per_round)
            for report in (full, rescan):
                tele = report.telemetry
                out.add("runtime.shard.scans", tele.counter("shard_scans"))
                out.add("runtime.shard.replays", tele.counter("shard_replays"))
            out.add("runtime.shard.rescored",
                    rescan.telemetry.counter("rescan_shards_rescored"))
            out.add("runtime.shard.reused",
                    rescan.telemetry.counter("rescan_shards_reused"))

        out = self._closed_loop(seconds, one_round, cycle=len(self.chips))
        out.windows = self.n_windows
        return out


# --------------------------------------------------------------------------
class ServiceDurable(Workload):
    """Closed-loop clients against a 2-worker fleet on file-backed stores."""

    name = "service-durable"
    _service: Optional[ScanService] = None

    def setup(self) -> None:
        self.close()
        sizes = self.sizes
        self.detector = create("logistic-density")
        self.detector.fit(training_library(sizes.library_clips),
                          rng=np.random.default_rng(LIBRARY_SEED))
        self.blocks = service_blocks(self.seed, sizes.service_blocks)
        self.requests = [
            encode_job_request(layer, region, WINDOW_NM, CORE_NM,
                               engine={"chunk_clips": 64})
            for layer, region in self.blocks
        ]
        state = self.workdir / "state"
        shutil.rmtree(state, ignore_errors=True)
        store, results = FileJobStore(state), FileResultStore(state)
        manager = JobManager(store, FileJobQueue(state), results,
                             checkpoint_root=state / "checkpoints")
        store.on_quarantine = manager.on_quarantine
        results.on_quarantine = manager.on_quarantine
        fleet = WorkerFleet(manager, self.detector, workers=SERVICE_WORKERS)
        self._service = ScanService(manager, fleet=fleet).start()
        self.reference: List[str] = []
        self.served: list = []

    def inputs(self) -> int:
        return len(self.requests)

    def client(self, i: int) -> ServiceClient:
        """Client ``i``, its poll jitter seeded from the workload seed."""
        return ServiceClient(self._service.url, client_id=f"perfbench-{i}",
                             rng=random.Random(self.seed * 1000 + i))

    def job(self, client: ServiceClient, index: int):
        """Submit request ``index``, wait, fetch: (document, error)."""
        try:
            job_id = str(client.submit(self.requests[index])["job_id"])
            client.wait(job_id, timeout_s=60.0)
            return client.result(job_id), None
        except (ServiceError, TimeoutError, OSError) as exc:
            return "", f"job failed: {exc}"

    def direct(self, index: int):
        layer, region = self.blocks[index]
        engine = ScanEngine(self.detector,
                            EngineConfig.from_kwargs(chunk_clips=64))
        return engine.scan(layer, region, WINDOW_NM, CORE_NM)

    def warm(self, k: int) -> None:
        # the direct scan is the served report's reference; one served
        # job of the request warms the HTTP and store paths
        report = self.direct(k)
        self.reference.append(canonical(report))
        self.served.append((report, self.job(self.client(SERVICE_CLIENTS),
                                             k)))
        self.windows_per_job = report.n_windows

    def check_warm(self, k: int) -> List[str]:
        report, (document, error) = self.served[k]
        sample = sample_indices(self.seed + k, len(report.scores),
                                self.sizes.sample_windows // 4)
        problems = checks.check_reference_scores(
            report, sample, self.blocks[k][0], self.detector,
            label=f"block {k}: ")
        return problems + ([error] if error else self.check(k, document))

    def check(self, index: int, document: str) -> List[str]:
        return checks.check_served(document, self.reference[index])

    def _clients(self, deadline: float):
        """Run the closed-loop clients until ``deadline``; each client
        completes at least one job.  Returns (request, document, latency,
        error) per job."""
        n_clients = SERVICE_CLIENTS
        done: List[list] = [[] for _ in range(n_clients)]

        def client_loop(i: int) -> None:
            client = self.client(i)
            k = i
            while True:
                if self.tracer is not None:
                    self.tracer.set_op(k)
                index = k % len(self.requests)
                t0 = perf_counter()
                document, error = self.job(client, index)
                done[i].append((index, document, perf_counter() - t0, error))
                k += n_clients
                if perf_counter() >= deadline:
                    return

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"perfbench-client-{i}")
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [job for jobs in done for job in jobs]

    def measure(self, seconds: float) -> Measured:
        out = Measured()
        t0 = perf_counter()
        jobs = self._clients(t0 + seconds)
        out.elapsed_s = perf_counter() - t0
        with self.untraced():
            for index, document, latency, error in jobs:
                out.latencies.append(latency)
                out.note([error] if error else self.check(index, document))
        out.jobs = out.rounds = len(jobs)
        out.windows = self.windows_per_job
        return out

    def close(self) -> None:
        if self._service is not None:
            self._service.stop()
            self._service = None


WORKLOADS = {w.name: w for w in (ChipVerified, ChipArray, ServiceDurable)}


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
