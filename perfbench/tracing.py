"""Span tracing from outside the program, and the per-layer ledger.

:class:`Tracer` installs timing wrappers around public functions and
methods of the program's modules, at the place where the caller looks the
name up (the importing module's global for a function, the class for a
method).  Each call records a span: name, start, end, self time, parent
span, thread and operation id.  A span's self time is its duration minus
the time its child spans (same thread, nested) cover.  Spans stay in
memory and are written out by :meth:`Tracer.dump` when the run ends.

:func:`layer_metrics` folds the spans of the measured operations into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: recording phases: set-up spans feed the set-up metrics, op spans the
#: per-operation ones; nothing is recorded outside these two
SETUP, OP = "setup", "op"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    self_s: float
    parent: Optional[int]
    thread: int
    op: int
    phase: str
    #: the span's work counts (windows, pixels, bytes, ...), per target
    counts: Tuple[float, ...] = ()


Counter = Callable[[tuple, object, object], Tuple[float, ...]]


@dataclass(frozen=True)
class Target:
    """Where to wrap: ``module`` + dotted ``attr`` (``Class.method``)."""

    module: str
    attr: str
    name: str
    count: Optional[Counter] = None
    #: phases in which the span is recorded
    phases: Tuple[str, ...] = (OP,)
    #: captured before the call and handed to ``count`` (e.g. stats)
    before: Optional[Callable[[tuple], object]] = None
    #: chooses the span name at call time from the tracer's open spans
    name_of: Optional[Callable[["Tracer"], str]] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: int) -> None:
        self._local.op = op

    def in_span(self, name: str) -> bool:
        """True if a span called ``name`` is open on this thread."""
        return any(frame[1] == name for frame in self._stack())

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, target: Target):
        tracer = self
        name_of = target.name_of

        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase not in target.phases:
                return fn(*args, **kwargs)
            name = target.name if name_of is None else name_of(tracer)
            stack = tracer._stack()
            frame = [next(tracer._ids), name, 0.0]
            parent = stack[-1][0] if stack else None
            pre = target.before(args) if target.before else None
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
            counts = target.count(args, out, pre) if target.count else ()
            tracer.spans.append(Span(
                frame[0], name, start, end, end - start - frame[2], parent,
                threading.get_ident(), getattr(tracer._local, "op", -1),
                phase, tuple(float(c) for c in counts),
            ))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap every target (undone by :meth:`uninstall`)."""
        for target in targets:
            owner = importlib.import_module(target.module)
            parts = target.attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(
                owner, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# --------------------------------------------------------------------------
# what to wrap
# --------------------------------------------------------------------------
def _px(args, out, pre):
    return (out.grid.size,)


def _batch(args, out, pre):
    return (len(args[0]),)


def _items(args, out, pre):
    return (len(args[1]),)


def _scan(args, out, pre):
    return out.n_windows, out.n_scored, out.cache_hits


def _cascade_before(args):
    s = args[0].stats
    return s.windows, s.matched_hot, s.filtered_cold, s.primary_scored


def _cascade(args, out, pre):
    s = args[0].stats
    now = (s.windows, s.matched_hot, s.filtered_cold, s.primary_scored)
    return tuple(b - a for a, b in zip(pre, now))


def _matched(args, out, pre):
    return (sum(1 for v in out if v >= args[0].threshold),)


def _label(args, out, pre):
    return (out,)


def _file_bytes(args, out, pre):
    return (Path(out).stat().st_size,)


def _queue_wait(args, out, pre):
    if out is None:
        return (0.0,)
    return (out.attempt_started_at - out.created_at,)


def _job_bytes(args, out, pre):
    return ((args[0].dir / f"{args[1].job_id}.json").stat().st_size,)


def _result_bytes(args, out, pre):
    return (len(args[1].document),)


def _shallow_role(tracer: Tracer) -> str:
    # the logistic-density stage inside a cascade is its prefilter
    if tracer.in_span("runtime.cascade"):
        return "shallow.prefilter"
    return "shallow.predict"


TARGETS: Tuple[Target, ...] = (
    Target("repro.runtime.engine", "rasterize_region", "geometry.rasterize",
           _px),
    Target("repro.runtime.engine", "extract_clip", "geometry.extract_clip"),
    Target("repro.runtime.shard", "extract_clip", "geometry.extract_clip"),
    Target("repro.runtime.shard", "region_fingerprint",
           "geometry.region_fingerprint"),
    Target("repro.features.dct", "feature_tensor_batch", "features.dct",
           _batch),
    Target("repro.features.base", "FeatureExtractor.extract_many",
           "features.extract", _items),
    Target("repro.nn.infer", "InferencePlan.forward", "nn.forward",
           _items),
    Target("repro.nn.model", "Sequential.forward", "nn.forward", _items),
    Target("repro.nn.detector", "CNNDetector.fit", "nn.train",
           phases=(SETUP,)),
    Target("repro.shallow.pattern_match", "FuzzyPatternMatcher.predict_proba",
           "shallow.match", _matched),
    Target("repro.shallow.adapters", "FeatureDetector.predict_proba",
           "shallow.predict", name_of=_shallow_role),
    Target("repro.shallow.adapters", "FeatureDetector.predict_proba_rasters",
           "shallow.predict", name_of=_shallow_role),
    Target("repro.litho.hotspot", "HotspotOracle.label", "litho.label",
           _label, phases=(SETUP, OP)),
    Target("repro.runtime.engine", "ScanEngine.scan", "runtime.engine.scan",
           _scan),
    Target("repro.runtime.cascade", "CascadeDetector.predict_proba",
           "runtime.cascade", _cascade, before=_cascade_before),
    Target("repro.runtime.shard", "ShardPlanner.plan", "runtime.shard.plan"),
    Target("repro.runtime.shard", "ShardRunner.replay_report",
           "runtime.shard.replay"),
    Target("repro.runtime.shard", "merge_reports", "runtime.shard.merge"),
    Target("repro.runtime.shard", "ChipManifest.save",
           "runtime.shard.manifest_save", _file_bytes),
    Target("repro.runtime.shard", "ChipManifest.load",
           "runtime.shard.manifest_load"),
    Target("repro.service.client", "ServiceClient.submit", "service.submit"),
    Target("repro.service.client", "ServiceClient.status", "service.poll"),
    Target("repro.service.client", "ServiceClient.result", "service.result"),
    Target("repro.service.manager", "JobManager.claim", "service.claim",
           _queue_wait),
    Target("repro.runtime.engine", "ScanReport.to_json", "service.serialize"),
    Target("repro.service.filestore", "FileJobStore.put", "service.store",
           _job_bytes),
    Target("repro.service.filestore", "FileJobStore.update",
           "service.store_update"),
    Target("repro.service.filestore", "FileJobQueue.push", "service.store"),
    Target("repro.service.filestore", "FileResultStore.put", "service.store",
           _result_bytes),
)


# --------------------------------------------------------------------------
# the ledger
# --------------------------------------------------------------------------
def layer_metrics(spans: List[Span], rounds: int, setup_rounds: int,
                  jobs: int, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics: op-span totals per round, set-up per set-up round.

    Times are self times unless the name says otherwise.  ``counters``
    holds counts the workload read off its own operations' reports (shard
    scans, re-scored shards, ...), summed over the traced rounds; ``jobs``
    is the number of served jobs, the base of the ``service.*`` metrics.
    """
    op = [s for s in spans if s.phase == OP]
    setup = [s for s in spans if s.phase == SETUP]

    def pick(name, pool=None):
        return [s for s in (op if pool is None else pool) if s.name == name]

    def self_s(name, pool=None):
        return sum(s.self_s for s in pick(name, pool))

    def count(name, k=0, pool=None):
        return sum(s.counts[k] for s in pick(name, pool) if len(s.counts) > k)

    def calls(name, pool=None):
        return len(pick(name, pool))

    def ratio(a, b):
        return a / b if b else 0.0

    r, su, j = max(1, rounds), max(1, setup_rounds), max(1, jobs)
    fwd_calls = calls("nn.forward")
    fwd_windows = count("nn.forward")
    store = pick("service.store") + pick("service.store_update")
    # engine scans on worker threads (no operation id) are the served jobs'
    served_scans = [s for s in pick("runtime.engine.scan") if s.op < 0]
    return {
        "geometry.rasterize_s": self_s("geometry.rasterize") / r,
        "geometry.rasterized_px": count("geometry.rasterize") / r,
        "geometry.extract_clip_s": self_s("geometry.extract_clip") / r,
        "geometry.clips_extracted": calls("geometry.extract_clip") / r,
        "geometry.region_fingerprint_s":
            self_s("geometry.region_fingerprint") / r,
        "features.dct_s": self_s("features.dct") / r,
        "features.windows": count("features.dct") / r,
        "features.extract_s": self_s("features.extract") / r,
        "nn.forward_s": self_s("nn.forward") / r,
        "nn.forward_calls": fwd_calls / r,
        "nn.forward_windows": fwd_windows / r,
        "nn.batch_mean": ratio(fwd_windows, fwd_calls),
        "nn.train_s": self_s("nn.train", setup) / su,
        "shallow.match_s": self_s("shallow.match") / r,
        "shallow.match_hits": count("shallow.match") / r,
        "shallow.prefilter_s": self_s("shallow.prefilter") / r,
        "shallow.predict_s": self_s("shallow.predict") / r,
        "litho.verify_s": self_s("litho.label") / r,
        "litho.verified_windows": calls("litho.label") / r,
        "litho.confirmed": count("litho.label") / r,
        "litho.label_s": self_s("litho.label", setup) / su,
        "litho.labelled_clips": calls("litho.label", setup) / su,
        "runtime.engine.scan_self_s": self_s("runtime.engine.scan") / r,
        "runtime.engine.windows_scored": count("runtime.engine.scan", 1) / r,
        "runtime.cache.hit_ratio": ratio(count("runtime.engine.scan", 2),
                                         count("runtime.engine.scan", 0)),
        "runtime.cascade.resolved_matcher": count("runtime.cascade", 1) / r,
        "runtime.cascade.resolved_prefilter": count("runtime.cascade", 2) / r,
        "runtime.cascade.primary_scored": count("runtime.cascade", 3) / r,
        "runtime.shard.plan_s": self_s("runtime.shard.plan") / r,
        "runtime.shard.scans": counters.get("runtime.shard.scans", 0) / r,
        "runtime.shard.replays": counters.get("runtime.shard.replays", 0) / r,
        "runtime.shard.replay_s": self_s("runtime.shard.replay") / r,
        "runtime.shard.merge_s": self_s("runtime.shard.merge") / r,
        "runtime.shard.manifest_save_s":
            self_s("runtime.shard.manifest_save") / r,
        "runtime.shard.manifest_load_s":
            self_s("runtime.shard.manifest_load") / r,
        "runtime.shard.manifest_bytes":
            count("runtime.shard.manifest_save") / r,
        "runtime.shard.rescored":
            counters.get("runtime.shard.rescored", 0) / r,
        "runtime.shard.reused": counters.get("runtime.shard.reused", 0) / r,
        "service.submit_s": self_s("service.submit") / j,
        "service.polls_per_job": calls("service.poll") / j,
        "service.result_fetch_s": self_s("service.result") / j,
        "service.queue_wait_s": count("service.claim") / j,
        "service.scan_s": sum(s.end - s.start for s in served_scans) / j,
        "service.serialize_s": self_s("service.serialize") / j,
        "service.store_writes": calls("service.store") / j,
        "service.store_write_s": sum(s.self_s for s in store) / j,
        "service.store_bytes": count("service.store") / j,
    }
