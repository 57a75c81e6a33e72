"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chip-verified --seed 1 \\
        --seconds 16 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it holds the host block and the
workload detail (ODST, re-scan time, p90 job latency, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

#: set-up rounds per run, each in a fresh process; setup_s is the median
SETUP_ROUNDS = 3

#: BLAS thread variables reported (never set) by the benchmark
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_block() -> Dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    # with no thread variable set, the BLAS library picks its own count
    threads = next((v for v in env.values() if v), "unset")
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": threads,
        "thread_env": env,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], spec: List[dict]) -> str:
    """The result object: exactly the metrics of ``spec``, with units."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"no value for metric(s) {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec
    }
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(measured, setup_times) -> Dict[str, float]:
    from perfbench.workloads import median

    if measured.jobs:
        ok = measured.jobs - measured.failed
        windows_per_s = ok * measured.windows / measured.elapsed_s
    else:
        windows_per_s = measured.windows / median(measured.scan_times)
    return {
        "setup_s": median(setup_times),
        "latency_p50_s": median(measured.latencies),
        "windows_per_s": windows_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(spans, measured, untraced, ru0, ru1) -> Dict[str, float]:
    """The ledger of a traced run: layer metrics, process counters and
    the tracing overhead (traced over untraced operation latency)."""
    from perfbench.tracing import layer_metrics
    from perfbench.workloads import median

    rounds = max(1, measured.rounds)
    # set-up spans come from the one traced set-up round of this process
    values = layer_metrics(spans, measured.rounds, 1,
                           measured.jobs, measured.counters)
    untraced_latency = median(untraced.latencies)
    values.update({
        "process.cpu_user_s": (ru1.ru_utime - ru0.ru_utime) / rounds,
        "process.cpu_sys_s": (ru1.ru_stime - ru0.ru_stime) / rounds,
        "process.ctx_switches_involuntary":
            (ru1.ru_nivcsw - ru0.ru_nivcsw) / rounds,
        "trace.overhead_pct": 100.0 * (
            median(measured.latencies) / untraced_latency - 1.0
        ) if untraced_latency else 0.0,
    })
    return values


def detail(workload, measured, setup_times) -> Dict[str, object]:
    from perfbench.workloads import median

    out: Dict[str, object] = {
        "setup_rounds_s": [round(t, 4) for t in setup_times],
        "rounds": measured.rounds,
        "measured_s": round(measured.elapsed_s, 3),
    }
    if workload.name == "chip-verified":
        out["windows"] = measured.windows
        out["odst_s"] = median(measured.scan_times)
        out["verified_windows"] = workload.verified_windows
    elif workload.name == "chip-array":
        out["windows"] = measured.windows
        out["full_scan_s"] = median(measured.scan_times)
        out["rescan_s"] = median(measured.latencies)
    else:
        lat = measured.latencies
        out["jobs"] = measured.jobs
        out["jobs_per_s"] = (measured.jobs - measured.failed) \
            / measured.elapsed_s
        out["job_latency_p50_s"] = median(lat)
        # a percentile is reported only with ten samples beyond it
        if len(lat) >= 100:
            out["job_latency_p90_s"] = percentile(lat, 0.9)
    if measured.failures:
        out["failures"] = sorted(set(measured.failures))[:10]
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one cold set-up round only; run.py starts these itself
    parser.add_argument("--setup-round", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_round(args) -> float:
    """A cold set-up round in a fresh process: its ``setup_s``."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-round"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up round failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds, so it stops its set-up child and service
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {names})", file=sys.stderr)
        return 2
    # the other set-up rounds run first, each in its own process, so every
    # round is cold: imports, first-use caches and compiled plans included
    setup_times = [] if args.setup_round else [
        setup_round(args) for _ in range(SETUP_ROUNDS - 1)]

    # set-up clock: from here (program import) until the first input is
    # warmed, the benchmark's own checks excluded
    t0 = perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import OP, SETUP, TARGETS, Tracer
    from perfbench.workloads import WORKLOADS

    out_dir = Path.cwd() / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(TARGETS)
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer=tracer)
    try:
        if tracer is not None:
            tracer.phase = SETUP
        workload.setup()
        if tracer is not None:
            tracer.phase = None
        if args.setup_round:
            workload.warm(0)
            print(json.dumps({"setup_s": perf_counter() - t0}))
            return 0
        problems = workload.prepare(
            lambda: setup_times.append(perf_counter() - t0))
        if tracer is None:
            measured = workload.measure(args.seconds)
        else:
            # half the run without wrappers, half traced: the difference
            # in operation latency is the tracing overhead
            tracer.uninstall()
            untraced = workload.measure(args.seconds / 2)
            tracer.install(TARGETS)
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            tracer.phase = OP
            measured = workload.measure(args.seconds / 2)
            tracer.phase = None
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            tracer.uninstall()
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not problems
    if tracer is None:
        values = end_to_end(measured, setup_times)
        metric_spec = spec["end_to_end"]
        attempted, failed = measured.attempted, measured.failed
    else:
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = per_layer(tracer.spans, measured, untraced, ru0, ru1)
        metric_spec = spec["per_layer"]
        attempted = untraced.attempted + measured.attempted
        failed = untraced.failed + measured.failed
        measured.failures += untraced.failures
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_block(),
        "detail": detail(workload, measured, setup_times),
    }
    if problems:
        info["check_failures"] = problems[:10]
    print(json.dumps(info, sort_keys=True))
    print(result_line(correct, attempted, failed, values, metric_spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
