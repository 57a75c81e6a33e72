"""Tests of the benchmark's own checks and metric printer.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload is built at a tiny size; a deliberately corrupted output
(one flipped score, one dropped window, a served report that differs
from the direct scan) must fail the workload's check, and the untouched
output must pass it.
"""

from __future__ import annotations

import copy
import json
import resource

import numpy as np
import pytest

from perfbench import checks, inputs, run
from perfbench.tracing import OP, Span, Target, Tracer, layer_metrics
from perfbench.workloads import (
    ChipArray,
    ChipVerified,
    Measured,
    SERVICE_CLIENTS,
    ServiceDurable,
    Sizes,
)

TINY = Sizes(library_clips=24, cnn_epochs=1, chip_nm=2048,
             sample_windows=8, chips=1, array_nx=4, arrays=1,
             service_blocks=2)


def flip_score(report, index: int):
    bad = copy.deepcopy(report)
    bad.scores = np.array(bad.scores, dtype=np.float64)
    bad.scores[index] = 1.0 - bad.scores[index]
    return bad


def drop_window(report):
    bad = copy.deepcopy(report)
    bad.centers = list(bad.centers[:-1])
    bad.scores = np.asarray(bad.scores)[:-1]
    bad.flagged = np.asarray(bad.flagged)[:-1]
    bad.n_windows -= 1
    return bad


@pytest.fixture(scope="module")
def chip_verified(tmp_path_factory):
    workload = ChipVerified(3, tmp_path_factory.mktemp("cv"), sizes=TINY)
    workload.setup()
    assert workload.prepare() == []
    yield workload
    workload.close()


@pytest.fixture(scope="module")
def chip_array(tmp_path_factory):
    workload = ChipArray(3, tmp_path_factory.mktemp("ca"), sizes=TINY)
    workload.setup()
    assert workload.prepare() == []
    yield workload
    workload.close()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    workload = ServiceDurable(3, tmp_path_factory.mktemp("sd"), sizes=TINY)
    workload.setup()
    try:
        assert workload.prepare() == []
        yield workload
    finally:
        workload.close()


# -- chip-verified -----------------------------------------------------------
def test_chip_verified_passes_and_measures(chip_verified):
    measured = chip_verified.measure(0.1)
    assert measured.attempted >= 1 and measured.failed == 0
    assert chip_verified.check(0, chip_verified.scan(0, chip_verified.oracle)) == []


def test_chip_verified_flipped_score_fails(chip_verified):
    report = chip_verified.scan(0, chip_verified.oracle)
    flagged = int(np.flatnonzero(report.flagged)[0])
    assert chip_verified.check(0, flip_score(report, flagged))


def test_chip_verified_dropped_window_fails(chip_verified):
    report = chip_verified.scan(0, chip_verified.oracle)
    assert chip_verified.check(0, drop_window(report))


def test_chip_verified_wrong_verdict_fails(chip_verified):
    report = copy.deepcopy(chip_verified.scan(0, chip_verified.oracle))
    report.confirmed = ~np.asarray(report.confirmed, dtype=bool)
    assert chip_verified.check(0, report)


# -- chip-array ---------------------------------------------------------------
def test_chip_array_passes_and_measures(chip_array):
    measured = chip_array.measure(0.1)
    assert measured.attempted == 2 * measured.rounds
    assert measured.failed == 0
    assert measured.counters["runtime.shard.rescored"] == 4 * measured.rounds


def test_chip_array_flipped_score_fails(chip_array):
    chip = chip_array.chips[0]
    full, rescan, _, _ = chip_array.scan_pair(0)
    assert chip_array.check(chip, flip_score(full, 0), rescan)
    touched = checks.touched_windows(rescan, chip.edit)
    assert chip_array.check(chip, full, flip_score(rescan, touched[0]))


def test_chip_array_dropped_window_fails(chip_array):
    chip = chip_array.chips[0]
    full, rescan, _, _ = chip_array.scan_pair(0)
    assert chip_array.check(chip, drop_window(full), rescan)
    assert chip_array.check(chip, full, drop_window(rescan))


# -- service-durable ----------------------------------------------------------
def test_service_passes_and_measures(service):
    measured = service.measure(0.2)
    assert measured.jobs >= SERVICE_CLIENTS
    assert measured.failed == 0


def test_service_differing_report_fails(service):
    document = service.direct(0).to_json()
    assert service.check(0, document) == []
    payload = json.loads(document)
    payload["scores"][0] = 1.0 - payload["scores"][0]
    assert service.check(0, json.dumps(payload))
    assert service.check(1, document)  # another request's report


def test_service_dropped_window_fails(service):
    payload = json.loads(service.direct(0).to_json())
    for key in ("centers", "scores", "flagged"):
        payload[key] = payload[key][:-1]
    payload["n_windows"] -= 1
    assert service.check(0, json.dumps(payload))


# -- the metric printer -------------------------------------------------------
def _printed(values, section):
    spec = run.load_spec()[section]
    line = json.loads(run.result_line(True, 1, 0, values, spec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line["metrics"], spec


def test_printer_emits_every_end_to_end_metric():
    measured = Measured(latencies=[0.5, 0.7], scan_times=[1.0, 1.2],
                        windows=900, elapsed_s=3.0, rounds=2, attempted=2)
    metrics, spec = _printed(run.end_to_end(measured, [1.0, 2.0, 3.0]),
                             "end_to_end")
    assert [m["name"] for m in spec] == list(metrics)
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_printer_emits_every_per_layer_metric():
    span = Span(0, "nn.forward", 0.0, 1.0, 1.0, None, 1, 0, "op", (64.0,))
    measured = Measured(latencies=[1.0], rounds=1)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    values = run.per_layer([span], measured, measured, usage, usage)
    metrics, spec = _printed(values, "per_layer")
    assert [m["name"] for m in spec] == list(metrics)
    assert metrics["nn.batch_mean"]["value"] == 64.0


def test_printer_refuses_a_missing_metric():
    spec = run.load_spec()["end_to_end"]
    with pytest.raises(KeyError):
        run.result_line(True, 1, 0, {"setup_s": 1.0}, spec)


def test_ledger_self_time_excludes_children():
    parent = Span(0, "runtime.engine.scan", 0.0, 2.0, 0.5, None, 1, 0, "op",
                  (100.0, 40.0, 60.0))
    child = Span(1, "nn.forward", 0.5, 2.0, 1.5, 0, 1, 0, "op", (40.0,))
    values = layer_metrics([parent, child], rounds=1, setup_rounds=1,
                           jobs=0, counters={})
    assert values["runtime.engine.scan_self_s"] == 0.5
    assert values["nn.forward_s"] == 1.5
    assert values["runtime.cache.hit_ratio"] == 0.6


def test_tracer_records_spans_and_restores():
    original = inputs.grid_count
    tracer = Tracer()
    tracer.install([Target("perfbench.inputs", "grid_count", "outer"),
                    Target("perfbench.inputs", "array_chip", "inner")])
    try:
        assert inputs.grid_count is not original
        inputs.grid_count(inputs.Rect(0, 0, 2048, 2048))
        assert tracer.spans == []  # nothing is recorded outside a phase
        tracer.phase = OP
        tracer.set_op(7)
        assert inputs.grid_count(inputs.Rect(0, 0, 2048, 2048)) == 36
    finally:
        tracer.uninstall()
    assert inputs.grid_count is original
    (span,) = tracer.spans
    assert (span.name, span.op, span.parent) == ("outer", 7, None)
    assert 0 <= span.self_s <= span.end - span.start
