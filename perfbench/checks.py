"""Output checks.  Each returns a list of failure messages (empty = pass).

The checks compare the program's outputs with independent references:
per-clip scoring of the same windows, a fresh oracle call, the analytic
window count, or a property the method must have (translation
invariance, edit locality, served = direct).  None compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api import Rect, canonical_report_json, extract_clip

from .inputs import CELL_NM, CORE_NM, WINDOW_NM, grid_count

#: score tolerance between scan paths and per-clip reference scoring: the
#: repo pins fused-vs-layers forward parity at 1e-10, and batch-size
#: dependent BLAS reductions stay well inside 1e-9
SCORE_ATOL = 1e-9


def window_extent(center: Tuple[int, int]) -> Rect:
    return Rect.from_center(int(center[0]), int(center[1]),
                            WINDOW_NM, WINDOW_NM)


def check_window_count(report, region: Rect) -> List[str]:
    want = grid_count(region)
    got = [report.n_windows, len(report.centers), len(report.scores),
           len(report.flagged)]
    if any(n != want for n in got):
        return [f"window count {got} != analytic {want}"]
    return []


def check_flags(report, threshold: float) -> List[str]:
    scores = np.asarray(report.scores, dtype=np.float64)
    flagged = np.asarray(report.flagged, dtype=bool)
    if scores.shape != flagged.shape:
        return [f"scores {scores.shape} vs flags {flagged.shape}"]
    wrong = np.flatnonzero(flagged != (scores >= threshold))
    if len(wrong):
        return [f"{len(wrong)} flags disagree with score >= threshold"]
    return []


def check_reference_scores(report, indices: Sequence[int], layer,
                           reference, label: str = "") -> List[str]:
    """Scores at ``indices`` equal per-clip scoring by ``reference``."""
    idx = [int(i) for i in indices]
    if not idx:
        return []
    if max(idx) >= len(report.scores):
        return [f"{label}sample index beyond {len(report.scores)} windows"]
    clips = [
        extract_clip(layer, report.centers[i], WINDOW_NM, CORE_NM)
        for i in idx
    ]
    want = np.asarray(reference.predict_proba(clips), dtype=np.float64)
    got = np.asarray(report.scores, dtype=np.float64)[idx]
    diff = np.abs(got - want)
    bad = np.flatnonzero(~(diff <= SCORE_ATOL))
    if len(bad):
        return [
            f"{label}{len(bad)}/{len(idx)} sampled scores differ from "
            f"per-clip scoring (max {float(np.nanmax(diff)):.3g})"
        ]
    return []


def check_confirmed(report, layer, oracle) -> List[str]:
    """Verdicts cover exactly the flagged windows and match the oracle."""
    flagged = np.flatnonzero(np.asarray(report.flagged, dtype=bool))
    if report.confirmed is None:
        return ["no verification verdicts"]
    confirmed = np.asarray(report.confirmed, dtype=bool)
    if len(confirmed) != len(flagged):
        return [f"{len(confirmed)} verdicts for {len(flagged)} flagged"]
    labels = np.array([
        bool(oracle.label(
            extract_clip(layer, report.centers[i], WINDOW_NM, CORE_NM)))
        for i in flagged
    ], dtype=bool)
    wrong = int(np.sum(labels != confirmed))
    if wrong:
        return [f"{wrong}/{len(flagged)} verdicts differ from the oracle"]
    return []


def interior_windows(centers) -> Dict[Tuple[int, int], List[int]]:
    """Windows lying wholly inside one array cell, grouped by cell-local
    offset."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, center in enumerate(centers):
        ext = window_extent(center)
        cx, cy = ext.x1 // CELL_NM, ext.y1 // CELL_NM
        if ext.x2 > (cx + 1) * CELL_NM or ext.y2 > (cy + 1) * CELL_NM:
            continue
        key = (ext.x1 - cx * CELL_NM, ext.y1 - cy * CELL_NM)
        groups.setdefault(key, []).append(i)
    return groups


def check_translation_invariance(report) -> List[str]:
    """Congruent interior windows of different copies score the same."""
    scores = np.asarray(report.scores, dtype=np.float64)
    groups = interior_windows(report.centers)
    if not groups:
        return ["no window lies wholly inside one cell"]
    spread = max(float(np.ptp(scores[idx])) for idx in groups.values())
    if not spread <= SCORE_ATOL:
        return [f"congruent windows differ by up to {spread:.3g}"]
    return []


def check_edit_locality(before, after, edit: Rect) -> List[str]:
    """Windows missing the edit keep their pre-edit scores."""
    if len(before.scores) != len(after.scores):
        return [f"re-scan has {len(after.scores)} windows, "
                f"full scan {len(before.scores)}"]
    untouched = [
        i for i, c in enumerate(after.centers)
        if window_extent(c).intersection(edit) is None
    ]
    diff = np.abs(np.asarray(after.scores)[untouched]
                  - np.asarray(before.scores)[untouched])
    moved = int(np.sum(~(diff <= SCORE_ATOL)))
    if moved:
        return [f"{moved} windows away from the edit changed score"]
    return []


def touched_windows(report, edit: Rect) -> List[int]:
    return [
        i for i, c in enumerate(report.centers)
        if window_extent(c).intersection(edit) is not None
    ]


def expected_rescored(plan, edit: Rect) -> int:
    """Shards whose halo-widened scan region meets the edit."""
    return sum(
        1 for spec in plan.shards if spec.region.intersection(edit) is not None
    )


def check_served(document: str, direct_canonical: str) -> List[str]:
    """A served report's canonical form equals the direct scan's."""
    try:
        served = canonical_report_json(document)
    except (ValueError, KeyError) as exc:
        return [f"served report unreadable: {exc}"]
    if served != direct_canonical:
        return ["served report differs from the direct scan"]
    return []
