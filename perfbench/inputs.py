"""Seeded inputs: the training library, chips, edits and service blocks.

Every input is a pure function of the workload seed, except the training
library, which is a fixed input drawn from :data:`LIBRARY_SEED`.  The
detectors trained on it decide how much work a chip is (how many windows
the cascade resolves early, how many scores sit near the threshold), so a
library drawn from the workload seed would make the seed, not the
program, set the figures: with a seed-drawn library the same 900-window
chip flagged anywhere from 4 to 323 windows for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.api import ClipDataset, HotspotOracle, Layer, Rect
from repro.data import (
    FamilyMix,
    RoutedBlockConfig,
    generate_clips,
    replicate_block,
    synthesize_routed_block,
)

#: scan geometry shared by every workload (the paper's clip window)
WINDOW_NM = 768
CORE_NM = 256

#: side of the routed cell of the arrays and of a service block
CELL_NM = 2048

#: seed of the fixed training library (see the module docstring)
LIBRARY_SEED = 2017

#: the family mix of the library: gratings, tip pairs and isolated wires
LIBRARY_MIX = FamilyMix(
    weights={"grating": 2.0, "tip_pair": 2.0, "isolated_wire": 1.0},
    marginal_p={},
    default_marginal_p=0.22,
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (workload seed, input stream)."""
    return np.random.default_rng([int(seed), int(stream)])


def grid_count(region: Rect) -> int:
    """Analytic number of scan windows over ``region``."""
    nx = (region.width - WINDOW_NM) // CORE_NM + 1
    ny = (region.height - WINDOW_NM) // CORE_NM + 1
    return max(0, nx) * max(0, ny)


def training_library(n_clips: int) -> ClipDataset:
    """``n_clips`` synthetic clips, litho-labelled by the oracle."""
    clips, _specs = generate_clips(
        np.random.default_rng(LIBRARY_SEED), LIBRARY_MIX, n_clips,
        WINDOW_NM, CORE_NM,
    )
    labels = HotspotOracle().label_many(clips)
    return ClipDataset(name="perfbench-library", clips=clips, labels=labels)


def routed_chip(seed: int, side_nm: int,
                index: int = 0) -> Tuple[Layer, Rect]:
    """A non-repetitive routed chip, one marginal pair per ~1 um^2;
    ``index`` draws further independent chips from the same seed."""
    region = Rect(0, 0, side_nm, side_nm)
    layer, _seeded = synthesize_routed_block(
        _rng(seed, 10 + index), region,
        RoutedBlockConfig(n_marginal=side_nm // 1024),
    )
    return layer, region


@dataclass(frozen=True)
class ArrayChip:
    """A replicated instance array plus a one-cell edit of it."""

    layer: Layer
    edited: Layer
    region: Rect
    edit: Rect


#: edit offsets inside a cell (one shard per cell, the default one-window halo): off the 256 nm scan grid, inside
#: the halo of the left and lower neighbours' shards and outside that of
#: the right and upper ones, so every edit re-scores exactly 4 shards
_EDIT_OFFSETS = (328, 600, 904)


def array_chip(seed: int, nx: int, index: int = 0) -> ArrayChip:
    """An ``nx`` x ``nx`` array of one seeded routed cell, and its edit;
    ``index`` draws further independent arrays from the same seed."""
    rng = _rng(seed, 200 + index)
    cell = Rect(0, 0, CELL_NM, CELL_NM)
    cell_layer, _seeded = synthesize_routed_block(
        rng, cell, RoutedBlockConfig(n_marginal=2, marginal_len_nm=400)
    )
    layer = replicate_block(cell_layer, cell, nx, nx)
    ix, iy = (int(v) for v in rng.integers(1, nx - 1, size=2))
    ox, oy = (int(rng.choice(_EDIT_OFFSETS)) for _ in range(2))
    x1, y1 = ix * CELL_NM + ox, iy * CELL_NM + oy
    edit = Rect(x1, y1, x1 + 300, y1 + 100)
    edited = Layer(layer.name)
    for poly in layer.polygons:
        edited.add(poly)
    edited.add_rects([edit])
    return ArrayChip(
        layer=layer,
        edited=edited,
        region=Rect(0, 0, nx * CELL_NM, nx * CELL_NM),
        edit=edit,
    )


def service_blocks(seed: int, n_blocks: int) -> List[Tuple[Layer, Rect]]:
    """``n_blocks`` distinct routed blocks, one per service request."""
    region = Rect(0, 0, CELL_NM, CELL_NM)
    blocks = []
    for k in range(n_blocks):
        layer, _seeded = synthesize_routed_block(
            _rng(seed, 100 + k), region,
            RoutedBlockConfig(n_marginal=2, marginal_len_nm=400),
        )
        blocks.append((layer, region))
    return blocks
