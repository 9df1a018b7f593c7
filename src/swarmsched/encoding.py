"""Continuous-to-discrete decoding and capacity-aware task mapping.

A coordinate x decodes through |x| mod m, a point on a circle of
circumference m that the VMs' arcs cover in VM order. Each VM's arc is as
long as its share of the fleet's speed, so a uniform spread of coordinates
loads every VM for about the same time; on identical VMs the arcs are the
unit intervals and the decode is floor(|x|) mod m.

The mapper takes one position or a (k, n) block of them. It decodes the
whole block at once and totals every row's per-VM loads in one weighted
bincount. A row whose totals all stay within the capacity threshold never
reroutes a task, so its raw decode is the answer; only the rows that breach
run the sequential placement loop.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .domain import EtcMatrix

__all__ = [
    "decode_position",
    "encode_plan",
    "capacity_threshold",
    "map_with_loads",
]


def decode_position(
    position: Sequence[float] | np.ndarray, m: int, arcs: np.ndarray | None = None
) -> np.ndarray:
    """Map continuous coordinates to VM indices, elementwise.

    Without arcs every VM's arc is a unit interval, and x_i decodes to
    floor(|x_i|) mod m: the integer cast truncates, which floors a
    non-negative value, and fmod is exact, so trunc(fmod(|x_i|, m)) is
    floor(|x_i|) mod m. With arcs, the m - 1 ascending inner edges of
    EtcMatrix.arcs, x_i decodes to the number of edges at or below
    fmod(|x_i|, m). Either way the fmod runs only if some |x_i| reaches m:
    below m, |x_i| is its own remainder.

    The edge count is one vectorized comparison pass per edge, with no
    data-dependent branch, summed in the narrowest unsigned integer that
    holds m - 1 (one byte up to 256 VMs) and widened to int64 once. On
    fresh coordinates it beats a binary search (searchsorted, side="right",
    which it equals bit for bit) up to 256 VMs, runs about even with it up
    to about 320, and loses beyond, where its cost grows with m.
    """
    if m < 1:
        raise ValueError(f"need at least one VM, got m={m}")
    if arcs is not None and len(arcs) != m - 1:
        raise ValueError(f"arcs must hold m - 1 = {m - 1} edges for m={m}, got {len(arcs)}")
    coords = np.abs(np.asarray(position, dtype=float))  # a fresh copy, so fmod may write into it
    # the reduce that coords.max(initial=0.0) runs; NaN and +-inf leave it
    # non-finite. top is a float64, a float subclass, and math.isfinite reads
    # it in a twentieth of np.isfinite's time
    top = np.maximum.reduce(coords, axis=None, initial=0.0)
    if not math.isfinite(top):
        raise ValueError("non-finite coordinate in position")
    if top >= m:
        # mod in float space, as |x| may pass int64; on x >= 0 fmod is mod bit for bit
        np.fmod(coords, m, out=coords)
    if arcs is None:
        return coords.astype(np.int64)
    # the comparisons are bytes of 0 or 1, so read as uint8 they sum in one
    # byte with no cast. A count never exceeds m - 1, so the narrow sum
    # cannot wrap; the one-byte case skips min_scalar_type, which costs a
    # tenth of a small block's decode.
    hits = np.less_equal.outer(arcs, coords).view(np.uint8)
    narrow = np.uint8 if m <= 256 else np.min_scalar_type(m - 1)
    return np.add.reduce(hits, axis=0, dtype=narrow).astype(np.intp)


def encode_plan(plan: Sequence[int] | np.ndarray, arcs: np.ndarray | None = None) -> np.ndarray:
    """A position that decode_position maps back to plan: each task at its VM's arc middle.

    arcs are EtcMatrix.arcs; without them the arcs are the unit intervals,
    and VM j's middle is j + 0.5.
    """
    plan = np.asarray(plan, dtype=np.int64)
    if arcs is None:
        return plan + 0.5
    edges = np.concatenate(([0.0], arcs, [len(arcs) + 1.0]))
    return ((edges[:-1] + edges[1:]) / 2.0)[plan]


def capacity_threshold(etc: EtcMatrix, headroom_theta: float) -> float:
    """Per-VM load ceiling: headroom_theta (>= 1) times etc.share, the proportional share."""
    if not headroom_theta >= 1:
        raise ValueError(f"headroom_theta must be >= 1, got {headroom_theta}")
    return headroom_theta * etc.share


def map_with_loads(
    position: Sequence[float] | np.ndarray,
    etc: EtcMatrix,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode positions, rerouting tasks that would breach a VM's ceiling.

    Tasks are placed in ascending id. Each keeps its decoded VM unless that
    VM's load plus the task's ETC would exceed the threshold; the task then
    goes to the currently least-loaded VM (ties to the lowest index). The
    fallback VM is used even if it is itself above threshold: every task must
    land somewhere. Returns the assignment and the accumulated per-VM loads.

    A single (n,) position gives an (n,) assignment and (m,) loads; a (k, n)
    block of positions gives (k, n) assignments and (k, m) loads, row by row
    what the single form gives.
    """
    m = etc.m
    raw = decode_position(position, m, etc.arcs)
    block = np.atleast_2d(raw)  # a view: settling its rows settles raw
    k = block.shape[0]
    # task i's cost on its decoded VM j, computed where it is read
    costs = etc.lengths_mi / etc.mips.take(block)
    # bincount adds each weight into its bin in index order, so every total
    # is bit for bit the left-to-right sum the placement loop accumulates
    keys = block + m * np.arange(k)[:, np.newaxis]
    loads = np.bincount(keys.ravel(), weights=costs.ravel(), minlength=k * m).reshape(k, m)
    # partial sums of positive costs never decrease, so a row whose totals
    # all fit never breached on the way and keeps its raw decode
    breaching = (np.maximum.reduce(loads, axis=1) > threshold).nonzero()[0]
    if breaching.size:
        lengths, speeds = etc.lengths_mi.tolist(), etc.mips.tolist()
        for r in breaching.tolist():
            block[r], loads[r] = _place_in_order(block[r].tolist(), lengths, speeds, threshold)
    return raw, loads.reshape(raw.shape[:-1] + (m,))


def _place_in_order(
    raw: list[int], lengths: list[float], speeds: list[float], threshold: float
) -> tuple[list[int], list[float]]:
    """Place tasks in ascending id, rerouting each that would breach its VM."""
    loads = [0.0] * len(speeds)
    out = list(raw)
    for i, j in enumerate(raw):
        length = lengths[i]
        load = loads[j] + length / speeds[j]
        if load > threshold:
            j = loads.index(min(loads))
            load = loads[j] + length / speeds[j]
            out[i] = j
        loads[j] = load
    return out, loads
