"""Host-speed calibration: a fixed reference kernel timed next to the program.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same call of the same code took from 2.2 s to 4.4 s within three minutes on
the 2-core Xeon box this was written on, with CPU time equal to wall time, so
neither CPU time nor a best-of-N estimate removes the drift. A reference
kernel that does not touch swarmsched slows down with the host in the same
spells. ``HostClock`` runs blocks of it between the program's timed sections
and scales each section's time by ``NOMINAL_CHUNK_S`` over the mean chunk
time around it. The result is the section's time at the nominal host speed:
program changes move it in full, host drift mostly cancels out.

The kernel mixes what the program does, on 3000 tasks and 8 VMs: a
pure-Python capacity-mapping loop over list rows, Min-Min style argmin steps,
and whole-swarm numpy updates with fresh random draws. Of the kernels tried,
this one, with a working set of a few hundred kB, tracked the drift of all
three workloads best; one on a few kB tracked `tiny-8x3` alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# One chunk on the 2-core Xeon box during a quiet spell. Any constant would
# do: it only sets the scale of the reported seconds.
NOMINAL_CHUNK_S = 0.035
BLOCK_SHARE = 0.1  # reference time after each section, as a share of the section
MIN_CHUNKS = 3


def reference_chunk() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    start = perf_counter()
    rng = np.random.default_rng(20240531)
    m, n = 8, 3000
    # a capacity-aware mapping loop over list rows, as the mapper runs it
    rows = rng.uniform(1.0, 10.0, (n, m)).tolist()
    threshold = 1.2 * sum(map(sum, rows)) / m / m
    for raw in rng.integers(0, m, (2, n)).tolist():
        loads = [0.0] * m
        for i, j in enumerate(raw):
            cost = rows[i][j]
            if loads[j] + cost > threshold:
                j = loads.index(min(loads))
                cost = rows[i][j]
            loads[j] += cost
    # Min-Min style steps: argmin over the whole array, then drop the row
    etc = rng.uniform(1.0, 10.0, (n, m))
    ready = np.zeros(m)
    for _ in range(60):
        completion = etc + ready
        row, col = divmod(int(np.argmin(completion)), m)
        ready[col] = completion[row, col]
        etc = np.delete(etc, row, axis=0)
    # whole-swarm updates with fresh random draws, each decoded to VM indices
    swarm = rng.uniform(-80.0, 80.0, (20, n))
    for _ in range(10):
        swarm = np.clip(0.7 * swarm + 1.5 * rng.random(swarm.shape) * (swarm[0] - swarm),
                        -80.0, 80.0)
        np.mod(np.floor(np.abs(swarm)), m).astype(np.int64)
    return perf_counter() - start


def reference_block(seconds: float) -> float:
    """Mean chunk time over a block of at least ``seconds`` (and MIN_CHUNKS chunks)."""
    times = []
    while len(times) < MIN_CHUNKS or sum(times) < seconds:
        times.append(reference_chunk())
    return sum(times) / len(times)


class HostClock:
    """Times sections of the program and scales them to the nominal host speed.

    Each section is measured between two reference blocks, the one before it
    (the previous section's block) and one after it sized to BLOCK_SHARE of
    the section, and scaled by NOMINAL_CHUNK_S over their mean chunk time.
    """

    def __init__(self) -> None:
        reference_block(0.2)  # warm-up, not used
        self._last = reference_block(0.2)
        self.raw_s = 0.0  # section time as measured
        self.scaled_s = 0.0  # section time at the nominal host speed

    def scale(self, raw: float) -> float:
        """Close a section of ``raw`` seconds: its factor to the nominal speed."""
        before, self._last = self._last, reference_block(BLOCK_SHARE * raw)
        factor = NOMINAL_CHUNK_S / (0.5 * (before + self._last))
        self.raw_s += raw
        self.scaled_s += raw * factor
        return factor

    def time(self, fn, *args):
        """Call fn(*args); returns (result, raw seconds, factor to the nominal speed)."""
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        return result, raw, self.scale(raw)

    @property
    def slowdown(self) -> float:
        """Measured over nominal time of every section so far: host speed context."""
        return self.raw_s / self.scaled_s if self.scaled_s else 1.0
