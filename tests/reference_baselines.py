"""Reference Min-Min: the plain greedy over the whole remaining ETC block.

This is the O(n²m) form of swarmsched.baselines.min_min, kept as the oracle
its sort-based form must match bit for bit. Each round rebuilds the
completion table of every remaining task on every VM and commits its
row-major argmin, which is the lowest task id first, then the lowest VM id.
Nothing here calls into the code under test apart from build_etc.
"""

from __future__ import annotations

import numpy as np

from swarmsched.domain import build_etc


def min_min(workload, vms):
    etc = build_etc(workload, vms)
    remaining = np.arange(etc.n)
    table = etc.lengths_mi[:, None] / etc.mips
    ready = np.zeros(etc.m)
    out = np.empty(etc.n, dtype=np.int64)
    while remaining.size:
        completion = ready + table[remaining]  # (k, m)
        # argmin returns the first minimum in row-major order, which is
        # exactly lowest task id first, then lowest VM id
        flat = int(np.argmin(completion))
        row, vm = divmod(flat, etc.m)
        task = int(remaining[row])
        out[task] = vm
        ready[vm] = completion[row, vm]
        remaining = np.delete(remaining, row)
    return out
