"""Reference capacity mapper: one position, one task at a time.

This is the plain sequential form of swarmsched.encoding.map_with_loads,
kept as the oracle its block form must match bit for bit. It decodes with
np.mod on identical VMs, and on other fleets by counting, coordinate by
coordinate, the speed arcs' inner edges at or below |x| mod m. It walks the
tasks in ascending id: each keeps its decoded VM unless that VM's load plus
the task's ETC would exceed the threshold, and then goes to the
least-loaded VM, ties to the lowest index. It builds its own ETC table,
lengths_mi[:, None] / mips, from the matrix's two vectors. Nothing here
calls into the code under test apart from EtcMatrix's arcs, which
tests/test_domain.py checks against the speeds they derive from.
"""

from __future__ import annotations

import numpy as np


def decode(position, m):
    return np.mod(np.floor(np.abs(np.asarray(position, dtype=float))), m).astype(np.int64)


def arc_decode(position, arcs):
    m = len(arcs) + 1
    points = np.mod(np.abs(np.asarray(position, dtype=float)), m)
    counts = [sum(edge <= x for edge in arcs.tolist()) for x in points.ravel().tolist()]
    return np.array(counts, dtype=np.int64).reshape(points.shape)


def map_with_loads(position, etc, threshold):
    m = etc.m
    rows = (etc.lengths_mi[:, None] / etc.mips).tolist()
    loads = [0.0] * m
    out = []
    vm_of = decode(position, m) if etc.arcs is None else arc_decode(position, etc.arcs)
    for i, j in enumerate(vm_of.tolist()):
        cost = rows[i][j]
        if loads[j] + cost > threshold:
            j = loads.index(min(loads))
            cost = rows[i][j]
        loads[j] += cost
        out.append(j)
    return np.array(out, dtype=np.int64), np.array(loads)
