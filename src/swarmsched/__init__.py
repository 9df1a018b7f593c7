"""Swarm-based cloud task scheduling with reproducible benchmarks.

A population that is simultaneously a particle swarm and a wolf pack searches
continuous positions that decode, capacity-aware, into task-to-VM assignments.
Ships with classical baselines (round-robin, Min-Min), a replicated experiment
harness with paired statistics, and a CLI.

The package exports every name in its library modules' ``__all__``; each
module's list is the one place a name is made public. The CLI is not exported.
"""

from . import baselines, domain, encoding, harness, metrics, optimizer, workload
from .baselines import *
from .domain import *
from .encoding import *
from .harness import *
from .metrics import *
from .optimizer import *
from .workload import *

__version__ = "0.4.1"

__all__ = [
    "__version__",
    *domain.__all__,
    *metrics.__all__,
    *encoding.__all__,
    *optimizer.__all__,
    *baselines.__all__,
    *workload.__all__,
    *harness.__all__,
]
