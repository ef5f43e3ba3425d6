"""uavchain: trust-ranked, quantum-resilient blockchain simulator for UAV
edge networks.

Protocol layers (crypto provider, ledger, trust, consensus) are plain pure
modules; `engine` binds them into a deterministic discrete-event simulation
and `cli` exposes runs, sweeps, figure data and ledger audits.
"""

import functools
import operator

__version__ = "0.1.0"


def left_sum(values):
    """Sum left to right from the int 0, as ``sum()`` did before CPython 3.12
    made float sums compensated; every float sum in the package goes through
    here, so a run's outputs are the same on every supported CPython."""
    return functools.reduce(operator.add, values, 0)
