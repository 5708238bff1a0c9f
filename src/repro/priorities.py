"""Event/message priorities shared by the pure protocol core and the kernels.

The paper gives rollback procedures (b5, b6) the *highest* priority among
same-time events; checkpoint traffic comes next, then normal application
messages, then local timers.  Smaller runs first.

This module is dependency-free so that :mod:`repro.core.engine` (the sans-IO
protocol state machine) can stamp priorities on its effects without importing
any kernel package.
"""

PRIORITY_ROLLBACK = 0
PRIORITY_CHECKPOINT = 1
PRIORITY_NORMAL = 2
PRIORITY_TIMER = 3

__all__ = [
    "PRIORITY_CHECKPOINT",
    "PRIORITY_NORMAL",
    "PRIORITY_ROLLBACK",
    "PRIORITY_TIMER",
]
