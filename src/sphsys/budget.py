"""Search budget shared by the combinatorial kernels.

SPHSYS_MAX_STATES bounds state explosion in the Hilbert basis completion and
the inequality elimination; both fault loudly instead of degrading.  Unset
or empty it means 1 000 000; any other value must be a decimal count.
"""

import os

_DEFAULT = 1_000_000


def max_states() -> int:
    raw = os.environ.get("SPHSYS_MAX_STATES", "")
    if not raw:
        return _DEFAULT
    if not raw.isdecimal():
        raise ValueError(f"SPHSYS_MAX_STATES={raw!r} is not a decimal count "
                         "of states")
    return int(raw)


class BudgetExceeded(RuntimeError):
    pass
